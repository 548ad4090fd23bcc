"""File formats: provenance-headed TSV and JSONL, score/trial/QMF readers."""

from __future__ import annotations

import hashlib
import json
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import NONTARGET, TARGET, Trials, decode_ids

TRIAL_COLUMNS = ["model_id", "test_id", "label"]
SCORE_COLUMNS = TRIAL_COLUMNS + ["raw_score"]


def file_digest(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()[:12]


def provenance_line(subcommand: str, seed: int | None = None, inputs=()) -> str:
    """Comment header embedded in every output file; no timestamps, byte-stable."""
    parts = [f"# phonrich={__version__}", f"cmd={subcommand}"]
    if seed is not None:
        parts.append(f"seed={seed}")
    if inputs:
        digests = ",".join(f"{Path(p).name}:{file_digest(p)}" for p in inputs)
        parts.append(f"inputs={digests}")
    return " ".join(parts)


def _write_lines(path: str | Path, provenance: str | None, lines) -> None:
    """The provenance line, if any, then each line, each ending in "\\n"; a file with neither is "\\n"."""
    with open(path, "w") as f:
        f.writelines(f"{line}\n" for line in chain([provenance] if provenance else [], lines))
        if f.tell() == 0:
            f.write("\n")


def write_tsv(path: str | Path, header: list[str], rows, provenance: str | None = None) -> None:
    _write_lines(path, provenance, chain(["\t".join(header)], ("\t".join(map(str, row)) for row in rows)))


def _data_lines(path: str | Path) -> list[str]:
    """The lines of a TSV that are not blank or '#' comments: the header, then the data rows."""
    return [line for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]


def read_tsv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    kept = [line.split("\t") for line in _data_lines(path)]
    if not kept:
        raise ValueError(f"{path}: no header line found")
    return kept[0], kept[1:]


def data_line(path: str | Path, row: int) -> int:
    """File line of data row ``row`` of a TSV (-1: the header), skipping blank and '#' lines."""
    lines = Path(path).read_text().splitlines()
    return [i for i, line in enumerate(lines, start=1) if line and not line.startswith("#")][row + 1]


def write_jsonl(path: str | Path, records, provenance: str | None = None) -> None:
    """One line per record, as json.dumps(rec, sort_keys=True) writes it."""
    _write_lines(path, provenance, map(json.JSONEncoder(sort_keys=True).encode, records))


# JSON type of a required key -> (the Python types json.loads gives it, the type of each
# item of a list); exact types, so true and false are not numbers
JSON_TYPES = {
    "string": ({str}, None),
    "number": ({int, float}, None),
    "list": ({list}, None),
    "list of strings": ({list}, str),
}
_MISSING = object()


def _jsonl_lines(path: str | Path):
    """(line number, text) of each JSONL line that is not blank or a '#' comment.

    Lines end only at "\\n", "\\r\\n" and "\\r", so a raw U+2028 inside a
    JSON string stays in its line.
    """
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            if line.strip() and not line.startswith("#"):
                yield lineno, line.rstrip("\n")


def iter_jsonl(path: str | Path, required: dict[str, str] | None = None, unique: str | None = None):
    """One JSON object per line, each yielded once read and checked; '#' lines are comments.

    ``required`` maps each key a record must hold to its JSON type, a key
    of JSON_TYPES. A missing key or a value of another type fails with
    the file and line. No two records may share their value of the
    required key ``unique``: a repeat fails at its second record, naming
    the line of the first.
    """
    checks = [(key, kind, *JSON_TYPES[kind]) for key, kind in (required or {}).items()]
    first_line: dict[str, int] = {}
    for lineno, line in _jsonl_lines(path):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}:{lineno}: malformed JSONL line: {exc}") from exc
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object, got {line.strip()}")
        for key, kind, types, item_type in checks:
            value = rec.get(key, _MISSING)
            if type(value) not in types or (item_type and not all(map(isinstance, value, repeat(item_type)))):
                if value is _MISSING:
                    raise ValueError(f"{path}:{lineno}: record has no {key}")
                raise ValueError(f"{path}:{lineno}: {key} must be a {kind}, got {json.dumps(value)}")
        if unique is not None:
            if first_line.setdefault(rec[unique], lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate {unique} {rec[unique]!r}, "
                                 f"first at line {first_line[rec[unique]]}")
        yield rec


def read_jsonl(path: str | Path, required: dict[str, str] | None = None,
               unique: str | None = None) -> list[dict]:
    """Every record of iter_jsonl, as a list."""
    return list(iter_jsonl(path, required, unique))


def record_line(path: str | Path, record: int) -> int:
    """File line of the ``record``-th JSONL record, counting lines as iter_jsonl does."""
    return next(islice(_jsonl_lines(path), record, None))[0]


def write_scores(path: str | Path, trials: Trials, provenance: str | None = None) -> None:
    rows = zip(decode_ids(trials.models, trials.model_codes), decode_ids(trials.tests, trials.test_codes),
               trials.labels(), [f"{s:.17g}" for s in trials.scores.tolist()])
    write_tsv(path, SCORE_COLUMNS, rows, provenance)


def read_scores(path: str | Path) -> Trials:
    """Scores TSV (SCORE_COLUMNS) straight into columns; see read_trial_table."""
    return read_trial_table(path, scored=True)


def read_trial_table(path: str | Path, scored: bool = False) -> Trials:
    """A trial list (TRIAL_COLUMNS) or, if ``scored``, a scores TSV (SCORE_COLUMNS) as Trials.

    A wrong header, a row with another field count, a label other than
    target/nontarget, a score that is not a finite number or a repeated
    (model_id, test_id) fails with the file and line.
    """
    columns = SCORE_COLUMNS if scored else TRIAL_COLUMNS
    width = len(columns)
    kept = _data_lines(path)

    def fail(row: int, message: str):
        raise ValueError(f"{path}:{data_line(path, row)}: {message}")

    if not kept:
        raise ValueError(f"{path}: no header line found")
    header, rows = kept[0].split("\t"), kept[1:]
    if header != columns:
        fail(-1, f"expected columns {columns}, got {header}")

    fields = np.array([row.count("\t") for row in rows], dtype=int) + 1
    if np.any(fields != width):
        row = int(np.argmax(fields != width))
        fail(row, f"expected {width} tab-separated fields, got {fields[row]}")
    cells = "\t".join(rows).split("\t") if rows else []
    model_ids, test_ids, labels = cells[0::width], cells[1::width], cells[2::width]

    if set(labels) - {TARGET, NONTARGET}:
        row = next(i for i, label in enumerate(labels) if label not in (TARGET, NONTARGET))
        fail(row, f"label must be target/nontarget, got {labels[row]!r}")
    values = None
    if scored:
        scores = cells[3::width]
        try:
            values = np.array(list(map(float, scores)), dtype=float)
        except ValueError:
            for row, text in enumerate(scores):
                try:
                    float(text)
                except ValueError:
                    fail(row, f"score is not a number: {text!r}")
        finite = np.isfinite(values)
        if not finite.all():
            row = int(np.argmin(finite))
            fail(row, f"non-finite score {scores[row]!r}")
    trials = Trials.from_ids(model_ids, test_ids,
                             np.array([label == TARGET for label in labels], dtype=bool), values)
    keys = (trials.model_codes * len(trials.tests) + trials.test_codes).tolist()
    if len(set(keys)) < len(keys):
        first: dict[int, int] = {}
        for row, key in enumerate(keys):
            if first.setdefault(key, row) != row:
                fail(row, f"duplicate trial ({model_ids[row]}, {test_ids[row]}), "
                          f"first at line {data_line(path, first[key])}")
    return trials


def read_qmfs(path: str | Path) -> dict[str, dict[str, float]]:
    """QMF JSONL: one object per test utterance, keyed by test_id; every other key is a number."""
    qmfs = {}
    for row, rec in enumerate(iter_jsonl(path, required={"test_id": "string"}, unique="test_id")):
        test_id = rec.pop("test_id")
        for key, value in rec.items():
            if type(value) not in JSON_TYPES["number"][0]:
                raise ValueError(f"{path}:{record_line(path, row)}: {key} must be a number, "
                                 f"got {json.dumps(value)}")
        qmfs[test_id] = {k: float(v) for k, v in rec.items()}
    return qmfs
