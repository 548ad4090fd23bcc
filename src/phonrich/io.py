"""File formats: provenance-headed TSV and JSONL, score/trial/QMF readers."""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from array import array
from itertools import chain, repeat
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import NONTARGET, TARGET, Qmfs, Trials, decode_ids

TRIAL_COLUMNS = ["model_id", "test_id", "label"]
SCORE_COLUMNS = TRIAL_COLUMNS + ["raw_score"]
SCATTER_COLUMNS = ["test_id", "qmf_name", "qmf_value", "score", "label"]
SCATTER_CHUNK = 1 << 12  # trials per write: about 1 MB of text at four QMFs
# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


class RowError(ValueError):
    """A fault in item ``row`` of a list read from a file; the caller, which holds each item's
    file line, names the line."""

    def __init__(self, row: int, message: str):
        super().__init__(message)
        self.row = row


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


def write_lines(path: str | Path, provenance: str | None, lines) -> None:
    """The provenance line, if any, then each line, each ending in "\\n"; a file with neither is "\\n"."""
    with open(path, "w") as f:
        f.writelines(f"{line}\n" for line in chain([provenance] if provenance else [], lines))
        if f.tell() == 0:
            f.write("\n")


def write_tsv(path: str | Path, header: list[str], rows, provenance: str | None = None) -> None:
    write_lines(path, provenance, chain(["\t".join(header)], ("\t".join(map(str, row)) for row in rows)))


def numbered_lines(path: str | Path, errors: str = "surrogateescape"):
    """(line number, line without its end) of every line of a UTF-8 text file, streamed.

    Lines end at "\\n", "\\r\\n" and "\\r" only: these are Python's
    universal newlines, which iterating an open file follows, so U+2028,
    "\\x0b", "\\x0c", "\\x85" and the like stay in their line. A leading
    byte order mark is dropped. A byte that is not UTF-8 fails with the
    file and line, unless ``errors`` decodes it another way.
    """
    with open(path, encoding="utf-8-sig", errors=errors) as f:
        for lineno, line in enumerate(f, start=1):
            if not line.isascii() and (bad := _ESCAPED_BYTE.search(line)):
                raise ValueError(f"{path}:{lineno}: byte 0x{ord(bad.group()) - 0xdc00:02x} is not UTF-8")
            yield lineno, line.rstrip("\n")


def read_tsv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    kept = [line.split("\t") for _, line in numbered_lines(path) if line and not line.startswith("#")]
    if not kept:
        raise ValueError(f"{path}: no header line found")
    return kept[0], kept[1:]


def write_jsonl(path: str | Path, records, provenance: str | None = None) -> None:
    """One line per record, as json.dumps(rec, sort_keys=True) writes it; NaN and infinities are refused."""
    write_lines(path, provenance, map(json.JSONEncoder(sort_keys=True, allow_nan=False).encode, records))


# JSON type of a required or optional key -> (the Python types json.loads gives it, the type of each
# item of a list); exact types, so true and false are not numbers
JSON_TYPES = {
    "string": ({str}, None),
    "number": ({int, float}, None),
    "integer": ({int}, None),
    "list": ({list}, None),
    "list of strings": ({list}, str),
    "list of numbers or null": ({list, type(None)}, (int, float)),
}
_MISSING = object()


def _refuse_constant(token: str):
    """NaN, Infinity or -Infinity: Python's json reads these, but JSON has no such numbers."""
    raise ValueError(token)


# one decoder for every line: json.loads with parse_constant would build a decoder per call
_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def _holds_non_finite(value) -> bool:
    """Whether ``value`` is, or holds at any depth, a float that is not finite."""
    if isinstance(value, float):
        return not math.isfinite(value)
    items = value.values() if isinstance(value, dict) else value if isinstance(value, list) else ()
    return any(map(_holds_non_finite, items))


def _number_error(key: str, value) -> str | None:
    """Why ``value`` of ``key`` is not a finite JSON number (true and false are not numbers), or None."""
    if type(value) not in JSON_TYPES["number"][0]:
        return f"{key} must be a number, got {json.dumps(value)}"
    if not abs(value) <= sys.float_info.max:  # NaN, an infinity, or an integer no float holds
        return f"{key} must be a finite number, got {json.dumps(value)}"
    return None


def iter_jsonl(path: str | Path, required: dict[str, str] | None = None, unique: str | None = None,
               optional: dict[str, str] | None = None):
    """(line number, record) of each JSON object line, each yielded once read and checked;
    blank lines and '#' lines are skipped.

    ``required`` maps each key a record must hold to its JSON type, a key
    of JSON_TYPES, and ``optional`` each key it may hold. A missing
    required key or a value of another type fails with the file and line,
    as does a number that is not finite. NaN, Infinity and -Infinity,
    which are not JSON, fail wherever they stand. No two
    records may share their value of the required key ``unique``: a
    repeat fails at its second record, naming the line of the first.
    """
    required = required or {}
    checks = [(key, kind, key in required, *JSON_TYPES[kind])
              for key, kind in chain(required.items(), (optional or {}).items())]
    first_line: dict[str, int] = {}
    for lineno, line in numbered_lines(path):
        if not line.strip() or line.startswith("#"):
            continue
        try:
            rec = _DECODER.decode(line)
        except ValueError:
            try:  # again as json.loads reads it, NaN and Infinity included, for its message
                rec = json.loads(line)
            except ValueError as exc:  # JSONDecodeError, or an integer of more digits than int() reads
                raise ValueError(f"{path}:{lineno}: malformed JSONL line: {exc}") from exc
            if isinstance(rec, dict):  # so the line failed for a NaN or an infinity; name its key
                key, value = next((k, v) for k, v in rec.items() if _holds_non_finite(v))
                raise ValueError(f"{path}:{lineno}: {key} must be a finite number, "
                                 f"got {json.dumps(value)}") from None
        if not isinstance(rec, dict):
            raise ValueError(f"{path}:{lineno}: expected a JSON object, got {line.strip()}")
        for key, kind, needed, types, item_type in checks:
            value = rec.get(key, _MISSING)
            if type(value) not in types or (item_type and value
                                            and not all(map(isinstance, value, repeat(item_type)))):
                if value is _MISSING:
                    if not needed:
                        continue
                    raise ValueError(f"{path}:{lineno}: record has no {key}")
                article = "an" if kind[0] in "aeiou" else "a"
                raise ValueError(f"{path}:{lineno}: {key} must be {article} {kind}, got {json.dumps(value)}")
            if kind == "number" and (error := _number_error(key, value)):
                raise ValueError(f"{path}:{lineno}: {error}")
        if unique is not None:
            if first_line.setdefault(rec[unique], lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: duplicate {unique} {rec[unique]!r}, "
                                 f"first at line {first_line[rec[unique]]}")
        yield lineno, rec


def read_jsonl(path: str | Path, required: dict[str, str] | None = None,
               unique: str | None = None) -> list[dict]:
    """Every record of iter_jsonl, as a list, without its line number."""
    return [rec for _, rec in iter_jsonl(path, required, unique)]


def write_scores(path: str | Path, trials: Trials, provenance: str | None = None) -> None:
    rows = zip(decode_ids(trials.models, trials.model_codes), decode_ids(trials.tests, trials.test_codes),
               trials.labels(), [f"{s:.17g}" for s in trials.scores.tolist()])
    write_tsv(path, SCORE_COLUMNS, rows, provenance)


def write_scatter(path: str | Path, trials: Trials, qmf_names: list[str], block: np.ndarray) -> None:
    """The correlation scatter CSV: its header, then one line per trial and QMF name.

    Lines come in trial order and, within a trial, in the order of
    ``qmf_names``; ``block`` holds the QMFs ``qmf_names`` of each test of
    ``trials.tests``. Values and scores are written with 17 significant
    digits. Each test's cells and each trial's score and label are
    formatted once, and the lines are written SCATTER_CHUNK trials at a time.
    """
    heads = [[f"{test_id},{name},{value:.17g}," for name, value in zip(qmf_names, row)]
             for test_id, row in zip(trials.tests, block.tolist())]
    labels = trials.labels()
    with open(path, "w") as f:
        f.write(",".join(SCATTER_COLUMNS) + "\n")
        if not qmf_names:
            return
        for start in range(0, len(trials), SCATTER_CHUNK):
            part = slice(start, start + SCATTER_CHUNK)
            tails = [f"{score:.17g},{label}\n"
                     for score, label in zip(trials.scores[part].tolist(), labels[part])]
            # a trial's lines: each head of its test, each followed by the trial's tail
            f.write("".join([tail.join(heads[code]) + tail
                             for code, tail in zip(trials.test_codes[part].tolist(), tails)]))


def read_scores(path: str | Path) -> Trials:
    """Scores TSV (SCORE_COLUMNS) straight into columns; see read_trial_table."""
    return read_trial_table(path, scored=True)[0]


def read_trial_table(path: str | Path, scored: bool = False) -> tuple[Trials, array]:
    """A trial list (TRIAL_COLUMNS) or, if ``scored``, a scores TSV (SCORE_COLUMNS) as Trials,
    and the file line of each trial.

    Blank and '#' lines are skipped. A wrong header, a row with another
    field count, a label other than target/nontarget, a score that is not
    a finite number or a repeated (model_id, test_id) fails with the file
    and line.
    """
    columns = SCORE_COLUMNS if scored else TRIAL_COLUMNS
    width = len(columns)
    lines, rows = array("q"), []  # an array, not a list: 8 bytes a line
    for lineno, line in numbered_lines(path):
        if line and not line.startswith("#"):
            lines.append(lineno)
            rows.append(line)
    if not rows:
        raise ValueError(f"{path}: no header line found")
    header_line, header = lines.pop(0), rows.pop(0).split("\t")
    if header != columns:
        raise ValueError(f"{path}:{header_line}: expected columns {columns}, got {header}")

    def fail(row: int, message: str):
        raise ValueError(f"{path}:{lines[row]}: {message}")

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
                          f"first at line {lines[first[key]]}")
    return trials, lines


def read_qmfs(path: str | Path) -> Qmfs:
    """QMF JSONL as one table: a row per record, in file order, and a column per key but test_id.

    Every key but test_id must be a finite JSON number. Records may hold
    different keys; a row is NaN where its record lacks one.
    """
    test_ids, records = [], []
    for lineno, rec in iter_jsonl(path, required={"test_id": "string"}, unique="test_id"):
        test_ids.append(rec.pop("test_id"))
        for key, value in rec.items():
            if error := _number_error(key, value):
                raise ValueError(f"{path}:{lineno}: {error}")
        records.append(rec)
    return Qmfs.from_columns(test_ids, {name: [rec.get(name, math.nan) for rec in records]
                                        for name in set().union(*records)})


def write_qmfs(path: str | Path, qmfs: Qmfs, provenance: str | None = None) -> None:
    """One JSONL record per row of ``qmfs``: its test_id and every value that is not NaN."""
    write_jsonl(path, ({"test_id": test_id, **{name: value for name, value in zip(qmfs.names, row)
                                               if not math.isnan(value)}}
                       for test_id, row in zip(qmfs.test_ids, qmfs.values.tolist())), provenance)
