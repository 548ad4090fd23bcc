"""File formats: provenance-headed TSV and JSONL, score/trial/QMF readers."""

from __future__ import annotations

import hashlib
import json
from itertools import repeat
from pathlib import Path

import numpy as np

from . import __version__
from .metrics import NONTARGET, TARGET, Trials

SCORE_COLUMNS = ["model_id", "test_id", "label", "raw_score"]


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


def write_tsv(path: str | Path, header: list[str], rows, provenance: str | None = None) -> None:
    lines = []
    if provenance:
        lines.append(provenance)
    lines.append("\t".join(header))
    for row in rows:
        lines.append("\t".join(map(str, row)))
    Path(path).write_text("\n".join(lines) + "\n")


def read_tsv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    header = None
    rows = []
    for line in Path(path).read_text().splitlines():
        if not line or line.startswith("#"):
            continue
        cells = line.split("\t")
        if header is None:
            header = cells
        else:
            rows.append(cells)
    if header is None:
        raise ValueError(f"{path}: no header line found")
    return header, rows


def data_line(path: str | Path, row: int) -> int:
    """File line of data row ``row`` of a TSV (-1: the header), skipping blank and '#' lines."""
    lines = Path(path).read_text().splitlines()
    return [i for i, line in enumerate(lines, start=1) if line and not line.startswith("#")][row + 1]


def write_jsonl(path: str | Path, records, provenance: str | None = None) -> None:
    lines = []
    if provenance:
        lines.append(provenance)
    for rec in records:
        lines.append(json.dumps(rec, sort_keys=True))
    Path(path).write_text("\n".join(lines) + "\n")


# JSON type of a required key -> (the Python types json.loads gives it, the type of each
# item of a list); exact types, so true and false are not numbers
JSON_TYPES = {
    "string": ({str}, None),
    "number": ({int, float}, None),
    "list": ({list}, None),
    "list of strings": ({list}, str),
}
_MISSING = object()


def read_jsonl(path: str | Path, required: dict[str, str] | None = None) -> list[dict]:
    """One JSON object per line; '#' lines are comments.

    ``required`` maps each key a record must hold to its JSON type, a key
    of JSON_TYPES. A missing key or a value of another type fails with
    the file and line.
    """
    checks = [(key, kind, *JSON_TYPES[kind]) for key, kind in (required or {}).items()]
    records = []
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
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
        records.append(rec)
    return records


def record_line(path: str | Path, record: int) -> int:
    """File line of the ``record``-th JSONL record, skipping blank and '#' lines as read_jsonl does."""
    lines = Path(path).read_text().splitlines()
    return [i for i, line in enumerate(lines, start=1) if line.strip() and not line.startswith("#")][record]


def write_scores(path: str | Path, trials: Trials, provenance: str | None = None) -> None:
    rows = zip(trials.model_ids, trials.test_ids, trials.labels(),
               [f"{s:.17g}" for s in trials.scores.tolist()])
    write_tsv(path, SCORE_COLUMNS, rows, provenance)


def read_scores(path: str | Path) -> Trials:
    """Scores TSV straight into columns; a malformed row fails with its file and line."""
    kept = [line for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]

    def fail(row: int, message: str):
        raise ValueError(f"{path}:{data_line(path, row)}: {message}")

    if not kept:
        raise ValueError(f"{path}: no header line found")
    header, rows = kept[0].split("\t"), kept[1:]
    if header != SCORE_COLUMNS:
        fail(-1, f"expected columns {SCORE_COLUMNS}, got {header}")

    fields = np.array([row.count("\t") for row in rows], dtype=int) + 1
    if np.any(fields != 4):
        row = int(np.argmax(fields != 4))
        fail(row, f"expected 4 tab-separated fields, got {fields[row]}")
    cells = "\t".join(rows).split("\t") if rows else []
    model_ids, test_ids, labels, scores = cells[0::4], cells[1::4], cells[2::4], cells[3::4]

    if set(labels) - {TARGET, NONTARGET}:
        row = next(i for i, label in enumerate(labels) if label not in (TARGET, NONTARGET))
        fail(row, f"label must be target/nontarget, got {labels[row]!r}")
    try:
        values = np.array(list(map(float, scores)), dtype=float)
    except ValueError:
        row = next(i for i, s in enumerate(scores) if not _parses_as_float(s))
        fail(row, f"score is not a number: {scores[row]!r}")
    finite = np.isfinite(values)
    if not finite.all():
        row = int(np.argmin(finite))
        fail(row, f"non-finite score {scores[row]!r}")
    keys = list(map("\t".join, zip(model_ids, test_ids)))
    if len(set(keys)) < len(keys):
        first: dict[str, int] = {}
        for row, key in enumerate(keys):
            if key in first:
                fail(row, f"duplicate trial ({model_ids[row]}, {test_ids[row]}), "
                          f"first at line {data_line(path, first[key])}")
            first[key] = row
    return Trials(model_ids, test_ids, np.array([label == TARGET for label in labels], dtype=bool),
                  values)


def _parses_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_qmfs(path: str | Path) -> dict[str, dict[str, float]]:
    """QMF JSONL: one object per test utterance, keyed by test_id."""
    qmfs = {}
    for rec in read_jsonl(path, required={"test_id": "string"}):
        test_id = rec.pop("test_id")
        qmfs[test_id] = {k: float(v) for k, v in rec.items() if isinstance(v, (int, float))}
    return qmfs
