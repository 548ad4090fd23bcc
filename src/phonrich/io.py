"""File formats: provenance-headed TSV and JSONL, score/trial/QMF readers."""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from array import array
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import chain, compress, count, repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter, not_
from pathlib import Path

import numpy as np

from . import __version__
from .inventory import ARPABET_39, PHONEME_INDEX
from .metrics import NONTARGET, TARGET, Qmfs, Trials, encode_ids

TRIAL_COLUMNS = ["model_id", "test_id", "label"]
SCORE_COLUMNS = TRIAL_COLUMNS + ["raw_score"]
SCATTER_COLUMNS = ["test_id", "qmf_name", "qmf_value", "score", "label"]
WRITE_CHUNK = 1 << 12  # trials per write: about 250 KB of TSV, or 1 MB of scatter CSV at four QMFs
BLOCK_CHARS = 1 << 16  # characters per read of a text input
JSONL_CHUNK = 1 << 7  # rows per write of a JSONL table: about 28 KB of corpus lines
# a byte that is not UTF-8, as errors="surrogateescape" decodes it
_ESCAPED_BYTE = re.compile("[\udc80-\udcff]")


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


def _not_utf8(path: str | Path, lineno: int, escaped: re.Match) -> str:
    return f"{path}:{lineno}: byte 0x{ord(escaped.group()) - 0xdc00:02x} is not UTF-8"


def line_blocks(path: str | Path, errors: str = "surrogateescape"):
    """(number of the first line, lines without their ends) of each block of a UTF-8 text file.

    The file is read BLOCK_CHARS characters at a time, and a block holds
    the lines that end in what has been read; a line that a read cuts
    goes to the next block. Lines end at "\\n", "\\r\\n" and "\\r" only:
    these are Python's universal newlines, which a text read translates
    to "\\n", so U+2028, "\\x0b", "\\x0c", "\\x85" and the like stay in
    their line. A leading byte order mark is dropped. A byte that is not
    UTF-8 fails with the file and line, once the lines before it have been
    handed out, unless ``errors`` decodes it another way.
    """
    with open(path, encoding="utf-8-sig", errors=errors) as f:
        first, parts = 1, []  # parts: the text of the line that the last read cut
        while text := f.read(BLOCK_CHARS):
            parts.append(text)
            if "\n" not in text:
                continue
            text = "".join(parts)
            lines = text.split("\n")
            parts = [lines.pop()]
            if not text.isascii() and (bad := _ESCAPED_BYTE.search(text)):
                row = text.count("\n", 0, bad.start())
                yield first, lines[:row]
                raise ValueError(_not_utf8(path, first + row, bad))
            del text  # while the block is read, only its lines are held
            yield first, lines
            first += len(lines)
        if last := "".join(parts):  # a last line with no end
            if bad := _ESCAPED_BYTE.search(last):
                raise ValueError(_not_utf8(path, first, bad))
            yield first, [last]


def numbered_lines(path: str | Path, errors: str = "surrogateescape"):
    """(line number, line without its end) of every line of a UTF-8 text file; see line_blocks."""
    for first, lines in line_blocks(path, errors):
        yield from zip(count(first), lines)


def read_tsv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    kept = [line.split("\t") for _, line in numbered_lines(path) if line and not line.startswith("#")]
    if not kept:
        raise ValueError(f"{path}: no header line found")
    return kept[0], kept[1:]


MISSING = object()  # the Table cell of a row that has no such key


@dataclass
class Table:
    """Records as columns: each key's list holds a value per row, MISSING where the row has no such
    key. A table of no columns has no rows."""

    columns: dict[str, list]

    def __len__(self) -> int:
        return len(next(iter(self.columns.values()), ()))

    def __getitem__(self, key: str) -> list:
        return self.columns[key]


# one encoder for every value that is not null or a plain string, int or float: the json module's C encoder
_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)
_NOT_ENCODED = {type(MISSING), type(None)}  # the types of the cells that _json_cells writes without an encoder


def _json_cells(key: str, values: list) -> list[str]:
    """', "key": ' and the value's text of each value, as json.dumps(..., sort_keys=True, allow_nan=False)
    writes the pair; "" for MISSING. NaN and infinities are refused."""
    kinds = set(map(type, values))
    present = values if kinds.isdisjoint(_NOT_ENCODED) else [v for v in values if v is not MISSING and v is not None]
    kinds -= _NOT_ENCODED
    encode = (encode_basestring_ascii if kinds <= {str} else  # json writes an int or a float as its repr
              repr if kinds <= {int} or kinds <= {float} and all(map(math.isfinite, present)) else _ENCODER.encode)
    head = f", {encode_basestring_ascii(key)}: "
    # each distinct string or int encoded once; floats are not looked up by value, as -0.0 == 0.0
    cells = (list(map({value: head + encode(value) for value in set(present)}.__getitem__, present))
             if kinds <= {str} or kinds <= {int} else list(map(head.__add__, map(encode, present))))
    if present is not values:
        cells, null = iter(cells), head + "null"
        return ["" if value is MISSING else null if value is None else next(cells) for value in values]
    return cells


def write_jsonl(path: str | Path, tables: Table | Iterable[Table], provenance: str | None = None) -> None:
    """One line per row of ``tables``, a table or tables one after another, as json.dumps(row, sort_keys=True,
    allow_nan=False) writes the row's dict, MISSING cells left out, after the provenance line (see
    write_lines). The rows are encoded and written JSONL_CHUNK at a time, a column of a chunk at a time,
    and a table is made only once the rows before it are written. NaN and infinities are refused."""
    def chunks():
        for table in [tables] if isinstance(tables, Table) else tables:
            for i in range(0, len(table), JSONL_CHUNK):
                rows = zip(*(_json_cells(key, table[key][i:i + JSONL_CHUNK]) for key in sorted(table.columns)))
                yield "{" + "}\n{".join(map(itemgetter(slice(2, None)), map("".join, rows))) + "}"  # cut the first ", "

    write_lines(path, provenance, chunks())


# JSON type of a required or optional key -> whether a value that json.loads gives is of that type;
# exact types, so true and false are not numbers, and a number is finite
JSON_TYPES = {
    "string": lambda v: type(v) is str,
    "number": lambda v: type(v) in (int, float) and abs(v) <= sys.float_info.max,
    "positive number": lambda v: JSON_TYPES["number"](v) and v > 0,
    "64-bit integer": lambda v: type(v) is int and -2**63 <= v < 2**63,
    "list": lambda v: type(v) is list,
    "string of 39 0s and 1s": lambda v: type(v) is str and len(v) == len(ARPABET_39) and not v.strip("01"),
    "list of ARPABET-39 symbols": lambda v: type(v) is list and all(type(s) is str and s in PHONEME_INDEX for s in v),
    "list of positive numbers or null": lambda v: v is None or type(v) is list
                                                  and all(map(JSON_TYPES["positive number"], v)),
}
COLUMN_TYPES = {  # JSON type -> whether each value of a column is of that type (JSON_TYPES), in C-level passes
    "string": lambda vs: set(map(type, vs)) <= {str},
    "number": lambda vs: set(map(type, vs)) <= {int, float} and max(map(abs, vs), default=0) <= sys.float_info.max,
    "positive number": lambda vs: COLUMN_TYPES["number"](vs) and min(vs, default=1) > 0,
    "64-bit integer": lambda vs: set(map(type, vs)) <= {int}
                                 and -2**63 <= min(vs, default=0) <= max(vs, default=0) < 2**63,
    "list": lambda vs: set(map(type, vs)) <= {list},
    "string of 39 0s and 1s": lambda vs: set(map(type, vs)) <= {str} and set(map(len, vs)) <= {len(ARPABET_39)}
                                         and not "".join(vs).strip("01"),
    "list of ARPABET-39 symbols": lambda vs: set(map(type, vs)) <= {list} and set(
        map(type, chain.from_iterable(vs))) <= {str} and set(chain.from_iterable(vs)) <= PHONEME_INDEX.keys(),
    "list of positive numbers or null": lambda vs: set(map(type, vs)) <= {list, type(None)} and COLUMN_TYPES[
        "positive number"](list(chain.from_iterable(filter(None, vs)))),
}


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


def _decode(texts) -> tuple[list[dict], str | None]:
    """The JSON objects of lines up to the first that does not hold one, and why it does not (None: all do)."""
    values = []
    for text in texts:
        try:
            value = _DECODER.decode(text)
        except (ValueError, RecursionError):
            try:  # again as json.loads reads it, NaN and Infinity included, for its message
                value = json.loads(text)
                if isinstance(value, dict):  # so the line failed for a NaN or an infinity; name its key
                    key, value = next((k, v) for k, v in value.items() if _holds_non_finite(v))
                    return values, f"{key} must be a finite number, got {json.dumps(value)}"
            except (ValueError, RecursionError) as exc:  # JSONDecodeError, an integer of more digits
                # than int() reads, or nesting deeper than the decoder or the scan for a NaN can go
                return values, f"malformed JSONL line: {exc}"
        if not isinstance(value, dict):
            return values, f"expected a JSON object, got {text.strip()}"
        values.append(value)
    return values, None


def _column_fault(key: str, kind: str, needed: bool, values: list) -> tuple[int, str] | None:
    """(row, why) of the first of a column of values of ``key`` (MISSING: none) not of its JSON type, or None."""
    if COLUMN_TYPES[kind](values) or not needed and COLUMN_TYPES[kind]([v for v in values if v is not MISSING]):
        return None  # the column checked as one; value by value below only to find and name its first fault
    for row in compress(count(), map(not_, map(JSON_TYPES[kind], values))):
        if values[row] is not MISSING:  # an int or a float that is not a "number" is not finite
            infinite = type(values[row]) in (int, float) and not JSON_TYPES["number"](values[row])
            kind = "finite number" if infinite and kind.endswith("number") else kind
            return row, f"{key} must be {'an' if kind[0] in 'aeiou' else 'a'} {kind}, got {json.dumps(values[row])}"
        if needed:
            return row, f"record has no {key}"
    return None


def iter_jsonl(path: str | Path, required: dict[str, str] | None = None, unique: str | None = None,
               optional: dict[str, str] | None = None, others: str | None = None, defaults: dict | None = None):
    """(line numbers, records, columns) of the JSON object lines of each block of a file (see line_blocks), a
    block yielded once read and checked a key at a time; blank lines and '#' lines are skipped.

    ``required`` maps each key a record must hold to its JSON type, a key of JSON_TYPES, ``optional``
    each key it may hold, and ``others``, if given, is the type of every other key. A missing required
    key or a value of another type fails with the file and line, as do NaN, Infinity and -Infinity,
    which are not JSON, wherever they stand, and a record that repeats an earlier one's value of the
    required key ``unique``, naming the line of the first, which the file is read again to find: only
    the values are held, not their lines. ``columns`` holds each checked key's value in each record, or
    its ``defaults`` value, checked too, or MISSING. The records before a fault are yielded first, so
    of two faults, found here or by the caller, the one on the earlier line is named.
    """
    checks = [(key, kind, needed) for keys, needed in ((required or {}, True), (optional or {}, False))
              for key, kind in keys.items()]
    named = {key for key, _, _ in checks}
    seen: set = set()  # the values of ``unique`` so far
    for first, block in line_blocks(path):
        kept = [bool(line.strip()) and not line.startswith("#") for line in block]
        numbers, (records, fault) = list(compress(count(first), kept)), _decode(compress(block, kept))
        rest = [(key, others, False) for key in dict.fromkeys(chain.from_iterable(records))
                if key not in named] if others else []
        columns = {}
        for key, kind, needed in checks + rest:  # each looks at the records before the first fault found so far
            columns[key] = list(map(dict.get, records, repeat(key), repeat((defaults or {}).get(key, MISSING))))
            if found := _column_fault(key, kind, needed, columns[key]):
                records, fault = records[:found[0]], found[1]
        ids = columns[unique][:len(records)] if unique is not None else []
        if (end := next((row for row, value in enumerate(ids) if value in seen or seen.add(value)), None)) is not None:
            first = next(n for lines, rows, _ in iter_jsonl(path) for n, row in zip(lines, rows)
                         if row.get(unique) == ids[end])  # the repeated value's first line
            records, fault = records[:end], f"duplicate {unique} {ids[end]!r}, first at line {first}"
        if records:
            yield numbers[:len(records)], records, {key: values[:len(records)] for key, values in columns.items()}
        if fault is not None:
            raise ValueError(f"{path}:{numbers[len(records)]}: {fault}")


def read_columns(path: str | Path, keys: dict[str, str], unique: str, kept=None) -> Table:
    """The ``keys``, each of its JSON type, of every record of a JSONL file in which no two records
    share their ``unique`` key (see iter_jsonl), as a table of the columns ``kept`` (default: every
    key); the others are checked a block at a time and not kept."""
    kept = keys if kept is None else kept
    blocks = [{key: columns[key] for key in kept} for _, _, columns in iter_jsonl(path, required=keys, unique=unique)]
    return Table({key: list(chain.from_iterable(block[key] for block in blocks)) for key in kept})


def read_jsonl(path: str | Path, required: dict[str, str] | None = None,
               unique: str | None = None) -> list[dict]:
    """Every record of iter_jsonl, as a list, without its line number."""
    return [rec for _, records, _ in iter_jsonl(path, required, unique) for rec in records]


def write_trial_table(path: str | Path, trials: Trials, provenance: str | None = None) -> None:
    """A trial list (TRIAL_COLUMNS) or, for trials with scores, a scores TSV (SCORE_COLUMNS): the
    provenance line, if any, the header, then one line per trial.

    Scores are written with 17 significant digits, so they read back to
    the same floats. Each id is formatted once, from the id tables, and
    the lines are written WRITE_CHUNK trials at a time.
    """
    scored = trials.scores is not None
    end = "\t" if scored else "\n"  # of the label cell
    models = np.array([f"{model_id}\t" for model_id in trials.models], dtype=object)
    tests = np.array([f"{test_id}\t" for test_id in trials.tests], dtype=object)
    labels = np.array([NONTARGET + end, TARGET + end], dtype=object)
    with open(path, "w") as f:
        if provenance:
            f.write(provenance + "\n")
        f.write("\t".join(SCORE_COLUMNS if scored else TRIAL_COLUMNS) + "\n")
        for start in range(0, len(trials), WRITE_CHUNK):
            part = slice(start, start + WRITE_CHUNK)
            cells = [models[trials.model_codes[part]].tolist(), tests[trials.test_codes[part]].tolist(),
                     labels[trials.is_target[part].astype(np.intp)].tolist()]
            if scored:
                cells.append(list(map("{:.17g}\n".format, trials.scores[part].tolist())))
            f.write("".join(chain.from_iterable(zip(*cells))))


def write_scores(path: str | Path, trials: Trials, provenance: str | None = None) -> None:
    """Scores TSV (SCORE_COLUMNS); see write_trial_table."""
    write_trial_table(path, trials, provenance)


def write_scatter(path: str | Path, trials: Trials, qmf_names: list[str], block: np.ndarray) -> None:
    """The correlation scatter CSV: its header, then one line per trial and QMF name.

    Lines come in trial order and, within a trial, in the order of
    ``qmf_names``; ``block`` holds the QMFs ``qmf_names`` of each test of
    ``trials.tests``. Values and scores are written with 17 significant
    digits. Each test's cells and each trial's score and label are
    formatted once, and the lines are written WRITE_CHUNK trials at a time.
    """
    heads = [[f"{test_id},{name},{value:.17g}," for name, value in zip(qmf_names, row)]
             for test_id, row in zip(trials.tests, block.tolist())]
    labels = trials.labels()
    with open(path, "w") as f:
        f.write(",".join(SCATTER_COLUMNS) + "\n")
        if not qmf_names:
            return
        for start in range(0, len(trials), WRITE_CHUNK):
            part = slice(start, start + WRITE_CHUNK)
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
    and line. Each block of lines (see line_blocks) is parsed a column at
    a time, its ids encoded into tables that grow block by block, so the
    reader holds one block of text besides the columns; of two faults in
    different blocks, the earlier block's is named.
    """
    columns = SCORE_COLUMNS if scored else TRIAL_COLUMNS
    width = len(columns)
    lines = array("q")  # an array, not a list: 8 bytes a line
    model_index: dict[str, int] = {}  # id -> code, in order of first appearance
    test_index: dict[str, int] = {}
    # one array per block of each column
    model_codes, test_codes, targets, values = ([np.empty(0, dtype)]
                                                for dtype in (np.intp, np.intp, bool, float))
    header, numbers = None, []  # numbers: the line of each row of the block

    def fail(row: int, message: str):
        raise ValueError(f"{path}:{numbers[row]}: {message}")

    for first, rows in line_blocks(path):
        numbers = range(first, first + len(rows))
        if "" in rows or any(map(str.startswith, rows, repeat("#"))):
            kept = [i for i, row in enumerate(rows) if row and not row.startswith("#")]
            rows, numbers = [rows[i] for i in kept], [numbers[i] for i in kept]
        if header is None and rows:
            header = rows[0].split("\t")
            if header != columns:
                fail(0, f"expected columns {columns}, got {header}")
            rows, numbers = rows[1:], numbers[1:]
        if not rows:
            continue
        tabs = list(map(str.count, rows, repeat("\t")))  # each row's, so no two faulty rows cancel out
        if (row := next(compress(count(), map((width - 1).__ne__, tabs)), None)) is not None:
            fail(row, f"expected {width} tab-separated fields, got {tabs[row] + 1}")
        cells = "\t".join(rows).split("\t")
        labels = cells[2::width]
        if (row := next(compress(count(), map(not_, map({TARGET, NONTARGET}.__contains__, labels))), None)) is not None:
            fail(row, f"label must be target/nontarget, got {labels[row]!r}")
        targets.append(np.fromiter(map(TARGET.__eq__, labels), dtype=bool, count=len(rows)))
        if scored:
            scores = cells[3::width]
            try:
                values.append(np.fromiter(map(float, scores), dtype=float, count=len(rows)))
            except ValueError:
                for row, text in enumerate(scores):
                    try:
                        float(text)
                    except ValueError:
                        fail(row, f"score is not a number: {text!r}")
            finite = np.isfinite(values[-1])
            if not finite.all():
                row = int(np.argmin(finite))
                fail(row, f"non-finite score {scores[row]!r}")
        model_codes.append(encode_ids(cells[0::width], model_index))
        test_codes.append(encode_ids(cells[1::width], test_index))
        lines.extend(numbers)
    if header is None:
        raise ValueError(f"{path}: no header line found")
    trials = Trials(list(model_index), list(test_index), np.concatenate(model_codes),
                    np.concatenate(test_codes), np.concatenate(targets),
                    np.concatenate(values) if scored else None, str(path))
    keys = trials.model_codes * len(trials.tests) + trials.test_codes
    ordered = np.sort(keys)
    if (ordered[1:] == ordered[:-1]).any():  # then find the first repeat in file order
        first_row: dict[int, int] = {}
        for row, key in enumerate(keys.tolist()):
            if first_row.setdefault(key, row) != row:
                pair = f"({trials.models[trials.model_codes[row]]}, {trials.tests[trials.test_codes[row]]})"
                raise ValueError(f"{path}:{lines[row]}: duplicate trial {pair}, "
                                 f"first at line {lines[first_row[key]]}")
    return trials, lines


def read_qmfs(path: str | Path) -> Qmfs:
    """QMF JSONL as one table: a row per record, in file order, and a column per key but test_id.

    Every key but test_id must be a finite JSON number, and net_speech a positive one. Records may
    hold different keys; a row is NaN where its record lacks one, and a key no record holds has no
    column. The table's source is ``path``, and its lines those of the records.
    """
    blocks, lines = [], array("q")
    for numbers, _, columns in iter_jsonl(path, required={"test_id": "string"}, unique="test_id",
                                          optional={"net_speech": "positive number"}, others="number"):
        blocks.append(columns)
        lines.extend(numbers)
    held = {name for block in blocks for name, values in block.items() if any(v is not MISSING for v in values)}
    return Qmfs.from_columns([i for block in blocks for i in block["test_id"]], {
        name: [math.nan if value is MISSING else value for block in blocks
               for value in block.get(name, [MISSING] * len(block["test_id"]))]
        for name in held - {"test_id"}}, str(path), lines)


def write_qmfs(path: str | Path, qmfs: Qmfs, provenance: str | None = None) -> None:
    """One JSONL record per row of ``qmfs``: its test_id and every value that is not NaN."""
    columns = {"test_id": qmfs.test_ids}
    for name, values in zip(qmfs.names, qmfs.values.T):
        columns[name] = [MISSING if math.isnan(value) else value for value in values.tolist()]
    write_jsonl(path, Table(columns), provenance)
