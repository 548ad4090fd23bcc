"""The text readers give the same values and the same errors whatever the block size of
io.line_blocks, a score table survives write_scores -> read_scores, iter_jsonl's column checks agree
with its value checks, and write_jsonl writes each row of a table as json.dumps writes the row."""

import codecs
import json
import math
import random
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import phonrich.io
from phonrich.inventory import ARPABET_39, PHONEME_INDEX
from phonrich.io import (COLUMN_TYPES, JSONL_CHUNK, MISSING, Table, _column_fault, iter_jsonl, numbered_lines,
                         read_scores, read_trial_table, write_jsonl, write_scores)

from conftest import trials_from_ids

# block sizes that cut lines, line ends and characters at every place
SMALL_BLOCKS = [1, 2, 3, 7]

SCORES = ["model_id\ttest_id\tlabel\traw_score", "m1\tt1\ttarget\t0.5", "m2\tt1\tnontarget\t-0.25",
          "m1\tt2\tnontarget\t1e-3"]
# one score table per case, each a way its lines can come in
TABLES = {
    "crlf": "\r\n".join(SCORES) + "\r\n",
    "lone-cr": "\r".join(SCORES) + "\r",
    "mixed-ends": SCORES[0] + "\r\n" + SCORES[1] + "\r" + SCORES[2] + "\n" + SCORES[3] + "\r\n",
    "multibyte": "\n".join(SCORES).replace("m1", "mé€\U0001d11e") + "\n",
    "bom": "\ufeff" + "\n".join(SCORES) + "\n",
    "comments-and-blanks": "\n".join([SCORES[0], "# a note\t\t", "", SCORES[1], "#", "", "", SCORES[2],
                                      SCORES[3], "# last"]) + "\n",
    "no-last-end": "\n".join(SCORES),
    "header-after-comments": "# phonrich=0 cmd=simulate\n#\n\n" + "\n".join(SCORES) + "\n",
}
JSONL = [json.dumps({"test_id": f"t{i}", "cu": i + 0.5}, ensure_ascii=False) for i in range(3)]
JSONL_INPUTS = {
    "crlf": "\r\n".join(JSONL) + "\r\n",
    "lone-cr": "\r".join(JSONL) + "\r",
    "multibyte": "\n".join(JSONL).replace("t1", "té \U0001d11e") + "\n",
    "bom": "\ufeff" + "\n".join(JSONL) + "\n",
    "comments-and-blanks": "\n".join(["# a note", "", JSONL[0], "  ", "#", JSONL[1], "", JSONL[2]]) + "\n",
    "no-last-end": "\n".join(JSONL),
}
# (file bytes, the line of the fault a table reader names): a byte that is not UTF-8, or a
# fault on a line before such a byte, which is named first
FAULTY = {
    "bad-byte": ("\n".join(SCORES).encode() + b"\nm3\tt\xc3\xa9\xff\ttarget\t1\n", 5),
    "bad-byte-no-last-end": ("\n".join(SCORES).encode() + b"\nm3\tt\xff\ttarget\t1", 5),
    "bad-byte-after-a-bad-row": ("\n".join(SCORES[:2] + ["m3\tt3\ttarget"] + SCORES[2:]).encode()
                                 + b"\n# \xff\n", 3),
    "bad-label-after-good-blocks": ("\n".join(SCORES + ["m3\tt3\tmaybe\t1"]).encode() + b"\n# \xff\n", 5),
    "repeated-trial": ("\n".join(SCORES + ["# note", SCORES[2]]).encode() + b"\n", 6),
}


def outcome(read, path):
    """What ``read(path)`` returns, or the message of the ValueError it raises."""
    try:
        return read(path)
    except ValueError as exc:
        return f"ValueError: {exc}"


def table(path):
    trials, lines = read_trial_table(path, scored=True)
    return (trials.models, trials.tests, trials.model_codes.tolist(), trials.test_codes.tolist(),
            trials.is_target.tolist(), trials.scores.tolist(), lines.tolist())


def scores(path):
    trials = read_scores(path)
    return trials.models, trials.tests, trials.is_target.tolist(), trials.scores.tolist()


def trial_list(path):
    """The file, its score column dropped, as a trial list."""
    trials, lines = read_trial_table(path)
    return trials.models, trials.tests, trials.is_target.tolist(), lines.tolist()


def jsonl(path):
    """(line number, record, test_id column cell) of every record of iter_jsonl, whatever blocks it comes in."""
    return [row for numbers, records, columns in iter_jsonl(path, required={"test_id": "string"}, unique="test_id")
            for row in zip(numbers, records, columns["test_id"], strict=True)]


def lines(path):
    return list(numbered_lines(path))


def same_at_every_block_size(monkeypatch, read, path):
    """The outcome of ``read(path)`` at the default block size, checked to be that at each small one."""
    expected = outcome(read, path)
    for chars in SMALL_BLOCKS:
        monkeypatch.setattr(phonrich.io, "BLOCK_CHARS", chars)
        assert outcome(read, path) == expected, f"block of {chars} characters"
    monkeypatch.undo()
    return expected


class TestBlockBoundaries:
    @pytest.mark.parametrize("case", TABLES)
    @pytest.mark.parametrize("read", [table, scores, lines], ids=["read_trial_table", "read_scores",
                                                                  "numbered_lines"])
    def test_table_reads_alike(self, tmp_path, monkeypatch, case, read):
        path = tmp_path / "scores.tsv"
        path.write_bytes(TABLES[case].encode())
        got = same_at_every_block_size(monkeypatch, read, path)
        assert not isinstance(got, str)
        if read is table:
            # the lines that are neither blank nor a comment, the header aside
            assert got[-1] == [i for i, line in enumerate(TABLES[case].splitlines(), start=1)
                               if line and not line.startswith("#")][1:]

    @pytest.mark.parametrize("case", TABLES)
    def test_trial_list_reads_alike(self, tmp_path, monkeypatch, case):
        path = tmp_path / "trials.tsv"
        text = TABLES[case].replace("\traw_score", "")
        for cell in ("\t0.5", "\t-0.25", "\t1e-3"):
            text = text.replace(cell, "")
        path.write_bytes(text.encode())
        assert same_at_every_block_size(monkeypatch, trial_list, path)[1] == ["t1", "t2"]

    @pytest.mark.parametrize("case", JSONL_INPUTS)
    def test_jsonl_reads_alike(self, tmp_path, monkeypatch, case):
        path = tmp_path / "qmf.jsonl"
        path.write_bytes(JSONL_INPUTS[case].encode())
        assert len(same_at_every_block_size(monkeypatch, jsonl, path)) == 3

    @pytest.mark.parametrize("case", FAULTY)
    @pytest.mark.parametrize("read", [table, scores, lines], ids=["read_trial_table", "read_scores",
                                                                  "numbered_lines"])
    def test_faults_read_alike(self, tmp_path, monkeypatch, case, read):
        data, faulty_line = FAULTY[case]
        path = tmp_path / "scores.tsv"
        path.write_bytes(data)
        got = same_at_every_block_size(monkeypatch, read, path)
        if read is not lines:
            assert got.startswith(f"ValueError: {path}:{faulty_line}: ")
        elif b"\xff" in data:  # the line reader sees only the bad byte
            bad_line = data[:data.index(b"\xff")].count(b"\n") + 1
            assert got == f"ValueError: {path}:{bad_line}: byte 0xff is not UTF-8"
        else:
            assert len(got) == data.count(b"\n")

    def test_bad_byte_names_its_line(self, tmp_path, monkeypatch):
        path = tmp_path / "scores.tsv"
        path.write_bytes(FAULTY["bad-byte"][0])
        assert same_at_every_block_size(monkeypatch, scores, path) == \
            f"ValueError: {path}:5: byte 0xff is not UTF-8"

    def test_lines_before_a_bad_byte_come_first(self, tmp_path, monkeypatch):
        path = tmp_path / "scores.tsv"
        path.write_bytes(FAULTY["bad-byte"][0])
        for chars in [phonrich.io.BLOCK_CHARS] + SMALL_BLOCKS:
            monkeypatch.setattr(phonrich.io, "BLOCK_CHARS", chars)
            read = []
            with pytest.raises(ValueError, match=":5: byte 0xff is not UTF-8"):
                for numbered in numbered_lines(path):
                    read.append(numbered)
            assert read == list(enumerate(SCORES, start=1))

    @pytest.mark.parametrize("later", ['{"test_id": 5}', "{"], ids=["type-fault-after", "malformed-line-after"])
    def test_repeated_id_names_its_first_line(self, tmp_path, monkeypatch, later):
        """A repeated id is named with the line of its first record, which may be in an earlier block,
        before a fault on a later line."""
        path = tmp_path / "qmf.jsonl"
        path.write_text("\n".join(["# provenance", JSONL[1], JSONL[2], JSONL[1], later]) + "\n")
        assert same_at_every_block_size(monkeypatch, jsonl, path) == \
            f"ValueError: {path}:4: duplicate test_id 't1', first at line 2"

    def test_fault_before_a_repeated_id_is_named(self, tmp_path, monkeypatch):
        path = tmp_path / "qmf.jsonl"
        path.write_text("\n".join([JSONL[1], json.dumps({"test_id": 5}), JSONL[1]]) + "\n")
        assert same_at_every_block_size(monkeypatch, jsonl, path) == \
            f'ValueError: {path}:2: test_id must be a string, got 5'

    @pytest.mark.parametrize("case", ["bad-byte", "bad-json-first"])
    def test_jsonl_faults_read_alike(self, tmp_path, monkeypatch, case):
        path = tmp_path / "qmf.jsonl"
        bad = "{" if case == "bad-json-first" else JSONL[2]
        path.write_bytes(("\n".join([JSONL[0], bad, "#"]) + "\n").encode() + b"\xff\n")
        message = same_at_every_block_size(monkeypatch, jsonl, path)
        assert message.startswith(f"ValueError: {path}:{2 if case == 'bad-json-first' else 4}: ")

    @pytest.mark.parametrize("read, rows, message", [
        (trial_list, ["model_id\ttest_id\tlabel", "m1\tt1", "target\tm2\tt2\ttarget"],
         "expected 3 tab-separated fields, got 2"),
        (scores, [SCORES[0], "m1\tt1\ttarget", "m2\tt1\tnontarget\t0.5\t"],
         "expected 4 tab-separated fields, got 3"),
    ], ids=["trial-list", "scores"])
    def test_short_row_then_long_row_is_named(self, tmp_path, monkeypatch, read, rows, message):
        # one field too few, then one too many: the block's cell total is right, each row's is not
        path = tmp_path / "table.tsv"
        path.write_text("# provenance\n" + "\n".join(rows) + "\n")
        assert same_at_every_block_size(monkeypatch, read, path) == f"ValueError: {path}:3: {message}"

    def test_bom_reads_as_no_bom(self, tmp_path):
        with_bom, without = tmp_path / "a.tsv", tmp_path / "b.tsv"
        with_bom.write_bytes(codecs.BOM_UTF8 + TABLES["crlf"].encode())
        without.write_bytes(TABLES["crlf"].encode())
        assert table(with_bom) == table(without)


# ids a TSV cell can hold: no tab or line end, no surrogate (not UTF-8), and, for a model id,
# which starts its line, no leading '#', which would make the line a comment
cell_text = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\t\n\r"), max_size=6)
model_ids = cell_text.filter(lambda text: not text.startswith("#"))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(model_ids, cell_text), unique=True, max_size=40).flatmap(
    lambda pairs: st.tuples(st.just(pairs), st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)),
                            st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                     min_size=len(pairs), max_size=len(pairs)))))
def test_scores_survive_a_round_trip(tmp_path_factory, rows):
    pairs, labels, values = rows
    trials = trials_from_ids([m for m, _ in pairs], [t for _, t in pairs], np.array(labels, dtype=bool),
                             np.array(values, dtype=float))
    path = tmp_path_factory.mktemp("round") / "scores.tsv"
    write_scores(path, trials, "# provenance")
    back, lines = read_trial_table(path, scored=True)
    assert (back.models, back.tests) == (trials.models, trials.tests)
    assert back.model_codes.tolist() == trials.model_codes.tolist()
    assert back.test_codes.tolist() == trials.test_codes.tolist()
    assert back.is_target.tolist() == trials.is_target.tolist()
    assert back.scores.tobytes() == trials.scores.tobytes()
    assert lines.tolist() == list(range(3, len(pairs) + 3))


# JSON values of every kind the column writer encodes its own way: strings with quotes, backslashes,
# control, non-ASCII and surrogate characters; ints; floats, -0.0 and the range's edges among them;
# true and false; null; and lists of these
json_text = st.text(st.one_of(st.sampled_from('"\\\x00\x1f\x7f\u2028\xe9\U0001d11e\ud800'), st.characters()),
                    max_size=6)
json_scalars = [json_text, st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([-0.0, 5e-324, 1e308]), st.booleans(), st.none()]
json_cells = json_scalars + [st.lists(st.one_of(*json_scalars), max_size=3)]


@st.composite
def tables(draw):
    """A table of one to five rows whose columns each hold values of one kind, or of any mix, and MISSING."""
    rows = draw(st.integers(1, 5))
    columns = {}
    for key in draw(st.lists(json_text, min_size=1, max_size=4, unique=True)):
        cell = draw(st.sampled_from(json_cells + [st.one_of(*json_cells)]))
        columns[key] = draw(st.lists(st.one_of(cell, st.just(MISSING)), min_size=rows, max_size=rows))
    return Table(columns)


@settings(max_examples=40, deadline=None)
@given(tables())
def test_each_written_line_is_its_rows_json(tmp_path_factory, table):
    """write_jsonl against its definition: each line is json.dumps of its row, MISSING cells left out."""
    path = tmp_path_factory.mktemp("jsonl") / "table.jsonl"
    write_jsonl(path, table, "# provenance")
    rows = [{key: column[row] for key, column in table.columns.items() if column[row] is not MISSING}
            for row in range(len(table))]
    assert path.read_text().split("\n") == (["# provenance"] + [json.dumps(row, sort_keys=True, allow_nan=False)
                                                                  for row in rows] + [""])


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("column", [lambda v: [0.5, v], lambda v: [1, v], lambda v: ["a", MISSING, v],
                                    lambda v: [None, [v]]], ids=["floats", "numbers", "mixed", "in-a-list"])
def test_nan_and_infinities_are_refused(tmp_path, value, column):
    with pytest.raises(ValueError):
        write_jsonl(tmp_path / "table.jsonl", Table({"x": column(value)}))


def rows_json(table):
    """Each row of ``table`` as json.dumps writes it, MISSING cells left out."""
    return [json.dumps({key: column[row] for key, column in table.columns.items() if column[row] is not MISSING},
                       sort_keys=True, allow_nan=False) for row in range(len(table))]


class TestChunkBoundaries:
    """write_jsonl encodes a table JSONL_CHUNK rows at a time; the lines do not depend on where chunks end."""

    @staticmethod
    def mixed_table(rows):
        """A table of ``rows`` rows whose columns hold MISSING, null, ints and floats together, true and
        false, non-ASCII strings and nested lists, the same kinds in every chunk."""
        rng = random.Random(7)
        pick = lambda *values: [rng.choice(values) for _ in range(rows)]  # noqa: E731
        return Table({
            "id": [f"u{row:05d}" for row in range(rows)],
            "number": [rng.choice([row, row + 0.25, -0.0, 10**20, 1e308, MISSING]) for row in range(rows)],
            "int": pick(0, -1, 2**63, MISSING),
            "float": pick(0.1, -0.0, 0.0, 5e-324, math.pi, MISSING),
            "text": pick("é", "\u2028", "\U0001d11e", '"q"', "\\", "", None, MISSING),
            "flag": pick(True, False, None),
            "nested": pick([1, [2.5, None]], {"b": [True], "a": "ü"}, [], None, MISSING),
            "gap": [MISSING] * rows,
            "\u00e9 key": pick(1, MISSING),
        })

    @pytest.mark.parametrize("chunk", [1, 2, 7, JSONL_CHUNK])
    def test_each_line_is_its_rows_json(self, tmp_path, monkeypatch, chunk):
        table = self.mixed_table(2 * JSONL_CHUNK + 5)
        monkeypatch.setattr(phonrich.io, "JSONL_CHUNK", chunk)
        path = tmp_path / "table.jsonl"
        write_jsonl(path, table, "# provenance")
        assert path.read_text().split("\n") == ["# provenance"] + rows_json(table) + [""]

    def test_tables_one_after_another_read_as_one(self, tmp_path):
        table = self.mixed_table(JSONL_CHUNK + 3)
        parts = [Table({key: column[start:end] for key, column in table.columns.items()})
                 for start, end in [(0, 1), (1, JSONL_CHUNK + 1), (JSONL_CHUNK + 1, JSONL_CHUNK + 3)]]
        whole, split = tmp_path / "whole.jsonl", tmp_path / "split.jsonl"
        write_jsonl(whole, table)
        write_jsonl(split, iter(parts))
        assert split.read_bytes() == whole.read_bytes()
        assert whole.read_text().splitlines() == rows_json(table)

    def test_a_row_of_no_cells_is_an_empty_object(self, tmp_path):
        path = tmp_path / "table.jsonl"
        write_jsonl(path, Table({"a": [MISSING, 1, MISSING], "b": [MISSING, MISSING, None]}))
        assert path.read_text() == '{}\n{"a": 1}\n{"b": null}\n'


# JSON type -> whether one value that json.loads gives is of that type, by its definition: the reference that
# io.COLUMN_TYPES, which checks a column at a time, is held to; exact types, so true and false are not numbers,
# and a number is finite
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
# values of each JSON type, and values that are not of it, as json.loads gives them: true and false, ints past
# the float range or 64 bits, 1e400 and -1e400 (read as infinities), zeros and negative numbers, near
# bitstrings, near ARPABET lists, nested values
INF = json.loads("1e400")
JSON_NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
POSITIVE_NUMBERS = st.one_of(st.integers(min_value=1), st.floats(min_value=0, exclude_min=True, allow_infinity=False),
                             st.sampled_from([5e-324, 1e308]))
OF_TYPE = {
    "string": st.text(max_size=4),
    "number": JSON_NUMBERS,
    "positive number": POSITIVE_NUMBERS,
    "64-bit integer": st.integers(-2**63, 2**63 - 1),
    "list": st.lists(st.one_of(st.none(), st.booleans(), JSON_NUMBERS, st.text(max_size=2)), max_size=3),
    "string of 39 0s and 1s": st.text("01", min_size=len(ARPABET_39), max_size=len(ARPABET_39)),
    "list of ARPABET-39 symbols": st.lists(st.sampled_from(ARPABET_39), max_size=4),
    "list of positive numbers or null": st.one_of(st.none(), st.lists(POSITIVE_NUMBERS, max_size=3)),
}
# values that come close to each type and are not of it
NEAR = {
    "string": st.sampled_from([1, None, True, [], {}, ["a"]]),
    "number": st.sampled_from([True, False, 10**400, -(10**309), INF, -INF, "1", None]),
    "positive number": st.sampled_from([0, -0.0, -5e-324, -1, True, 10**400, INF, -INF, "1", None]),
    "64-bit integer": st.sampled_from([2**63, -2**63 - 1, 10**400, True, False, 1.0, -0.0, "1", None]),
    "list": st.sampled_from(["[]", {}, None, 1, ()]),
    "string of 39 0s and 1s": st.one_of(st.text("01", min_size=len(ARPABET_39) - 1, max_size=len(ARPABET_39) + 1),
                                        st.text("01x ", min_size=len(ARPABET_39), max_size=len(ARPABET_39))),
    "list of ARPABET-39 symbols": st.lists(
        st.sampled_from(ARPABET_39[:3] + ("aa", "ZZ", "", 1, None, True, [], ["AA"])), min_size=1, max_size=3),
    "list of positive numbers or null": st.sampled_from([[True], [INF], [-INF], [10**400], ["1"], [[1]], [None], 1.0,
                                                         {}, [0], [1, -0.0], [0.5, -1e-300]]),
}
ODD = st.one_of(
    st.booleans(), st.none(), st.just(MISSING), st.sampled_from([10**400, INF, 1.5, 2, "AA", "", {}, {"a": [1]}]),
    st.lists(st.one_of(st.integers(), st.floats(allow_nan=False), st.text(max_size=2)), max_size=3),
)


@st.composite
def columns(draw, kind):
    """A column of values of ``kind``, empty at times, with a few values that may not be of it among them."""
    values = draw(st.lists(OF_TYPE[kind], max_size=6))
    for _ in range(draw(st.integers(0, 2))):
        values.insert(draw(st.integers(0, len(values))), draw(st.one_of(NEAR[kind], ODD)))
    return values


@pytest.mark.parametrize("kind", sorted(COLUMN_TYPES))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_column_check_agrees_with_value_checks(kind, data):
    """A column passes its column check if and only if each value passes its value check, and a column
    fault names the first value that fails it, or the first MISSING of a key a record must hold."""
    values = data.draw(columns(kind))
    present = [value for value in values if value is not MISSING]
    assert COLUMN_TYPES[kind](present) == all(map(JSON_TYPES[kind], present))
    assert COLUMN_TYPES[kind](values) == (MISSING not in values and all(map(JSON_TYPES[kind], values)))
    for needed in (True, False):
        first = next((row for row, value in enumerate(values) if (value is MISSING and needed)
                      or (value is not MISSING and not JSON_TYPES[kind](value))), None)
        found = _column_fault("k", kind, needed, values)
        assert (found[0] if found else None) == first
        if found and values[first] is not MISSING:  # a number of its kind but for its size is named "finite"
            infinite = type(values[first]) in (int, float) and not JSON_TYPES["number"](values[first])
            assert ("k must be a finite number, got" in found[1]) == (infinite and kind.endswith("number"))


@pytest.mark.parametrize("later, earlier", [("a", "b"), ("b", "a")])
def test_faults_in_two_columns_of_a_block_name_the_earlier_line(tmp_path, monkeypatch, later, earlier):
    """Whichever key is checked first, the fault on the earlier line is named."""
    good = {"a": 1, "b": 2}
    lines = [good, {**good, earlier: "x"}, good, {**good, later: True}, good]
    path = tmp_path / "records.jsonl"
    path.write_text("\n".join(map(json.dumps, lines)) + "\n")
    keys = {"a": "number", "b": "64-bit integer"}
    read = lambda path: [n for numbers, _, _ in iter_jsonl(path, required=keys) for n in numbers]  # noqa: E731
    kind = "a number" if earlier == "a" else "a 64-bit integer"
    assert same_at_every_block_size(monkeypatch, read, path) == \
        f'ValueError: {path}:2: {earlier} must be {kind}, got "x"'
