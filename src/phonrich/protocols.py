"""Evaluation-protocol generators: random-clip and repetitive word-concatenation."""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import reduce
from itertools import compress, count, groupby, pairwise
from operator import add, itemgetter, not_
from pathlib import Path

import numpy as np

from .io import Table, iter_jsonl, read_columns, read_trial_table, write_jsonl, write_trial_table
from .metrics import Trials, encode_ids, rows_of

MAX_PROBE_REDRAWS = 20
DRAW_BLOCK = 256  # PCG64 outputs that Draws reads at a time: 2 KiB, about 20 KB as 512 Python ints
MAX_CLIP_WORDS = 10_000  # a clip window grows a word per step: tiny word durations would never end it
# keys, with their JSON types, that load_protocol checks in each manifest and models record (cmd_richness
# a manifest's test_id and net_speech) and load_inventory_jsonl in each corpus record
MANIFEST_KEYS = {"test_id": "string", "speaker_id": "string", "transcript": "string",
                 "net_speech": "positive number", "source_ids": "list"}
MODEL_KEYS = {"model_id": "string", "speaker_id": "string", "net_speech": "positive number", "source_ids": "list"}
CORPUS_KEYS = {"utterance_id": "string", "speaker_id": "string", "kind": "string", "net_speech": "positive number"}
# keys a corpus record may hold, with their JSON types, and the value of a record that lacks one
CORPUS_OPTIONAL_KEYS = {"transcript": "string", "word_text": "string", "repetition_index": "64-bit integer",
                        "gender": "string", "word_durations": "list of positive numbers or null"}
CORPUS_DEFAULTS = {"transcript": "", "word_text": "", "repetition_index": 0, "gender": "", "word_durations": None}
CORPUS_KINDS = ("sentence", "word", "digit", "free")
CODED = ("speaker_id", "kind", "transcript", "word_text", "gender")  # corpus columns of repeated strings
# the columns of the tests and of the models that the protocol builders make
TEST_KEYS = (*MANIFEST_KEYS, "gender")
MODEL_COLUMNS = (*MODEL_KEYS, "transcript", "gender")
# the columns of each that load_protocol keeps: those that join_trials and simulate read
LOADED_TEST_COLUMNS = ("test_id", "speaker_id", "transcript", "net_speech")
LOADED_MODEL_COLUMNS = ("model_id", "speaker_id")


@dataclass
class ProtocolSpec:
    """Trials as (n, 2) intp arrays of (row in ``models``, row in ``tests``) pairs.

    A builder's tables hold the columns TEST_KEYS and MODEL_COLUMNS, a loaded
    protocol's LOADED_TEST_COLUMNS and LOADED_MODEL_COLUMNS.
    """

    positive_trials: np.ndarray
    negative_trials: np.ndarray
    tests: Table
    models: Table

    def trials(self) -> Trials:
        """The trials as a table over the model and test ids, positives first, with no scores."""
        pairs = np.concatenate([self.positive_trials, self.negative_trials])
        return Trials(self.models["model_id"], self.tests["test_id"], pairs[:, 0], pairs[:, 1],
                      np.arange(len(pairs)) < len(self.positive_trials), None)


@dataclass
class Corpus:
    """A corpus, a row per record (see README for the fields): the utterance ids and word durations (a list of
    numbers, or None) as lists, net speech and repetition index as float64 and int64 arrays, and each column
    of CODED as its distinct strings, sorted, and a code per row into them of the fewest bytes that hold it."""

    utterance_id: list[str]
    word_durations: list
    net_speech: np.ndarray
    repetition_index: np.ndarray
    strings: dict[str, list[str]]
    codes: dict[str, np.ndarray]

    @classmethod
    def from_tables(cls, tables) -> "Corpus":
        """The corpus of the rows of tables, one after another, each holding a list per corpus column."""
        columns = {"utterance_id": [], "word_durations": [], "net_speech": array("d"), "repetition_index": array("q")}
        # per column, string -> code in order of first appearance, and the codes of each table
        coded = {key: ({}, [np.empty(0, np.uint8)]) for key in CODED}
        for table in tables:
            for key, column in columns.items():
                column.extend(table[key])
            for key, (known, codes) in coded.items():
                codes.append(encode_ids(table[key], known).astype(np.min_scalar_type(len(known))))
        strings = {key: sorted(known) for key, (known, _) in coded.items()}
        # at each code in order of first appearance, its string's place among the sorted strings
        places = {key: np.argsort([known[s] for s in strings[key]]).astype(np.min_scalar_type(len(known)))
                  for key, (known, _) in coded.items()}
        return cls(columns["utterance_id"], columns["word_durations"], np.asarray(columns["net_speech"]),
                   np.asarray(columns["repetition_index"]), strings,
                   {key: places[key][np.concatenate(codes)] for key, (_, codes) in coded.items()})

    def values(self, key: str, rows) -> list[str]:
        """The strings of column ``key``, of CODED, at ``rows``."""
        return list(map(self.strings[key].__getitem__, self.codes[key][rows].tolist()))

    def where(self, key: str, values) -> np.ndarray:
        """Whether each row's ``key``, of CODED, is one of ``values``."""
        return np.array([value in values for value in self.strings[key]], dtype=bool)[self.codes[key]]


def left_sum(values):
    """The sum of ``values`` added left to right, as Python's sum adds floats up to 3.11 (3.12's compensates)."""
    return reduce(add, values, 0)


class Draws:
    """np.random.default_rng(seed)'s integers(low, high), choice(n, size, replace) and permutation(n), bit for
    bit, as Python ints: numpy 2's algorithms applied to PCG64's raw output, DRAW_BLOCK outputs at a time, a stream
    that NEP 19 keeps. A 32-bit draw is an output's low half, then its high half; a draw below n is Lemire's method,
    and a range of one value draws nothing; choice without replacement is Floyd's sampling, then a shuffle of the
    picks (over more than 10,000 picking more than 1 in 50, a shuffle of range(n)'s tail); permutation is
    Fisher-Yates with masked rejection. Each range must be below 2**32 - 1, where numpy draws otherwise."""

    def __init__(self, seed: int):
        raw = np.random.default_rng(seed).bit_generator.random_raw

        def words():
            while True:
                yield from raw(DRAW_BLOCK).astype("<u8").view("<u4").tolist()
        self._word = words().__next__

    def _below(self, n: int) -> int:
        """A draw of [0, n), by Lemire's method."""
        m = self._word() * n if n > 1 else 0  # a range of one value draws nothing
        if m & 0xFFFFFFFF < n:
            threshold = (1 << 32) % n
            while m & 0xFFFFFFFF < threshold:
                m = self._word() * n
        return m >> 32

    def _shuffle(self, items: list, first: int = 1) -> list:
        """items, each place i from the last down to ``first`` swapped with a draw of [0, i]."""
        for i in range(len(items) - 1, first - 1, -1):
            j = self._below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items

    def integers(self, low: int, high: int | None = None) -> int:
        """A draw of [low, high), or of [0, low) with no ``high``."""
        return self._below(low) if high is None else low + self._below(high - low)

    def choice(self, n: int, size: int, replace: bool) -> list[int]:
        """``size`` draws of [0, n), distinct unless ``replace``."""
        if replace:
            return [self._below(n) for _ in range(size)]
        if n > 10_000 and size > n // 50:
            return self._shuffle(list(range(n)), n - size)[n - size:]
        picks = {}  # in the order picked
        for j in range(n - size, n):
            pick = self._below(j + 1)
            picks[j if pick in picks else pick] = None
        return self._shuffle(list(picks))

    def permutation(self, n: int) -> list[int]:
        """range(n) shuffled."""
        items = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while (j := self._word() & mask) > i:
                pass
            items[i], items[j] = items[j], items[i]
        return items


def _table(keys, rows: list[tuple]) -> Table:
    """The table of ``rows``, each a value per key of ``keys``."""
    return Table(dict(zip(keys, map(list, zip(*rows))))) if rows else Table({key: [] for key in keys})


def build_enrollment(corpus: Corpus, source: str = "") -> Table:
    """One model per speaker from all of that speaker's sentence recordings. A refusal that concerns
    the whole corpus, here or in a protocol builder, names ``source``, the corpus file, if given."""
    ids = corpus.utterance_id
    rows = sorted(np.flatnonzero(corpus.where("kind", ("sentence",))).tolist(), key=ids.__getitem__)
    if not rows:
        raise ValueError(f"{source + ': ' if source else ''}no sentence recordings to enroll from")
    models = []
    for spk, group in groupby(sorted(zip(corpus.values("speaker_id", rows), rows), key=itemgetter(0)), itemgetter(0)):
        rows = [row for _, row in group]  # by utterance id
        models.append((spk, spk, left_sum(corpus.net_speech[rows].tolist()), list(map(ids.__getitem__, rows)),
                       " ".join(corpus.values("transcript", rows)), corpus.values("gender", rows[:1])[0]))
    return _table(MODEL_COLUMNS, models)


def _clip_window(utterance_id: str, durations: list[float], target: float, rng: Draws):
    """Pick a start word index and extend until the summed duration reaches target.

    When the whole utterance is long enough the window stays contiguous
    (no wraparound) and the start is uniform over the starts whose suffix
    can still reach the target; otherwise the word sequence is logically
    repeated end-to-end and any start is valid. A window that would take
    more than MAX_CLIP_WORDS words fails, naming the utterance.
    """
    n = len(durations)
    if left_sum(durations) >= target:
        suffix = np.cumsum(durations[::-1])[::-1]
        valid = [s for s in range(n) if suffix[s] >= target]
        start = valid[rng.integers(len(valid))]
    else:
        start = rng.integers(n)
    idx, acc = [], 0.0
    while acc < target:
        if len(idx) == MAX_CLIP_WORDS:
            raise ValueError(f"{utterance_id}: a {target:g} s clip would take more than {MAX_CLIP_WORDS} words")
        idx.append((start + len(idx)) % n)
        acc += durations[idx[-1]]
    return idx


def build_clip_protocol(corpus: Corpus, target: float, seed: int,
                        base_trials: str | Path | None = None, source: str = "") -> ProtocolSpec:
    """Fixed-duration protocol: one random word-boundary clip per base test, each sentence and
    free recording of the corpus, of ``target`` seconds (a finite number > 0).

    Clips are realized as contiguous word subsequences (with end-to-end
    repetition when the utterance is shorter than the target), so net
    speech and transcript of each clip are fully determined by the chosen
    word window. ``base_trials`` is an optional trial list over the base
    utterance ids; its trials are joined onto the clips and onto the
    enrollment models of the base sentences (see join_trials). ``source``: see build_enrollment.
    """
    where = f"{source}: " if source else ""
    ids = corpus.utterance_id
    base = sorted(np.flatnonzero(corpus.where("kind", ("sentence", "free"))).tolist(), key=ids.__getitem__)
    if not base:
        raise ValueError(f"{where}empty base utterance list")
    rng = Draws(seed)
    tests = []
    transcripts, speakers, genders = (corpus.values(key, base) for key in ("transcript", "speaker_id", "gender"))
    for row, text, speaker, gender in zip(base, transcripts, speakers, genders):
        words, durations = text.split(), corpus.word_durations[row]
        if not words:
            raise ValueError(f"{where}{ids[row]}: utterance has no words")
        if durations is None or len(durations) != len(words):
            raise ValueError(f"{where}{ids[row]}: word_durations must align with transcript words")
        idx = _clip_window(ids[row], durations, target, rng)
        tests.append((f"{ids[row]}@{target:g}s", speaker, " ".join(words[i] for i in idx),
                      float(left_sum(durations[i] for i in idx)), [ids[row]], gender))
    tests = _table(TEST_KEYS, tests)
    if base_trials is None:
        return ProtocolSpec(np.empty((0, 2), np.intp), np.empty((0, 2), np.intp), tests, _table(MODEL_COLUMNS, []))
    return join_trials(base_trials, tests, build_enrollment(corpus, source), [ids[row] for row in base])


def _draw_probe(word_types: list[str], reps: dict[str, list], rng: Draws):
    """One repetitive probe: T total words, U unique, distinct recordings per slot."""
    for _ in range(MAX_PROBE_REDRAWS):
        total = rng.integers(2, 11)
        unique = rng.integers(1, min(10, total) + 1)
        if unique > len(word_types):
            continue
        types = rng.choice(len(word_types), size=unique, replace=False)
        slots = types + [types[i] for i in rng.choice(unique, size=total - unique, replace=True)]
        slots = [word_types[slots[i]] for i in rng.permutation(total)]
        need = Counter(slots)
        if any(len(reps[w]) < k for w, k in need.items()):
            continue
        # per word type, pick distinct repetition recordings, then hand them out to its slots in order
        picks = {w: iter([reps[w][i] for i in rng.choice(len(reps[w]), size=need[w], replace=False)])
                 for w in sorted(need)}
        return [next(picks[w]) for w in slots]
    raise ValueError("could not assemble a probe: a word type has too few repetition recordings")


def build_repetitive_protocol(corpus: Corpus, n_probes_per_speaker: int, seed: int,
                              negatives_per_probe: int | None = None, source: str = "") -> ProtocolSpec:
    """Word-concatenation protocol with independently controlled length and diversity: probes
    of the corpus's word recordings, models of its sentences.

    Each probe concatenates T ~ uniform{2..10} single-word recordings over
    U ~ uniform{1..T} distinct word types; every repeated slot consumes a
    distinct repetition recording. Negative trials pair each probe with
    all other matching-gender models, optionally subsampled to
    ``negatives_per_probe`` with the same seed stream. ``source``: see build_enrollment.
    """
    where = f"{source}: " if source else ""
    models = build_enrollment(corpus, source)
    model_row = dict(zip(models["speaker_id"], count()))
    # the word recordings by speaker id, word and repetition index, and in file order where these tie: the
    # first rows of the corpus in an order that puts them first
    is_word = corpus.where("kind", ("word",))
    rows = np.lexsort((corpus.repetition_index, corpus.codes["word_text"], corpus.codes["speaker_id"], ~is_word))
    rows = rows[:np.count_nonzero(is_word)]
    speakers, words = corpus.codes["speaker_id"][rows], corpus.codes["word_text"][rows]
    change = (speakers[1:] != speakers[:-1]) | (words[1:] != words[:-1])
    starts = np.flatnonzero(np.r_[len(rows) > 0, change]).tolist() + [len(rows)]

    rng = Draws(seed)
    tests = []
    # the (start, end) of each speaker's recordings of each word, by speaker
    for code, spoken in groupby(pairwise(starts), key=lambda group: speakers[group[0]]):
        spk = corpus.strings["speaker_id"][code]
        if spk not in model_row:
            raise ValueError(f"{where}speaker {spk} has word recordings but no enrollment sentences")
        reps = {corpus.strings["word_text"][words[start]]: rows[start:end].tolist() for start, end in spoken}
        word_types = list(reps)  # sorted, as the codes are
        for j in range(n_probes_per_speaker):
            try:
                probe = _draw_probe(word_types, reps, rng)
            except ValueError as exc:
                fewest = min(word_types, key=lambda w: len(reps[w]))
                raise ValueError(f"{where}speaker {spk}: {exc} ({fewest!r} has {len(reps[fewest])})") from None
            tests.append((f"{spk}_probe{j:05d}", spk, " ".join(corpus.values("word_text", probe)),
                          left_sum(corpus.net_speech[probe].tolist()),
                          list(map(corpus.utterance_id.__getitem__, probe)), models["gender"][model_row[spk]]))
    tests = _table(TEST_KEYS, tests)

    # a speaker's impostors: every other model of its gender, listed once per speaker
    impostors_of = {spk: [i for i, other in enumerate(models["gender"]) if other == gender and i != row]
                    for row, (spk, gender) in enumerate(zip(models["speaker_id"], models["gender"]))}
    negative_models, negative_tests = [], []
    for row, impostors in enumerate(map(impostors_of.__getitem__, tests["speaker_id"])):
        if negatives_per_probe is not None and len(impostors) > negatives_per_probe:
            chosen = rng.choice(len(impostors), size=negatives_per_probe, replace=False)
            impostors = [impostors[i] for i in sorted(chosen)]
        negative_models += impostors
        negative_tests += [row] * len(impostors)

    return ProtocolSpec(np.array([(model_row[spk], row) for row, spk in enumerate(tests["speaker_id"])],
                                 dtype=np.intp).reshape(-1, 2),
                        np.array([negative_models, negative_tests], dtype=np.intp).T, tests, models)


def emit_trials(spec: ProtocolSpec, trials_path: str | Path, manifest_path: str | Path,
                models_path: str | Path, provenance: str | None = None) -> None:
    """Write the trial TSV and manifest/models JSONL; byte-stable for a given spec.

    A model or test whose net_speech is not finite (a sum of recordings
    that overflowed) fails, naming it, before any file is written.
    """
    for name, table in (("model", spec.models), ("test", spec.tests)):
        if (row := next(compress(count(), map(not_, map(math.isfinite, table["net_speech"]))), None)) is not None:
            raise ValueError(f"{name} {table[name + '_id'][row]}: net_speech of its recordings sums to "
                             f"{table['net_speech'][row]}, not a finite number")
    write_trial_table(trials_path, spec.trials(), provenance)
    write_jsonl(manifest_path, spec.tests, provenance)
    write_jsonl(models_path, spec.models, provenance)


def join_trials(path: str | Path, tests: Table, models: Table, test_keys: list[str] | None = None) -> ProtocolSpec:
    """The trial list at ``path`` joined onto ``tests`` and ``models``, and checked.

    A trial names its model by model id and its test by ``test_keys``
    (default: the test ids), one key per test. The spec holds the
    positives in file order, then the negatives. A trial that names an
    unknown id, then a target trial across two speakers or a nontarget
    trial within one, fails with the file and line; of each kind, the
    first in file order is named.
    """
    trials, lines = read_trial_table(path)
    pairs = np.column_stack([rows_of(trials.models, models["model_id"])[trials.model_codes],
                             rows_of(trials.tests, test_keys or tests["test_id"])[trials.test_codes]])
    unknown = (pairs < 0).any(axis=1)
    if unknown.any():
        row = int(np.argmax(unknown))
        m, t = pairs[row].tolist()
        m_id = trials.models[trials.model_codes[row]]
        # a known test is named as the spec holds it: a clip by its clip id
        t_id = tests["test_id"][t] if t >= 0 else trials.tests[trials.test_codes[row]]
        raise ValueError(f"{path}:{lines[row]}: trial ({m_id}, {t_id}) names an unknown "
                         f"{'model' if m < 0 else 'test'}")
    speakers = encode_ids(models["speaker_id"] + tests["speaker_id"], {})
    wrong = (speakers[pairs[:, 0]] == speakers[len(models) + pairs[:, 1]]) != trials.is_target
    if wrong.any():
        row = int(np.argmax(wrong))
        m_id, t_id = models["model_id"][pairs[row, 0]], tests["test_id"][pairs[row, 1]]
        raise ValueError(f"{path}:{lines[row]}: " + (
            f"positive trial ({m_id}, {t_id}) crosses speakers" if trials.is_target[row] else
            f"negative trial ({m_id}, {t_id}) pairs a speaker with itself"))
    return ProtocolSpec(pairs[trials.is_target], pairs[~trials.is_target], tests, models)


def load_protocol(trials_path: str | Path, manifest_path: str | Path,
                  models_path: str | Path) -> ProtocolSpec:
    """Manifest, models and trial list as one validated spec (see join_trials).

    Every key of MANIFEST_KEYS and MODEL_KEYS is checked, but only the
    columns LOADED_TEST_COLUMNS and LOADED_MODEL_COLUMNS are kept. A test id
    repeated in the manifest, or a model id in the models file, fails at its
    second record with the file and line.
    """
    return join_trials(trials_path, read_columns(manifest_path, MANIFEST_KEYS, "test_id", LOADED_TEST_COLUMNS),
                       read_columns(models_path, MODEL_KEYS, "model_id", LOADED_MODEL_COLUMNS))


def _corpus_fault(kind: str, repetition_index: int) -> str | None:
    """Why a corpus record breaks a corpus rule, one that no JSON type of a single key states, or None."""
    return (f"kind must be one of {'|'.join(CORPUS_KINDS)}, got {kind!r}" if kind not in CORPUS_KINDS else
            "word recordings need repetition_index >= 1" if kind == "word" and repetition_index < 1 else None)


def load_inventory_jsonl(path: str | Path) -> Corpus:
    """Utterance inventory JSONL -> a Corpus (see README for the field list), in which a record that
    lacks a key of CORPUS_OPTIONAL_KEYS holds its CORPUS_DEFAULTS value; net_speech is read as a float.

    The columns grow a block at a time as the file streams in, each key's JSON type and each rule checked over a
    block's columns at once: a value not of its key's type (a net_speech <= 0, say) fails with the file and line, a
    record of an unknown kind or a word recording with repetition_index < 1 with its utterance id too.
    """
    def blocks():
        for lines, _, block in iter_jsonl(path, required=CORPUS_KEYS, unique="utterance_id",
                                          optional=CORPUS_OPTIONAL_KEYS, defaults=CORPUS_DEFAULTS):
            kinds, reps = block["kind"], block["repetition_index"]
            if not set(kinds).issubset(CORPUS_KINDS) or min(compress(reps, map("word".__eq__, kinds)), default=1) < 1:
                row, why = next(fault for fault in enumerate(map(_corpus_fault, kinds, reps)) if fault[1])
                raise ValueError(f"{path}:{lines[row]}: {block['utterance_id'][row]}: {why}")
            yield block

    return Corpus.from_tables(blocks())
