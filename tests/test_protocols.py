import json
import tracemalloc
from collections import Counter
from functools import reduce
from itertools import count
from operator import add

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonrich.cli import main
from phonrich.data import (DEMO_BLOCK, DEMO_VOCABULARY, N_REPETITIONS, RECORDS_PER_SPEAKER, make_demo_inventory,
                           word_duration)
import phonrich.io
import phonrich.protocols
from phonrich.io import BLOCK_CHARS, Table, _column_fault, provenance_line, read_columns, write_jsonl
from phonrich.lexicon import presence_vector, transcribe
from phonrich.protocols import (CORPUS_DEFAULTS, CORPUS_KEYS, CORPUS_OPTIONAL_KEYS, DRAW_BLOCK, LOADED_MODEL_COLUMNS,
                                LOADED_TEST_COLUMNS, MANIFEST_KEYS, MAX_CLIP_WORDS, MAX_PROBE_REDRAWS,
                                MODEL_COLUMNS, MODEL_KEYS, TEST_KEYS, Corpus, Draws, ProtocolSpec, _corpus_fault,
                                _draw_probe, build_clip_protocol, build_enrollment, build_repetitive_protocol,
                                emit_trials, join_trials, left_sum, load_inventory_jsonl, load_protocol)
from phonrich.richness import count_unique


def corpus(*records):
    """The corpus of ``records``, dicts of corpus keys, a key a record lacks taking its default."""
    return Corpus.from_tables([{key: [rec.get(key, CORPUS_DEFAULTS.get(key)) for rec in records]
                                for key in [*CORPUS_KEYS, *CORPUS_OPTIONAL_KEYS]}])


def word_rec(spk, word, rep, dur=0.5, gender="m"):
    return {"utterance_id": f"{spk}_{word}_{rep}", "speaker_id": spk, "kind": "word", "net_speech": dur,
            "transcript": word, "word_text": word, "repetition_index": rep, "gender": gender}


def sentence_rec(spk, idx, text, dur=10.0, gender="m"):
    return {"utterance_id": f"{spk}_sent{idx}", "speaker_id": spk, "kind": "sentence", "net_speech": dur,
            "transcript": text, "gender": gender}


def base_rec(utterance_id, speaker_id, durations, words):
    """A sentence recording of ``words``, one duration each."""
    return {"utterance_id": utterance_id, "speaker_id": speaker_id, "kind": "sentence",
            "net_speech": sum(durations), "transcript": words, "word_durations": durations}


def id_pairs(spec, pairs):
    """(model_id, test_id) of each (model row, test row) pair of a spec."""
    return [(spec.models["model_id"][m], spec.tests["test_id"][t]) for m, t in pairs.tolist()]


@pytest.fixture(scope="module")
def demo_inventory():
    return Corpus.from_tables([make_demo_inventory(6, seed=0)])


@pytest.fixture(scope="module")
def demo_protocol(demo_inventory):
    return build_repetitive_protocol(demo_inventory, 30, seed=5)


class TestBuildEnrollment:
    def test_net_speech_summation(self):
        models = build_enrollment(corpus(sentence_rec("a", 0, "cat dog", 100.0),
                                         sentence_rec("a", 1, "fish", 17.0)))
        assert len(models) == 1
        assert models["net_speech"][0] == pytest.approx(117.0)
        assert models["source_ids"][0] == ["a_sent0", "a_sent1"]

    def test_full_inventory_enrollment_has_cu_39(self, demo_inventory):
        models = build_enrollment(demo_inventory)
        codes, lengths, _, _ = transcribe(models["transcript"][:1], DEMO_VOCABULARY)
        cu = count_unique(presence_vector(codes, lengths, models["model_id"][:1]))
        assert cu.tolist() == [39]

    def test_no_sentences_error(self):
        with pytest.raises(ValueError, match="no sentence"):
            build_enrollment(corpus(word_rec("a", "cat", 1)))


class TestClipProtocol:
    def base_utterance(self, n_words, dur):
        return corpus(base_rec("u0", "a", [dur] * n_words, " ".join(f"w{i}" for i in range(n_words))))

    def test_window_equals_whole_utterance(self):
        spec = build_clip_protocol(self.base_utterance(10, 0.5), target=5.0, seed=0)
        assert len(spec.tests) == 1
        assert spec.tests["transcript"][0].split() == [f"w{i}" for i in range(10)]
        assert spec.tests["net_speech"][0] == pytest.approx(5.0)

    def test_wraparound_repetition(self):
        spec = build_clip_protocol(self.base_utterance(4, 0.5), target=3.0, seed=0)
        words = spec.tests["transcript"][0].split()
        assert len(words) == 6
        assert len(set(words)) == 4  # repeated words present
        assert spec.tests["net_speech"][0] == pytest.approx(3.0)

    def test_window_duration_bound(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            n = int(rng.integers(3, 15))
            durs = rng.uniform(0.2, 0.9, n).tolist()
            base = corpus(base_rec("u0", "a", durs, " ".join(f"w{i}" for i in range(n))))
            target = float(rng.uniform(0.5, 6.0))
            spec = build_clip_protocol(base, target, seed=seed)
            got = spec.tests["net_speech"][0]
            assert target <= got < target + max(durs) + 1e-12

    def test_window_takes_at_most_max_clip_words(self):
        spec = build_clip_protocol(self.base_utterance(1, 1.0), target=MAX_CLIP_WORDS, seed=0)
        assert len(spec.tests["transcript"][0].split()) == MAX_CLIP_WORDS
        with pytest.raises(ValueError, match=f"^u0: a {MAX_CLIP_WORDS + 0.5:g} s clip would take more "
                                             f"than {MAX_CLIP_WORDS} words$"):
            build_clip_protocol(self.base_utterance(1, 1.0), target=MAX_CLIP_WORDS + 0.5, seed=0)

    @settings(max_examples=200, deadline=None)
    @given(cents=st.lists(st.integers(1, 99), min_size=2, max_size=8), data=st.data())
    def test_one_running_sum_decides_the_clip(self, cents, data):
        """Word durations of 0.01-0.99 s and a target that is the decimal sum of a suffix of them, so that sums
        of the same words in two orders can fall on either side of it: the builder raises nothing but a
        ValueError, a clip does not wrap where the running sum from the first word reaches the target,
        and its net_speech is the left-to-right sum of its words' durations, at least the target."""
        durations = [c / 100 for c in cents]
        target = sum(cents[data.draw(st.integers(0, len(cents) - 1)):]) / 100
        base = corpus(base_rec("u0", "a", durations, " ".join(f"w{i}" for i in range(len(cents)))))
        try:
            spec = build_clip_protocol(base, target, seed=data.draw(st.integers(0, 2**32 - 1)))
        except ValueError:
            return
        idx = [int(word[1:]) for word in spec.tests["transcript"][0].split()]
        if left_sum(durations) >= target:
            assert idx == list(range(idx[0], idx[0] + len(idx)))
        assert spec.tests["net_speech"][0] == left_sum(durations[i] for i in idx) >= target

    def test_deterministic(self):
        base = self.base_utterance(8, 0.4)
        a = build_clip_protocol(base, 2.0, seed=3)
        b = build_clip_protocol(base, 2.0, seed=3)
        assert a.tests["transcript"] == b.tests["transcript"]

    def test_empty_base_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_clip_protocol(corpus(), 1.0, seed=0)

    def test_no_words_error(self):
        with pytest.raises(ValueError, match="no words"):
            build_clip_protocol(corpus(base_rec("u0", "a", [], "")), 1.0, seed=0)

    def test_trials_passthrough_remaps_ids(self, tmp_path):
        base = corpus(base_rec("u0", "a", [0.5] * 10, " ".join(f"w{i}" for i in range(10))),
                      base_rec("u1", "b", [2.5, 2.5], "w0 w1"))
        trials = tmp_path / "base.tsv"
        trials.write_text("model_id\ttest_id\tlabel\nb\tu0\tnontarget\na\tu0\ttarget\n")
        spec = build_clip_protocol(base, 2.0, seed=0, base_trials=trials)
        assert spec.models["model_id"] == ["a", "b"]
        assert id_pairs(spec, spec.positive_trials) == [("a", "u0@2s")]
        assert id_pairs(spec, spec.negative_trials) == [("b", "u0@2s")]


class TestRepetitiveProtocol:
    def test_probe_shape(self, demo_protocol):
        for transcript, source_ids in zip(demo_protocol.tests["transcript"], demo_protocol.tests["source_ids"]):
            words = transcript.split()
            assert 2 <= len(words) <= 10
            assert 1 <= len(set(words)) <= len(words)
            assert len(source_ids) == len(words)

    def test_no_recording_reused_within_probe(self, demo_protocol):
        for source_ids in demo_protocol.tests["source_ids"]:
            assert len(set(source_ids)) == len(source_ids)

    def test_positive_trials_match_speakers(self, demo_protocol):
        speaker_of_test = dict(zip(demo_protocol.tests["test_id"], demo_protocol.tests["speaker_id"]))
        for m_id, t_id in id_pairs(demo_protocol, demo_protocol.positive_trials):
            assert speaker_of_test[t_id] == m_id

    def test_negatives_within_gender(self, demo_protocol):
        gender_of_model = dict(zip(demo_protocol.models["model_id"], demo_protocol.models["gender"]))
        gender_of_test = dict(zip(demo_protocol.tests["test_id"], demo_protocol.tests["gender"]))
        speaker_of_test = dict(zip(demo_protocol.tests["test_id"], demo_protocol.tests["speaker_id"]))
        for m_id, t_id in id_pairs(demo_protocol, demo_protocol.negative_trials):
            assert gender_of_model[m_id] == gender_of_test[t_id]
            assert speaker_of_test[t_id] != m_id

    def test_all_matching_gender_impostors_used(self, demo_protocol):
        # 6 speakers, alternating gender: 3 per gender -> 2 impostors per probe
        by_test = {}
        for m_id, t_id in id_pairs(demo_protocol, demo_protocol.negative_trials):
            by_test.setdefault(t_id, []).append(m_id)
        assert all(len(v) == 2 for v in by_test.values())

    def test_negatives_cap(self, demo_inventory):
        spec = build_repetitive_protocol(demo_inventory, 10, seed=5, negatives_per_probe=1)
        by_test = {}
        for m_id, t_id in id_pairs(spec, spec.negative_trials):
            by_test.setdefault(t_id, []).append(m_id)
        assert all(len(v) == 1 for v in by_test.values())

    def test_missing_enrollment_error(self):
        words = [word_rec("a", "cat", r) for r in range(1, 11)]
        with pytest.raises(ValueError, match="no enrollment"):
            build_repetitive_protocol(corpus(*words, sentence_rec("b", 0, "cat")), 2, seed=0)

    def test_too_few_repetitions_error(self):
        # one word type with a single recording cannot fill probes of >= 2 slots
        inventory = corpus(word_rec("a", "cat", 1), sentence_rec("a", 0, "cat"))
        with pytest.raises(ValueError, match="too few repetition"):
            build_repetitive_protocol(inventory, 5, seed=0)

    def test_deterministic(self, demo_inventory):
        a = build_repetitive_protocol(demo_inventory, 10, seed=5)
        b = build_repetitive_protocol(demo_inventory, 10, seed=5)
        assert a.tests["transcript"] == b.tests["transcript"]
        assert a.negative_trials.tolist() == b.negative_trials.tolist()


class TestEmitAndLoad:
    def test_round_trip(self, demo_protocol, tmp_path):
        trials = tmp_path / "p.trials.tsv"
        manifest = tmp_path / "p.manifest.jsonl"
        models = tmp_path / "p.models.jsonl"
        emit_trials(demo_protocol, trials, manifest, models)
        loaded = load_protocol(trials, manifest, models)
        assert loaded.positive_trials.tolist() == demo_protocol.positive_trials.tolist()
        assert loaded.negative_trials.tolist() == demo_protocol.negative_trials.tolist()
        # the spec keeps the columns simulate reads; every key of the files reads back through io
        assert list(loaded.tests.columns) == list(LOADED_TEST_COLUMNS)
        assert list(loaded.models.columns) == list(LOADED_MODEL_COLUMNS)
        for path, keys, unique, loaded_table, table in (
                (manifest, MANIFEST_KEYS, "test_id", loaded.tests, demo_protocol.tests),
                (models, MODEL_KEYS, "model_id", loaded.models, demo_protocol.models)):
            written = read_columns(path, keys, unique)
            for key in keys:
                assert written[key] == table[key]
            for key in loaded_table.columns:
                assert loaded_table[key] == table[key]

    def test_empty_spec_header_only(self, tmp_path):
        spec = ProtocolSpec(np.empty((0, 2), np.intp), np.empty((0, 2), np.intp),
                            Table({key: [] for key in TEST_KEYS}), Table({key: [] for key in MODEL_COLUMNS}))
        trials = tmp_path / "e.trials.tsv"
        manifest = tmp_path / "e.manifest.jsonl"
        models = tmp_path / "e.models.jsonl"
        emit_trials(spec, trials, manifest, models)
        assert trials.read_text() == "model_id\ttest_id\tlabel\n"
        assert manifest.read_text() == "\n"
        assert models.read_text() == "\n"

    def test_byte_stable(self, demo_protocol, tmp_path):
        paths = [(tmp_path / f"a{i}.tsv", tmp_path / f"b{i}.jsonl", tmp_path / f"c{i}.jsonl")
                 for i in range(2)]
        for t, m, mo in paths:
            emit_trials(demo_protocol, t, m, mo)
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    # tests t1 (speaker a) and t2 (speaker b), and a model per speaker
    TWO_SPEAKERS = (Table({"test_id": ["t1", "t2"], "speaker_id": ["a", "b"]}),
                    Table({"model_id": ["a", "b"], "speaker_id": ["a", "b"]}))

    def join(self, tmp_path, rows):
        trials = tmp_path / "trials.tsv"
        trials.write_text("model_id\ttest_id\tlabel\n" + "".join(f"{row}\n" for row in rows))
        return join_trials(trials, *self.TWO_SPEAKERS)

    @pytest.mark.parametrize("rows, message", [
        (["b\tt2\ttarget", "a\tt1\tnontarget"], "3: negative trial (a, t1) pairs a speaker with itself"),
        (["b\tt1\ttarget"], "2: positive trial (b, t1) crosses speakers"),
        # a bad nontarget row before a bad target row: the first in file order is named
        (["a\tt1\tnontarget", "b\tt1\ttarget"], "2: negative trial (a, t1) pairs a speaker with itself"),
    ], ids=["self-impostor", "cross-speaker-target", "first-in-file-order"])
    def test_join_names_the_first_inconsistent_trial(self, tmp_path, rows, message):
        with pytest.raises(ValueError) as exc:
            self.join(tmp_path, rows)
        assert str(exc.value) == f"{tmp_path / 'trials.tsv'}:{message}"

    def test_join_keeps_positives_then_negatives_in_file_order(self, tmp_path):
        spec = self.join(tmp_path, ["b\tt1\tnontarget", "b\tt2\ttarget", "a\tt2\tnontarget",
                                    "a\tt1\ttarget"])
        assert id_pairs(spec, spec.positive_trials) == [("b", "t2"), ("a", "t1")]
        assert id_pairs(spec, spec.negative_trials) == [("b", "t1"), ("a", "t2")]

    def test_join_names_a_trial_with_an_unknown_id(self, tmp_path):
        tests = Table({"test_id": ["t1"], "speaker_id": ["a"]})
        models = Table({"model_id": ["a"], "speaker_id": ["a"]})
        trials = tmp_path / "trials.tsv"
        trials.write_text("model_id\ttest_id\tlabel\na\tt1\ttarget\nb\tt1\tnontarget\n")
        with pytest.raises(ValueError) as exc:
            join_trials(trials, tests, models)
        assert str(exc.value) == f"{trials}:3: trial (b, t1) names an unknown model"
        trials.write_text("model_id\ttest_id\tlabel\na\tt2\tnontarget\n")
        with pytest.raises(ValueError) as exc:
            join_trials(trials, tests, models)
        assert str(exc.value) == f"{trials}:2: trial (a, t2) names an unknown test"


def reference_word_net_speech(n_speakers, seed):
    """Word-recording net speech of make_demo_inventory, drawn one scalar rng.random() at a time."""
    out = []
    for s in range(n_speakers):
        rng = np.random.default_rng([seed, 97, s])
        for word in sorted(DEMO_VOCABULARY):
            for _ in range(N_REPETITIONS):
                jitter = 1.0 + 0.1 * (rng.random() - 0.5)
                out.append(float(word_duration(word) * jitter))
    return out


def reference_draw_probe(word_types, reps, rng):
    """_draw_probe as it drew before, with rng.choice over the word strings themselves."""
    for _ in range(MAX_PROBE_REDRAWS):
        total = int(rng.integers(2, 11))
        unique = int(rng.integers(1, min(10, total) + 1))
        if unique > len(word_types):
            continue
        types = list(rng.choice(word_types, size=unique, replace=False))
        slots = types + list(rng.choice(types, size=total - unique, replace=True))
        slots = [slots[i] for i in rng.permutation(total)]
        need = Counter(slots)
        if any(len(reps[w]) < k for w, k in need.items()):
            continue
        picks = {w: iter([reps[w][i] for i in rng.choice(len(reps[w]), size=need[w], replace=False)])
                 for w in sorted(need)}
        return [next(picks[w]) for w in slots]
    raise ValueError("could not assemble a probe: a word type has too few repetition recordings")


def draws(draw, word_types, reps, rng, n):
    """The utterance ids of n probes drawn from one rng, or the error that ended the run."""
    out = []
    try:
        for _ in range(n):
            out.append(draw(word_types, reps, rng))
    except ValueError as exc:
        out.append(str(exc))
    return out


class TestSetupDrawsMatchReferences:
    """The array draws of the setup stage give the very values of the scalar and string draws."""

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_demo_jitter_matches_scalar_loop(self, seed):
        inventory = make_demo_inventory(3, seed)
        words = [ns for ns, kind in zip(inventory["net_speech"], inventory["kind"]) if kind == "word"]
        assert words == reference_word_net_speech(3, seed)

    @pytest.mark.parametrize("reps_per_word", [{w: 10 for w in sorted(DEMO_VOCABULARY)},
                                               {"cat": 4, "dog": 2, "fish": 1}],
                             ids=["demo-speaker", "short-of-repetitions"])
    def test_probe_draws_match_string_draws(self, reps_per_word):
        reps = {w: [f"a_{w}_{r}" for r in range(1, k + 1)] for w, k in reps_per_word.items()}
        word_types = sorted(reps)
        for seed in range(200):
            assert draws(_draw_probe, word_types, reps, Draws(seed), 20) == \
                draws(reference_draw_probe, word_types, reps, np.random.default_rng(seed), 20)


def drawn(rng, calls):
    """What each call, a (method, args, kwargs) of integers, choice or permutation, draws from rng, as ints
    and lists."""
    return [np.asarray(getattr(rng, method)(*args, **kwargs)).tolist() for method, args, kwargs in calls]


def mixed_calls(seed, n):
    """n random calls, each of a kind the protocol builders make, over populations of 1 to 60."""
    pick = np.random.default_rng([seed, 7])
    calls = []
    for kind, pop in zip(pick.integers(5, size=n).tolist(), pick.integers(1, 61, size=n).tolist()):
        size = int(pick.integers(pop + 1))
        calls.append([("integers", (pop,), {}), ("integers", (pop, pop + size + 1), {}),
                      ("choice", (pop,), {"size": size, "replace": False}),
                      ("choice", (pop,), {"size": size, "replace": True}), ("permutation", (pop,), {})][kind])
    return calls


class TestDraws:
    """protocols.Draws gives, call by call, the draws of np.random.default_rng(seed) making the same calls."""

    def same_draws(self, seed, calls):
        assert drawn(Draws(seed), calls) == drawn(np.random.default_rng(seed), calls)

    def test_mixed_calls(self):
        for seed in range(300):
            self.same_draws(seed, mixed_calls(seed, 40))

    @pytest.mark.parametrize("block", [1, 3])
    def test_across_block_boundaries(self, monkeypatch, block):
        monkeypatch.setattr(phonrich.protocols, "DRAW_BLOCK", block)
        for seed in range(30):
            self.same_draws(seed, mixed_calls(seed, 40))

    @pytest.mark.parametrize("seed", range(5))
    def test_a_range_of_one_value_draws_nothing(self, seed):
        """Each call here draws nothing, so the integers after them are the stream's first."""
        self.same_draws(seed, [("integers", (1,), {}), ("integers", (4, 5), {}),
                               ("choice", (1,), {"size": 1, "replace": False}),
                               ("choice", (1,), {"size": 4, "replace": True}),
                               ("choice", (9,), {"size": 0, "replace": False}),
                               ("choice", (9,), {"size": 0, "replace": True}),
                               ("permutation", (0,), {}), ("permutation", (1,), {}), ("integers", (1000,), {})])

    @pytest.mark.parametrize("n", [2**31 + 1, 3 * 2**30, 2**32 - 5])  # rejecting about 1 in 2, 1 in 4 and never
    def test_rejection_loop(self, n):
        for seed in range(5):
            self.same_draws(seed, [("integers", (n,), {})] * 50 + [("integers", (7, n), {})] * 50
                            + [("choice", (n,), {"size": 50, "replace": replace}) for replace in (True, False)])

    @pytest.mark.parametrize("n", [10_000, 10_001, 23_456, 50_000])
    def test_tail_shuffle(self, n):
        """Over more than 10,000, choice without replacement picks more than n // 50 by shuffling range(n)'s tail;
        at 10,000 itself it still picks by Floyd's sampling."""
        for size in (n // 50, n // 50 + 1, n // 3, n - 1, n):
            self.same_draws(size, [("choice", (n,), {"size": size, "replace": False}), ("integers", (1000,), {})])

    @pytest.mark.parametrize("n", [2, 3, 255, 256, 257, 65_537, 70_000])
    def test_permutation(self, n):
        self.same_draws(n, [("permutation", (n,), {}), ("integers", (1000,), {})])


class TestWords:
    """Draws reads pcg64.words: np.random.default_rng(seed)'s raw PCG64 outputs, each as its low 32 bits, then its
    high 32 bits, worked out without numpy.random a block of DRAW_BLOCK outputs at a time."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7])  # 1, 1, 1, 2, 3 and 4 words
    @pytest.mark.parametrize("block", [1, 3, None], ids=["1", "3", "DRAW_BLOCK"])
    def test_words_are_random_raw(self, monkeypatch, seed, block):
        if block is not None:
            monkeypatch.setattr(phonrich.protocols, "DRAW_BLOCK", block)
        n = 2 * DRAW_BLOCK + 5  # outputs: into the third block of each size
        word = Draws(seed)._word
        raw = np.random.default_rng(seed).bit_generator.random_raw(n)
        assert [word() for _ in range(2 * n)] == raw.astype("<u8").view("<u4").tolist()


def traced_peak(fn):
    """Peak bytes traced by tracemalloc while fn runs, counting what it returns."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestCorpusMemory:
    """Reading and writing the corpus streams: neither holds the file's text, lines or dicts."""

    SPEAKERS = 10
    BOUND = 600  # traced bytes per record

    def test_read_and_write_peaks_per_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        n = len(make_demo_inventory(self.SPEAKERS, 3))
        write = traced_peak(lambda: write_jsonl(path, make_demo_inventory(self.SPEAKERS, 3)))
        load = traced_peak(lambda: load_inventory_jsonl(path))
        per_record = {"write_jsonl": write / n, "load_inventory_jsonl": load / n}
        assert all(peak < self.BOUND for peak in per_record.values()), per_record


class TestFlatSetup:
    """make-demo writes the corpus a block of DEMO_BLOCK speakers at a time, and the corpus reader keeps
    arrays and a code per record, so neither holds a Python object per record but the utterance ids."""

    MARGIN = 1 << 18  # traced bytes; 24 more speakers held at once would take about 3 MB
    BOUND = 250  # traced bytes per record; the parent's reader, with a line number per id, took 286

    def test_make_demo_writes_the_whole_table_a_block_at_a_time(self, tmp_path):
        speakers = 2 * DEMO_BLOCK + 1  # so the last block is short
        streamed, whole = tmp_path / "streamed.jsonl", tmp_path / "whole.jsonl"
        assert main(["make-demo", "--speakers", str(speakers), "--seed", "5", "--out", str(streamed)]) == 0
        write_jsonl(whole, make_demo_inventory(speakers, 5), provenance_line("make-demo", 5))
        assert streamed.read_bytes() == whole.read_bytes()

    def test_make_demo_peak_does_not_grow_with_the_speakers(self, tmp_path):
        def peak(speakers):
            argv = ["make-demo", "--speakers", str(speakers), "--seed", "3", "--out", str(tmp_path / "corpus.jsonl")]
            return traced_peak(lambda: main(argv))

        peak(1)  # the first run's imports are not the corpus's
        assert peak(32) - peak(8) < self.MARGIN

    def test_corpus_reader_peak_per_record(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        write_jsonl(path, make_demo_inventory(20, 3))
        assert traced_peak(lambda: load_inventory_jsonl(path)) / (20 * RECORDS_PER_SPEAKER) < self.BOUND

    def test_blocks_read_as_the_whole_table(self):
        whole = Corpus.from_tables([make_demo_inventory(3, 4)])
        blocks = Corpus.from_tables(make_demo_inventory(1, 4, first) for first in range(3))
        assert blocks.utterance_id == whole.utterance_id and blocks.strings == whole.strings
        assert all(np.array_equal(getattr(blocks, key), getattr(whole, key))
                   for key in ("net_speech", "repetition_index"))
        assert all(np.array_equal(blocks.codes[key], whole.codes[key]) for key in whole.codes)


CORPUS_RECORD = {"utterance_id": "u0", "speaker_id": "a", "kind": "sentence", "net_speech": 1.0, "transcript": "cat",
                 "word_durations": [1.0]}


def corpus_lines(n, faults):
    """n corpus lines of records u0, u1, ..., the record on line k changed by ``faults[k]``."""
    return "".join(json.dumps({**CORPUS_RECORD, "utterance_id": f"u{row}", **faults.get(row + 1, {})}) + "\n"
                   for row in range(n))


WORD_REPETITION_ZERO = {"kind": "word", "word_text": "cat", "repetition_index": 0}  # breaks a corpus rule


class TestFirstFaultInFileOrder:
    """The corpus reader checks a block of lines a key at a time and then a rule at a time; of two
    faults, whichever check finds each, the one on the earlier line is named."""

    @pytest.mark.parametrize("chars", [BLOCK_CHARS, 100])
    def test_rule_fault_before_a_type_fault_past_the_block(self, tmp_path, monkeypatch, chars):
        n = BLOCK_CHARS // len(corpus_lines(1, {})) + 10
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus_lines(n, {3: WORD_REPETITION_ZERO, n: {"repetition_index": "x"}}))
        assert path.stat().st_size - len(path.read_text().rsplit("\n", 2)[-2]) > BLOCK_CHARS
        monkeypatch.setattr(phonrich.io, "BLOCK_CHARS", chars)
        with pytest.raises(ValueError) as exc:
            load_inventory_jsonl(path)
        assert str(exc.value) == f"{path}:3: u2: word recordings need repetition_index >= 1"

    @pytest.mark.parametrize("faults, message", [
        ({2: {"net_speech": "1"}, 5: WORD_REPETITION_ZERO}, '2: net_speech must be a positive number, got "1"'),
        ({2: WORD_REPETITION_ZERO, 5: {"net_speech": "1"}}, "2: u1: word recordings need repetition_index >= 1"),
    ], ids=["type-then-rule", "rule-then-type"])
    def test_two_faults_in_one_block(self, tmp_path, faults, message):
        path = tmp_path / "corpus.jsonl"
        path.write_text(corpus_lines(6, faults))
        with pytest.raises(ValueError) as exc:
            load_inventory_jsonl(path)
        assert str(exc.value) == f"{path}:{message}"


# values of each corpus key that a rule or a JSON type checks that keep every rule and type (some at its
# edge), then values that break one for some records: kinds that are not corpus kinds, net speech <= 0,
# repetition indices outside 64 bits or below 1 in a word recording, and word durations <= 0
RULE_VALUES = {
    "kind": (["sentence", "word", "digit", "free"], ["wrd", ""]),
    "net_speech": ([1.0, 5e-324, 7], [0, -0.0, -1.5]),
    "repetition_index": ([1, 2, 2**63 - 1], [0, -1, -2**63, 2**63, -2**63 - 1]),
    "word_durations": ([None, [], [0.5], [0.5, 2]], [[0], [0.5, -0.0], [1e-300, -1e-300]]),
}
# mostly values that keep the rules, so that a block often holds one fault, or none; a record may lack an
# optional key, for its default
corpus_records = st.fixed_dictionaries(
    {"speaker_id": st.just("a"), **{key: st.sampled_from(RULE_VALUES[key][0] * 6 + RULE_VALUES[key][1])
                                    for key in ("kind", "net_speech")}},
    optional={key: st.sampled_from(RULE_VALUES[key][0] * 6 + RULE_VALUES[key][1])
              for key in ("repetition_index", "word_durations")})


@settings(max_examples=100, deadline=None)
@given(st.lists(corpus_records, min_size=1, max_size=8))
def test_corpus_rule_checks_agree_with_each_record(tmp_path_factory, records):
    """The JSON types and the corpus rules, checked over a block's columns at once, name the first record
    that a value check of its own (_column_fault on its value alone), else _corpus_fault, words a fault
    for, and pass a block that has none."""
    path = tmp_path_factory.mktemp("corpus") / "corpus.jsonl"
    path.write_text("".join(json.dumps({"utterance_id": f"u{row}", **rec}) + "\n" for row, rec in enumerate(records)))

    def refusal(row, rec):
        """Why the reader refuses ``rec`` alone: its first value, in the order the keys are checked, not of its
        key's JSON type, else a corpus rule; None if neither."""
        for key, kind in {**CORPUS_KEYS, **CORPUS_OPTIONAL_KEYS}.items():
            if key in rec and (found := _column_fault(key, kind, True, [rec[key]])):
                return found[1]
        rule = _corpus_fault(rec["kind"], rec.get("repetition_index", 0))
        return rule and f"u{row}: {rule}"

    faults = list(map(refusal, count(), records))
    row = next((row for row, fault in enumerate(faults) if fault), None)
    try:
        assert len(load_inventory_jsonl(path).utterance_id) == len(records) and row is None
    except ValueError as exc:
        assert str(exc) == f"{path}:{row + 1}: {faults[row]}"


class TestLeftSum:
    """Net-speech sums add left to right on every Python version, as 3.11's builtin sum adds floats."""

    @pytest.mark.parametrize("values, total", [
        ([1e16, 1.0, -1e16], 0.0),  # a compensated sum gives 1.0
        ([0.1] * 10, 0.9999999999999999),  # a compensated sum gives 1.0
        ([0.5, 2, 0.25], 2.75),
        ([2**53, 1, 1, 1.0], 9007199254740996.0),  # the ints add exactly before the first float
        ([], 0),
    ])
    def test_known_sums(self, values, total):
        assert repr(left_sum(values)) == repr(total) == repr(reduce(add, values, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False, width=64), st.integers(-5, 5)),
                    max_size=12))
    def test_adds_left_to_right(self, values):
        total = 0
        for value in values:
            total += value
        assert repr(left_sum(values)) == repr(total) == repr(reduce(add, values, 0))
