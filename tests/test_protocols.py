import tracemalloc
from collections import Counter

import numpy as np
import pytest

from phonrich.data import DEMO_VOCABULARY, N_REPETITIONS, make_demo_inventory, word_duration
from phonrich.io import write_jsonl
from phonrich.lexicon import presence_vector, transcribe
from phonrich.protocols import (MAX_CLIP_WORDS, MAX_PROBE_REDRAWS, ModelRecord, ProtocolSpec, ProbeEntry,
                                UtteranceRecord, _draw_probe, build_clip_protocol, build_enrollment,
                                build_repetitive_protocol, emit_trials, join_trials,
                                load_inventory_jsonl, load_protocol)
from phonrich.richness import count_unique


def word_rec(spk, word, rep, dur=0.5, gender="m"):
    return UtteranceRecord(f"{spk}_{word}_{rep}", spk, "word", dur, word,
                           word_text=word, repetition_index=rep, gender=gender)


def sentence_rec(spk, idx, text, dur=10.0, gender="m"):
    return UtteranceRecord(f"{spk}_sent{idx}", spk, "sentence", dur, text, gender=gender)


def id_pairs(spec, pairs):
    """(model_id, test_id) of each (model row, test row) pair of a spec."""
    return [(spec.models[m].model_id, spec.tests[t].test_id) for m, t in pairs.tolist()]


@pytest.fixture(scope="module")
def demo_inventory():
    return make_demo_inventory(6, seed=0)


@pytest.fixture(scope="module")
def demo_protocol(demo_inventory):
    return build_repetitive_protocol(demo_inventory, 30, seed=5)


class TestBuildEnrollment:
    def test_net_speech_summation(self):
        models = build_enrollment([sentence_rec("a", 0, "cat dog", 100.0),
                                   sentence_rec("a", 1, "fish", 17.0)])
        assert len(models) == 1
        assert models[0].net_speech == pytest.approx(117.0)
        assert models[0].source_ids == ["a_sent0", "a_sent1"]

    def test_full_inventory_enrollment_has_cu_39(self, demo_inventory):
        models = build_enrollment(demo_inventory)
        cu = count_unique(presence_vector([transcribe(models[0].transcript, DEMO_VOCABULARY)]))
        assert cu.tolist() == [39]

    def test_no_sentences_error(self):
        with pytest.raises(ValueError, match="no sentence"):
            build_enrollment([word_rec("a", "cat", 1)])


class TestClipProtocol:
    def base_utterance(self, n_words, dur):
        words = " ".join(f"w{i}" for i in range(n_words))
        return UtteranceRecord("u0", "a", "sentence", n_words * dur, words,
                               word_durations=[dur] * n_words)

    def test_window_equals_whole_utterance(self):
        spec = build_clip_protocol([self.base_utterance(10, 0.5)], target=5.0, seed=0)
        assert len(spec.tests) == 1
        t = spec.tests[0]
        assert t.transcript.split() == [f"w{i}" for i in range(10)]
        assert t.net_speech == pytest.approx(5.0)

    def test_wraparound_repetition(self):
        spec = build_clip_protocol([self.base_utterance(4, 0.5)], target=3.0, seed=0)
        words = spec.tests[0].transcript.split()
        assert len(words) == 6
        assert len(set(words)) == 4  # repeated words present
        assert spec.tests[0].net_speech == pytest.approx(3.0)

    def test_window_duration_bound(self):
        rng = np.random.default_rng(1)
        for seed in range(20):
            n = int(rng.integers(3, 15))
            durs = rng.uniform(0.2, 0.9, n).tolist()
            base = UtteranceRecord("u0", "a", "sentence", sum(durs),
                                   " ".join(f"w{i}" for i in range(n)), word_durations=durs)
            target = float(rng.uniform(0.5, 6.0))
            spec = build_clip_protocol([base], target, seed=seed)
            got = spec.tests[0].net_speech
            assert target <= got < target + max(durs) + 1e-12

    def test_window_takes_at_most_max_clip_words(self):
        spec = build_clip_protocol([self.base_utterance(1, 1.0)], target=MAX_CLIP_WORDS, seed=0)
        assert len(spec.tests[0].transcript.split()) == MAX_CLIP_WORDS
        with pytest.raises(ValueError, match=f"^u0: a {MAX_CLIP_WORDS + 0.5:g} s clip would take more "
                                             f"than {MAX_CLIP_WORDS} words$"):
            build_clip_protocol([self.base_utterance(1, 1.0)], target=MAX_CLIP_WORDS + 0.5, seed=0)

    def test_deterministic(self):
        base = [self.base_utterance(8, 0.4)]
        a = build_clip_protocol(base, 2.0, seed=3)
        b = build_clip_protocol(base, 2.0, seed=3)
        assert a.tests[0].transcript == b.tests[0].transcript

    def test_empty_base_error(self):
        with pytest.raises(ValueError, match="empty"):
            build_clip_protocol([], 1.0, seed=0)

    def test_no_words_error(self):
        rec = UtteranceRecord("u0", "a", "sentence", 1.0, "", word_durations=[])
        with pytest.raises(ValueError, match="no words"):
            build_clip_protocol([rec], 1.0, seed=0)

    def test_trials_passthrough_remaps_ids(self, tmp_path):
        base = [self.base_utterance(10, 0.5),
                UtteranceRecord("u1", "b", "sentence", 5.0, "w0 w1", word_durations=[2.5, 2.5])]
        trials = tmp_path / "base.tsv"
        trials.write_text("model_id\ttest_id\tlabel\nb\tu0\tnontarget\na\tu0\ttarget\n")
        spec = build_clip_protocol(base, 2.0, seed=0, base_trials=trials)
        assert [m.model_id for m in spec.models] == ["a", "b"]
        assert id_pairs(spec, spec.positive_trials) == [("a", "u0@2s")]
        assert id_pairs(spec, spec.negative_trials) == [("b", "u0@2s")]


class TestRepetitiveProtocol:
    def test_probe_shape(self, demo_protocol):
        for t in demo_protocol.tests:
            words = t.transcript.split()
            assert 2 <= len(words) <= 10
            assert 1 <= len(set(words)) <= len(words)
            assert len(t.source_ids) == len(words)

    def test_no_recording_reused_within_probe(self, demo_protocol):
        for t in demo_protocol.tests:
            assert len(set(t.source_ids)) == len(t.source_ids)

    def test_positive_trials_match_speakers(self, demo_protocol):
        speaker_of_test = {t.test_id: t.speaker_id for t in demo_protocol.tests}
        for m_id, t_id in id_pairs(demo_protocol, demo_protocol.positive_trials):
            assert speaker_of_test[t_id] == m_id

    def test_negatives_within_gender(self, demo_protocol):
        gender_of_model = {m.model_id: m.gender for m in demo_protocol.models}
        gender_of_test = {t.test_id: t.gender for t in demo_protocol.tests}
        speaker_of_test = {t.test_id: t.speaker_id for t in demo_protocol.tests}
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
            build_repetitive_protocol(words + [sentence_rec("b", 0, "cat")], 2, seed=0)

    def test_too_few_repetitions_error(self):
        # one word type with a single recording cannot fill probes of >= 2 slots
        inventory = [word_rec("a", "cat", 1), sentence_rec("a", 0, "cat")]
        with pytest.raises(ValueError, match="too few repetition"):
            build_repetitive_protocol(inventory, 5, seed=0)

    def test_deterministic(self, demo_inventory):
        a = build_repetitive_protocol(demo_inventory, 10, seed=5)
        b = build_repetitive_protocol(demo_inventory, 10, seed=5)
        assert [t.transcript for t in a.tests] == [t.transcript for t in b.tests]
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
        assert [(t.test_id, t.transcript, t.net_speech) for t in loaded.tests] == \
            [(t.test_id, t.transcript, t.net_speech) for t in demo_protocol.tests]
        assert [(m.model_id, m.net_speech) for m in loaded.models] == \
            [(m.model_id, m.net_speech) for m in demo_protocol.models]

    def test_empty_spec_header_only(self, tmp_path):
        spec = ProtocolSpec([], [], [], [])
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
    TWO_SPEAKERS = ([ProbeEntry("t1", "a", "cat", 1.0, ["u"]), ProbeEntry("t2", "b", "cat", 1.0, ["u"])],
                    [ModelRecord("a", "a", 10.0, ["s"]), ModelRecord("b", "b", 10.0, ["s"])])

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
        tests = [ProbeEntry("t1", "a", "cat", 1.0, ["u"])]
        models = [ModelRecord("a", "a", 10.0, ["s"])]
        trials = tmp_path / "trials.tsv"
        trials.write_text("model_id\ttest_id\tlabel\na\tt1\ttarget\nb\tt1\tnontarget\n")
        with pytest.raises(ValueError) as exc:
            join_trials(trials, tests, models)
        assert str(exc.value) == f"{trials}:3: trial (b, t1) names an unknown model"
        trials.write_text("model_id\ttest_id\tlabel\na\tt2\tnontarget\n")
        with pytest.raises(ValueError) as exc:
            join_trials(trials, tests, models)
        assert str(exc.value) == f"{trials}:2: trial (a, t2) names an unknown test"


class TestUtteranceRecord:
    def test_nonpositive_net_speech_rejected(self):
        with pytest.raises(ValueError):
            UtteranceRecord("u", "a", "word", 0.0, "cat", word_text="cat", repetition_index=1)

    def test_word_needs_repetition_index(self):
        with pytest.raises(ValueError):
            UtteranceRecord("u", "a", "word", 1.0, "cat", word_text="cat", repetition_index=0)


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


def draws(draw, word_types, reps, seed, n):
    """The utterance ids of n probes drawn from one rng, or the error that ended the run."""
    rng = np.random.default_rng(seed)
    out = []
    try:
        for _ in range(n):
            out.append([r.utterance_id for r in draw(word_types, reps, rng)])
    except ValueError as exc:
        out.append(str(exc))
    return out


class TestSetupDrawsMatchReferences:
    """The array draws of the setup stage give the very values of the scalar and string draws."""

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_demo_jitter_matches_scalar_loop(self, seed):
        words = [r.net_speech for r in make_demo_inventory(3, seed) if r.kind == "word"]
        assert words == reference_word_net_speech(3, seed)

    @pytest.mark.parametrize("reps_per_word", [{w: 10 for w in sorted(DEMO_VOCABULARY)},
                                               {"cat": 4, "dog": 2, "fish": 1}],
                             ids=["demo-speaker", "short-of-repetitions"])
    def test_probe_draws_match_string_draws(self, reps_per_word):
        reps = {w: [word_rec("a", w, r) for r in range(1, k + 1)] for w, k in reps_per_word.items()}
        word_types = sorted(reps)
        for seed in range(200):
            assert draws(_draw_probe, word_types, reps, seed, 20) == \
                draws(reference_draw_probe, word_types, reps, seed, 20)


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
        write = traced_peak(lambda: write_jsonl(path, map(vars, make_demo_inventory(self.SPEAKERS, 3))))
        load = traced_peak(lambda: load_inventory_jsonl(path))
        per_record = {"write_jsonl": write / n, "load_inventory_jsonl": load / n}
        assert all(peak < self.BOUND for peak in per_record.values()), per_record
