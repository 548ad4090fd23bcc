import numpy as np
import pytest

from phonrich import simulator
from phonrich.data import DEMO_VOCABULARY, make_demo_inventory
from phonrich.metrics import compute_eer, kendall_tau
from phonrich.protocols import Corpus, build_repetitive_protocol
from phonrich.simulator import cosine_score, simulate_corpus

from conftest import trial_rows


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def protocol():
    return build_repetitive_protocol(Corpus.from_tables([make_demo_inventory(10, seed=1)]), 60, seed=2,
                                     negatives_per_probe=3)


def targets(trials):
    """(test_id, score) of the target trials, in trial order."""
    return [(t, s) for (_, t, label), s in zip(trial_rows(trials), trials.scores.tolist())
            if label == "target"]


def simulate(protocol, sigma0=0.6, kappa=2.0, seed=4):
    """simulate_corpus of the protocol over the demo vocabulary, in 32 dimensions."""
    return simulate_corpus(protocol, DEMO_VOCABULARY, sigma0, kappa, seed, 32)


def score_pair(a, b):
    """cosine_score of the single pair (a, b), given as two one-row matrices."""
    return cosine_score(np.atleast_2d(a), np.atleast_2d(b), [0], [0])[0]


class TestCosineScore:
    def test_self_similarity(self):
        a = unit([1.0, 2.0, 3.0])
        assert score_pair(a, a) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert score_pair([1.0, 0.0], [0.0, 1.0]) == pytest.approx(0.0)

    def test_antipodal(self):
        a = unit([1.0, -2.0])
        assert score_pair(a, -a) == pytest.approx(-1.0)

    def test_symmetry(self):
        rng = np.random.default_rng(0)
        M = np.array([unit(rng.standard_normal(16)) for _ in range(5)])
        T = np.array([unit(rng.standard_normal(16)) for _ in range(7)])
        a, b = rng.integers(0, 5, 40), rng.integers(0, 7, 40)
        assert cosine_score(M, T, a, b).tolist() == cosine_score(T, M, b, a).tolist()

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            cosine_score(np.ones((1, 2)), np.ones((1, 3)), [0], [0])


class TestSubstreams:
    """simulator.substreams gives, row by row, the state and draws of np.random.default_rng([seed, stream, idx])."""

    @pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**100 + 7])  # 1, 1, 1, 2, 3 and 4 words
    @pytest.mark.parametrize("stream", [1, 2, 3, 97])
    @pytest.mark.parametrize("rows", [range(0), range(1), range(17), range(1000, 1017)],
                             ids=["none", "one", "chunks", "chunks-from-1000"])
    def test_each_row_is_default_rng_exactly(self, monkeypatch, seed, stream, rows):
        monkeypatch.setattr(simulator, "SCORE_CHUNK", 7)  # 17 rows end two chunks and start a third
        with np.errstate(all="raise"):  # cli.main's float policy, or stricter
            got = [(rng.bit_generator.state, rng.standard_normal())
                   for rng in simulator.substreams(seed, stream, rows)]
        want = [((rng := np.random.default_rng([seed, stream, idx])).bit_generator.state, rng.standard_normal())
                for idx in rows]
        assert got == want


class TestSimulateCorpus:
    def test_all_embeddings_unit_norm(self, protocol):
        res = simulate(protocol)
        assert res.models.shape == (len(protocol.models), 32)
        assert res.tests.shape == (len(protocol.tests), 32)
        norms = np.linalg.norm(np.vstack([res.models, res.tests]), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_each_score_is_its_pair_dot_product_exactly(self, protocol, monkeypatch):
        res = simulate(protocol)
        model_row = {m: i for i, m in enumerate(sorted(protocol.models["model_id"]))}
        test_row = {t: j for j, t in enumerate(sorted(protocol.tests["test_id"]))}
        expected = [float(res.models[model_row[m]] @ res.tests[test_row[t]])
                    for m, t, _ in trial_rows(res.trials)]
        assert res.trials.scores.tolist() == expected
        # many chunks, the last one partial
        monkeypatch.setattr(simulator, "SCORE_CHUNK", 7)
        assert len(expected) > 7 * 100 and len(expected) % 7
        assert simulate(protocol).trials.scores.tolist() == expected

    def test_every_row_is_its_definition_exactly(self, protocol):
        """Row idx of the models and of the tests, each in sorted-id order, is v / np.linalg.norm(v),
        v = mean + default_rng([seed, stream, idx]).standard_normal(dim) * (sigma / np.sqrt(dim)),
        equal with ==: a row norm taken another way rounds differently in the last bits."""
        seed, dim, sigma0, kappa = 4, 32, 0.6, 2.0
        res = simulate(protocol, sigma0, kappa, seed)
        models, tests = protocol.models, protocol.tests
        speakers = sorted(set(models["speaker_id"]) | set(tests["speaker_id"]))
        means = {spk: unit(np.random.default_rng([seed, simulator._SPEAKER_STREAM, i]).standard_normal(dim))
                 for i, spk in enumerate(speakers)}

        def rows(table, ids, sigmas, stream):
            order = sorted(range(len(ids)), key=ids.__getitem__)
            vs = [means[table["speaker_id"][row]]
                  + np.random.default_rng([seed, stream, idx]).standard_normal(dim) * (sigma / np.sqrt(dim))
                  for idx, (row, sigma) in enumerate(zip(order, sigmas))]
            return [(v / np.linalg.norm(v)).tolist() for v in vs]

        cu = res.qmfs.join(sorted(tests["test_id"]), ["cu"])[:, 0].tolist()
        assert res.models.tolist() == rows(models, models["model_id"], [sigma0 / 4.0] * len(models),
                                           simulator._MODEL_STREAM)
        assert res.tests.tolist() == rows(tests, tests["test_id"], [sigma0 * (1.0 + kappa * (39 - c) / 39) for c in cu],
                                          simulator._TEST_STREAM)

    def test_reproducible(self, protocol):
        r1 = simulate(protocol)
        r2 = simulate(protocol)
        assert r1.trials.scores.tolist() == r2.trials.scores.tolist()

    def test_seed_changes_scores(self, protocol):
        r1 = simulate(protocol)
        r2 = simulate(protocol, seed=5)
        assert r1.trials.scores.tolist() != r2.trials.scores.tolist()

    def test_kappa_zero_decouples_cu(self, protocol):
        res = simulate(protocol, kappa=0.0, seed=6)
        pos = targets(res.trials)
        assert len(pos) >= 500
        cu = res.qmfs.join([t for t, _ in pos], ["cu"])[:, 0]
        scores = [s for _, s in pos]
        assert abs(kendall_tau(cu, scores)) < 0.05

    def test_small_noise_separates_classes(self, protocol):
        res = simulate(protocol, sigma0=0.01, kappa=0.0)
        eer = compute_eer(*res.trials.class_scores())
        assert eer == 0.0
        pos_scores = [s for _, s in targets(res.trials)]
        assert min(pos_scores) > 0.99

    def test_quartile_monotonicity(self, protocol):
        res = simulate(protocol)
        pos = targets(res.trials)
        cu = res.qmfs.join([t for t, _ in pos], ["cu"])[:, 0]
        scores = np.array([s for _, s in pos])
        lo, hi = np.quantile(cu, [0.25, 0.75])
        assert scores[cu >= hi].mean() > scores[cu <= lo].mean()

    def test_qmfs_carry_cu_and_lns(self, protocol):
        res = simulate(protocol)
        cu, lns, net_speech = res.qmfs.join(protocol.tests["test_id"],
                                            ["cu", "lns", "net_speech"]).T
        assert np.all((0 <= cu) & (cu <= 39))
        assert lns == pytest.approx(np.log(net_speech))
