import numpy as np
import pytest

from phonrich import simulator
from phonrich.data import DEMO_VOCABULARY, make_demo_inventory
from phonrich.metrics import compute_eer, kendall_tau
from phonrich.protocols import build_repetitive_protocol
from phonrich.simulator import cosine_score, simulate_corpus

from conftest import trial_rows


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


@pytest.fixture(scope="module")
def protocol():
    return build_repetitive_protocol(make_demo_inventory(10, seed=1), 60, seed=2, negatives_per_probe=3)


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


class TestSimulateCorpus:
    def test_all_embeddings_unit_norm(self, protocol):
        res = simulate(protocol)
        assert res.models.shape == (len(protocol.models), 32)
        assert res.tests.shape == (len(protocol.tests), 32)
        norms = np.linalg.norm(np.vstack([res.models, res.tests]), axis=1)
        assert np.all(np.abs(norms - 1.0) < 1e-9)

    def test_each_score_is_its_pair_dot_product_exactly(self, protocol, monkeypatch):
        res = simulate(protocol)
        model_row = {m: i for i, m in enumerate(sorted(m.model_id for m in protocol.models))}
        test_row = {t: j for j, t in enumerate(sorted(t.test_id for t in protocol.tests))}
        expected = [float(res.models[model_row[m]] @ res.tests[test_row[t]])
                    for m, t, _ in trial_rows(res.trials)]
        assert res.trials.scores.tolist() == expected
        # many chunks, the last one partial
        monkeypatch.setattr(simulator, "SCORE_CHUNK", 7)
        assert len(expected) > 7 * 100 and len(expected) % 7
        assert simulate(protocol).trials.scores.tolist() == expected

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
        eer, _ = compute_eer(*res.trials.class_scores())
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
        cu, lns, net_speech = res.qmfs.join([t.test_id for t in protocol.tests],
                                            ["cu", "lns", "net_speech"]).T
        assert np.all((0 <= cu) & (cu <= 39))
        assert lns == pytest.approx(np.log(net_speech))
