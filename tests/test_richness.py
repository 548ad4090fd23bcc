import itertools

import numpy as np
import pytest

import phonrich.nnls
from phonrich.inventory import ARPABET_39, PresenceVector
from phonrich.lexicon import phoneme_codes
from phonrich.nnls import nnls
from phonrich.richness import (RichnessWeights, count_unique, fit_weights, load_weights,
                               save_weights, weight_report, weighted_count_unique)


def presence(rows):
    """PresenceVector of 0/1 rows, with utterance ids u0, u1, ..."""
    bits = np.asarray(rows, dtype=np.int8).reshape(-1, 39)
    return PresenceVector(bits, [f"u{i}" for i in range(len(bits))])


def onehot(idx):
    arr = np.zeros(39, dtype=np.int8)
    arr[list(idx)] = 1
    return arr


class TestCountUnique:
    def test_all_zero(self):
        assert count_unique(presence([onehot([])])).tolist() == [0]

    def test_all_one(self):
        assert count_unique(presence([onehot(range(39))])).tolist() == [39]

    def test_three_bits(self):
        idx = [ARPABET_39.index(s) for s in ("K", "AE", "T")]
        assert count_unique(presence([onehot(idx)])).tolist() == [3]

    def test_monotone_under_or(self):
        rng = np.random.default_rng(0)
        a = rng.integers(0, 2, (50, 39)).astype(np.int8)
        b = rng.integers(0, 2, (50, 39)).astype(np.int8)
        cu_or = count_unique(presence(a | b))
        assert np.all(cu_or >= np.maximum(count_unique(presence(a)), count_unique(presence(b))))

    def test_one_count_per_row_in_row_order(self):
        rng = np.random.default_rng(10)
        P = (rng.random((6000, 39)) < rng.random((6000, 1))).astype(np.int8)
        assert count_unique(presence(P)).tolist() == [int(row.sum()) for row in P]


class TestWeightedCountUnique:
    def test_uniform_weights_reduce_to_cu(self):
        rng = np.random.default_rng(1)
        w = RichnessWeights(np.ones(39))
        p = presence(rng.integers(0, 2, (100, 39)))
        assert weighted_count_unique(p, w).tolist() == count_unique(p).tolist()

    def test_zero_vector(self):
        w = RichnessWeights(np.arange(39, dtype=float))
        assert weighted_count_unique(presence([onehot([])]), w).tolist() == [0.0]

    def test_two_term_dot_product(self):
        weights = np.zeros(39)
        weights[2] = 0.3
        weights[5] = 1.2
        wcu = weighted_count_unique(presence([onehot([2, 5])]), RichnessWeights(weights))
        assert wcu[0] == pytest.approx(1.5)

    def test_each_row_is_its_vector_product_exactly(self):
        # the batch must round as the per-row ``w @ bits`` does; ``P @ w`` does not
        rng = np.random.default_rng(11)
        P = (rng.random((6000, 39)) < rng.random((6000, 1))).astype(np.int8)
        w = RichnessWeights(np.abs(rng.standard_normal(39)) * 0.37)
        assert weighted_count_unique(presence(P), w).tolist() == [float(w.weights @ row) for row in P]


class TestFitWeights:
    def test_exact_recovery(self):
        rng = np.random.default_rng(2)
        w_true = np.abs(rng.standard_normal(39))
        design = (rng.random((150, 39)) < 0.4).astype(np.int8)
        design[:39] |= np.eye(39, dtype=np.int8)  # guarantee full column rank
        w = fit_weights(design, [float(row @ w_true) for row in design])
        np.testing.assert_allclose(w.weights, w_true, atol=1e-6)
        assert w.n_train == 150
        assert w.fit_residual < 1e-8

    def test_single_pair(self):
        w = fit_weights([onehot([7])], [2.5])
        assert w.weights[7] == pytest.approx(2.5)
        others = np.delete(w.weights, 7)
        np.testing.assert_array_equal(others, 0.0)

    def test_zero_scores_give_zero_weights(self):
        rng = np.random.default_rng(3)
        design = rng.integers(0, 2, (20, 39)).astype(np.int8)
        if not design.any():
            pytest.skip("degenerate draw")
        w = fit_weights(design, np.zeros(20))
        np.testing.assert_array_equal(w.weights, 0.0)

    def test_empty_training_set(self):
        with pytest.raises(ValueError, match="all-zero"):
            fit_weights(np.zeros((0, 39), dtype=np.int8), [])

    def test_all_zero_presence(self):
        with pytest.raises(ValueError, match="all-zero"):
            fit_weights(np.zeros((3, 39), dtype=np.int8), [1.0] * 3)

    def test_nonnegative_and_no_worse_than_zero(self):
        rng = np.random.default_rng(4)
        design = (rng.random((60, 39)) < 0.3).astype(np.int8)
        design[0, 0] = 1
        scores = rng.standard_normal(60)  # inconsistent targets
        w = fit_weights(design, scores)
        assert np.all(w.weights >= 0)
        obj = np.sum((design.astype(float) @ w.weights - scores) ** 2)
        assert obj <= np.sum(scores ** 2) + 1e-9

    def test_order_invariance(self):
        rng = np.random.default_rng(5)
        design = (rng.random((40, 39)) < 0.4).astype(np.int8)
        design[0] = 1
        scores = rng.random(40)
        w1 = fit_weights(design, scores)
        w2 = fit_weights(design[::-1], scores[::-1])
        np.testing.assert_allclose(w1.weights, w2.weights, atol=1e-9)


def brute_force_nnls_objective(A, b):
    """Exhaustive active-set enumeration: best feasible objective over all supports."""
    n = A.shape[1]
    best = float(np.sum(b ** 2))  # empty support
    for r in range(1, n + 1):
        for support in itertools.combinations(range(n), r):
            sol, *_ = np.linalg.lstsq(A[:, support], b, rcond=None)
            if np.all(sol >= -1e-12):
                resid = b - A[:, support] @ sol
                best = min(best, float(np.sum(resid ** 2)))
    return best


class TestNnlsOracle:
    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            m = int(rng.integers(3, 21))
            A = (rng.random((m, 8)) < 0.5).astype(float)
            b = rng.standard_normal(m)
            x, rnorm = nnls(A, b)
            assert np.all(x >= 0)
            assert rnorm ** 2 == pytest.approx(brute_force_nnls_objective(A, b), abs=1e-8)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            nnls(np.ones((3, 2)), np.ones(4))

    def test_no_convergence_is_refused(self, monkeypatch):
        """A solve that takes more than ITERATIONS_PER_COLUMN inner steps per column is abandoned with a
        ValueError, not returned half done: with no steps allowed, the first one is refused."""
        monkeypatch.setattr(phonrich.nnls, "ITERATIONS_PER_COLUMN", 0)
        with pytest.raises(ValueError, match="^nnls did not converge in 0 iterations$"):
            nnls(np.eye(2), np.ones(2))


class TestWeightReport:
    def test_uniform_weights(self):
        w = RichnessWeights(np.full(39, 0.7))
        rows = weight_report(w, phoneme_codes([("K", "AE", "T")]))
        for _, norm_w, _ in rows:
            assert norm_w == pytest.approx(1 / 39)

    def test_corpus_frequencies(self):
        w = RichnessWeights(np.ones(39))
        rows = weight_report(w, phoneme_codes([("K", "AE", "T")]))
        freqs = {sym: f for sym, _, f in rows}
        assert freqs["K"] == pytest.approx(1 / 3)
        assert freqs["AE"] == pytest.approx(1 / 3)
        assert freqs["ZH"] == 0.0

    def test_normalized_weights_sum_to_one(self):
        rng = np.random.default_rng(7)
        w = RichnessWeights(np.abs(rng.standard_normal(39)))
        rows = weight_report(w, phoneme_codes([("B",)]))
        assert sum(r[1] for r in rows) == pytest.approx(1.0, abs=1e-9)


class TestWeightsFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        w = RichnessWeights(np.abs(rng.standard_normal(39)), fit_residual=0.125, n_train=42)
        path = tmp_path / "weights.txt"
        save_weights(w, path)
        loaded = load_weights(path)
        np.testing.assert_array_equal(loaded.weights, w.weights)
        assert loaded.n_train == 42
        assert loaded.fit_residual == 0.125

    def test_fit_round_trips_finite_and_non_negative(self, tmp_path):
        rng = np.random.default_rng(9)
        design = (rng.random((60, 39)) < 0.3).astype(np.int8)
        design[0, 0] = 1
        path = tmp_path / "weights.txt"
        save_weights(fit_weights(design, rng.standard_normal(60)), path)
        weights = load_weights(path).weights
        assert weights.shape == (39,)
        assert weights.any() and np.all(np.isfinite(weights)) and np.all(weights >= 0)

    @pytest.mark.parametrize("line", ["AA 1", "AA\tone", "AA\t1\t2", "# n_train=3\tfit_residual"],
                             ids=["no-tab", "not-a-number", "three-fields", "bad-header"])
    def test_malformed_line_names_file_and_line(self, tmp_path, line):
        path = tmp_path / "weights.txt"
        path.write_text("# provenance\n" + line + "\n")
        with pytest.raises(ValueError) as exc:
            load_weights(path)
        assert str(exc.value) == f"{path}:2: expected PHONEME<TAB>weight, got {line!r}"
