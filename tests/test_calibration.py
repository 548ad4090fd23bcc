import math

import numpy as np
import pytest

from phonrich.calibration import (CalibrationModel, apply_lr, build_features,
                                  cross_validated_calibration, fit_lr, log_net_speech,
                                  save_model, stratified_folds)
from phonrich.metrics import Qmfs, Trials, compute_eer

from conftest import read_model_fields, trial_rows


def make_trials(tar, non):
    return Trials.from_ids(["m"] * (len(tar) + len(non)),
                           [f"t{i}" for i in range(len(tar))] + [f"n{i}" for i in range(len(non))],
                           [True] * len(tar) + [False] * len(non), list(tar) + list(non))


def is_target(labels):
    return np.array(labels) == "target"


class TestFitLr:
    def test_separable_data_orders_correctly(self):
        X = np.array([[5.0], [6.0], [-5.0], [-6.0]])
        labels = ["target", "target", "nontarget", "nontarget"]
        model = fit_lr(X, is_target(labels), feature_names=("raw",))
        out = apply_lr(model, X)
        assert min(out[:2]) > max(out[2:])

    def test_intercept_only_with_class_weighting_is_zero(self):
        # 1:4 imbalance; weighting equalizes the classes so log-odds is 0
        X = np.zeros((50, 0))
        labels = ["target"] * 10 + ["nontarget"] * 40
        model = fit_lr(X, is_target(labels), ())
        assert model.intercept == pytest.approx(0.0, abs=1e-7)
        assert model.converged

    def test_zero_features_give_zero_coefficients(self):
        X = np.zeros((40, 2))
        labels = ["target"] * 10 + ["nontarget"] * 30
        model = fit_lr(X, is_target(labels), feature_names=("a", "b"))
        np.testing.assert_allclose(model.coefficients, 0.0, atol=1e-7)
        assert model.intercept == pytest.approx(0.0, abs=1e-7)

    def test_duplicating_rows_leaves_model_unchanged(self):
        rng = np.random.default_rng(0)
        X = rng.standard_normal((30, 2))
        labels = ["target" if v > 0 else "nontarget" for v in X[:, 0] + 0.3 * rng.standard_normal(30)]
        if len(set(labels)) < 2:
            pytest.skip("degenerate draw")
        m1 = fit_lr(X, is_target(labels), ("a", "b"))
        m2 = fit_lr(np.vstack([X, X]), is_target(labels + labels), ("a", "b"))
        np.testing.assert_allclose(m1.coefficients, m2.coefficients, atol=1e-6)
        assert m1.intercept == pytest.approx(m2.intercept, abs=1e-6)

    def test_single_class_error(self):
        with pytest.raises(ValueError, match="both classes"):
            fit_lr(np.ones((3, 1)), is_target(["target"] * 3), ("raw",))


class TestApplyLr:
    def test_zero_coefficients_return_intercept(self):
        model = CalibrationModel(np.zeros(2), 1.25, ("a", "b"))
        out = apply_lr(model, np.random.default_rng(1).standard_normal((5, 2)))
        np.testing.assert_allclose(out, 1.25)

    def test_known_model(self):
        model = CalibrationModel(np.array([2.0]), 0.0, ("raw",))
        assert apply_lr(model, np.array([[0.5]]))[0] == pytest.approx(1.0)

    def test_affine_superposition(self):
        rng = np.random.default_rng(2)
        model = CalibrationModel(rng.standard_normal(3), 0.7, ("a", "b", "c"))
        u = rng.standard_normal((4, 3))
        v = rng.standard_normal((4, 3))
        lhs = apply_lr(model, (u + v) / 2)
        rhs = (apply_lr(model, u) + apply_lr(model, v)) / 2
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_monotone_in_raw_score(self):
        model = CalibrationModel(np.array([1.5, -0.2]), 0.0, ("raw", "cu"))
        scores = np.linspace(-1, 1, 9)
        X = np.column_stack([scores, np.full(9, 3.0)])
        out = apply_lr(model, X)
        assert np.all(np.diff(out) > 0)


class TestBuildFeatures:
    def test_canonical_order_and_lns_derivation(self):
        trials = make_trials([0.5], [0.1])
        qmfs = Qmfs.from_columns(trials.tests, {"cu": [3.0, 3.0], "net_speech": [2.0, 2.0]})
        X, names = build_features(trials, qmfs, {"cu", "raw", "lns"})
        assert names == ("raw", "lns", "cu")
        assert X[0, 1] == pytest.approx(math.log(2.0))

    def test_lns_derived_only_where_a_test_has_none(self):
        trials = make_trials([0.5, 0.4], [0.1])
        qmfs = Qmfs(trials.tests, ["lns", "net_speech"], np.array([[5.0, 1.0], [np.nan, 2.0], [np.nan, 0.0]]))
        X, _ = build_features(trials, qmfs, ("lns",))
        assert X[:, 0].tolist() == [5.0, math.log(2.0), math.log(0.01)]
        neither = Qmfs(trials.tests, ["cu", "net_speech"], np.array([[1.0, 2.0], [1.0, 3.0], [1.0, np.nan]]))
        with pytest.raises(ValueError, match="missing QMF 'lns' for test 'n0'"):
            build_features(trials, neither, ("lns",))

    def test_net_speech_floor(self):
        assert log_net_speech(0.0) == pytest.approx(math.log(0.01))

    def test_missing_qmf_error(self):
        trials = make_trials([0.5], [0.1])
        with pytest.raises(ValueError, match="missing QMF"):
            build_features(trials, Qmfs([], [], np.empty((0, 0))), ("cu",))

    def test_non_finite_value_refused(self):
        trials = make_trials([0.5], [0.1])
        qmfs = Qmfs(trials.tests, ["cu"], np.array([[3.0], [np.inf]]))
        with pytest.raises(ValueError, match="non-finite feature value"):
            build_features(trials, qmfs, ("raw", "cu"))


class TestStratifiedFolds:
    def test_counts_within_one(self):
        labels = ["target"] * 23 + ["nontarget"] * 77
        folds = stratified_folds(is_target(labels), 5, seed=0)
        for label, count in (("target", 23), ("nontarget", 77)):
            sizes = [sum(1 for i, lab in enumerate(labels) if lab == label and folds[i] == f)
                     for f in range(5)]
            assert max(sizes) - min(sizes) <= 1
            assert all(abs(s - count // 5) <= 1 for s in sizes)

    def test_deterministic(self):
        labels = ["target"] * 10 + ["nontarget"] * 40
        np.testing.assert_array_equal(stratified_folds(is_target(labels), 5, 7), stratified_folds(is_target(labels), 5, 7))
        assert not np.array_equal(stratified_folds(is_target(labels), 5, 7), stratified_folds(is_target(labels), 5, 8))

    def test_insufficient_class_error(self):
        with pytest.raises(ValueError, match="at least"):
            stratified_folds(is_target(["target"] * 3 + ["nontarget"] * 30), 5, 0)

    def test_boundary_one_rare_trial_per_fold(self):
        labels = ["target"] * 5 + ["nontarget"] * 50
        folds = stratified_folds(is_target(labels), 5, 0)
        rare = folds[:5]
        assert sorted(rare) == [0, 1, 2, 3, 4]


class TestCrossValidatedCalibration:
    def _simulated(self, n=200, seed=3):
        rng = np.random.default_rng(seed)
        tar = rng.standard_normal(n) * 0.3 + 1.0
        non = rng.standard_normal(n) * 0.3
        trials = make_trials(tar, non)
        qmfs = Qmfs(trials.tests, ["cu", "net_speech"],
                    np.array([(float(rng.integers(3, 30)), float(rng.uniform(1, 5))) for _ in trials.tests]))
        return trials, qmfs

    def test_raw_only_close_to_uncalibrated(self):
        trials, qmfs = self._simulated()
        calibrated, models = cross_validated_calibration(trials, qmfs, ("raw",), k=5, seed=1)
        eer_raw, _ = compute_eer(*trials.class_scores())
        eer_cal, _ = compute_eer(*calibrated.class_scores())
        assert abs(eer_cal - eer_raw) <= 0.001 + 1e-12
        assert len(models) == 5

    def test_single_fold_preserves_eer_exactly(self):
        trials, qmfs = self._simulated()
        calibrated, models = cross_validated_calibration(trials, qmfs, ("raw",), k=1, seed=1)
        assert models[0].coefficients[0] > 0
        eer_raw, _ = compute_eer(*trials.class_scores())
        eer_cal, _ = compute_eer(*calibrated.class_scores())
        assert eer_cal == pytest.approx(eer_raw, abs=1e-12)

    def test_single_fold_needs_both_classes(self):
        """One fold is a split like any other: each class must fill it."""
        trials = make_trials([], [0.1, 0.2, 0.3])
        with pytest.raises(ValueError, match="need at least 1 target trials for 1-fold split, got 0"):
            cross_validated_calibration(trials, Qmfs.from_columns(trials.tests, {}), ("raw",), k=1)

    def test_deterministic(self):
        trials, qmfs = self._simulated()
        a, _ = cross_validated_calibration(trials, qmfs, ("raw", "cu"), k=5, seed=9)
        b, _ = cross_validated_calibration(trials, qmfs, ("raw", "cu"), k=5, seed=9)
        assert a.scores.tolist() == b.scores.tolist()

    def test_models_are_labelled_in_canonical_order_one_coefficient_each(self):
        trials, qmfs = self._simulated(50)
        _, models = cross_validated_calibration(trials, qmfs, ("cu", "raw", "cu"), k=5, seed=2)
        for model in models:
            assert model.feature_names == ("raw", "cu")
            assert model.coefficients.shape == (2,)

    def test_pooled_order_matches_input(self):
        trials, qmfs = self._simulated(50)
        calibrated, _ = cross_validated_calibration(trials, qmfs, ("raw",), k=5, seed=2)
        assert trial_rows(calibrated) == trial_rows(trials)


class TestModelFile:
    def test_round_trip(self, tmp_path):
        model = CalibrationModel(np.array([1.5, -0.25]), 0.125, ("raw", "cu"),
                                 (2.0, 0.6666666666666666), False, seed=11)
        path = tmp_path / "model.txt"
        save_model(model, path, "# provenance")
        fields = read_model_fields(path)
        assert list(fields) == ["intercept", "class_weight_target", "class_weight_nontarget",
                                "converged", "seed", "coef:raw", "coef:cu"]
        assert float(fields["intercept"]) == model.intercept
        assert (float(fields["class_weight_target"]), float(fields["class_weight_nontarget"])) == \
            model.class_weights
        assert [float(fields["coef:raw"]), float(fields["coef:cu"])] == model.coefficients.tolist()
        assert (fields["converged"], fields["seed"]) == ("0", "11")
