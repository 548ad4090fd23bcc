"""Logistic-regression score calibration with stratified k-fold cross-validation."""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .io import write_lines
from .metrics import NONTARGET, TARGET, Qmfs, Trials

# canonical feature order; a feature set is any subset of these names
FEATURE_ORDER = ("raw", "lns", "cu", "wcu")

MAX_ITER = 100
GRAD_TOL = 1e-8
RIDGE = 1e-9


@dataclass
class CalibrationModel:
    """Affine logit model over (raw score, quality features)."""

    coefficients: np.ndarray
    intercept: float
    feature_names: tuple[str, ...]
    class_weights: tuple[float, float] = (1.0, 1.0)  # (w_target, w_nontarget)
    converged: bool = True


def build_features(trials: Trials, qmfs: Qmfs, feature_set) -> tuple[np.ndarray, tuple[str, ...]]:
    """Assemble the (n, d) feature matrix in canonical feature order.

    ``raw`` comes from the trial score; ``lns``, ``cu``, ``wcu`` come from
    the QMF table (``lns`` as given, or derived from ``net_speech`` by
    Qmfs.with_lns), joined once per test and gathered to the trials.
    """
    names = tuple(n for n in FEATURE_ORDER if n in set(feature_set))
    qmf_names = tuple(n for n in names if n != "raw")
    X = np.empty((len(trials), 0))
    if qmf_names:
        X = (qmfs.with_lns() if "lns" in qmf_names else qmfs).join(trials.tests, qmf_names)[trials.test_codes]
    if "raw" in names:  # first in canonical order
        X = np.hstack([trials.scores[:, None], X])
    return X, names


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, so no exp overflows."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def fit_lr(features: np.ndarray, is_target: np.ndarray, feature_names: tuple[str, ...]) -> CalibrationModel:
    """Newton/IRLS fit of class-weighted logistic regression.

    Each row is weighted n / (2 * n_class), so the two classes carry equal
    total weight. ``is_target`` is the boolean target mask of the rows.
    Deterministic: zero initialization, convergence when max |gradient| <
    1e-8, ridge 1e-9 on the Hessian, and at most 100 iterations. A fit also stops, with
    ``converged`` False, at a floating-point fixed point: once an accepted
    Newton step leaves the coefficients bitwise unchanged, every later iteration would repeat it.
    A Newton step that overflows, as a feature value near 1e154 makes it, is refused, not halved.
    """
    y = is_target.astype(float)
    n, d = features.shape
    n_tar = int(y.sum())
    n_non = n - n_tar
    if n_tar == 0 or n_non == 0:
        raise ValueError("fit_lr requires both classes present")

    w_tar, w_non = n / (2.0 * n_tar), n / (2.0 * n_non)
    sample_w = np.where(y == 1.0, w_tar, w_non)

    Xb = np.hstack([np.ones((n, 1)), features])  # intercept first

    def loglik(z):
        return float(np.sum(sample_w * (y * z - np.logaddexp(0.0, z))))

    beta = np.zeros(d + 1)
    z = Xb @ beta
    base = loglik(z)
    converged = False
    for _ in range(MAX_ITER):
        p = _sigmoid(z)
        grad = Xb.T @ (sample_w * (y - p))
        if np.max(np.abs(grad)) < GRAD_TOL:
            converged = True
            break
        r = sample_w * p * (1.0 - p)
        H = Xb.T @ (Xb * r[:, None]) + RIDGE * np.eye(d + 1)
        step = np.linalg.solve(H, grad)
        # halve the Newton step until the weighted log-likelihood does not
        # decrease; keeps separable data growing monotonically instead of
        # oscillating once the Hessian degenerates. The accepted step's z and
        # log-likelihood are the next iteration's.
        for _ in range(30):
            stepped = beta + step
            stepped_z = Xb @ stepped
            stepped_loglik = loglik(stepped_z)
            if stepped_loglik >= base:
                break
            step = step / 2.0
        else:
            break
        if np.array_equal(stepped, beta):
            break  # floating-point fixed point: every later iteration replays this one
        beta, z, base = stepped, stepped_z, stepped_loglik

    return CalibrationModel(
        coefficients=beta[1:],
        intercept=float(beta[0]),
        feature_names=feature_names,
        class_weights=(w_tar, w_non),
        converged=converged,
    )


def apply_lr(model: CalibrationModel, features: np.ndarray) -> np.ndarray:
    """Calibrated scores in the logit (log-odds) domain."""
    return model.intercept + features @ model.coefficients


def stratified_folds(is_target: np.ndarray, k: int, seed: int, source: str = "") -> np.ndarray:
    """Seeded shuffle then round-robin fold assignment within each class.

    Returns an array of fold indices in [0, k), k >= 1. Per-class fold
    counts differ by at most one trial. A class of fewer than k trials is
    refused, naming ``source``, the scores file, if given.
    """
    rng = np.random.default_rng(seed)
    folds = np.empty(is_target.size, dtype=int)
    for label, idx in ((TARGET, np.flatnonzero(is_target)), (NONTARGET, np.flatnonzero(~is_target))):
        if idx.size < k:
            raise ValueError(f"{source + ': ' if source else ''}need at least {k} {label} trials for {k}-fold "
                             f"split, got {idx.size}")
        rng.shuffle(idx)
        folds[idx] = np.arange(idx.size) % k
    return folds


def cross_validated_calibration(trials: Trials, qmfs: Qmfs, feature_set, k: int = 5, seed: int = 0):
    """Out-of-fold calibrated scores from stratified k-fold logistic regression.

    Each fold is scored by the model fit on the other k-1 folds; the
    trials come back in their original order with the pooled scores,
    together with the per-fold models.
    """
    X, names = build_features(trials, qmfs, feature_set)
    folds = stratified_folds(trials.is_target, k, seed, trials.source)

    pooled = np.empty(len(trials))
    models = []
    for fold in range(k):
        test = folds == fold
        train = ~test if k > 1 else test  # one fold trains on every trial, as it scores every trial
        model = fit_lr(X[train], trials.is_target[train], feature_names=names)
        pooled[test] = apply_lr(model, X[test])
        models.append(model)
    return replace(trials, scores=pooled), models


def save_model(model: CalibrationModel, path: str | Path, seed: int, provenance: str | None = None) -> None:
    write_lines(path, provenance, [
        f"intercept\t{model.intercept:.17g}",
        f"class_weight_target\t{model.class_weights[0]:.17g}",
        f"class_weight_nontarget\t{model.class_weights[1]:.17g}",
        f"converged\t{int(model.converged)}",
        f"seed\t{seed}",
        *(f"coef:{name}\t{coef:.17g}" for name, coef in zip(model.feature_names, model.coefficients))])

