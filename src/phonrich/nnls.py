"""Lawson-Hanson active-set solver for non-negative least squares."""

from __future__ import annotations

import numpy as np

# a coordinate enters the passive set only while its gradient exceeds TOL
TOL = 1e-10
# inner iterations allowed per column of A before the solve is abandoned
ITERATIONS_PER_COLUMN = 10


def nnls(A: np.ndarray, b: np.ndarray):
    """Minimize ||A x - b||_2 subject to x >= 0.

    Classic active-set iteration: start from x = 0, move the most
    positively-correlated coordinate into the passive set, solve the
    unconstrained subproblem on the passive set, and step back along the
    segment to feasibility when the subproblem goes negative.

    Returns (x, rnorm) where rnorm = ||A x - b||_2. Deterministic: ties in
    the gradient are broken by lowest index, and inner solves use lstsq
    (minimum-norm on rank-deficient passive sets).
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    n = A.shape[1]
    max_iterations = ITERATIONS_PER_COLUMN * n

    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = A.T @ (b - A @ x)

    it = 0
    while True:
        inactive = ~passive
        if not inactive.any() or np.max(w[inactive]) <= TOL:
            break
        # argmax over the inactive set, lowest index on ties
        candidates = np.flatnonzero(inactive)
        j = candidates[np.argmax(w[candidates])]
        passive[j] = True

        while True:
            it += 1
            if it > max_iterations:
                raise ValueError(f"nnls did not converge in {max_iterations} iterations")
            cols = np.flatnonzero(passive)
            z = np.zeros(n)
            z[cols], *_ = np.linalg.lstsq(A[:, cols], b, rcond=None)
            if z[cols].min() > 0:
                x = z
                break
            # step from x toward z, stopping at the first coordinate to hit zero
            neg = cols[z[cols] <= 0]
            alpha = np.min(x[neg] / (x[neg] - z[neg]))
            x = x + alpha * (z - x)
            passive[np.flatnonzero(passive & (np.abs(x) < 1e-14))] = False
            x[~passive] = 0.0

        w = A.T @ (b - A @ x)

    residual = b - A @ x
    return x, float(np.linalg.norm(residual))
