"""Count-unique (CU) and weighted count-unique (WCU) phonetic-richness measures."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .inventory import ARPABET_39, PHONEME_INDEX, PresenceVector
from .io import numbered_lines, write_lines
from .metrics import Qmfs
from .nnls import nnls


def count_unique(p: PresenceVector) -> np.ndarray:
    """Number of distinct ARPABET_39 phonemes present in each utterance."""
    return p.bits.sum(axis=1, dtype=np.int64)


@dataclass
class RichnessWeights:
    """Learned non-negative per-phoneme weight vector for WCU."""

    weights: np.ndarray
    fit_residual: float = 0.0
    n_train: int = 0


def weighted_count_unique(p: PresenceVector, w: RichnessWeights) -> np.ndarray:
    """Per utterance, the dot product of the weight vector with its presence bits.

    A stack of (1, 39) @ (39, 1) products, each equal bit for bit to the
    vector product ``w.weights @ bits``; ``P @ w`` rounds differently in
    the last bits on some rows.
    """
    return np.matmul(p.bits[:, None, :], w.weights[:, None])[:, 0, 0]


def quality_measures(presence: PresenceVector, weights: RichnessWeights | None = None,
                     net_speech: dict[str, float] | None = None) -> Qmfs:
    """The QMFs of ``presence``'s rows: cu; wcu if weighted; net_speech where ``net_speech`` names
    the utterance, NaN (no value) elsewhere; and lns derived from it by Qmfs.with_lns."""
    columns = {"cu": count_unique(presence)}
    if weights is not None:
        columns["wcu"] = weighted_count_unique(presence, weights)
    if net_speech is not None:
        columns["net_speech"] = [net_speech.get(u, np.nan) for u in presence.utterance_ids]
    return Qmfs.from_columns(presence.utterance_ids, columns).with_lns()


def fit_weights(presence: np.ndarray, scores: np.ndarray) -> RichnessWeights:
    """Fit non-negative per-phoneme weights to positive-trial scores.

    Solves min_w ||P w - s||^2 subject to w >= 0 with no intercept, where
    row u of P (``presence``, 0/1) is the presence vector of utterance u
    and s_u is the ASV score of that utterance against its own speaker's
    enrollment. The active-set solve is deterministic.
    """
    P = np.asarray(presence, dtype=float)
    s = np.asarray(scores, dtype=float)
    if not P.any():
        raise ValueError("all-zero presence matrix: no identifiable weights")
    w, rnorm = nnls(P, s)
    return RichnessWeights(w, fit_residual=float(rnorm / np.sqrt(len(s))), n_train=len(s))


def weight_report(w: RichnessWeights, codes: np.ndarray) -> list[tuple[str, float, float]]:
    """Per phoneme: weight normalized to sum to one vs. its frequency among a corpus's phoneme tokens,
    ``codes`` holding the ARPABET_39 index of each.

    Rows are in ARPABET_39 order: (symbol, normalized_weight, frequency).
    The weights must not be all zero.
    """
    counts = np.bincount(codes, minlength=len(ARPABET_39)).astype(float)
    freqs = counts / counts.sum() if counts.any() else counts
    norm = w.weights / w.weights.sum()
    return [(sym, float(norm[i]), float(freqs[i])) for i, sym in enumerate(ARPABET_39)]


def save_weights(w: RichnessWeights, path: str | Path, provenance: str | None = None) -> None:
    """Persist weights as PHONEME<TAB>weight lines, 17 significant digits."""
    write_lines(path, provenance, [f"# n_train={w.n_train}\tfit_residual={w.fit_residual:.17g}",
                                   *(f"{sym}\t{weight:.17g}" for sym, weight in zip(ARPABET_39, w.weights))])


def load_weights(path: str | Path) -> RichnessWeights:
    """PHONEME<TAB>weight lines, one per ARPABET-39 symbol, as save_weights writes them.

    A malformed line, a symbol outside ARPABET-39, a repeated symbol or a
    weight that is not a finite non-negative number fails with the file
    and line.
    """
    n_train, fit_residual = 0, 0.0
    weights = np.zeros(len(ARPABET_39))
    first_line: dict[str, int] = {}
    for lineno, line in numbered_lines(path):
        try:
            if line.startswith("# n_train="):
                head, tail = line[2:].split("\t")
                n_train = int(head.partition("=")[2])
                fit_residual = float(tail.partition("=")[2])
                continue
            if not line.strip() or line.startswith("#"):
                continue
            sym, val = line.split("\t")
            weight = float(val)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected PHONEME<TAB>weight, got {line!r}") from None
        if sym not in PHONEME_INDEX:
            raise ValueError(f"{path}:{lineno}: phoneme {sym!r} is not an ARPABET-39 symbol")
        if sym in first_line:
            raise ValueError(f"{path}:{lineno}: duplicate phoneme {sym!r}, first at line {first_line[sym]}")
        if not 0 <= weight < np.inf:
            raise ValueError(f"{path}:{lineno}: weight must be finite and non-negative, got {val!r}")
        first_line[sym] = lineno
        weights[PHONEME_INDEX[sym]] = weight
    if missing := [s for s in ARPABET_39 if s not in first_line]:
        raise ValueError(f"{path}: missing symbols: {missing}")
    return RichnessWeights(weights, fit_residual=fit_residual, n_train=n_train)
