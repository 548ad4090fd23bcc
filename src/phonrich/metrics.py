"""EER, minC_primary, Kendall's tau-b, and protocol descriptive statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

# NIST SRE primary-cost operating points: two target priors, unit costs.
MIN_C_PRIMARY_PRIORS = (0.01, 0.005)

TARGET = "target"
NONTARGET = "nontarget"


def target_mask(is_target) -> np.ndarray:
    """A boolean per-trial target mask; strings or numbers are refused, not cast."""
    mask = np.asarray(is_target)
    if mask.size and mask.dtype != bool:
        raise ValueError(f"target mask must be boolean, got dtype {mask.dtype}")
    return mask.astype(bool, copy=False)


def encode_ids(ids) -> tuple[list[str], np.ndarray]:
    """Distinct ids in order of first appearance, and each id's index into them."""
    table = list(dict.fromkeys(ids))
    index = dict(zip(table, range(len(table))))
    return table, np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))


def decode_ids(table: list[str], codes: np.ndarray) -> list[str]:
    """The id of each code: the inverse of encode_ids."""
    return np.array(table, dtype=object)[codes].tolist()


@dataclass
class Trials:
    """Verification trials as columns: enrollment model vs. test utterance, one entry each.

    Trial k pairs ``models[model_codes[k]]`` with ``tests[test_codes[k]]``.
    The id tables are distinct; read from a file they hold the ids its
    trials use, in order of first appearance. ``scores`` is None for a
    trial list, which carries no scores.
    """

    models: list[str]
    tests: list[str]
    model_codes: np.ndarray  # intp
    test_codes: np.ndarray  # intp
    is_target: np.ndarray  # bool
    scores: np.ndarray | None  # float64

    @classmethod
    def from_ids(cls, model_ids, test_ids, is_target, scores) -> "Trials":
        """Trials from one model id and one test id per trial."""
        models, model_codes = encode_ids(model_ids)
        tests, test_codes = encode_ids(test_ids)
        return cls(models, tests, model_codes, test_codes, is_target, scores)

    def __post_init__(self):
        self.is_target = target_mask(self.is_target)
        self.model_codes = np.asarray(self.model_codes, dtype=np.intp)
        self.test_codes = np.asarray(self.test_codes, dtype=np.intp)
        columns = [self.model_codes, self.test_codes, self.is_target]
        if self.scores is not None:
            self.scores = np.asarray(self.scores, dtype=float)
            columns.append(self.scores)
        if self.model_codes.ndim != 1 or len({column.shape for column in columns}) > 1:
            raise ValueError("trial columns differ in length")
        if self.scores is not None and not np.isfinite(self.scores).all():
            i = int(np.argmin(np.isfinite(self.scores)))
            raise ValueError(f"non-finite score for trial ({self.models[self.model_codes[i]]}, "
                             f"{self.tests[self.test_codes[i]]})")

    def __len__(self) -> int:
        return len(self.model_codes)

    def labels(self) -> list[str]:
        return [TARGET if t else NONTARGET for t in self.is_target.tolist()]

    def class_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Target scores and nontarget scores, each in trial order."""
        return self.scores[self.is_target], self.scores[~self.is_target]


@dataclass
class Qmfs:
    """Quality measures (QMFs) per test: row i is test ``test_ids[i]``, column j QMF ``names[j]``.

    The names are sorted. A cell is NaN where its test has no such QMF.
    """

    test_ids: list[str]
    names: list[str]
    values: np.ndarray  # (len(test_ids), len(names)) float64

    @classmethod
    def from_columns(cls, test_ids, columns: dict) -> "Qmfs":
        """A table from a column of one value per test for each QMF name."""
        names = sorted(columns)
        values = np.array([columns[name] for name in names], dtype=float).reshape(len(names), len(test_ids))
        return cls(list(test_ids), names, np.ascontiguousarray(values.T))

    def columns(self, names) -> np.ndarray:
        """The (len(test_ids), len(names)) block of QMFs ``names``, NaN where a test lacks one."""
        padded = np.hstack([self.values, np.full((len(self.test_ids), 1), np.nan)])  # column -1: absent
        return padded[:, [self.names.index(name) if name in self.names else -1 for name in names]]

    def names_of(self, test_id: str) -> list[str]:
        """The names of the QMFs of ``test_id``; none if it has no row."""
        row = self.values[self.test_ids.index(test_id)] if test_id in self.test_ids else []
        return [name for name, value in zip(self.names, row) if not np.isnan(value)]

    def join(self, tests: list[str], names) -> np.ndarray:
        """The (len(tests), len(names)) block of QMFs ``names`` of ``tests``.

        The first of ``tests`` that has no row, or lacks one of ``names``, fails.
        """
        row_of = dict(zip(self.test_ids, range(len(self.test_ids))))
        rows = np.fromiter(map(row_of.get, tests, repeat(-1)), dtype=np.intp, count=len(tests))
        block = np.vstack([self.columns(names), np.full((1, len(names)), np.nan)])[rows]  # row -1: no row
        bad = (rows < 0) | np.isnan(block).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            missing = "values" if rows[i] < 0 else repr(names[int(np.argmax(np.isnan(block[i])))])
            raise ValueError(f"missing QMF {missing} for test {tests[i]!r}")
        return block


def roc_points(tar: np.ndarray, non: np.ndarray):
    """Operating points swept over the distinct scores, accept iff score >= t.

    Returns (thresholds, far, frr) with a final virtual reject-all point.
    FAR and FRR depend on the scores only through their order, so every
    strictly increasing transform of the scores yields identical curves.
    """
    tar = np.sort(np.asarray(tar, dtype=float))
    non = np.sort(np.asarray(non, dtype=float))
    if tar.size == 0 or non.size == 0:
        raise ValueError("need at least one target and one nontarget trial")
    thresholds = np.unique(np.concatenate([tar, non]))
    far = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    thresholds = np.append(thresholds, np.inf)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    return thresholds, far, frr


def compute_eer(tar, non) -> tuple[float, float]:
    """Equal error rate with linear interpolation between adjacent ROC points."""
    thresholds, far, frr = roc_points(tar, non)
    diff = far - frr  # non-increasing along the sweep, starts at 1, ends at -1
    idx = int(np.argmax(diff <= 0))
    if diff[idx] == 0 or idx == 0:
        return float(far[idx]), float(thresholds[idx])
    d0, d1 = diff[idx - 1], diff[idx]
    alpha = d0 / (d0 - d1)
    eer = far[idx - 1] + alpha * (far[idx] - far[idx - 1])
    t0, t1 = thresholds[idx - 1], thresholds[idx]
    thr = t0 if not np.isfinite(t1) else t0 + alpha * (t1 - t0)
    return float(eer), float(thr)


def compute_min_c_primary(tar, non) -> float:
    """Mean normalized minimum detection cost at target priors 0.01 and 0.005."""
    _, far, frr = roc_points(tar, non)
    costs = []
    for p_target in MIN_C_PRIMARY_PRIORS:
        dcf = p_target * frr + (1.0 - p_target) * far
        costs.append(dcf.min() / min(p_target, 1.0 - p_target))
    return float(np.mean(costs))


def _count_inversions(ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j], by bottom-up merge levels.

    At width w the sequence is cut into blocks of w and each block is
    sorted. Every pair meets exactly once as (left block, right sibling
    block), where each right element counts, by binary search, the
    elements of its sorted left sibling that exceed it.
    """
    ranks = np.asarray(ranks, dtype=np.int64)
    n = ranks.size
    span = int(ranks.max()) + 1 if n else 1
    pos = np.arange(n)
    inversions = 0
    width = 1
    while width < n:
        block = pos // width
        keys = np.sort(block * span + ranks)  # sorting keeps every element in its block
        right = np.flatnonzero(block % 2 == 1)
        below = keys[right] - span  # same value, keyed into the left sibling block
        inversions += int((block[right] * width - np.searchsorted(keys, below, side="right")).sum())
        width *= 2
    return inversions


def _tied_pairs(values: np.ndarray) -> int:
    _, counts = np.unique(values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau(x, y) -> float:
    """Kendall's tau-b: (C - D) / sqrt((n0 - tx)(n0 - ty)) with tie corrections.

    Knight's (1966) O(n log n) construction: sort by (x, y), count
    inversions of y for the discordant pairs, and correct concordant
    counts for ties.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("kendall_tau needs two equal-length 1-D sequences")
    n = x.size
    if n < 2:
        raise ValueError("kendall_tau needs at least 2 observations")

    n0 = n * (n - 1) // 2
    tx = _tied_pairs(x)
    ty = _tied_pairs(y)
    if tx == n0 or ty == n0:
        raise ValueError("all values tied in one list: tau-b undefined")

    order = np.lexsort((y, x))
    xs, ys = x[order], y[order]
    # joint ties
    pair_view = np.stack([xs, ys], axis=1)
    changed = np.any(np.diff(pair_view, axis=0) != 0, axis=1)
    group_sizes = np.diff(np.concatenate([[0], np.flatnonzero(changed) + 1, [n]]))
    txy = int((group_sizes * (group_sizes - 1) // 2).sum())

    # inversions of y after the (x, y) sort; tied-x pairs contribute none
    discordant = _count_inversions(np.searchsorted(np.unique(ys), ys))
    concordant = n0 - tx - ty + txy - discordant
    return float((concordant - discordant) / math.sqrt((n0 - tx) * (n0 - ty)))


def correlation_report(trials: Trials, qmfs: Qmfs):
    """Per class and per QMF: tau between the QMF and the raw score.

    Returns (taus, qmf_names, block) where taus maps (label, qmf_name) ->
    tau and block is the (len(trials.tests), len(qmf_names)) array of the
    QMFs of each test. The QMF names are those of the first trial's test.
    """
    tests, codes = trials.tests, trials.test_codes
    qmf_names = qmfs.names_of(tests[codes[0]]) if len(codes) else []
    block = qmfs.join(tests, qmf_names)
    taus: dict[tuple[str, str], float] = {}
    for label, mask in ((TARGET, trials.is_target), (NONTARGET, ~trials.is_target)):
        if not mask.any():
            continue
        scores, values = trials.scores[mask], block[codes[mask]]
        for j, name in enumerate(qmf_names):
            taus[(label, name)] = kendall_tau(values[:, j], scores)
    return taus, qmf_names, block


def protocol_stats(qmfs: Qmfs):
    """Mean and population std of net_speech and of CU over the tests that have both."""
    both = qmfs.columns(["net_speech", "cu"])
    both = both[~np.isnan(both).any(axis=1)]
    if not len(both):
        raise ValueError("QMF file has no records with both net_speech and cu")
    ns, cu = both[:, 0], both[:, 1]
    return (float(ns.mean()), float(ns.std()), float(cu.mean()), float(cu.std()))
