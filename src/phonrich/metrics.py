"""EER, minC_primary, Kendall's tau-b, and protocol descriptive statistics."""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import count, filterfalse, repeat

import numpy as np

# NIST SRE primary-cost operating points: two target priors, unit costs.
MIN_C_PRIMARY_PRIORS = (0.01, 0.005)
NET_SPEECH_FLOOR = 0.01  # seconds, applied before the log of net speech

TARGET = "target"
NONTARGET = "nontarget"


def encode_ids(ids, index: dict) -> np.ndarray:
    """Each id's code in ``index``, id -> code in order of first appearance, which gains the ids it lacks."""
    index.update(zip(filterfalse(index.__contains__, dict.fromkeys(ids)), count(len(index))))
    return np.fromiter(map(index.__getitem__, ids), dtype=np.intp, count=len(ids))


def rows_of(ids, keys) -> np.ndarray:
    """Each id's row in ``keys``, or -1 for an id that is not one of them."""
    row = dict(zip(keys, count()))
    return np.fromiter(map(row.get, ids, repeat(-1)), dtype=np.intp, count=len(ids))


@dataclass
class Trials:
    """Verification trials as columns: enrollment model vs. test utterance, one entry each.

    Trial k pairs ``models[model_codes[k]]`` with ``tests[test_codes[k]]``.
    The id tables are distinct; read from a file they hold the ids its
    trials use, in order of first appearance. ``scores`` is None for a
    trial list, which carries no scores. ``source`` is the file the trials
    were read from, empty for trials built in memory.
    """

    models: list[str]
    tests: list[str]
    model_codes: np.ndarray  # intp
    test_codes: np.ndarray  # intp
    is_target: np.ndarray  # bool
    scores: np.ndarray | None  # float64
    source: str = ""

    def __len__(self) -> int:
        return len(self.model_codes)

    def labels(self) -> list[str]:
        return [TARGET if t else NONTARGET for t in self.is_target.tolist()]

    def class_scores(self) -> tuple[np.ndarray, np.ndarray]:
        """Target scores and nontarget scores, each in trial order."""
        return self.scores[self.is_target], self.scores[~self.is_target]


def log_net_speech(net_speech: float) -> float:
    """Natural log of net speech, floored at 0.01 s so zero duration stays finite."""
    return math.log(max(net_speech, NET_SPEECH_FLOOR))


@dataclass
class Qmfs:
    """Quality measures (QMFs) per test: row i is test ``test_ids[i]``, column j QMF ``names[j]``.

    The names are sorted. A cell is NaN where its test has no such QMF.
    ``source`` is the file the table was read from and ``lines`` each row's line in it, which
    join's refusal names; both are empty for a table built in memory.
    """

    test_ids: list[str]
    names: list[str]
    values: np.ndarray  # (len(test_ids), len(names)) float64
    source: str = ""
    lines: Sequence[int] = ()

    @classmethod
    def from_columns(cls, test_ids, columns: dict, source: str = "", lines: Sequence[int] = ()) -> "Qmfs":
        """A table from a column of one value per test for each QMF name."""
        names = sorted(columns)
        values = np.array([columns[name] for name in names], dtype=float).reshape(len(names), len(test_ids))
        return cls(list(test_ids), names, np.ascontiguousarray(values.T), source, lines)

    def with_lns(self) -> "Qmfs":
        """The table with lns derived from net_speech, value by value, for each test that has no lns."""
        lns, net_speech = self.columns(["lns", "net_speech"]).T
        derive = np.isnan(lns) & ~np.isnan(net_speech)
        lns[derive] = list(map(log_net_speech, net_speech[derive].tolist()))
        return Qmfs.from_columns(self.test_ids, {**dict(zip(self.names, self.values.T)), "lns": lns},
                                 self.source, self.lines)

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

        The first of ``tests`` that has no row, or lacks one of ``names``, fails, naming
        the file of a table read from one and the line of the test's row, if it has one.
        """
        rows = rows_of(tests, self.test_ids)
        block = np.vstack([self.columns(names), np.full((1, len(names)), np.nan)])[rows]  # row -1: no row
        bad = (rows < 0) | np.isnan(block).any(axis=1)
        if bad.any():
            i = int(np.argmax(bad))
            missing = "values" if rows[i] < 0 else repr(names[int(np.argmax(np.isnan(block[i])))])
            line = f":{self.lines[rows[i]]}" if rows[i] >= 0 and self.lines else ""
            where = f"{self.source}{line}: " if self.source else ""
            raise ValueError(f"{where}missing QMF {missing} for test {tests[i]!r}")
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
    ordered = np.sort(np.concatenate([tar, non]))
    thresholds = ordered[_run_starts(ordered)[:-1]]
    far = 1.0 - np.searchsorted(non, thresholds, side="left") / non.size
    frr = np.searchsorted(tar, thresholds, side="left") / tar.size
    thresholds = np.append(thresholds, np.inf)
    far = np.append(far, 0.0)
    frr = np.append(frr, 1.0)
    return thresholds, far, frr


def compute_eer(tar, non) -> float:
    """Equal error rate with linear interpolation between adjacent ROC points."""
    _, far, frr = roc_points(tar, non)
    diff = far - frr  # non-increasing along the sweep, starts at 1, ends at -1
    idx = int(np.argmax(diff <= 0))
    if diff[idx] == 0 or idx == 0:
        return float(far[idx])
    d0, d1 = diff[idx - 1], diff[idx]
    alpha = d0 / (d0 - d1)
    return float(far[idx - 1] + alpha * (far[idx] - far[idx - 1]))


def compute_min_c_primary(tar, non) -> float:
    """Mean normalized minimum detection cost at target priors 0.01 and 0.005."""
    _, far, frr = roc_points(tar, non)
    costs = []
    for p_target in MIN_C_PRIMARY_PRIORS:
        dcf = p_target * frr + (1.0 - p_target) * far
        costs.append(dcf.min() / min(p_target, 1.0 - p_target))
    return float(np.mean(costs))


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Where each run of equal values of a sorted 1-D array starts, then the array's length.

    Values compare as floats do: -0.0 and 0.0 are one run.
    """
    return np.flatnonzero(np.concatenate([[True], ordered[1:] != ordered[:-1], [True]]))


def _dense_ranks(values) -> tuple[np.ndarray, np.ndarray]:
    """Each value's rank among the distinct values, 0 for the least, and how often each distinct
    value occurs, in rank order, for a 1-D sequence of numbers; NaN, which has no rank, is refused.

    Values are sorted as floats.
    """
    values = np.asarray(values).astype(float, copy=False)
    if np.isnan(values).any():
        raise ValueError("kendall_tau needs numbers, got NaN")
    order = np.argsort(values)
    starts = _run_starts(values[order])
    counts = np.diff(starts)
    ranks = np.empty(values.size, dtype=np.intp)
    ranks[order] = np.repeat(np.arange(counts.size), counts)
    return ranks, counts


def _pairs(counts: np.ndarray) -> int:
    """The pairs within groups of these sizes."""
    return int((counts * (counts - 1) // 2).sum())


def _count_inversions(runs: np.ndarray, ranks: np.ndarray) -> int:
    """Pairs i < j with ranks[i] > ranks[j] in a sequence of ascending runs, by merging runs.

    ``runs`` numbers each element's run, 0, 1, 2, ... in sequence order,
    and ``ranks`` (integers >= 0) ascends within each run, so no pair
    inside a run is inverted. Each level pairs run 2k with run 2k + 1:
    each element of the right run counts, by binary search, the elements
    of its left sibling that exceed it, and the two become run k of the
    next level. After ceil(log2(number of runs)) levels every pair has met once.
    """
    span = int(ranks.max()) + 1 if ranks.size else 1
    keys = runs * span + ranks  # ascending: by run, then by rank
    inversions = 0
    while runs.size and runs[-1] > 0:
        ends = np.cumsum(np.bincount(runs))  # where each run ends
        right = np.flatnonzero(runs & 1)
        # a right element's left sibling holds, above its rank, the elements up to the sibling's
        # end less those keyed at or below (sibling, rank)
        inversions += int((ends[runs[right] - 1]
                           - np.searchsorted(keys, keys[right] - span, side="right")).sum())
        keys = np.sort(keys - (runs - (runs >> 1)) * span)  # run r becomes run r >> 1
        runs = runs >> 1
    return inversions


def kendall_tau(x, y) -> float:
    """Kendall's tau-b: (C - D) / sqrt((n0 - tx)(n0 - ty)) with tie corrections.

    Knight's (1966) O(n log n) construction: sort the pairs by (x, y),
    which leaves y ascending within each run of tied x, count the
    inversions of y across those runs for the discordant pairs, and
    correct concordant counts for ties. Tau-b sees each list only through
    the order and ties of its values, so ranks give the tau of the values
    they rank.
    """
    x, y = np.asarray(x), np.asarray(y)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("kendall_tau needs two equal-length 1-D sequences")
    n = x.size
    if n < 2:
        raise ValueError("kendall_tau needs at least 2 observations")
    (x_ranks, x_counts), (y_ranks, y_counts) = _dense_ranks(x), _dense_ranks(y)

    n0 = n * (n - 1) // 2
    tx, ty = _pairs(x_counts), _pairs(y_counts)
    if tx == n0 or ty == n0:
        raise ValueError("all values tied in one list: tau-b undefined")

    span = y_counts.size
    keys = np.sort(x_ranks * span + y_ranks)  # the pairs by (x, y)
    txy = _pairs(np.diff(_run_starts(keys)))  # joint ties
    # inversions of y after the (x, y) sort; tied-x pairs contribute none
    discordant = _count_inversions(keys // span, keys % span)
    concordant = n0 - tx - ty + txy - discordant
    return float((concordant - discordant) / math.sqrt((n0 - tx) * (n0 - ty)))


def correlation_report(trials: Trials, qmfs: Qmfs):
    """Per class and per QMF: tau between the QMF and the raw score.

    Returns (taus, qmf_names, block) where taus maps (label, qmf_name) ->
    tau and block is the (len(trials.tests), len(qmf_names)) array of the
    QMFs of each test. The QMF names are those of the first trial's test.
    Tau-b sees a QMF only through how it orders and ties the tests, so a
    QMF that ranks them as an earlier one does (lns is log(net_speech))
    takes that one's taus, and kendall_tau runs once per class and
    distinct order. A QMF whose tau is undefined in a class (one trial, or
    one value over all of the class's trials) fails, naming the QMF file,
    and then a class whose trials all have one score, naming the scores file.
    """
    tests, codes = trials.tests, trials.test_codes
    qmf_names = qmfs.names_of(tests[codes[0]]) if len(codes) else []
    block = qmfs.join(tests, qmf_names)
    ranks = [_dense_ranks(column)[0] for column in block.T]
    # the first QMF that ranks the tests as QMF j does: j itself, or an earlier one
    same = [next(i for i in range(j + 1) if np.array_equal(ranks[i], ranks[j])) for j in range(len(ranks))]
    where = f"{qmfs.source}: " if qmfs.source else ""
    taus: dict[tuple[str, str], float] = {}
    for label, mask in ((TARGET, trials.is_target), (NONTARGET, ~trials.is_target)):
        if not mask.any():
            continue
        scores, values = trials.scores[mask], block[codes[mask]]
        class_taus: list[float] = []
        for j, name in enumerate(qmf_names):
            if len(scores) < 2:
                raise ValueError(f"{where}{name} has one {label} trial: Kendall's tau-b needs at least 2")
            if (values[:, j] == values[0, j]).all():
                raise ValueError(f"{where}{name} is the same for every {label} trial: "
                                 f"Kendall's tau-b is undefined")
            if (scores == scores[0]).all():
                raise ValueError(f"{trials.source + ': ' if trials.source else ''}the score is the same "
                                 f"for every {label} trial: Kendall's tau-b is undefined")
            shared = same[j] < j
            class_taus.append(class_taus[same[j]] if shared else kendall_tau(values[:, j], scores))
            taus[(label, name)] = class_taus[j]
    return taus, qmf_names, block


def protocol_stats(qmfs: Qmfs):
    """Mean and population std of net_speech and of CU over the tests that have both."""
    both = qmfs.columns(["net_speech", "cu"])
    both = both[~np.isnan(both).any(axis=1)]
    if not len(both):
        raise ValueError(f"{qmfs.source or 'QMF table'}: no records with both net_speech and cu")
    ns, cu = both[:, 0], both[:, 1]
    return (float(ns.mean()), float(ns.std()), float(cu.mean()), float(cu.std()))
