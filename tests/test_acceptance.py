"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
status lines.
"""

import time

import numpy as np
import pytest

from phonrich.calibration import cross_validated_calibration, stratified_folds
from phonrich.cli import main as cli_main
from phonrich.data import DEMO_VOCABULARY, demo_lexicon_lines, make_demo_inventory
from phonrich.inventory import ARPABET_39, PresenceVector
from phonrich.io import read_jsonl, write_jsonl
from phonrich.lexicon import PhonemeTranscription, load_lexicon, presence_vector
from phonrich.metrics import compute_eer, compute_min_c_primary, kendall_tau
from phonrich.protocols import build_repetitive_protocol
from phonrich.richness import RichnessWeights, count_unique, fit_weights, weighted_count_unique
from phonrich.simulator import simulate_corpus

from conftest import CMUDICT_LINES, EXPECTED_PRONUNCIATIONS
from oracles import (brute_force_eer, brute_force_min_c_primary, brute_force_tau,
                     random_monotone_transform)

# chi-square critical value, df=8, alpha=0.001
CHI2_CRIT_DF8_P999 = 26.1245

# frozen regression constants from the first verified acceptance run
# (corpus seed 7, protocol seed 11, sim seed 13, dim 80, calibration seed 3)
FROZEN_TAU_CU = 0.339433425324
FROZEN_TAU_LNS = 0.180096795082
FROZEN_EER = {
    (): 0.0041,
    ("raw",): 0.0040,
    ("raw", "cu"): 0.003325,
    ("raw", "lns"): 0.003525,
    ("raw", "lns", "cu"): 0.0033,
}
FROZEN_TOL = 1e-6  # determinism up to BLAS rounding differences


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


@pytest.fixture(scope="module")
def simulator_run():
    """The pinned desk-scale run shared by criteria 5 and 6."""
    t0 = time.time()
    protocol = build_repetitive_protocol(make_demo_inventory(50, seed=7), 200, seed=11,
                                         negatives_per_probe=4)
    result = simulate_corpus(protocol, DEMO_VOCABULARY, sigma0=0.6, kappa=2.0, seed=13, dim=80)
    return result, time.time() - t0


def test_criterion_1_metric_oracle_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.time()
    worst_eer = worst_minc = worst_tau = 0.0
    for i in range(1000):
        n_tar = int(rng.integers(1, 100))
        n_non = int(rng.integers(1, 101 - min(n_tar, 99)))
        # mix of continuous and quantized scores to exercise ties
        if i % 2:
            tar = np.round(rng.standard_normal(n_tar) + 0.4, 1)
            non = np.round(rng.standard_normal(n_non), 1)
        else:
            tar = rng.standard_normal(n_tar) + 0.4
            non = rng.standard_normal(n_non)
        worst_eer = max(worst_eer, abs(compute_eer(tar, non)[0] - brute_force_eer(tar, non)))
        worst_minc = max(worst_minc, abs(compute_min_c_primary(tar, non)
                                         - brute_force_min_c_primary(tar, non)))
        n = int(rng.integers(2, 201))
        x = rng.integers(0, 8, n).astype(float)
        y = rng.integers(0, 8, n).astype(float)
        try:
            tau = kendall_tau(x, y)
        except ValueError:
            continue
        worst_tau = max(worst_tau, abs(tau - brute_force_tau(x, y)))
    elapsed = time.time() - t0
    ok = worst_eer < 1e-10 and worst_minc < 1e-10 and worst_tau < 1e-10 and elapsed < 60
    report(1, ok, f"max |impl - oracle|: eer={worst_eer:.2e} minc={worst_minc:.2e} "
                  f"tau={worst_tau:.2e} in {elapsed:.1f}s")


def test_criterion_2_eer_monotone_invariance():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for _ in range(100):
        n_tar = int(rng.integers(2, 80))
        n_non = int(rng.integers(2, 80))
        tar = rng.standard_normal(n_tar) + rng.uniform(0, 1.5)
        non = rng.standard_normal(n_non)
        ref, _ = compute_eer(tar, non)
        for _ in range(100):
            f = random_monotone_transform(rng)
            got, _ = compute_eer(f(tar), f(non))
            worst = max(worst, abs(got - ref))
    report(2, worst < 1e-12, f"max EER change under monotone transforms = {worst:.2e}")


def test_criterion_3_nnls_recovery():
    rng = np.random.default_rng(1003)
    worst = 0.0
    for _ in range(100):
        w_true = np.abs(rng.standard_normal(39)) * rng.uniform(0.5, 3.0)
        design = (rng.random((120, 39)) < rng.uniform(0.2, 0.6)).astype(np.int8)
        design[:39] |= np.eye(39, dtype=np.int8)  # full column rank, noiseless
        w = fit_weights(design, [float(row.astype(float) @ w_true) for row in design])
        worst = max(worst, float(np.max(np.abs(w.weights - w_true))))
    zero_design = np.array([(rng.random(39) < 0.4).astype(np.int8) for _ in range(30)])
    w0 = fit_weights(zero_design, np.zeros(30))
    zero_ok = bool(np.all(w0.weights == 0.0))
    report(3, worst < 1e-6 and zero_ok,
           f"max componentwise recovery error = {worst:.2e}, zero-score fit is zero: {zero_ok}")


def test_criterion_4_wcu_reduces_to_cu():
    rng = np.random.default_rng(1004)
    ones = RichnessWeights(np.ones(39))
    rows = [(rng.random(39) < rng.uniform(0, 1)).astype(np.int8) for _ in range(10_000)]
    p = PresenceVector(np.array(rows), [""] * len(rows))
    bad = int(np.sum(weighted_count_unique(p, ones) != count_unique(p)))
    report(4, bad == 0, f"mismatches over 10,000 random presence vectors = {bad}")


def test_criterion_5_simulator_correlation_direction(simulator_run):
    result, setup_time = simulator_run
    t0 = time.time()
    trials = result.trials
    pos = [trials.tests[code] for code in trials.test_codes[trials.is_target].tolist()]
    cu, lns = result.qmfs.join(pos, ["cu", "lns"]).T.tolist()
    scores = trials.scores[trials.is_target].tolist()
    tau_cu = kendall_tau(cu, scores)
    tau_lns = kendall_tau(lns, scores)
    elapsed = setup_time + time.time() - t0
    ok = (tau_cu > 0.3 and tau_cu > tau_lns and elapsed < 120
          and abs(tau_cu - FROZEN_TAU_CU) < FROZEN_TOL
          and abs(tau_lns - FROZEN_TAU_LNS) < FROZEN_TOL)
    report(5, ok, f"tau(CU)={tau_cu:.4f} > 0.3 and > tau(LNS)={tau_lns:.4f}, "
                  f"{elapsed:.1f}s, matches frozen constants")


def test_criterion_6_calibration_benefit_direction(simulator_run):
    result, _ = simulator_run
    eer = {}
    for fs in [(), ("raw",), ("raw", "cu"), ("raw", "lns"), ("raw", "lns", "cu")]:
        scored = result.trials if not fs else \
            cross_validated_calibration(result.trials, result.qmfs, fs, k=5, seed=3)[0]
        eer[fs] = compute_eer(*scored.class_scores())[0]
    directions = (
        eer[("raw", "cu")] < eer[("raw",)]
        and eer[("raw",)] <= eer[()] + 0.001
        and eer[("raw", "lns", "cu")] <= eer[("raw", "lns")]
    )
    frozen = all(abs(eer[fs] - FROZEN_EER[fs]) < FROZEN_TOL for fs in FROZEN_EER)
    detail = " ".join(f"{','.join(fs) or 'none'}={100 * v:.3f}%" for fs, v in eer.items())
    report(6, directions and frozen, detail)


def test_criterion_7_repetitive_protocol_statistics():
    protocol = build_repetitive_protocol(make_demo_inventory(5, seed=21), 2000, seed=22,
                                         negatives_per_probe=0)
    assert len(protocol.tests) == 10_000
    totals = np.array([len(t.transcript.split()) for t in protocol.tests])
    uniques = np.array([len(set(t.transcript.split())) for t in protocol.tests])
    mean_repeats = float((totals - uniques).mean())
    counts = np.bincount(totals, minlength=11)[2:11]
    expected = len(totals) / 9
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    ok = abs(mean_repeats - 2.5) <= 0.3 and chi2 < CHI2_CRIT_DF8_P999
    report(7, ok, f"mean repeated words = {mean_repeats:.3f} (want 2.5 +/- 0.3), "
                  f"chi2(T uniform) = {chi2:.2f} < {CHI2_CRIT_DF8_P999}")


def test_criterion_8_determinism(tmp_path):
    outputs = []
    for d in ("run1", "run2"):
        work = tmp_path / d
        work.mkdir()
        corpus = work / "corpus.jsonl"
        cli_main(["make-demo", "--speakers", "4", "--seed", "31", "--out", str(corpus)])
        prefix = work / "rep"
        cli_main(["gen-protocol", "--corpus", str(corpus), "--protocol", "repetitive",
                  "--probes-per-speaker", "25", "--seed", "32", "--out-prefix", str(prefix)])
        scores = work / "scores.tsv"
        qmf = work / "qmf.jsonl"
        cli_main(["simulate", "--trials", f"{prefix}.trials.tsv",
                  "--manifest", f"{prefix}.manifest.jsonl",
                  "--models", f"{prefix}.models.jsonl", "--seed", "33",
                  "--out-scores", str(scores), "--out-qmf", str(qmf)])
        cal = work / "cal.tsv"
        cli_main(["calibrate", "--scores", str(scores), "--qmf", str(qmf),
                  "--features", "raw,cu", "--folds", "5", "--seed", "34",
                  "--out-scores", str(cal), "--out-models", str(work / "model")])
        evaluated = work / "eval.tsv"
        scatter = work / "scatter.csv"
        cli_main(["evaluate", "--scores", str(scores), "--qmf", str(qmf), "--features", "none",
                  "--features", "raw,cu", "--folds", "5", "--seed", "34", "--out", str(evaluated),
                  "--correlation-out", str(scatter)])
        transcripts = work / "transcripts.jsonl"
        write_jsonl(transcripts, [{"utterance_id": m["test_id"], "transcript": m["transcript"]}
                                  for m in read_jsonl(f"{prefix}.manifest.jsonl")])
        lexicon = work / "lexicon.txt"
        lexicon.write_text(demo_lexicon_lines())
        presence, weights = work / "presence.jsonl", work / "weights.txt"
        rich, report_tsv = work / "rich.jsonl", work / "report.tsv"
        cli_main(["g2p", "--transcripts", str(transcripts), "--lexicon", str(lexicon),
                  "--out", str(presence)])
        cli_main(["fit-weights", "--presence", str(presence), "--scores", str(scores),
                  "--out", str(weights)])
        cli_main(["richness", "--presence", str(presence), "--weights", str(weights),
                  "--manifest", f"{prefix}.manifest.jsonl", "--out", str(rich)])
        cli_main(["report-weights", "--weights", str(weights), "--presence", str(presence),
                  "--out", str(report_tsv)])
        models = [work / f"model.fold{i}.txt" for i in range(5)]
        outputs.append([p.read_bytes() for p in
                        (corpus, work / "rep.trials.tsv", work / "rep.manifest.jsonl",
                         work / "rep.models.jsonl", scores, qmf, cal, evaluated, scatter, *models,
                         presence, weights, rich, report_tsv)])
    byte_identical = outputs[0] == outputs[1]

    labels = ["target"] * 37 + ["nontarget"] * 148
    folds = stratified_folds(np.array(labels) == "target", 5, seed=35)
    strat_ok = True
    for label in ("target", "nontarget"):
        sizes = [sum(1 for i, lab in enumerate(labels) if lab == label and folds[i] == f)
                 for f in range(5)]
        strat_ok &= max(sizes) - min(sizes) <= 1
    report(8, byte_identical and strat_ok,
           f"byte-identical reruns: {byte_identical}, fold counts within 1: {strat_ok}")


def test_criterion_9_g2p_correctness(tmp_path):
    lexfile = tmp_path / "cmudict.txt"
    lexfile.write_text(CMUDICT_LINES)
    lex = load_lexicon(lexfile)
    mismatches = [w for w, pron in EXPECTED_PRONUNCIATIONS.items()
                  if lex.get(w) != pron]
    words_ok = len(mismatches) == 0 and len(EXPECTED_PRONUNCIATIONS) == 20

    rng = np.random.default_rng(1009)
    symbols = np.array(ARPABET_39)
    seqs = []
    for _ in range(10_000):
        na, nb = int(rng.integers(0, 25)), int(rng.integers(0, 25))
        seqs.append((tuple(symbols[rng.integers(0, 39, na)]), tuple(symbols[rng.integers(0, 39, nb)])))

    def presence(name, phonemes):
        return presence_vector([PhonemeTranscription(name, p) for p in phonemes]).bits

    pa = presence("a", [a for a, _ in seqs])
    pb = presence("b", [b for _, b in seqs])
    pab = presence("ab", [a + b for a, b in seqs])
    paa = presence("aa", [a + a for a, _ in seqs])
    prop_ok = np.array_equal(pab, pa | pb) and np.array_equal(paa, pa)
    report(9, words_ok and prop_ok,
           f"20 dictionary words verified: {words_ok} (mismatches={mismatches}), "
           f"OR/idempotence on 10,000 sequences: {prop_ok}")
