"""The benchmark's checkers pass on real pipeline outputs and fail on corrupted ones.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402

SPEAKERS, PROBES, FEATURES = 10, 8, "raw,lns,wcu"


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One small round of the real pipeline, run in process."""
    from phonrich.cli import main

    d = tmp_path_factory.mktemp("round")
    run.write_lexicon(d / "lexicon.txt")
    stdout = {}
    steps = [
        ("make-demo", ["make-demo", "--speakers", str(SPEAKERS), "--seed", "1", "--out", "corpus.jsonl"]),
        ("gen-protocol", ["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive",
                          "--probes-per-speaker", str(PROBES), "--seed", "2", "--out-prefix", "rep"]),
        ("simulate", ["simulate", "--trials", "rep.trials.tsv", "--manifest", "rep.manifest.jsonl",
                      "--models", "rep.models.jsonl", "--seed", "3", "--out-scores", "scores.tsv",
                      "--out-qmf", "sim_qmf.jsonl"]),
        ("g2p", ["g2p", "--transcripts", "transcripts.jsonl", "--lexicon", "lexicon.txt",
                 "--out", "presence.jsonl"]),
        ("fit-weights", ["fit-weights", "--presence", "presence.jsonl", "--scores", "scores.tsv",
                         "--out", "weights.txt"]),
        ("richness", ["richness", "--presence", "presence.jsonl", "--weights", "weights.txt",
                      "--manifest", "rep.manifest.jsonl", "--out", "qmf.jsonl"]),
        ("report-weights", ["report-weights", "--weights", "weights.txt", "--presence",
                            "presence.jsonl", "--out", "report.tsv"]),
        ("stats", ["stats", "--qmf", "qmf.jsonl"]),
        ("evaluate", ["evaluate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl", "--features", "none",
                      "--features", FEATURES, "--seed", "4", "--out", "eval.tsv"]),
        ("calibrate", ["calibrate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl", "--features",
                       FEATURES, "--seed", "4", "--out-scores", "calibrated.tsv", "--out-models", "model"]),
        ("correlation", ["evaluate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl", "--features",
                         "none", "--correlation-out", "scatter.csv"]),
    ]
    cwd = os.getcwd()
    os.chdir(d)
    try:
        for name, argv in steps:
            if name == "g2p":
                run.write_transcripts(d)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                assert main(argv) == 0, name
            stdout[name] = buf.getvalue()
    finally:
        os.chdir(cwd)
    return d, stdout


def _run_check(name, d, stdout):
    f = {p.name: str(p) for p in d.iterdir()}
    lex = f["lexicon.txt"]
    models = [str(d / f"model.fold{i}.txt") for i in range(5)]
    return {
        "gen-protocol": lambda: checks.check_protocol(
            f["corpus.jsonl"], f["rep.trials.tsv"], f["rep.manifest.jsonl"], f["rep.models.jsonl"],
            SPEAKERS, PROBES, None),
        "simulate": lambda: checks.check_simulate(
            f["rep.trials.tsv"], f["rep.manifest.jsonl"], f["scores.tsv"], f["sim_qmf.jsonl"], lex),
        "g2p": lambda: checks.check_g2p(f["transcripts.jsonl"], lex, f["presence.jsonl"]),
        "fit-weights": lambda: checks.check_fit_weights(f["presence.jsonl"], f["scores.tsv"],
                                                        f["weights.txt"]),
        "richness": lambda: checks.check_richness(f["presence.jsonl"], f["weights.txt"],
                                                  f["rep.manifest.jsonl"], f["qmf.jsonl"]),
        "report-weights": lambda: checks.check_report_weights(f["weights.txt"], f["presence.jsonl"],
                                                              f["report.tsv"]),
        "stats": lambda: checks.check_stats(f["qmf.jsonl"], stdout["stats"]),
        "evaluate": lambda: checks.check_evaluate_none(f["scores.tsv"], f["eval.tsv"]),
        "calibrate": lambda: checks.check_calibrate(f["scores.tsv"], f["qmf.jsonl"], f["calibrated.tsv"],
                                                    models, FEATURES, 5, f["eval.tsv"]),
        "correlation": lambda: checks.check_correlation(f["scores.tsv"], f["qmf.jsonl"], f["scatter.csv"],
                                                        stdout["correlation"]),
    }[name]()


CHECKS = ["gen-protocol", "simulate", "g2p", "fit-weights", "richness", "report-weights", "stats",
          "evaluate", "calibrate", "correlation"]


@pytest.mark.parametrize("name", CHECKS)
def test_check_passes_on_real_outputs(outputs, name):
    d, stdout = outputs
    assert _run_check(name, d, stdout) == []


def _lines(path):
    return Path(path).read_text().splitlines()


def _write(path, lines):
    Path(path).write_text("\n".join(lines) + "\n")


def _data_rows(lines):
    """Indices of the data rows (after the provenance and header lines) of a TSV."""
    body = [i for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    return body[1:]


def flip_label(path):
    lines = _lines(path)
    i = _data_rows(lines)[0]
    cells = lines[i].split("\t")
    cells[2] = "nontarget" if cells[2] == "target" else "target"
    lines[i] = "\t".join(cells)
    _write(path, lines)


def drop_row(path):
    lines = _lines(path)
    del lines[_data_rows(lines)[3]]
    _write(path, lines)


def negative_weight(path):
    lines = _lines(path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("AA\t"))
    lines[i] = "AA\t-0.01"
    _write(path, lines)


def nudge_score(path):
    lines = _lines(path)
    i = _data_rows(lines)[5]
    cells = lines[i].split("\t")
    cells[3] = repr(float(cells[3]) + 1e-6)
    lines[i] = "\t".join(cells)
    _write(path, lines)


def nudge_json_field(key, delta):
    def corrupt(path):
        lines = _lines(path)
        i = next(i for i, ln in enumerate(lines) if f'"{key}"' in ln)
        rec = json.loads(lines[i])
        rec[key] = rec[key] + delta if not isinstance(rec[key], str) else rec[key].replace("1", "0", 1)
        lines[i] = json.dumps(rec, sort_keys=True)
        _write(path, lines)
    return corrupt


def nudge_eval_row(path):
    lines = _lines(path)
    i = next(i for i, ln in enumerate(lines) if ln.startswith("none\t"))
    name, eer, minc = lines[i].split("\t")
    lines[i] = f"{name}\t{float(eer) + 0.05:.2f}\t{minc}"
    _write(path, lines)


def _add_to_number(prefix, text, delta):
    """Add ``delta`` to the number printed after the first match of ``prefix``."""
    return re.sub(prefix + r"(-?[\d.]+)", lambda m: m.group(0)[: -len(m.group(1))]
                  + f"{float(m.group(1)) + delta:.3f}", text, count=1, flags=re.M)


def nudge_frequency(path):
    lines = _lines(path)
    i = _data_rows(lines)[0]
    sym, w, freq = lines[i].split("\t")
    lines[i] = f"{sym}\t{w}\t{float(freq) + 0.001:.6f}"
    _write(path, lines)


CORRUPTIONS = [
    # (what, file, corrupt(path) or None, stdout edit or None, check expected to fail)
    ("flipped label in the protocol", "rep.trials.tsv", flip_label, None, "gen-protocol"),
    ("dropped trial in the protocol", "rep.trials.tsv", drop_row, None, "gen-protocol"),
    ("perturbed probe net speech", "rep.manifest.jsonl", nudge_json_field("net_speech", 0.01), None,
     "gen-protocol"),
    ("flipped label in the scores", "scores.tsv", flip_label, None, "simulate"),
    ("dropped trial in the scores", "scores.tsv", drop_row, None, "simulate"),
    ("wrong simulated cu", "sim_qmf.jsonl", nudge_json_field("cu", 1.0), None, "simulate"),
    ("flipped presence bit", "presence.jsonl", nudge_json_field("bits", 0), None, "g2p"),
    ("negative weight", "weights.txt", negative_weight, None, "fit-weights"),
    ("wrong wcu", "qmf.jsonl", nudge_json_field("wcu", 1e-6), None, "richness"),
    ("wrong frequency", "report.tsv", nudge_frequency, None, "report-weights"),
    ("perturbed stats mean", None, None, ("stats", lambda s: _add_to_number(r"^cu: ", s, 0.2)), "stats"),
    ("perturbed EER", "eval.tsv", nudge_eval_row, None, "evaluate"),
    ("flipped label in the scores (EER)", "scores.tsv", flip_label, None, "evaluate"),
    ("perturbed calibrated score", "calibrated.tsv", nudge_score, None, "calibrate"),
    ("dropped calibrated trial", "calibrated.tsv", drop_row, None, "calibrate"),
    ("dropped scatter row", "scatter.csv", lambda p: _write(p, _lines(p)[:-1]), None, "correlation"),
    ("perturbed tau", None, None,
     ("correlation", lambda s: _add_to_number(r"^tau\[target,cu\] = ", s, 0.01)), "correlation"),
]


@pytest.mark.parametrize("what,file,corrupt,edit,check", CORRUPTIONS, ids=[c[0] for c in CORRUPTIONS])
def test_check_fails_on_corrupted_output(outputs, tmp_path, what, file, corrupt, edit, check):
    d, stdout = outputs
    work = tmp_path / "copy"
    shutil.copytree(d, work)
    stdout = dict(stdout)
    if corrupt is not None:
        corrupt(work / file)
    if edit is not None:
        stage, change = edit
        before = stdout[stage]
        stdout[stage] = change(before)
        assert stdout[stage] != before
    assert _run_check(check, work, stdout), f"{check} check accepted: {what}"


def test_sort_based_metrics_match_the_oracles():
    oracles = run.load_oracles()
    rng = np.random.default_rng(0)
    tar = np.round(rng.normal(1.0, 1.0, 200), 1)  # rounding makes ties
    non = np.round(rng.normal(-1.0, 1.0, 500), 1)
    assert checks.check_metric_oracle(oracles, tar, non, rng) == []


def test_metric_oracle_check_fails_on_a_wrong_oracle():
    class Wrong:
        @staticmethod
        def brute_force_eer(tar, non):
            return 0.5

        @staticmethod
        def brute_force_min_c_primary(tar, non):
            return 0.5

    rng = np.random.default_rng(0)
    assert checks.check_metric_oracle(Wrong, rng.normal(1, 1, 50), rng.normal(-1, 1, 80), rng)


def test_layer_self_time_subtracts_children():
    spans = {"ready": 1.5, "spans": [["cli.cmd_evaluate", 2.0, 5.0, -1, 2.5],
                                     ["io.read_scores", 2.0, 4.5, 0, 1.0]],
             "tally": {"simulator.cosine_score": [10, 0.25]},
             "counters": {"io.read_scores.rows": 7}}
    plain = {"evaluate": run.StageRun(3.0, 50.0, 0, "", 100, 20)}
    traced = {"evaluate": run.StageRun(3.5, 51.0, 0, "", 100, 20, spans, 1.0)}
    values = run.layer_values(plain, traced)
    assert values["cli.cmd_evaluate.s"] == pytest.approx(0.5)
    assert values["io.read_scores.s"] == pytest.approx(1.5)
    assert values["simulator.cosine_score.calls"] == 10
    assert values["io.read_scores.rows"] == 7
    assert values["cli.import_s"] == pytest.approx(0.5)
    assert values["evaluate.peak_rss_mb"] == 50.0
    assert values["trace.overhead_s"] == pytest.approx(0.5)


def test_end_to_end_takes_stage_medians_at_the_probe_speed():
    def rounds_of(times):
        return [{stage: run.StageRun(t, 10.0 + i, 0, "", 0, 0) for stage in run.STAGES}
                for i, t in enumerate(times)]

    rounds = rounds_of([3.0, 9.0, 1.0, 2.0])  # one stalled round
    metrics = run.end_to_end(rounds, run.PROBE_NOMINAL_S)
    assert metrics["simulate_s"][0] == pytest.approx(2.5)  # median
    assert metrics["evaluate_s"][0] == pytest.approx(2.0)  # lower median, for the LR stall
    assert metrics["calibrate_s"][0] == pytest.approx(2.0)
    assert metrics["qmf_s"][0] == pytest.approx(5 * 2.5)
    assert metrics["setup_s"][0] == pytest.approx(2 * 2.5)  # median of the set-up sums
    assert metrics["pipeline_s"][0] == pytest.approx(7 * 2.5 + 2 * 2.0)
    assert metrics["peak_rss_mb"][0] == pytest.approx(11.5)
    half_speed = run.end_to_end(rounds, 2 * run.PROBE_NOMINAL_S)
    assert half_speed["simulate_s"][0] == pytest.approx(1.25)
    assert half_speed["setup_s"][0] == pytest.approx(2.5)
    assert half_speed["peak_rss_mb"][0] == pytest.approx(11.5)
    rows = [dict(r, **{"evaluate.raw+cu": r["evaluate"]}) for r in rounds]  # one stage per row
    assert run.end_to_end(rows, run.PROBE_NOMINAL_S)["evaluate_s"][0] == pytest.approx(2 * 2.0)
