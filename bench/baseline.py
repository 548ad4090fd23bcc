"""Rerun the ROADMAP baseline table: stage wall times and peak RSS at a given scale.

    python3 bench/baseline.py --speakers 50    # 125k trials
    python3 bench/baseline.py --speakers 100   # 500k trials

Demo corpus, repetitive protocol with 100 probes per speaker and every
matching-gender impostor, ROADMAP seeds (1, 2, 3, 4). Each stage is its
own process, timed as in run.py, with one OpenBLAS thread. Prints one
markdown table row per stage. Outputs go to .bench_work/ and are removed.
"""

import argparse
import contextlib
import os
import shutil
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--speakers", type=int, required=True)
    args = parser.parse_args(argv)
    if not (run.SRC / "phonrich" / "cli.py").is_file():
        print(f"error: no phonrich sources under {run.SRC}", file=sys.stderr)
        return 2
    work = run.ROOT / ".bench_work" / f"baseline-{args.speakers}-p{os.getpid()}"
    work.mkdir(parents=True)
    rep = ["rep.trials.tsv", "rep.manifest.jsonl", "rep.models.jsonl"]
    stages = [
        run.Stage("make-demo", ["make-demo", "--speakers", str(args.speakers), "--seed", "1",
                                "--out", "corpus.jsonl"], [], []),
        run.Stage("gen-protocol", ["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive",
                                   "--probes-per-speaker", "100", "--seed", "2",
                                   "--out-prefix", "rep"], [], []),
        run.Stage("simulate", ["simulate", "--trials", rep[0], "--manifest", rep[1], "--models", rep[2],
                               "--seed", "3", "--out-scores", "scores.tsv", "--out-qmf", "qmf.jsonl"], [], []),
        run.Stage("evaluate none", ["evaluate", "--scores", "scores.tsv", "--features", "none"], [], []),
        run.Stage("evaluate raw,lns,cu", ["evaluate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl",
                                          "--features", "raw,lns,cu", "--folds", "5", "--seed", "4"], [], []),
        run.Stage("evaluate none + correlation", ["evaluate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl",
                                                  "--features", "none", "--correlation-out", "scatter.csv"],
                  [], []),
    ]
    os.environ.update(run.CHILD_ENV)
    try:
        peak = 0.0
        for stage in stages:
            result = run.run_stage(stage, work, None)
            if result.code != 0:
                print(f"error: {stage.name} exited {result.code}", file=sys.stderr)
                return 1
            peak = max(peak, result.rss_mb)
            print(f"| {stage.name} | {result.wall_s:.2f} s | {result.rss_mb:.0f} MB |", flush=True)
        print(f"| peak RSS (largest stage) | | {peak:.0f} MB |")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    return 0


if __name__ == "__main__":
    sys.exit(main())
