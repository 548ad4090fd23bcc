"""Command-line surface: g2p, richness, fit-weights, gen-protocol, simulate,
calibrate, evaluate, report-weights, stats."""

from __future__ import annotations

import argparse
import math
import sys
from itertools import pairwise
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import FEATURE_ORDER, cross_validated_calibration, save_model
from .data import DEMO_BLOCK, DEMO_VOCABULARY, RECORDS_PER_SPEAKER, make_demo_inventory
from .inventory import ARPABET_39, PresenceVector
from .io import (Table, iter_jsonl, provenance_line, read_columns, read_qmfs, read_scores, write_jsonl,
                 write_qmfs, write_scatter, write_scores, write_tsv)
from .lexicon import load_lexicon, phoneme_codes, presence_vector, transcribe
from .metrics import Qmfs, compute_eer, compute_min_c_primary, correlation_report, protocol_stats, rows_of
from .protocols import (MANIFEST_KEYS, build_clip_protocol, build_repetitive_protocol, emit_trials,
                        load_inventory_jsonl, load_protocol)
from .richness import (count_unique, fit_weights, load_weights, quality_measures, save_weights,
                       weight_report)
from .simulator import simulate_corpus


def _inputs(args) -> list[str]:
    """The input files given, in the order the subcommand declares them."""
    return [path for path in map(vars(args).get, args.inputs) if path]


def _provenance(args) -> str:
    """The provenance line of the subcommand's outputs: its name, seed and the inputs given."""
    return provenance_line(args.subcommand, getattr(args, "seed", None), _inputs(args))


def cmd_g2p(args) -> None:
    lexicon = load_lexicon(args.lexicon)
    transcripts = read_columns(args.transcripts, {"utterance_id": "string", "transcript": "string"}, "utterance_id")
    codes, lengths, oov_words, words = transcribe(transcripts["transcript"], lexicon)
    presence = presence_vector(codes, lengths, transcripts["utterance_id"])
    symbols = list(map(ARPABET_39.__getitem__, codes.tolist()))
    records = Table({"utterance_id": transcripts["utterance_id"],
                     "phonemes": [symbols[start:end] for start, end in pairwise([0, *np.cumsum(lengths).tolist()])],
                     "bits": presence.to_bitstring(), "cu": count_unique(presence).tolist(),
                     "oov_words": oov_words.tolist()})
    write_jsonl(args.out, records, _provenance(args))
    total_words, total_oov = int(words.sum()), int(oov_words.sum())
    rate = total_oov / total_words if total_words else 0.0
    print(f"g2p: utterances={len(records)} oov_words={total_oov} oov_rate={rate:.4f}")
    if total_oov:
        print(f"warning: {total_oov} out-of-vocabulary words skipped", file=sys.stderr)


def _read_presence(path) -> PresenceVector:
    """A presence JSONL file as one matrix; a bad bitstring or repeated id fails with its file and line."""
    presence = read_columns(path, {"utterance_id": "string", "bits": "string of 39 0s and 1s"}, "utterance_id")
    return PresenceVector.from_bitstring(presence["bits"], presence["utterance_id"])


def cmd_richness(args) -> None:
    presence = _read_presence(args.presence)
    weights = load_weights(args.weights) if args.weights else None
    keys = {key: MANIFEST_KEYS[key] for key in ("test_id", "net_speech")}
    manifest = args.manifest and read_columns(args.manifest, keys, "test_id")
    net_speech = dict(zip(manifest["test_id"], manifest["net_speech"])) if args.manifest else None
    qmfs = quality_measures(presence, weights, net_speech)
    write_qmfs(args.out, qmfs, _provenance(args))
    print(f"richness: wrote {len(qmfs.test_ids)} QMF records to {args.out}")


def cmd_fit_weights(args) -> None:
    presence = _read_presence(args.presence)
    trials = read_scores(args.scores)
    rows = rows_of(trials.tests, presence.utterance_ids)[trials.test_codes]
    kept = trials.is_target & (rows >= 0)
    if not kept.any():
        raise ValueError(f"{args.scores}: no target trial's test has a record in {args.presence}")
    try:
        w = fit_weights(presence.bits[rows[kept]], trials.scores[kept])
    except ValueError as exc:  # such as all-zero presence rows of the joined trials
        raise ValueError(f"{args.presence}: {exc}") from None
    save_weights(w, args.out, _provenance(args))
    print(f"fit-weights: n_train={w.n_train} fit_residual={w.fit_residual:.6g}")


# gen-protocol flags that only one protocol reads, each with that protocol; the other refuses them
PROTOCOL_FLAGS = {"base_trials": "clip", "target": "clip", "probes_per_speaker": "repetitive",
                  "negatives_per_probe": "repetitive"}
PROBES_PER_SPEAKER = 100  # the repetitive protocol's default


def cmd_gen_protocol(args) -> None:
    for flag, protocol in PROTOCOL_FLAGS.items():
        if protocol != args.protocol and getattr(args, flag) is not None:
            raise ValueError(f"--{flag.replace('_', '-')} is for the {protocol} protocol only")
    inventory = load_inventory_jsonl(args.corpus)
    if args.protocol == "repetitive":
        probes = PROBES_PER_SPEAKER if args.probes_per_speaker is None else args.probes_per_speaker
        spec = build_repetitive_protocol(inventory, probes, args.seed, args.negatives_per_probe, args.corpus)
    else:
        if args.target is None:
            raise ValueError("--target is required for the clip protocol")
        spec = build_clip_protocol(inventory, args.target, args.seed, args.base_trials, args.corpus)
    emit_trials(spec, *(f"{args.out_prefix}.{name}" for name in ("trials.tsv", "manifest.jsonl", "models.jsonl")),
                _provenance(args))
    print(f"gen-protocol: {len(spec.positive_trials)} positive, "
          f"{len(spec.negative_trials)} negative trials, {len(spec.tests)} tests")


def cmd_simulate(args) -> None:
    protocol = load_protocol(args.trials, args.manifest, args.models)
    lexicon = load_lexicon(args.lexicon) if args.lexicon else DEMO_VOCABULARY
    try:
        result = simulate_corpus(protocol, lexicon, args.sigma0, args.kappa, args.seed, args.dim)
    except FloatingPointError:  # only the noise can overflow, so the flags are named, not the files
        raise ValueError("an embedding's norm overflows: --sigma0 or --kappa is too large") from None
    prov = _provenance(args)
    write_scores(args.out_scores, result.trials, prov)
    write_qmfs(args.out_qmf, result.qmfs, prov)
    n_speakers = len(set(protocol.models["speaker_id"]))
    print(f"simulate: scored {len(result.trials)} trials over {n_speakers} speakers")


def _parse_feature_set(text: str) -> tuple[str, ...]:
    if text.lower() == "none":
        return ()
    names = tuple(n.strip().lower() for n in text.split(",") if n.strip())
    if unknown := set(names) - set(FEATURE_ORDER):
        raise ValueError(f"unknown features {sorted(unknown)}; pick from {FEATURE_ORDER}")
    return names


def cmd_calibrate(args) -> None:
    feature_set = _parse_feature_set(args.features)
    if not feature_set:
        raise ValueError("calibrate needs a non-empty feature set")
    calibrated, models = cross_validated_calibration(read_scores(args.scores), read_qmfs(args.qmf), feature_set,
                                                     k=args.folds, seed=args.seed)
    prov = _provenance(args)
    write_scores(args.out_scores, calibrated, prov)
    if args.out_models:
        for i, model in enumerate(models):
            save_model(model, f"{args.out_models}.fold{i}.txt", args.seed, prov)
    print(f"calibrate: features={','.join(models[0].feature_names)} folds={args.folds} "
          f"trials={len(calibrated)}")


def cmd_evaluate(args) -> None:
    feature_sets = [_parse_feature_set(f) for f in args.features] or [()]
    if not args.qmf and any(f != "raw" for fs in feature_sets for f in fs):
        raise ValueError("--qmf is required for features beyond raw")
    if not args.qmf and args.correlation_out:
        raise ValueError("--qmf is required for --correlation-out")
    trials = read_scores(args.scores)
    qmfs = read_qmfs(args.qmf) if args.qmf else Qmfs.from_columns([], {})
    rows = []
    for fs in feature_sets:
        scored, name = trials, "none"
        if fs:  # labelled by the features of the fit model: canonical order, each name once
            scored, models = cross_validated_calibration(trials, qmfs, fs, k=args.folds, seed=args.seed)
            name = ",".join(models[0].feature_names)
        try:
            eer, minc = compute_eer(*scored.class_scores()), compute_min_c_primary(*scored.class_scores())
        except ValueError as exc:  # a class with no trials
            raise ValueError(f"{trials.source}: {exc}") from None
        rows.append((name, f"{100 * eer:.2f}", f"{minc:.3f}"))
    # the report can still fail, so it runs before anything is printed or written
    report = correlation_report(trials, qmfs) if args.correlation_out else None
    header = ["features", "eer_percent", "min_c_primary"]
    for row in rows:
        print("\t".join(row))
    if args.out:
        write_tsv(args.out, header, rows, _provenance(args))
    if report is not None:
        taus, qmf_names, block = report
        write_scatter(args.correlation_out, trials, qmf_names, block)
        for (label, name), tau in sorted(taus.items()):
            print(f"tau[{label},{name}] = {tau:.3f}")


def cmd_report_weights(args) -> None:
    weights = load_weights(args.weights)
    if not weights.weights.any():
        raise ValueError(f"{args.weights}: all-zero weight vector: normalization undefined")
    codes = [phoneme_codes(columns["phonemes"]) for _, _, columns in iter_jsonl(
        args.presence, required={"utterance_id": "string", "phonemes": "list of ARPABET-39 symbols"},
        unique="utterance_id")]
    if not codes:
        raise ValueError(f"{args.presence}: no utterances: the report needs a non-empty corpus")
    out_rows = [(sym, f"{w:.6f}", f"{f:.6f}") for sym, w, f in weight_report(weights, np.concatenate(codes))]
    header = ["phoneme", "normalized_weight", "frequency"]
    if args.out:
        write_tsv(args.out, header, out_rows, _provenance(args))
    else:
        print("\t".join(header))
        for row in out_rows:
            print("\t".join(row))


def cmd_stats(args) -> None:
    ns_mean, ns_std, cu_mean, cu_std = protocol_stats(read_qmfs(args.qmf))
    print(f"net_speech: {ns_mean:.1f} ({ns_std:.1f}) s")
    print(f"cu: {cu_mean:.1f} ({cu_std:.1f})")


def cmd_make_demo(args) -> None:
    write_jsonl(args.out, (make_demo_inventory(min(DEMO_BLOCK, args.speakers - first), args.seed, first)
                           for first in range(0, args.speakers, DEMO_BLOCK)), _provenance(args))
    print(f"make-demo: wrote {args.speakers * RECORDS_PER_SPEAKER} utterance records for {args.speakers} speakers")


class ArgumentParser(argparse.ArgumentParser):
    """A parser whose flag faults raise ValueError for main to report, not a usage block and exit 2;
    add_subparsers makes each subcommand's parser of this class too."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = ArgumentParser(prog="phonrich", description="Phonetic-richness measures and score calibration")
    parser.add_argument("--version", action="version", version=f"phonrich {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("g2p", help="transcripts -> phoneme presence vectors")
    p.add_argument("--transcripts", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_g2p, inputs=("transcripts", "lexicon"))

    p = sub.add_parser("richness", help="presence vectors -> CU/WCU/LNS QMF file")
    p.add_argument("--presence", required=True)
    p.add_argument("--weights")
    p.add_argument("--manifest", help="manifest JSONL supplying net_speech")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_richness, inputs=("presence", "weights", "manifest"))

    p = sub.add_parser("fit-weights", help="fit WCU weights from positive-trial scores")
    p.add_argument("--presence", required=True)
    p.add_argument("--scores", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fit_weights, inputs=("presence", "scores"))

    p = sub.add_parser("gen-protocol", help="generate trial lists from an utterance inventory")
    p.add_argument("--corpus", required=True, help="utterance inventory JSONL")
    p.add_argument("--protocol", choices=["repetitive", "clip"], required=True)
    p.add_argument("--probes-per-speaker", type=int, help=f"default {PROBES_PER_SPEAKER}")
    p.add_argument("--negatives-per-probe", type=int, help="default: every matching-gender impostor")
    p.add_argument("--target", type=float, help="clip duration in seconds")
    p.add_argument("--base-trials", help="passthrough trial TSV over base utterance ids")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=cmd_gen_protocol, inputs=("corpus", "base_trials"))

    p = sub.add_parser("simulate", help="score a protocol with synthetic embeddings")
    p.add_argument("--trials", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--models", required=True)
    p.add_argument("--lexicon", help="CMU-style lexicon; defaults to the built-in vocabulary")
    p.add_argument("--sigma0", type=float, default=0.6)
    p.add_argument("--kappa", type=float, default=2.0)
    p.add_argument("--dim", type=int, default=32)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--out-qmf", required=True)
    p.set_defaults(func=cmd_simulate, inputs=("trials", "manifest", "models", "lexicon"))

    p = sub.add_parser("calibrate", help="cross-validated logistic-regression calibration")
    p.add_argument("--scores", required=True)
    p.add_argument("--qmf", required=True)
    p.add_argument("--features", required=True, help="comma-separated subset of raw,lns,cu,wcu")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-scores", required=True)
    p.add_argument("--out-models", help="prefix for per-fold model files")
    p.set_defaults(func=cmd_calibrate, inputs=("scores", "qmf"))

    p = sub.add_parser("evaluate", help="EER / minC_primary per feature set")
    p.add_argument("--scores", required=True)
    p.add_argument("--qmf")
    p.add_argument("--features", action="append", default=[],
                   help="feature set per row: 'none' or comma-separated names; repeatable")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--correlation-out", help="write scatter CSV and print per-class taus")
    p.set_defaults(func=cmd_evaluate, inputs=("scores", "qmf"))

    p = sub.add_parser("report-weights", help="normalized weights vs corpus phoneme frequency")
    p.add_argument("--weights", required=True)
    p.add_argument("--presence", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_report_weights, inputs=("weights", "presence"))

    p = sub.add_parser("stats", help="net-speech and CU mean/std of a protocol")
    p.add_argument("--qmf", required=True)
    p.set_defaults(func=cmd_stats, inputs=("qmf",))

    p = sub.add_parser("make-demo", help="write the built-in demo utterance inventory")
    p.add_argument("--speakers", type=int, default=10)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_make_demo, inputs=())

    return parser


# The domain of every int and float flag, the one place a flag's value is range-checked: an int
# flag must be at least its bound; a float flag must be finite and > or >= its bound.
FLAG_DOMAINS = {"folds": (">=", 1), "speakers": (">=", 1), "probes_per_speaker": (">=", 1),
                "negatives_per_probe": (">=", 0), "seed": (">=", 0), "dim": (">=", 2),
                "sigma0": (">", 0), "kappa": (">=", 0), "target": (">", 0)}


def _check_flag_domains(args) -> None:
    for attr, (op, bound) in FLAG_DOMAINS.items():
        value = getattr(args, attr, None)
        flag = f"--{attr.replace('_', '-')}"
        if isinstance(value, float):
            if not (math.isfinite(value) and (value > bound if op == ">" else value >= bound)):
                raise ValueError(f"{flag} must be a finite number {op} {bound}, got {value:g}")
        elif value is not None and value < bound:
            raise ValueError(f"{flag} must be at least {bound}, got {value}")


def main(argv=None) -> int:
    """Run one subcommand: 0 once it has written its outputs, or 1 and one error line. A float that
    overflows, divides by zero or turns invalid is refused, naming the inputs; one that underflows is 0."""
    try:
        args = build_parser().parse_args(argv)
        for path in _inputs(args):
            if not Path(path).exists():
                raise ValueError(f"input file not found: {path}")
        _check_flag_domains(args)
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                args.func(args)
        except FloatingPointError as exc:
            where = f"{', '.join(_inputs(args))}: " if _inputs(args) else ""
            raise ValueError(f"{where}a value is too large to compute with ({exc})") from None
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
