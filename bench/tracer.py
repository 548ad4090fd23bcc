"""Run one phonrich CLI stage in this process with its layers traced.

Usage: python3 bench/tracer.py SPANS_JSON -- <phonrich subcommand and flags>

The public functions of each module are wrapped from outside, in every
namespace that holds them (``cli`` imports names directly, so
``phonrich.cli.read_scores`` is patched as well as ``phonrich.io.read_scores``).
A span records its name, start, end and parent; functions called once per
trial or per test are tallied into a call count and a total instead. The
spans are kept in memory and written to SPANS_JSON when the stage ends,
together with the moment the interpreter had finished importing the CLI.
"""

import sys
import time

import phonrich.cli  # noqa: E402  (import time is part of what is measured)

READY = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402

# (module, attribute, counter) wrapped as spans; counter(result, args) -> {name: value}
SPANNED = [
    ("cli", name, None) for name in (
        "cmd_g2p", "cmd_richness", "cmd_fit_weights", "cmd_gen_protocol", "cmd_simulate",
        "cmd_calibrate", "cmd_evaluate", "cmd_report_weights", "cmd_stats", "cmd_make_demo")
] + [
    ("io", "provenance_line", None),
    ("io", "write_tsv", None),
    ("io", "read_tsv", None),
    ("io", "write_jsonl", None),
    ("io", "read_jsonl", None),
    ("io", "write_scores", None),
    ("io", "read_scores", lambda r, a: {"io.read_scores.rows": len(r)}),
    ("io", "read_qmfs", None),
    ("data", "make_demo_inventory", None),
    ("protocols", "build_repetitive_protocol",
     lambda r, a: {"protocols.tests": len(r.tests),
                   "protocols.trials": len(r.positive_trials) + len(r.negative_trials)}),
    ("protocols", "load_inventory_jsonl", None),
    ("protocols", "emit_trials", None),
    ("protocols", "load_protocol", None),
    ("simulator", "simulate_corpus", None),
    ("lexicon", "load_lexicon", None),
    ("richness", "fit_weights", None),
    ("richness", "weight_report", None),
    ("nnls", "nnls", lambda r, a: {"nnls.nnls.rows": len(a[0])}),
    ("calibration", "build_features", None),
    ("calibration", "stratified_folds", None),
    ("calibration", "apply_lr", None),
    ("calibration", "cross_validated_calibration", None),
    ("calibration", "fit_lr", lambda r, a: {"calibration.fit_lr.calls": 1,
                                            "calibration.fit_lr.unconverged": int(not r.converged)}),
    ("metrics", "compute_eer", None),
    ("metrics", "compute_min_c_primary", None),
    ("metrics", "kendall_tau", lambda r, a: {"metrics.kendall_tau.calls": 1,
                                             "metrics.kendall_tau.n": len(a[0])}),
    ("metrics", "correlation_report", None),
]

# called once per trial or per test: tallied, not recorded one span each
TALLIED = [
    ("simulator", "cosine_score"),
    ("lexicon", "transcribe"),
    ("lexicon", "presence_vector"),
]


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, child_seconds]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.tally = {}
        self.counters = {}

    def span(self, name, fn, counter=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            record = [name, time.perf_counter(), None, parent, 0.0]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                record[2] = time.perf_counter()
                if parent >= 0:
                    self.spans[parent][4] += record[2] - record[1]
            if counter is not None:
                for key, value in counter(result, args).items():
                    self.counters[key] = self.counters.get(key, 0) + value
            return result
        return wrapper

    def tallied(self, name, fn):
        entry = self.tally.setdefault(name, [0, 0.0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                entry[0] += 1
                entry[1] += elapsed
                if self.stack:
                    self.spans[self.stack[-1]][4] += elapsed
        return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind ``original`` to ``wrapper`` in every loaded phonrich module."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "phonrich" or mod_name.startswith("phonrich.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    modules = {name: sys.modules[f"phonrich.{name}"]
               for name in ("cli", "io", "data", "protocols", "simulator", "lexicon",
                            "richness", "nnls", "calibration", "metrics", "inventory")}
    for mod, attr, counter in SPANNED:
        original = getattr(modules[mod], attr)
        _replace_everywhere(original, tracer.span(f"{mod}.{attr}", original, counter))
    for mod, attr in TALLIED:
        original = getattr(modules[mod], attr)
        _replace_everywhere(original, tracer.tallied(f"{mod}.{attr}", original))
    presence_cls = modules["inventory"].PresenceVector
    from_bitstring = presence_cls.__dict__["from_bitstring"].__func__
    presence_cls.from_bitstring = classmethod(
        tracer.tallied("inventory.PresenceVector.from_bitstring", from_bitstring))


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS_JSON -- <phonrich args>", file=sys.stderr)
        return 2
    spans_path, cli_args = argv[0], argv[2:]
    tracer = Tracer()
    install(tracer)
    code = phonrich.cli.main(cli_args)
    with open(spans_path, "w") as f:
        json.dump({"ready": READY, "exit": code, "spans": tracer.spans,
                   "tally": tracer.tally, "counters": tracer.counters}, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
