"""The functions bench/tracer.py wraps must exist, and its counters must read what they return,
or `bench/run.py --trace 1` breaks.

The tracer is loaded from its file, not run: its SPANNED and TALLIED tables
name (module, attribute) pairs in phonrich, some SPANNED entries carry a
counter of the call's result and arguments, and it rebinds
PresenceVector.from_bitstring as a classmethod.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("phonrich_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(tracer):
    targets = [(mod, attr) for mod, attr, _ in tracer.SPANNED] + list(tracer.TALLIED)
    missing = [f"{mod}.{attr}" for mod, attr in targets
               if not callable(getattr(importlib.import_module(f"phonrich.{mod}"), attr, None))]
    assert missing == []


def test_from_bitstring_is_a_classmethod():
    from phonrich import inventory
    assert isinstance(inventory.PresenceVector.__dict__["from_bitstring"], classmethod)


def read_scores_case(tmp_path):
    path = tmp_path / "scores.tsv"
    path.write_text("model_id\ttest_id\tlabel\traw_score\na\tt1\ttarget\t0.5\nb\tt1\tnontarget\t-0.5\n")
    return (path,), {"io.read_scores.rows": 2}


def repetitive_protocol_case(tmp_path):
    from phonrich.data import make_demo_inventory
    from phonrich.protocols import Corpus
    inventory = make_demo_inventory(4, seed=3)
    gender = dict(zip(inventory["speaker_id"], inventory["gender"]))
    impostors = sum(g == other for spk, g in gender.items() for o, other in gender.items() if o != spk)
    args = (Corpus.from_tables([inventory]), 2, 5)
    return args, {"protocols.tests": 2 * len(gender), "protocols.trials": 2 * (len(gender) + impostors)}


def nnls_case(tmp_path):
    return (np.eye(3), np.ones(3)), {"nnls.nnls.rows": 3}


def fit_lr_case(tmp_path):
    features = np.array([[-2.0], [-1.0], [0.5], [-0.5], [1.0], [2.0]])
    is_target = np.array([False, False, False, True, True, True])
    return (features, is_target, ("raw",)), {"calibration.fit_lr.calls": 1,
                                             "calibration.fit_lr.unconverged": 0}


def kendall_tau_case(tmp_path):
    return (np.array([1.0, 2.0, 3.0]), np.array([1.0, 3.0, 2.0])), {"metrics.kendall_tau.calls": 1,
                                                                     "metrics.kendall_tau.n": 3}


# counted function -> (its arguments on a tiny input, the counters those should give)
COUNTED_CASES = {
    "io.read_scores": read_scores_case,
    "protocols.build_repetitive_protocol": repetitive_protocol_case,
    "nnls.nnls": nnls_case,
    "calibration.fit_lr": fit_lr_case,
    "metrics.kendall_tau": kendall_tau_case,
}


def test_every_counter_has_a_case(tracer):
    assert sorted(f"{mod}.{attr}" for mod, attr, counter in tracer.SPANNED if counter) == sorted(COUNTED_CASES)


@pytest.mark.parametrize("name", sorted(COUNTED_CASES))
def test_counter_reads_its_result(tracer, tmp_path, name):
    """Each counter of SPANNED applied to a real call of the function it wraps."""
    counter = next(c for mod, attr, c in tracer.SPANNED if f"{mod}.{attr}" == name)
    mod, attr = name.split(".")
    args, expected = COUNTED_CASES[name](tmp_path)
    result = getattr(importlib.import_module(f"phonrich.{mod}"), attr)(*args)
    assert counter(result, args) == expected
