"""The functions bench/tracer.py wraps must exist, or `bench/run.py --trace 1` breaks.

The tracer is loaded from its file, not run: its SPANNED and TALLIED tables
name (module, attribute) pairs in phonrich, and it rebinds
PresenceVector.from_bitstring as a classmethod.
"""

import importlib
import importlib.util
from pathlib import Path

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
