"""Every name a phonrich module imports is used in that module (``__init__`` re-exports aside),
no module splits text into lines on its own, only io opens files and imports json, in io only
line_blocks reads text, no module calls np.unique, a fault leaves the
program only through cli.main, no in-memory class checks what it is built from, only metrics
derives lns, only cli.main sets numpy's floating-point policy, only simulator.substreams opens a
numpy Generator, protocols and data add only left to right, and a command that draws no
normals or writes no provenance line leaves numpy.random or OpenSSL's hashlib unloaded."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from phonrich.cli import main

SRC = Path(__file__).resolve().parent.parent / "src" / "phonrich"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items()) if name not in used]


def test_finds_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport numpy as np\n\n@dataclass\nclass A:\n    x: int\n"
    assert unused_imports(source) == ["line 1: field", "line 2: np"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text()) == []


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_splitlines(module):
    """str.splitlines() also breaks at U+2028, \\x0b, \\x0c and more; io.line_blocks holds the one line rule."""
    assert "splitlines" not in module.read_text()


def is_open(node) -> bool:
    """Whether ``node`` calls ``open`` by name or as an attribute (``io.open``, ``Path.open``)."""
    return isinstance(node, ast.Call) and "open" in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None))


def open_calls(source: str) -> list[int]:
    """Lines that call ``open``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if is_open(node))


def text_reads(source: str) -> list[str]:
    """The top-level function of each ``open`` call that may read text: one whose mode, its
    second argument or ``mode=``, is not "rb" and does not write ("w", "a" or "x")."""
    reads = []
    for top in ast.parse(source).body:
        for node in filter(is_open, ast.walk(top)):
            mode = next((kw.value for kw in node.keywords if kw.arg == "mode"),
                        node.args[1] if len(node.args) > 1 else None)
            mode = mode.value if isinstance(mode, ast.Constant) else "r"
            if mode != "rb" and not set(mode) & set("wax"):
                reads.append(getattr(top, "name", "<module>"))
    return reads


def test_finds_a_call_to_open():
    assert open_calls("with open(p) as f:\n    pass\nPath(p).open()\nreopen(p)\n") == [1, 3]


def test_finds_a_text_read():
    source = ("def a(p):\n    return open(p, 'rb'), open(p, mode='w'), open(p, 'ab')\n"
              "def b(p):\n    return open(p, encoding='utf-8')\n"
              "def c(p, m):\n    return open(p, 'r+'), open(p, m)\n"
              "f = open('x', 'rt')\n")
    assert text_reads(source) == ["b", "c", "c", "<module>"]


def test_only_line_blocks_reads_text():
    """io.line_blocks holds the line rule, the UTF-8 check and the dropped byte order mark
    of every text input, so every other open in io writes or reads bytes."""
    assert text_reads((SRC / "io.py").read_text()) == ["line_blocks"]


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "io.py"],
                         ids=[p.name for p in MODULES if p.name != "io.py"])
def test_only_io_opens_files(module):
    """io reads every input, so each goes through its one line rule and its UTF-8 check."""
    assert open_calls(module.read_text()) == []


def json_imports(source: str) -> list[int]:
    """Lines that import the json module, a submodule of it or a name from either."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if (isinstance(node, ast.Import) and any(alias.name.split(".")[0] == "json" for alias in node.names))
                  or (isinstance(node, ast.ImportFrom) and node.level == 0
                      and (node.module or "").split(".")[0] == "json"))


def test_finds_a_json_import():
    source = ("import json\nimport json.decoder as d\nfrom json import dumps\nfrom json.encoder import x\n"
              "import jsonschema\nfrom .io import json_texts\nfrom . import json\n")
    assert json_imports(source) == [1, 2, 3, 4]


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "io.py"],
                         ids=[p.name for p in MODULES if p.name != "io.py"])
def test_only_io_imports_json(module):
    """io.write_jsonl, which encodes a table a column at a time, is the one JSON writer and
    io.iter_jsonl the one reader: a module that imported json could encode or decode records apart."""
    assert json_imports(module.read_text()) == []


def test_io_imports_json():
    """The guard above looks at something: io's own import is where it lets it be."""
    assert json_imports((SRC / "io.py").read_text()) != []


def unique_calls(source: str) -> list[int]:
    """Lines that call ``unique`` on ``np`` or ``numpy``."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "unique" and getattr(node.func.value, "id", None) in ("np", "numpy"))


def test_finds_a_call_to_unique():
    source = "import numpy as np\nnp.unique(a)\nnumpy.unique(b, return_counts=True)\nunique(c)\nx.unique()\n"
    assert unique_calls(source) == [2, 3]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_np_unique(module):
    """numpy's unique imports numpy.ma on its first call, about 15 ms of a command's start; the
    metrics sort and compare instead."""
    assert unique_calls(module.read_text()) == []


FAULTS = ("ValueError",)


def fault_exits(source: str) -> list[str]:
    """Each way a fault can leave ``source`` other than as a ValueError that cli.main prints: a
    string starting "error:" in a top-level function other than main, a ``return`` of a value
    in a cmd_* function, and a ``raise`` of an exception other than FAULTS (a bare ``raise``
    passes on what it caught)."""
    found = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (name != "main" and isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and node.value.startswith("error:")):
                found.append((node.lineno, f"{name} prints an error line"))
            elif name.startswith("cmd_") and isinstance(node, ast.Return) and node.value is not None:
                found.append((node.lineno, f"{name} returns a value"))
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised = getattr(exc, "id", None) or getattr(exc, "attr", None)
                if raised not in FAULTS:
                    found.append((node.lineno, f"raises {raised}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_finds_a_fault_exit():
    source = ("def cmd_a(args):\n    print('error: x')\n    return 1\n"
              "def cmd_b(args):\n    if args:\n        return\n    raise ValueError('x')\n"
              "def helper():\n    raise RuntimeError('x')\n"
              "def c():\n    raise make_error()\n"
              "def d():\n    try:\n        pass\n    except OSError:\n        raise\n"
              "def main():\n    print(f'error: {1}')\n    raise ValueError('x')\n")
    assert fault_exits(source) == ["line 2: cmd_a prints an error line", "line 3: cmd_a returns a value",
                                   "line 9: raises RuntimeError", "line 11: raises make_error"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_faults_leave_only_through_cli_main(module):
    """cli.main prints the one error line and returns the exit code, and every fault reaches it as
    a ValueError: a second print or exit code, or another exception, would be a second way out."""
    assert fault_exits(module.read_text()) == []


def test_cli_main_prints_the_error_line():
    """The guard above looks at something: main's own error line is where it lets it be."""
    tree = ast.parse((SRC / "cli.py").read_text())
    main = next(node for node in tree.body if getattr(node, "name", None) == "main")
    assert [node.value for node in ast.walk(main)
            if isinstance(node, ast.Constant) and str(node.value).startswith("error:")] == ["error: "]


def checking_constructors(source: str) -> list[str]:
    """Each ``__post_init__`` that holds a ``raise``, as "line N: Class"."""
    return [f"line {node.lineno}: {cls.name}" for cls in ast.walk(ast.parse(source))
            if isinstance(cls, ast.ClassDef) for node in cls.body
            if getattr(node, "name", None) == "__post_init__"
            and any(isinstance(inner, ast.Raise) for inner in ast.walk(node))]


def test_finds_a_checking_constructor():
    source = ("class A:\n    def __post_init__(self):\n        self.x = list(self.x)\n"
              "class B:\n    def __post_init__(self):\n        if self.x < 0:\n            raise ValueError('x')\n"
              "class C:\n    def check(self):\n        raise ValueError('x')\n")
    assert checking_constructors(source) == ["line 5: B"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_checking_constructors(module):
    """Each invariant is checked once, where data enters: by a file reader, a flag check or the LR
    overflow refusal. A class built in memory holds what its producer built and checks nothing."""
    assert checking_constructors(module.read_text()) == []


def lns_uses(source: str) -> list[str]:
    """Each use of ``math.log`` or ``log_net_speech``, called or passed on (as to ``map``), and each
    import of either, as "line N: name"."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, alias.name) for alias in node.names if alias.name == "log_net_speech"
                      or (node.module == "math" and alias.name == "log")]
        elif isinstance(node, ast.Name) and node.id == "log_net_speech":
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and (node.attr == "log_net_speech" or (
                node.attr == "log" and getattr(node.value, "id", None) == "math")):
            found.append((node.lineno, node.attr))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_finds_an_lns_use():
    source = ("import math\nfrom math import log\nfrom .metrics import log_net_speech as lns\n"
              "a = math.log(x)\nb = list(map(log_net_speech, xs))\nc = metrics.log_net_speech(x)\n"
              "d = np.log(x) + math.log10(x) + catalog(x)\n")
    assert lns_uses(source) == ["line 2: log", "line 3: log_net_speech", "line 4: log",
                                "line 5: log_net_speech", "line 6: log_net_speech"]


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "metrics.py"],
                         ids=[p.name for p in MODULES if p.name != "metrics.py"])
def test_only_metrics_derives_lns(module):
    """lns is log(max(net_speech, 0.01)), derived by metrics.log_net_speech through Qmfs.with_lns
    alone, so richness, simulate, calibrate and evaluate cannot disagree on a value of it."""
    assert lns_uses(module.read_text()) == []


def test_metrics_derives_lns():
    """The guard above looks at something: metrics' own derivation is where it lets it be."""
    assert lns_uses((SRC / "metrics.py").read_text()) != []


def float_policy_calls(source: str) -> list[str]:
    """Each call of ``errstate`` or ``seterr``, by name or as an attribute (``np.errstate``), as
    "line N: F", F being the top-level function that holds it."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and {getattr(node.func, "id", None),
                                               getattr(node.func, "attr", None)} & {"errstate", "seterr"}:
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_finds_a_float_policy_call():
    source = ("import numpy as np\nfrom numpy import errstate\nnp.seterr(all='ignore')\n"
              "def f(x):\n    with np.errstate(over='ignore'):\n        return x * 2\n"
              "def g(x):\n    with errstate(divide='raise'), state(x):\n        return np.geterr()\n")
    assert float_policy_calls(source) == ["line 3: <module>", "line 5: f", "line 8: g"]


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_only_cli_main_sets_the_float_policy(module):
    """cli.main runs every command under one policy: a float that overflows, divides by zero or
    turns invalid is refused. A module that set its own would decide that a second time."""
    calls = float_policy_calls(module.read_text())
    assert [call for call in calls if not (module.name == "cli.py" and call.endswith(": main"))] == []


def test_cli_main_sets_the_float_policy():
    """The guard above looks at something: main's own policy is where it lets it be."""
    calls = float_policy_calls((SRC / "cli.py").read_text())
    assert len(calls) == 1 and calls[0].endswith(": main")


def rng_calls(source: str) -> list[str]:
    """Each call of ``default_rng``, by name or as an attribute (``np.random.default_rng``), as "line N: T",
    T being the top-level class or function that holds it."""
    found = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "default_rng" in (getattr(node.func, "id", None),
                                                                getattr(node.func, "attr", None)):
                found.append((node.lineno, getattr(top, "name", "<module>")))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_finds_an_rng_call():
    source = ("import numpy as np\nfrom numpy.random import default_rng\nrng = np.random.default_rng(0)\n"
              "class D:\n    def __init__(self, seed):\n        self.rng = default_rng(seed)\n"
              "def f(rng):\n    return rng.integers(3), np.random.Generator\n")
    assert rng_calls(source) == ["line 3: <module>", "line 6: D"]


def test_only_substreams_opens_a_generator():
    """pcg64 works default_rng(seed)'s PCG64 words out without numpy.random, and protocols.Draws, which both
    protocol builders and calibration.stratified_folds draw through, reads them: a Generator opened beside it
    would draw a second way, and would import numpy.random into gen-protocol, evaluate and calibrate. The
    one call, in simulator.substreams, gives simulate its normals and make-demo its uniforms."""
    assert [f"{path.stem}.{call.split(': ')[1]}" for path in MODULES
            for call in rng_calls(path.read_text())] == ["simulator.substreams"]


def reordered_sums(source: str) -> list[str]:
    """Each call of a sum that may not add left to right, as "line N: name": ``sum`` or ``cumsum`` by name or as an
    attribute (``np.sum``, ``x.cumsum()``; Python's own sum compensates since 3.12), or ``reduce`` or
    ``accumulate`` on ``add`` (``np.add.reduce``)."""
    found = []
    for node in ast.walk(ast.parse(source)):
        func = getattr(node, "func", None)
        name = getattr(func, "attr", getattr(func, "id", None))
        on = getattr(func, "value", None)  # what an attribute is taken of
        if isinstance(node, ast.Call) and (name in ("sum", "cumsum") or name in ("reduce", "accumulate")
                                           and getattr(on, "attr", getattr(on, "id", None)) == "add"):
            found.append((node.lineno, name))
    return [f"line {line}: {name}" for line, name in sorted(found)]


def test_finds_a_reordered_sum():
    source = ("import numpy as np\nfrom numpy import add\na = np.cumsum(x[::-1])\nb = x.sum() + numpy.sum(y)\n"
              "c = np.add.reduce(x), add.accumulate(y)\nd = sum(x) + left_sum(x) + reduce(add, x, 0) + f.add(x)\n")
    assert reordered_sums(source) == ["line 3: cumsum", "line 4: sum", "line 4: sum", "line 5: accumulate",
                                      "line 5: reduce", "line 6: sum"]


@pytest.mark.parametrize("name", ["protocols.py", "data.py"])
def test_durations_are_added_left_to_right(name):
    """A net speech or a clip's running sum is added left to right (protocols.left_sum, or one loop),
    so the same words always give the same bits: numpy's sums add in pairs or from another end, and
    two orders of one sum can differ in the last bit."""
    assert reordered_sums((SRC / name).read_text()) == []


# runs phonrich.cli.main on its arguments, then prints those of LAZY that the process has loaded
LAZY = ("numpy.random", "_hashlib")
PROBE = ("import sys\nfrom phonrich.cli import main\ncode = main(sys.argv[1:])\n"
         f"print(*(name for name in {LAZY!r} if name in sys.modules))\nsys.exit(code)")


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """A small demo corpus, its repetitive protocol, and simulate's scores and QMFs."""
    work = tmp_path_factory.mktemp("pipeline")
    steps = [["make-demo", "--speakers", "4", "--seed", "1", "--out", work / "corpus.jsonl"],
             ["gen-protocol", "--corpus", work / "corpus.jsonl", "--protocol", "repetitive",
              "--probes-per-speaker", "10", "--seed", "2", "--out-prefix", work / "rep"],
             ["simulate", "--trials", work / "rep.trials.tsv", "--manifest", work / "rep.manifest.jsonl",
              "--models", work / "rep.models.jsonl", "--seed", "3", "--out-scores", work / "scores.tsv",
              "--out-qmf", work / "qmf.jsonl"]]
    for argv in steps:
        assert main([str(arg) for arg in argv]) == 0
    return work


# each command, with what it loads of LAZY: only simulate and make-demo draw through numpy.random, and only a
# command that writes a provenance line hashes its inputs
LOADS = {
    "stats": (["stats", "--qmf", "qmf.jsonl"], ""),
    "correlation": (["evaluate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl", "--features", "none",
                     "--correlation-out", "scatter.csv"], ""),
    "evaluate-raw": (["evaluate", "--scores", "scores.tsv", "--features", "raw", "--folds", "3"], ""),
    "calibrate": (["calibrate", "--scores", "scores.tsv", "--qmf", "qmf.jsonl", "--features", "raw,cu",
                   "--seed", "4", "--out-scores", "calibrated.tsv"], "_hashlib"),
    "gen-protocol": (["gen-protocol", "--corpus", "corpus.jsonl", "--protocol", "repetitive",
                      "--probes-per-speaker", "10", "--seed", "5", "--out-prefix", "again"], "_hashlib"),
    "simulate": (["simulate", "--trials", "rep.trials.tsv", "--manifest", "rep.manifest.jsonl",
                  "--models", "rep.models.jsonl", "--seed", "6", "--out-scores", "s.tsv", "--out-qmf", "q.jsonl"],
                 "numpy.random _hashlib"),
}


@pytest.mark.parametrize("command", LOADS)
def test_a_command_loads_only_what_it_uses(pipeline, command):
    """numpy.random takes about 2 MB of a process and OpenSSL's libcrypto about 3.7 MB; each command runs in a
    process of its own, as a user runs it, so that an import at a module's top cannot load them back unseen.
    simulate, which loads both, shows that the probe sees a loaded module."""
    argv, loaded = LOADS[command]
    result = subprocess.run([sys.executable, "-c", PROBE, *argv], cwd=pipeline, capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(SRC.parent)}, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == loaded
