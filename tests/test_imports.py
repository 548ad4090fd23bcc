"""Every name a phonrich module imports is used in that module (``__init__`` re-exports aside),
no module splits text into lines on its own, and only io opens files."""

import ast
from pathlib import Path

import pytest

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
    """str.splitlines() also breaks at U+2028, \\x0b, \\x0c and more; io.text_lines holds the one line rule."""
    assert "splitlines" not in module.read_text()


def open_calls(source: str) -> list[int]:
    """Lines that call ``open`` by name or as an attribute (``io.open``, ``Path.open``)."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Call)
                  and "open" in (getattr(node.func, "id", None), getattr(node.func, "attr", None)))


def test_finds_a_call_to_open():
    assert open_calls("with open(p) as f:\n    pass\nPath(p).open()\nreopen(p)\n") == [1, 3]


@pytest.mark.parametrize("module", [p for p in MODULES if p.name != "io.py"],
                         ids=[p.name for p in MODULES if p.name != "io.py"])
def test_only_io_opens_files(module):
    """io reads every input, so each goes through its one line rule and its UTF-8 check."""
    assert open_calls(module.read_text()) == []
