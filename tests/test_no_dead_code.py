"""Every function, method and class in the package is named somewhere
besides its own definition, so code that nothing calls does not linger."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "boundedattn"
SEARCHED = [
    *sorted((ROOT / "src").rglob("*.py")),
    *sorted((ROOT / "tests").rglob("*.py")),
    *sorted((ROOT / "perfbench").rglob("*.py")),
    ROOT / "pyproject.toml",
]


def _definitions():
    """Name -> number of definitions, over every module of the package."""
    defs = Counter()
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs[node.name] += 1
    return defs


def test_every_definition_is_named_elsewhere():
    defs = _definitions()
    words = Counter()
    for path in SEARCHED:
        words.update(re.findall(r"\w+", path.read_text(encoding="utf-8")))
    unused = sorted(name for name, n in defs.items() if words[name] <= n)
    assert not unused, f"defined but named nowhere else: {unused}"
