"""numpy serves only the residue screen in hartley: no other module of the
package imports it.

Every module is parsed, not imported, so an import inside a function on a
path no other test reaches is seen too.
"""

import ast
from pathlib import Path

import freeperiod

NUMPY_MODULES = {"hartley.py"}


def _numpy_imports(source: str) -> list[int]:
    """Lines of the imports of numpy or of a numpy submodule."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_planted_numpy_imports():
    planted = ("import math\n"
               "import numpy as np\n"
               "from numpy.linalg import norm\n"
               "from .numpyish import x\n"
               "def f():\n"
               "    import os, numpy\n")
    assert _numpy_imports(planted) == [2, 3, 6]


def test_only_hartley_imports_numpy():
    found = {}
    for path in sorted(Path(freeperiod.__file__).parent.glob("*.py")):
        lines = _numpy_imports(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert set(found) == NUMPY_MODULES
