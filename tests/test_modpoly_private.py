"""modpoly's kernels are used through its public names only: no other
module of the package imports a _-prefixed name from modpoly or reads one
off the module.

Every module is parsed, not imported, as in test_numpy_confined, so an
import inside a function on a path no other test reaches is seen too.
"""

import ast
from pathlib import Path

import freeperiod


def _private_modpoly_uses(source: str) -> list[int]:
    """Lines that import a _-prefixed name from modpoly, relatively or as
    freeperiod.modpoly, or read one as an attribute of a name modpoly."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            from_modpoly = (node.level == 1 and node.module == "modpoly"
                            or node.level == 0 and node.module == "freeperiod.modpoly")
            if from_modpoly and any(alias.name.startswith("_") for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "modpoly" and node.attr.startswith("_")):
            lines.append(node.lineno)
    return sorted(lines)


def test_scanner_flags_planted_private_imports():
    planted = ("from .modpoly import gfp_mul, Quotient\n"
               "from .modpoly import _pack\n"
               "from freeperiod.modpoly import (gfp_mod,\n"
               "    _unpack)\n"
               "from .zfactor import _FACTOR_CACHE_SIZE\n"
               "from . import modpoly\n"
               "def f():\n"
               "    return modpoly._trim([0]), modpoly.gfp_mul\n")
    assert _private_modpoly_uses(planted) == [2, 3, 8]


def test_no_module_but_modpoly_uses_its_private_names():
    found = {}
    for path in sorted(Path(freeperiod.__file__).parent.glob("*.py")):
        if path.name == "modpoly.py":
            continue
        lines = _private_modpoly_uses(path.read_text(encoding="utf-8"))
        if lines:
            found[path.name] = lines
    assert found == {}
