"""The library decides in integers: no float function or float constant of
math or cmath (math.inf included: "no cap" is None, not infinity).

Every module of the package is parsed, not imported, so the check sees
code on every path, including ones no other test reaches.
"""

import ast
from pathlib import Path

import freeperiod

FLOAT_MATH = {"log", "exp", "sqrt", "pi", "inf"}


class _FloatUses(ast.NodeVisitor):
    """(file, enclosing functions, line, what) for each cmath import and
    each use of a float function of math."""

    def __init__(self, name: str):
        self.name = name
        self.scope: list[str] = []
        self.found: list[tuple[str, tuple[str, ...], int, str]] = []

    def _add(self, node: ast.AST, what: str) -> None:
        self.found.append((self.name, tuple(self.scope), node.lineno, what))

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            if alias.name == "cmath":
                self._add(node, "import cmath")

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        names = {alias.name for alias in node.names}
        if node.module == "cmath" or (node.module == "math" and names & FLOAT_MATH):
            self._add(node, f"from {node.module} import {sorted(names)}")

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if (isinstance(node.value, ast.Name) and node.value.id == "math"
                and node.attr in FLOAT_MATH):
            self._add(node, f"math.{node.attr}")
        self.generic_visit(node)


def _float_uses(name: str, source: str):
    visitor = _FloatUses(name)
    visitor.visit(ast.parse(source))
    return visitor.found


def test_scanner_flags_a_planted_float():
    planted = "import math\n\ndef bound(d):\n    return math.log(d)\n"
    assert _float_uses("planted.py", planted) == [("planted.py", ("bound",), 4, "math.log")]


def test_scanner_flags_the_infinity_sentinel():
    planted = "import math\nfrom math import inf\n\nNO_CAP = math.inf\n"
    assert _float_uses("planted.py", planted) == [
        ("planted.py", (), 2, "from math import ['inf']"),
        ("planted.py", (), 4, "math.inf")]


def test_no_float_math_in_the_package():
    found = []
    for path in sorted(Path(freeperiod.__file__).parent.glob("*.py")):
        found.extend(_float_uses(path.name, path.read_text(encoding="utf-8")))
    assert found == []
