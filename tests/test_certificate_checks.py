"""Certificate checks survive python -O: no assert calls a verify function.

python -O drops assert statements, so a re-verification written as
`assert verify_...(...)` would silently stop checking.  Every module of
the package is parsed, not imported, so the check sees code on every path.
"""

import ast
from pathlib import Path

import freeperiod


def _called_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr
    return func.id if isinstance(func, ast.Name) else ""


def _asserted_verifications(name: str, source: str):
    """(file, line, function) for each call of a verify* function made
    inside an assert statement of source."""
    found = []
    for stmt in ast.walk(ast.parse(source)):
        if isinstance(stmt, ast.Assert):
            for node in ast.walk(stmt):
                if (isinstance(node, ast.Call)
                        and _called_name(node).startswith("verify")):
                    found.append((name, stmt.lineno, _called_name(node)))
    return found


def test_no_assert_calls_a_verify_function():
    found = []
    for path in sorted(Path(freeperiod.__file__).parent.glob("*.py")):
        found += _asserted_verifications(path.name,
                                         path.read_text(encoding="utf-8"))
    assert found == []


def test_the_scan_sees_an_asserted_verification():
    # an empty scan of the package means something only if this one is not
    source = ("assert verify_hit(delta, hit)\n"
              "assert ok and m.verify_witness(d, 2, g)[0]\n"
              "assert rem == 0\n")
    assert _asserted_verifications("x.py", source) == [
        ("x.py", 1, "verify_hit"), ("x.py", 2, "verify_witness")]
