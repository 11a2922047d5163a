"""modpoly is the package's one prime source: every prime walk reads its
primes_upto or primes, and is_prime elsewhere only tests single numbers.

Outside modpoly no module calls is_prime in a comprehension, in a while
test or as filter's argument, and only modpoly defines the sieve and the
walks; next_prime is defined nowhere.  Every module is parsed, not
imported, as in test_numpy_confined.
"""

import ast
from pathlib import Path

import freeperiod
from freeperiod import modpoly

SOURCE_NAMES = {"_sieve", "sieve", "_primes_upto", "primes_upto", "primes"}
RETIRED_NAMES = {"next_prime"}


def _name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _is_prime_calls(node: ast.AST) -> list[int]:
    return [n.lineno for n in ast.walk(node)
            if isinstance(n, ast.Call) and _name(n.func) == "is_prime"]


def _prime_listings(source: str, owner: bool) -> list[int]:
    """Lines that list primes on their own: an is_prime call inside a
    comprehension or a while test, is_prime passed to filter, or a
    definition of a retired name, or (unless owner) of a prime source."""
    banned = RETIRED_NAMES | (set() if owner else SOURCE_NAMES)
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in banned:
            lines.add(node.lineno)
        if owner:
            continue
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            lines.update(_is_prime_calls(node))
        elif isinstance(node, ast.While):
            lines.update(_is_prime_calls(node.test))
        elif (isinstance(node, ast.Call) and _name(node.func) == "filter"
              and any(_name(arg) == "is_prime" for arg in node.args)):
            lines.add(node.lineno)
    return sorted(lines)


PLANTED = ("from .modpoly import is_prime\n"
           "ps = [p for p in range(2, 50) if is_prime(p)]\n"
           "q = 17\n"
           "while not is_prime(q):\n"
           "    q += 2\n"
           "odd = list(filter(is_prime, range(3, 50, 2)))\n"
           "def next_prime(n):\n"
           "    return n\n"
           "def _sieve(bits):\n"
           "    return b''\n"
           "if is_prime(q):\n"
           "    pass\n"
           "def _primes(f):\n"
           "    return f\n")


def test_scanner_flags_planted_prime_listings():
    assert _prime_listings(PLANTED, owner=False) == [2, 4, 6, 7, 9]
    assert _prime_listings(PLANTED, owner=True) == [7]


def test_modpoly_is_the_one_prime_source():
    found = {}
    for path in sorted(Path(freeperiod.__file__).parent.glob("*.py")):
        lines = _prime_listings(path.read_text(encoding="utf-8"),
                                owner=path.name == "modpoly.py")
        if lines:
            found[path.name] = lines
    assert found == {}
    assert {"_sieve", "primes_upto", "primes"} <= set(vars(modpoly))
