"""Cyclotomic polynomials, recognition, and small-integer number theory.

Recognition works by enumerating the finitely many m with phi(m) = deg f
(phi(m) >= sqrt(m/2) gives the search cutoff m <= 2 d^2 + 2) and comparing
f against Phi_m built by the recursive product formula
t^m - 1 = prod_{d | m} Phi_d.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .intpoly import IntPoly


# -- elementary arithmetic -------------------------------------------------


def factorint(n: int) -> dict[int, int]:
    """Prime factorization by trial division; intended for small n."""
    if n <= 0:
        raise ValueError("positive integer required")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factorint(n).items():
        ds = [d * p**k for d in ds for k in range(e + 1)]
    return sorted(ds)


def euler_phi(n: int) -> int:
    phi = n
    for p in factorint(n):
        phi -= phi // p
    return phi


def prime_power(q: int) -> Optional[tuple[int, int]]:
    """(p, k) with q = p^k, or None when q is not a prime power."""
    if q < 2:
        return None
    f = factorint(q)
    if len(f) != 1:
        return None
    return next(iter(f.items()))


def v_p(n: int, p: int) -> int:
    """p-adic valuation of a positive integer."""
    if n <= 0:
        raise ValueError("positive integer required")
    v = 0
    while n % p == 0:
        v += 1
        n //= p
    return v


# -- cyclotomic polynomials ------------------------------------------------


@lru_cache(maxsize=None)
def cyclotomic(m: int) -> IntPoly:
    """The m-th cyclotomic polynomial Phi_m.

    >>> str(cyclotomic(6))
    't^2 - t + 1'
    """
    if m < 1:
        raise ValueError("order must be positive")
    f = IntPoly.monomial(m, 1) - IntPoly.one()
    for d in divisors(m)[:-1]:
        q = f.try_divide(cyclotomic(d))
        assert q is not None
        f = q
    return f


@lru_cache(maxsize=None)
def _phi_fiber(d: int) -> tuple[int, ...]:
    return tuple(m for m in range(1, 2 * d * d + 3) if euler_phi(m) == d)


def phi_inverse(d: int) -> list[int]:
    """All m with euler_phi(m) = d, ascending.

    phi(m) >= sqrt(m/2) for every m, so the search stops at 2 d^2 + 2.
    Fibers are cached per d; each call gets its own list.
    """
    if d < 1:
        return []
    return list(_phi_fiber(d))


def cyclotomic_tag(f: IntPoly) -> Optional[int]:
    """Order m when f = Phi_m, else None.

    Caller contract: f irreducible, primitive, positive leading coefficient.

    >>> cyclotomic_tag(IntPoly((1, -1, 1)))
    6
    >>> cyclotomic_tag(IntPoly((1, -3, 1))) is None
    True
    """
    d = f.degree
    if not isinstance(d, int) or d < 0 or f.lc != 1:
        return None
    for m in phi_inverse(d):
        if f == cyclotomic(m):
            return m
    return None

