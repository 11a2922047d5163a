"""Mod-p screening for knot periodicity via the Murasugi congruence.

A knot with period q = p^r (p prime) has Alexander polynomial satisfying

    Delta(t) = sign * t^a * D(t)^q * (1 + t + ... + t^(lam-1))^(q-1)  (mod p)

where D is a mod-p representative of the quotient knot's Alexander
polynomial and lam is the linking number of the quotient with the rotation
axis (Murasugi, On periodic knots, Comment. Math. Helv. 46, 1971).  The
screen below finds every (lam, a, sign, D) solving the congruence.  A hit
means "screen passed": the congruence is a necessary condition for
periodicity, so an empty result rules the period out while a hit certifies
nothing.

Degree bookkeeping bounds the search: deg Delta >= q*deg D + (q-1)(lam-1),
so lam ranges over (lam-1)(q-1) <= deg Delta.  For fixed (lam, a, sign) the
candidate D is unique when it exists: divide sign*Delta mod p by
t^a * (1+...+t^(lam-1))^(q-1), demand zero remainder and quotient support
inside q*Z, and deflate.  The run power has constant term 1, so the
division runs from the low end and abandons (lam, a, sign) at the first
quotient coefficient off q*Z.  Hits are re-verified by multiplying D(t)^q
back out, which exercises the Frobenius identity D(t)^q = D(t^q) mod p
instead of the deflation used by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import divisors, prime_power
from .intpoly import IntPoly
from .modpoly import gfp_mul, reduce_mod_p
from .zfactor import FactoredPoly, factor_over_z


@dataclass(frozen=True)
class MurasugiHit:
    """One solution of the Murasugi congruence for Delta at period q.

    quotient holds the candidate quotient-knot polynomial D as an integer
    polynomial with coefficients reduced to [0, p).  shift is the exponent
    a of the t^a unit.  divides records whether some integer divisor of
    Delta reduces to D mod p; the congruence itself only determines D mod
    p, so this is strictly extra evidence and never required for a hit.
    """

    q: int
    lam: int
    quotient: IntPoly
    shift: int
    sign: int
    divides: bool

    def congruence(self) -> str:
        p = prime_power(self.q)[0]
        head = "" if self.sign > 0 else "-"
        shift = f"t^{self.shift} * " if self.shift else ""
        run = " + ".join(["1", "t"][:min(self.lam, 2)] + (
            [f"t^{k}" for k in range(2, self.lam)]))
        return (f"{head}{shift}({self.quotient})^{self.q}"
                f" * ({run})^{self.q - 1}  mod {p}")


def _require_screenable(delta: IntPoly) -> None:
    if delta[0] == 0:
        raise ValueError("polynomial must not vanish at 0")
    if delta(1) not in (1, -1):
        raise ValueError("polynomial must evaluate to +-1 at 1")


def _prime_of(q: int) -> int:
    pk = prime_power(q)
    if pk is None or q < 2:
        raise ValueError(f"{q} is not a prime power")
    return pk[0]


@lru_cache(maxsize=None)
def _run_power(lam: int, q: int, p: int) -> tuple[int, ...]:
    # (1 + t + ... + t^(lam-1))^(q-1) over F_p; the same few (lam, q, p)
    # recur for every screened polynomial, hence the cache
    out = [1]
    base = [1 % p] * lam
    for _ in range(q - 1):
        out = gfp_mul(out, base, p)
    return tuple(out)


def _poly_pow(f: list[int], e: int, p: int) -> list[int]:
    out = [1]
    sq = list(f)
    while e:
        if e & 1:
            out = gfp_mul(out, sq, p)
        e >>= 1
        if e:
            sq = gfp_mul(sq, sq, p)
    return out


def _lattice_quotient(a: list[int], shape: tuple[int, ...], q: int,
                      p: int) -> list[int] | None:
    """a / shape in F_p[t] when the division is exact and the quotient is
    supported on multiples of q, else None.

    shape[0] == 1 (it is a power of 1 + t + ... + t^(lam-1)), so the
    division runs from the low end with no inverse and stops at the first
    quotient coefficient off the multiples of q; the top len(shape) - 1
    coefficients of a are checked exactly at the end.
    """
    n = len(a) - len(shape) + 1
    if n <= 0:
        return None
    rem = list(a)
    quo = [0] * n
    for k in range(n):
        c = rem[k]
        if c:
            if k % q:
                return None
            quo[k] = c
            for j, s in enumerate(shape):
                if s:
                    rem[k + j] = (rem[k + j] - c * s) % p
    return None if any(rem[n:]) else quo


def verify_hit(delta: IntPoly, hit: MurasugiHit) -> bool:
    """Recheck a hit's congruence by direct multiplication in F_p[t]."""
    p = _prime_of(hit.q)
    rhs = _poly_pow(reduce_mod_p(hit.quotient, p), hit.q, p)
    rhs = gfp_mul(rhs, _run_power(hit.lam, hit.q, p), p)
    rhs = [0] * hit.shift + rhs
    if hit.sign < 0:
        rhs = [-c % p for c in rhs]
    return rhs == reduce_mod_p(delta, p)


def _reduced_divisor_set(factored: FactoredPoly, p: int) -> set[tuple[int, ...]]:
    # Mod-p images of every integer divisor +-d * prod f_i^(e_i') of the
    # factored polynomial, deduplicated as we go.
    images = {(1 % p,)}
    for f, mult in factored.factors:
        fbar = reduce_mod_p(f, p)
        grown = set(images)
        power = [1 % p]
        for _ in range(mult):
            power = gfp_mul(power, fbar, p)
            if not power:
                break
            for base in images:
                grown.add(tuple(gfp_mul(list(base), power, p)))
        images = grown
    full = set()
    for d in divisors(factored.content):
        if d % p == 0:
            continue
        for base in images:
            pos = tuple(c * d % p for c in base)
            full.add(pos)
            full.add(tuple(-c % p for c in pos))
    return full


def murasugi_screen(delta: IntPoly, q: int) -> list[MurasugiHit]:
    """All Murasugi-congruence solutions for delta at period q.

    Requires delta(0) != 0 and delta(1) = +-1; raises ValueError otherwise
    and when q is not a prime power.  For p = 2 only sign +1 is reported
    since -1 = +1 mod 2.  delta is factored over Z (memoized by
    factor_over_z) only when the congruence has a solution, to set the
    divides flags.
    """
    p = _prime_of(q)
    _require_screenable(delta)
    deg = int(delta.degree)
    dbar = reduce_mod_p(delta, p)
    ord0 = next(i for i, c in enumerate(dbar) if c)
    raw = []
    for sign in (1,) if p == 2 else (1, -1):
        target = dbar if sign > 0 else [-c % p for c in dbar]
        lam = 1
        while (lam - 1) * (q - 1) <= deg:
            shape = _run_power(lam, q, p)
            for shift in range(ord0 % q, ord0 + 1, q):
                quo = _lattice_quotient(target[shift:], shape, q, p)
                if quo is None:
                    continue
                d_bar = quo[::q]
                if sum(d_bar) % p not in (1, p - 1):
                    continue
                raw.append((lam, shift, sign, tuple(d_bar)))
            lam += 1
    if not raw:
        return []
    reduced = _reduced_divisor_set(factor_over_z(delta), p)
    hits = []
    for lam, shift, sign, d_bar in sorted(
            raw, key=lambda r: (r[0], r[1], -r[2], r[3])):
        hit = MurasugiHit(q=q, lam=lam, quotient=IntPoly(d_bar), shift=shift,
                          sign=sign, divides=d_bar in reduced)
        assert verify_hit(delta, hit)
        hits.append(hit)
    return hits


def murasugi_screen_all(delta: IntPoly) -> list[MurasugiHit]:
    """Run murasugi_screen at every prime power q with q - 1 <= deg delta.

    Larger q admit no solution except when delta reduces to a monomial, so
    the range is exhaustive for the polynomials screened here; q = 2 is
    always included so constant polynomials still report their trivial
    hits.
    """
    _require_screenable(delta)
    top = max(int(delta.degree), 1) + 1
    hits = []
    for q in range(2, top + 1):
        if prime_power(q) is not None:
            hits.extend(murasugi_screen(delta, q))
    return hits
