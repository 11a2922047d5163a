"""Mod-p screening for knot periodicity via the Murasugi congruence.

A knot with period q = p^r (p prime) has Alexander polynomial satisfying

    Delta(t) = sign * t^a * D(t)^q * (1 + t + ... + t^(lam-1))^(q-1)  (mod p)

where D is a mod-p representative of the quotient knot's Alexander
polynomial and lam is the linking number of the quotient with the rotation
axis (Murasugi, On periodic knots, Comment. Math. Helv. 46, 1971).  The
screen finds every (lam, a, sign, D) solving the congruence.  A hit means
"screen passed": the congruence is a necessary condition for periodicity,
so an empty result rules the period out while a hit certifies nothing.

Degree bookkeeping bounds the search to (lam-1)(q-1) <= deg Delta.  Over
F_p, f(t)^q = f(t^q), so with R = 1 + t + ... + t^(lam-1) the congruence
holds exactly when Delta * R = sign * t^a * P(t^q) with P(u) = D(u) R(u).
The coefficients of Delta * R are window sums of lam consecutive
coefficients of Delta: one running sum per (q, lam) must vanish off
ord0 + qZ (ord0 the low exponent of Delta mod p) and reads off P, and
D = P (1-u) / (1-u^lam) by a two-term recurrence whose tail must vanish.
Sign -1 takes -D (q is odd when p is) and a shift ord0 - k*q takes u^k D.
Hits are re-verified by multiplying D(t)^q back out, which does not use
the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .cyclotomic import divisors, prime_power
from .intpoly import IntPoly
from .modpoly import gfp_mul, primes_upto, reduce_mod_p
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

    def __str__(self) -> str:
        return (f"q={self.q} lam={self.lam} shift={self.shift}"
                f" sign={self.sign:+d} divides={self.divides}")

    def as_json(self) -> dict:
        return {"q": self.q, "lam": self.lam, "shift": self.shift,
                "sign": self.sign, "quotient": list(self.quotient),
                "divides": self.divides}


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


@lru_cache(maxsize=None)
def _run_power(lam: int, q: int, p: int) -> tuple[int, ...]:
    # (1 + t + ... + t^(lam-1))^(q-1) over F_p; the same few (lam, q, p)
    # recur for every screened polynomial, hence the cache
    return tuple(_poly_pow([1] * lam, q - 1, p))


def _frobenius_quotient(body: list[int], lam: int, q: int,
                        p: int) -> tuple[int, ...] | None:
    """D with body = D(t)^q * R(t)^(q-1) in F_p[t], body[0] != 0, or None.

    Coefficient k of body * R is the sum of body over k - lam < j <= k.
    """
    n, big_p, s = len(body), [], 0
    for k in range(n + lam - 1):
        s += (body[k] if k < n else 0) - (body[k - lam] if k >= lam else 0)
        if k % q == 0:
            big_p.append(s % p)
        elif s % p:
            return None
    # (1 - u^lam) D = (1 - u) P: D_i = P_i - P_(i-1) + D_(i-lam), zero past top
    top, d = len(big_p) - lam, []
    for i, c in enumerate(big_p + [0]):
        c = (c - (big_p[i - 1] if i else 0) + (d[i - lam] if i >= lam else 0)) % p
        if i <= top:
            d.append(c)
        elif c:
            return None
    return tuple(d) if top >= 0 else None


def _solutions(dbar: list[int], q: int, p: int,
               deg: int) -> list[tuple[int, int, int, tuple[int, ...]]]:
    """Every (lam, shift, sign, D) solving the congruence, in report order."""
    ord0 = next(i for i, c in enumerate(dbar) if c)
    body, out = dbar[ord0:], []
    # the top term body[-1] t^(len(body) + lam - 2) of Delta * R sits on qZ
    for lam in range((1 - len(body)) % q + 1, deg // (q - 1) + 2, q):
        d0 = _frobenius_quotient(body, lam, q, p)
        if d0 is None or sum(d0) % p not in (1, p - 1):
            continue
        for k in range(ord0 // q, -1, -1):
            d_bar = (0,) * k + d0
            out.append((lam, ord0 - k * q, 1, d_bar))
            if p != 2:
                out.append((lam, ord0 - k * q, -1, tuple(-c % p for c in d_bar)))
    return out


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
    # factored polynomial, deduplicated as we go; primitive f_i stay nonzero.
    images = {(1,)}
    for f, mult in factored.factors:
        fbar, power, grown = reduce_mod_p(f, p), [1], set(images)
        for _ in range(mult):
            power = gfp_mul(power, fbar, p)
            grown.update(tuple(gfp_mul(list(base), power, p)) for base in images)
        images = grown
    units = [s * d for d in divisors(factored.content) if d % p for s in (1, -1)]
    return {tuple(u * c % p for c in base) for base in images for u in units}


def _screen_powers(delta: IntPoly, p: int, qs: tuple[int, ...],
                   factored: FactoredPoly | None) -> list[MurasugiHit]:
    # one reduction of delta and one divisor-image set serve every q = p^r
    dbar, reduced, hits = reduce_mod_p(delta, p), None, []
    for q in qs:
        for lam, shift, sign, d_bar in _solutions(dbar, q, p, int(delta.degree)):
            if reduced is None:
                reduced = _reduced_divisor_set(factored or factor_over_z(delta), p)
            hit = MurasugiHit(q=q, lam=lam, quotient=IntPoly(d_bar), shift=shift,
                              sign=sign, divides=d_bar in reduced)
            if not verify_hit(delta, hit):
                raise AssertionError(f"Murasugi hit failed re-verification: {hit!r}")
            hits.append(hit)
    return hits


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
    return _screen_powers(delta, p, (q,), None)


@lru_cache(maxsize=None)
def _prime_powers_upto(top: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    return tuple((p, tuple(p**r for r in range(1, top.bit_length()) if p**r <= top))
                 for p in primes_upto(top))


def murasugi_screen_all(delta: IntPoly,
                        factored: FactoredPoly | None = None) -> list[MurasugiHit]:
    """murasugi_screen at every prime power q with q - 1 <= deg delta, in
    ascending q.

    Larger q admit no solution except when delta reduces to a monomial, so
    the range is exhaustive for the polynomials screened here; q = 2 is
    always included so constant polynomials still report their trivial
    hits.  factored, a factorization of delta, sets the divides flags
    without factoring delta again; the hits are the same without it.
    """
    _require_screenable(delta)
    hits = []
    for p, qs in _prime_powers_upto(max(int(delta.degree), 1) + 1):
        hits += _screen_powers(delta, p, qs, factored)
    return sorted(hits, key=lambda h: h.q)
