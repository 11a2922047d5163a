"""Free-period obstruction core: E-invariants, caps, witness factorizations.

For Delta = sign * t^k * prod f_i^{a_i} (irreducible f_i), the question
"does Delta(t^n) split as +-prod_{i<n} g(zeta_n^i t)" reduces to prime-wise
cap conditions: v_p(n) <= cap(p) = min_i (v_p(a_i) + s_i(p)), where s_i(p)
is v_p(E_i) for a non-cyclotomic factor with power invariant E_i, infinity
for Phi_m with p not dividing m, and 0 for Phi_m with p | m.  E_i itself is
computed by the power test: alpha is an m-th power in Q(alpha) exactly when
f(t^m) has an irreducible integer factor of degree deg f.

Witness verification never touches algebraic numbers: the product over the
rotations g(zeta^i t) equals ((-1)^(n-1))^(deg g) * R(t^n) with
R(x) = lc(g)^n * prod_beta (x - beta^n), and R comes from Newton power sums
in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .cyclotomic import cyclotomic, cyclotomic_tag, divisors, factorint, v_p
from .intpoly import IntPoly, content_primitive
from .mahler import BoundMode, prime_bound
from .modpoly import (
    gfp_deriv,
    gfp_eval,
    is_prime,
    next_prime,
    reduce_mod_p,
)
from .zfactor import degree_set_filter, factor_over_z

INF = math.inf


# -- E values --------------------------------------------------------------


@dataclass(frozen=True)
class EValue:
    """Power invariant of a root: E with alpha = theta^E maximal, or the
    cyclotomic marker (roots of unity get E = 0 by convention)."""

    e: int
    cyclotomic_order: Optional[int] = None

    @classmethod
    def finite(cls, e: int) -> "EValue":
        if e < 1:
            raise ValueError("finite E must be positive")
        return cls(e=e)

    @classmethod
    def cyclotomic_zero(cls, m: int) -> "EValue":
        return cls(e=0, cyclotomic_order=m)

    @property
    def is_cyclotomic(self) -> bool:
        return self.cyclotomic_order is not None

    def __str__(self) -> str:
        if self.is_cyclotomic:
            return f"0 (root of unity, order {self.cyclotomic_order})"
        return str(self.e)


def rational_power_index(numerator: int, denominator: int) -> EValue:
    """E for a rational alpha = numerator/denominator in lowest terms.

    E is the gcd of all prime exponents of |num| and |den|; a negative
    alpha cannot be an even power, so the 2-part is dropped.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if math.gcd(numerator, denominator) != 1:
        raise ValueError("fraction not in lowest terms")
    if numerator == 0 or abs(numerator) == denominator:
        raise ValueError("0 and +-1 have no finite power invariant")
    exps: list[int] = []
    for v in (abs(numerator), denominator):
        if v > 1:
            exps.extend(factorint(v).values())
    e = math.gcd(*exps) if exps else 0
    if e == 0:
        # |num| = 1 or den = 1 with the other side trivial cannot happen here
        raise AssertionError("unreachable: no prime support")
    if numerator < 0:
        while e % 2 == 0:
            e //= 2
    return EValue.finite(e)


# -- power-residue screen --------------------------------------------------


@lru_cache(maxsize=None)
def _aux_primes(pr: int) -> tuple[int, ...]:
    """Primes q = 1 mod pr below the residue screen's search limit, ascending."""
    return tuple(q for q in range(pr + 1, 200 * pr + 2000, pr) if is_prime(q))


def _screen_tries(pr: int) -> int:
    # square testing sees the weakest screen (each aux prime passes half
    # the time), so it gets proportionally more auxiliary primes
    return 8 if pr == 2 else 4


def _power_residue_rejects(f: IntPoly, levels: dict[int, int]) -> set[int]:
    """The p^r in levels for which some auxiliary prime PROVES that the
    root is not a p^r-th power; levels maps each p^r to its tries.

    Works at degree-1 primes of Q(alpha): a simple root x of f mod q is
    nonzero (q does not divide f(0)) and Hensel-lifts to a root in Z_q,
    embedding Q(alpha) into Q_q with alpha a unit.  A global p^r-th power
    alpha = beta^(p^r) forces beta into Z_q* as well, so x must be a
    p^r-th residue; with q = 1 mod p^r that is one exponentiation:
    x^((q-1)/p^r) != 1 is a sound rejection.  Passes prove nothing (the
    caller still certifies positives), and primes where f has no simple
    root are skipped without counting.

    Each p^r walks its own _aux_primes(p^r) in ascending order and stops
    once its passes reach its tries.  A q counts one pass when it gives a
    residue root and no rejection, however many roots it gives: the roots
    of a palindromic f come in pairs {x, 1/x} of the same character, so
    counting roots would spend the tries on half as many primes.

    The walks advance in lockstep: each round evaluates f at every residue
    of every live walk's next q in one Horner pass over the concatenated
    ranges, with a per-element modulus, so a round costs the same numpy
    calls however many walks it carries.  Coefficients are reduced mod q as
    Python ints first, since f may exceed int64.
    """
    coeffs = f.coeffs
    f0 = coeffs[0]
    walks = {pr: [iter(_aux_primes(pr)), 0] for pr in levels}  # [qs, passes]
    rejected: set[int] = set()
    while True:
        batch: list[tuple[int, int, list[int]]] = []  # (p^r, q, f mod q)
        for pr, (qs, passes) in list(walks.items()):
            q = next((q for q in qs if f0 % q), None) if passes < levels[pr] else None
            if q is None:
                del walks[pr]
            else:
                batch.append((pr, q, reduce_mod_p(coeffs, q)))
        if not batch:
            return rejected
        sizes = np.array([q for _, q, _ in batch], dtype=np.int64)
        starts = np.cumsum(sizes) - sizes
        owner = np.repeat(np.arange(len(batch)), sizes)
        mods = sizes[owner]
        xs = np.arange(int(sizes.sum()), dtype=np.int64) - starts[owner]
        # row k holds coefficient k of every walk's f mod q; each Horner
        # step gathers one row out to the elements
        table = np.zeros((len(coeffs), len(batch)), dtype=np.int64)
        for w, (_, _, fbar) in enumerate(batch):
            table[: len(fbar), w] = fbar
        vals = np.zeros_like(xs)
        for row in table[::-1]:
            vals = (vals * xs + row[owner]) % mods
        zeros = np.nonzero(vals == 0)[0]
        starts = starts.tolist()
        derivs: dict[int, list[int]] = {}
        passed: set[int] = set()
        for i, w in zip(zeros.tolist(), owner[zeros].tolist()):
            pr, q, fbar = batch[w]
            if pr in rejected:
                continue
            x = i - starts[w]
            if w not in derivs:
                derivs[w] = gfp_deriv(fbar, q)
            if gfp_eval(derivs[w], x, q) == 0:
                continue
            if pow(x, (q - 1) // pr, q) != 1:
                rejected.add(pr)
                del walks[pr]
            else:
                passed.add(pr)
        for pr in passed - rejected:
            walks[pr][1] += 1


# -- the power test --------------------------------------------------------


def _inflation_factor(f: IntPoly, k: int) -> Optional[IntPoly]:
    """Lexicographically least irreducible factor of f(t^k) of degree deg f,
    or None; one exists exactly when the root of f is a k-th power in its
    field."""
    cands = [g for g, _ in factor_over_z(f.inflate(k)).factors if g.degree == f.degree]
    return min(cands, key=lambda g: g.coeffs, default=None)


def power_index(f: IntPoly, p: int, max_r: Optional[int] = None) -> int:
    """Largest r with f(t^(p^r)) having an integer factor of degree deg f.

    Monotone in r (a p^(r+1)-th power is a p^r-th power), so the loop stops
    at the first failure.  Each level tries the cheap sound rejections
    (the power-residue screen _power_residue_rejects with the single entry
    p^r, then mod-p factor degree sums) before committing to a full
    factorization.  Requires f irreducible, primitive, non-cyclotomic,
    degree >= 2.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    d = f.degree
    r = 0
    while max_r is None or r < max_r:
        rn = r + 1
        pr = p**rn
        if _power_residue_rejects(f, {pr: _screen_tries(pr)}):
            break
        if not degree_set_filter(f.inflate(pr), d, trials=2):
            break
        if _inflation_factor(f, pr) is None:
            break
        r = rn
    return r


@lru_cache(maxsize=None)
def e_of_irreducible(f: IntPoly, mode: BoundMode = BoundMode.HEURISTIC) -> EValue:
    """E invariant of the root of an irreducible primitive polynomial.

    Cyclotomic factors get the zero marker; degree 1 goes through rational
    arithmetic; otherwise E multiplies p^power_index(f, p) over primes up
    to the Mahler prime bound and the result is certified by re-checking
    that f(t^E) has a factor of degree deg f.  One lockstep residue screen
    first tests every such p at level 1, and power_index runs only for the
    p it does not reject (r = 0 for the rest).
    """
    d = f.degree
    m = cyclotomic_tag(f)
    if m is not None:
        return EValue.cyclotomic_zero(m)
    if d == 1:
        if f[0] == 0:
            raise ValueError("t has no power invariant; strip it first")
        return rational_power_index(-f[0], f[1])
    bound = prime_bound(f, mode)
    primes = []
    p = 2
    while p <= bound:
        primes.append(p)
        p = next_prime(p)
    rejected = _power_residue_rejects(f, {p: _screen_tries(p) for p in primes})
    e = 1
    for p in primes:
        if p in rejected:
            continue
        max_r = 0
        while p ** (max_r + 1) <= bound:
            max_r += 1
        e *= p ** power_index(f, p, max_r=max_r)
    if e > 1 and _inflation_factor(f, e) is None:
        raise AssertionError(f"E certification failed for {f} at E={e}")
    return EValue.finite(e)


# -- profiles --------------------------------------------------------------


@dataclass(frozen=True)
class HartleyProfile:
    """Prime-wise caps deciding every n at once.

    caps holds the primes whose cap differs from default_cap; default_cap
    is 0 when a non-cyclotomic factor is present (finitely many n) and
    infinity for pure cyclotomic products.  factor_data keeps the
    (factor, multiplicity, EValue) triples for audit; t_power records a
    stripped power of t (no constraint: t^n = +-prod zeta^i t).
    e_gcd_literal is gcd(a_i E_i) over non-cyclotomic factors (0 if none),
    the flat formula; it can disagree with the caps for mixed cyclotomic /
    non-cyclotomic input.
    """

    caps: tuple[tuple[int, float], ...]
    default_cap: float
    factor_data: tuple[tuple[IntPoly, int, EValue], ...]
    t_power: int
    mode: BoundMode
    e_gcd_literal: int
    sign: int

    def cap(self, p: int) -> float:
        for q, c in self.caps:
            if q == p:
                return c
        return self.default_cap

    @property
    def n_cap_product(self) -> Optional[int]:
        """prod p^cap(p) when finite (default_cap 0), else None."""
        if self.default_cap != 0:
            return None
        out = 1
        for p, c in self.caps:
            out *= p ** int(c)
        return out


def _s_value(ev: EValue, p: int) -> float:
    """s_i(p): v_p(E) for non-cyclotomic; infinity/0 for Phi_m by p | m."""
    if ev.is_cyclotomic:
        return 0 if ev.cyclotomic_order % p == 0 else INF
    return v_p(ev.e, p)


def profile_from_factors(
    factors: list[tuple[IntPoly, int]],
    mode: BoundMode = BoundMode.HEURISTIC,
    t_power: int = 0,
    sign: int = 1,
) -> HartleyProfile:
    """Assemble a profile from an already-known irreducible factorization."""
    data = []
    for f, a in factors:
        data.append((f, a, e_of_irreducible(f, mode)))
    noncyclo = [(f, a, ev) for f, a, ev in data if not ev.is_cyclotomic]
    default_cap: float = 0 if noncyclo else INF
    candidates: set[int] = set()
    for f, a, ev in data:
        if ev.is_cyclotomic:
            candidates.update(factorint(ev.cyclotomic_order).keys() if ev.cyclotomic_order > 1 else [])
        else:
            candidates.update(factorint(a * ev.e).keys())
    caps: list[tuple[int, float]] = []
    for p in sorted(candidates):
        c: float = INF
        for f, a, ev in data:
            c = min(c, v_p(a, p) + _s_value(ev, p))
        if c != default_cap:
            caps.append((p, c))
    e_gcd = math.gcd(*(a * ev.e for _, a, ev in noncyclo)) if noncyclo else 0
    return HartleyProfile(
        caps=tuple(caps),
        default_cap=default_cap,
        factor_data=tuple(data),
        t_power=t_power,
        mode=mode,
        e_gcd_literal=e_gcd,
        sign=sign,
    )


def hartley_profile(delta: IntPoly, mode: BoundMode = BoundMode.HEURISTIC) -> HartleyProfile:
    """Factor delta and assemble its cap profile.

    Requires delta nonzero and primitive: a content c could only be
    absorbed if c were a perfect n-th power, so non-primitive input is
    rejected rather than silently normalized.
    """
    if not delta:
        raise ValueError("zero polynomial has no profile")
    c, _, _ = content_primitive(delta)
    if c != 1:
        raise ValueError(f"input must be primitive; content is {c}")
    fac = factor_over_z(delta)
    t_pow = 0
    rest: list[tuple[IntPoly, int]] = []
    for g, a in fac.factors:
        if g == IntPoly.x():
            t_pow = a
        else:
            rest.append((g, a))
    return profile_from_factors(rest, mode, t_power=t_pow, sign=fac.sign)


def is_n_hartley(profile: HartleyProfile, n: int) -> bool:
    """True iff v_p(n) <= cap(p) for every prime p dividing n."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return all(r <= profile.cap(p) for p, r in factorint(n).items())


@dataclass(frozen=True)
class HartleySet:
    """Either the complete finite set of valid n, or a rule plus members
    enumerated up to the requested limit."""

    finite: bool
    members: tuple[int, ...]
    rule: Optional[str]

    def __str__(self) -> str:
        body = "{" + ", ".join(map(str, self.members)) + "}"
        if self.finite:
            return body
        return f"{body} up to limit, rule: {self.rule}"


def hartley_set(profile: HartleyProfile, limit: int = 100) -> HartleySet:
    """All n >= 2 passing the caps, exactly when finite, truncated otherwise."""
    if profile.default_cap == 0:
        big = profile.n_cap_product
        members = tuple(d for d in divisors(big) if d >= 2) if big and big > 1 else ()
        return HartleySet(finite=True, members=members, rule=None)
    zero_caps = [p for p, c in profile.caps if c == 0]
    parts = []
    if zero_caps:
        parts.append(f"gcd(n, {math.prod(zero_caps)}) = 1")
    for p, c in profile.caps:
        if c != 0:
            parts.append(f"v_{p}(n) <= {int(c)}")
    rule = " and ".join(parts) if parts else "all n"
    members = tuple(n for n in range(2, limit + 1) if is_n_hartley(profile, n))
    return HartleySet(finite=False, members=members, rule=rule)


# -- witness construction and verification ---------------------------------


@dataclass(frozen=True)
class WitnessCertificate:
    """A verified g with Delta(t^n) = sign * prod_{i<n} g(zeta_n^i t)."""

    n: int
    witness: IntPoly
    sign: int
    verified: bool


def _power_sums_monic(coeffs: tuple[int, ...], upto: int) -> list[int]:
    """Newton power sums s_0..s_upto (s_0 unused) of a monic integer polynomial."""
    d = len(coeffs) - 1
    s = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = 0
        for j in range(1, min(k, d) + 1):
            acc += coeffs[d - j] * s[k - j]
        if k <= d:
            acc += k * coeffs[d - k]
        s[k] = -acc
    return s


def rotation_product_deflated(g: IntPoly, n: int) -> IntPoly:
    """R with prod_{i<n} g(zeta_n^i t) = ((-1)^(n-1))^(deg g) * R(t^n).

    R(x) = lc^n * prod_beta (x - beta^n) over the roots beta of g.  The
    monic integer polynomial lc^(d-1) * g(x / lc) has roots lc * beta; the
    k-th power sum of the (lc * beta)^n is its (kn)-th power sum, and
    Newton's identities turn those into the elementary symmetric functions
    e_j of the (lc * beta)^n.  R's coefficient of x^(d-j) is then
    (-1)^j * e_j * lc^n / lc^(nj).  Exact integer arithmetic; raises on the
    impossible case of a non-integral coefficient.
    """
    if not g:
        return IntPoly.zero()
    d = g.degree
    lc = g.lc
    if d == 0:
        return IntPoly.constant(lc**n)
    monic = tuple(c * lc ** (d - 1 - i) for i, c in enumerate(g.coeffs[:d])) + (1,)
    s = _power_sums_monic(monic, d * n)
    pows = [s[k * n] for k in range(1, d + 1)]
    e: list[int] = [1] + [0] * d
    for j in range(1, d + 1):
        acc = 0
        for i in range(1, j + 1):
            acc += (-1) ** (i - 1) * e[j - i] * pows[i - 1]
        q, rem = divmod(acc, j)
        assert rem == 0
        e[j] = q
    out = []
    for j in range(d + 1):
        val, rem = divmod((-1) ** j * e[j] * lc**n, lc ** (n * j))
        assert rem == 0, "resultant coefficient must be integral"
        out.append(val)
    return IntPoly(tuple(reversed(out)))


def verify_witness(delta: IntPoly, n: int, g: IntPoly) -> tuple[bool, Optional[int]]:
    """Does Delta(t^n) equal +-prod_{i<n} g(zeta_n^i t)?  Exact check.

    Returns (holds, sign) with Delta(t^n) = sign * product when holds.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    if not g or not delta:
        return (not g and not delta, 1 if (not g and not delta) else None)
    if delta.degree != g.degree:
        return (False, None)
    r = rotation_product_deflated(g, n)
    eps = (-1) ** ((n - 1) * g.degree)
    cand = r * eps
    if delta == cand:
        return (True, 1)
    if delta == -cand:
        return (True, -1)
    return (False, None)


def _witness_s(ev: EValue, n: int) -> int:
    """s = prod_p p^min(s_i(p), v_p(n)) for the factor's rule."""
    s = 1
    for p, r in factorint(n).items():
        sp = _s_value(ev, p)
        s *= p ** int(min(sp, r))
    return s


def construct_witness(
    delta: IntPoly, n: int, mode: BoundMode = BoundMode.HEURISTIC
) -> WitnessCertificate:
    """Build and verify a witness g for an n-Hartley delta.

    Per irreducible-power factor f^a: with s the matched part of n, a
    degree-(deg f) irreducible factor w of f(t^s) exists; its inflation
    w(t^(n/s)) raised to a*s/n (an integer by the cap condition) is the
    factor's contribution.  Cyclotomic factors take the closed-form route:
    the degree-phi(m) factors of Phi_m(t^s) are Phi_m and, for odd m and
    even s, Phi_2m.  The certificate's sign comes from exact verification.
    """
    profile = hartley_profile(delta, mode)
    if not is_n_hartley(profile, n):
        raise ValueError(f"not {n}-Hartley; no witness exists")
    g = IntPoly.monomial(profile.t_power) if profile.t_power else IntPoly.one()
    for f, a, ev in profile.factor_data:
        s = _witness_s(ev, n)
        exp, rem = divmod(a * s, n)
        assert rem == 0, "cap condition must make the exponent integral"
        if ev.is_cyclotomic:
            m = ev.cyclotomic_order
            cands = [cyclotomic(m)]
            if s % 2 == 0 and m % 2 == 1:
                cands.append(cyclotomic(2 * m))
            w = min(cands, key=lambda c: c.coeffs)
        else:
            w = _inflation_factor(f, s)
            if w is None:
                raise AssertionError(f"guaranteed degree-{f.degree} factor missing for {f}")
        g = g * w.inflate(n // s) ** exp
    if g.lc < 0:
        g = -g
    holds, sign = verify_witness(delta, n, g)
    if not holds:
        raise AssertionError("constructed witness failed verification")
    return WitnessCertificate(n=n, witness=g, sign=sign, verified=True)


# -- knot-flavored wrapper -------------------------------------------------


@dataclass(frozen=True)
class KnotCheckReport:
    """n-Hartley verdict for an Alexander-normalizable polynomial, with
    witness diagnostics that are informational only (witnesses are far
    from unique)."""

    delta: IntPoly
    n: int
    verdict: bool
    certificate: Optional[WitnessCertificate]
    witness_unit_at_one: Optional[bool]
    witness_palindromic: Optional[bool]
    mode: BoundMode


def hartley_knot_check(
    delta: IntPoly, n: int, mode: BoundMode = BoundMode.HEURISTIC
) -> KnotCheckReport:
    """Check the factorization condition for a knot-shaped polynomial.

    Preconditions: delta(1) = +-1, palindromic up to sign, delta(0) != 0;
    the constant term is normalized positive first.
    """
    if not delta or delta[0] == 0:
        raise ValueError("Alexander polynomials have nonzero constant term")
    if delta(1) not in (1, -1):
        raise ValueError("not Alexander-normalizable: |delta(1)| != 1")
    if not delta.is_palindromic_up_to_sign():
        raise ValueError("not Alexander-normalizable: not palindromic up to sign")
    if delta[0] < 0:
        delta = -delta
    profile = hartley_profile(delta, mode)
    if not is_n_hartley(profile, n):
        return KnotCheckReport(delta, n, False, None, None, None, mode)
    cert = construct_witness(delta, n, mode)
    w = cert.witness
    return KnotCheckReport(
        delta,
        n,
        True,
        cert,
        w(1) in (1, -1),
        w.is_palindromic_up_to_sign(),
        mode,
    )
