"""Complete factorization in Z[t]: Yun splitting, Hensel lifting, Zassenhaus.

The pipeline for one squarefree primitive part: sieve the possible factor
degrees with the mod-p factor-degree subset sums at a few primes (often
proving irreducibility outright), lift the best odd prime's factorization
to above twice the Mignotte bound, and recombine subsets smallest-first
with exact division checks.  Everything is deterministic: the probe order
is fixed, equal-degree splitting is seeded from the input, subsets
enumerate in sorted index order.

A palindromic f of even degree 2m (every survey candidate, every factor of
one and every inflation f(t^k) of such a factor) is probed at half the
degree, through its trace polynomial h with f = t^m h(t + 1/t)
(intpoly.trace_reduce; Boyd, Math. Comp. 35, 1980).  When h is irreducible
with root y, the roots of f are those of t^2 - y t + 1 over Q(y), so f is
irreducible exactly when x^2 - 4 is a non-square in Q[x]/(h), and
otherwise f = c g g* with deg g = m and g* the reciprocal of g.  When h
splits, Zassenhaus factors h, and each factor's lift t^(m_i) h_i(t + 1/t)
is factored the same way; when x^2 - 4 may be a square, Zassenhaus runs
on f looking only for a degree-m factor.

The probes of h (or of f off the trace path) run cheapest first:

1. GF(2) (modpoly.gf2_degree_pattern, bit-packed).  When lc(h) is odd
   and h mod 2 is squarefree, an integer factor of h reduces to a product
   of mod-2 factors of the same degree, so the subset sums of the mod-2
   degrees bound the factor degrees as any good prime's do (von zur
   Gathen and Gerhard, Modern Computer Algebra, ch. 14-15).  p = 2 only
   sieves: equal-degree splitting needs an odd prime, so it never becomes
   Zassenhaus's prime.
2. The non-square of x^2 - 4 is free when its norm h(2) h(-2) / lc(h)^2
   is not a rational square.  Otherwise look for a simple root y of h
   modulo an odd prime q <= 23, q not dividing lc(h), with y^2 - 4 a
   non-residue mod q.  Sound for irreducible h: x is integral at q, and
   a simple root is a regular prime of degree 1 of Z[x]/(h) with residue
   map x -> y, so x^2 - 4 = s^2 in Q[x]/(h) would force
   y^2 - 4 = s(y)^2 mod q.
3. Odd primes keeping f squarefree: p does not divide lc(h) or
   h(2) h(-2), and h mod p is squarefree.  Each sieves the degrees, and
   while no non-square has turned up, an irreducible factor of h mod p
   modulo which x^2 - 4 is a non-square proves one
   (modpoly.has_nonsquare_factor; at a prime dividing h(2) h(-2) the
   factor x -+ 2 would read as one).

factor_over_z skips Yun's decomposition when GF(2) already certifies the
primitive part squarefree: it is squarefree mod 2 with odd lc, or it is
palindromic with h squarefree mod 2, odd lc and h(2) h(-2) != 0 (the
roots of f are then two distinct x, 1/x for each of the distinct roots
y != +-2 of h).

All modular arithmetic is modpoly's: the probes, gcds and the mod-p
factorization need a prime modulus, while Hensel lifting and recombination
call gfp_mul, gfp_add, gfp_sub and gfp_divmod with m = p^l (every divisor
there is monic, so its leading coefficient is a unit).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

from .intpoly import IntPoly, content_primitive, pseudo_rem, trace_lift, trace_reduce
from .modpoly import (
    ddf_degree_multiset,
    factor_squarefree_mod_p,
    gf2_degree_pattern,
    gfp_add,
    gfp_deriv,
    gfp_divmod,
    gfp_eval,
    gfp_extgcd,
    gfp_gcd,
    gfp_monic,
    gfp_mul,
    gfp_sub,
    has_nonsquare_factor,
    primes,
    reduce_mod_p,
)

# recombination subset budget before hunting for a sparser prime
_SUBSET_CAP = 1 << 20
_PROBE_COUNT = 3
_EXTRA_PROBES = 5
# the primes of the root test _root_character
_ROOT_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
# factor_over_z memo size: one query chain (profile, E certification,
# witness, Murasugi divides flags) revisits Delta and the inflations f(t^k)
# of its factors, far fewer polynomials than this; the bound keeps a long
# survey, which factors each candidate once, from growing the memo forever
_FACTOR_CACHE_SIZE = 1024


@dataclass(frozen=True)
class FactoredPoly:
    """sign * content * prod(factor^mult) with primitive positive-lc factors."""

    sign: int
    content: int
    factors: tuple[tuple[IntPoly, int], ...]

    def expand(self) -> IntPoly:
        out = IntPoly.constant(self.sign * self.content)
        for g, a in self.factors:
            out = out * g**a
        return out

    def __str__(self) -> str:
        head = f"{self.sign * self.content}"
        body = " * ".join(f"({g})^{a}" if a > 1 else f"({g})" for g, a in self.factors)
        return f"{head} * {body}" if body else head


# -- integer polynomial gcd ------------------------------------------------


def _pp_positive(f: IntPoly) -> IntPoly:
    _, pp, _ = content_primitive(f)
    return pp


def gcd_z(f: IntPoly, g: IntPoly) -> IntPoly:
    """Nonnegative gcd in Z[t]; primitive positive-lc when nonconstant.

    A degree-0 gcd modulo any good prime certifies coprime primitive parts,
    which settles the common squarefree case without coefficient growth.
    The fallback is a primitive pseudo-remainder sequence.
    """
    if not f:
        return g if g.lc > 0 else -g
    if not g:
        return f if f.lc > 0 else -f
    cf, pf, _ = content_primitive(f)
    cg, pg, _ = content_primitive(g)
    c = math.gcd(cf, cg)
    if pf.is_constant() or pg.is_constant():
        return IntPoly.constant(c)
    # modular certificate: deg gcd_Z <= deg gcd_p at primes not dividing lcs
    for p in itertools.islice((p for p in primes(3) if pf.lc % p and pg.lc % p), 4):
        if len(gfp_gcd(reduce_mod_p(pf.coeffs, p), reduce_mod_p(pg.coeffs, p), p)) == 1:
            return IntPoly.constant(c)
    # primitive PRS
    a, b = (pf, pg) if pf.degree >= pg.degree else (pg, pf)
    while True:
        r = pseudo_rem(a, b)[0]
        if not r:
            return _pp_positive(b) * c
        a, b = b, _pp_positive(r)


# -- squarefree decomposition over Z ---------------------------------------


def squarefree_decompose(f: IntPoly) -> list[tuple[IntPoly, int]]:
    """Yun's algorithm: f = +-prod(part^mult), mult strictly increasing.

    Parts are primitive with positive leading coefficient, squarefree, and
    pairwise coprime; the sign is sign(lc(f)).  Requires f nonzero.
    """
    if not f:
        raise ValueError("zero polynomial has no squarefree decomposition")
    _, g, _ = content_primitive(f)
    if g.is_constant():
        return []
    out: list[tuple[IntPoly, int]] = []
    df = g.derivative()
    a = gcd_z(g, df)
    # divisions below are exact over Z: divisors are primitive (Gauss)
    b = g.try_divide(a)
    c = df.try_divide(a)
    assert b is not None and c is not None
    d = c - b.derivative()
    i = 1
    while not b.is_constant():
        part = gcd_z(b, d)
        b2 = b.try_divide(part)
        c2 = d.try_divide(part)
        assert b2 is not None and c2 is not None
        if not part.is_constant():
            out.append((part, i))
        b, c = b2, c2
        d = c - b.derivative()
        i += 1
    return out


# -- Hensel lifting modulo p^l --------------------------------------------


def _hensel_pair(
    f: list[int], g: list[int], h: list[int], s: list[int], t: list[int], p: int, target: int
) -> tuple[list[int], list[int]]:
    """Lift f = g*h from mod p to mod p^target (g, h monic; s*g + t*h = 1).

    Quadratic iteration; moduli double each round and stop at p^target.
    """
    level = 1
    while level < target:
        level = min(2 * level, target)
        m = p**level
        e = gfp_sub([c % m for c in f], gfp_mul(g, h, m), m)
        q, r = gfp_divmod(gfp_mul(s, e, m), h, m)
        g = gfp_add(g, gfp_add(gfp_mul(t, e, m), gfp_mul(q, g, m), m), m)
        h = gfp_add(h, r, m)
        b = gfp_sub(gfp_add(gfp_mul(s, g, m), gfp_mul(t, h, m), m), [1], m)
        c, d = gfp_divmod(gfp_mul(s, b, m), h, m)
        s = gfp_sub(s, d, m)
        t = gfp_sub(t, gfp_add(gfp_mul(t, b, m), gfp_mul(c, g, m), m), m)
    return g, h


def _hensel_tree(f_star: list[int], hs: list[list[int]], p: int, target: int) -> list[list[int]]:
    """Lift monic f_star = prod(hs) from mod p to mod p^target, recursively."""
    if len(hs) == 1:
        m = p**target
        return [[c % m for c in f_star]]
    k = len(hs) // 2
    left, right = hs[:k], hs[k:]
    g0 = [1]
    for u in left:
        g0 = gfp_mul(g0, u, p)
    h0 = [1]
    for u in right:
        h0 = gfp_mul(h0, u, p)
    one, s, t = gfp_extgcd(g0, h0, p)
    assert len(one) == 1, "modular factors not coprime"
    g1, h1 = _hensel_pair(f_star, g0, h0, s, t, p, target)
    return _hensel_tree(g1, left, p, target) + _hensel_tree(h1, right, p, target)


# -- Zassenhaus ------------------------------------------------------------


def _mignotte_level(f: IntPoly, p: int) -> int:
    """Exponent l with p^l > 2 * (coefficient bound for lc-scaled factors)."""
    n = f.degree
    bound = math.comb(n, n // 2) * (math.isqrt(f.l2_norm_sq()) + 1) * abs(f.lc)
    l = 1
    while p**l <= 2 * bound:
        l += 1
    return l


def good_primes(f: IntPoly) -> Iterator[int]:
    """Odd primes keeping f squarefree with unit leading coefficient, ascending.

    The walk never ends: for f with a repeated factor, which no prime
    keeps squarefree, it yields nothing and runs on.
    """
    for p in primes(3):
        if f.lc % p:
            fb = reduce_mod_p(f.coeffs, p)
            if len(gfp_gcd(fb, gfp_deriv(fb, p), p)) == 1:
                yield p


def _subset_degrees(degs: list[int]) -> int:
    """Bitset of degrees achievable as sub-multiset sums."""
    reach = 1
    for d in degs:
        reach |= reach << d
    return reach


def degree_set_filter(f: IntPoly, target_degree: int) -> bool:
    """False only when provably no integer factor of target_degree exists.

    Checks whether target_degree is a subset sum of the mod-p irreducible
    factor degrees at each of two good primes; sound because integer
    factors stay factors mod p.
    """
    if target_degree < 0 or target_degree > f.degree:
        return False
    if target_degree in (0, f.degree):
        return True
    # Repeated factors kill squarefreeness at every prime; cap the scan so
    # such inputs fall through to True rather than looping.
    found = 0
    for p in itertools.islice(primes(3), 24):
        if f.lc % p:
            fb = reduce_mod_p(f.coeffs, p)
            if len(gfp_gcd(fb, gfp_deriv(fb, p), p)) == 1:
                if not (_subset_degrees(ddf_degree_multiset(fb, p)) >> target_degree) & 1:
                    return False
                found += 1
                if found == 2:
                    break
    return True


def _sym(x: int, m: int) -> int:
    r = x % m
    return r - m if r > m // 2 else r


def _sieve_inputs(f: IntPoly) -> tuple[IntPoly | None, list[int] | None]:
    """f's trace polynomial h (None when f is not on the trace path) and
    the GF(2) degree pattern of what the probes sieve, h or f itself."""
    h = trace_reduce(f)
    return h, gf2_degree_pattern((f if h is None else h).coeffs)


def _root_character(h: IntPoly) -> tuple[bool, int]:
    """Look for a simple root y of h modulo an odd prime q in _ROOT_PRIMES,
    q not dividing lc(h), with y^2 - 4 a non-residue mod q.

    Returns (True, _) at the first such root, which proves x^2 - 4 a
    non-square in Q[x]/(h) for irreducible h: a simple root is a regular
    prime of degree 1 of Z[x]/(h), with residue map x -> y, and x is
    integral there, so x^2 - 4 = s^2 would give y^2 - 4 = s(y)^2 mod q.
    Otherwise returns (False, k), k the number of simple roots seen, each
    with y^2 - 4 a nonzero square.
    """
    dh = h.derivative()
    squares = 0
    for q in _ROOT_PRIMES:
        if h.lc % q == 0:
            continue
        hq = reduce_mod_p(h.coeffs, q)
        dq = reduce_mod_p(dh.coeffs, q)
        for y in range(q):
            if gfp_eval(hq, y, q) or not gfp_eval(dq, y, q):
                continue
            c = (y * y - 4) % q
            if c and pow(c, (q - 1) // 2, q) != 1:
                return True, squares
            if c:
                squares += 1
    return False, squares


def _factor_squarefree(
    f: IntPoly, sieve: tuple[IntPoly | None, list[int] | None] | None = None
) -> list[IntPoly]:
    """Irreducible factors of a primitive squarefree positive-lc polynomial.

    sieve is _sieve_inputs(f) when the caller has it already.  A
    palindromic f of degree 2m is probed through its trace polynomial
    h (f = t^m h(t + 1/t), degree m; see the module docstring), any other
    f through itself.  The probes run in order of cost:

    1. The GF(2) degree pattern (modpoly.gf2_degree_pattern) of what is
       probed, when that stays squarefree of the same degree mod 2.
       Integer factors keep their degrees mod 2, so its subset sums sieve
       the factor degrees like any good prime's; p = 2 is sieve-only, as
       equal-degree splitting needs an odd prime.
    2. When the norm h(2) h(-2) of x^2 - 4 is a square, the root test
       _root_character: a simple root y of h mod a small prime with
       y^2 - 4 a non-residue proves x^2 - 4 a non-square modulo an
       irreducible h.
    3. Odd good primes: _PROBE_COUNT of them, then up to _EXTRA_PROBES
       more while the sparsest pattern seen still leaves more than
       _SUBSET_CAP subsets to recombine; the first prime with the fewest
       modular factors is lifted.  While a non-square is still wanted,
       each also tries the character test modpoly.has_nonsquare_factor.

    Once h is proved irreducible and x^2 - 4 a non-square, f is
    irreducible.  While h is irreducible and no non-square has turned up,
    the loop goes on to the last extra probe, since each further
    character test costs less than Zassenhaus on f; but when the root
    test saw at least three simple roots and y^2 - 4 was a square at each,
    f is most likely c g g*, and the loop stops at _PROBE_COUNT.
    """
    if f.degree <= 1:
        return [f] if f.degree == 1 else []
    h, pattern = sieve or _sieve_inputs(f)
    g = f if h is None else h  # what the probes sieve
    # h(2) h(-2) / lc(h)^2 is the norm of x^2 - 4 from Q[x]/(h), a square
    # when x^2 - 4 is one; the primes dividing it are where f mod p has a
    # repeated root +-1 and x -+ 2 divides h mod p, so they are skipped
    norm = 1 if h is None else h(2) * h(-2)
    nonsquare = h is None or norm < 0 or math.isqrt(norm) ** 2 != norm
    likely_square = False
    if not nonsquare:
        nonsquare, roots = _root_character(h)
        likely_square = roots >= 3
    possible = (1 << (g.degree + 1)) - 1
    trivial = 1 | (1 << g.degree)
    if pattern is not None:
        possible &= _subset_degrees(pattern)
    irreducible = not possible & ~trivial
    if irreducible and nonsquare:
        return [f]
    probes: list[tuple[int, list[int]]] = []  # (prime, degree multiset)
    for p in good_primes(g):
        if norm % p == 0:
            continue
        gb = reduce_mod_p(g.coeffs, p)
        degs = ddf_degree_multiset(gb, p)
        possible &= _subset_degrees(degs)
        irreducible = not possible & ~trivial
        if not nonsquare:
            nonsquare = has_nonsquare_factor(reduce_mod_p((-4, 0, 1), p), gfp_monic(gb, p), p)
        if irreducible and nonsquare:
            return [f]
        probes.append((p, degs))
        best_p, best_degs = min(probes, key=lambda pr: len(pr[1]))
        if len(probes) == _PROBE_COUNT + _EXTRA_PROBES or len(probes) >= _PROBE_COUNT and (
                likely_square if irreducible
                else _combo_budget(len(best_degs)) <= _SUBSET_CAP):
            break
    if h is None:
        return _zassenhaus(f, best_p, possible)
    if not irreducible:
        parts = _zassenhaus(h, best_p, possible)
        if len(parts) > 1:
            return [u for part in parts for u in _factor_squarefree(trace_lift(part))]
    if nonsquare:
        return [f]
    # h is irreducible, so f is irreducible or c * g * g* with deg g = m
    return _zassenhaus(f, best_p, 1 << h.degree)


def _combo_budget(k: int) -> int:
    return sum(math.comb(k, s) for s in range(1, k // 2 + 1))


def _zassenhaus(f: IntPoly, p: int, possible: int) -> list[IntPoly]:
    level = _mignotte_level(f, p)
    big = p**level
    lc_inv = pow(f.lc, -1, big)
    f_star = [c * lc_inv % big for c in f.coeffs]
    hs_p = factor_squarefree_mod_p(reduce_mod_p(f_star, p), p)
    hs = _hensel_tree(f_star, hs_p, p, level)
    hs.sort(key=lambda h: (len(h), tuple(reversed(h))))
    found: list[IntPoly] = []
    G = f
    s = 1
    while 2 * s <= len(hs):
        hit = False
        for combo in itertools.combinations(range(len(hs)), s):
            dsum = sum(len(hs[i]) - 1 for i in combo)
            if not (possible >> dsum) & 1:
                continue
            prod = [G.lc % big]
            for i in combo:
                prod = gfp_mul(prod, hs[i], big)
            cand = IntPoly(tuple(_sym(c, big) for c in prod))
            if not cand:
                continue
            _, cand_pp, _ = content_primitive(cand)
            g1, c1 = G(1), cand_pp(1)
            if g1 != 0 and (c1 == 0 or g1 % c1):
                continue
            gm1, cm1 = G(-1), cand_pp(-1)
            if gm1 != 0 and (cm1 == 0 or gm1 % cm1):
                continue
            q = G.try_divide(cand_pp)
            if q is not None:
                found.append(cand_pp)
                hs = [h for i, h in enumerate(hs) if i not in combo]
                G = q
                hit = True
                break
        if not hit:
            s += 1
    if G.degree > 0:
        _, gpp, _ = content_primitive(G)
        found.append(gpp)
    found.sort(key=lambda g: (g.degree, g.coeffs))
    return found


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def factor_over_z(f: IntPoly) -> FactoredPoly:
    """Complete irreducible factorization over Z.

    Content and sign come out first, then any power of t, then Yun parts
    feed the Zassenhaus engine; Yun is skipped when GF(2) certifies the
    rest squarefree (see the module docstring).  Factors are primitive, positive-lc,
    pairwise distinct, sorted by (degree, coefficients).  Memoized: the
    profile, the E certification, the witness and the Murasugi divides
    flags all ask about the same Delta and the same inflations (those the
    root path of hartley leaves to factoring), and the frozen result is
    safe to share.
    """
    if not f:
        raise ValueError("cannot factor the zero polynomial")
    content, pp, sign = content_primitive(f)
    bag: dict[IntPoly, int] = {}
    k = pp.order_at_zero()
    if k:
        pp = pp.shift_down(k)
        bag[IntPoly.x()] = k
    h, pattern = _sieve_inputs(pp)
    if pattern is not None and (h is None or h(2) * h(-2)):
        # squarefree mod 2 at full degree, so squarefree: no Yun
        parts = [(pp, 1)]
        sieve = (h, pattern)
    else:
        parts = squarefree_decompose(pp)
        sieve = None
    for part, mult in parts:
        for g in _factor_squarefree(part, sieve):
            bag[g] = bag.get(g, 0) + mult
    factors = tuple(sorted(bag.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))
    return FactoredPoly(sign, content, factors)
