"""Free-period obstruction core: E-invariants, caps, witness factorizations.

For Delta = sign * t^k * prod f_i^{a_i} (irreducible f_i), the question
"does Delta(t^n) split as +-prod_{i<n} g(zeta_n^i t)" reduces to prime-wise
cap conditions: v_p(n) <= cap(p) = min_i (v_p(a_i) + s_i(p)), where s_i(p)
is v_p(E_i) for a non-cyclotomic factor with power invariant E_i, no cap
(None) for Phi_m with p not dividing m, and 0 for Phi_m with p | m.  E_i
itself is computed by the power test: alpha is an m-th power in Q(alpha)
exactly when f(t^m) has an irreducible integer factor of degree deg f.

The power-residue screen rules levels out first: at a prime q = 1 mod m
with primitive root g, a simple root x = g^k of f mod q is an m-th
residue iff m | k, and a non-residue proves alpha is no m-th power.  f
is evaluated at cached points ordered by k, each q's roots found once.

The power test answers positives with a root (nfroot.power_root): an h
with h^m = x modulo f, found by q-adic lifting and verified exactly, is
the certificate that alpha = h(alpha)^m.  power_index tries it on every
level the residue screen passes, and the E certification asks for an
E-th root.  A witness factor, the least degree-(deg f) factor of f(t^m),
is then the minimal polynomial g of h(alpha), or for even m the lesser
of g(t) and (-1)^(deg f) g(-t) (the minimal polynomial of -h(alpha)).
That rule needs Q(alpha) to hold no m-th root of unity but +-1, which an
odd degree or one residue field F_(q^d) with gcd(m, q^d - 1) <= 2 proves.
Whenever the root path gives no answer (no root found, or the roots of
unity not settled), the inflation f(t^m) is factored as before, and that
factoring alone decides negatives the screen lets through.

Witness verification never touches algebraic numbers: the product over the
rotations g(zeta^i t) equals ((-1)^(n-1))^(deg g) * R(t^n) with
R(x) = lc(g)^n * prod_beta (x - beta^n), and R comes from Newton power sums
in exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, compress
from typing import Optional

import numpy as np

from .cyclotomic import (
    cyclotomic, cyclotomic_tag, divisors, euler_phi, factorint, iroot, primitive_root, v_p)
from .intpoly import (
    IntPoly, content_primitive, elementary_symmetric, power_sums_monic, trace_reduce)
from .mahler import BoundMode, prime_bound
from .modpoly import gfp_eval, is_prime, primes_upto
from .nfroot import minimal_polynomial, power_root, roots_of_unity_are_signs
from .zfactor import _FACTOR_CACHE_SIZE, degree_set_filter, factor_over_z

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


def rational_power_index(numerator: int, denominator: int) -> EValue:
    """E for a rational alpha = numerator/denominator in lowest terms.

    E is the largest k with |num| and den both exact k-th powers (the gcd
    of their prime exponents, found by integer roots, not factoring); a
    negative alpha cannot be an even power, so the 2-part is dropped.
    """
    if denominator <= 0:
        raise ValueError("denominator must be positive")
    if math.gcd(numerator, denominator) != 1:
        raise ValueError("fraction not in lowest terms")
    if numerator == 0 or abs(numerator) == denominator:
        raise ValueError("0 and +-1 have no finite power invariant")
    # max(|num|, den) > 1 here, and a k-th power above 1 has more than k bits
    e = next(k for k in range(max(abs(numerator), denominator).bit_length(), 0, -1)
             if all(iroot(v, k) ** k == v for v in (abs(numerator), denominator)))
    if numerator < 0:
        while e % 2 == 0:
            e //= 2
    return EValue.finite(e)


# -- power-residue screen --------------------------------------------------


@lru_cache(maxsize=None)
def _aux_primes(pr: int) -> tuple[int, ...]:
    """Primes q = 1 mod pr below the residue screen's search limit, ascending:
    the progression q = 1 + j pr sieved by the primes up to its square root."""
    top = 200 * pr + 2000
    flags = bytearray([1]) * ((top - 2) // pr + 1)  # flags[j] for q = 1 + j pr < top
    flags[0] = 0
    for ell in primes_upto(math.isqrt(top)):
        if pr % ell:
            j = -pow(pr, -1, ell) % ell  # the least j with ell | 1 + j pr
            if 1 + j * pr == ell:
                j += ell  # ell itself is prime
            flags[j::ell] = bytes(len(range(j, len(flags), ell)))
    return tuple(1 + j * pr for j in compress(range(len(flags)), flags))


def _screen_tries(pr: int) -> int:
    # square testing sees the weakest screen (each aux prime passes half
    # the time), so it gets proportionally more auxiliary primes
    return 8 if pr == 2 else 4


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def _points(q: int, trace: bool) -> np.ndarray:
    """The residue screen's points mod an odd prime q, by the exponent k of
    the least primitive root g: x_k = g^k for k = 0 .. q - 2, or for trace
    y_k = g^k + g^-k for k = 1 .. (q - 3)/2 (at index k - 1), the y with
    roots x, 1/x of t^2 - y t + 1 in F_q* minus +-1, each y once.  Stored
    in the least unsigned dtype that holds q, to keep the cache small."""
    g = primitive_root(q)
    x = np.ones(q - 1, dtype=np.int64)
    n = 1
    while n < q - 1:  # x[n:2n] = g^n x[:n]
        m = min(n, q - 1 - n)
        x[n:n + m] = x[:m] * pow(g, n, q) % q
        n += m
    if trace:
        x = (x[1:(q - 1) // 2] + x[q - 2:(q - 1) // 2:-1]) % q
    return x.astype(np.min_scalar_type(q))


# residues one walk may take in its first round; each round doubles it, up
# to ROUND_RESIDUES_MAX, and a walk always takes at least one q
ROUND_RESIDUES = 128
ROUND_RESIDUES_MAX = 2048
# fresh residues one round may evaluate past its first fresh q, across all
# walks; _points caches only tables of at most twice this many
ROUND_FRESH_RESIDUES = 1 << 16


def _power_residue_rejects(f: IntPoly, levels: dict[int, int]) -> set[int]:
    """The p^r in levels for which some auxiliary prime PROVES that the
    root is not a p^r-th power; levels maps each p^r to its tries.

    Works at degree-1 primes of Q(alpha): a simple root x of f mod q is
    nonzero (q does not divide f(0)) and Hensel-lifts to a root in Z_q,
    embedding Q(alpha) into Q_q with alpha a unit.  A global p^r-th power
    alpha = beta^(p^r) forces beta into Z_q* as well, so x must be a
    p^r-th residue: with q = 1 mod p^r and g a primitive root of q,
    x = g^k is a p^r-th residue iff p^r | k.  So f is evaluated at the
    points of _points(q), ordered by k.  Passes prove nothing (the caller
    still certifies positives); q where f has no simple root do not count.

    Each p^r walks its own _aux_primes(p^r) in ascending order and stops
    once its passes reach its tries.  A q counts one pass when it gives a
    residue root and no rejection, however many roots it gives: the roots
    of a palindromic f come in pairs {x, 1/x} of the same character, so
    counting roots would spend the tries on half as many primes.

    A palindromic f of degree 2m is screened through its trace polynomial
    h (f = t^m h(t + 1/t), degree m) at y_k = g^k + g^-k: a simple root
    y_k of h mod q gives the simple roots g^k, g^-k of f, and the points
    leave out y = +-2 (the double root x = +-1) and every y whose x lie
    outside F_q.  Any other f is screened directly at x_k = g^k.

    The walks advance in rounds.  In each round every live walk takes its
    next auxiliary primes, skipping q | f(0), while the residues of the q
    not yet evaluated fit its budget (at least one q) and the round's
    ROUND_FRESH_RESIDUES; a walk the round's total stops stays live, and
    only its exhausted prime list ends it.  One numpy Horner pass
    evaluates every new q at its points with a per-element modulus; each
    q's simple roots then serve every walk for the rest of the call.  The
    pass reduces mod q only every s steps: from a reduced value, s
    unreduced steps stay below q^(s+1), so s is the largest with
    q_max^(s+1) < 2^62 (at least 1).  Each walk then replays its q in
    ascending order: a rejection ends the walk, a q with a residue root
    counts one pass, and reaching its tries ends the walk and drops the
    rest of its round, so every verdict equals walking the primes one at
    a time.  Coefficients are reduced mod q as Python ints first, since f
    may exceed int64.
    """
    h = trace_reduce(f)
    trace = h is not None
    coeffs = h.coeffs if trace else f.coeffs
    deriv = [i * c for i, c in enumerate(coeffs)][1:]
    f0 = f.coeffs[0]
    # [next q index, passes, budget]
    walks = {pr: [0, 0, ROUND_RESIDUES] for pr, tries in levels.items() if tries > 0}
    roots: dict[int, list[int]] = {}  # q -> exponents k of its simple roots
    rejected: set[int] = set()
    while walks:
        taken: dict[int, list[int]] = {}  # p^r -> its q of this round
        fresh: list[int] = []  # the q this round evaluates
        spare = ROUND_FRESH_RESIDUES
        for pr, walk in list(walks.items()):
            aux, i, room = _aux_primes(pr), walk[0], walk[2]
            qs: list[int] = []
            while i < len(aux):
                q = aux[i]
                size = 0 if q in roots else (q - 3) // 2 if trace else q - 1
                if qs and size > room or fresh and size > spare:
                    break
                i += 1
                if f0 % q:
                    qs.append(q)
                    room -= size
                    if q not in roots:
                        roots[q] = []
                        fresh.append(q)
                        spare = max(spare - size, 0)
            walk[0] = i
            if qs:
                taken[pr] = qs
                walk[2] = min(2 * walk[2], ROUND_RESIDUES_MAX)
            elif i == len(aux):
                del walks[pr]
        if fresh:
            pts = [_points(q, trace) if q <= 2 * ROUND_FRESH_RESIDUES
                   else _points.__wrapped__(q, trace) for q in fresh]
            sizes = [len(x) for x in pts]
            owner = np.repeat(np.arange(len(fresh)), sizes)
            xs = np.concatenate(pts).astype(np.int64)
            mods = np.array(fresh, dtype=np.int64)[owner]
            s = 1
            while max(fresh) ** (s + 2) < 2**62:
                s += 1
            # row k holds coefficient k mod each q; each Horner step gathers
            # one row out to the points
            table = np.array([[c % q for q in fresh] for c in coeffs], dtype=np.int64)
            vals = table[-1][owner]
            for step, row in enumerate(table[-2::-1], 1):
                vals *= xs
                vals += row[owner]
                if step % s == 0 or step == len(table) - 1:
                    np.remainder(vals, mods, out=vals)
            zeros = np.flatnonzero(vals == 0)
            starts = list(accumulate(sizes, initial=0))
            for i, w in zip(zeros.tolist(), owner[zeros].tolist()):
                q, k = fresh[w], i - starts[w]
                if gfp_eval(deriv, int(pts[w][k]), q):
                    roots[q].append(k + 1 if trace else k)
        for pr, qs in taken.items():
            walk = walks[pr]
            for q in qs:
                if any(k % pr for k in roots[q]):
                    rejected.add(pr)
                walk[1] += bool(roots[q])
                if pr in rejected or walk[1] >= levels[pr]:
                    del walks[pr]
                    break
    return rejected


# -- the power test --------------------------------------------------------


def _inflation_factor(f: IntPoly, k: int) -> Optional[IntPoly]:
    """Lexicographically least irreducible factor of f(t^k) of degree deg f,
    or None; one exists exactly when the root of f is a k-th power in its
    field.  The fallback of the root path, and the decider of negatives."""
    cands = [g for g, _ in factor_over_z(f.inflate(k)).factors if g.degree == f.degree]
    return min(cands, key=lambda g: g.coeffs, default=None)


def _root_factor(f: IntPoly, k: int) -> Optional[IntPoly]:
    """_inflation_factor(f, k) from a verified k-th root, or None when the
    root path cannot give it.

    The degree-d factors of f(t^k), d = deg f, are the minimal polynomials
    of the k-th roots of alpha that lie in Q(alpha): zeta beta for the k-th
    roots of unity zeta in Q(alpha).  When those are provably only +-1
    (nfroot.roots_of_unity_are_signs: an odd d, or a residue field
    F_(q^(d_i)) with q not dividing k and gcd(k, q^(d_i) - 1) <= 2), the
    factors are g(t), the minimal polynomial of beta, and, for even k,
    (-1)^d g(-t), that of -beta.
    """
    root = power_root(f, k)
    if root is None or not roots_of_unity_are_signs(f, k):
        return None
    return _least_twin(minimal_polynomial(f, root), k)


def _least_twin(g: IntPoly, k: int) -> IntPoly:
    """The witness factor a k-th root's minimal polynomial g stands for: g
    itself for odd k, and for even k the lesser by coefficients of g(t)
    and (-1)^(deg g) g(-t), the minimal polynomial of the negated root."""
    if k % 2:
        return g
    d = g.degree
    return min(g, IntPoly(tuple((-1) ** (d - i) * c for i, c in enumerate(g.coeffs))),
               key=lambda w: w.coeffs)


def power_index(f: IntPoly, p: int, max_r: Optional[int] = None, *,
                _screened: int = 0) -> int:
    """Largest r with f(t^(p^r)) having an integer factor of degree deg f.

    Monotone in r (a p^(r+1)-th power is a p^r-th power), so the loop stops
    at the first failure.  Each level first tries the sound rejection of
    the power-residue screen _power_residue_rejects with the single entry
    p^r; a level it passes is settled by a verified p^r-th root
    (nfroot.power_root) when the lift finds one, and otherwise by the
    mod-p factor degree sums and then a full factorization of the
    inflation; levels up to _screened skip the screen, which the caller
    has run.  Requires f irreducible, primitive, non-cyclotomic,
    degree >= 2; cyclotomic f raises ValueError, because Phi_m(t^(p^r))
    has the factor Phi_m at every r when p does not divide m, and the
    unbounded loop would never stop.
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if cyclotomic_tag(f) is not None:
        raise ValueError("power_index is undefined for cyclotomic input")
    d = f.degree
    r = 0
    while max_r is None or r < max_r:
        rn = r + 1
        pr = p**rn
        if rn > _screened and _power_residue_rejects(f, {pr: _screen_tries(pr)}):
            break
        if power_root(f, pr) is None and (
                not degree_set_filter(f.inflate(pr), d)
                or _inflation_factor(f, pr) is None):
            break
        r = rn
    return r


# one entry per distinct factor; bounded like factor_over_z's memo, so a
# deep survey does not grow it without end
@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def e_of_irreducible(f: IntPoly, mode: BoundMode = BoundMode.HEURISTIC) -> EValue:
    """E invariant of the root of an irreducible primitive polynomial.

    Cyclotomic factors get the zero marker; degree 1 goes through rational
    arithmetic; otherwise E multiplies p^power_index(f, p) over primes up
    to the Mahler prime bound and the result is certified by a verified
    E-th root of the root of f (nfroot.power_root), or failing that by a
    factor of degree deg f of f(t^E).  One batched residue screen
    first tests every such p at level 1, and power_index runs, without
    that screen again, only for the p it does not reject (r = 0 for the rest).
    """
    d = f.degree
    m = cyclotomic_tag(f)
    if m is not None:
        return EValue.cyclotomic_zero(m)
    if d == 1:
        if f[0] == 0:
            raise ValueError("t has no power invariant; strip it first")
        # the root -f0/f1, passed with a positive denominator
        return rational_power_index(-f[0] if f[1] > 0 else f[0], abs(f[1]))
    bound = prime_bound(f, mode)
    primes = primes_upto(bound)
    rejected = _power_residue_rejects(f, {p: _screen_tries(p) for p in primes})
    e = 1
    for p in primes:
        if p in rejected:
            continue
        max_r = 0
        while p ** (max_r + 1) <= bound:
            max_r += 1
        e *= p ** power_index(f, p, max_r=max_r, _screened=1)
    if e > 1 and power_root(f, e) is None and _inflation_factor(f, e) is None:
        raise AssertionError(f"E certification failed for {f} at E={e}")
    return EValue.finite(e)


# -- profiles --------------------------------------------------------------


@dataclass(frozen=True)
class HartleyProfile:
    """Prime-wise caps deciding every n at once.

    caps holds the primes whose cap differs from default_cap; default_cap
    is 0 when a non-cyclotomic factor is present (finitely many n) and
    None, no cap, for pure cyclotomic products.  Every cap in caps is an
    integer: each listed prime divides a cyclotomic order or some a_i E_i,
    and that factor bounds it.  factor_data keeps the
    (factor, multiplicity, EValue) triples for audit; t_power records a
    stripped power of t (no constraint: t^n = +-prod zeta^i t).
    e_gcd_literal is gcd(a_i E_i) over non-cyclotomic factors (0 if none),
    the flat formula; it can disagree with the caps for mixed cyclotomic /
    non-cyclotomic input.
    """

    caps: tuple[tuple[int, int], ...]
    default_cap: Optional[int]
    factor_data: tuple[tuple[IntPoly, int, EValue], ...]
    t_power: int
    e_gcd_literal: int

    @property
    def n_cap_product(self) -> Optional[int]:
        """prod p^cap(p) when finite (default_cap 0), else None."""
        if self.default_cap != 0:
            return None
        out = 1
        for p, c in self.caps:
            out *= p**c
        return out


def _s_value(ev: EValue, p: int) -> Optional[int]:
    """s_i(p): v_p(E) for non-cyclotomic; None (no cap) or 0 for Phi_m by
    whether p divides m."""
    if ev.is_cyclotomic:
        return 0 if ev.cyclotomic_order % p == 0 else None
    return v_p(ev.e, p)


def profile_from_factors(
    factors: list[tuple[IntPoly, int]],
    mode: BoundMode = BoundMode.HEURISTIC,
    t_power: int = 0,
) -> HartleyProfile:
    """Assemble a profile from an already-known irreducible factorization."""
    data = []
    for f, a in factors:
        data.append((f, a, e_of_irreducible(f, mode)))
    noncyclo = [(f, a, ev) for f, a, ev in data if not ev.is_cyclotomic]
    default_cap = 0 if noncyclo else None
    candidates: set[int] = set()
    for f, a, ev in data:
        if ev.is_cyclotomic:
            candidates.update(factorint(ev.cyclotomic_order))
        else:
            candidates.update(factorint(a * ev.e).keys())
    caps: list[tuple[int, int]] = []
    for p in sorted(candidates):
        c = min((v_p(a, p) + s for _, a, ev in data
                 if (s := _s_value(ev, p)) is not None), default=None)
        if c != default_cap:
            caps.append((p, c))
    e_gcd = math.gcd(*(a * ev.e for _, a, ev in noncyclo)) if noncyclo else 0
    return HartleyProfile(
        caps=tuple(caps),
        default_cap=default_cap,
        factor_data=tuple(data),
        t_power=t_power,
        e_gcd_literal=e_gcd,
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
    return profile_from_factors(rest, mode, t_power=t_pow)


def is_n_hartley(profile: HartleyProfile, n: int) -> bool:
    """True iff v_p(n) <= cap(p) for every prime p dividing n.

    Decided without factoring n: a finite profile passes exactly the
    divisors of its cap product, an infinite one bounds only the primes
    in its caps.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    big = profile.n_cap_product
    if big is not None:
        return big % n == 0
    return all(v_p(n, p) <= c for p, c in profile.caps)


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

    def as_json(self) -> dict:
        return {"finite": self.finite, "members": list(self.members),
                "rule": self.rule}


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
            parts.append(f"v_{p}(n) <= {c}")
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


# power sums one rotation product may build: d * n of them, which for a
# cyclotomic witness of degree 2 still admits n = 1000003
VERIFY_POWER_SUMS = 4_000_000


def _cyclotomic_rotation_product(g: IntPoly, n: int) -> Optional[IntPoly]:
    """lc^n * prod_beta (x - beta^n) when g = +-t^a prod Phi_j^(e_j), else None.

    With k = gcd(j, n), the n-th powers of the primitive j-th roots cover
    the primitive (j/k)-th roots phi(j)/phi(j/k) times each, so Phi_j
    contributes Phi_(j/k)^(phi(j)/phi(j/k)); t contributes t, since its
    root 0 stays 0.  No power sums: the cost does not grow with n.
    """
    fac = factor_over_z(g)
    if fac.content != 1:
        return None
    out = IntPoly.constant(fac.sign**n)
    for f, a in fac.factors:
        if f == IntPoly.x():
            out = out * f**a
            continue
        j = cyclotomic_tag(f)
        if j is None:
            return None
        k = math.gcd(j, n)
        out = out * cyclotomic(j // k) ** (a * euler_phi(j) // euler_phi(j // k))
    return out


def rotation_product_deflated(g: IntPoly, n: int) -> IntPoly:
    """R with prod_{i<n} g(zeta_n^i t) = ((-1)^(n-1))^(deg g) * R(t^n).

    R(x) = lc^n * prod_beta (x - beta^n) over the roots beta of g.  The
    monic integer polynomial lc^(d-1) * g(x / lc) has roots lc * beta; the
    k-th power sum of the (lc * beta)^n is its (kn)-th power sum, and
    Newton's identities turn those into the elementary symmetric functions
    e_j of the (lc * beta)^n.  R's coefficient of x^(d-j) is then
    (-1)^j * e_j * lc^n / lc^(nj).  Exact integer arithmetic; raises on the
    impossible case of a non-integral coefficient.  When d * n exceeds
    VERIFY_POWER_SUMS, a product of t and cyclotomic factors takes the closed
    form of _cyclotomic_rotation_product and any other g raises ValueError.
    """
    if not g:
        return IntPoly.zero()
    d = g.degree
    lc = g.lc
    if d == 0:
        return IntPoly.constant(lc**n)
    if d * n > VERIFY_POWER_SUMS:
        closed = _cyclotomic_rotation_product(g, n)
        if closed is not None:
            return closed
        raise ValueError(f"witness verification at degree {d}, n = {n} needs"
                         f" {d * n} power sums, over {VERIFY_POWER_SUMS}")
    monic = tuple(c * lc ** (d - 1 - i) for i, c in enumerate(g.coeffs[:d])) + (1,)
    s = power_sums_monic(monic, d * n)
    e = elementary_symmetric([s[k * n] for k in range(1, d + 1)])
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
    """s = prod_p p^min(s_i(p), v_p(n)) for the factor's rule: gcd(E, n)
    for a non-cyclotomic factor, n with every prime of m divided out for
    Phi_m."""
    if not ev.is_cyclotomic:
        return math.gcd(ev.e, n)
    s = n
    while (g := math.gcd(s, ev.cyclotomic_order)) > 1:
        s //= g
    return s


def construct_witness(
    delta: IntPoly, n: int, mode: BoundMode = BoundMode.HEURISTIC
) -> WitnessCertificate:
    """Build and verify a witness g for an n-Hartley delta.

    Per irreducible-power factor f^a: with s the matched part of n, a
    degree-(deg f) irreducible factor w of f(t^s) exists, the least one
    (from an s-th root by _root_factor, else by factoring); its inflation
    w(t^(n/s)) raised to a*s/n (an integer by the cap condition) is the
    factor's contribution.  Cyclotomic factors take the closed-form route:
    the degree-phi(m) factors of Phi_m(t^s) are Phi_m and, for even s (so
    odd m), its twin Phi_2m, or Phi_2 for m = 1, and _least_twin picks the
    least.  The certificate's sign comes from exact verification.
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
            w = _least_twin(cyclotomic(ev.cyclotomic_order), s)
        else:
            w = _root_factor(f, s) or _inflation_factor(f, s)
            if w is None:
                raise AssertionError(f"guaranteed degree-{f.degree} factor missing for {f}")
        g = g * w.inflate(n // s) ** exp
    holds, sign = verify_witness(delta, n, g)
    if not holds:
        raise AssertionError("constructed witness failed verification")
    return WitnessCertificate(n=n, witness=g, sign=sign, verified=True)


# -- Alexander normal form -------------------------------------------------


def normalize_alexander(poly: IntPoly) -> IntPoly:
    """The Alexander normal form of poly: the t^k unit stripped and the
    constant term positive.  Raises ValueError unless the value at 1 is
    +-1 and the result is palindromic up to sign."""
    if not poly:
        raise ValueError("zero polynomial")
    poly = poly.shift_down(poly.order_at_zero())
    if poly[0] < 0:
        poly = -poly
    if poly(1) not in (1, -1):
        raise ValueError(f"value at 1 is {poly(1)}, not +-1")
    if not poly.is_palindromic_up_to_sign():
        raise ValueError("not palindromic up to sign")
    return poly
