"""k-th roots in a number field Q(alpha) by q-adic Newton lifting.

For f irreducible with root alpha, alpha is a k-th power in Q(alpha)
exactly when some h in Q[x] of degree < deg f has h^k = x modulo f; then
beta = h(alpha) is a k-th root of alpha.  power_root looks for h without
factoring f(t^k):

1. Walk zfactor.good_primes(f), the odd primes q not dividing lc(f) with
   f mod q squarefree, past those dividing k f(0), PRIME_TRIES of them at
   most.  At such q, Z_q[x]/(f) is a product of unramified rings whose
   residue fields F_q[x]/(f_i), one per irreducible factor f_i of f mod q,
   have order q^(d_i), and x is a unit in each.
2. Take k-th roots of x in each field.  The k-th roots of a k-th power
   form a coset of the gcd(k, q^(d_i) - 1)-th roots of unity: one root
   comes from one exponentiation on the part of the group prime to k and
   a Pohlig-Hellman discrete log on each Sylow part (Cohen, *A Course in
   Computational Algebraic Number Theory*, 1.4-1.6).  A root is unique
   when gcd(k, q^(d_i) - 1) = 1; otherwise the image of a global root is
   one of the combinations, and for even k the sign in the first field is
   fixed, since -beta is a root whenever beta is.  q is the first prime
   that leaves at most CHOICE_LIMIT combinations.
3. Combine the fields' roots by the Chinese remainder theorem, Newton-lift
   each combination in Z/q^(2^j) (von zur Gathen and Gerhard, *Modern
   Computer Algebra*, ch. 9) and rationally reconstruct h with one common
   denominator (ch. 5), doubling the precision up to _precision_cap(f).
4. Return h only when h^k = x modulo f holds exactly in Z[x], with powers
   of lc(f) for a non-monic f.  That identity is the certificate.

Every other outcome (no usable q, a field where x has no k-th root, a
reconstruction that never verifies) returns None, which proves nothing:
the caller decides by factoring.  No bound on the height of h is used, so
a failed lift does not show that alpha is not a k-th power.

minimal_polynomial turns a root into the minimal polynomial of h(alpha)
from exact power sums in Q[x]/(f), and roots_of_unity_are_signs decides
from residue degrees when the k-th roots of unity in Q(alpha) are only
+-1.  The arithmetic is the package's: modpoly's quotient ring Quotient
at q and at q^(2^j), and intpoly.pseudo_rem for the exact identities in
Z[x].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, product
from typing import Iterator, Optional

from .cyclotomic import factorint, primitive_root, v_p
from .intpoly import IntPoly, elementary_symmetric, power_sums_monic, pseudo_rem
from .modpoly import (
    Quotient,
    distinct_degree_split,
    factor_squarefree_mod_p,
    gfp_add,
    gfp_divmod,
    gfp_extgcd,
    gfp_mod,
    gfp_monic,
    gfp_mul,
    gfp_sub,
    reduce_mod_p,
)
from .zfactor import _FACTOR_CACHE_SIZE, gcd_z, good_primes

# primes q examined for the lift, and the root combinations one q may
# leave to it
PRIME_TRIES = 4
CHOICE_LIMIT = 4


@dataclass(frozen=True)
class KthRoot:
    """h = num / den with h^k = x modulo f, verified exactly.

    q is the prime the root was lifted at and degrees the degrees d_i of
    the irreducible factors of f mod q, the residue degrees above q.
    """

    num: IntPoly
    den: int
    q: int
    degrees: tuple[int, ...]


# -- the residue fields ----------------------------------------------------


def _element(t: int, q: int) -> list[int]:
    """The t-th polynomial over F_q: the base-q digits of t."""
    out = []
    while t:
        t, c = divmod(t, q)
        out.append(c)
    return out


def _log(b: list[int], z: list[int], order: int, F: Quotient) -> int:
    """j with z^j = b, for z of the given order and b a power of z
    (Pohlig-Hellman: one base-p digit per step in each Sylow part, and
    the Chinese remainder theorem across them)."""
    j, mod = 0, 1
    for p, v in factorint(order).items():
        pv = p**v
        zp, bp = F.pow(z, order // pv), F.pow(b, order // pv)
        gamma = F.pow(zp, pv // p)  # of order p
        digit = {}
        acc = [1]
        for c in range(p):
            digit[tuple(acc)] = c
            acc = F.mul(acc, gamma)
        zinv = F.pow(zp, pv - 1)
        jp = 0
        for i in range(v):
            h = F.mul(bp, F.pow(zinv, jp))
            jp += digit[tuple(F.pow(h, pv // p ** (i + 1)))] * p**i
        j += mod * ((jp - j) * pow(mod, -1, pv) % pv)
        mod *= pv
    return j


def _subgroup_generator(F: Quotient, q: int, n: int, t: int, primes: list[int]) -> list[int]:
    """A generator of the cyclic subgroup of order t of the field F with n + 1
    elements, t made of the given primes: g^((q-1)/t), g the primitive root
    of q, when t | q - 1; else w^(n/t) for the first w past F_q (which holds
    no generator), in the order of _element, for which it has order t."""
    if (q - 1) % t == 0:
        return [pow(primitive_root(q), (q - 1) // t, q)]
    c = q
    while True:
        z = F.pow(_element(c, q), n // t)
        if all(F.pow(z, t // p) != [1] for p in primes):
            return z
        c += 1


def field_roots(a: list[int], k: int, u: list[int], q: int) -> list[list[int]]:
    """All k-th roots of the unit a in the field F_q[x]/(u), u monic
    irreducible; [] when a is not a k-th power there.

    Write the group order n = q^deg(u) - 1 as s t, with t the part of n
    made of the primes of g = gcd(k, n) and s prime to k (Adleman, Manders
    and Miller's generalisation of Tonelli-Shanks).  y = a^(k^-1 mod s)
    has y^k = a b with b = a^(k (k^-1 mod s) - 1) of order dividing t.  In
    the cyclic subgroup of order t, generated by z, b = z^j; a is a k-th
    power exactly when g divides j, and then y z^i with k i = -j modulo t
    is a root.  The roots are that root times the g-th roots of unity, the
    powers of z^(t/g).
    """
    F = Quotient(u, q)
    n = q ** (len(u) - 1) - 1
    g = math.gcd(k, n)
    primes = list(factorint(g))
    t = math.prod(p ** v_p(n, p) for p in primes)
    y = F.pow(a, pow(k, -1, n // t))
    if g == 1:
        return [y]
    _, ainv, _ = gfp_extgcd(a, u, q)
    z = _subgroup_generator(F, q, n, t, primes)
    j = _log(F.mul(F.pow(y, k), ainv), z, t, F)
    if j % g:
        return []
    y = F.mul(y, F.pow(z, -j // g * pow(k // g, -1, t // g) % (t // g)))
    zeta = F.pow(z, t // g)
    roots = [y]
    for _ in range(g - 1):
        roots.append(F.mul(roots[-1], zeta))
    return roots


# -- choosing q ------------------------------------------------------------


def _primes(f: IntPoly, k: int) -> Iterator[int]:
    """The primes of zfactor.good_primes(f) that divide neither k nor f(0)."""
    return (q for q in good_primes(f) if k * f[0] % q)


def _splitting(f: IntPoly, k: int, q: int):
    """(blocks, choices) at a prime q of _primes: blocks is the
    distinct-degree split of f mod q (pairs (product of the degree-D
    factors, D)), choices the number of root combinations it leaves,
    prod gcd(k, q^D - 1) over the factors, halved for even k (see
    _pieces)."""
    blocks = distinct_degree_split(gfp_monic(reduce_mod_p(f.coeffs, q), q), q)
    choices = math.prod(math.gcd(k, q**D - 1) ** ((len(v) - 1) // D) for v, D in blocks)
    return blocks, choices // (2 - k % 2)


def _pieces(blocks, k: int, q: int) -> list[tuple[list[int], list[list[int]]]]:
    """(v, roots) with v | f mod q monic and roots the candidate roots of
    x modulo v, one choice per piece being the image of a global root; []
    when some field has no k-th root of x, which proves that alpha is not
    a k-th power.

    A block whose degree D has gcd(k, q^D - 1) = 1 is one piece with the
    one root x^(k^-1 mod q^D - 1); any other block is split into its
    irreducible factors, one piece each.  For even k the first piece keeps
    one root of each pair +-y, since -beta is a root when beta is.
    """
    pieces = []
    for v, D in blocks:
        n = q**D - 1
        if math.gcd(k, n) == 1:
            pieces.append((v, [Quotient(v, q).pow(gfp_mod([0, 1], v, q), pow(k, -1, n))]))
            continue
        for u in factor_squarefree_mod_p(v, q) if len(v) - 1 > D else [v]:
            roots = field_roots(gfp_mod([0, 1], u, q), k, u, q)
            if not roots:
                return []
            pieces.append((u, roots))
    if k % 2 == 0:
        v, roots = pieces[0]
        pieces[0] = (v, roots[: len(roots) // 2])  # zeta^(g/2) = -1
    return pieces


def _crt_starts(pieces, q: int) -> list[list[int]]:
    """Every combination of one root per piece, as one residue modulo the
    product of the pieces (b_i = 1 modulo piece i, 0 modulo the others)."""
    whole = [1]
    for v, _ in pieces:
        whole = gfp_mul(whole, v, q)
    basis = []
    for v, _ in pieces:
        cof = gfp_divmod(whole, v, q)[0]
        _, s, _ = gfp_extgcd(gfp_mod(cof, v, q), v, q)
        basis.append(gfp_mod(gfp_mul(s, cof, q), whole, q))
    starts = []
    for choice in product(*(roots for _, roots in pieces)):
        y: list[int] = []
        for r, b in zip(choice, basis):
            y = gfp_add(y, gfp_mul(r, b, q), q)
        starts.append(gfp_mod(y, whole, q))
    return starts


# -- lifting, reconstruction, certificate ----------------------------------


def _ratrecon(r: int, m: int, bound: int) -> Optional[tuple[int, int]]:
    """a/b = r modulo m with |a| <= bound and 0 < b <= bound, or None."""
    r0, r1, s0, s1 = m, r % m, 0, 1
    while r1 > bound:
        quo = r0 // r1
        r0, r1, s0, s1 = r1, r0 - quo * r1, s1, s0 - quo * s1
    if s1 == 0 or abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


# bits of slack the reconstruction bounds leave: a residue vector that is
# not rational passes with probability about 2^-SLACK_BITS per coefficient
SLACK_BITS = 8


def _reconstruct(y: list[int], d: int, m: int) -> Optional[tuple[list[int], int]]:
    """Numerators and one denominator of a rational vector congruent to y
    modulo m, or None.  Each coefficient is first multiplied by the
    denominator found so far, so only new denominator factors are sought."""
    bound = math.isqrt(m >> (2 * SLACK_BITS + 1))
    nums: list[int] = []
    den = 1
    for c in y + [0] * (d - len(y)):
        got = _ratrecon(c * den % m, m, bound)
        if got is None:
            return None
        a, b = got
        if b > 1:
            nums = [x * b for x in nums]
            den *= b
            if den > bound:
                return None
        nums.append(a)
    return nums, den


def _is_root(nums: list[int], den: int, k: int, f: IntPoly) -> bool:
    """The certificate: (nums / den)^k = x modulo f, exactly, by
    pseudo-remainders: out and base stand for lc(f)^-eo out and
    lc(f)^-eb base."""
    out, eo = IntPoly.one(), 0
    base, eb = IntPoly(tuple(nums)), 0
    e = k
    while True:
        if e & 1:
            out, ej = pseudo_rem(out * base, f)
            eo += eb + ej
        e >>= 1
        if not e:
            break
        base, ej = pseudo_rem(base * base, f)
        eb = 2 * eb + ej
    # out / lc^eo = den^k x
    return out == IntPoly((0, den**k * f.lc**eo))


def _precision_cap(f: IntPoly) -> int:
    """Bits of q-adic precision past which the lift gives up: 64 plus
    twice the bits of Hadamard's bound d^d ||f||_2^(2d-2) on |disc f|.

    h's denominator divides the index of Z[alpha] in the ring of integers,
    whose square divides disc f, and reconstruction needs about twice the
    bits of h's largest numerator or denominator.  The cap is a stopping
    rule for this heuristic size of h, not a bound on it.
    """
    d = f.degree
    return 2 * (d * d.bit_length() + (d - 1) * f.l2_norm_sq().bit_length()) + 64


def _lift(f: IntPoly, k: int, q: int, starts: list[list[int]]) -> Optional[tuple[list[int], int]]:
    """Newton-lift each start y (y^k = x modulo f and q) in Z/q^(2^j), all
    in step, and return the first reconstruction that is a root.

    Newton's step for Y^k = x is Y + (x - Y^k) / (k Y^(k-1)), and
    Y / (k x) stands in for 1 / (k Y^(k-1)), which it equals modulo the
    old precision: Y + Y (1 - Y^k / x) / k.  Dividing by x modulo f is
    O(deg f): z = z0 + x z' gives z / x = z' + z0 x^-1, with
    x^-1 = -(f - f(0)) / (x f(0)) modulo f.
    """
    d, cap = f.degree, _precision_cap(f)
    ys = list(starts)
    m = q
    while m.bit_length() <= cap:
        m *= m
        R = Quotient(reduce_mod_p(f.coeffs, m), m)
        f0inv, kinv = pow(f[0], -1, m), pow(k, -1, m)
        xinv = [-c * f0inv % m for c in f.coeffs[1:]]
        for i, y in enumerate(ys):
            z = R.pow(y, k) + [0] * d
            z = [(a + z[0] * b) % m for a, b in zip(z[1:], xinv)]  # Y^k / x
            z = gfp_sub(y, R.mul(y, z), m)
            ys[i] = gfp_add(y, [c * kinv % m for c in z], m)
        if m.bit_length() <= 2 * SLACK_BITS + 8:
            continue
        for y in ys:
            got = _reconstruct(y, d, m)
            if got is not None and _is_root(*got, k, f):
                return got
    return None


@lru_cache(maxsize=_FACTOR_CACHE_SIZE)
def power_root(f: IntPoly, k: int) -> Optional[KthRoot]:
    """A verified h with h(alpha)^k = alpha in Q(alpha), or None.

    f is irreducible and primitive, and k >= 1; f of degree < 2, with
    f(0) = 0 or with a repeated factor (where the walk of good primes
    would not end) gets None.  None proves nothing (see the module
    docstring).
    Memoized like factor_over_z: power_index, the E certification and the
    witness ask for the same roots.
    """
    if f.degree < 2 or f[0] == 0 or gcd_z(f, f.derivative()).degree:
        return None
    for q in islice(_primes(f, k), PRIME_TRIES):
        blocks, choices = _splitting(f, k, q)
        if choices <= CHOICE_LIMIT:
            break
    else:
        return None
    pieces = _pieces(blocks, k, q)
    got = _lift(f, k, q, _crt_starts(pieces, q)) if pieces else None
    if got is None:
        return None
    degrees = tuple(sorted(D for v, D in blocks for _ in range((len(v) - 1) // D)))
    return KthRoot(IntPoly(tuple(got[0])), got[1], q, degrees)


def minimal_polynomial(f: IntPoly, root: KthRoot) -> IntPoly:
    """The primitive, positive-lc minimal polynomial of beta = h(alpha).

    beta generates Q(alpha), since beta^k = alpha, so its characteristic
    polynomial is minimal.  With l = lc(f), gamma = l alpha is a root of
    the monic F = l^(d-1) f(t / l), and B = l^(d-1) num(alpha) is in
    Z[gamma] with beta = B / (l^(d-1) den).  The power sums Tr(B^j),
    j <= d, pair the coefficients of B^j modulo F with the traces
    Tr(gamma^i), Newton's identities turn them into the integer
    elementary symmetric functions e_j of B's conjugates, and
    prod (l^(d-1) den t - B_i) has coefficient (-1)^j e_j (l^(d-1) den)^(d-j)
    at t^(d-j).
    """
    a = f.coeffs
    d, lc = len(a) - 1, a[-1]
    monic = IntPoly(tuple(c * lc ** (d - 1 - i) for i, c in enumerate(a[:d])) + (1,))
    b = IntPoly(tuple(c * lc ** (d - 1 - i) for i, c in enumerate(root.num.coeffs)))
    den = root.den * lc ** (d - 1)
    traces = power_sums_monic(monic.coeffs, d - 1)
    traces[0] = d
    cur = IntPoly.one()
    sums = []
    for _ in range(d):
        cur = pseudo_rem(cur * b, monic)[0]
        sums.append(sum(c * t for c, t in zip(cur.coeffs, traces)))
    e = elementary_symmetric(sums)
    g = IntPoly(tuple((-1) ** j * e[j] * den ** (d - j) for j in range(d, -1, -1)))
    return IntPoly(tuple(c // g.content() for c in g.coeffs))


def roots_of_unity_are_signs(f: IntPoly, k: int, root: KthRoot) -> bool:
    """True when Q(alpha) provably holds no k-th root of unity but +-1.

    Those of Q(alpha) embed into every residue field F_(q^(d_i)) at a
    prime q of _primes (q divides neither k nor lc(f), and f mod q is
    squarefree), so one such field with gcd(k, q^(d_i) - 1) <= 2 proves
    it; so does an odd degree, which gives Q(alpha) a real embedding.
    The root's own q is read first, then up to PRIME_TRIES other primes
    of the walk.
    """
    if f.degree % 2 or any(math.gcd(k, root.q**D - 1) <= 2 for D in root.degrees):
        return True
    others = (q for q in _primes(f, k) if q != root.q)
    return any(any(math.gcd(k, q**D - 1) <= 2 for _, D in _splitting(f, k, q)[0])
               for q in islice(others, PRIME_TRIES))
