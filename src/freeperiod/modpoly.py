"""Polynomial arithmetic over Z/m and factorization over prime fields F_p,
and the package's one prime source: is_prime for single tests, and
primes_upto and primes, read off one cached sieve, for every prime walk.

Coefficient vectors are plain Python lists of residues in [0, m), ascending,
trimmed.  That is the contract of every kernel here, and the packed
products below rely on it: a slot sized for residues would carry into its
neighbour on a larger input.  gfp_mul, gfp_add, gfp_sub, gfp_divmod,
gfp_mod, gfp_monic and the quotient ring Quotient take any modulus m, as
long as every divisor (and every input to gfp_monic, every Quotient
modulus) has a leading coefficient that is a unit mod m; Hensel lifting,
Zassenhaus recombination and nfroot's q-adic lift run on them with
m = p^l.  Everything else (gcds, derivative, evaluation, the distinct-
and equal-degree splits) needs m prime.  All arithmetic is on Python
integers.  gfp_mul is one Kronecker product (each operand packed into one
integer, one multiply, one unpack) at every size and modulus, and
gfp_divmod one schoolbook loop.  Quotient.reduce is the one fold of a
packed product modulo u, through packed rows x^(n+i) mod u; Quotient's
products and powers and the Frobenius rows below are built on it.  The
distinct-degree split uses the Frobenius map h -> h^p, which is
F_p-linear: it packs each row x^(ip) mod v into one integer once per
input (the rows of Berlekamp's Q-matrix) and then advances one degree as
the sum of h_i times row i and one unpack, in place of repeated squaring
(von zur Gathen and Shoup, Comput. Complexity 2, 1992).  Equal-degree
splitting and the quadratic-character test has_nonsquare_factor take
(p^k - 1)/2 powers from the same rows, as products of Frobenius images of
a (p - 1)/2 power, so the equal-degree split (factor_squarefree_mod_p)
needs an odd p.  It is randomized but seeded from a hash of the input, so
factorizations are reproducible.  gf2_degree_pattern works over F_2 on
its own representation, one Python int per polynomial; zfactor uses it
as a sieve only.
"""

from __future__ import annotations

import hashlib
import math
import random
from functools import lru_cache
from itertools import compress
from typing import Iterator

# -- primality -------------------------------------------------------------

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# the least strong pseudoprime to all of _MR_BASES (Sorenson and Webster)
PRIME_PROOF_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for n < PRIME_PROOF_LIMIT."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=1)
def _sieve(bits: int) -> bytes:
    """Primality flags of 0 .. 2^bits - 1 (Eratosthenes)."""
    flags = bytearray([1]) * (1 << bits)
    flags[:2] = b"\0\0"
    for p in range(2, math.isqrt(len(flags) - 1) + 1):
        if flags[p]:
            flags[p * p::p] = bytes(len(range(p * p, len(flags), p)))
    return bytes(flags)


def primes_upto(n: int) -> list[int]:
    """The primes p <= n, ascending, from one sieve of at least 2^16."""
    return list(compress(range(n + 1), _sieve(max(n.bit_length(), 16))))


def primes(start: int = 2) -> Iterator[int]:
    """The primes p >= start, ascending, without end: the 2^16 sieve's,
    read in place, then is_prime's on the odd numbers past it."""
    flags = memoryview(_sieve(16))
    start = max(start, 0)
    yield from compress(range(start, len(flags)), flags[start:])
    k = max(start, len(flags)) | 1
    while True:
        if is_prime(k):
            yield k
        k += 2


# -- kernel helpers --------------------------------------------------------


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _pack(c: list[int], w: int) -> int:
    """c as one integer, coefficient i in bits [i w, (i + 1) w)."""
    x = 0
    for a in reversed(c):
        x = (x << w) | a
    return x


def _unpack(x: int, w: int, count: int, m: int) -> list[int]:
    """The first count w-bit slots of x, each reduced mod m, trimmed."""
    mask = (1 << w) - 1
    out = []
    for _ in range(count):
        out.append((x & mask) % m)
        x >>= w
    return _trim(out)


def gfp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    """Product in (Z/m)[t], by Kronecker substitution.

    Each coefficient of the product over Z is a sum of min(len a, len b)
    products of residues below m, so slots of 2 bitlen(m - 1) +
    bitlen(min(len a, len b)) bits hold it without carries, and one
    integer multiply does the convolution.
    """
    if not a or not b:
        return []
    w = 2 * (m - 1).bit_length() + min(len(a), len(b)).bit_length()
    return _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1, m)


def gfp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder in (Z/m)[t]; lc(b) must be a unit mod m."""
    if not b:
        raise ZeroDivisionError("mod-m division by zero polynomial")
    if len(a) < len(b):
        return [], _trim([c % m for c in a])
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    rem = list(a)
    q = [0] * (len(a) - db)
    for k in range(len(q) - 1, -1, -1):
        c = rem[k + db] * inv % m
        q[k] = c
        if c:
            for j, bj in enumerate(b):
                if bj:
                    rem[k + j] = (rem[k + j] - c * bj) % m
    return _trim(q), _trim(rem[:db])


def gfp_mod(a: list[int], b: list[int], m: int) -> list[int]:
    return gfp_divmod(a, b, m)[1]


def gfp_monic(a: list[int], m: int) -> list[int]:
    if not a or a[-1] == 1:
        return list(a)
    inv = pow(a[-1], -1, m)
    return [c * inv % m for c in a]


def gfp_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd in F_p[t]."""
    a, b = list(a), list(b)
    while b:
        a, b = b, gfp_mod(a, b, p)
    return gfp_monic(a, p)


def gfp_extgcd(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int], list[int]]:
    """Monic g = gcd(a, b) plus s, t with s*a + t*b = g in F_p[t]."""
    r0, r1 = list(a), list(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = gfp_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, gfp_sub(s0, gfp_mul(q, s1, p), p)
        t0, t1 = t1, gfp_sub(t0, gfp_mul(q, t1, p), p)
    if r0 and r0[-1] != 1:
        inv = pow(r0[-1], -1, p)
        r0 = [c * inv % p for c in r0]
        s0 = [c * inv % p for c in s0]
        t0 = [c * inv % p for c in t0]
    return r0, s0, t0


def gfp_add(a: list[int], b: list[int], m: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % m
    return _trim(out)


def gfp_sub(a: list[int], b: list[int], m: int) -> list[int]:
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % m
    return _trim(out)


def gfp_deriv(a: list[int], p: int) -> list[int]:
    return _trim([i * c % p for i, c in enumerate(a)][1:])


def gfp_eval(a: list[int], x: int, p: int) -> int:
    acc = 0
    for c in reversed(a):
        acc = (acc * x + c) % p
    return acc


def reduce_mod_p(coeffs, p: int) -> list[int]:
    """Reduce an integer coefficient vector into F_p[t] form."""
    return _trim([c % p for c in coeffs])


# -- the quotient ring (Z/m)[x]/(u) ----------------------------------------


class Quotient:
    """(Z/m)[x]/(u) for u of degree n >= 1 with a unit leading coefficient.

    Elements are residue lists of length <= n.  A product is one packed
    multiply (gfp_mul's Kronecker slots) whose slots above degree n - 1
    fold back through the packed rows x^(n+i) mod u (reduce), so a
    reduction costs O(n) big-integer operations instead of a division's
    O(n^2).  The rows are built as far as the largest spill seen.  Slots
    of w = 2 bitlen(m - 1) + bitlen(2n) bits hold the up to 2n - 1
    products of residues that a folded slot sums.

    >>> R = Quotient([1, 1, 1], 5)  # F_5[x]/(x^2 + x + 1)
    >>> R.mul([0, 1], [0, 1]), R.pow([0, 1], 3)
    ([4, 4], [1])
    """

    def __init__(self, u: list[int], m: int):
        n = len(u) - 1
        self.m, self.n = m, n
        self.w = 2 * (m - 1).bit_length() + (2 * n).bit_length()
        inv = pow(u[-1], -1, m)
        self._first = self._next = [-c * inv % m for c in u[:n]]  # x^n mod u
        self._rows: list[int] = []  # x^(n+i) mod u, packed

    def reduce(self, c: int, spill: int) -> list[int]:
        """The residues modulo u of the packed c, whose top slot is
        n - 1 + spill: the spill slots above n - 1 times their rows,
        added to the n slots below."""
        n, w, m = self.n, self.w, self.m
        if spill <= 0:
            return _unpack(c, w, n, m)
        rows = self._rows
        while len(rows) < spill:
            row = self._next
            rows.append(_pack(row, w))
            top = row[-1]
            self._next = [(r + top * f) % m for r, f in zip([0] + row[:-1], self._first)]
        high = _unpack(c >> n * w, w, spill, m)
        c &= (1 << n * w) - 1
        return _unpack(c + sum(h * r for h, r in zip(high, rows)), w, n, m)

    def mul(self, a: list[int], b: list[int]) -> list[int]:
        if not a or not b:
            return []
        w = self.w
        return self.reduce(_pack(a, w) * _pack(b, w), len(a) + len(b) - 1 - self.n)

    def pow(self, a: list[int], e: int) -> list[int]:
        out = [1]
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out


# -- distinct-degree, equal-degree ----------------------------------------


# (w, rows): row i is x^(i p) mod v packed by _pack with slots of w bits
Frobenius = tuple[int, list[int]]


def _frobenius_rows(v: list[int], p: int) -> Frobenius:
    """The rows x^(i p) mod v for i < n = deg v, n >= 2, packed for
    _frobenius with the slots of Quotient(v, p).

    Row i is row i-1 times x^p mod v, one packed product that spills
    s = deg(x^p mod v) slots past degree n - 1 (s = p when p < n);
    Quotient.reduce folds them back, so a row costs O(s) packed
    operations and one unpack.
    """
    n = len(v) - 1
    R = Quotient(v, p)
    xp = R.pow([0, 1], p)
    packed_xp, spill = _pack(xp, R.w), len(xp) - 1
    rows = [1]
    for _ in range(1, n):
        rows.append(_pack(R.reduce(rows[-1] * packed_xp, spill), R.w))
    return R.w, rows


def _frobenius(h: list[int], q: Frobenius, p: int) -> list[int]:
    """h^p mod v = sum of h_i x^(i p) mod v, as one unpack of the packed
    rows q of v; h is reduced modulo v."""
    w, rows = q
    return _unpack(sum(c * r for c, r in zip(h, rows)), w, len(rows), p)


@lru_cache(maxsize=8)
def _split_with_matrix(
    coeffs: tuple[int, ...], p: int
) -> tuple[list[tuple[list[int], int]], Frobenius | None]:
    """distinct_degree_split and the Frobenius rows of v it used (None
    below degree 2, where no degree needs a Frobenius step).

    The last 8 splits are kept, a few KB each: zfactor's trace path asks
    for the degree multiset of h mod p and then for has_nonsquare_factor on
    the same h, and factor_over_z's probes of an inflation meet the splits
    that hartley.power_index's degree_set_filter made of it a few calls
    before.  Callers must not mutate what it returns.
    """
    v = list(coeffs)
    parts: list[tuple[list[int], int]] = []
    q = None
    d = 0
    if len(v) - 1 >= 2:
        q = _frobenius_rows(v, p)
        h = [0, 1]
        while len(v) - 1 >= 2 * (d + 1):
            d += 1
            h = _frobenius(h, q, p)
            g = gfp_gcd(gfp_sub(h, [0, 1], p), v, p)
            if len(g) > 1:
                parts.append((g, d))
                v = gfp_divmod(v, g, p)[0]
    if len(v) > 1:
        parts.append((v, len(v) - 1))
    return parts, q


def distinct_degree_split(v: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split monic squarefree v into (product of degree-d irreducibles, d).

    h = x^(p^d) mod v advances one Frobenius step per degree (see
    _frobenius_rows); h stays reduced modulo the input v, and
    gcd(h - x, v) reduces it modulo the shrinking cofactor.
    """
    return _split_with_matrix(tuple(v), p)[0]


def _half_power(
    a: list[int], k: int, u: list[int], q: Frobenius | None, p: int
) -> list[int]:
    """a^((p^k - 1)/2) mod u for odd p, given the Frobenius rows q of a
    multiple of u.

    (p^k - 1)/2 = (p - 1)/2 * (1 + p + ... + p^(k-1)), so the power is
    the product of the Frobenius images b^(p^i), i < k, of
    b = a^((p-1)/2): one pass over the rows each, in place of
    k log2(p) squarings.  Reducing a multiple of u's Frobenius image
    modulo u gives u's own.
    """
    R = Quotient(u, p)
    out = img = R.pow(gfp_mod(a, u, p), (p - 1) // 2)
    for _ in range(k - 1):
        img = gfp_mod(_frobenius(img, q, p), u, p)
        out = R.mul(out, img)
    return out


def has_nonsquare_factor(a: list[int], v: list[int], p: int) -> bool:
    """True when a is a non-square modulo some irreducible factor of v.

    v is monic and squarefree, p odd, and a a unit modulo v.  On the
    block U_k of v's degree-k irreducibles, a^((p^k - 1)/2) is +-1 modulo
    each of them, so it is 1 modulo U_k exactly when a is a square modulo
    all of them.  A factor dividing a would read as a non-square, so the
    unit condition is the caller's to ensure.
    """
    parts, q = _split_with_matrix(tuple(v), p)
    return any(_half_power(a, k, u, q, p) != [1] for u, k in parts)


def ddf_degree_multiset(f: list[int], p: int) -> list[int]:
    """Sorted degrees of the irreducible factors of squarefree monic f."""
    out: list[int] = []
    for prod, d in distinct_degree_split(gfp_monic(f, p), p):
        out.extend([d] * ((len(prod) - 1) // d))
    return sorted(out)


def _gf2_mod(a: int, b: int) -> int:
    db = b.bit_length()
    while (n := a.bit_length()) >= db:
        a ^= b << (n - db)
    return a


def _gf2_gcd(a: int, b: int) -> int:
    while b:
        a, b = b, _gf2_mod(a, b)
    return a


def _gf2_div(a: int, b: int) -> int:
    """Exact quotient a / b in F_2[x]."""
    q = 0
    db = b.bit_length()
    while (n := a.bit_length()) >= db:
        q |= 1 << (n - db)
        a ^= b << (n - db)
    return q


def gf2_degree_pattern(coeffs) -> list[int] | None:
    """Sorted degrees of the irreducible factors of f mod 2, or None when
    f mod 2 has lower degree than f or is not squarefree.

    F_2[x] packs into Python ints, bit i the coefficient of x^i: sums are
    xors, remainders and gcds are xor-shifts, and the Frobenius map
    h -> h^2 moves bit i to bit 2i, which reading h's binary digits in
    base 4 does.  The distinct-degree split is distinct_degree_split's,
    one squaring per degree.  Integer factors of f keep their degrees
    mod 2 when lc(f) is odd, so the pattern sieves factor degrees over Z
    as an odd prime's does; it cannot split equal degrees, so p = 2
    never serves Zassenhaus.
    """
    n = len(coeffs) - 1
    v = 0
    for i, c in enumerate(coeffs):
        if c & 1:
            v |= 1 << i
    if n < 0 or v.bit_length() != n + 1:
        return None
    # f' mod 2 keeps the odd-degree terms, each moved down by one
    if _gf2_gcd(v, (v >> 1) & ((1 << ((n + 2) & ~1)) - 1) // 3) != 1:
        return None
    out: list[int] = []
    h = 2  # x
    d = 0
    while v.bit_length() - 1 >= 2 * (d + 1):
        d += 1
        h = _gf2_mod(int(format(h, "b"), 4), v)
        g = _gf2_gcd(v, h ^ 2)
        if g != 1:
            out.extend([d] * ((g.bit_length() - 1) // d))
            v = _gf2_div(v, g)
            h = _gf2_mod(h, v)
    if v.bit_length() > 1:
        out.append(v.bit_length() - 1)
    return out


def _edf(u: list[int], d: int, p: int, q: Frobenius | None,
         rng: random.Random) -> list[list[int]]:
    """Equal-degree splitting for odd p: u = product of irreducibles of
    degree d; q holds the Frobenius rows of a multiple of u."""
    n = len(u) - 1
    if n == d:
        return [u]
    while True:
        a = [rng.randrange(p) for _ in range(n)]
        a = _trim(a)
        if len(a) <= 1 and d > 1:
            continue
        b = _half_power(a, d, u, q, p)
        g = gfp_gcd(gfp_sub(b, [1], p), u, p)
        if 0 < len(g) - 1 < n:
            left = _edf(g, d, p, q, rng)
            right = _edf(gfp_divmod(u, g, p)[0], d, p, q, rng)
            return left + right


def _seed_for(p: int, coeffs) -> int:
    h = hashlib.sha256(repr((p, tuple(coeffs))).encode()).digest()
    return int.from_bytes(h[:8], "big")


def factor_squarefree_mod_p(f: list[int], p: int) -> list[list[int]]:
    """Monic irreducible factors of squarefree monic f, sorted; p must be
    odd, since equal-degree splitting takes (p^d - 1)/2 powers."""
    if p == 2:
        raise ValueError("equal-degree splitting needs an odd prime")
    rng = random.Random(_seed_for(p, f))
    out: list[list[int]] = []
    parts, q = _split_with_matrix(tuple(f), p)
    for prod, d in parts:
        out.extend(_edf(prod, d, p, q, rng))
    return sorted(out, key=lambda g: (len(g), tuple(reversed(g))))

