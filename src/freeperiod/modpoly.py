"""Polynomial arithmetic over Z/m and factorization over prime fields F_p.

Coefficient vectors are plain Python lists of residues in [0, m), ascending,
trimmed.  gfp_mul, gfp_add, gfp_sub, gfp_divmod, gfp_mod and gfp_monic take
any modulus m, as long as every divisor (and every input to gfp_monic) has
a leading coefficient that is a unit mod m; Hensel lifting and Zassenhaus
recombination run on them with m = p^l.  Everything else (gcds, powmod,
derivative, evaluation, the distinct- and equal-degree splits) needs m
prime.  The multiplication and division kernels switch between three
strategies: schoolbook for short operands, numpy int64 convolution while
(m-1)^2 * min(len) stays below 2^62, and Kronecker substitution (packing
into one big integer) beyond that.  The distinct-degree split uses the
Frobenius map h -> h^p, which is F_p-linear: it builds the matrix Q of
x^(ip) mod v once per input (Berlekamp's Q-matrix) and then advances one
degree per numpy product h @ Q, in place of repeated squaring (von zur
Gathen and Shoup, Comput. Complexity 2, 1992).  Equal-degree splitting and
the quadratic-character test has_nonsquare_factor take (p^k - 1)/2 powers
from the same matrix, as products of Frobenius images of a (p - 1)/2
power, so the equal-degree split (factor_squarefree_mod_p) needs an odd
p.  It is randomized but seeded from a hash of the input, so
factorizations are reproducible.
"""

from __future__ import annotations

import hashlib
import random
from functools import lru_cache

import numpy as np

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


def next_prime(n: int) -> int:
    """Smallest prime strictly greater than n."""
    k = n + 1
    if k <= 2:
        return 2
    if k % 2 == 0:
        k += 1
    while not is_prime(k):
        k += 2
    return k


# -- kernel helpers --------------------------------------------------------

_NUMPY_LIMIT = 1 << 62


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _kron_mul(a: list[int], b: list[int]) -> list[int]:
    """Product over Z of nonnegative-coefficient polynomials.

    Packs each operand into one big integer with fixed-width slots and
    lets CPython's subquadratic integer multiply do the work.
    """
    amax, bmax = max(a), max(b)
    slot = (amax.bit_length() + bmax.bit_length() + min(len(a), len(b)).bit_length() + 7) // 8 * 8
    nbytes = slot // 8
    abuf = bytearray(nbytes * len(a))
    for i, c in enumerate(a):
        abuf[i * nbytes : i * nbytes + (c.bit_length() + 7) // 8] = c.to_bytes(
            (c.bit_length() + 7) // 8 or 1, "little"
        )
    bbuf = bytearray(nbytes * len(b))
    for i, c in enumerate(b):
        bbuf[i * nbytes : i * nbytes + (c.bit_length() + 7) // 8] = c.to_bytes(
            (c.bit_length() + 7) // 8 or 1, "little"
        )
    prod = int.from_bytes(bytes(abuf), "little") * int.from_bytes(bytes(bbuf), "little")
    out_len = len(a) + len(b) - 1
    pbuf = prod.to_bytes(out_len * nbytes + nbytes, "little")
    return [int.from_bytes(pbuf[i * nbytes : (i + 1) * nbytes], "little") for i in range(out_len)]


def gfp_mul(a: list[int], b: list[int], m: int) -> list[int]:
    """Product in (Z/m)[t]."""
    if not a or not b:
        return []
    la, lb = len(a), len(b)
    if la + lb < 24:
        out = [0] * (la + lb - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] = (out[i + j] + ai * bj) % m
        return _trim(out)
    if (m - 1) * (m - 1) * min(la, lb) < _NUMPY_LIMIT:
        out = np.convolve(np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)) % m
        return _trim([int(x) for x in out])
    return _trim([c % m for c in _kron_mul(a, b)])


def gfp_divmod(a: list[int], b: list[int], m: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder in (Z/m)[t]; lc(b) must be a unit mod m."""
    if not b:
        raise ZeroDivisionError("mod-m division by zero polynomial")
    if len(a) < len(b):
        return [], _trim([c % m for c in a])
    inv = pow(b[-1], -1, m)
    db = len(b) - 1
    use_np = db >= 24 and (m - 1) * (m - 1) * 2 < _NUMPY_LIMIT
    if use_np:
        rem = np.array(a, dtype=np.int64)
        bv = np.array(b, dtype=np.int64)
        q = [0] * (len(a) - db)
        for k in range(len(q) - 1, -1, -1):
            c = int(rem[k + db]) * inv % m
            q[k] = c
            if c:
                rem[k : k + db + 1] = (rem[k : k + db + 1] - c * bv) % m
        return _trim(q), _trim([int(x) for x in rem[:db]])
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


def gfp_powmod(a: list[int], e: int, mod: list[int], p: int) -> list[int]:
    """a^e reduced modulo mod, in F_p[t]."""
    result = [1]
    base = gfp_mod(a, mod, p)
    while e:
        if e & 1:
            result = gfp_mod(gfp_mul(result, base, p), mod, p)
        base = gfp_mod(gfp_mul(base, base, p), mod, p)
        e >>= 1
    return result


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


# -- distinct-degree, equal-degree ----------------------------------------


def _frobenius_matrix(v: list[int], p: int, dtype) -> np.ndarray:
    """Q with rows x^(i p) mod v for i < deg v, so that h^p mod v = h @ Q.

    Row i is row i-1 times x^p mod v.  With m = deg(x^p mod v), which is
    p itself when p < n, that product spills m coefficients past degree
    n - 1; they fold back through a table of x^(n+k) mod v for k < m, so
    each row costs O(m n).
    """
    n = len(v) - 1
    xp = np.array(gfp_powmod([0, 1], p, v, p), dtype=dtype)
    low = np.array(v[:n], dtype=dtype)
    spill = np.zeros((len(xp) - 1, n), dtype=dtype)
    row = -low % p  # x^n mod v
    for k in range(len(spill)):
        spill[k] = row
        row = (np.concatenate(([0], row[:-1])) - row[-1] * low) % p
    q = np.zeros((n, n), dtype=dtype)
    q[0, 0] = 1
    for i in range(1, n):
        c = np.convolve(q[i - 1], xp) % p
        q[i] = (c[:n] + c[n:] @ spill[: len(c) - n]) % p
    return q


@lru_cache(maxsize=1)
def _split_with_matrix(
    coeffs: tuple[int, ...], p: int
) -> tuple[list[tuple[list[int], int]], np.ndarray | None]:
    """distinct_degree_split and the Frobenius matrix of v it used (None
    below degree 2, where no degree needs a Frobenius step).

    The last split is kept: zfactor's trace path asks for the degree
    multiset of h mod p and then for has_nonsquare_factor on the same h,
    which reuses it.  Callers must not mutate what it returns.
    """
    v = list(coeffs)
    parts: list[tuple[list[int], int]] = []
    n = len(v) - 1
    q = None
    d = 0
    if n >= 2:
        dtype = np.int64 if (p - 1) * (p - 1) * n < _NUMPY_LIMIT else object
        q = _frobenius_matrix(v, p, dtype)
        h = np.zeros(n, dtype=dtype)
        h[1] = 1
        while len(v) - 1 >= 2 * (d + 1):
            d += 1
            h = h @ q % p
            g = gfp_gcd(gfp_sub(_trim(h.tolist()), [0, 1], p), v, p)
            if len(g) > 1:
                parts.append((g, d))
                v = gfp_divmod(v, g, p)[0]
    if len(v) > 1:
        parts.append((v, len(v) - 1))
    return parts, q


def distinct_degree_split(v: list[int], p: int) -> list[tuple[list[int], int]]:
    """Split monic squarefree v into (product of degree-d irreducibles, d).

    h = x^(p^d) mod v advances one Frobenius step per degree as h @ Q
    (see _frobenius_matrix); h stays reduced modulo the input v, and
    gcd(h - x, v) reduces it modulo the shrinking cofactor.  Entries stay
    below (p-1)^2 n, so int64 serves while that fits and exact Python
    integers (dtype=object) beyond.
    """
    return _split_with_matrix(tuple(v), p)[0]


def _half_power(
    a: list[int], k: int, u: list[int], q: np.ndarray | None, p: int
) -> list[int]:
    """a^((p^k - 1)/2) mod u for odd p, given the Frobenius matrix q of a
    multiple of u.

    (p^k - 1)/2 = (p - 1)/2 * (1 + p + ... + p^(k-1)), so the power is
    the product of the Frobenius images b^(p^i), i < k, of
    b = a^((p-1)/2): one matrix-vector product each, in place of
    k log2(p) squarings.  Reducing a multiple of u's Frobenius image
    modulo u gives u's own.
    """
    b = gfp_powmod(a, (p - 1) // 2, u, p)
    out = img = b
    for _ in range(k - 1):
        vec = np.zeros(len(q), dtype=q.dtype)
        vec[: len(img)] = img
        img = gfp_mod(_trim((vec @ q % p).tolist()), u, p)
        out = gfp_mod(gfp_mul(out, img, p), u, p)
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


def _edf(u: list[int], d: int, p: int, q: np.ndarray | None,
         rng: random.Random) -> list[list[int]]:
    """Equal-degree splitting for odd p: u = product of irreducibles of
    degree d; q is the Frobenius matrix of a multiple of u."""
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

