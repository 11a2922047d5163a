"""Arithmetic over Z/m and factorization over prime fields."""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from freeperiod.modpoly import (
    _NUMPY_LIMIT,
    _half_power,
    _split_with_matrix,
    ddf_degree_multiset,
    distinct_degree_split,
    factor_squarefree_mod_p,
    gfp_add,
    gfp_deriv,
    gfp_divmod,
    gfp_eval,
    gfp_extgcd,
    gfp_gcd,
    gfp_mod,
    gfp_mul,
    gfp_powmod,
    gfp_sub,
    gf2_degree_pattern,
    has_nonsquare_factor,
    is_prime,
    next_prime,
    reduce_mod_p,
)

PRIMES = [2, 3, 5, 7, 13]
# the equal-degree split (factor_squarefree_mod_p) needs an odd prime
ODD_PRIMES = [3, 5, 7, 13]

mod_coeffs = st.lists(st.integers(min_value=0, max_value=12), max_size=8)


def brute_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, int(n**0.5) + 1))


def test_is_prime_small_range():
    for n in range(-2, 2000):
        assert is_prime(n) == brute_prime(n), n


def test_is_prime_pseudoprime_traps():
    # Carmichael numbers and strong-pseudoprime favorites
    for n in [561, 1105, 1729, 2821, 6601, 8911, 10585, 29341, 41041,
              46657, 52633, 62745, 63973, 75361, 101101, 340561, 825265,
              2047, 3277, 4033, 4681, 8321, 3215031751]:
        assert not is_prime(n), n
    for n in [2**31 - 1, 10**9 + 7, 10**9 + 9, 999999937]:
        assert is_prime(n), n
    assert not is_prime((10**9 + 7) * (10**9 + 9))


def test_next_prime_steps():
    assert next_prime(2) == 3
    assert next_prime(3) == 5
    assert next_prime(13) == 17
    assert next_prime(1) == 2
    assert next_prime(89) == 97


@given(mod_coeffs, mod_coeffs, st.sampled_from(PRIMES))
def test_divmod_invariant(a, b, p):
    a = reduce_mod_p(a, p)
    b = reduce_mod_p(b, p)
    if not b:
        with pytest.raises(ZeroDivisionError):
            gfp_divmod(a, b, p)
        return
    q, r = gfp_divmod(a, b, p)
    back = [x % p for x in _add(gfp_mul(q, b, p), r, p)]
    while back and back[-1] == 0:
        back.pop()
    assert back == a
    assert len(r) < len(b) or not r


@pytest.mark.parametrize("a, b, m, expect", [
    ([7, 0], [1, 1, 1], 5, ([], [2])),
    ([0], [1, 1], 5, ([], [])),
    ([10, 25, 0], [1, 0, 0, 1], 25, ([], [10])),
    ([26, 3, 0, 0], [2, 1, 1, 1, 1], 27, ([], [26, 3])),
])
def test_divmod_short_dividend_is_reduced_and_trimmed(a, b, m, expect):
    # deg a < deg b: the remainder is a itself, still reduced mod m and trimmed
    assert gfp_divmod(a, b, m) == expect


def _add(a, b, p):
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return [c % p for c in out]


@given(mod_coeffs, mod_coeffs, st.sampled_from(PRIMES))
def test_gcd_divides_both(a, b, p):
    a = reduce_mod_p(a, p)
    b = reduce_mod_p(b, p)
    g = gfp_gcd(a, b, p)
    for f in (a, b):
        if f and g:
            assert not gfp_mod(f, g, p)
    if g:
        assert g[-1] == 1  # monic normal form


@given(mod_coeffs, mod_coeffs, st.sampled_from(PRIMES))
def test_extgcd_bezout(a, b, p):
    a = reduce_mod_p(a, p)
    b = reduce_mod_p(b, p)
    g, u, v = gfp_extgcd(a, b, p)
    lhs = _add(gfp_mul(u, a, p), gfp_mul(v, b, p), p)
    while lhs and lhs[-1] == 0:
        lhs.pop()
    assert lhs == g
    assert g == gfp_gcd(a, b, p)


@given(mod_coeffs, st.integers(min_value=0, max_value=40),
       mod_coeffs.filter(lambda c: len([x for x in c if x]) and len(c) >= 2),
       st.sampled_from(PRIMES))
def test_powmod_matches_naive(a, e, m, p):
    a = reduce_mod_p(a, p)
    m = reduce_mod_p(m, p)
    if len(m) < 2:
        return
    out = gfp_powmod(a, e, m, p)
    naive = [1]
    for _ in range(e):
        naive = gfp_mod(gfp_mul(naive, a, p), m, p)
    assert out == naive


@given(mod_coeffs, st.sampled_from(PRIMES), st.integers(min_value=-20, max_value=20))
def test_eval_horner(a, p, x):
    a = reduce_mod_p(a, p)
    expected = sum(c * pow(x, i, p) for i, c in enumerate(a)) % p
    assert gfp_eval(a, x, p) == expected


def _is_squarefree(f, p):
    return len(gfp_gcd(f, gfp_deriv(f, p), p)) == 1


def _product(factors, p):
    prod = [1]
    for g in factors:
        prod = gfp_mul(prod, g, p)
    return prod


def known_factization_cases():
    yield [1, 0, 1], 5, 2  # t^2 + 1 = (t + 2)(t + 3) mod 5
    yield [1, 0, 1], 3, 1  # irreducible mod 3
    yield [1, 1], 2, 1
    yield [1, 1, 0, 0, 1], 2, 1  # t^4 + t + 1 is irreducible mod 2


@pytest.mark.parametrize("coeffs,p,count", list(known_factization_cases()))
def test_factor_mod_p_known_splits(coeffs, p, count):
    # the distinct-degree split counts the factors at every p, p = 2 too
    assert len(ddf_degree_multiset(coeffs, p)) == count
    if p % 2:
        out = factor_squarefree_mod_p(coeffs, p)
        assert len(out) == count
        assert _product(out, p) == coeffs


def test_factor_mod_p_rejects_p_2():
    # at p = 2 the (p - 1)/2 power of the equal-degree split is a^0 = 1
    with pytest.raises(ValueError, match="odd prime"):
        factor_squarefree_mod_p([1, 1, 0, 0, 1], 2)


def test_quartic_plus_one_always_splits():
    # t^4 + 1 is reducible modulo every prime, and squarefree modulo odd ones
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        assert len(factor_squarefree_mod_p([1, 0, 0, 0, 1], p)) >= 2


def squarefree_monic(c, p):
    f = reduce_mod_p(c, p) + [1]
    assume(_is_squarefree(f, p))
    return f


@settings(max_examples=60)
@given(mod_coeffs, st.sampled_from(ODD_PRIMES))
def test_factor_mod_p_reassembles_and_is_irreducible(c, p):
    f = squarefree_monic(c, p)
    out = factor_squarefree_mod_p(f, p)
    for g in out:
        assert g[-1] == 1
        # irreducible: its distinct-degree profile is a single block
        assert ddf_degree_multiset(g, p) == [len(g) - 1]
    assert _product(out, p) == f


@settings(max_examples=40)
@given(mod_coeffs, st.sampled_from(ODD_PRIMES))
def test_factorization_is_deterministic(c, p):
    f = squarefree_monic(c, p)
    assert factor_squarefree_mod_p(f, p) == factor_squarefree_mod_p(list(f), p)


def test_distinct_degree_split_blocks():
    # t^6 - 1 mod 5: linear block (t^2-1 part... all of t^6-1 factors)
    f = reduce_mod_p([-1, 0, 0, 0, 0, 0, 1], 5)
    blocks = distinct_degree_split(f, 5)
    degs = sorted(d for _, d in blocks)
    prod = [1]
    for part, _ in blocks:
        prod = gfp_mul(prod, part, 5)
    assert prod == f
    # x^6-1 = (x-1)(x+1)(x^2+x+1)(x^2-x+1) mod 5, quadratics irreducible
    assert degs == [1, 2]


def test_squarefree_factor_count():
    # product of all monic linear polynomials mod 3: t^3 - t
    parts = factor_squarefree_mod_p([0, 2, 0, 1], 3)
    assert sorted(parts) == [[0, 1], [1, 1], [2, 1]]


def reference_distinct_degree_split(v, p):
    """Distinct-degree split by repeated squaring: h <- h^p mod v per degree."""
    parts = []
    h = gfp_mod([0, 1], v, p)
    d = 0
    while len(v) - 1 >= 2 * (d + 1):
        d += 1
        h = gfp_powmod(h, p, v, p)
        g = gfp_gcd(gfp_sub(h, [0, 1], p), v, p)
        if len(g) > 1:
            parts.append((g, d))
            v = gfp_divmod(v, g, p)[0]
            h = gfp_mod(h, v, p)
    if len(v) > 1:
        parts.append((v, len(v) - 1))
    return parts


@settings(max_examples=120, deadline=None)
@given(st.sampled_from(PRIMES),
       st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=40))
def test_distinct_degree_split_matches_repeated_squaring(p, low):
    f = [c % p for c in low] + [1]
    assume(_is_squarefree(f, p))
    expected = reference_distinct_degree_split(f, p)
    assert distinct_degree_split(f, p) == expected
    if p == 2:
        return
    # the full split: irreducible monic factors whose degrees are the blocks'
    factors = factor_squarefree_mod_p(f, p)
    prod = [1]
    for g in factors:
        assert g[-1] == 1
        assert reference_distinct_degree_split(g, p) == [(g, len(g) - 1)]
        prod = gfp_mul(prod, g, p)
    assert prod == f
    assert sorted(len(g) - 1 for g in factors) == sorted(
        d for part, d in expected for _ in range((len(part) - 1) // d))


squarefree_inputs = st.tuples(
    st.sampled_from(ODD_PRIMES),
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=24),
    st.lists(st.integers(min_value=0, max_value=12), max_size=24),
)


@settings(max_examples=80, deadline=None)
@given(squarefree_inputs)
def test_half_power_matches_repeated_squaring(case):
    # the Frobenius matrix of the whole input serves each block dividing it
    p, low, a = case
    f = [c % p for c in low] + [1]
    assume(_is_squarefree(f, p))
    a = reduce_mod_p(a, p)
    parts, q = _split_with_matrix(tuple(f), p)
    for u, k in parts:
        assert _half_power(a, k, u, q, p) == gfp_powmod(a, (p**k - 1) // 2, u, p)


@settings(max_examples=80, deadline=None)
@given(squarefree_inputs)
def test_has_nonsquare_factor_matches_factorwise_characters(case):
    p, low, a = case
    f = [c % p for c in low] + [1]
    a = reduce_mod_p(a, p)
    assume(_is_squarefree(f, p) and gfp_gcd(a, f, p) == [1])
    chars = [gfp_powmod(a, (p ** (len(u) - 1) - 1) // 2, u, p)
             for u in factor_squarefree_mod_p(f, p)]
    assert all(c in ([1], [p - 1]) for c in chars)
    assert has_nonsquare_factor(a, f, p) == (chars.count([1]) < len(chars))


def test_distinct_degree_split_wide_prime_uses_exact_integers():
    # (p-1)^2 deg f overflows int64 products, so the Frobenius matrix is
    # carried as Python integers
    p = 2**31 - 1
    f = [1]
    for g in ([3, 1], [p - 5, 1], [7, 0, 1], [11, 13, 0, 1], [2, 0, 0, 0, 5, 1]):
        f = gfp_mul(f, g, p)
    assert (p - 1) ** 2 * (len(f) - 1) >= _NUMPY_LIMIT
    assert _is_squarefree(f, p)
    blocks = distinct_degree_split(f, p)
    assert blocks == reference_distinct_degree_split(f, p)
    prod = [1]
    for part, _ in blocks:
        prod = gfp_mul(prod, part, p)
    assert prod == f
    factors = factor_squarefree_mod_p(f, p)
    assert [len(g) - 1 for g in factors] == ddf_degree_multiset(f, p)


# -- the kernels at composite moduli m = p^l ---------------------------------

# 5^8 keeps (m-1)^2 * len inside int64 (numpy branches); 3^40 does not
# (Kronecker product, Python-integer division)
PRIME_POWERS = [4, 27, 5**8, 3**40]


def reference_mul(a, b, m):
    out = [0] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return reduce_mod_p(out, m)


def reference_add(a, b, m, sign=1):
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return reduce_mod_p([x + sign * y for x, y in zip(a, b)], m)


def residues(m, short, long):
    """Short vectors (schoolbook) or long ones (numpy or Kronecker branches)."""
    coeff = st.integers(min_value=0, max_value=m - 1)
    return st.one_of(st.lists(coeff, max_size=short),
                     st.lists(coeff, min_size=long, max_size=long + 12))


def unit_lc_divisors(m):
    """Divisors whose leading coefficient is a unit mod m, often not 1."""
    unit = st.integers(min_value=1, max_value=m - 1).filter(lambda u: math.gcd(u, m) == 1)
    return st.tuples(residues(m, 6, 24), unit).map(lambda lu: lu[0] + [lu[1]])


@pytest.mark.parametrize("m", PRIME_POWERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_kernels_at_prime_powers_match_integer_schoolbook(m, data):
    a = reduce_mod_p(data.draw(residues(m, 11, 30)), m)  # kernels take trimmed vectors
    b = reduce_mod_p(data.draw(residues(m, 11, 13)), m)
    assert gfp_mul(a, b, m) == reference_mul(a, b, m)
    assert gfp_add(a, b, m) == reference_add(a, b, m)
    assert gfp_sub(a, b, m) == reference_add(a, b, m, sign=-1)
    v = data.draw(unit_lc_divisors(m))
    q, r = gfp_divmod(a, v, m)
    # with a unit leading coefficient, a = q v + r and deg r < deg v pin q, r
    assert len(r) < len(v)
    assert q == reduce_mod_p(q, m) and r == reduce_mod_p(r, m)
    assert reference_add(reference_mul(q, v, m), r, m) == reduce_mod_p(a, m)


def _sympy_mod2_pattern(coeffs):
    """Factor degrees of coeffs mod 2 from sympy, or None when the reduction
    loses degree or has a repeated factor."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if not coeffs or coeffs[-1] % 2 == 0:
        return None
    expr = sum(c % 2 * x**i for i, c in enumerate(coeffs))
    _, parts = sympy.factor_list(expr, x, modulus=2)
    if any(mult > 1 for _, mult in parts):
        return None
    return sorted(sympy.degree(u, x) for u, _ in parts)


# sympy's own factor sort compares residues mod 2, which it deprecates
sympy_mod2 = pytest.mark.filterwarnings(r"ignore:\s*Ordered comparisons with modular integers")


@sympy_mod2
@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(min_value=-9, max_value=9), max_size=30))
def test_gf2_degree_pattern_matches_sympy(coeffs):
    assert gf2_degree_pattern(coeffs) == _sympy_mod2_pattern(coeffs)


@sympy_mod2
@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=6)
                .map(lambda c: c[:-1] + [1]), min_size=1, max_size=4))
def test_gf2_degree_pattern_is_none_exactly_on_repeated_factors(factors):
    # a product of mod-2 polynomials of full degree: None exactly when two
    # of its irreducible factors coincide
    prod = [1]
    for u in factors:
        prod = gfp_mul(prod, u, 2)
    expected = _sympy_mod2_pattern(prod)
    assert gf2_degree_pattern(prod) == expected
    if len(factors) > 1 and factors[0] == factors[1]:
        assert expected is None


def test_gf2_degree_pattern_known():
    assert gf2_degree_pattern([1, 1, 0, 0, 1]) == [4]  # x^4 + x + 1
    assert gf2_degree_pattern([0, 1, 1]) == [1, 1]  # x (x + 1)
    assert gf2_degree_pattern([3]) == []
    assert gf2_degree_pattern([1, 0, 1]) is None  # (x + 1)^2
    assert gf2_degree_pattern([1, 3, 2]) is None  # drops to degree 1
    assert gf2_degree_pattern([]) is None
