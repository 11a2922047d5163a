"""k-th roots in Q(alpha) by q-adic lifting, checked against inflation
factoring, brute force over small fields and sympy."""

import math
import time
from contextlib import contextmanager

import pytest
from hypothesis import assume, given, settings, strategies as st

from freeperiod import (
    IntPoly,
    construct_witness,
    e_of_irreducible,
    factor_over_z,
    hartley_profile,
    hartley_set,
    parse_poly,
    power_index,
    rotation_product_deflated,
)
from freeperiod import hartley
from freeperiod.cyclotomic import cyclotomic_tag, factorint
from freeperiod.modpoly import Quotient, ddf_degree_multiset, gfp_deriv, gfp_gcd, reduce_mod_p
from freeperiod.nfroot import (
    _element,
    _is_root,
    field_roots,
    minimal_polynomial,
    power_root,
    roots_of_unity_are_signs,
)
from polys import FIG8, GOLDEN, K14

# the E values of the golden-ratio family and K14's factors
NAMED_E = [(FIG8, 2), (parse_poly("t^2-4t-1"), 3), (parse_poly("t^2-7t+1"), 4),
           (parse_poly("t^2-18t+1"), 6)]


@pytest.fixture(autouse=True)
def cold_root_memos():
    """Every test starts without the roots, E values and factorizations
    another test left behind."""
    power_root.cache_clear()
    e_of_irreducible.cache_clear()
    yield
    power_root.cache_clear()
    e_of_irreducible.cache_clear()


@contextmanager
def inflation_only():
    """hartley with the root path switched off: every level, certificate
    and witness factors f(t^k), as it did before the root path."""
    saved = hartley.power_root
    hartley.power_root = lambda f, k: None
    e_of_irreducible.cache_clear()
    try:
        yield
    finally:
        hartley.power_root = saved
        e_of_irreducible.cache_clear()


@contextmanager
def no_inflation():
    """hartley with inflation factoring forbidden, so every answer must
    come from the root path."""
    saved = hartley._inflation_factor

    def refuse(f, k):
        raise AssertionError(f"inflation factoring of {f} at k = {k}")

    hartley._inflation_factor = refuse
    try:
        yield
    finally:
        hartley._inflation_factor = saved


def is_exact_root(root, f: IntPoly, k: int) -> bool:
    """num^k - den^k x is divisible by the primitive f in Z[x], which is
    h^k = x modulo f in Q[x] by Gauss's lemma."""
    return (root.num**k - IntPoly((0, root.den**k))).try_divide(f) is not None


def _irreducible(f: IntPoly) -> bool:
    return factor_over_z(f).factors == ((f, 1),)


@st.composite
def small_irreducibles(draw, max_degree=6):
    """Irreducible primitive g of degree 2..max_degree with g(0) != 0,
    palindromic or not."""
    coeff = st.integers(min_value=-3, max_value=3)
    lead = draw(st.integers(min_value=1, max_value=3))
    if draw(st.booleans()):
        half = [lead] + draw(st.lists(coeff, min_size=0, max_size=max_degree // 2 - 1))
        middle = [] if draw(st.booleans()) else [draw(coeff)]
        cs = half + middle + half[::-1]
    else:
        const = draw(st.integers(min_value=1, max_value=3)) * draw(st.sampled_from([1, -1]))
        cs = [const] + draw(st.lists(coeff, min_size=1, max_size=max_degree - 1)) + [lead]
    g = IntPoly(tuple(cs))
    assume(g.degree >= 2 and cyclotomic_tag(g) is None and _irreducible(g))
    return g


def _answers(f: IntPoly, k: int):
    """power_index at each prime of k, E, and the witness factor of
    f(t^k)."""
    return ({p: power_index(f, p) for p in factorint(k)}, e_of_irreducible(f),
            hartley._root_factor(f, k) or hartley._inflation_factor(f, k))


# -- the oracle: inflation factoring ---------------------------------------


@settings(max_examples=40, deadline=None)
@given(small_irreducibles(), st.sampled_from([2, 3, 4, 5, 8, 9]))
def test_root_path_matches_inflation_factoring_on_true_powers(g, k):
    # as in the residue-screen test: when R(x) = lc^k prod (x - beta^k) is
    # irreducible, its root beta^k is a k-th power in its own field
    assume(g.degree * k <= 40)
    fac = factor_over_z(rotation_product_deflated(g, k))
    assume(len(fac.factors) == 1 and fac.factors[0][1] == 1)
    f = fac.factors[0][0]
    root = power_root(f, k)
    if root is not None:
        assert is_exact_root(root, f, k)
        w = hartley._root_factor(f, k)
        if w is not None:
            assert w == hartley._inflation_factor(f, k)
    got = _answers(f, k)
    with inflation_only():
        want = _answers(f, k)
    assert got == want
    assert got[2] is not None


@settings(max_examples=40, deadline=None)
@given(small_irreducibles(), st.sampled_from([2, 3, 4, 5, 8, 9]))
def test_power_root_is_none_exactly_where_no_root_exists(f, k):
    assume(f.degree * k <= 40)
    root = power_root(f, k)
    if hartley._inflation_factor(f, k) is None:
        assert root is None
    elif root is not None:
        assert is_exact_root(root, f, k)


@pytest.mark.parametrize("f,k", [(GOLDEN, 2), (GOLDEN, 3), (FIG8, 3), (FIG8, 4),
                                 (parse_poly("t^2-4t-1"), 2), (parse_poly("t^2-18t+1"), 4)])
def test_power_root_refuses_non_powers(f, k):
    assert power_root(f, k) is None


@pytest.mark.parametrize("f,k,h", [
    (FIG8, 2, "t - 1"),                  # phi^2 = FIG8's root, phi = alpha - 1
    (parse_poly("t^2-18t+1"), 6, None),
    (K14, 1, None),
])
def test_power_root_vectors(f, k, h):
    if k == 1:
        f = factor_over_z(f).factors[0][0]
    root = power_root(f, k)
    assert root is not None and is_exact_root(root, f, k)
    if h is not None:
        assert (root.num, root.den) in ((parse_poly(h), 1), (-parse_poly(h), 1))


def _squarefree_mod(f: IntPoly, q: int) -> bool:
    fq = reduce_mod_p(f.coeffs, q)
    return len(gfp_gcd(fq, gfp_deriv(fq, q), q)) == 1


@pytest.mark.parametrize("f,h", [("t^2 - 1223t + 1", "t + 1"), ("t^2 - 1289t + 1024", "t - 32")])
def test_power_root_walks_past_primes_that_break_squarefreeness(f, h):
    # 3, 5, 7 and 11 divide both discriminants, so f mod q has a double
    # root there; four tries spent on them would leave no prime, but the
    # walk of good primes skips them and lifts at q = 13, where h / 35
    # squares to x
    f = parse_poly(f)
    assert not any(_squarefree_mod(f, q) for q in (3, 5, 7, 11))
    root = power_root(f, 2)
    assert root is not None and root.q == 13 and is_exact_root(root, f, 2)
    assert (root.num, root.den) in ((parse_poly(h), 35), (-parse_poly(h), 35))


def test_power_root_refuses_repeated_factors():
    # no prime keeps a square squarefree, so the walk is never started
    assert power_root(parse_poly("t^2 - 3t + 1") ** 2, 2) is None


# a non-monic cubic whose square rotation R(g, 2) is irreducible
NON_MONIC = parse_poly("3t^3 - t + 1")


def test_certificate_rejects_near_roots():
    # FIG8's root is (t - 1)^2 modulo FIG8; K14's second factor is not monic
    f = FIG8
    assert _is_root([-1, 1], 1, 2, f)
    assert not any((_is_root([-1, 2], 1, 2, f), _is_root([-1, 1], 2, 2, f),
                    _is_root([-1, 1], 1, 3, f)))
    g = factor_over_z(K14).factors[1][0]
    assert g.lc == 4
    root = power_root(g, 2)
    nums = list(root.num.coeffs)
    assert _is_root(nums, root.den, 2, g)
    assert not _is_root([nums[0] + 1] + nums[1:], root.den, 2, g)
    assert not _is_root(nums, root.den + 1, 2, g)
    # lc 9: f = R(3t^3 - t + 1, 2) has the root beta^2 and lc(f) = 3^2
    f = rotation_product_deflated(NON_MONIC, 2)
    root = power_root(f, 2)
    assert f.lc == 9 and root is not None
    nums = list(root.num.coeffs)
    assert _is_root(nums, root.den, 2, f)
    assert not _is_root(nums, root.den, 3, f)
    assert not _is_root([nums[0] + 1] + nums[1:], root.den, 2, f)


def test_minimal_polynomial_of_a_non_monic_field():
    # the square root of the root beta^2 of R(g, 2) is +-beta, whose
    # minimal polynomial is g or -g(-t)
    f = rotation_product_deflated(NON_MONIC, 2)
    assert _irreducible(f) and f.lc == 9
    g = minimal_polynomial(f, power_root(f, 2))
    neg = IntPoly(tuple((-1) ** (3 - i) * c for i, c in enumerate(NON_MONIC.coeffs)))
    assert g in (NON_MONIC, neg)


def test_sympy_agrees_on_the_witness_factors():
    sympy = pytest.importorskip("sympy")
    t = sympy.symbols("t")
    g5 = IntPoly((1, -1, 2, 0, 1))
    cases = [(f, k) for f, k in NAMED_E] + [
        (g, 2) for g, _ in factor_over_z(K14).factors] + [
        (factor_over_z(rotation_product_deflated(g5, 5)).factors[0][0], 5)]
    for f, k in cases:
        w = hartley._root_factor(f, k)
        assert w is not None
        expr = sum(c * t ** (k * i) for i, c in enumerate(f.coeffs))
        _, parts = sympy.factor_list(expr, t)
        degree_d = []
        for part, _ in parts:
            coeffs = [int(c) for c in sympy.Poly(part, t).all_coeffs()[::-1]]
            if len(coeffs) - 1 == f.degree:
                c = math.gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
                degree_d.append(tuple(x // c for x in coeffs))
        assert w.coeffs == min(degree_d)


# -- the fast path ----------------------------------------------------------

# a degree-16 g with coefficients in {-1, 0, 1}, drawn from random.Random(0);
# f = R(g, 13) is irreducible of degree 16 with E = 13, and its inflation
# f(t^13) has degree 208
G16 = IntPoly((1, 0, -1, 0, 1, 0, 0, 0, 0, 0, 1, -1, 1, -1, 0, -1, 1))


def test_degree_16_e_13_certifies_without_the_degree_208_inflation():
    f = rotation_product_deflated(G16, 13)
    assert _irreducible(f)
    with no_inflation():
        start = time.perf_counter()
        ev = e_of_irreducible(f)
        elapsed = time.perf_counter() - start
        assert ev.e == 13
        cert = construct_witness(f, 13)
    assert elapsed < 0.25
    assert cert.witness == G16


@pytest.mark.parametrize("f,e", NAMED_E)
def test_golden_family_reaches_e_and_witnesses_without_inflation(f, e):
    with no_inflation():
        assert e_of_irreducible(f).e == e
        members = hartley_set(hartley_profile(f)).members
        got = [construct_witness(f, n).witness for n in members]
    assert members and max(members) == e
    with inflation_only():
        assert got == [construct_witness(f, n).witness for n in members]


def test_k14_factors_reach_e_and_witness_without_inflation():
    with no_inflation():
        assert [e_of_irreducible(g).e for g, _ in factor_over_z(K14).factors] == [2, 2]
        got = construct_witness(K14, 2)
    with inflation_only():
        assert got == construct_witness(K14, 2)


def test_witness_falls_back_when_cube_roots_of_unity_may_lie_in_the_field():
    # beta is a root of t^2 - t + 7, so Q(beta) = Q(sqrt(-3)) holds zeta_3,
    # and f(t^3) has three quadratic factors: the minimal polynomials of
    # beta, zeta_3 beta and zeta_3^2 beta.  The least is not beta's.
    g = parse_poly("t^2 - t + 7")
    f = rotation_product_deflated(g, 3)
    root = power_root(f, 3)
    assert root is not None and not roots_of_unity_are_signs(f, 3, root)
    assert minimal_polynomial(f, root) in [h for h, _ in factor_over_z(f.inflate(3)).factors]
    assert hartley._root_factor(f, 3) is None
    w = construct_witness(f, 3).witness
    assert w == parse_poly("t^2 - 4t + 7") != g


# -- the field kernels ------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=4),
       st.sampled_from([3, 5, 7, 11, 13, 17, 19, 29, 31, 37, 41, 43]),
       st.lists(st.integers(min_value=0, max_value=100), min_size=4, max_size=4),
       st.sampled_from([2, 3, 4, 5, 6, 8, 9, 12]),
       st.integers(min_value=1, max_value=2500))
def test_field_roots_are_every_kth_root(n, q, low, k, t):
    # brute force over every element of a field F_q[x]/(u) of at most 2500
    size = q**n
    assume(size <= 2500)
    u = [c % q for c in low[:n]] + [1]
    assume(ddf_degree_multiset(u, q) == [n] and len(gfp_gcd(u, gfp_deriv(u, q), q)) == 1)
    a = _element(t % (size - 1) + 1, q)
    F = Quotient(u, q)
    want = sorted(y for y in (_element(c, q) for c in range(1, size)) if F.pow(y, k) == a)
    assert sorted(field_roots(a, k, u, q)) == want
