"""Factorization over the integers: gcd, squarefree split, Zassenhaus."""

import pytest
from hypothesis import given, settings, strategies as st

from freeperiod import (
    IntPoly,
    construct_witness,
    content_primitive,
    factor_over_z,
    hartley_profile,
    murasugi_screen_all,
    parse_poly,
)
from freeperiod import zfactor
from freeperiod.cyclotomic import cyclotomic, divisors
from freeperiod.intpoly import pseudo_rem, trace_lift, trace_reduce
from freeperiod.modpoly import gfp_monic, has_nonsquare_factor, reduce_mod_p
from freeperiod.zfactor import degree_set_filter, gcd_z, squarefree_decompose
from polys import FIG8, GOLDEN, K14

small_polys = st.builds(
    lambda cs: IntPoly(tuple(cs)),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=5),
).filter(bool)

# a pool with repeated-factor potential
pool = [
    IntPoly((1, 1)),
    IntPoly((-1, 1)),
    IntPoly((2, 1)),
    IntPoly((1, -3, 1)),
    IntPoly((-1, -1, 1)),
    IntPoly((1, -1, 1)),
    IntPoly((-2, 0, 1)),
    IntPoly((1, 0, 0, 1)),
    IntPoly((-4, 5, -3, 1)),
]
products = st.lists(st.sampled_from(pool), min_size=1, max_size=4)


@given(small_polys, small_polys, small_polys)
def test_gcd_z_catches_common_factor(f, g, h):
    a, b = f * h, g * h
    d = gcd_z(a, b)
    assert d.try_divide(content_primitive(h)[1]) is not None
    assert a.try_divide(d) is not None and b.try_divide(d) is not None


def test_gcd_z_conventions():
    assert gcd_z(IntPoly((0, -2)), IntPoly.zero()) == IntPoly((0, 2))
    assert gcd_z(IntPoly((4, 4)), IntPoly((6, 6))) == IntPoly((2, 2))
    assert gcd_z(IntPoly((4,)), IntPoly((6, 6))) == IntPoly((2,))
    assert gcd_z(IntPoly((1, 1)), IntPoly((1, 0, 1))) == IntPoly.one()


@given(small_polys, small_polys)
def test_pseudo_rem_invariant(a, b):
    # integer pseudo-division, scaled lazily: lc(b)^e a = Q b + r with
    # deg r < deg b and e at most the da - db + 1 of the classical one
    r, e = pseudo_rem(a, b)
    if a.degree < b.degree:
        assert (r, e) == (a, 0)
        return
    assert r.degree < b.degree
    assert 0 <= e <= a.degree - b.degree + 1
    assert (a * b.lc**e - r).try_divide(b) is not None


@given(products)
def test_squarefree_decompose_reassembles(fs):
    f = IntPoly.one()
    for g in fs:
        f = f * g
    parts = squarefree_decompose(f)
    prod = IntPoly.one()
    last = 0
    for part, mult in parts:
        assert mult > last  # strictly increasing multiplicities
        last = mult
        prod = prod * part**mult
        assert gcd_z(part, part.derivative()).is_constant()
    assert prod == content_primitive(f)[1]


def test_squarefree_decompose_known():
    f = IntPoly((1, 1)) ** 2 * IntPoly((-1, 1))
    assert squarefree_decompose(f) == [(IntPoly((-1, 1)), 1), (IntPoly((1, 1)), 2)]


def test_degree_set_filter_soundness_and_pruning():
    f = IntPoly((1, 0, 0, 0, 1))  # t^4 + 1
    # splits 2+2 modulo suitable primes: no degree-1 subset sum
    assert not degree_set_filter(f, 1)
    assert degree_set_filter(f, 2)
    assert degree_set_filter(f, 0) and degree_set_filter(f, 4)


@given(products, st.integers(min_value=0, max_value=6))
def test_degree_set_filter_never_excludes_true_factors(fs, k):
    f = IntPoly.one()
    for g in fs:
        f = f * g
    degs = sorted(int(g.degree) for g in fs)
    # any subset of true factors gives an achievable degree
    achievable = {0}
    for d in degs:
        achievable |= {a + d for a in achievable}
    target = sorted(achievable)[k % len(achievable)]
    assert degree_set_filter(f, target)


def test_factor_k14_exact():
    f = parse_poly("4t^6-17t^5+38t^4-51t^3+38t^2-17t+4")
    fac = factor_over_z(f)
    assert fac.sign == 1 and fac.content == 1
    assert fac.factors == (
        (IntPoly((-4, 5, -3, 1)), 1),
        (IntPoly((-1, 3, -5, 4)), 1),
    )
    assert fac.expand() == f


def test_factor_sign_content_units():
    fac = factor_over_z(IntPoly((2, 0, -2)))
    assert fac.sign == -1 and fac.content == 2
    assert {g for g, _ in fac.factors} == {IntPoly((-1, 1)), IntPoly((1, 1))}
    assert fac.expand() == IntPoly((2, 0, -2))
    c = factor_over_z(IntPoly((-7,)))
    assert c.sign == -1 and c.content == 7 and c.factors == ()


def test_factor_strips_t_power():
    fac = factor_over_z(IntPoly((0, 0, -1, 1)))
    assert dict(fac.factors) == {IntPoly.x(): 2, IntPoly((-1, 1)): 1}


def test_factor_cyclotomic_product():
    f = IntPoly.monomial(12) - IntPoly.one()
    fac = factor_over_z(f)
    got = {g: m for g, m in fac.factors}
    assert got == {cyclotomic(d): 1 for d in divisors(12)}


def test_factor_swinnerton_dyer_style_product():
    f = IntPoly((-2, 0, 1)) * IntPoly((-3, 0, 1)) * IntPoly((-6, 0, 1))
    fac = factor_over_z(f)
    assert sorted(g.coeffs for g, _ in fac.factors) == [
        (-6, 0, 1), (-3, 0, 1), (-2, 0, 1)]


def test_factor_inflated_power():
    # (t^2 - t - 1)(t^2 + t - 1) is the 2-rotation product of the golden poly
    f = IntPoly((-1, -1, 1)) * IntPoly((-1, 1, 1))
    fac = factor_over_z(f)
    assert {g for g, _ in fac.factors} == {IntPoly((-1, -1, 1)), IntPoly((-1, 1, 1))}


@settings(max_examples=80)
@given(products, st.integers(min_value=-3, max_value=3).filter(bool))
def test_factor_round_trip_with_units(fs, unit):
    f = IntPoly.constant(unit)
    for g in fs:
        f = f * g
    fac = factor_over_z(f)
    assert fac.expand() == f
    for g, m in fac.factors:
        assert m >= 1 and g.lc > 0 and g.content() == 1


@settings(max_examples=60)
@given(small_polys)
def test_factor_arbitrary_reassembles(f):
    fac = factor_over_z(f)
    assert fac.expand() == f


@given(st.sampled_from(pool))
def test_factors_are_idempotently_irreducible(g):
    fac = factor_over_z(g)
    for f, _ in fac.factors:
        again = factor_over_z(f)
        assert again.factors == ((f, 1),)
        assert again.sign == 1 and again.content == 1


def _probe_primes(monkeypatch, f):
    probed = []
    real = zfactor.ddf_degree_multiset
    monkeypatch.setattr(zfactor, "ddf_degree_multiset",
                        lambda fb, p: probed.append(p) or real(fb, p))
    return factor_over_z(f), probed


def test_probe_loop_stops_at_three_when_recombination_is_cheap(monkeypatch):
    # not palindromic, so f itself is probed
    f = IntPoly((-3, -4, 0, 4)) * IntPoly((-2, 5, -5, 1))
    fac, probed = _probe_primes(monkeypatch, f)
    assert len(fac.factors) == 2 and probed == [3, 5, 7]


def test_trace_path_probes_the_trace_polynomial_of_k14(monkeypatch):
    # K14 = -g g* with g = t^3 - 3t^2 + 5t - 4: its trace polynomial h is an
    # irreducible cubic and x^2 - 4 is a square modulo h, so no root or
    # character test succeeds.  lc(h) = 4 is even, so GF(2) does not sieve;
    # the root test sees at least three simple roots with y^2 - 4 a square,
    # so the loop stops after three odd probes of h and Zassenhaus splits
    # K14 itself
    h = trace_reduce(K14)
    assert zfactor._root_character(h)[0] is False
    assert zfactor._root_character(h)[1] >= 3
    fac, probed = _probe_primes(monkeypatch, K14)
    assert len(fac.factors) == 2 and probed == [3, 5, 7]


def test_k14_character_test_skips_primes_dividing_the_norm(monkeypatch):
    h = trace_reduce(K14)
    assert h == IntPoly((-17, 26, -17, 4)) and h(2) * h(-2) == 169
    # h = (x + 2)(x^2 + 10x + 6) mod 13: the block x + 2 divides x^2 - 4,
    # whose character there is 0, not 1, so the test misreads it as a
    # non-square and would call K14 irreducible
    x2_minus_4 = reduce_mod_p((-4, 0, 1), 13)
    assert has_nonsquare_factor(x2_minus_4, gfp_monic(reduce_mod_p(h.coeffs, 13), 13), 13)
    tested = []
    real = zfactor.has_nonsquare_factor
    monkeypatch.setattr(zfactor, "has_nonsquare_factor",
                        lambda a, v, p: tested.append(p) or real(a, v, p))
    fac = factor_over_z(K14)
    assert fac.factors == ((IntPoly((-4, 5, -3, 1)), 1), (IntPoly((-1, 3, -5, 4)), 1))
    assert tested and all(169 % p for p in tested)


def test_probe_loop_hunts_five_more_for_a_sparser_pattern(monkeypatch):
    # 22 linear factors modulo every good prime leave about 2^21 subsets
    f = IntPoly.one()
    for i in range(1, 23):
        f = f * IntPoly((-i, 1))
    fac, probed = _probe_primes(monkeypatch, f)
    assert dict(fac.factors) == {IntPoly((-i, 1)): 1 for i in range(1, 23)}
    assert probed == [23, 29, 31, 37, 41, 43, 47, 53]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=6)
       .filter(lambda c: c[0] and c[-1]))
def test_root_test_never_fires_on_a_true_square(coeffs):
    # roots alpha, 1/alpha of g g* give y = alpha + 1/alpha and
    # y^2 - 4 = (alpha - 1/alpha)^2, so x^2 - 4 is a square modulo h
    g = IntPoly(tuple(coeffs))
    h = trace_reduce(g * IntPoly(g.coeffs[::-1]))
    assert zfactor._root_character(h)[0] is False


def test_root_test_fires_on_irreducible_trace_polynomials(monkeypatch):
    # FIG8: h = x - 3, y = 3 and y^2 - 4 = 5 is a non-residue mod 3
    assert zfactor._root_character(trace_reduce(FIG8))[0] is True
    # a genus-5 candidate with h = x^5 - 5x^3 + 4x + 1: the norm
    # h(2) h(-2) = 1 is a square, h mod 2 is irreducible and a root y
    # with y^2 - 4 a non-residue settles the rest, so no odd prime is probed
    f = IntPoly((1, 0, 0, 0, -1, 1, -1, 0, 0, 0, 1))
    h = trace_reduce(f)
    assert h == IntPoly((1, 4, 0, -5, 0, 1)) and h(2) * h(-2) == 1
    assert zfactor._root_character(h)[0] is True
    fac, probed = _probe_primes(monkeypatch, f)
    assert fac.factors == ((f, 1),) and probed == []


@pytest.mark.parametrize("f", [
    # odd lc and squarefree mod 2 (pattern [2, 3]), so GF(2) sieves but
    # cannot settle them; K14 has even lc and is probed at odd primes only
    IntPoly((1, 1, 1)) * IntPoly((-1, 1, 0, 1)),
    GOLDEN * IntPoly((-3, 1, 0, 1)),
    K14,
])
def test_zassenhaus_never_lifts_at_two(monkeypatch, f):
    lifted = []
    real = zfactor._zassenhaus
    monkeypatch.setattr(zfactor, "_zassenhaus",
                        lambda g, p, possible: lifted.append(p) or real(g, p, possible))
    fac = factor_over_z(f)
    assert fac.expand() == f and len(fac.factors) > 1
    assert lifted and 2 not in lifted


def _yun_calls(monkeypatch, f):
    seen = []
    real = zfactor.squarefree_decompose
    monkeypatch.setattr(zfactor, "squarefree_decompose",
                        lambda g: seen.append(g) or real(g))
    return factor_over_z(f), seen


@pytest.mark.parametrize("f, factors", [
    (FIG8**2, {FIG8: 2}),
    # palindromic, odd lc and h squarefree mod 2, but h(2) = 0
    (IntPoly((-1, 1))**2 * FIG8, {IntPoly((-1, 1)): 2, FIG8: 1}),
    (IntPoly((1, 1))**2 * FIG8, {IntPoly((1, 1)): 2, FIG8: 1}),
])
def test_yun_runs_unless_gf2_certifies_squarefree(monkeypatch, f, factors):
    fac, seen = _yun_calls(monkeypatch, f)
    assert seen == [f] and dict(fac.factors) == factors


@pytest.mark.parametrize("f", [
    GOLDEN,  # not palindromic, squarefree mod 2 with odd lc
    FIG8,  # palindromic, h = x - 3
    # h = x (x - 3) is squarefree mod 2 and h(2) h(-2) = -20, while
    # f = (t^2 + 1)(t^2 - 3t + 1) has the square (t + 1)^2 mod 2
    FIG8 * IntPoly((1, 0, 1)),
])
def test_yun_is_skipped_when_gf2_certifies_squarefree(monkeypatch, f):
    fac, seen = _yun_calls(monkeypatch, f)
    assert seen == [] and fac.expand() == f


def test_query_chain_factors_delta_once(monkeypatch):
    # the profile, the witness (which rebuilds the profile) and the Murasugi
    # divides flags all ask for the factorization of Delta; the memo answers
    # all but the first
    seen = []
    real = zfactor.squarefree_decompose
    monkeypatch.setattr(zfactor, "squarefree_decompose",
                        lambda f: seen.append(f) or real(f))
    hartley_profile(K14)
    construct_witness(K14, 2)
    assert any(h.divides for h in murasugi_screen_all(K14))
    assert seen.count(K14) == 1


def test_factor_zero_rejected():
    with pytest.raises(ValueError):
        factor_over_z(IntPoly.zero())


# factors with leading coefficients off +-1, so Hensel lifting and
# Zassenhaus recombination run with a non-monic f and a scaled lift
nonmonic_factors = st.builds(
    lambda low, lc: IntPoly(tuple(low) + (lc,)),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5),
    st.integers(min_value=-5, max_value=5).filter(bool),
)


def _sympy_factorization(f):
    """(constant, {ascending coefficients: multiplicity}) from sympy.factor_list."""
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    const, parts = sympy.factor_list(sympy.Poly(list(reversed(f.coeffs)), x))
    const = int(const)
    out: dict[tuple[int, ...], int] = {}
    for g, mult in parts:
        cs = tuple(int(c) for c in reversed(g.all_coeffs()))
        if cs[-1] < 0:
            cs = tuple(-c for c in cs)
            const *= (-1) ** mult
        out[cs] = out.get(cs, 0) + mult
    return const, out


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(nonmonic_factors, st.integers(min_value=1, max_value=3)),
                min_size=1, max_size=3),
       st.integers(min_value=-12, max_value=12).filter(bool))
def test_factor_over_z_matches_sympy(parts, unit):
    f = IntPoly.constant(unit)
    for g, mult in parts:
        f = f * g**mult
    const, expected = _sympy_factorization(f)
    fac = factor_over_z(f)
    assert fac.sign * fac.content == const
    assert {g.coeffs: m for g, m in fac.factors} == expected


def _assert_matches_sympy(f):
    const, expected = _sympy_factorization(f)
    fac = factor_over_z(f)
    assert fac.sign * fac.content == const
    assert {g.coeffs: m for g, m in fac.factors} == expected


# palindromic polynomials t^m h(t + 1/t), built from their trace polynomial
palindromic = st.builds(
    lambda low, lc: trace_lift(IntPoly(tuple(low) + (lc,))),
    st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=4),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=40, deadline=None)
@given(nonmonic_factors.filter(lambda g: g[0] and g.coeffs not in (
    g.coeffs[::-1], (-g).coeffs[::-1])))
def test_reciprocal_pair_matches_sympy(g):
    # g g* is palindromic and x^2 - 4 is a square modulo its h
    _assert_matches_sympy(g * IntPoly(g.coeffs[::-1]))


@settings(max_examples=40, deadline=None)
@given(st.lists(palindromic, min_size=2, max_size=3))
def test_palindromic_products_match_sympy(fs):
    # the trace polynomial of a product of palindromes splits
    f = IntPoly.one()
    for g in fs:
        f = f * g
    _assert_matches_sympy(f)


@settings(max_examples=40, deadline=None)
@given(palindromic, st.sampled_from([IntPoly((1, 1)), IntPoly((-1, 1)), IntPoly((-1, 0, 1))]))
def test_palindromes_carrying_t_plus_minus_one_match_sympy(f, lin):
    # odd degree (t + 1), odd degree anti-palindromic (t - 1) and even
    # degree anti-palindromic (t^2 - 1) inputs have no trace polynomial and
    # keep the direct path; their squarefree parts may still be palindromes
    _assert_matches_sympy(f * lin)


@settings(max_examples=30, deadline=None)
@given(st.builds(lambda low, lc: trace_lift(IntPoly(tuple(low) + (lc,))),
                 st.lists(st.integers(min_value=-2**70, max_value=2**70), min_size=1, max_size=3),
                 st.integers(min_value=2, max_value=2**66)),
       palindromic)
def test_wide_nonmonic_palindromes_match_sympy(f, g):
    _assert_matches_sympy(f * g)
