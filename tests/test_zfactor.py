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
from freeperiod.zfactor import degree_set_filter, gcd_z, squarefree_decompose
from polys import K14

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
    fac, probed = _probe_primes(monkeypatch, K14)
    assert len(fac.factors) == 2 and probed == [3, 5, 7]


def test_probe_loop_hunts_five_more_for_a_sparser_pattern(monkeypatch):
    # 22 linear factors modulo every good prime leave about 2^21 subsets
    f = IntPoly.one()
    for i in range(1, 23):
        f = f * IntPoly((-i, 1))
    fac, probed = _probe_primes(monkeypatch, f)
    assert dict(fac.factors) == {IntPoly((-i, 1)): 1 for i in range(1, 23)}
    assert probed == [23, 29, 31, 37, 41, 43, 47, 53]


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
