"""Mahler measure constants and the derived exponent bound."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freeperiod import (
    BoundMode,
    IntPoly,
    e_of_irreducible,
    enumerate_candidates,
    power_index,
    prime_bound,
    rotation_product_deflated,
)
from freeperiod.cyclotomic import cyclotomic, cyclotomic_tag
from freeperiod.intpoly import graeffe_iterates, log_mahler_upper
from freeperiod.mahler import (
    LEHMER_LOG2_LB,
    MIN_LOG2_TABLE,
    MIN_MEASURE_WITNESS,
    house_bound,
)
from freeperiod.modpoly import is_prime
from freeperiod.zfactor import factor_over_z


def numeric_log2_measure(f: IntPoly) -> float:
    roots = np.roots(list(reversed(f.coeffs)))
    out = math.log2(abs(f.lc))
    for z in roots:
        r = abs(z)
        if r > 1:
            out += math.log2(r)
    return out


def test_lehmer_constant_is_exact_floor():
    # 2^(1171/5000) <= 1.17628 < 2^(1172/5000), in integer arithmetic
    assert 2**1171 * 100000**5000 <= 117628**5000
    assert 2**1172 * 100000**5000 > 117628**5000


def test_table_witnesses_attain_the_bounds():
    for d, lb in MIN_LOG2_TABLE.items():
        w = IntPoly(MIN_MEASURE_WITNESS[d])
        assert w.degree == d
        fac = factor_over_z(w)
        assert len(fac.factors) == 1 and fac.factors[0][1] == 1
        measured = numeric_log2_measure(w)
        # the stored value is a lower bound, and a sharp one
        assert float(lb) <= measured + 1e-12
        assert measured - float(lb) < 1e-4


def test_degree_six_matches_degree_three():
    # an irreducible inflation carries the plastic measure up to degree 6
    assert MIN_LOG2_TABLE[6] == MIN_LOG2_TABLE[3]
    w3, w6 = IntPoly(MIN_MEASURE_WITNESS[3]), IntPoly(MIN_MEASURE_WITNESS[6])
    assert abs(numeric_log2_measure(w6) - numeric_log2_measure(w3)) < 1e-9


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1,
                max_size=8).filter(lambda cs: any(cs)))
def test_log_mahler_upper_is_an_upper_bound(cs):
    f = IntPoly(tuple(cs))
    assert numeric_log2_measure(f) <= float(log_mahler_upper(f)) + 1e-9


def landau_log2_upper(f: IntPoly) -> Fraction:
    """log2 of Landau's M(f) <= ||f||_2 alone, no Graeffe iterates."""
    return Fraction((f.l2_norm_sq() ** 64).bit_length(), 128)


def test_prime_bound_frozen_values():
    # Graeffe-Landau values; Landau's bound on f alone gave 3/1 and 7/2
    golden = IntPoly((-1, -1, 1))
    fig8 = IntPoly((1, -3, 1))
    cases = [(golden, BoundMode.HEURISTIC, 2), (golden, BoundMode.RIGOROUS, 1),
             (fig8, BoundMode.HEURISTIC, 5), (fig8, BoundMode.RIGOROUS, 2)]
    for f, mode, value in cases:
        bound = prime_bound(f, mode)
        assert bound == value
        # the measure gap of the mode at degree 2
        gap = LEHMER_LOG2_LB if mode is BoundMode.HEURISTIC else MIN_LOG2_TABLE[2]
        # sound: no smaller than the bound from the numeric measure
        measured = numeric_log2_measure(f) / float(gap)
        assert bound >= math.floor(measured)
        # never looser than Landau's bound on f itself
        landau = landau_log2_upper(f) / gap
        assert bound <= max(1, math.floor(landau))


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1,
                max_size=8).filter(lambda cs: any(cs)))
def test_log_mahler_upper_never_exceeds_landau(cs):
    f = IntPoly(tuple(cs))
    assert log_mahler_upper(f) <= landau_log2_upper(f)


@pytest.mark.parametrize("f", [IntPoly((-1, 1)) ** 6, IntPoly((1, 1)) ** 7,
                               cyclotomic(5) ** 3])
def test_log_mahler_upper_on_repeated_unit_roots(f):
    # M = 1: the bound stays above 0 but the Graeffe iterates bring it close
    q = log_mahler_upper(f)
    assert 0 < q < Fraction(1, 4)
    assert numeric_log2_measure(f) <= float(q) - 0.05


def test_prime_bound_rigorous_never_looser():
    for coeffs in [(-1, -1, 1), (1, -3, 1), (-1, -1, 0, 1), (-4, 5, -3, 1),
                   (2, -3, 2), (-1, 1, 0, 0, 1)]:
        f = IntPoly(coeffs)
        assert prime_bound(f, BoundMode.RIGOROUS) <= \
            prime_bound(f, BoundMode.HEURISTIC)


def test_prime_bound_rejections():
    with pytest.raises(ValueError):
        prime_bound(cyclotomic(6))
    with pytest.raises(ValueError):
        prime_bound(IntPoly((2, 1)))
    with pytest.raises(ValueError):
        prime_bound(IntPoly((5,)))


# -- the rigorous bound: Dimitrov's house bound, M >= 2, the table --------


@st.composite
def monic_polys(draw):
    d = draw(st.integers(min_value=2, max_value=12))
    const = draw(st.integers(min_value=1, max_value=20)) * draw(st.sampled_from([1, -1]))
    middle = draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=d - 1,
                           max_size=d - 1))
    return IntPoly((const, *middle, 1))


@given(monic_polys())
def test_house_bound_is_an_upper_bound(f):
    house = max(abs(z) for z in np.roots(list(reversed(f.coeffs))))
    d = f.degree
    assert house_bound(graeffe_iterates(f)) >= math.floor(4 * d * math.log2(house) - 1e-9)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=10),
       st.integers(min_value=2, max_value=7), st.sampled_from([1, 2, 3]))
def test_rigorous_bound_admits_a_true_power(middle, n, lc):
    # R(x) = prod (x - beta^n) over the roots beta of g; when R is
    # irreducible its root beta^n generates Q(beta), so E >= n.  Above
    # degree 6 the house bound (monic g) or log2 M (non-monic g) decides.
    g = IntPoly((middle[0] or 1, *middle[1:], lc))
    r = rotation_product_deflated(g, n)
    fac = factor_over_z(r)
    assume(len(fac.factors) == 1 and fac.factors[0][1] == 1)
    assume(cyclotomic_tag(fac.factors[0][0]) is None)
    assert prime_bound(fac.factors[0][0], BoundMode.RIGOROUS) >= n


@functools.lru_cache(maxsize=1)
def _genus_9_factors() -> tuple[IntPoly, ...]:
    """The distinct non-cyclotomic factors of degree >= 2 of survey(9)."""
    factors = {g for c in enumerate_candidates(9) for g, _ in factor_over_z(c.poly).factors
               if g.degree >= 2 and cyclotomic_tag(g) is None}
    return tuple(sorted(factors, key=lambda g: g.coeffs))


def test_rigorous_bound_is_sound_on_the_genus_9_survey():
    factors = _genus_9_factors()
    assert len(factors) > 300
    for g in factors:
        assert e_of_irreducible(g, BoundMode.RIGOROUS).e <= prime_bound(g, BoundMode.RIGOROUS)


def test_rigorous_e_holds_when_searched_past_the_bound_on_the_genus_9_survey():
    # e_of_irreducible searches only below prime_bound, so the test above
    # would pass with a bound too small to see E.  Here E is searched again
    # up to B, twice the larger of the Lehmer-gap bound and the rigorous
    # one, at every prime p <= B and every level p^r <= B.
    factors = _genus_9_factors()
    assert len(factors) == 391
    for g in factors:
        big = 2 * max(math.floor(log_mahler_upper(g) / LEHMER_LOG2_LB),
                      prime_bound(g, BoundMode.RIGOROUS))
        e_big = 1
        for p in range(2, big + 1):
            if is_prime(p):
                max_r = 0
                while p ** (max_r + 1) <= big:
                    max_r += 1
                e_big *= p ** power_index(g, p, max_r)
        assert e_of_irreducible(g, BoundMode.RIGOROUS).e == e_big, g


@pytest.mark.parametrize("f", [IntPoly((-1, 3, -5, 4)), IntPoly((2, -3, 2)),
                               IntPoly((-3, 1, 1, 2)), IntPoly((5, 7, -1, 0, 6))])
def test_rigorous_bound_non_monic_is_log2_measure(f):
    # theta is not integral, so M(theta) >= 2 and E <= log2 M(f); the first
    # vector is the non-monic factor of the K14n26330 polynomial
    assert abs(f.lc) > 1 and factor_over_z(f).factors == ((f, 1),)
    assert prime_bound(f, BoundMode.RIGOROUS) <= max(1, math.floor(log_mahler_upper(f)))


def test_rigorous_bound_frozen_house_value():
    # a monic degree-18 genus-9 candidate: Dimitrov's house bound decides
    exps = (18, 17, 16, 14, 13, 12, 9, 6, 5, 4, 2, 1, 0)
    f = IntPoly.from_terms((b, (-1) ** j) for j, b in enumerate(exps))
    assert factor_over_z(f).factors == ((f, 1),)
    assert house_bound(graeffe_iterates(f)) == 18
    assert prime_bound(f, BoundMode.RIGOROUS) == 18


def test_rigorous_bound_non_primitive_keeps_the_measure_gap():
    # 2 (t^2 - 47t + 1) has the root phi^8 (E = 8): its leading coefficient
    # says nothing about integrality, so the bound is that of its primitive
    # part, the measure gap at degree 2, and not M(theta) >= 2
    f = IntPoly((2, -94, 2))
    assert prime_bound(f, BoundMode.RIGOROUS) == prime_bound(IntPoly((1, -47, 1)),
                                                            BoundMode.RIGOROUS) >= 8
    assert math.floor(log_mahler_upper(f)) < 8
