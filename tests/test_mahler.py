"""Mahler measure constants and the derived exponent bound."""

import functools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from freeperiod import (
    BoundMode,
    EValue,
    IntPoly,
    content_primitive,
    e_of_irreducible,
    enumerate_candidates,
    parse_poly,
    power_index,
    prime_bound,
    rotation_product_deflated,
)
from freeperiod.cyclotomic import cyclotomic, cyclotomic_tag
from freeperiod.intpoly import graeffe_iterates, log_mahler_upper
from freeperiod.mahler import LEHMER_LOG2_LB, house_bound
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


def numeric_house(f: IntPoly) -> float:
    return max(abs(z) for z in np.roots(list(reversed(f.coeffs))))


def test_lehmer_constant_is_exact_floor():
    # 2^(1171/5000) <= 1.17628 < 2^(1172/5000), in integer arithmetic
    assert 2**1171 * 100000**5000 <= 117628**5000
    assert 2**1172 * 100000**5000 > 117628**5000


@given(st.lists(st.integers(min_value=-20, max_value=20), min_size=1,
                max_size=8).filter(lambda cs: any(cs)))
def test_log_mahler_upper_is_an_upper_bound(cs):
    f = IntPoly(tuple(cs))
    assert numeric_log2_measure(f) <= float(log_mahler_upper(f)) + 1e-9


def landau_log2_upper(f: IntPoly) -> Fraction:
    """log2 of Landau's M(f) <= ||f||_2 alone, no Graeffe iterates."""
    return Fraction((f.l2_norm_sq() ** 64).bit_length(), 128)


def test_prime_bound_frozen_values():
    # heuristic: Graeffe-Landau values (Landau's bound on f alone gave 3
    # and 7); rigorous: Dimitrov's house bound, as both are monic
    golden = IntPoly((-1, -1, 1))
    fig8 = IntPoly((1, -3, 1))
    for f, heuristic, rigorous in [(golden, 2, 5), (fig8, 5, 11)]:
        assert prime_bound(f, BoundMode.HEURISTIC) == heuristic
        # sound: no smaller than the bound from the numeric measure
        measured = numeric_log2_measure(f) / float(LEHMER_LOG2_LB)
        assert heuristic >= math.floor(measured)
        # never looser than Landau's bound on f itself
        landau = landau_log2_upper(f) / LEHMER_LOG2_LB
        assert heuristic <= max(1, math.floor(landau))
        assert prime_bound(f, BoundMode.RIGOROUS) == rigorous
        # sound: no smaller than Dimitrov's bound on the numeric house
        assert rigorous >= math.floor(4 * f.degree * math.log2(numeric_house(f)) - 1e-9)


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


def test_prime_bound_rejections():
    with pytest.raises(ValueError):
        prime_bound(cyclotomic(6))
    with pytest.raises(ValueError):
        prime_bound(IntPoly((2, 1)))
    with pytest.raises(ValueError):
        prime_bound(IntPoly((5,)))


# -- the rigorous bound: Dimitrov's house bound and M >= 2 ----------------


@st.composite
def monic_polys(draw):
    d = draw(st.integers(min_value=2, max_value=12))
    const = draw(st.integers(min_value=1, max_value=20)) * draw(st.sampled_from([1, -1]))
    middle = draw(st.lists(st.integers(min_value=-20, max_value=20), min_size=d - 1,
                           max_size=d - 1))
    return IntPoly((const, *middle, 1))


@given(monic_polys())
def test_house_bound_is_an_upper_bound(f):
    numeric = 4 * f.degree * math.log2(numeric_house(f))
    assert house_bound(graeffe_iterates(f)) >= math.floor(numeric - 1e-9)


@st.composite
def degree_2_to_8_polys(draw):
    d = draw(st.integers(min_value=2, max_value=8))
    ends = st.integers(min_value=1, max_value=5).flatmap(
        lambda c: st.sampled_from([c, -c]))
    middle = draw(st.lists(st.integers(min_value=-9, max_value=9), min_size=d - 1,
                           max_size=d - 1))
    return IntPoly((draw(ends), *middle, draw(ends)))


@given(degree_2_to_8_polys())
def test_rigorous_bound_is_the_house_bound_or_log2_measure(f):
    # two terms at every degree: Dimitrov's for a monic primitive part,
    # M(theta) >= 2 for any other
    g = content_primitive(f)[1]
    assume(cyclotomic_tag(g) is None)
    iterates = graeffe_iterates(g)
    term = (house_bound(iterates) if g.lc == 1
            else math.floor(log_mahler_upper(g, iterates)))
    assert prime_bound(f, BoundMode.RIGOROUS) == max(1, term)


@pytest.mark.parametrize("f, bound", [
    (parse_poly("t^6 - t^4 + t^3 - t^2 + 1"), 12),
    (parse_poly("t^6 + t^5 - t^4 - t^3 - t^2 + t + 1"), 15)])
def test_rigorous_bound_on_the_degree_6_survey_factors(f, bound):
    # the only non-cyclotomic factors of degree <= 6 of the candidates
    # through genus 16; the screen rejects every prime up to the bound
    assert factor_over_z(f).factors == ((f, 1),)
    assert prime_bound(f, BoundMode.RIGOROUS) == bound
    assert e_of_irreducible(f, BoundMode.RIGOROUS) == EValue.finite(1)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-6, max_value=6), min_size=2, max_size=10),
       st.integers(min_value=2, max_value=7), st.sampled_from([1, 2, 3]))
def test_rigorous_bound_admits_a_true_power(middle, n, lc):
    # R(x) = prod (x - beta^n) over the roots beta of g; when R is
    # irreducible its root beta^n generates Q(beta), so E >= n.  The house
    # bound (monic g) or log2 M (non-monic g) decides at every degree.
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
    # part, Dimitrov's house bound, and not M(theta) >= 2
    f = IntPoly((2, -94, 2))
    assert prime_bound(f, BoundMode.RIGOROUS) == prime_bound(IntPoly((1, -47, 1)),
                                                            BoundMode.RIGOROUS) >= 8
    assert math.floor(log_mahler_upper(f)) < 8
