"""Cyclotomic polynomials and the supporting arithmetic functions."""

import math
import types

import pytest
from hypothesis import given, strategies as st

from freeperiod import (
    IntPoly,
    cyclotomic_tag,
    phi_inverse,
    prime_power,
)
from freeperiod.cyclotomic import cyclotomic, divisors, euler_phi, factorint, v_p


def test_package_attribute_is_the_submodule():
    import freeperiod
    import freeperiod.cyclotomic as cy

    assert isinstance(freeperiod.cyclotomic, types.ModuleType)
    assert cy is freeperiod.cyclotomic and cy.cyclotomic is cyclotomic

@given(st.integers(min_value=1, max_value=5000))
def test_factorint_reassembles(n):
    fac = factorint(n)
    assert math.prod(p**e for p, e in fac.items()) == n
    for p in fac:
        assert all(p % d for d in range(2, p))


@given(st.integers(min_value=1, max_value=2000))
def test_divisors_complete(n):
    ds = divisors(n)
    assert ds == sorted(d for d in range(1, n + 1) if n % d == 0)


@given(st.integers(min_value=1, max_value=500))
def test_euler_phi_brute(n):
    assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_prime_power_cases():
    assert prime_power(8) == (2, 3)
    assert prime_power(9) == (3, 2)
    assert prime_power(7) == (7, 1)
    assert prime_power(1) is None
    assert prime_power(6) is None
    assert prime_power(12) is None


@given(st.integers(min_value=1, max_value=10000),
       st.sampled_from([2, 3, 5, 7]))
def test_v_p_definition(n, p):
    r = v_p(n, p)
    assert n % p**r == 0 and n % p ** (r + 1) != 0


def test_cyclotomic_small_values():
    assert cyclotomic(1) == IntPoly((-1, 1))
    assert cyclotomic(2) == IntPoly((1, 1))
    assert cyclotomic(6) == IntPoly((1, -1, 1))
    assert cyclotomic(12) == IntPoly((1, 0, -1, 0, 1))
    assert cyclotomic(14) == IntPoly((1, -1, 1, -1, 1, -1, 1))


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient outside {-1, 0, 1} appears
    assert min(cyclotomic(105).coeffs) == -2
    for m in range(1, 105):
        assert all(abs(c) <= 1 for c in cyclotomic(m).coeffs)


@given(st.integers(min_value=1, max_value=40))
def test_cyclotomic_product_over_divisors(n):
    prod = IntPoly.one()
    for d in divisors(n):
        prod = prod * cyclotomic(d)
    assert prod == IntPoly.monomial(n) - IntPoly.one()


@given(st.integers(min_value=1, max_value=24))
def test_phi_inverse_is_exact_fiber(d):
    ms = phi_inverse(d)
    assert ms == sorted(ms)
    assert all(euler_phi(m) == d for m in ms)
    # phi(m) >= sqrt(m/2), so the fiber lives below 2 d^2 + 1
    expected = [m for m in range(1, 2 * d * d + 2) if euler_phi(m) == d]
    assert ms == expected


def test_phi_inverse_odd_degrees_empty():
    assert phi_inverse(3) == []
    assert phi_inverse(5) == []
    assert phi_inverse(1) == [1, 2]


@given(st.integers(min_value=1, max_value=60))
def test_cyclotomic_tag_identifies(m):
    assert cyclotomic_tag(cyclotomic(m)) == m


def test_cyclotomic_tag_rejects_others():
    assert cyclotomic_tag(IntPoly((1, -3, 1))) is None
    assert cyclotomic_tag(IntPoly((-1, 1, 1))) is None
    assert cyclotomic_tag(IntPoly((2, 2))) is None
    assert cyclotomic_tag(IntPoly((1, 1)) * IntPoly((1, -1, 1))) is None
