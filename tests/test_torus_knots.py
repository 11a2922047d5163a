"""Torus knots as a topological oracle for both obstructions.

T(p, q), with p < q coprime, has the Alexander polynomial
Delta = (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)) and genus
(p - 1)(q - 1)/2.  Rotating the torus about either core circle shows
periods p and q, so Murasugi's congruence must hold at each of them that
is a prime power.  Rotating along both cores at once shows a free period
n for every n coprime to pq, so Delta must be n-Hartley there, with a
witness that verifies.
"""

from math import gcd

from freeperiod import (
    IntPoly,
    construct_witness,
    hartley_profile,
    is_n_hartley,
    murasugi_screen,
)
from freeperiod.cyclotomic import prime_power

MAX_GENUS = 20
MAX_N = 20


def _t_minus_1(k: int) -> IntPoly:
    return IntPoly((-1, *[0] * (k - 1), 1))


def _torus_knots():
    """(p, q, Delta) for every torus knot T(p, q) of genus <= MAX_GENUS."""
    knots = []
    for p in range(2, MAX_GENUS + 2):
        for q in range(p + 1, 2 * MAX_GENUS + 2):
            if gcd(p, q) == 1 and (p - 1) * (q - 1) // 2 <= MAX_GENUS:
                delta = (_t_minus_1(p * q) * _t_minus_1(1)).try_divide(
                    _t_minus_1(p) * _t_minus_1(q))
                assert delta is not None and delta.degree == (p - 1) * (q - 1)
                knots.append((p, q, delta))
    return knots


def test_torus_knots_pass_the_murasugi_screen_at_their_periods():
    checked = 0
    for p, q, delta in _torus_knots():
        for period in (p, q):
            if prime_power(period) is not None:
                assert murasugi_screen(delta, period), (p, q, period)
                checked += 1
    assert checked == 76


def test_torus_knots_are_hartley_at_every_order_coprime_to_pq():
    checked = 0
    for p, q, delta in _torus_knots():
        profile = hartley_profile(delta)
        for n in range(2, MAX_N + 1):
            if gcd(n, p * q) == 1:
                assert is_n_hartley(profile, n), (p, q, n)
                assert construct_witness(delta, n).verified, (p, q, n)
                checked += 1
    assert checked == 336
