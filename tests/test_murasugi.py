"""Murasugi congruence screen: paper vectors, completeness, verification."""

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import freeperiod
from freeperiod import (
    FactoredPoly,
    IntPoly,
    MurasugiHit,
    murasugi_screen,
    murasugi_screen_all,
    parse_poly,
    verify_hit,
)
from freeperiod.cyclotomic import cyclotomic, prime_power
from freeperiod.lspace import candidate_record, enumerate_candidates
from freeperiod.modpoly import gfp_divmod, reduce_mod_p
from freeperiod.murasugi import _run_power

from polys import D26, D30, FIG8, K14, TREFOIL

NONMONIC = parse_poly("2*t^2 - 3*t + 2")
G3_NONCYCLO = parse_poly("t^6 - t^4 + t^3 - t^2 + 1")
G5_CAND = parse_poly("t^10 - t^9 + t^7 - t^5 + t^3 - t + 1")


def as_tuples(hits):
    return {(h.lam, h.shift, h.sign, tuple(h.quotient)) for h in hits}


# -- reference implementation, no shared code with the screen --------------


def _mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return out


def _red(f, p):
    cs = [c % p for c in f]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _congruence_holds(delta, q, lam, shift, sign, dcoeffs, p):
    rhs = [1]
    for _ in range(q - 1):
        rhs = _mul(rhs, [1] * lam, p)
    for _ in range(q):
        rhs = _mul(rhs, list(dcoeffs), p)
    rhs = [0] * shift + rhs
    if sign < 0:
        rhs = [(-c) % p for c in rhs]
    return _red(rhs, p) == _red(delta, p)


def _brute_force(delta, q):
    # Every (lam, shift, sign, D) with D of the exact degree forced by the
    # degree count, D(1) = +-1 mod p (a quotient Alexander value), and the
    # congruence checked by direct multiplication.
    p = prime_power(q)[0]
    deg = len(_red(delta, p)) - 1
    signs = (1,) if p == 2 else (1, -1)
    found = set()
    lam = 1
    while (lam - 1) * (q - 1) <= int(delta.degree):
        for shift in range(deg + 1):
            num = deg - shift - (lam - 1) * (q - 1)
            if num < 0 or num % q:
                continue
            d = num // q
            for code in range(p ** (d + 1)):
                coeffs, c = [], code
                for _ in range(d + 1):
                    coeffs.append(c % p)
                    c //= p
                if coeffs[-1] == 0 or sum(coeffs) % p not in (1, p - 1):
                    continue
                for sign in signs:
                    if _congruence_holds(delta, q, lam, shift, sign, coeffs, p):
                        found.add((lam, shift, sign, tuple(coeffs)))
        lam += 1
    return found


@pytest.mark.parametrize("delta", [
    TREFOIL, FIG8, K14, NONMONIC, cyclotomic(10), G3_NONCYCLO, G5_CAND,
])
@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_screen_is_complete(delta, q):
    assert as_tuples(murasugi_screen(delta, q)) == _brute_force(delta, q)


def full_division_solutions(delta, q):
    """The solver's (lam, shift, sign, D) in report order, found by a full
    division for every (sign, lam, shift) with the checks made afterwards."""
    p = prime_power(q)[0]
    dbar = reduce_mod_p(delta, p)
    ord0 = next(i for i, c in enumerate(dbar) if c)
    raw = []
    for sign in (1,) if p == 2 else (1, -1):
        target = dbar if sign > 0 else [-c % p for c in dbar]
        lam = 1
        while (lam - 1) * (q - 1) <= int(delta.degree):
            shape = list(_run_power(lam, q, p))
            for shift in range(ord0 % q, ord0 + 1, q):
                quo, rem = gfp_divmod(target[shift:], shape, p)
                if any(rem) or any(c and i % q for i, c in enumerate(quo)):
                    continue
                d_bar = quo[::q]
                if sum(d_bar) % p in (1, p - 1):
                    raw.append((lam, shift, sign, tuple(d_bar)))
            lam += 1
    return sorted(raw, key=lambda r: (r[0], r[1], -r[2], r[3]))


def _in_order(hits):
    return [(h.lam, h.shift, h.sign, tuple(h.quotient)) for h in hits]


@st.composite
def alexander_shaped(draw):
    """Palindromic of degree up to 24, nonzero at 0, value 1 at 1; the ends
    may share a prime."""
    end = draw(st.integers(min_value=1, max_value=6))
    inner = draw(st.lists(st.integers(min_value=-5, max_value=5), max_size=11))
    half = [end] + inner
    middle = 1 - 2 * sum(half)
    return IntPoly(tuple(half + [middle] + half[::-1]))


def _prime_powers_upto(top):
    return [q for q in range(2, top + 1) if prime_power(q) is not None]


@settings(max_examples=80, deadline=None)
@given(alexander_shaped())
@example(IntPoly((3,) + (0,) * 11 + (-5,) + (0,) * 11 + (3,)))
def test_screen_matches_full_division_solver(delta):
    # every q the sweep reaches, 11, 13, 16, 17 and 19 included at degree 24
    for q in _prime_powers_upto(int(delta.degree) + 1):
        expected = full_division_solutions(delta, q)
        assert _in_order(murasugi_screen(delta, q)) == expected, q


@pytest.mark.parametrize("delta,q", [
    (NONMONIC, 2),                          # non-monic, 2 | Delta(0): shift 1
    (parse_poly("3t^4 - 3t^3 + t^2 - 3t + 3"), 3),
    (parse_poly("2t^4 - 4t^3 + 5t^2 - 4t + 2"), 2),
    (parse_poly("2t^4 - 4t^3 + 5t^2 - 4t + 2"), 4),
    (K14, 2), (D30, 2), (D26, 2), (D30, 4), (D26, 8),
])
def test_screen_matches_full_division_solver_vectors(delta, q):
    hits = murasugi_screen(delta, q)
    assert _in_order(hits) == full_division_solutions(delta, q)


def _genus_le_8():
    return list(enumerate_candidates(8))


def test_screen_all_with_the_records_factorization_matches_without():
    for cand in _genus_le_8():
        factored = FactoredPoly(1, 1, candidate_record(cand).factors)
        assert (murasugi_screen_all(cand.poly, factored)
                == murasugi_screen_all(cand.poly)), cand.exponents


def test_screen_all_is_the_screens_over_ascending_q():
    for cand in _genus_le_8():
        top = int(cand.poly.degree) + 1
        per_q = [h for q in _prime_powers_upto(top)
                 for h in murasugi_screen(cand.poly, q)]
        assert murasugi_screen_all(cand.poly) == per_q, cand.exponents


# -- torus-knot and paper vectors ------------------------------------------


def test_trefoil_hits_match_its_actual_periods():
    # T(2,3): period 2 with axis linking 3, period 3 with axis linking 2
    assert as_tuples(murasugi_screen(TREFOIL, 2)) == {(3, 0, 1, (1,))}
    assert as_tuples(murasugi_screen(TREFOIL, 3)) == {
        (2, 0, 1, (1,)), (2, 0, -1, (2,))}
    assert all(h.divides for h in murasugi_screen_all(TREFOIL))


def test_fig8_screen_all_covers_q_2_and_3_only():
    hits = murasugi_screen_all(FIG8)
    assert as_tuples(murasugi_screen(FIG8, 2)) == {(3, 0, 1, (1,))}
    assert {h.q for h in hits} == {2}
    assert murasugi_screen(FIG8, 3) == []


def test_solomon_seal_hits_match_torus_periods():
    # Phi_10 is the T(2,5) polynomial: periods 2 (lam 5) and 5 (lam 2)
    phi10 = cyclotomic(10)
    assert as_tuples(murasugi_screen(phi10, 2)) == {(5, 0, 1, (1,))}
    assert as_tuples(murasugi_screen(phi10, 5)) == {
        (2, 0, 1, (1,)), (2, 0, -1, (4,))}
    assert {h.q for h in murasugi_screen_all(phi10)} == {2, 5}


def test_k14_screen_at_2():
    hits = murasugi_screen(K14, 2)
    assert as_tuples(hits) == {(1, 1, 1, (1, 1, 1))}
    # 4t^3-5t^2+3t-1 reduces to t^2+t+1, so the quotient divides over Z
    assert hits[0].divides


def test_nonmonic_polynomial_screens():
    assert as_tuples(murasugi_screen(NONMONIC, 2)) == {(1, 1, 1, (1,))}
    assert murasugi_screen(NONMONIC, 3) == []


def test_degree_30_paper_quotient():
    quotient = parse_poly("t^14 + t^12 - t^8 - t^7 - t^6 + t^2 + 1")
    target = tuple(reduce_mod_p(quotient, 2))
    matches = [h for h in murasugi_screen(D30, 2)
               if tuple(reduce_mod_p(h.quotient, 2)) == target]
    assert matches and matches[0].lam == 3 and matches[0].divides
    (h,) = matches
    assert _congruence_holds(D30, 2, h.lam, h.shift, h.sign,
                             list(h.quotient), 2)


def test_degree_26_companion_quotient():
    hits = [h for h in murasugi_screen(D26, 2) if h.divides]
    assert hits
    (h,) = hits
    assert (h.lam, h.shift, tuple(h.quotient)) == (15, 0, (1, 0, 1, 1, 1, 0, 1))
    assert _congruence_holds(D26, 2, h.lam, h.shift, h.sign,
                             list(h.quotient), 2)


# -- hit invariants and verification ---------------------------------------


@pytest.mark.parametrize("delta", [TREFOIL, K14, D30, G3_NONCYCLO])
def test_hit_invariants(delta):
    hits = murasugi_screen_all(delta)
    for h in hits:
        p = prime_power(h.q)[0]
        assert (h.lam - 1) * (h.q - 1) <= int(delta.degree)
        assert all(0 <= c < p for c in h.quotient)
        assert h.sign == 1 if p == 2 else h.sign in (1, -1)
        assert verify_hit(delta, h)


def test_hits_sorted_within_each_q():
    hits = murasugi_screen(cyclotomic(10), 5)
    keys = [(h.lam, h.shift, -h.sign, tuple(h.quotient)) for h in hits]
    assert keys == sorted(keys)


def test_verify_hit_rejects_tampered_hits():
    (good,) = murasugi_screen(K14, 2)
    assert verify_hit(K14, good)
    bad_lam = MurasugiHit(q=2, lam=3, quotient=good.quotient,
                          shift=good.shift, sign=1, divides=False)
    bad_quo = MurasugiHit(q=2, lam=good.lam, quotient=IntPoly((1, 1)),
                          shift=good.shift, sign=1, divides=False)
    bad_shift = MurasugiHit(q=2, lam=good.lam, quotient=good.quotient,
                            shift=0, sign=1, divides=False)
    assert not any(verify_hit(K14, h) for h in (bad_lam, bad_quo, bad_shift))


def test_failed_reverification_raises_under_python_O():
    # the re-verification must not be an assert statement, which -O strips
    script = (
        "import freeperiod.murasugi as m\n"
        "m.verify_hit = lambda delta, hit: False\n"
        "try:\n"
        "    m.murasugi_screen(m.IntPoly((1, -1, 1)), 2)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit('an unverified hit was returned')\n")
    src = str(Path(freeperiod.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


# -- rejections ------------------------------------------------------------


def test_rejects_polynomials_outside_the_screen_domain():
    with pytest.raises(ValueError, match="must not vanish at 0"):
        murasugi_screen(parse_poly("t^2 - t"), 2)
    with pytest.raises(ValueError, match=r"evaluate to \+-1 at 1"):
        murasugi_screen(parse_poly("t^2 + 1"), 2)
    with pytest.raises(ValueError, match="must not vanish at 0"):
        murasugi_screen_all(parse_poly("t^3 + t"))


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12])
def test_rejects_non_prime_power_periods(q):
    with pytest.raises(ValueError, match="not a prime power"):
        murasugi_screen(TREFOIL, q)
