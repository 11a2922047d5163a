"""Acceptance gate: nine pinned criteria, one test and one verdict line each.

Every test asserts its frozen expectations and its runtime budget, then
prints a single "[criterion N] PASS" line; a failed assertion leaves the
FAIL explanation in the pytest report.  Criterion 8 repeats the whole
survey through genus 16 and takes about half an hour single-core, so it
only runs when FPL_FULL_SURVEY=1 is set; it is also the one criterion
with a known genuine failure, documented at the assertion.
"""

import math
import os
import random
import time

import pytest

from freeperiod import (
    IntPoly,
    construct_witness,
    cyclotomic_tag,
    e_of_irreducible,
    factor_over_z,
    hartley_profile,
    is_n_hartley,
    murasugi_screen,
    parse_poly,
    survey,
    verify_witness,
)
from freeperiod.cyclotomic import cyclotomic
from freeperiod.modpoly import reduce_mod_p

from polys import D26, D30, FIG8, K14

F1 = parse_poly("t^3 - 3*t^2 + 5*t - 4")
F2 = parse_poly("4*t^3 - 5*t^2 + 3*t - 1")


def _done(n: int, start: float, limit: float, detail: str) -> None:
    elapsed = time.monotonic() - start
    assert elapsed < limit, (
        f"criterion {n} exceeded its {limit:.0f}s budget: {elapsed:.1f}s")
    print(f"[criterion {n}] PASS: {detail} ({elapsed:.1f}s)")


def test_criterion_1_factorization_vector():
    start = time.monotonic()
    fp = factor_over_z(K14)
    assert fp.sign == 1 and fp.content == 1
    assert fp.factors == ((F1, 1), (F2, 1))
    _done(1, start, 1.0, "degree-6 vector splits into the two pinned cubics")


def test_criterion_2_witness_vector():
    start = time.monotonic()
    h1 = parse_poly("t^3 - t^2 - t + 2")
    h2 = parse_poly("2*t^3 - t^2 - t + 1")
    held, sign = verify_witness(K14, 2, h1 * h2)
    assert held and sign == 1
    held, sign = verify_witness(F1, 2, h1)
    assert held and sign == -1
    _done(2, start, 1.0, "pinned order-2 witnesses verify with signs +1/-1")


def test_criterion_3_cyclotomic_coprimality_law():
    start = time.monotonic()
    positives = 0
    for m in range(1, 31):
        phi_m = cyclotomic(m)
        profile = hartley_profile(phi_m)
        for n in range(2, 61):
            expected = math.gcd(n, m) == 1
            assert is_n_hartley(profile, n) == expected, (m, n)
            if expected:
                cert = construct_witness(phi_m, n)
                held, sign = verify_witness(phi_m, n, cert.witness)
                assert cert.verified and held and sign == cert.sign, (m, n)
                positives += 1
    _done(3, start, 120.0,
          f"gcd law plus {positives} verified witnesses, m <= 30, n <= 60")


def _inflation_degrees(f: IntPoly, n: int) -> set[int]:
    return {int(g.degree) for g, _ in factor_over_z(f.inflate(n)).factors}


def test_criterion_4_e_invariant_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(41)
    corpus: list[IntPoly] = []
    seen = set()
    while len(corpus) < 50:
        deg = rng.randint(2, 8)
        coeffs = tuple(rng.randint(-9, 9) for _ in range(deg)) + (
            rng.choice([c for c in range(-9, 10) if c]),)
        f = IntPoly(coeffs)
        fp = factor_over_z(f)
        if fp.content != 1 or len(fp.factors) != 1:
            continue
        ((g, mult),) = fp.factors
        if mult != 1 or int(g.degree) != deg or cyclotomic_tag(g) is not None:
            continue
        if g.coeffs in seen:
            continue
        seen.add(g.coeffs)
        corpus.append(g)
    for f in corpus:
        value = e_of_irreducible(f)
        assert not value.is_cyclotomic
        # independent oracle: which inflations carry a degree-deg f factor
        direct = {n for n in range(2, 13)
                  if int(f.degree) in _inflation_degrees(f, n)}
        assert direct == {n for n in range(2, 13) if value.e % n == 0}, f
        if value.e <= 12:
            assert value.e == max(direct, default=1), f
    _done(4, start, 300.0,
          "E agrees with direct inflation factoring on 50 irreducibles")


def test_criterion_5_decision_witness_coherence():
    start = time.monotonic()
    rng = random.Random(37)
    pool = [cyclotomic(m) for m in (1, 2, 3, 4, 5, 6, 8, 10, 12)] + [
        FIG8, F1, F2,
        parse_poly("t^2 - t - 1"),
        parse_poly("t^2 - 2"),
        parse_poly("t^2 - 3"),
        parse_poly("t^2 - 4*t - 1"),
        parse_poly("t^2 - 7*t + 1"),
        parse_poly("t^2 - 18*t + 1"),
        parse_poly("t^3 - t - 1"),
        parse_poly("t^3 - 2"),
    ]
    configs = 0
    positives = 0
    while configs < 500:
        delta = IntPoly.one()
        for _ in range(rng.randint(1, 3)):
            delta = delta * rng.choice(pool) ** rng.randint(1, 4)
        profile = hartley_profile(delta)
        for n in range(2, 13):
            if is_n_hartley(profile, n):
                cert = construct_witness(delta, n)
                held, sign = verify_witness(delta, n, cert.witness)
                assert held and sign == cert.sign, (delta, n)
                positives += 1
            else:
                with pytest.raises(ValueError):
                    construct_witness(delta, n)
        configs += 1
    _done(5, start, 600.0,
          f"{configs} configs, all orders 2..12, {positives} verified positives")


def test_criterion_6_murasugi_vector():
    start = time.monotonic()
    quotient = parse_poly("t^14 + t^12 - t^8 - t^7 - t^6 + t^2 + 1")
    target = tuple(reduce_mod_p(quotient, 2))
    hits = murasugi_screen(D30, 2)
    assert any(tuple(reduce_mod_p(h.quotient, 2)) == target for h in hits)
    _done(6, start, 10.0, "degree-30 period-2 hit matches the pinned quotient")


def test_criterion_7_ci_scale_survey():
    start = time.monotonic()
    rep = survey(10)
    assert rep.tally.counts["candidates"] == 1023
    assert rep.tally.hartley_exceptional == []
    assert 2 not in rep.tally.murasugi_exceptional
    assert rep.to_json() == survey(10).to_json()
    _done(7, start, 600.0,
          "1023 candidates, no escapes through genus 10, deterministic")


def _exponents(poly: IntPoly) -> tuple[int, ...]:
    return tuple(i for i in range(int(poly.degree), -1, -1) if poly[i])


@pytest.mark.skipif(os.environ.get("FPL_FULL_SURVEY") != "1",
                    reason="genus-16 survey takes ~4 min single-core; "
                           "set FPL_FULL_SURVEY=1 to run")
def test_criterion_8_full_survey():
    start = time.monotonic()
    rep = survey(16)
    assert rep.tally.counts["candidates"] == 65535
    escapes = {(r.candidate.genus, r.candidate.exponents)
               for r in rep.tally.murasugi_exceptional.get(2, ())}
    assert escapes == {(15, _exponents(D30)), (13, _exponents(D26))}
    elapsed = time.monotonic() - start
    assert elapsed < 4 * 3600
    hx = rep.tally.hartley_exceptional
    if hx:
        detail = "; ".join(
            f"genus {r.candidate.genus} exponents {r.candidate.exponents}"
            f" with members {r.hartley.members}" for r in hx)
        print(f"[criterion 8] FAIL: n-Hartley non-cyclotomic candidates "
              f"exist: {detail} ({elapsed:.1f}s)")
    assert hx == [], (
        "the zero-count expectation is genuinely unattainable for the "
        "unfiltered family: the genus-16 candidate with exponents "
        "(32, 29, 23, 21, 20, 19, 18, 16, 14, 13, 12, 11, 9, 3, 0) is "
        "irreducible, non-cyclotomic, and order-2 Hartley, with exact "
        "witness t^32 - t^29 + t^23 - t^21 - t^20 + t^19 + t^18 - t^16 + "
        "t^14 + t^13 - t^12 - t^11 + t^9 - t^3 + 1; its top gap is 3, so "
        "the zero count does hold for the top-gap-1 subfamily")
    print(f"[criterion 8] PASS: 65535 candidates, two period-2 escapes, "
          f"no order-n escapes ({elapsed:.1f}s)")


def test_criterion_9_refactorization_round_trip():
    start = time.monotonic()
    rng = random.Random(99)
    pool = [cyclotomic(m) for m in (1, 2, 3, 4, 6)] + [
        FIG8, F1, F2,
        parse_poly("t^2 - t - 1"),
        parse_poly("t^2 - 2"),
        parse_poly("t^3 - t - 1"),
        parse_poly("2*t^2 - 3*t + 2"),
        parse_poly("t"),
        parse_poly("t + 4"),
    ]
    for _ in range(500):
        f = IntPoly.constant(rng.choice([1, -1]) * rng.randint(1, 9))
        for _ in range(rng.randint(1, 4)):
            f = f * rng.choice(pool) ** rng.randint(1, 3)
        fp = factor_over_z(f)
        assert fp.expand() == f
        assert factor_over_z(fp.expand()) == fp
    _done(9, start, 300.0, "500 products re-factor expansion-identically")
