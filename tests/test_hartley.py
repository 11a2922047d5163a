"""The free-period factorization condition: E values, caps, witnesses."""

import math
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from freeperiod import (
    BoundMode,
    Candidate,
    EValue,
    IntPoly,
    construct_witness,
    e_of_irreducible,
    factor_over_z,
    hartley_profile,
    hartley_set,
    is_n_hartley,
    normalize_alexander,
    parse_poly,
    power_index,
    prime_bound,
    profile_from_factors,
    rational_power_index,
    rotation_product_deflated,
    verify_witness,
)
from freeperiod import hartley
from freeperiod.cli import _hartley_check_row
from freeperiod.cyclotomic import cyclotomic
from freeperiod.hartley import (
    _aux_primes, _cyclotomic_rotation_product, _points, _power_residue_rejects)
from freeperiod.modpoly import gfp_deriv, gfp_eval, is_prime, reduce_mod_p
from freeperiod.zfactor import _FACTOR_CACHE_SIZE
from polys import FIG8, GOLDEN, K14, TREFOIL

# -- rational roots --------------------------------------------------------


@pytest.mark.parametrize("num,den,e", [
    (4, 1, 2), (8, 1, 3), (64, 1, 6), (16, 1, 4), (72, 1, 1),
    (2, 1, 1), (2, 3, 1), (1, 4, 2), (8, 27, 3), (-8, 1, 3),
    (-4, 1, 1), (-16, 1, 1), (-27, 8, 3), (9, 1, 2),
])
def test_rational_power_index_vectors(num, den, e):
    assert rational_power_index(num, den) == EValue.finite(e)


@given(st.integers(min_value=2, max_value=40),
       st.integers(min_value=1, max_value=6))
def test_rational_power_index_detects_powers(base, e):
    got = rational_power_index(base**e, 1).e
    assert got % e == 0
    # the claimed power really is attained
    root = round((base**e) ** (1 / got))
    assert root**got == base**e


@pytest.mark.parametrize("num,den", [(4, 2), (1, 1), (-1, 1), (0, 1), (3, -1)])
def test_rational_power_index_rejects(num, den):
    with pytest.raises(ValueError):
        rational_power_index(num, den)


def test_evalue_class():
    assert EValue.finite(3).e == 3
    assert not EValue.finite(3).is_cyclotomic
    ev = EValue.cyclotomic_zero(6)
    assert ev.is_cyclotomic and ev.e == 0
    assert ev.cyclotomic_order == 6
    with pytest.raises(ValueError):
        EValue.finite(0)


# -- the power test --------------------------------------------------------


def test_power_index_golden_square_chain():
    # phi^2 = phi + 1 lives in the field, phi^(1/2) does not
    assert power_index(FIG8, 2) == 1
    assert power_index(FIG8, 3) == 0
    assert power_index(FIG8, 5) == 0
    assert power_index(GOLDEN, 2) == 0
    assert power_index(GOLDEN, 3) == 0


def test_power_index_respects_max_r():
    assert power_index(FIG8, 2, max_r=0) == 0
    assert power_index(FIG8, 2, max_r=1) == 1


def test_power_index_composite_p_rejected():
    with pytest.raises(ValueError):
        power_index(FIG8, 4)


@pytest.mark.parametrize("m", [3, 1, 6])
def test_power_index_rejects_cyclotomic_input(m):
    # Phi_3(t^(2^r)) keeps the factor Phi_3 at every r, so without the
    # check the unbounded loop would never stop
    with pytest.raises(ValueError, match="cyclotomic"):
        power_index(cyclotomic(m), 2)


def test_e_memo_is_bounded_like_the_factor_memo():
    assert e_of_irreducible.cache_info().maxsize == _FACTOR_CACHE_SIZE


# -- the power-residue screen ----------------------------------------------


def reference_residue_reject(f: IntPoly, pr: int, tries: int) -> bool:
    """One p^r at a time, one numpy evaluation of f per auxiliary prime;
    a q with a residue root and no rejection counts one pass."""
    passes = 0
    for q in _aux_primes(pr):
        if passes >= tries:
            break
        if f[0] % q:
            fbar = reduce_mod_p(f.coeffs, q)
            xs = np.arange(q, dtype=np.int64)
            vals = np.zeros_like(xs)
            for c in reversed(fbar):
                vals = (vals * xs + c) % q
            dbar = gfp_deriv(fbar, q)
            residue = False
            for x in np.nonzero(vals == 0)[0]:
                x = int(x)
                if gfp_eval(dbar, x, q) == 0:
                    continue
                if pow(x, (q - 1) // pr, q) != 1:
                    return True
                residue = True
            passes += residue
    return False


SCREEN_PRIMES = [p for p in range(2, 61) if is_prime(p)]
SCREEN_LEVELS = [
    {p: 8 if p == 2 else 4 for p in SCREEN_PRIMES},
    {p: 2 for p in SCREEN_PRIMES},
    {4: 4, 8: 4, 9: 4, 25: 4},
    {2: 1, 3: 2, 4: 3, 5: 1, 8: 2, 9: 1, 25: 2, 7: 5},
]


def _reference_rejects(f: IntPoly, levels: dict[int, int]) -> set[int]:
    return {pr for pr, tries in levels.items() if reference_residue_reject(f, pr, tries)}


def _irreducible(f: IntPoly) -> bool:
    return factor_over_z(f).factors == ((f, 1),)


@st.composite
def screen_polys(draw):
    """Irreducible primitive f of degree 2..14, palindromic or not."""
    coeff = st.integers(min_value=-4, max_value=4)
    lead = draw(st.integers(min_value=1, max_value=4))
    if draw(st.booleans()):
        half = [lead] + draw(st.lists(coeff, min_size=1, max_size=6))
        middle = [] if draw(st.booleans()) else [draw(coeff)]
        cs = half + middle + half[::-1]
    else:
        const = draw(st.integers(min_value=1, max_value=4)) * draw(st.sampled_from([1, -1]))
        cs = [const] + draw(st.lists(coeff, min_size=1, max_size=11)) + [lead]
    f = IntPoly(tuple(cs))
    assume(_irreducible(f))
    return f


# a prime p^r >= 10^6 whose first auxiliary prime q = 2 p^r + 1 has
# q^3 > 2^64, so a round that holds it must reduce at every Horner step
BIG_LEVEL = 1350053


@settings(max_examples=80, deadline=None)
@given(screen_polys(), st.sampled_from(SCREEN_LEVELS))
# the first round of 2 holds q = 3, 5, ..., 29; here its one try is used
# up at q = 11 and a later q of that round would reject, so the rest of
# the round must be dropped
@example(parse_poly("t^3 - 2t^2 - 3t + 2"), SCREEN_LEVELS[3])
# 2 passes at q = 11, 17, 19 and rejects at q = 23, inside the same round
# as q = 29
@example(parse_poly("t^7 - 3t^6 - 2t^5 + 3t^3 + 3t^2 - 2t + 3"), SCREEN_LEVELS[0])
# the square of a root of t^2 - t - 7: f(0) = 49, so q = 7 lies inside the
# first round of 2 and must be skipped, as its root x = 0 would reject
@example(parse_poly("t^2 - 15t + 49"), SCREEN_LEVELS[0])
# one round with q = 2700107 beside the small q of 2 and 3 (s = 1); f is
# t^8 - 1 mod q, whose simple roots +-1 are the only residues of level
# BIG_LEVEL, so an overflowing Horner step would likely make it reject
@example(IntPoly((-1, -2700107, 0, 0, 0, 0, 0, 0, 1)), {2: 8, 3: 4, BIG_LEVEL: 1})
# two passing roots mod one q count one pass, so at tries 2 the walk goes on
# to the next q, which rejects (counting roots would stop it there)
@example(parse_poly("2t^10 - 2t^9 + 3t^8 + t^7 + 4t^6 + 2t^5 + 2t^4 - 2t^3 + t^2 + 3"),
         SCREEN_LEVELS[1])
# palindromic f are screened through h with f = t^4 h(t + 1/t).  Here
# f(1) = h(2) = 5, so mod 5 h has the root y = 2 and f the double root
# x = 1, which must not count as a pass: counting it ends the walks of 2
# and 3 before the primes that reject them
@example(parse_poly("t^8 + 2t^7 + 2t^6 - 4t^5 + 3t^4 - 4t^3 + 2t^2 + 2t + 1"),
         SCREEN_LEVELS[1])
# here some root y of h mod q has y^2 - 4 a non-residue, so its x, 1/x
# lie outside F_q and say nothing; reading V_e(y) there anyway would
# reject 2, which no degree-1 root rejects
@example(parse_poly("4t^8 + 3t^7 + 2t^6 - t^5 - 3t^4 - t^3 + 2t^2 + 3t + 4"),
         SCREEN_LEVELS[1])
# q = 23 and 29 lie in the first rounds of the walks of 2, 11 and 7, which
# share their root sets; 2 ends by its tries at q = 19 before reading them,
# and 29 still rejects 7
@example(FIG8, SCREEN_LEVELS[1])
# 2 passes 5 of its 8 tries in its first round, and in its second, at twice
# the budget, passes the last at q = 71 with q = 73 .. 157 of that round left
@example(FIG8, SCREEN_LEVELS[0])
def test_batched_residue_screen_matches_per_prime_loop(f, levels):
    assert _power_residue_rejects(f, levels) == _reference_rejects(f, levels)


@settings(max_examples=40, deadline=None)
@given(screen_polys(), st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
def test_residue_screen_never_rejects_a_true_power(g, pr):
    # R(x) = lc^pr * prod (x - beta^pr); when R is irreducible its root
    # beta^pr generates Q(beta), so it is a p^r-th power in its own field
    fac = factor_over_z(rotation_product_deflated(g, pr))
    assume(len(fac.factors) == 1 and fac.factors[0][1] == 1)
    f = fac.factors[0][0]
    levels = {pr: 16, **{p: 4 for p in (2, 3, 5, 7, 11) if p != pr}}
    assert pr not in _power_residue_rejects(f, levels)


def test_residue_screen_reduces_wide_coefficients_first():
    big = 2**64 + 13
    for f in (IntPoly((big + 2, -3 * big, 5, 1)),
              IntPoly((7, 3**45, -(2**70), 3**45, 7)),
              FIG8 * IntPoly((big, 1)) + IntPoly((1,))):
        assert max(abs(c) for c in f.coeffs) > 2**63
        for levels in SCREEN_LEVELS:
            assert _power_residue_rejects(f, levels) == _reference_rejects(f, levels)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([q for q in range(3, 2000) if is_prime(q)]))
@example(3)
@example(100003)
def test_screen_points_are_powers_of_a_primitive_root(q):
    xs = _points(q, False).tolist()
    g = xs[1]
    assert xs == [pow(g, k, q) for k in range(q - 1)]
    assert sorted(xs) == list(range(1, q))
    ys = _points(q, True).tolist()
    assert ys == [(pow(g, k, q) + pow(g, -k, q)) % q for k in range(1, (q - 1) // 2)]
    assert sorted(ys) == [y for y in range(q) if pow(y * y - 4, (q - 1) // 2, q) == 1]
    if q == 3:
        assert ys == []


@pytest.mark.parametrize("pr", [2, 3, 4, 5, 8, 9, 25, 59, 64, 97, BIG_LEVEL])
def test_aux_primes_are_the_primes_of_the_progression(pr):
    assert _aux_primes(pr) == tuple(
        q for q in range(pr + 1, 200 * pr + 2000, pr) if is_prime(q))


def test_residue_screen_vectors():
    # phi^2 passes at 2 (square of phi) and fails at 3; phi passes nothing
    assert _power_residue_rejects(FIG8, {2: 8, 3: 4, 5: 4}) == {3, 5}
    assert _power_residue_rejects(GOLDEN, {2: 8, 3: 4}) == {2, 3}
    assert _power_residue_rejects(FIG8, {}) == set()


def test_e_of_irreducible_golden_powers():
    # minimal polynomials of phi^k carry E = k for these k
    assert e_of_irreducible(FIG8) == EValue.finite(2)
    assert e_of_irreducible(GOLDEN) == EValue.finite(1)
    assert e_of_irreducible(parse_poly("t^2-4t-1")) == EValue.finite(3)
    assert e_of_irreducible(parse_poly("t^2-7t+1")) == EValue.finite(4)
    assert e_of_irreducible(parse_poly("t^2-18t+1")) == EValue.finite(6)


def test_e_of_irreducible_other_cases():
    assert e_of_irreducible(cyclotomic(6)) == EValue.cyclotomic_zero(6)
    assert e_of_irreducible(cyclotomic(1)) == EValue.cyclotomic_zero(1)
    assert e_of_irreducible(IntPoly((-4, 1))) == EValue.finite(2)
    assert e_of_irreducible(IntPoly((2, 1))) == EValue.finite(1)
    k14_factors = [g for g, _ in factor_over_z(K14).factors]
    assert [e_of_irreducible(g).e for g in k14_factors] == [2, 2]
    with pytest.raises(ValueError):
        e_of_irreducible(IntPoly.x())


@pytest.mark.parametrize("mode", list(BoundMode))
def test_e_screens_each_prime_at_level_1_once(monkeypatch, mode):
    # the batched screen of e_of_irreducible passes p at level 1 with the
    # tries power_index would use, and the walk is deterministic, so
    # power_index starts its own screens at level 2
    calls = []

    def spy(f, levels):
        calls.append(dict(levels))
        return _power_residue_rejects(f, levels)

    monkeypatch.setattr(hartley, "_power_residue_rejects", spy)
    f = parse_poly("t^2 - 7t + 1")
    k14_factors = [g for g, _ in factor_over_z(K14).factors]
    for g, e in [(f, 4)] + [(h, 2) for h in k14_factors]:
        calls.clear()
        assert e_of_irreducible.__wrapped__(g, mode) == EValue.finite(e)
        batch, *single = calls
        assert batch and all(is_prime(p) for p in batch)
        assert all(len(levels) == 1 and not is_prime(next(iter(levels)))
                   for levels in single)
        if g == f:
            assert {4: 4} in single
    monkeypatch.undo()
    assert construct_witness(f, 4).witness == parse_poly("t^2 - t - 1")
    assert construct_witness(f, 2).witness == FIG8
    assert construct_witness(K14, 2).witness == IntPoly((2, 3, -2, -7, -2, 3, 2))


def test_e_of_irreducible_rigorous_degree_20_is_quick():
    # candidate (20,16,12,10,8,4,0): Landau's bound of 79 sent the rigorous
    # search into a degree-1220 inflation at p = 61; Graeffe iterates cap
    # it at 39 and Dimitrov's house bound at 14
    f = Candidate.from_gap_set(10, frozenset({16, 12})).poly
    assert f.degree == 20 and factor_over_z(f).factors == ((f, 1),)
    assert prime_bound(f, BoundMode.RIGOROUS) <= 14
    factor_over_z.cache_clear()
    start = time.monotonic()
    ev = e_of_irreducible.__wrapped__(f, BoundMode.RIGOROUS)  # uncached
    assert time.monotonic() - start < 10.0
    assert ev == EValue.finite(1)


@pytest.mark.parametrize("coeffs,e", [
    ((2, -1), 1), ((4, -1), 2), ((-8, -1), 3), ((-4, -1), 1),
])
def test_e_of_irreducible_degree_one_negative_leading(coeffs, e):
    # the root -f0/f1 is 2, 4, -8 and -4
    assert e_of_irreducible(IntPoly(coeffs)) == EValue.finite(e)


def test_e_of_irreducible_rigorous_stall_candidate_is_quick():
    # counting one pass per residue root let a residue pair {x, 1/x} at each
    # of q = 419, 647 use up the p = 19 tries, and power_index then factored
    # the degree-608 inflation f(t^19) for about 50 s
    f = Candidate.from_gap_set(16, frozenset({31, 29, 28, 27, 22, 18})).poly
    assert f.degree == 32 and factor_over_z(f).factors == ((f, 1),)
    assert _power_residue_rejects(f, {19: 4}) == {19}
    factor_over_z.cache_clear()
    start = time.monotonic()
    ev = e_of_irreducible.__wrapped__(f, BoundMode.RIGOROUS)  # uncached
    assert time.monotonic() - start < 10.0
    assert ev == EValue.finite(1)


# -- profiles and caps -----------------------------------------------------


def _cap(prof, p):
    return dict(prof.caps).get(p, prof.default_cap)


def test_profile_cyclotomic_coprimality():
    prof = hartley_profile(cyclotomic(6))
    assert prof.default_cap is None
    assert _cap(prof, 2) == 0 and _cap(prof, 3) == 0 and _cap(prof, 5) is None
    for n in range(2, 40):
        assert is_n_hartley(prof, n) == (math.gcd(n, 6) == 1)


def test_profile_noncyclotomic_finite():
    prof = hartley_profile(FIG8)
    assert prof.default_cap == 0
    assert prof.caps == ((2, 1),)
    assert prof.n_cap_product == prof.e_gcd_literal == 2
    assert is_n_hartley(prof, 2)
    assert not any(is_n_hartley(prof, n) for n in (3, 4, 5, 6, 8))


def test_profile_mixed_gcd_mismatch():
    # Phi_6 forbids n = 2 although the flat gcd formula still reports 2
    prof = profile_from_factors([(cyclotomic(6), 1), (FIG8, 1)])
    assert prof.e_gcd_literal == 2
    assert _cap(prof, 2) == 0 and prof.caps == ()
    assert prof.n_cap_product == 1
    assert hartley_set(prof).members == ()


def test_profile_multiplicity_power_law():
    for s in range(3):
        prof = profile_from_factors([(FIG8, 2**s)])
        assert _cap(prof, 2) == s + 1
        assert is_n_hartley(prof, 2 ** (s + 1))
        assert not is_n_hartley(prof, 2 ** (s + 2))


def test_profile_odd_multiplicity_does_not_feed_two():
    prof = profile_from_factors([(GOLDEN, 3)])
    assert _cap(prof, 3) == 1 and _cap(prof, 2) == 0
    assert hartley_set(prof).members == (3,)


@given(st.lists(st.sampled_from([FIG8, GOLDEN, cyclotomic(6), cyclotomic(5),
                                 parse_poly("t^2-4t-1")]),
                min_size=1, max_size=3, unique=True),
       st.sampled_from([FIG8, GOLDEN, cyclotomic(10)]),
       st.integers(min_value=2, max_value=12))
def test_caps_shrink_under_extra_factors(base, extra, n):
    small = profile_from_factors([(f, 1) for f in base])
    big = profile_from_factors([(f, 1) for f in base] + [(extra, 1)])
    if is_n_hartley(big, n):
        assert is_n_hartley(small, n)


def test_profile_rejections():
    with pytest.raises(ValueError):
        hartley_profile(IntPoly.zero())
    with pytest.raises(ValueError):
        hartley_profile(IntPoly((2, 2)))
    with pytest.raises(ValueError):
        is_n_hartley(hartley_profile(FIG8), 1)


def test_hartley_set_formats():
    finite = hartley_set(hartley_profile(FIG8))
    assert finite.finite and str(finite) == "{2}"
    rule = hartley_set(hartley_profile(cyclotomic(6)), limit=12)
    assert not rule.finite
    assert rule.rule == "gcd(n, 6) = 1"
    assert rule.members == (5, 7, 11)
    empty = hartley_set(hartley_profile(GOLDEN))
    assert empty.finite and empty.members == ()
    t18 = hartley_set(hartley_profile(parse_poly("t^2-18t+1")))
    assert t18.members == (2, 3, 6)


def test_hartley_set_rule_variants():
    prof = profile_from_factors([(cyclotomic(12), 1)])
    hs = hartley_set(prof, limit=15)
    assert hs.rule == "gcd(n, 6) = 1"
    assert hs.members == (5, 7, 11, 13)
    # multiplicity on a cyclotomic factor adds a finite v_p allowance
    prof4 = profile_from_factors([(cyclotomic(6), 4)])
    hs4 = hartley_set(prof4, limit=15)
    assert hs4.rule == "gcd(n, 3) = 1 and v_2(n) <= 2"
    assert hs4.members == (2, 4, 5, 7, 10, 11, 13, 14)


# -- rotation products and witnesses ---------------------------------------


def rotation_product_reference(g: IntPoly, n: int) -> list[IntPoly]:
    """prod_{i<n} g(z^i t) computed in Z[z]/(Phi_n), coefficients in z."""
    phi = cyclotomic(n)

    def zmod(f: IntPoly) -> IntPoly:
        # remainder modulo the monic Phi_n, so integral at every step
        r, d = list(f.coeffs), phi.degree
        for k in range(len(r) - 1, d - 1, -1):
            c = r[k]
            for j, a in enumerate(phi.coeffs):
                r[k - d + j] -= c * a
        return IntPoly(tuple(r[:d]))

    acc = {0: IntPoly.one()}
    for i in range(n):
        term = {k: zmod(IntPoly.monomial((i * k) % n, c))
                for k, c in enumerate(g.coeffs) if c}
        nxt: dict[int, IntPoly] = {}
        for ka, fa in acc.items():
            for kb, fb in term.items():
                cur = nxt.get(ka + kb, IntPoly.zero())
                nxt[ka + kb] = cur + zmod(fa * fb)
        acc = {k: v for k, v in nxt.items() if v}
    top = max(acc) if acc else 0
    return [acc.get(k, IntPoly.zero()) for k in range(top + 1)]


@settings(max_examples=60, deadline=None)
@given(st.builds(lambda cs: IntPoly(tuple(cs)),
                 st.lists(st.integers(min_value=-5, max_value=5),
                          min_size=1, max_size=5)).filter(bool),
       st.integers(min_value=2, max_value=5))
def test_rotation_product_matches_quotient_ring(g, n):
    ref = rotation_product_reference(g, n)
    r = rotation_product_deflated(g, n)
    eps = (-1) ** ((n - 1) * g.degree)
    # the symmetric product collapses to rational integers: it is eps * R(t^n)
    assert all(c.degree <= 0 for c in ref)
    ref_map = {k: c[0] for k, c in enumerate(ref) if c}
    got_map = {k * n: eps * c for k, c in enumerate(r.coeffs) if c}
    assert ref_map == got_map
    assert r.degree == g.degree


@settings(max_examples=60, deadline=None)
@given(st.builds(lambda cs: IntPoly(tuple(cs)),
                 st.lists(st.integers(min_value=-5, max_value=5),
                          min_size=1, max_size=5)).filter(bool),
       st.integers(min_value=2, max_value=5))
def test_nth_power_product_supported_on_multiples(g, n):
    # prod_{i<n} g(z^i t) has nonzero coefficients only at multiples of n
    # and degree n * deg g
    ref = rotation_product_reference(g, n)
    support = [k for k, c in enumerate(ref) if c]
    assert all(k % n == 0 for k in support)
    assert max(support) == g.degree * n


@pytest.mark.parametrize("j", range(1, 31))
def test_cyclotomic_closed_form_equals_power_sums(j):
    # R for Phi_j is Phi_(j/d)^(phi(j)/phi(j/d)), d = gcd(j, n); products
    # and a negative sign go through the same path
    for g in (cyclotomic(j), -(cyclotomic(j) ** 2 * cyclotomic(1) * cyclotomic(6))):
        for n in range(2, 13):
            assert _cyclotomic_rotation_product(g, n) == rotation_product_deflated(g, n)


T = IntPoly.x()


@pytest.mark.parametrize("g", [
    IntPoly((0, 1, -1, 1)),
    -(T**2) * cyclotomic(1) * cyclotomic(10) ** 2,
    T**3,
    T * cyclotomic(2) * cyclotomic(12),
])
def test_closed_form_with_powers_of_t_equals_power_sums(g):
    # the root 0 of t stays 0 under the n-th power, so t^a contributes x^a
    for n in range(2, 13):
        assert _cyclotomic_rotation_product(g, n) == rotation_product_deflated(g, n)


def test_closed_form_only_for_cyclotomic_products():
    for g in (GOLDEN, 2 * cyclotomic(6), 3 * cyclotomic(6), FIG8 * cyclotomic(7),
              T * parse_poly("t^2 - 3t + 1")):
        assert _cyclotomic_rotation_product(g, 5) is None


def test_past_the_power_sum_budget():
    n = 2**61 - 1
    assert verify_witness(TREFOIL, n, TREFOIL) == (True, 1)
    assert verify_witness(cyclotomic(15), n, cyclotomic(15)) == (True, 1)
    # gcd(6, 3n) = 3: the 3n-th powers of the primitive 6th roots are -1
    assert verify_witness(cyclotomic(2) ** 2, 3 * n, cyclotomic(6)) == (True, 1)
    with pytest.raises(ValueError, match="witness verification"):
        verify_witness(FIG8, n, GOLDEN)


def test_verify_witness_fig8():
    assert verify_witness(FIG8, 2, GOLDEN) == (True, 1)
    assert verify_witness(FIG8, 2, parse_poly("t^2+t-1")) == (True, 1)
    assert verify_witness(FIG8, 2, parse_poly("t-1")) == (False, None)
    assert verify_witness(FIG8, 3, GOLDEN) == (False, None)


def test_verify_witness_k14_pair():
    h1 = parse_poly("t^3 - t^2 - t + 2")
    h2 = parse_poly("2t^3 - t^2 - t + 1")
    assert verify_witness(K14, 2, h1 * h2) == (True, 1)
    f1 = parse_poly("t^3 - 3t^2 + 5t - 4")
    assert verify_witness(f1, 2, h1) == (True, -1)


def test_verify_witness_edge_cases():
    assert verify_witness(IntPoly.zero(), 2, IntPoly.zero()) == (True, 1)
    assert verify_witness(FIG8, 2, IntPoly.zero()) == (False, None)
    with pytest.raises(ValueError):
        verify_witness(FIG8, 1, GOLDEN)


def test_construct_witness_fig8():
    cert = construct_witness(FIG8, 2)
    assert cert.witness == GOLDEN and cert.sign == 1 and cert.verified
    assert verify_witness(FIG8, 2, cert.witness) == (True, 1)


def test_construct_witness_k14():
    cert = construct_witness(K14, 2)
    assert cert.verified
    holds, sign = verify_witness(K14, 2, cert.witness)
    assert holds and sign == cert.sign


def test_construct_witness_cyclotomic_routes():
    cert5 = construct_witness(cyclotomic(6), 5)
    assert cert5.witness == cyclotomic(6) and cert5.verified
    cert2 = construct_witness(cyclotomic(5), 2)
    assert cert2.witness == cyclotomic(10) and cert2.verified


def test_construct_witness_with_t_power():
    delta = IntPoly.x() * FIG8
    cert = construct_witness(delta, 2)
    assert cert.verified
    assert verify_witness(delta, 2, cert.witness) == (True, cert.sign)


def test_construct_witness_power_case():
    delta = FIG8**2
    cert = construct_witness(delta, 4)
    assert cert.verified
    assert verify_witness(delta, 4, cert.witness) == (True, cert.sign)


def test_construct_witness_refuses_non_hartley():
    with pytest.raises(ValueError):
        construct_witness(FIG8, 3)
    with pytest.raises(ValueError):
        construct_witness(GOLDEN, 2)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(
    [FIG8, GOLDEN, TREFOIL, cyclotomic(5), cyclotomic(12),
     parse_poly("t^2-4t-1"), parse_poly("t^2-7t+1")]),
    min_size=1, max_size=3),
    st.integers(min_value=2, max_value=10))
def test_decision_and_witness_cohere(fs, n):
    delta = IntPoly.one()
    for f in fs:
        delta = delta * f
    prof = hartley_profile(delta)
    if is_n_hartley(prof, n):
        cert = construct_witness(delta, n)
        assert cert.verified
        assert verify_witness(delta, n, cert.witness) == (True, cert.sign)
    else:
        with pytest.raises(ValueError):
            construct_witness(delta, n)


# -- hartley-check --knot ---------------------------------------------------


def _knot_check(delta, n):
    return _hartley_check_row(delta, BoundMode.HEURISTIC, n, knot=True)[0]


def test_knot_check_fig8_passes_preconditions():
    row = _knot_check(FIG8, 2)
    assert row["verdict"] and row["witness"] == list(GOLDEN)
    assert row["sign"] == 1
    assert row["witness_unit_at_one"]
    # the golden witness is not self-reciprocal: its mirror is t^2 + t - 1
    assert not row["witness_palindromic"]


def test_knot_check_normalizes_negative_constant():
    assert _knot_check(-FIG8, 2) == _knot_check(FIG8, 2)


def test_knot_check_negative_verdict():
    assert _knot_check(FIG8, 4) == {"n": 4, "verdict": False}


def test_knot_check_precondition_failures():
    with pytest.raises(ValueError, match="not palindromic"):
        _knot_check(parse_poly("t^2-2"), 2)
    with pytest.raises(ValueError, match="value at 1 is 4"):
        _knot_check(parse_poly("t^2+2t+1"), 2)
    with pytest.raises(ValueError, match="nonzero constant term"):
        _knot_check(IntPoly((0, 1, 1)), 2)


def _knot_shaped(cs, alexander, unit, sign, k):
    # alexander: mirror cs and set the middle coefficient so the value at 1
    # is unit, which the normaliser accepts whenever cs[0] != 0
    if alexander:
        cs = cs[:-1] + [unit - 2 * sum(cs[:-1])] + cs[-2::-1]
    return IntPoly.monomial(k, sign) * IntPoly(tuple(cs))


@settings(max_examples=80, deadline=None)
@given(st.builds(_knot_shaped,
                 st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
                 st.booleans(), st.sampled_from((1, -1)), st.sampled_from((1, -1)),
                 st.integers(min_value=0, max_value=2)),
       st.integers(min_value=2, max_value=4))
def test_knot_check_refuses_exactly_what_the_normaliser_refuses(delta, n):
    try:
        want = normalize_alexander(delta)
    except ValueError:
        want = None
    if want is None or delta[0] == 0:
        with pytest.raises(ValueError):
            _knot_check(delta, n)
    else:
        # --knot answers for the normal form, plus witness diagnostics
        row = _knot_check(delta, n)
        plain = _hartley_check_row(want, BoundMode.HEURISTIC, n, knot=False)[0]
        assert {k: row[k] for k in plain} == plain
        assert row.keys() - plain.keys() == (
            {"witness_unit_at_one", "witness_palindromic"} if row["verdict"]
            else set())
