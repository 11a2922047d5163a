"""Integer polynomial core: arithmetic, inflation, text round trips."""

import pytest
from hypothesis import given, strategies as st

from freeperiod import IntPoly, content_primitive, format_poly, parse_poly
from freeperiod.intpoly import graeffe, trace_lift, trace_reduce

polys = st.builds(
    lambda cs: IntPoly(tuple(cs)),
    st.lists(st.integers(min_value=-30, max_value=30), max_size=9))
nonzero_polys = polys.filter(bool)
points = st.integers(min_value=-7, max_value=7)


def test_trailing_zeros_trim():
    assert IntPoly((1, 2, 0, 0)) == IntPoly((1, 2))
    assert IntPoly((0, 0)) == IntPoly.zero()
    assert not IntPoly.zero()


def test_degree_and_lc():
    f = IntPoly((1, -3, 1))
    assert f.degree == 2 and f.lc == 1
    assert IntPoly.zero().degree == float("-inf")
    assert IntPoly.constant(5).degree == 0


def test_getitem_out_of_range_is_zero():
    f = IntPoly((1, 2))
    assert f[5] == 0 and f[0] == 1


@given(polys, polys, points)
def test_ring_ops_agree_with_evaluation(f, g, x):
    assert (f + g)(x) == f(x) + g(x)
    assert (f - g)(x) == f(x) - g(x)
    assert (f * g)(x) == f(x) * g(x)
    assert (-f)(x) == -f(x)


@given(polys, st.integers(min_value=0, max_value=4))
def test_pow_is_repeated_multiplication(f, e):
    out = IntPoly.one()
    for _ in range(e):
        out = out * f
    assert f**e == out


@given(polys, st.integers(min_value=1, max_value=4), points)
def test_inflate_evaluation(f, n, x):
    assert f.inflate(n)(x) == f(x**n)


@given(polys, st.integers(min_value=1, max_value=3),
       st.integers(min_value=1, max_value=3))
def test_inflate_composes(f, a, b):
    assert f.inflate(a).inflate(b) == f.inflate(a * b)


@given(polys, st.integers(min_value=1, max_value=4))
def test_inflate_deflate_round_trip(f, n):
    # every n-th coefficient of f(t^n) is f's, in order
    assert f.inflate(n).coeffs[::n] == f.coeffs


def test_palindromic_up_to_sign():
    assert IntPoly((1, -3, 1)).is_palindromic_up_to_sign()
    assert IntPoly((4, -17, 38, -51, 38, -17, 4)).is_palindromic_up_to_sign()
    assert IntPoly((-1, 0, 1)).is_palindromic_up_to_sign()
    assert not IntPoly((1, -2, 3)).is_palindromic_up_to_sign()


# palindromic polynomials of even degree 2m, m = 0..6, wide coefficients
palindromes = st.builds(
    lambda low, mid: IntPoly(tuple(low) + (mid,) + tuple(reversed(low))),
    st.lists(st.integers(min_value=-2**70, max_value=2**70), max_size=6),
    st.integers(min_value=-2**70, max_value=2**70),
).filter(lambda f: f and f[0])


@given(palindromes, st.fractions(min_value=-5, max_value=5).filter(bool))
def test_trace_reduce_writes_f_as_t_m_h_of_t_plus_inverse(f, x):
    h = trace_reduce(f)
    m = f.degree // 2
    assert h.degree == m and h.lc == f.lc and h.content() == f.content()
    assert f(x) == x**m * h(x + 1 / x)
    assert trace_lift(h) == f


@given(nonzero_polys)
def test_trace_lift_inverts_trace_reduce(h):
    f = trace_lift(h)
    assert f.degree == 2 * h.degree and f.coeffs == f.coeffs[::-1]
    assert trace_reduce(f) == h


def test_trace_reduce_needs_an_even_degree_palindrome():
    assert trace_reduce(IntPoly((4, -17, 38, -51, 38, -17, 4))) == IntPoly((-17, 26, -17, 4))
    assert trace_reduce(IntPoly((1, 1))) is None  # odd degree
    assert trace_reduce(IntPoly((-1, 0, 1))) is None  # anti-palindromic
    assert trace_reduce(IntPoly((1, -2, 3))) is None


def test_order_at_zero_and_shift_down():
    f = IntPoly((0, 0, 2, 1))
    assert f.order_at_zero() == 2
    assert f.shift_down(2) == IntPoly((2, 1))
    with pytest.raises(ValueError):
        f.shift_down(3)


@given(nonzero_polys, nonzero_polys)
def test_try_divide_round_trip(f, g):
    prod = f * g
    q = prod.try_divide(g)
    assert q == f


def test_try_divide_non_divisor():
    assert IntPoly((1, 0, 1)).try_divide(IntPoly((1, 1))) is None
    # divides over Q but not over Z
    assert IntPoly((1, 1)).try_divide(IntPoly((2, 2))) is None


def test_content_primitive_conventions():
    assert content_primitive(IntPoly((-12, 0, 6))) == (6, IntPoly((-2, 0, 1)), 1)
    c, pp, sign = content_primitive(IntPoly((4, -6)))
    assert (c, sign) == (2, -1) and pp == IntPoly((-2, 3))
    assert sign * c * pp == IntPoly((4, -6))
    with pytest.raises(ValueError):
        content_primitive(IntPoly.zero())


@given(nonzero_polys)
def test_content_primitive_reassembles(f):
    c, pp, sign = content_primitive(f)
    assert sign * c * pp == f
    assert pp.content() == 1 and pp.lc > 0


def test_parse_symbolic_forms():
    assert parse_poly("t^2 - 3t + 1") == IntPoly((1, -3, 1))
    assert parse_poly("4t^6-17*t^5+38t^4-51t^3+38t^2-17t+4") == IntPoly(
        (4, -17, 38, -51, 38, -17, 4))
    assert parse_poly("-t + 2") == IntPoly((2, -1))
    assert parse_poly("7") == IntPoly((7,))
    assert parse_poly("t") == IntPoly.x()
    assert parse_poly("t ^ 2 - 3 t + 1") == IntPoly((1, -3, 1))
    assert parse_poly("3 t") == IntPoly((0, 3))


def test_parse_coefficient_list_is_ascending():
    assert parse_poly("1, -3, 1") == IntPoly((1, -3, 1))
    assert parse_poly("2,-1") == IntPoly((2, -1))
    assert parse_poly(" 1, -3, 1 ") == IntPoly((1, -3, 1))


@pytest.mark.parametrize("bad", ["", "t^-2", "t^2-", "1,x,3", "t^2 ** 2", "tt",
                                 "t^2 3", "1 -3 1", "1 0, 2", "1 2t"])
def test_parse_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_poly(bad)


@given(polys)
def test_format_parse_round_trip(f):
    assert parse_poly(format_poly(f)) == f


def test_format_spot_checks():
    assert format_poly(IntPoly((1, -3, 1))) == "t^2 - 3*t + 1"
    assert format_poly(IntPoly.zero()) == "0"
    assert format_poly(IntPoly((-1,))) == "-1"
    assert format_poly(IntPoly((0, -1, 0, 2))) == "2*t^3 - t"


def test_l2_norm_sq():
    assert IntPoly((2, 0, -1)).l2_norm_sq() == 5
    assert IntPoly.zero().l2_norm_sq() == 0


def test_from_terms_accumulates():
    f = IntPoly.from_terms([(0, 1), (2, 1), (2, 2)])
    assert f == IntPoly((1, 0, 3))


@given(polys, points)
def test_derivative_product_rule(f, x):
    g = IntPoly((1, 1, 2))
    lhs = (f * g).derivative()
    rhs = f.derivative() * g + f * g.derivative()
    assert lhs == rhs


@given(polys)
def test_graeffe_squares_the_roots(f):
    # G(f)(t^2) = (-1)^d f(t) f(-t), so G has the squared roots of f
    f_neg = IntPoly(tuple((-1) ** i * a for i, a in enumerate(f.coeffs)))
    g = graeffe(f)
    sign = -1 if len(f.coeffs) % 2 == 0 else 1
    assert g.inflate(2) == f * f_neg * sign
    assert g.degree == f.degree and g.lc == f.lc ** 2
