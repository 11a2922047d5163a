"""Dense integer polynomials in one variable t.

Everything downstream (factorization, Hartley tests, congruence screens)
works with `IntPoly`: an immutable dense coefficient vector over Z with
index i holding the coefficient of t^i.  The zero polynomial is the empty
vector and has degree -1, below every other degree.

Text format, both directions: symbolic "c_k*t^k + ... + c_0" with the "*"
optional ("3t^2" parses), or a comma separated ascending coefficient list.
Whitespace is ignored, except between two digits, where it is an error.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, Iterator, Sequence, Union

Scalar = Union[int, Fraction]


def _trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    """Drop trailing zeros so the representation is canonical."""
    n = len(coeffs)
    while n > 0 and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


@dataclass(frozen=True)
class IntPoly:
    """A polynomial in Z[t], stored densely in ascending order.

    >>> p = IntPoly((1, -3, 1))
    >>> p.degree, p[2], p[5]
    (2, 1, 0)
    >>> str(p)
    't^2 - 3*t + 1'
    """

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        c = _trim(self.coeffs)
        if c != self.coeffs or not isinstance(self.coeffs, tuple):
            object.__setattr__(self, "coeffs", c)
        for a in c:
            if not isinstance(a, int):
                raise TypeError(f"integer coefficients required, got {a!r}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "IntPoly":
        return cls(())

    @classmethod
    def one(cls) -> "IntPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "IntPoly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c: int) -> "IntPoly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c: int = 1) -> "IntPoly":
        """c * t^k."""
        if k < 0:
            raise ValueError("negative exponent")
        return cls((0,) * k + (c,))

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[int, int]]) -> "IntPoly":
        """Build from (exponent, coefficient) pairs; repeats accumulate."""
        acc: dict[int, int] = {}
        for k, c in terms:
            if k < 0:
                raise ValueError("negative exponent")
            acc[k] = acc.get(k, 0) + c
        if not acc:
            return cls.zero()
        out = [0] * (max(acc) + 1)
        for k, c in acc.items():
            out[k] = c
        return cls(tuple(out))

    # -- basic queries -----------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def lc(self) -> int:
        """Leading coefficient; 0 for the zero polynomial."""
        return self.coeffs[-1] if self.coeffs else 0

    def __getitem__(self, k: int) -> int:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else 0

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __len__(self) -> int:
        return len(self.coeffs)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coeffs)

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def l2_norm_sq(self) -> int:
        """Sum of squared coefficients, exact."""
        return sum(a * a for a in self.coeffs)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(_trim(out))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        out = list(self.coeffs) + [0] * max(0, len(other.coeffs) - len(self.coeffs))
        for i, c in enumerate(other.coeffs):
            out[i] -= c
        return IntPoly(_trim(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-a for a in self.coeffs))

    def __mul__(self, other: Union["IntPoly", int]) -> "IntPoly":
        if isinstance(other, int):
            if other == 0:
                return IntPoly.zero()
            return IntPoly(tuple(other * a for a in self.coeffs))
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPoly.zero()
        out = [0] * (len(a) + len(b) - 1)
        # schoolbook; degrees stay modest outside the mod-p kernels
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return IntPoly(_trim(out))

    __rmul__ = __mul__

    def __pow__(self, e: int) -> "IntPoly":
        if e < 0:
            raise ValueError("negative power")
        result = IntPoly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __call__(self, x: Scalar) -> Scalar:
        """Evaluate by Horner's rule; exact at integer and rational points."""
        acc: Scalar = 0
        for a in reversed(self.coeffs):
            acc = acc * x + a
        return acc

    # -- structural operations ---------------------------------------------

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * a for i, a in enumerate(self.coeffs))[1:] or ())

    def inflate(self, n: int) -> "IntPoly":
        """Return f(t^n).

        >>> str(IntPoly((1, -3, 1)).inflate(2))
        't^4 - 3*t^2 + 1'
        """
        if n <= 0:
            raise ValueError("inflation exponent must be positive")
        if n == 1 or not self.coeffs:
            return self
        out = [0] * ((len(self.coeffs) - 1) * n + 1)
        for i, a in enumerate(self.coeffs):
            out[i * n] = a
        return IntPoly(tuple(out))

    def is_palindromic_up_to_sign(self) -> bool:
        """True when f equals its reversal t^deg f(1/t) or minus it."""
        if not self.coeffs:
            return True
        r = self.coeffs[::-1]
        return self.coeffs == r or self.coeffs == tuple(-a for a in r)

    def order_at_zero(self) -> int:
        """Multiplicity of the root t = 0 (0 for the zero polynomial)."""
        for i, a in enumerate(self.coeffs):
            if a:
                return i
        return 0

    def shift_down(self, k: int) -> "IntPoly":
        """Divide by t^k; requires t^k | f."""
        if k == 0:
            return self
        if self.order_at_zero() < k:
            raise ValueError(f"t^{k} does not divide")
        return IntPoly(self.coeffs[k:])

    # -- content and division ----------------------------------------------

    def content(self) -> int:
        """Positive gcd of the coefficients (0 for the zero polynomial)."""
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def try_divide(self, d: "IntPoly") -> "IntPoly | None":
        """Exact quotient self / d in Z[t], or None when d does not divide.

        Top-down synthetic division; any non-integral quotient coefficient
        or nonzero remainder proves non-divisibility.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return IntPoly.zero()
        dn, dd = self.degree, d.degree
        if dn < dd:
            return None
        rem = list(self.coeffs)
        dl = d.lc
        q = [0] * (dn - dd + 1)
        for k in range(dn - dd, -1, -1):
            top = rem[k + dd]
            if top % dl:
                return None
            c = top // dl
            q[k] = c
            if c:
                for j, a in enumerate(d.coeffs):
                    rem[k + j] -= c * a
        if any(rem[:dd]):
            return None
        return IntPoly(tuple(q))

    # -- formatting --------------------------------------------------------

    def __str__(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"IntPoly({self.coeffs!r})"


def content_primitive(f: IntPoly) -> tuple[int, IntPoly, int]:
    """Split f as sign * content * primitive_part with positive leading term.

    Returns (content, primitive_part, sign).  The zero polynomial has no
    primitive part and is rejected.

    >>> content_primitive(IntPoly((-12, 0, 6)))
    (6, IntPoly((-2, 0, 1)), 1)
    """
    if not f:
        raise ValueError("zero polynomial has no content decomposition")
    c = f.content()
    sign = 1 if f.lc > 0 else -1
    pp = IntPoly(tuple(a // (sign * c) for a in f.coeffs))
    return c, pp, sign


def pseudo_rem(a: IntPoly, f: IntPoly) -> tuple[IntPoly, int]:
    """(r, e) with lc(f)^e a = r modulo f in Z[t], deg r < deg f and
    0 <= e <= deg a - deg f + 1, for f nonzero.

    Pseudo-division that scales lazily: an elimination step whose top
    coefficient lc(f) does not divide scales the remainder by lc(f) first,
    so a monic f never scales and e = 0.

    >>> pseudo_rem(IntPoly((1, 0, 1)), IntPoly((1, 2)))  # 4 (t^2 + 1) = (2t - 1)(2t + 1) + 5
    (IntPoly((5,)), 2)
    """
    d, lc = len(f.coeffs) - 1, f.lc
    c = list(a.coeffs)
    e = 0
    for j in range(len(c) - 1, d - 1, -1):
        top = c[j]
        if not top:
            continue
        if top % lc:
            c = [x * lc for x in c[: j + 1]]
            e += 1
            top *= lc
        quo = top // lc
        for i, x in enumerate(f.coeffs):
            c[j - d + i] -= quo * x
    return IntPoly(tuple(c[:d])), e


def graeffe(f: IntPoly) -> IntPoly:
    """Root squaring: the polynomial whose roots are the squares of f's.

    Writing f(t) = fe(t^2) + t*fo(t^2), the result is
    G(t) = (-1)^d (fe(t)^2 - t*fo(t)^2), so G(t^2) = (-1)^d f(t) f(-t),
    deg G = deg f and lc(G) = lc(f)^2.

    >>> graeffe(IntPoly((-1, -1, 1)))
    IntPoly((1, -3, 1))
    """
    c = f.coeffs
    out = [0] * len(c)
    # fe^2 - t fo^2, each square taking its cross terms a_i a_j (i < j)
    # once, doubled
    for shift, sign in ((0, 1), (1, -1)):
        half = c[shift::2]
        for i, a in enumerate(half):
            if a:
                out[2 * i + shift] += sign * a * a
                twice = 2 * sign * a
                for k, b in enumerate(half[i + 1:], 2 * i + 1 + shift):
                    out[k] += twice * b
    if len(c) % 2 == 0:
        out = [-v for v in out]
    return IntPoly(tuple(out))


# -- symmetric functions of the roots ---------------------------------------


def power_sums_monic(coeffs: Sequence[int], upto: int) -> list[int]:
    """Newton power sums s_0..s_upto (s_0 unused) of the roots of a monic
    integer polynomial, coefficients ascending."""
    d = len(coeffs) - 1
    s = [0] * (upto + 1)
    for k in range(1, upto + 1):
        acc = 0
        for j in range(1, min(k, d) + 1):
            acc += coeffs[d - j] * s[k - j]
        if k <= d:
            acc += k * coeffs[d - k]
        s[k] = -acc
    return s


def elementary_symmetric(pows: Sequence[int]) -> list[int]:
    """e_0..e_d of d algebraic integers from their power sums p_1..p_d,
    by Newton's identities j e_j = sum_(i <= j) (-1)^(i-1) e_(j-i) p_i;
    the divisions are exact because the e_j are integers."""
    e = [1]
    for j in range(1, len(pows) + 1):
        q, rem = divmod(sum((-1) ** (i - 1) * e[j - i] * pows[i - 1]
                            for i in range(1, j + 1)), j)
        assert rem == 0
        e.append(q)
    return e


# -- trace polynomials -----------------------------------------------------


def _dickson(m: int) -> list[list[int]]:
    """Coefficient lists of D_0..D_m, the polynomials with
    D_k(t + 1/t) = t^k + t^-k: D_0 = 2, D_1 = x, D_k = x D_(k-1) - D_(k-2)."""
    rows = [[2], [0, 1]]
    while len(rows) <= m:
        prev, cur = rows[-2], rows[-1]
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        rows.append(nxt)
    return rows[: m + 1]


def trace_reduce(f: IntPoly) -> "IntPoly | None":
    """The trace polynomial h with f = t^m h(t + 1/t), or None.

    Defined for palindromic f of even degree 2m: then
    t^-m f = a_m + sum_k a_(m+k) (t^k + t^-k), so h = a_m + sum_k a_(m+k) D_k.
    h has degree m, lc(h) = lc(f) and content(h) = content(f); the roots
    of f are the x with x + 1/x a root of h.

    >>> trace_reduce(IntPoly((1, -3, 1)))
    IntPoly((-3, 1))
    """
    a = f.coeffs
    if not a or len(a) % 2 == 0 or a != a[::-1]:
        return None
    m = len(a) // 2
    out = [a[m]] + [0] * m
    for k, row in enumerate(_dickson(m)[1:], start=1):
        if a[m + k]:
            for i, c in enumerate(row):
                out[i] += a[m + k] * c
    return IntPoly(tuple(out))


def trace_lift(h: IntPoly) -> IntPoly:
    """The palindromic f = t^m h(t + 1/t) of degree 2m = 2 deg h; inverts
    trace_reduce by peeling h into the monic D_k from the top."""
    if not h:
        return h
    m = len(h.coeffs) - 1
    rest = list(h.coeffs)
    out = [0] * (2 * m + 1)
    rows = _dickson(m)
    for k in range(m, 0, -1):
        c = rest[k]
        out[m + k] = out[m - k] = c
        if c:
            for i, d in enumerate(rows[k]):
                rest[i] -= c * d
    out[m] = rest[0]
    return IntPoly(tuple(out))


# Graeffe iterates tried by the measure and house bounds; each halves the
# relative slack of Landau's bound at O(d^2) big-integer cost
GRAEFFE_DEPTH = 6


def graeffe_iterates(f: IntPoly) -> list[IntPoly]:
    """f, G f, ..., G^GRAEFFE_DEPTH f: G^k f has the roots of f raised to
    the power 2^k, so M(G^k f) = M(f)^(2^k) and the same for the house."""
    return list(accumulate(range(GRAEFFE_DEPTH), lambda g, _: graeffe(g), initial=f))


def log_mahler_upper(f: IntPoly, iterates: Sequence[IntPoly] | None = None) -> Fraction:
    """Exact rational q with Mahler measure M(f) <= 2^q.

    Landau's bound M(g) <= ||g||_2 applied to the Graeffe iterates
    g = G^k f, k = 0..GRAEFFE_DEPTH: M(G^k f) = M(f)^(2^k), so
    log2 M(f) <= log2(S_k) / 2^(k+1) with S_k = ||G^k f||_2^2 an exact
    integer, and the least of these bounds is returned.  log2(S_k) is
    overestimated by bit_length arithmetic: log2 S <= bit_length(S^64)/64.
    A caller that needs the iterates too passes graeffe_iterates(f).
    """
    if not f:
        raise ValueError("zero polynomial has no Mahler measure")
    if iterates is None:
        iterates = graeffe_iterates(f)
    # log2(s) <= bit_length(s^64) / 64, exact integer work only
    return min(Fraction((g.l2_norm_sq() ** 64).bit_length(), 128 << k)
               for k, g in enumerate(iterates))


# -- text format -----------------------------------------------------------

_TERM_RE = re.compile(r"^([+-]?\d+|[+-]?)\*?t(?:\^([+-]?\d+))?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def parse_poly(text: str) -> IntPoly:
    """Parse symbolic ("4t^6-17*t^5+...") or ascending comma list ("4,-17,...").

    >>> parse_poly("t^2 - 3t + 1")
    IntPoly((1, -3, 1))
    >>> parse_poly("1, -3, 1")
    IntPoly((1, -3, 1))
    """
    if re.search(r"\d\s+\d", text):
        raise ValueError(f"whitespace inside a number in {text!r}")
    s = re.sub(r"\s+", "", text)
    if not s:
        raise ValueError("empty polynomial text")
    if "," in s:
        coeffs = []
        for piece in s.split(","):
            if not _INT_RE.match(piece):
                raise ValueError(f"bad coefficient {piece!r} in list form")
            coeffs.append(int(piece))
        return IntPoly(tuple(coeffs))
    # split keeping signs: insert breaks before +/- that start a new term
    terms = re.findall(r"[+-]?[^+-]+", s)
    if "".join(terms) != s:
        raise ValueError(f"malformed polynomial text {text!r}")
    pairs: list[tuple[int, int]] = []
    for term in terms:
        if _INT_RE.match(term):
            pairs.append((0, int(term)))
            continue
        m = _TERM_RE.match(term)
        if not m:
            raise ValueError(f"malformed term {term!r}")
        craw, eraw = m.groups()
        coef = int(craw) if craw not in ("", "+", "-") else (-1 if craw == "-" else 1)
        exp = int(eraw) if eraw is not None else 1
        if exp < 0:
            raise ValueError(f"negative exponent in term {term!r}")
        pairs.append((exp, coef))
    return IntPoly.from_terms(pairs)


def format_poly(f: IntPoly) -> str:
    """Canonical symbolic form, descending powers; reparses to f."""
    return format_terms((k, c) for k, c in reversed(tuple(enumerate(f.coeffs))) if c)


def format_terms(terms: Iterable[tuple[int, int]]) -> str:
    """format_poly of the sum of c t^k over the terms (k, c), given with
    k descending and c nonzero, without building the polynomial."""
    parts: list[str] = []
    for k, c in terms:
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            var = "t" if k == 1 else f"t^{k}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not parts:
            parts.append(body if sign == "+" else f"-{body}")
        else:
            parts.append(f" {sign} {body}")
    return "".join(parts) or "0"
