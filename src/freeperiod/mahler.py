"""Exponent bounds from Mahler measure gaps.

If alpha = theta^E with theta in Q(alpha) and alpha not a root of unity,
then M(alpha) = M(theta)^E (the measure is a product over places), so
E <= log M(alpha) / log(minimal measure at the degree).  This module owns
the per-degree minimal-measure constants and the resulting prime bound.

Two modes:
  RIGOROUS   degree <= 6 uses an exhaustively computed table of minimal
             measures (see scripts/gen_mahler_table.py for the search and
             its completeness argument); degree >= 7 falls back to
             Voutier's unconditional lower bound (1/4)(loglog d/log d)^3.
  HEURISTIC  assumes no measure below 1.17628 (the smallest known, degree
             10, open whether minimal).  Reports built on it must carry a
             non-rigorous flag.

All constants are stored as exact rational LOWER bounds on log2 of the
measure, so dividing an exact rational upper bound on log2 M(alpha) by
them can only overestimate E.  The upper bound is intpoly.log_mahler_upper:
Landau's M(g) <= ||g||_2 on the Graeffe iterates g = G^k f, where
M(G^k f) = M(f)^(2^k), all in exact integer arithmetic.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .cyclotomic import cyclotomic_tag
from .intpoly import IntPoly, log_mahler_upper


class BoundMode(Enum):
    HEURISTIC = "heuristic"
    RIGOROUS = "rigorous"


# log2(1.17628) rounded down; tests recheck 2^1171 <= 1.17628^5000 exactly.
LEHMER_LOG2_LB = Fraction(1171, 5000)

# rational upper bound on ln 2, used when converting Voutier's bound to base 2
_LN2_UB = Fraction(693148, 1000000)

# Frozen output of scripts/gen_mahler_table.py: for each degree d, a lower
# bound on log2 of the minimal Mahler measure among degree-d irreducible
# non-cyclotomic integer polynomials, and the measure-minimizing polynomial.
# Degree 6 attains the degree-3 (plastic) measure via the irreducible
# inflation t^6 + t^4 - 1.
MIN_LOG2_TABLE: dict[int, Fraction] = {
    2: Fraction(694231, 1000000),  # 1.6180339887  t^2 + t - 1
    3: Fraction(16227, 40000),  # 1.3247179572  t^3 + t^2 - 1
    4: Fraction(116237, 250000),  # 1.3802775691  t^4 + t - 1
    5: Fraction(86529, 200000),  # 1.3497161047  t^5 - t^4 + t^2 - t + 1
    6: Fraction(16227, 40000),  # 1.3247179572  t^6 + t^4 - 1
}

MIN_MEASURE_WITNESS: dict[int, tuple[int, ...]] = {
    2: (-1, 1, 1),
    3: (-1, 0, 1, 1),
    4: (-1, 1, 0, 0, 1),
    5: (1, -1, 1, 0, -1, 1),
    6: (-1, 0, 0, 0, 1, 0, 1),
}


def voutier_log2_lb(d: int) -> Fraction:
    """Rational lower bound on log2 M for degree-d non-cyclotomic numbers.

    Voutier: log M >= (1/4) (loglog d / log d)^3 for d >= 2; the value is
    positive from d = 3 on.  Float evaluation shrunk by a relative margin
    and converted with an upper bound on ln 2, so the result stays a true
    lower bound.
    """
    if d < 3:
        return Fraction(0)
    v = 0.25 * (math.log(math.log(d)) / math.log(d)) ** 3
    if v <= 0:
        return Fraction(0)
    return Fraction(v) * Fraction(999999, 1000000) / _LN2_UB


def m_min_log2(d: int, mode: BoundMode) -> Fraction:
    """Lower bound on log2 of the minimal measure at degree d, per mode."""
    if d < 2:
        raise ValueError("degree must be at least 2")
    if mode is BoundMode.HEURISTIC:
        return LEHMER_LOG2_LB
    if d in MIN_LOG2_TABLE:
        return max(MIN_LOG2_TABLE[d], voutier_log2_lb(d))
    v = voutier_log2_lb(d)
    if v <= 0:
        raise ValueError(f"no positive rigorous bound at degree {d}")
    return v


def prime_bound(f: IntPoly, mode: BoundMode = BoundMode.HEURISTIC) -> int:
    """B with E(root of f) <= B, for irreducible non-cyclotomic f, deg >= 2.

    E <= log2 M(f) / log2(minimal measure at deg f); the numerator is the
    exact Graeffe-Landau upper bound of log_mahler_upper.
    """
    d = f.degree
    if not isinstance(d, int) or d < 2:
        raise ValueError("prime_bound needs degree at least 2")
    if cyclotomic_tag(f) is not None:
        raise ValueError("prime_bound is undefined for cyclotomic input")
    ratio = log_mahler_upper(f) / m_min_log2(d, mode)
    return max(1, math.floor(ratio))
