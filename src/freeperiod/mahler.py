"""Exponent bounds from Mahler measure and house gaps.

If alpha = theta^E with theta in Q(alpha) and alpha not a root of unity,
then Q(theta) = Q(alpha), both have degree d, and the conjugates of alpha
are the E-th powers of those of theta.  So M(alpha) = M(theta)^E (the
measure is a product over places) and house(alpha) = house(theta)^E,
where the house is the largest absolute value of a conjugate.  Any lower
bound on M(theta) or house(theta) that holds for every such theta turns an
upper bound on alpha's measure or house into an upper bound on E.  This
module owns those constants and the resulting prime bound.

Two modes:
  RIGOROUS   sound bounds, on the primitive minimal polynomial f of alpha.
             (1) Monic f: alpha is an algebraic integer, so theta (a root
                 of t^E - alpha) is one too, and Dimitrov's theorem
                 (Schinzel-Zassenhaus, arXiv:1912.12545) gives
                 house(theta) >= 2^(1/(4d)), so E <= 4d log2 house(alpha).
             (2) Non-monic f: alpha is not integral, so neither is theta;
                 the primitive minimal polynomial of theta then has
                 |lc| >= 2, so M(theta) >= 2 and E <= log2 M(alpha).
  HEURISTIC  assumes no measure below 1.17628 (the smallest known, degree
             10, open whether minimal).  Reports built on it must carry a
             non-rigorous flag.

The one stored measure constant, Lehmer's, is an exact rational LOWER
bound on log2 of the measure, so dividing an exact rational upper bound on
log2 M(alpha) by it can only overestimate E.  The upper bound is
intpoly.log_mahler_upper: Landau's M(g) <= ||g||_2 on the Graeffe iterates
g = G^k f, where M(G^k f) = M(f)^(2^k), all in exact integer arithmetic.
The house bound reads Fujiwara's root bound off the same iterates, also in
integers, so no float touches a bound.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction

from .cyclotomic import cyclotomic_tag
from .intpoly import IntPoly, content_primitive, graeffe_iterates, log_mahler_upper


class BoundMode(Enum):
    HEURISTIC = "heuristic"
    RIGOROUS = "rigorous"


# log2(1.17628) rounded down; tests recheck 2^1171 <= 1.17628^5000 exactly.
LEHMER_LOG2_LB = Fraction(1171, 5000)


def house_bound(iterates: list[IntPoly]) -> int:
    """floor(4d U) for f = iterates[0] of degree d >= 1 with |lc| = 1 and
    f(0) != 0, where U is an exact upper bound on log2 house(f);
    iterates = graeffe_iterates(f).

    Fujiwara: every root z of a g of degree d with |lc| = 1 has
    |z| <= 2 max_j |c_(d-j)|^(1/j), the constant term c_0 halved.  With
    log2 |c| < bit_length(c) that gives log2 house(g) <= (j + b_j) / j at
    the worst j, b_j = bit_length(c_(d-j)) less 1 at j = d, and
    house(G^k f) = house(f)^(2^k) divides it by 2^k.  Floors commute with
    the max over j and the min over k, so only integer quotients are taken.
    """
    d = iterates[0].degree
    return min(
        max((4 * d * (j + g.coeffs[d - j].bit_length() - (j == d))) // (j << k)
            for j in range(1, d + 1) if g.coeffs[d - j])
        for k, g in enumerate(iterates))


def prime_bound(f: IntPoly, mode: BoundMode = BoundMode.HEURISTIC) -> int:
    """B with E(root of f) <= B, for irreducible non-cyclotomic f, deg >= 2.

    f is first reduced to its primitive part, which has the same roots and
    so the same E.  With log2 M(f) bounded above by log_mahler_upper:

    HEURISTIC: E <= log2 M(f) / log2(1.17628).

    RIGOROUS: Dimitrov's E <= 4d log2 house(f) (house_bound) when f is
    monic, E <= log2 M(f) from M(theta) >= |lc(theta)| >= 2 when it is not.
    Both rest on theta^E = alpha with theta in Q(alpha): theta then has
    degree d, M(alpha) = M(theta)^E and house(alpha) = house(theta)^E; see
    the module docstring.
    """
    d = f.degree
    if d < 2:
        raise ValueError("prime_bound needs degree at least 2")
    f = content_primitive(f)[1]
    if cyclotomic_tag(f) is not None:
        raise ValueError("prime_bound is undefined for cyclotomic input")
    iterates = graeffe_iterates(f)
    if mode is BoundMode.HEURISTIC:
        bound = math.floor(log_mahler_upper(f, iterates) / LEHMER_LOG2_LB)
    elif f.lc == 1:
        bound = house_bound(iterates)
    else:
        bound = math.floor(log_mahler_upper(f, iterates))
    return max(1, bound)
