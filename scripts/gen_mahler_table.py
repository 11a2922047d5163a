#!/usr/bin/env python3
"""Exhaustive search for the minimal Mahler measure at each small degree.

For d in 2..6, finds the irreducible non-cyclotomic integer polynomial of
degree exactly d with the smallest Mahler measure, by complete enumeration
of the finitely many candidates below a seed threshold.

Completeness argument, for a candidate f with M(f) < tau:
  * lc and constant term: M >= max(|lc|, |a_0|), and tau < 2, so f is
    monic (after sign normalization) with a_0 in {-1, +1} (a_0 = 0 makes
    t a factor, impossible for irreducible f of degree >= 2).
  * coefficient box: |coeff of t^i| <= C(d, d-i) * M < C(d, d-i) * tau
    (elementary symmetric functions of the roots).
  * Graeffe iterates g_k (roots raised to 2^k) obey the same box with
    M^(2^k) < tau^(2^k), and |g_k(1)|, |g_k(-1)| <= 2^d * tau^(2^k).
    All iterate checks are exact integer arithmetic.
Survivors get numeric root finding (degree <= 6, tiny coefficients, so
companion-matrix error is far below the 1e-6 acceptance margin), then an
exact irreducibility and cyclotomic check.  The printed rational constants
round the base-2 logarithm DOWN by a 1e-5 margin, so the frozen table
entries are honest lower bounds up to that numeric caveat.

Run time: a couple of minutes, dominated by degree 6.
"""

import argparse
import math
from fractions import Fraction
from itertools import product

import numpy as np

from freeperiod.cyclotomic import cyclotomic_tag
from freeperiod.intpoly import IntPoly, graeffe
from freeperiod.zfactor import factor_over_z


def mahler_numeric(coeffs: list[int]) -> float:
    roots = np.roots(list(reversed(coeffs)))
    m = abs(coeffs[-1])
    for r in roots:
        a = abs(r)
        if a > 1:
            m *= a
    return float(m)


def graeffe_cols(cols: list[np.ndarray]) -> list[np.ndarray]:
    """One Graeffe step on a batch: roots get squared.

    The numpy-column form of intpoly.graeffe, for the vectorised box scan.

    f(x) = fe(x^2) + x fo(x^2);  g(y) = +-(fe(y)^2 - y fo(y)^2) has roots
    alpha^2.  Sign chosen to keep g monic.
    """
    d = len(cols) - 1
    fe = cols[0::2]
    fo = cols[1::2]
    out = [None] * (d + 1)
    for i, a in enumerate(fe):
        for j, b in enumerate(fe):
            k = i + j
            out[k] = a * b if out[k] is None else out[k] + a * b
    for i, a in enumerate(fo):
        for j, b in enumerate(fo):
            k = i + j + 1
            out[k] = -a * b if out[k] is None else out[k] - a * b
    if d % 2 == 1:  # keep leading coefficient positive
        out = [-c for c in out]
    return out


def search_degree(d: int, chunk: int = 1 << 19) -> tuple[float, tuple[int, ...]]:
    # seed pass over {-1,0,1} coefficients fixes the pruning threshold
    tau = 2.0
    best: tuple[float, tuple[int, ...]] | None = None
    for mid in product((-1, 0, 1), repeat=d - 1):
        for a0 in (-1, 1):
            coeffs = (a0,) + mid + (1,)
            m = mahler_numeric(list(coeffs))
            if 1.0001 < m < tau:
                f = IntPoly(coeffs)
                fac = factor_over_z(f)
                if len(fac.factors) == 1 and fac.factors[0][1] == 1 and cyclotomic_tag(f) is None:
                    tau = m + 1e-6
                    best = (m, coeffs)
    assert best is not None
    # full box scan below tau
    box = [2]  # a_0 in {-1, 1}, encoded separately
    for i in range(1, d):
        box.append(2 * math.floor(math.comb(d, d - i) * tau) + 1)
    total = math.prod(box)
    ranges = [np.array([-1, 1], dtype=np.int64)] + [
        np.arange(-(b // 2), b // 2 + 1, dtype=np.int64) for b in box[1:]
    ]
    # iterate the grid in chunks via mixed-radix decoding
    survivors: list[tuple[int, ...]] = []
    g1_bound = [math.floor(math.comb(d, d - i) * tau**2) for i in range(d)] + [1]
    e1 = math.floor(2**d * tau**2)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        cols = []
        rem = idx
        for r in ranges:
            cols.append(r[rem % len(r)])
            rem = rem // len(r)
        cols.append(np.ones(len(idx), dtype=np.int64))  # monic lead
        g1 = graeffe_cols(cols)
        mask = np.ones(len(idx), dtype=bool)
        for i in range(d):
            mask &= np.abs(g1[i]) <= g1_bound[i]
        s = np.zeros(len(idx), dtype=np.int64)
        salt = np.zeros(len(idx), dtype=np.int64)
        for i, c in enumerate(g1):
            s += c
            salt += c if i % 2 == 0 else -c
        mask &= (np.abs(s) <= e1) & (np.abs(salt) <= e1)
        for row in np.nonzero(mask)[0]:
            survivors.append(tuple(int(c[row]) for c in cols))
    # exact Graeffe refinement, two more rounds: G^k f against tau^(2^k)
    # for k = 2, 3 (the numpy pass above already held G^1 f to tau^2)
    refined = []
    for coeffs in survivors:
        ok = True
        g = graeffe(IntPoly(coeffs))
        power = 2
        for _ in range(2):
            power *= 2
            g = graeffe(g)
            lim = tau**power
            if any(abs(c) > math.comb(d, d - i) * lim for i, c in enumerate(g.coeffs[:-1])):
                ok = False
                break
            if abs(g(1)) > 2**d * lim or abs(g(-1)) > 2**d * lim:
                ok = False
                break
        if ok:
            refined.append(coeffs)
    # numeric measure on the handful that remain
    for coeffs in refined:
        m = mahler_numeric(list(coeffs))
        if 1.0001 < m < best[0] - 1e-9:
            f = IntPoly(coeffs)
            fac = factor_over_z(f)
            if len(fac.factors) == 1 and fac.factors[0][1] == 1 and cyclotomic_tag(f) is None:
                best = (m, coeffs)
    return best


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--degrees", type=int, nargs="*", default=[2, 3, 4, 5, 6])
    args = ap.parse_args()
    print("degree  min Mahler      log2 lower bound (rational)   minimizer")
    for d in args.degrees:
        m, coeffs = search_degree(d)
        log2m = math.log2(m)
        frac = Fraction(math.floor((log2m - 1e-5) * 10**6), 10**6)
        print(f"{d:>6}  {m:<14.10f}  Fraction({frac.numerator}, {frac.denominator})   {coeffs}")


if __name__ == "__main__":
    main()
