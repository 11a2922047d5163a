"""Candidate L-space knot Alexander polynomials and the obstruction survey.

An L-space knot of genus g has Alexander polynomial of the form

    t^(2g) - t^(b_1) + t^(b_2) - ... + 1,

a palindromic sum with coefficients in {-1, 0, 1}, an odd number of terms,
and signs alternating from +1 at the top down to +1 at the constant term.
Symmetry pins the middle exponent to g and mirrors the upper half, so the
candidates of genus g are exactly the subsets T of {g+1, ..., 2g-1}: there
are 2^(g-1) of them, and 2^16 - 1 = 65535 in total through genus 16.

The survey factors every candidate, splits off the product-of-cyclotomics
subset, computes the Hartley free-periodicity profile of the rest, and
runs the Murasugi mod-p screen on the rest.  Its two exceptional lists
(candidates that are n-Hartley for some n >= 2, and candidates with a
Murasugi hit) are the survey's entire point: members are the only
candidates whose free or ordinary periodicity is not obstructed.
"""

from __future__ import annotations

import cmath
import json
import math
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache, partial
from multiprocessing import get_context
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .cyclotomic import cyclotomic, cyclotomic_tag, phi_inverse
from .hartley import BoundMode, HartleySet, hartley_set, profile_from_factors
from .intpoly import IntPoly, format_poly
from .murasugi import MurasugiHit, murasugi_screen_all
from .zfactor import factor_over_z

SCHEMA_VERSION = 1

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class FilterConfig:
    """Candidate filters; everything off by default.

    top_gap_1 keeps only candidates whose two top exponents differ by 1.
    predicate, when set, is an arbitrary keep-function applied last; it is
    recorded in reports only as a presence flag since callables do not
    serialize.
    """

    top_gap_1: bool = False
    predicate: Optional[Callable[["Candidate"], bool]] = None


@dataclass(frozen=True)
class Candidate:
    genus: int
    exponents: tuple[int, ...]
    poly: IntPoly

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        g, exps = self.genus, self.exponents
        if g < 1:
            raise ValueError("genus must be positive")
        if len(exps) % 2 == 0:
            raise ValueError("even number of terms")
        if any(a <= b for a, b in zip(exps, exps[1:])):
            raise ValueError("exponents must strictly decrease")
        if exps[0] != 2 * g or exps[-1] != 0:
            raise ValueError("exponents must run from 2*genus to 0")
        if any(a + b != 2 * g for a, b in zip(exps, reversed(exps))):
            raise ValueError("exponent sequence must be symmetric")
        expect = IntPoly.from_terms(
            (b, (-1) ** j) for j, b in enumerate(exps))
        if expect != self.poly:
            raise ValueError("polynomial does not match exponents")
        assert self.poly(1) == 1

    @classmethod
    def from_gap_set(cls, genus: int, upper: frozenset[int]) -> "Candidate":
        top = sorted(upper, reverse=True)
        exps = ([2 * genus] + top + [genus]
                + [2 * genus - b for b in reversed(top)] + [0])
        poly = IntPoly.from_terms((b, (-1) ** j) for j, b in enumerate(exps))
        return cls(genus=genus, exponents=tuple(exps), poly=poly)

    @property
    def top_gap(self) -> int:
        return self.exponents[0] - self.exponents[1]


def enumerate_candidates(
        g_max: int,
        filters: Optional[FilterConfig] = None) -> Iterator[Candidate]:
    """All candidates of genus 1..g_max, sorted by (genus, exponents)."""
    if g_max < 1:
        raise ValueError("g_max must be positive")
    filters = filters or FilterConfig()
    for g in range(1, g_max + 1):
        slots = range(g + 1, 2 * g)
        batch = []
        for mask in range(1 << len(slots)):
            upper = frozenset(b for i, b in enumerate(slots) if mask >> i & 1)
            cand = Candidate.from_gap_set(g, upper)
            if filters.top_gap_1 and cand.top_gap != 1:
                continue
            if filters.predicate is not None and not filters.predicate(cand):
                continue
            batch.append(cand)
        batch.sort(key=lambda c: c.exponents)
        yield from batch


# -- factoring candidates --------------------------------------------------


@lru_cache(maxsize=None)
def _cyclo_trials(deg: int) -> tuple[tuple[IntPoly, complex], ...]:
    # Phi_m with 2 <= phi(m) <= deg, paired with one primitive m-th root
    # for a cheap numeric divisibility screen.  Degree-1 cyclotomics never
    # divide a candidate: poly(1) = 1 and poly(-1) is odd.
    ms = sorted(m for k in range(2, deg + 1, 2) for m in phi_inverse(k))
    return tuple((cyclotomic(m), cmath.exp(2j * math.pi / m)) for m in ms)


def _factor_candidate(poly: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """Irreducible factorization of a monic candidate polynomial.

    Cyclotomic factors are stripped by trial division first (the numeric
    root screen only skips divisions that cannot succeed; missed strips
    would still be caught by the full factorization of the cofactor).
    """
    bag: dict[IntPoly, int] = {}
    rem = poly
    for phim, zeta in _cyclo_trials(int(poly.degree)):
        if phim.degree > rem.degree:
            continue
        val = 0j
        for c in reversed(tuple(rem)):
            val = val * zeta + c
        if abs(val) > 1e-6:
            continue
        while True:
            quo = rem.try_divide(phim)
            if quo is None:
                break
            bag[phim] = bag.get(phim, 0) + 1
            rem = quo
        if rem.is_constant():
            break
    if not rem.is_constant():
        tail = factor_over_z(rem)
        assert tail.sign == 1 and tail.content == 1
        for f, mult in tail.factors:
            bag[f] = bag.get(f, 0) + mult
    else:
        assert rem == IntPoly.one()
    return tuple(sorted(bag.items(), key=lambda fm: (fm[0].degree, fm[0].coeffs)))


# -- survey records --------------------------------------------------------


@dataclass(frozen=True)
class CandidateRecord:
    """Survey outcome for one candidate.

    murasugi is None when the screen was not run (cyclotomic products are
    periodic-friendly already, screening them says nothing useful) and a
    tuple of hits, possibly empty, when it was.  e_gcd is the literal
    gcd(mult * E) over non-cyclotomic factors, None for pure cyclotomic
    products.
    """

    candidate: Candidate
    factors: tuple[tuple[IntPoly, int], ...]
    cyclotomic_product: bool
    hartley: HartleySet
    e_gcd: Optional[int]
    murasugi: Optional[tuple[MurasugiHit, ...]]

    @property
    def hartley_exceptional(self) -> bool:
        return not self.cyclotomic_product and bool(self.hartley.members)

    def murasugi_hit_at(self, q: int, require_divides: bool = True) -> bool:
        """Hit at period q; by default only divisibility-backed hits count.

        The congruence alone is satisfiable by accident (every inflated
        candidate C(t^2) passes at q = 2 with lam = 1, say), while
        Murasugi's theorem also makes the quotient divide Delta over Z.
        Exceptional lists therefore require a hit whose divides flag is
        set; bare congruence hits remain available for inspection.
        """
        return bool(self.murasugi) and any(
            h.q == q and (h.divides or not require_divides)
            for h in self.murasugi)


def candidate_record(cand: Candidate,
                     mode: BoundMode = BoundMode.HEURISTIC) -> CandidateRecord:
    factors = _factor_candidate(cand.poly)
    cyclo = all(cyclotomic_tag(f) is not None for f, _ in factors)
    profile = profile_from_factors(list(factors), mode)
    hset = hartley_set(profile, limit=0)
    if cyclo:
        hits = None
        e_gcd = None
    else:
        hits = tuple(murasugi_screen_all(cand.poly))
        e_gcd = profile.e_gcd_literal
    return CandidateRecord(candidate=cand, factors=factors,
                           cyclotomic_product=cyclo, hartley=hset,
                           e_gcd=e_gcd, murasugi=hits)


def survey_records(cands: list[Candidate],
                   mode: BoundMode = BoundMode.HEURISTIC) -> list[CandidateRecord]:
    """Process any batch of candidates; partition-and-merge safe."""
    return [candidate_record(c, mode) for c in cands]


def _map_chunk(fn: Callable[[T], R], chunk: list[T]) -> list[R]:
    return [fn(x) for x in chunk]


def parallel_map(fn: Callable[[T], R], items: Sequence[T], jobs: int = 1,
                 progress: Optional[Callable[[int, int], None]] = None) -> list[R]:
    """[fn(x) for x in items], computed by jobs worker processes when jobs > 1.

    Items go out in chunks, 64 per chunk serially and ceil(n / (8 jobs))
    across the pool, and results come back in input order.  Workers are
    spawned, not forked, so they start from a fresh import: fn and the
    items must pickle, and a calling script needs its __main__ guard.
    progress(done, total) runs after each chunk.  An exception raised by
    fn propagates from the first failing item in input order, whatever
    jobs is.
    """
    pooled = jobs > 1 and len(items) > 1
    size = max(1, math.ceil(len(items) / (8 * jobs))) if pooled else 64
    chunks = [items[i:i + size] for i in range(0, len(items), size)]
    out: list[R] = []
    with ExitStack() as stack:
        run = map
        if pooled:
            pool = ProcessPoolExecutor(max_workers=jobs,
                                       mp_context=get_context("spawn"))
            stack.callback(pool.shutdown, cancel_futures=True)
            run = pool.map
        for part in run(partial(_map_chunk, fn), chunks):
            out.extend(part)
            if progress:
                progress(len(out), len(items))
    return out


@dataclass(frozen=True)
class SurveyReport:
    g_max: int
    mode: BoundMode
    top_gap_1: bool
    custom_filter: bool
    records: tuple[CandidateRecord, ...]

    # aggregate views ------------------------------------------------------

    @property
    def counts(self) -> dict[str, int]:
        cyclo = sum(1 for r in self.records if r.cyclotomic_product)
        return {"candidates": len(self.records),
                "cyclotomic_products": cyclo,
                "noncyclotomic": len(self.records) - cyclo}

    @property
    def hartley_exceptional(self) -> tuple[CandidateRecord, ...]:
        return tuple(r for r in self.records if r.hartley_exceptional)

    def murasugi_exceptional(self, q: Optional[int] = None,
                             require_divides: bool = True) -> tuple[CandidateRecord, ...]:
        if q is None:
            return tuple(r for r in self.records
                         if r.murasugi and any(
                             h.divides or not require_divides
                             for h in r.murasugi))
        return tuple(r for r in self.records
                     if r.murasugi_hit_at(q, require_divides))

    def hit_qs(self) -> list[int]:
        """Sorted moduli q with at least one Murasugi hit in the report."""
        qs: set[int] = set()
        for r in self.records:
            for h in r.murasugi or ():
                qs.add(h.q)
        return sorted(qs)

    # serialization --------------------------------------------------------

    def to_payload(self) -> dict:
        def ident(r: CandidateRecord) -> dict:
            return {"genus": r.candidate.genus,
                    "exponents": list(r.candidate.exponents)}

        records = []
        for r in self.records:
            factors = [{"coeffs": list(f), "mult": m,
                        "cyclotomic": cyclotomic_tag(f)}
                       for f, m in r.factors]
            hartley = {"finite": r.hartley.finite,
                       "members": list(r.hartley.members),
                       "rule": r.hartley.rule}
            if r.murasugi is None:
                hits = None
            else:
                hits = [{"q": h.q, "lam": h.lam, "shift": h.shift,
                         "sign": h.sign, "quotient": list(h.quotient),
                         "divides": h.divides} for h in r.murasugi]
            records.append({"genus": r.candidate.genus,
                            "exponents": list(r.candidate.exponents),
                            "poly": format_poly(r.candidate.poly),
                            "factors": factors,
                            "cyclotomic_product": r.cyclotomic_product,
                            "e_gcd": r.e_gcd,
                            "hartley": hartley,
                            "murasugi": hits})
        return {
            "version": SCHEMA_VERSION,
            "config": {"g_max": self.g_max, "mode": self.mode.value,
                       "rigorous": self.mode is BoundMode.RIGOROUS,
                       "filters": {"top_gap_1": self.top_gap_1,
                                   "custom_predicate": self.custom_filter}},
            "aggregates": {
                **self.counts,
                "hartley_exceptional": [ident(r) for r in self.hartley_exceptional],
                "murasugi_exceptional_by_q": {
                    str(q): [ident(r) for r in self.murasugi_exceptional(q)]
                    for q in self.hit_qs()},
                "murasugi_bare_hits_by_q": {
                    str(q): len(self.murasugi_exceptional(q, require_divides=False))
                    for q in self.hit_qs()},
            },
            "records": records,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_payload(), separators=(",", ":"),
                          ensure_ascii=True)

    def to_csv(self) -> str:
        lines = ["genus,exponents,poly,cyclotomic_product,e_gcd,"
                 "hartley_set,murasugi_screened,murasugi_hits"]
        for r in self.records:
            hits = "" if r.murasugi is None else "; ".join(
                f"q={h.q} lam={h.lam} shift={h.shift} sign={h.sign:+d}"
                f" divides={h.divides}" for h in r.murasugi)
            row = [str(r.candidate.genus),
                   " ".join(map(str, r.candidate.exponents)),
                   format_poly(r.candidate.poly),
                   str(r.cyclotomic_product).lower(),
                   "" if r.e_gcd is None else str(r.e_gcd),
                   str(r.hartley),
                   str(r.murasugi is not None).lower(),
                   hits]
            lines.append(",".join(
                f'"{cell}"' if "," in cell else cell for cell in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_payload(cls, payload: dict) -> "SurveyReport":
        if payload.get("version") != SCHEMA_VERSION:
            raise ValueError("unsupported report version")
        cfg = payload["config"]
        records = []
        for rec in payload["records"]:
            cand = Candidate.from_gap_set(
                rec["genus"],
                frozenset(b for b in rec["exponents"]
                          if rec["genus"] < b < 2 * rec["genus"]))
            factors = tuple((IntPoly(tuple(f["coeffs"])), f["mult"])
                            for f in rec["factors"])
            hs = rec["hartley"]
            hartley = HartleySet(finite=hs["finite"],
                                 members=tuple(hs["members"]),
                                 rule=hs["rule"])
            if rec["murasugi"] is None:
                hits = None
            else:
                hits = tuple(MurasugiHit(q=h["q"], lam=h["lam"],
                                         quotient=IntPoly(tuple(h["quotient"])),
                                         shift=h["shift"], sign=h["sign"],
                                         divides=h["divides"])
                             for h in rec["murasugi"])
            records.append(CandidateRecord(
                candidate=cand, factors=factors,
                cyclotomic_product=rec["cyclotomic_product"],
                hartley=hartley, e_gcd=rec["e_gcd"], murasugi=hits))
        return cls(g_max=cfg["g_max"], mode=BoundMode(cfg["mode"]),
                   top_gap_1=cfg["filters"]["top_gap_1"],
                   custom_filter=cfg["filters"]["custom_predicate"],
                   records=tuple(records))

    @classmethod
    def from_json(cls, text: str) -> "SurveyReport":
        return cls.from_payload(json.loads(text))


def survey(g_max: int,
           mode: BoundMode = BoundMode.HEURISTIC,
           filters: Optional[FilterConfig] = None,
           jobs: int = 1,
           progress: Optional[Callable[[int, int], None]] = None) -> SurveyReport:
    """Run the full pipeline; output is identical for every jobs value.

    progress, when given, is called as progress(done, total) after each
    processed chunk; it has no effect on the report.
    """
    filters = filters or FilterConfig()
    cands = list(enumerate_candidates(g_max, filters))
    records = parallel_map(partial(candidate_record, mode=mode), cands, jobs,
                           progress)
    records.sort(key=lambda r: (r.candidate.genus, r.candidate.exponents))
    return SurveyReport(g_max=g_max, mode=mode, top_gap_1=filters.top_gap_1,
                        custom_filter=filters.predicate is not None,
                        records=tuple(records))
