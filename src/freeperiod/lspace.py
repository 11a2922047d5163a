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

Reports are written record by record, as compact JSON (write_json) or CSV
(write_csv), and a JSON report is read back the same way (read_report).
"""

from __future__ import annotations

import json
import math
import os
import shutil
import tempfile
from collections import deque
from contextlib import ExitStack
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, partial
from itertools import islice
from typing import Callable, Iterable, Iterator, Optional, Sequence, TextIO, TypeVar

from .cyclotomic import cyclotomic, cyclotomic_tag, phi_inverse, prime_power, primitive_root
from .hartley import BoundMode, HartleySet, hartley_set, profile_from_factors
from .intpoly import IntPoly, format_poly, format_terms
from .modpoly import gfp_eval, primes
from .murasugi import MurasugiHit, murasugi_screen_all
from .zfactor import FactoredPoly, factor_over_z

SCHEMA_VERSION = 1

T = TypeVar("T")
R = TypeVar("R")


@dataclass(frozen=True)
class Candidate:
    """The candidate of genus g whose upper exponents are the slots
    g+1+i for the bits i set in mask; the exponents and the polynomial
    are built from these two integers on first use.

    >>> Candidate(5, 0b1011).exponents == (10, 9, 7, 6, 5, 4, 3, 1, 0)
    True
    """

    genus: int
    mask: int

    def __post_init__(self) -> None:
        if self.genus < 1:
            raise ValueError("genus must be positive")
        if self.mask < 0 or self.mask.bit_length() >= self.genus:
            raise ValueError(f"mask must lie in [0, 2^{self.genus - 1})")

    @classmethod
    def from_gap_set(cls, genus: int, upper: Iterable[int]) -> "Candidate":
        """The candidate whose upper exponents, those in (genus, 2*genus),
        are upper."""
        upper = frozenset(upper)
        if any(not genus < b < 2 * genus for b in upper):
            raise ValueError(
                f"upper exponents must lie in ({genus}, {2 * genus})")
        return cls(genus, sum(1 << (b - genus - 1) for b in upper))

    @cached_property
    def exponents(self) -> tuple[int, ...]:
        g, m, upper = self.genus, self.mask, []
        while m:  # the set bits, lowest first: bit i is slot g+1+i
            upper.append(g + (m & -m).bit_length())
            m &= m - 1
        return (2 * g, *reversed(upper), g, *(2 * g - b for b in upper), 0)

    @cached_property
    def poly(self) -> IntPoly:
        return IntPoly.from_terms(
            (b, (-1) ** j) for j, b in enumerate(self.exponents))


def enumerate_candidates(g_max: int,
                         top_gap_1: bool = False) -> Iterator[Candidate]:
    """All candidates of genus 1..g_max, sorted by (genus, exponents);
    with top_gap_1, only those whose two top exponents differ by 1."""
    if g_max < 1:
        raise ValueError("g_max must be positive")
    for g in range(1, g_max + 1):
        # masks rise exactly as the exponent tuples do: the first differing
        # exponent is the highest slot in which two masks differ.  Top gap
        # 1 means slot 2g-1, the top bit, is set.
        low = 1 << (g - 2) if top_gap_1 and g > 1 else 0
        for mask in range(low, 1 << (g - 1)):
            yield Candidate(g, mask)


def _candidate_count(g_max: int, top_gap_1: bool) -> int:
    """len(list(enumerate_candidates(g_max, top_gap_1)))
    without enumerating.  Top gap 1 means slot 2g-1 is taken, which halves
    each genus above 1."""
    return sum(1 << max(g - 1 - top_gap_1, 0) for g in range(1, g_max + 1))


# -- factoring candidates --------------------------------------------------


def _cyclo_trial(m: int) -> tuple[IntPoly, int, int]:
    """(Phi_m, q, z) with q the least prime = 1 mod m above 2^14 and z a
    root of Phi_m mod q: z = g^((q-1)/m) for a primitive root g of q has
    order m.  For the m of degrees through 64, q < 2^15, so a Horner step
    val * z + c mod q stays within one 30-bit int digit, and a Phi_m that
    does not divide rem passes the screen about once in q."""
    q = next(q for q in primes(2**14) if q % m == 1)
    return cyclotomic(m), q, pow(primitive_root(q), (q - 1) // m, q)


@lru_cache(maxsize=None)
def _cyclo_trials(deg: int) -> tuple[tuple[IntPoly, int, int], ...]:
    # Phi_m with 2 <= phi(m) <= deg, each with a prime q and a root z of
    # Phi_m mod q for an exact divisibility screen.  Degree-1 cyclotomics
    # never divide a candidate: poly(1) = 1 and poly(-1) is odd; nor does
    # Phi_m for a prime power m, since Phi_(p^k)(1) = p.
    ms = sorted(m for k in range(2, deg + 1, 2) for m in phi_inverse(k)
                if prime_power(m) is None)
    return tuple(_cyclo_trial(m) for m in ms)


def _factor_candidate(poly: IntPoly) -> tuple[tuple[IntPoly, int], ...]:
    """Irreducible factorization of a monic candidate polynomial.

    Cyclotomic factors are stripped by trial division first.  Phi_m | rem
    forces rem(z) = 0 mod q at a root z of Phi_m mod q, so a nonzero value
    soundly skips the division; missed strips would still be caught by the
    full factorization of the cofactor.
    """
    bag: dict[IntPoly, int] = {}
    rem = poly
    for phim, q, z in _cyclo_trials(int(poly.degree)):
        if phim.degree > rem.degree:
            continue
        if gfp_eval(rem.coeffs, z, q):
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

    def murasugi_hit_at(self, q: int) -> bool:
        """A divisibility-backed hit at period q.

        The congruence alone is satisfiable by accident (every inflated
        candidate C(t^2) passes at q = 2 with lam = 1, say), while
        Murasugi's theorem also makes the quotient divide Delta over Z.
        Exceptional lists therefore require a hit whose divides flag is
        set; bare congruence hits stay in the record for inspection.
        """
        return any(h.q == q and h.divides for h in self.murasugi or ())


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
        hits = tuple(murasugi_screen_all(cand.poly, FactoredPoly(1, 1, factors)))
        e_gcd = profile.e_gcd_literal
    return CandidateRecord(candidate=cand, factors=factors,
                           cyclotomic_product=cyclo, hartley=hset,
                           e_gcd=e_gcd, murasugi=hits)


def survey_records(cands: list[Candidate],
                   mode: BoundMode = BoundMode.HEURISTIC) -> list[CandidateRecord]:
    """Process any batch of candidates; partition-and-merge safe."""
    return [candidate_record(c, mode) for c in cands]


_CHUNK = 64


def _map_chunk(fn: Callable[[T], R], chunk: list[T]) -> list[R]:
    return [fn(x) for x in chunk]


def _windowed(pool, task: Callable[[list[T]], list[R]],
              chunks: Iterator[list[T]], depth: int) -> Iterator[list[R]]:
    """task(c) for each chunk c, computed by pool and yielded in order,
    with at most depth chunks submitted and not yet yielded."""
    pending = deque(pool.submit(task, c) for c in islice(chunks, depth))
    while pending:
        part = pending.popleft().result()
        pending.extend(pool.submit(task, c) for c in islice(chunks, 1))
        yield part


def _ordered_map(fn: Callable[[T], R], items: Iterable[T], total: int,
                 jobs: int, progress: Optional[Callable[[int, int], None]]
                 ) -> Iterator[R]:
    """fn(x) for x in items, lazily and in input order; total is the
    number of items.

    The pool has w = min(jobs, os.cpu_count()) workers; more would only
    contend for the same cores.  Items go out in chunks of 64, or of
    ceil(total / (8 w)) across a pool when that is smaller, and the pool
    holds at most 2 w chunks at a time, so neither the items nor the
    results are ever all in memory.  Workers are spawned, not forked, so
    they start from a fresh import: fn and the items must pickle, and a
    calling script needs its __main__ guard.  progress(done, total) runs
    after each chunk.  An exception raised by fn propagates from the first
    failing item in input order, whatever jobs is, and cancels the chunks
    still pending.
    """
    workers = min(jobs, os.cpu_count() or 1)
    pooled = workers > 1 and total > 1
    size = min(_CHUNK, math.ceil(total / (8 * workers))) if pooled else _CHUNK
    rest = iter(items)
    chunks = iter(lambda: list(islice(rest, size)), [])
    task = partial(_map_chunk, fn)
    done = 0
    with ExitStack() as stack:
        parts = map(task, chunks)
        if pooled:
            # imported here: a run without a pool never loads them
            from concurrent.futures import ProcessPoolExecutor
            from multiprocessing import get_context

            pool = ProcessPoolExecutor(max_workers=workers,
                                       mp_context=get_context("spawn"))
            stack.callback(pool.shutdown, cancel_futures=True)
            parts = _windowed(pool, task, chunks, 2 * workers)
        for part in parts:
            done += len(part)
            if progress:
                progress(done, total)
            yield from part


def parallel_map(fn: Callable[[T], R], items: Sequence[T],
                 jobs: int = 1) -> list[R]:
    """[fn(x) for x in items], computed by worker processes when jobs > 1.

    The chunking, the pool and errors are those of _ordered_map.
    """
    return list(_ordered_map(fn, items, len(items), jobs, None))


# -- report encoding -------------------------------------------------------


def _ident(r: CandidateRecord) -> dict:
    return {"genus": r.candidate.genus,
            "exponents": list(r.candidate.exponents)}


@dataclass
class SurveyTally:
    """A survey's aggregates, gathered one record at a time.

    The exceptional records are kept: they are the survey's findings, and
    few.  Records with a bare Murasugi hit at q (divides or not) are only
    counted, in bare_hits[q].
    """

    candidates: int = 0
    cyclotomic_products: int = 0
    hartley_exceptional: list[CandidateRecord] = field(default_factory=list)
    murasugi_exceptional: dict[int, list[CandidateRecord]] = field(
        default_factory=dict)
    bare_hits: dict[int, int] = field(default_factory=dict)

    def add(self, r: CandidateRecord) -> None:
        self.candidates += 1
        self.cyclotomic_products += r.cyclotomic_product
        if r.hartley_exceptional:
            self.hartley_exceptional.append(r)
        for q in {h.q for h in r.murasugi or ()}:
            self.bare_hits[q] = self.bare_hits.get(q, 0) + 1
            if r.murasugi_hit_at(q):
                self.murasugi_exceptional.setdefault(q, []).append(r)

    @property
    def counts(self) -> dict[str, int]:
        return {"candidates": self.candidates,
                "cyclotomic_products": self.cyclotomic_products,
                "noncyclotomic": self.candidates - self.cyclotomic_products}

    def hit_qs(self) -> list[int]:
        """Sorted moduli q with at least one Murasugi hit."""
        return sorted(self.bare_hits)

    def payload(self) -> dict:
        """The report's "aggregates" object."""
        qs = self.hit_qs()
        return {
            **self.counts,
            "hartley_exceptional": [_ident(r) for r in self.hartley_exceptional],
            "murasugi_exceptional_by_q": {
                str(q): [_ident(r) for r in self.murasugi_exceptional.get(q, ())]
                for q in qs},
            "murasugi_bare_hits_by_q": {str(q): self.bare_hits[q] for q in qs},
        }


_ENCODE = json.JSONEncoder(separators=(",", ":"), ensure_ascii=True).encode
_JSON_TAIL = "]}"


def _json_head(g_max: int, mode: BoundMode, top_gap_1: bool,
               custom_filter: bool, tally: SurveyTally) -> str:
    """The report's JSON before its first record, ending in '"records":['."""
    return _ENCODE({
        "version": SCHEMA_VERSION,
        "config": {"g_max": g_max, "mode": mode.value,
                   "rigorous": mode is BoundMode.RIGOROUS,
                   "filters": {"top_gap_1": top_gap_1,
                               "custom_predicate": custom_filter}},
        "aggregates": tally.payload(),
        "records": [],
    })[:-len(_JSON_TAIL)]


def _record_json(r: CandidateRecord) -> str:
    """One element of the report's "records" array."""
    return _ENCODE({
        "genus": r.candidate.genus,
        "exponents": list(r.candidate.exponents),
        "poly": format_poly(r.candidate.poly),
        "factors": [{"coeffs": list(f), "mult": m,
                     "cyclotomic": cyclotomic_tag(f)} for f, m in r.factors],
        "cyclotomic_product": r.cyclotomic_product,
        "e_gcd": r.e_gcd,
        "hartley": r.hartley.as_json(),
        "murasugi": None if r.murasugi is None else [
            h.as_json() for h in r.murasugi],
    })


def _record_from_json(rec: dict, g_max: Optional[int]) -> CandidateRecord:
    """The record that _record_json encoded as rec; ValueError unless its
    genus lies in 1..g_max and its exponents and poly are those of the
    candidate they name."""
    genus, exps = rec["genus"], rec["exponents"]
    # before the candidate is built: its mask takes genus / 8 bytes
    if not 1 <= genus <= g_max:
        raise ValueError(f"record genus {genus} lies outside 1..{g_max}")
    cand = Candidate.from_gap_set(
        genus, (b for b in exps if genus < b < 2 * genus))
    if list(cand.exponents) != exps or format_terms(
            (b, (-1) ** j) for j, b in enumerate(exps)) != rec["poly"]:
        raise ValueError(f"record {exps} does not rebuild its candidate")
    hs, hits = rec["hartley"], rec["murasugi"]
    return CandidateRecord(
        candidate=cand,
        factors=tuple((IntPoly(tuple(f["coeffs"])), f["mult"])
                      for f in rec["factors"]),
        cyclotomic_product=rec["cyclotomic_product"],
        hartley=HartleySet(hs["finite"], tuple(hs["members"]), hs["rule"]),
        e_gcd=rec["e_gcd"],
        murasugi=None if hits is None else tuple(
            MurasugiHit(**{**h, "quotient": IntPoly(tuple(h["quotient"]))})
            for h in hits))


def write_json(out: TextIO, records: Iterable[CandidateRecord], g_max: int,
               mode: BoundMode, top_gap_1: bool) -> None:
    """Write the JSON report of survey(g_max, mode, top_gap_1) over
    records to out, holding one record at a time; the text is that of
    SurveyReport.to_json().

    The aggregates come before the records and are known only after the
    last one, so the records are encoded as they arrive into a temporary
    spool file, which is copied to out after the head.
    """
    tally = SurveyTally()
    with tempfile.TemporaryFile("w+", encoding="ascii") as spool:
        for r in records:
            if tally.candidates:
                spool.write(",")
            tally.add(r)
            spool.write(_record_json(r))
        out.write(_json_head(g_max, mode, top_gap_1, custom_filter=False,
                             tally=tally))
        spool.seek(0)
        shutil.copyfileobj(spool, out)
    out.write(_JSON_TAIL)


_READ_SIZE = 1 << 14
_RECORDS_KEY = '"records":['
_RECORD_START = ',{"genus":'


def read_report(fp: TextIO) -> tuple[dict, Iterator[CandidateRecord]]:
    """The head of the JSON report in fp, its object without "records",
    and an iterator that reads on through fp and decodes one record at a
    time; fp must stay open until the iterator is drained.

    The layout is the compact one of write_json, followed by whitespace
    at most (the survey command prints a final newline).  ValueError: an
    unknown version, a head without aggregates.candidates, a report that
    ends before its closing "]}" or goes on after it, a record count other
    than aggregates.candidates, or a record that is not JSON, lacks a
    field, has a genus outside 1..config.g_max or whose exponents or poly
    do not rebuild its candidate.
    """
    buf = ""
    while _RECORDS_KEY not in buf:
        chunk = fp.read(_READ_SIZE)
        if not chunk:
            raise ValueError("report ends before its records")
        buf += chunk
    end = buf.index(_RECORDS_KEY) + len(_RECORDS_KEY)
    head = json.loads(buf[:end] + _JSON_TAIL)
    del head["records"]
    if head.get("version") != SCHEMA_VERSION:
        raise ValueError("unsupported report version")
    try:
        count = head["aggregates"]["candidates"]
    except (KeyError, TypeError):
        raise ValueError("report head has no aggregates.candidates") from None
    config = head.get("config")
    g_max = config.get("g_max") if isinstance(config, dict) else None
    return head, _records(fp, buf[end:], count, g_max)


def _records(fp: TextIO, buf: str, count: int,
             g_max: Optional[int]) -> Iterator[CandidateRecord]:
    """read_report's records: buf holds the text read after the head."""
    decode = json.JSONDecoder().raw_decode
    pos = n = 0
    while True:
        sep = "," if n else ""
        try:
            if buf[pos] == "]":
                break
            rec, end = decode(buf, pos + len(sep))
        except IndexError:
            pass
        except json.JSONDecodeError as exc:
            # raw_decode fails on a cut record at its end or at the start
            # of the string it is cut in, and from there on a cut record
            # holds neither "]}" nor the next record's start: either one
            # past the failure means that the record is whole, and bad
            if (buf.find(_RECORD_START, exc.pos) >= 0
                    or buf.find(_JSON_TAIL, exc.pos) >= 0):
                raise ValueError(f"report record {n} is not JSON") from exc
        else:
            if buf[pos:pos + len(sep)] != sep:
                raise ValueError("report records are not in write_json's layout")
            try:
                record = _record_from_json(rec, g_max)
            except (KeyError, TypeError) as exc:
                raise ValueError(f"report record {n} is malformed: {exc!r}") from exc
            yield record
            pos, n = end, n + 1
            continue
        # buf ends inside the next record: read on, at least as much as is
        # held, so a long record is gathered in linear time
        chunk = fp.read(max(_READ_SIZE, len(buf) - pos))
        if not chunk:
            raise ValueError("report ends inside its records")
        buf, pos = buf[pos:] + chunk, 0
    if (buf[pos:] + fp.read()).rstrip() != _JSON_TAIL:
        raise ValueError('report does not end in "]}" after its records')
    if n != count:
        raise ValueError(f"report has {n} records for {count} candidates")


_CSV_HEADER = ("genus,exponents,poly,cyclotomic_product,e_gcd,"
               "hartley_set,murasugi_screened,murasugi_hits,mode,top_gap_1")


def _csv_line(r: CandidateRecord, mode: BoundMode, top_gap_1: bool) -> str:
    hits = "" if r.murasugi is None else "; ".join(map(str, r.murasugi))
    row = [str(r.candidate.genus),
           " ".join(map(str, r.candidate.exponents)),
           format_poly(r.candidate.poly),
           str(r.cyclotomic_product).lower(),
           "" if r.e_gcd is None else str(r.e_gcd),
           str(r.hartley),
           str(r.murasugi is not None).lower(),
           hits,
           mode.value,
           str(top_gap_1).lower()]
    return ",".join(f'"{cell}"' if "," in cell else cell for cell in row) + "\n"


def write_csv(out: TextIO, records: Iterable[CandidateRecord],
              mode: BoundMode, top_gap_1: bool) -> None:
    """Write the CSV report over records to out, one row as each
    arrives."""
    out.write(_CSV_HEADER + "\n")
    for r in records:
        out.write(_csv_line(r, mode, top_gap_1))


@dataclass(frozen=True)
class SurveyReport:
    """A survey held in memory, as survey() returns it.  A saved report
    becomes one from read_report's head config and tuple(records).

    custom_filter is the report's "custom_predicate" flag, which survey()
    always sets to False.  The aggregates are read from tally.
    """

    g_max: int
    mode: BoundMode
    top_gap_1: bool
    custom_filter: bool
    records: tuple[CandidateRecord, ...]

    @cached_property
    def tally(self) -> SurveyTally:
        """The aggregates of records, gathered on first use."""
        tally = SurveyTally()
        for r in self.records:
            tally.add(r)
        return tally

    def to_json(self) -> str:
        """The report as compact ASCII JSON, encoded record by record."""
        head = _json_head(self.g_max, self.mode, self.top_gap_1,
                          self.custom_filter, self.tally)
        return "".join([head, ",".join(map(_record_json, self.records)),
                        _JSON_TAIL])


def survey_stream(g_max: int,
                  mode: BoundMode = BoundMode.HEURISTIC,
                  top_gap_1: bool = False,
                  jobs: int = 1,
                  progress: Optional[Callable[[int, int], None]] = None
                  ) -> Iterator[CandidateRecord]:
    """The records of survey(), in its order, each as it is computed.

    Candidates are enumerated and chunked lazily and a pool holds a
    bounded window of chunks, so memory does not grow with g_max as long
    as the caller does not keep the records.  progress, when given, is
    called as progress(done, total) after each chunk of records; it has
    no effect on the records.
    """
    # enumeration order is already (genus, exponents)
    return _ordered_map(partial(candidate_record, mode=mode),
                        enumerate_candidates(g_max, top_gap_1),
                        _candidate_count(g_max, top_gap_1), jobs, progress)


def survey(g_max: int,
           mode: BoundMode = BoundMode.HEURISTIC,
           top_gap_1: bool = False,
           jobs: int = 1) -> SurveyReport:
    """Run the full pipeline; output is identical for every jobs value.

    top_gap_1 keeps only the candidates whose two top exponents differ by 1.
    """
    records = tuple(survey_stream(g_max, mode, top_gap_1, jobs))
    return SurveyReport(g_max=g_max, mode=mode, top_gap_1=top_gap_1,
                        custom_filter=False, records=records)
