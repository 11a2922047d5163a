"""The three benchmark workloads: inputs, one timed pass, output checks.

Every pass runs in a fresh interpreter (see worker.py), so the package's
process-wide lru_caches (e_of_irreducible, cyclotomic, the candidate
cyclotomic trials) start empty, as they do for a command-line user.
Inputs depend only on (workload, seed, pass index); the program under test
receives nothing but the generated inputs.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass
from typing import Any

import layers
from layers import module
from tracing import Tracer

DEFAULT_SEED = 1

# operations per pass; a pass is one fresh interpreter
BATCH = {
    "survey_g16_sample": 60,
    "survey_g9_rigorous": 511,
    "queries": 150,
}

# sha256 of pass 0's output for DEFAULT_SEED (survey_g9_rigorous: of every
# pass, its input does not depend on the seed), computed with the code this
# benchmark was introduced against
PINNED_SHA256 = {
    "survey_g16_sample":
        "7ac219b930a654dfbfa9e64107015be1983cf2a4c50db87833621a5c007b2391",
    "survey_g9_rigorous":
        "a6dc799bb62328ab0ca1847d2abd9145bb87d0993a4d584d6de47775198d6074",
    "queries":
        "efa62c13e60751b5d194564c36187dfdcd3d637ff09fd164af86326f8db70bcd",
}


def pinned_digest(workload: str, seed: int, pass_index: int) -> str | None:
    if workload == "survey_g9_rigorous" or (seed, pass_index) == (DEFAULT_SEED, 0):
        return PINNED_SHA256[workload]
    return None


def _rng(workload: str, seed: int, pass_index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{pass_index}")


# -- inputs ----------------------------------------------------------------


def g16_sample(seed: int, pass_index: int, count: int) -> list:
    """Distinct genus-16 candidates, each upper slot kept with probability 1/2."""
    lspace = module("lspace")
    rng = _rng("survey_g16_sample", seed, pass_index)
    uppers: set[frozenset[int]] = set()
    while len(uppers) < count:
        uppers.add(frozenset(b for b in range(17, 32) if rng.random() < 0.5))
    cands = [lspace.Candidate.from_gap_set(16, u) for u in uppers]
    return sorted(cands, key=lambda c: c.exponents)


README_VECTORS = (
    (4, -17, 38, -51, 38, -17, 4),  # degree-6 vector, K14n26330
    (1, -3, 1),                     # figure-eight
)


def _symmetric_alexander(rng: random.Random) -> tuple[int, ...]:
    # palindromic, degree 2m in 2..16, outer coefficients in {-1, 0, 1},
    # Delta(1) = 1 through the middle term
    m = rng.randint(1, 8)
    low = [rng.choice((-1, 1))] + [rng.randint(-1, 1) for _ in range(m - 1)]
    return tuple(low + [1 - 2 * sum(low)] + low[::-1])


def _hartley_built(rng: random.Random) -> tuple[int, ...]:
    """Delta with Delta(t^n) = +-prod_i g(zeta_n^i t) for a random g.

    Delta(1) = +-prod_i g(zeta^i) is a unit exactly when g reduces to +-t^r
    modulo t^n - 1; one interior coefficient per residue class is adjusted
    to make it so.
    """
    hartley, intpoly = module("hartley"), module("intpoly")
    n = rng.choice((2, 3))
    d = rng.randint(n + 1, 8)
    c = [rng.choice((-1, 1))] + [rng.randint(-1, 1) for _ in range(d - 1)] + [1]
    r, unit = rng.randrange(n), rng.choice((1, -1))
    for j in range(n):
        i = next(i for i in range(1, d) if i % n == j)
        c[i] += (unit if j == r else 0) - sum(c[j::n])
    delta = hartley.rotation_product_deflated(intpoly.IntPoly(tuple(c)), n)
    return tuple(delta.coeffs if delta.lc > 0 else (-delta).coeffs)


def query_stream(seed: int, pass_index: int, count: int) -> list:
    """README vectors, then three random symmetric polynomials per built one."""
    IntPoly = module("intpoly").IntPoly
    rng = _rng("queries", seed, pass_index)
    out = list(README_VECTORS)
    seen = set(out)
    while len(out) < count:
        make = _hartley_built if len(out) % 4 == 3 else _symmetric_alexander
        coeffs = make(rng)
        if coeffs not in seen:
            seen.add(coeffs)
            out.append(coeffs)
    return [IntPoly(tuple(reversed(c))) for c in out]


def make_inputs(workload: str, seed: int, pass_index: int) -> Any:
    count = BATCH[workload]
    if workload == "survey_g16_sample":
        return g16_sample(seed, pass_index, count)
    if workload == "queries":
        return query_stream(seed, pass_index, count)
    return None  # survey() enumerates genus <= 9 itself


# -- one pass --------------------------------------------------------------


@dataclass
class QueryAnswer:
    poly: Any
    factored: Any
    hset: Any
    certificate: Any
    hits: list


def answer_query(delta) -> QueryAnswer:
    """The command-line query chain: parse, factor, profile, witness, screen."""
    intpoly, zfactor, hartley, murasugi = (
        module("intpoly"), module("zfactor"), module("hartley"), module("murasugi"))
    f = intpoly.parse_poly(intpoly.format_poly(delta))
    fac = zfactor.factor_over_z(f)
    hset = hartley.hartley_set(hartley.hartley_profile(f))
    cert = hartley.construct_witness(f, hset.members[0]) if hset.members else None
    hits = murasugi.murasugi_screen_all(f)
    return QueryAnswer(f, fac, hset, cert, hits)


@dataclass
class PassResult:
    latencies_s: list[float]
    work_s: float
    output: Any
    errors: list[str]
    layers: dict[str, float] | None


def run_pass(workload: str, inputs: Any, traced: bool) -> PassResult:
    """Run one batch, with every layer wrapped when traced.

    Untraced survey passes wrap only lspace.candidate_record, one clock
    pair per candidate, for the per-candidate latencies.
    """
    lspace = module("lspace")
    e_cached = module("hartley").e_of_irreducible  # the lru_cache, unwrapped
    cache_before = e_cached.cache_info()
    errors: list[str] = []
    latencies: list[float] = []
    with Tracer() as tracer:
        if traced:
            layers.install(tracer)
        elif workload != "queries":
            tracer.patch(lspace, "candidate_record", "record")
        start = time.perf_counter()
        if workload == "queries":
            output = []
            for delta in inputs:
                t0 = time.perf_counter()
                try:
                    output.append(answer_query(delta))
                except Exception as exc:  # a failed operation, not a failed run
                    output.append(None)
                    errors.append(f"{delta}: {exc!r}")
                latencies.append(time.perf_counter() - t0)
        else:
            try:
                if workload == "survey_g16_sample":
                    mode = lspace.BoundMode.HEURISTIC
                    report = lspace.SurveyReport(
                        g_max=16, mode=mode, top_gap_1=False, custom_filter=False,
                        records=tuple(lspace.survey_records(inputs, mode)))
                else:
                    report = lspace.survey(9, lspace.BoundMode.RIGOROUS)
                output = (report, report.to_json())
            except Exception as exc:
                output = None
                errors.append(repr(exc))
            latencies = [s.duration for s in tracer.spans if s.name == "record"]
        work = time.perf_counter() - start
    layer = None
    if traced:
        cache_after = e_cached.cache_info()
        layer = layers.layer_metrics(tracer.spans,
                                     cache_after.hits - cache_before.hits,
                                     cache_after.misses - cache_before.misses)
    return PassResult(latencies, work, output, errors, layer)


# -- output checks ---------------------------------------------------------


def _answer_line(a: QueryAnswer) -> str:
    fmt = module("intpoly").format_poly
    cert = ("none" if a.certificate is None else
            f"n={a.certificate.n} g={fmt(a.certificate.witness)} "
            f"sign={a.certificate.sign:+d}")
    hits = ",".join(f"{h.q}/{h.lam}/{h.shift}/{h.sign:+d}/"
                    f"{list(h.quotient)}/{int(h.divides)}" for h in a.hits)
    return f"{fmt(a.poly)}; {a.factored}; {a.hset}; {cert}; [{hits}]"


def check_pass(workload: str, inputs: Any, result: PassResult,
               pinned: str | None) -> tuple[int, int, str, list[str]]:
    """(attempted, failed, sha256, problems) after checking every output.

    Factor lists must multiply back to their input, witnesses and Murasugi
    hits must re-verify, and the output digest must equal pinned when one
    is given; a digest mismatch fails every operation of the pass.
    """
    hartley, murasugi = module("hartley"), module("murasugi")
    problems = list(result.errors)
    bad = 0
    if workload == "queries":
        attempted = len(inputs)
        lines = []
        for delta, a in zip(inputs, result.output):
            if a is None:
                bad += 1
                lines.append("error")
                continue
            ok = a.poly == delta and a.factored.expand() == delta
            if a.certificate is not None:
                ok &= hartley.verify_witness(
                    delta, a.certificate.n, a.certificate.witness) == (
                        True, a.certificate.sign)
            ok &= all(murasugi.verify_hit(delta, h) for h in a.hits)
            if not ok:
                bad += 1
                problems.append(f"check failed for {delta}")
            lines.append(_answer_line(a))
        text = "\n".join(lines)
    else:
        attempted = len(inputs) if inputs is not None else BATCH[workload]
        if result.output is None:
            return attempted, attempted, "", problems
        report, text = result.output
        IntPoly = module("intpoly").IntPoly
        for rec in report.records:
            product = IntPoly.one()
            for f, mult in rec.factors:
                product = product * f**mult
            poly = rec.candidate.poly
            ok = product == poly and all(
                murasugi.verify_hit(poly, h) for h in rec.murasugi or ())
            if not ok:
                bad += 1
                problems.append(f"check failed for {rec.candidate.exponents}")
        cands = [r.candidate for r in report.records]
        if len(cands) != attempted or inputs not in (None, cands):
            bad = attempted
            problems.append("the report's candidates are not the inputs")
    digest = hashlib.sha256(text.encode()).hexdigest()
    if pinned is not None and digest != pinned:
        problems.append(f"output sha256 {digest} != pinned {pinned}")
        bad = attempted
    return attempted, bad, digest, problems
