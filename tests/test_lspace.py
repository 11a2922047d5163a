"""Candidate enumeration and the survey pipeline."""

import concurrent.futures
import csv
import dataclasses
import hashlib
import io
import json
import os
import time
import tracemalloc
from concurrent.futures import Future

import pytest

from freeperiod import (
    BoundMode,
    Candidate,
    CandidateRecord,
    HartleySet,
    IntPoly,
    MurasugiHit,
    SurveyReport,
    candidate_record,
    construct_witness,
    enumerate_candidates,
    factor_over_z,
    survey,
    verify_witness,
)
from freeperiod import lspace
from freeperiod.cyclotomic import cyclotomic, cyclotomic_tag, factorint
from freeperiod.lspace import (
    _factor_candidate, parallel_map, read_report, survey_stream, write_csv)
from freeperiod.modpoly import is_prime


def bag(fp):
    return dict(fp.factors)


# -- enumeration -----------------------------------------------------------


def test_counts_per_genus_and_total():
    cands = list(enumerate_candidates(8))
    assert len(cands) == 2 ** 8 - 1
    for g in range(1, 9):
        assert sum(c.genus == g for c in cands) == 2 ** (g - 1)
    assert lspace._candidate_count(8, False) == len(cands)


def test_candidate_invariants_exhaustive():
    for cand in enumerate_candidates(7):
        p = cand.poly
        assert int(p.degree) == 2 * cand.genus and p.lc == 1
        assert p(1) == 1
        assert tuple(p) == tuple(reversed(tuple(p)))
        support = [c for c in reversed(tuple(p)) if c]
        assert all(a == -b for a, b in zip(support, support[1:]))
        assert support[0] == 1


def test_stream_is_sorted_by_genus_then_exponents():
    cands = list(enumerate_candidates(6))
    keys = [(c.genus, c.exponents) for c in cands]
    assert keys == sorted(keys)


def test_from_gap_set_round_trip():
    cand = Candidate.from_gap_set(5, frozenset({9, 7, 6}))
    assert cand.exponents == (10, 9, 7, 6, 5, 4, 3, 1, 0)
    upper = frozenset(b for b in cand.exponents if cand.genus < b < 2 * cand.genus)
    assert Candidate.from_gap_set(5, upper) == cand


def test_validate_rejections():
    with pytest.raises(ValueError, match="genus must be positive"):
        Candidate(0, 0)
    # genus 4 has slots 5, 6, 7: bits 0..2, so bit 3 is past g - 2
    assert Candidate(4, 0b111).exponents == (8, 7, 6, 5, 4, 3, 2, 1, 0)
    with pytest.raises(ValueError, match=r"mask must lie in \[0, 2\^3\)"):
        Candidate(4, 0b1000)
    with pytest.raises(ValueError, match="mask"):
        Candidate(4, -1)
    for upper in ({5}, {9, 10}, {3}):
        with pytest.raises(ValueError, match=r"must lie in \(5, 10\)"):
            Candidate.from_gap_set(5, upper)


def test_top_gap_filter():
    kept = list(enumerate_candidates(4, top_gap_1=True))
    assert len(kept) == 8
    assert all(c.exponents[0] - c.exponents[1] == 1 for c in kept)
    # genus 1 has top gap 1 automatically; above that the filter halves
    assert [sum(c.genus == g for c in kept) for g in (1, 2, 3, 4)] == [1, 1, 2, 4]
    assert lspace._candidate_count(4, True) == len(kept)


def _gap_set_candidate(genus, upper):
    """(exponents, poly) of the candidate with upper exponents upper, by
    the exponent-list formula, independent of masks."""
    top = sorted(upper, reverse=True)
    exps = ([2 * genus] + top + [genus]
            + [2 * genus - b for b in reversed(top)] + [0])
    return tuple(exps), IntPoly.from_terms(
        (b, (-1) ** j) for j, b in enumerate(exps))


def test_mask_enumeration_matches_the_exponent_formula_through_genus_12():
    every = list(enumerate_candidates(12))
    top = [c for c in every if 2 * c.genus - 1 in c.exponents]
    assert list(enumerate_candidates(12, top_gap_1=True)) == top
    for cand in every:
        upper = [b for b in range(cand.genus + 1, 2 * cand.genus)
                 if cand.mask >> (b - cand.genus - 1) & 1]
        assert (cand.exponents, cand.poly) == _gap_set_candidate(
            cand.genus, upper)
        assert Candidate.from_gap_set(cand.genus, upper) == cand


# -- per-candidate factoring -----------------------------------------------


def test_factorization_matches_generic_factoring():
    for cand in enumerate_candidates(6):
        factors = _factor_candidate(cand.poly)
        prod = IntPoly.one()
        for f, m in factors:
            prod = prod * f ** m
        assert prod == cand.poly
        generic = factor_over_z(cand.poly)
        assert generic.sign == 1 and generic.content == 1
        assert dict(factors) == bag(generic)


def test_cyclotomic_trials_are_roots_of_order_m():
    for phim, q, z in lspace._cyclo_trials(32):
        m = cyclotomic_tag(phim)
        assert is_prime(q) and 2**14 < q < 2**15 and q % m == 1
        assert phim(z) % q == 0
        assert pow(z, m, q) == 1 and all(pow(z, m // p, q) != 1 for p in factorint(m))


def test_known_factor_bags():
    by_exps = {c.exponents: c for c in enumerate_candidates(3)}
    phi = cyclotomic
    assert dict(_factor_candidate(by_exps[(2, 1, 0)].poly)) == {phi(6): 1}
    assert dict(_factor_candidate(by_exps[(4, 2, 0)].poly)) == {phi(12): 1}
    assert dict(_factor_candidate(by_exps[(4, 3, 2, 1, 0)].poly)) == {phi(10): 1}
    assert dict(_factor_candidate(by_exps[(6, 3, 0)].poly)) == {phi(18): 1}
    assert dict(_factor_candidate(by_exps[(6, 5, 3, 1, 0)].poly)) == {
        phi(6): 1, phi(12): 1}
    assert dict(_factor_candidate(by_exps[(6, 5, 4, 3, 2, 1, 0)].poly)) == {
        phi(14): 1}
    noncyclo = by_exps[(6, 4, 3, 2, 0)].poly
    assert dict(_factor_candidate(noncyclo)) == {noncyclo: 1}


# -- records ---------------------------------------------------------------


def test_records_screen_only_noncyclotomic_candidates():
    rep = survey(4)
    for r in rep.records:
        if r.cyclotomic_product:
            assert r.murasugi is None and r.e_gcd is None
        else:
            assert isinstance(r.murasugi, tuple)
            assert isinstance(r.e_gcd, int) and r.e_gcd >= 1


def test_frozen_counts_through_genus_4():
    rep = survey(4)
    assert rep.tally.counts == {"candidates": 15, "cyclotomic_products": 11,
                                "noncyclotomic": 4}
    assert rep.tally.counts["cyclotomic_products"] == sum(
        r.cyclotomic_product for r in rep.records)


def test_small_survey_has_no_exceptional_candidates():
    tally = survey(6).tally
    assert tally.hartley_exceptional == []
    assert tally.murasugi_exceptional == {}


def test_murasugi_hit_gate_requires_divides_by_default():
    base = candidate_record(Candidate.from_gap_set(3, frozenset({4})))
    assert not base.cyclotomic_product
    bare = MurasugiHit(q=2, lam=1, quotient=IntPoly((1,)), shift=0, sign=1,
                       divides=False)
    rec = CandidateRecord(candidate=base.candidate, factors=base.factors,
                          cyclotomic_product=False, hartley=base.hartley,
                          e_gcd=base.e_gcd, murasugi=(bare,))
    assert not rec.murasugi_hit_at(2) and not rec.murasugi_hit_at(3)
    # the bare hit is counted, and kept out of the exceptional lists
    tally = lspace.SurveyTally()
    tally.add(rec)
    assert tally.bare_hits == {2: 1} and tally.murasugi_exceptional == {}
    divides = dataclasses.replace(rec, murasugi=(
        dataclasses.replace(bare, divides=True),))
    assert divides.murasugi_hit_at(2) and not divides.murasugi_hit_at(3)


def test_genus_16_square_candidate_is_the_known_hartley_window():
    # the one alternating candidate through genus 16 whose root is a square
    # in its own field; its top gap is 3, outside the gap-1 subfamily
    cand = Candidate.from_gap_set(16, frozenset({29, 23, 21, 20, 19, 18}))
    assert cand.exponents[0] - cand.exponents[1] == 3
    rec = candidate_record(cand)
    assert not rec.cyclotomic_product
    assert dict(rec.factors) == {cand.poly: 1}
    assert rec.hartley_exceptional and rec.hartley.members == (2,)
    cert = construct_witness(cand.poly, 2)
    held, sign = verify_witness(cand.poly, 2, cert.witness)
    assert held and sign == 1 and cert.witness(1) == 1


# -- whole-survey behavior -------------------------------------------------


def test_survey_is_deterministic_and_jobs_invariant():
    for top_gap_1 in (False, True):
        first = survey(5, top_gap_1=top_gap_1)
        again = survey(5, top_gap_1=top_gap_1)
        forked = survey(5, top_gap_1=top_gap_1, jobs=3)
        assert first == again == forked
        assert first.to_json() == again.to_json() == forked.to_json()


def test_parallel_map_caps_workers_at_the_cpu_count(monkeypatch):
    # a stand-in pool records what a huge jobs value asks for and maps
    # in-process, so no worker is started
    asked = []

    class RecordingPool:
        def __init__(self, max_workers, mp_context):
            asked.extend([max_workers, 0])

        def submit(self, fn, chunk):
            asked[-1] += 1
            done = Future()
            done.set_result(fn(chunk))
            return done

        def shutdown(self, cancel_futures=False):
            pass

    # parallel_map imports the pool class from here when it starts a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    items = list(range(1000))
    assert parallel_map(abs, items, jobs=10**6) == items
    cpus = os.cpu_count() or 1
    if cpus == 1:
        assert asked == []
    else:
        workers, chunks = asked
        # chunks are sized for the capped pool, eight per worker
        assert 2 <= workers <= cpus and chunks <= 8 * workers


def test_pool_keeps_a_bounded_window_in_order_and_cancels_on_error(monkeypatch):
    # futures run only when their result is read, so the stand-in sees
    # how many chunks are submitted and not yet taken back
    state = {"pending": 0, "most": 0, "submitted": 0, "cancelled": None}

    class LazyFuture:
        def __init__(self, fn, chunk):
            self.fn, self.chunk = fn, chunk

        def result(self):
            state["pending"] -= 1
            return self.fn(self.chunk)

    class WindowPool:
        def __init__(self, max_workers, mp_context):
            state["workers"] = max_workers

        def submit(self, fn, chunk):
            state["submitted"] += 1
            state["pending"] += 1
            state["most"] = max(state["most"], state["pending"])
            return LazyFuture(fn, chunk)

        def shutdown(self, cancel_futures=False):
            state["cancelled"] = cancel_futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", WindowPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    items = list(range(5000))
    seen = []
    out = lspace._ordered_map(abs, iter(items), len(items), 2,
                              lambda done, total: seen.append(done))
    assert list(out) == items
    # chunks of 64, at most two per worker out at once
    assert state["submitted"] == -(-5000 // 64) and state["most"] == 4
    assert seen == sorted(seen) and seen[-1] == 5000

    def fail_at(x):
        if x in (700, 900):
            raise ValueError(f"bad item {x}")
        return x

    state.update(submitted=0, pending=0, cancelled=None)
    with pytest.raises(ValueError, match="bad item 700"):
        parallel_map(fail_at, items, jobs=2)
    # the error stops the submissions: 700 is in chunk 11, and the window
    # runs four chunks ahead of the one being read
    assert state["submitted"] <= 11 + 4 and state["cancelled"] is True


@pytest.mark.parametrize("mode,expected", [
    # pinned before the Graeffe prime bound and the cyclotomic caches
    pytest.param(BoundMode.HEURISTIC,
                 "082a87894ae7c4eee1412d28e753794a82a350319f665a48b7d837897d95d830",
                 id="heuristic"),
    # pinned before the Frobenius-matrix distinct-degree split
    pytest.param(BoundMode.RIGOROUS,
                 "3a509b09a8755fcdf3415b61b64eed04cddf1fa9b7c2350e434f1667d8f3619a",
                 id="rigorous"),
])
def test_survey_8_golden_hash(mode, expected):
    # every later speed-up must leave both reports byte-identical
    digest = hashlib.sha256(survey(8, mode).to_json().encode()).hexdigest()
    assert digest == expected


@pytest.mark.parametrize("mode,expected,size", [
    pytest.param(BoundMode.HEURISTIC,
                 "3c777b1596fdf15ba1c664d93662dcef754dc11ea356b9fa140f058998910f02",
                 29680, id="heuristic"),
    pytest.param(BoundMode.RIGOROUS,
                 "80b4aa8d04133facafd71ebd86715785bd3c0d128600f02ce3f668beeadc90dc",
                 29425, id="rigorous"),
])
def test_survey_8_csv_golden_hash(mode, expected, size):
    # the CSV report holds the Hartley set and Murasugi hit texts, which
    # the JSON pins do not see
    text = _csv(survey(8, mode)).encode()
    assert len(text) == size
    assert hashlib.sha256(text).hexdigest() == expected


def test_survey_8_top_gap_1_golden_hash():
    # the one filtered report pinned; the survey command's --filters
    # top-gap-1 prints the same bytes (tests/test_cli.py)
    rep = survey(8, BoundMode.RIGOROUS, top_gap_1=True)
    assert len(rep.records) == 128 and rep.top_gap_1
    digest = hashlib.sha256(rep.to_json().encode()).hexdigest()
    assert digest == "258d2d0c73f7404fa628b02906334ddf28f40529d7275ebb295a1009b3fb31b5"


@pytest.fixture(scope="module")
def g9_rigorous():
    return survey(9, BoundMode.RIGOROUS)


def test_survey_9_rigorous_golden_hash(g9_rigorous):
    # the benchmark's survey_g9_rigorous workload pins the same report
    # (perfbench/workloads.py, PINNED_SHA256)
    text = g9_rigorous.to_json()
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "a6dc799bb62328ab0ca1847d2abd9145bb87d0993a4d584d6de47775198d6074"
    assert _read_back(text) == g9_rigorous


def test_survey_10_heuristic_golden_hash():
    # the one heuristic report through genus 10, where the factor layer,
    # the mod-p splits and the Murasugi screen all run without rigorous E
    digest = hashlib.sha256(survey(10).to_json().encode()).hexdigest()
    assert digest == "b6ea0222949bd77990c8512927efd666dd07023ad330aae670ce9daf0b2d6f63"


def test_survey_10_rigorous_golden_hash():
    # genus 10 is where a wrong rigorous prime bound would first change an
    # E value that the genus <= 9 pins do not hold
    digest = hashlib.sha256(survey(10, BoundMode.RIGOROUS).to_json().encode()).hexdigest()
    assert digest == "b65a833dbc7699883f899d50302c039ad98609e216bba9ae64f55006d8330a08"


def test_survey_mode_is_recorded():
    rep = survey(2, mode=BoundMode.RIGOROUS)
    assert rep.mode is BoundMode.RIGOROUS
    cfg = json.loads(rep.to_json())["config"]
    assert cfg["mode"] == "rigorous" and cfg["rigorous"] is True


def test_progress_callback_sees_monotone_completion():
    seen = []
    records = list(survey_stream(
        4, progress=lambda done, total: seen.append((done, total))))
    assert seen and seen[-1] == (15, 15)
    assert [d for d, _ in seen] == sorted(d for d, _ in seen)
    assert tuple(records) == survey(4).records


def test_enumerate_rejects_nonpositive_genus():
    with pytest.raises(ValueError, match="g_max must be positive"):
        list(enumerate_candidates(0))


# -- serialization ---------------------------------------------------------


def _read_back(text):
    """The report in text, read back through read_report."""
    head, records = read_report(io.StringIO(text))
    cfg = head["config"]
    return SurveyReport(g_max=cfg["g_max"], mode=BoundMode(cfg["mode"]),
                        top_gap_1=cfg["filters"]["top_gap_1"],
                        custom_filter=cfg["filters"]["custom_predicate"],
                        records=tuple(records))


def test_json_round_trip():
    rep = survey(5)
    assert _read_back(rep.to_json()) == rep


def _report_with_exceptional_records():
    """survey(5) with made-up outcomes on three non-cyclotomic records: a
    Hartley-exceptional one, a divides-qualified Murasugi hit at q = 2 and
    a bare hit at q = 3."""
    rep = survey(5)
    noncyclo = [i for i, r in enumerate(rep.records) if not r.cyclotomic_product]
    hit = lambda q, divides: MurasugiHit(q=q, lam=1, quotient=IntPoly((1,)),
                                         shift=0, sign=1, divides=divides)
    records = list(rep.records)
    a, b, c = noncyclo[:3]
    records[a] = dataclasses.replace(
        records[a], hartley=HartleySet(finite=True, members=(2,), rule=None))
    records[b] = dataclasses.replace(records[b],
                                     murasugi=(hit(2, True), hit(3, False)))
    records[c] = dataclasses.replace(records[c], murasugi=(hit(3, False),))
    return dataclasses.replace(rep, records=tuple(records)), (a, b, c)


def test_record_by_record_json_is_the_one_shot_encoding():
    ident = lambda r: {"genus": r.candidate.genus,
                       "exponents": list(r.candidate.exponents)}
    rep, (a, b, c) = _report_with_exceptional_records()
    payload = json.loads(rep.to_json())
    assert payload["aggregates"]["hartley_exceptional"] == [ident(rep.records[a])]
    assert payload["aggregates"]["murasugi_exceptional_by_q"] == {
        "2": [ident(rep.records[b])], "3": []}
    assert payload["aggregates"]["murasugi_bare_hits_by_q"] == {"2": 1, "3": 2}
    reports = [rep] + [survey(8, mode) for mode in BoundMode]
    for rep in reports:
        text = rep.to_json()
        assert json.dumps(json.loads(text), separators=(",", ":")) == text
        assert _read_back(text) == rep


def test_streamed_report_writers_match_the_in_memory_report():
    rep, (a, b, c) = _report_with_exceptional_records()
    out = io.StringIO()
    lspace.write_json(out, iter(rep.records), rep.g_max, rep.mode,
                      rep.top_gap_1)
    assert out.getvalue() == rep.to_json()
    out = io.StringIO()
    write_csv(out, iter(rep.records), rep.mode, rep.top_gap_1)
    rows = list(csv.DictReader(io.StringIO(out.getvalue())))
    assert len(rows) == len(rep.records)
    assert rows[a]["hartley_set"] == "{2}"
    assert rows[b]["murasugi_hits"] == (
        "q=2 lam=1 shift=0 sign=+1 divides=True;"
        " q=3 lam=1 shift=0 sign=+1 divides=False")
    assert rows[c]["murasugi_hits"] == "q=3 lam=1 shift=0 sign=+1 divides=False"


def test_to_json_peak_memory_stays_near_the_output_size():
    rep = survey(8)
    tracemalloc.start()
    try:
        text = rep.to_json()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a payload tree of every record costs about 16 times the text
    assert peak < 4 * len(text)


def test_payload_shape():
    rep = survey(3)
    payload = json.loads(rep.to_json())
    assert payload["version"] == 1
    assert payload["config"]["g_max"] == 3
    assert payload["aggregates"]["candidates"] == 7
    assert payload["aggregates"]["hartley_exceptional"] == []
    assert len(payload["records"]) == 7
    rec = payload["records"][0]
    assert rec["genus"] == 1 and rec["exponents"] == [2, 1, 0]
    assert rec["poly"] == "t^2 - t + 1"
    assert rec["murasugi"] is None and rec["cyclotomic_product"] is True


def test_rejects_unknown_report_version():
    payload = json.loads(survey(2).to_json())
    payload["version"] = 99
    text = json.dumps(payload, separators=(",", ":"))
    with pytest.raises(ValueError, match="unsupported report version"):
        read_report(io.StringIO(text))


def _drain(text):
    head, records = read_report(io.StringIO(text))
    return head, list(records)


def test_read_report_reads_the_survey_command_output_record_by_record(monkeypatch):
    rep = survey(4)
    text = rep.to_json() + "\n"
    # a read size of a few bytes cuts every record and the head
    for size in (7, 64, 1 << 14):
        monkeypatch.setattr(lspace, "_READ_SIZE", size)
        head, records = read_report(io.StringIO(text))
        assert head == {k: v for k, v in json.loads(text).items() if k != "records"}
        assert tuple(records) == rep.records
    empty = json.dumps({"version": 1, "config": {}, "aggregates": {"candidates": 0},
                        "records": []}, separators=(",", ":"))
    assert _drain(empty)[1] == []


def test_read_report_rejects_a_cut_report():
    text = survey(4).to_json()
    boundary = text.index("},{") + 1
    for cut in (text[:text.index('"records":[') + 5],  # in the head
                text[:text.index('"records":[') + 11],  # before any record
                text[:boundary],  # between records
                text[:boundary + 1],  # after the comma
                text[:boundary + 40],  # inside a record
                text[:-2]):  # after the last record
        with pytest.raises(ValueError, match="report ends"):
            _drain(cut)
    with pytest.raises(ValueError, match='does not end in "]}"'):
        _drain(text[:-1])
    # a cut at any point of any record reads as a cut, never as a record
    # that is not JSON
    first = text.index('"records":[') + len('"records":[')
    for end in range(first, len(text) - 2):
        with pytest.raises(ValueError, match="report ends"):
            _drain(text[:end])


@pytest.mark.parametrize("head", [
    '{"version":1,"config":{},"records":[]}',
    '{"version":1,"config":{},"aggregates":{},"records":[]}',
    '{"version":1,"config":{},"aggregates":[],"records":[]}',
])
def test_read_report_rejects_a_head_without_the_candidate_count(head):
    with pytest.raises(ValueError, match="no aggregates.candidates"):
        read_report(io.StringIO(head))


@pytest.mark.parametrize("tail", ["x", "]", "}", "\n{}", ",{}"])
def test_read_report_rejects_text_after_the_report(tail):
    text = survey(3).to_json()
    _drain(text + " \n\t")
    with pytest.raises(ValueError, match='does not end in "]}"'):
        _drain(text + tail)


def test_read_report_rejects_a_record_count_other_than_the_aggregates():
    text = survey(3).to_json()
    more = text.replace('"candidates":7', '"candidates":8', 1)
    with pytest.raises(ValueError, match="7 records for 8 candidates"):
        _drain(more)
    first = text.index('"records":[') + len('"records":[')
    second = text.index(',{"genus"', first)
    with pytest.raises(ValueError, match="6 records for 7 candidates"):
        _drain(text[:first] + text[second + 1:])


@pytest.mark.parametrize("old, new", [
    ('"exponents":[4,3,2,1,0]', '"exponents":[4,2,1,0]'),
    ('"exponents":[4,3,2,1,0]', '"exponents":[4,3,2,0,0]'),
    ('"poly":"t^4 - t^3 + t^2 - t + 1"', '"poly":"t^4 - t^3 + t^2 - t + 2"'),
    ('"genus":2,"exponents":[4,3,2,1,0]', '"genus":3,"exponents":[4,3,2,1,0]'),
])
def test_read_report_rejects_a_record_that_does_not_rebuild_its_candidate(old, new):
    text = survey(3).to_json()
    assert text.count(old) == 1
    with pytest.raises(ValueError, match="does not rebuild its candidate"):
        _drain(text.replace(old, new))


def test_read_report_checks_a_huge_genus_record_without_its_polynomial():
    # the poly string is checked against the record's own exponents, so a
    # genus-10^7 record builds no polynomial of degree 2*10^7
    g = 10**7
    text = survey(1).to_json().replace('"g_max":1,', f'"g_max":{g},').replace(
        '"genus":1,"exponents":[2,1,0],"poly":"t^2 - t + 1"',
        f'"genus":{g},"exponents":[{2 * g},{g},0],"poly":"t^{2 * g} - t^{g} + 1"')
    start = time.monotonic()
    head, (record,) = _drain(text)
    assert time.monotonic() - start < 0.5
    assert record.candidate == Candidate(g, 0)
    assert "poly" not in vars(record.candidate)
    with pytest.raises(ValueError, match="does not rebuild its candidate"):
        _drain(text.replace(" + 1", " + 2"))


def test_read_report_refuses_a_record_outside_the_genus_range_at_once():
    # a genus-10^8 record in survey(1)'s report: its candidate's mask alone
    # would take 12 MB, and checking its exponents far more
    g = 10**8
    text = survey(1).to_json().replace(
        '"genus":1,"exponents":[2,1,0],"poly":"t^2 - t + 1"',
        f'"genus":{g},"exponents":[{2 * g},{2 * g - 1},{g},1,0],'
        f'"poly":"t^{2 * g} - t^{2 * g - 1} + t^{g} - t + 1"')
    head, records = read_report(io.StringIO(text))
    seen = []
    start = time.monotonic()
    with pytest.raises(ValueError, match=r"outside 1\.\.1"):
        seen.extend(records)
    assert time.monotonic() - start < 0.5
    assert seen == []


@pytest.mark.parametrize("old, new", [
    ('"genus":2,', '"genus":"2",'),
    (',"e_gcd":', ',"e_gcd_x":'),
    ('"sign":1,', '"sgn":1,'),
    ('"rule":', '"rules":'),
    ('"records":[', '"records":[[],'),
])
def test_read_report_rejects_a_malformed_record(old, new):
    text = _report_with_exceptional_records()[0].to_json()
    assert old in text
    with pytest.raises(ValueError, match="report record [0-9]+ is malformed"):
        _drain(text.replace(old, new, 1))
    with pytest.raises(ValueError, match="layout"):
        _drain(text.replace('},{"genus"', '}{"genus"', 1))


class _CountingReader(io.StringIO):
    def __init__(self, text):
        super().__init__(text)
        self.chars = 0

    def read(self, size=-1):
        chunk = super().read(size)
        self.chars += len(chunk)
        return chunk


@pytest.mark.parametrize("index", [0, 19, 200, 510])
def test_read_report_rejects_a_record_that_is_not_json_at_once(
        g9_rigorous, index):
    text = g9_rigorous.to_json()
    starts = [text.index('"records":[') + len('"records":[')]
    while len(starts) < 511:
        starts.append(text.index(',{"genus":', starts[-1]) + 1)
    # a control character inside a string is not JSON
    bad = text.index('"poly":"', starts[index]) + len('"poly":"')
    fp = _CountingReader(text[:bad] + "\x01" + text[bad:])
    head, records = read_report(fp)
    seen = []
    with pytest.raises(ValueError, match=f"report record {index} is not JSON"):
        seen.extend(records)
    assert len(seen) == index
    # the reader stops within one read past the record
    record_end = starts[index + 1] if index < 510 else len(text)
    assert fp.chars <= record_end + 1 + lspace._READ_SIZE


def test_read_report_peak_memory_does_not_grow_with_the_record_count(
        tmp_path, g9_rigorous):
    def peak(rep):
        path = tmp_path / "report.json"
        path.write_text(rep.to_json() + "\n")
        with path.open() as fp:
            tracemalloc.start()
            try:
                head, records = read_report(fp)
                n = sum(1 for _ in records)
                return n, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

    small, small_peak = peak(survey(6))
    big, big_peak = peak(g9_rigorous)
    assert (small, big) == (63, 511)
    assert big_peak < 2 * small_peak


def _csv(rep):
    """The CSV report of rep, as the survey command prints it."""
    out = io.StringIO()
    write_csv(out, rep.records, rep.mode, rep.top_gap_1)
    return out.getvalue()


def test_csv_shape_and_parseability():
    rep = survey(4)
    text = _csv(rep)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["genus", "exponents", "poly", "cyclotomic_product",
                       "e_gcd", "hartley_set", "murasugi_screened",
                       "murasugi_hits", "mode", "top_gap_1"]
    assert len(rows) == 1 + 15
    assert [r[0] for r in rows[1:]] == [str(rec.candidate.genus)
                                        for rec in rep.records]
    # polynomial cells contain commas only via quoting, never raw
    assert all(len(r) == 10 for r in rows[1:])
    assert {(r[8], r[9]) for r in rows[1:]} == {("heuristic", "false")}
    text = _csv(survey(4, BoundMode.RIGOROUS, top_gap_1=True))
    rows = list(csv.DictReader(io.StringIO(text)))
    assert {(r["mode"], r["top_gap_1"]) for r in rows} == {("rigorous", "true")}
