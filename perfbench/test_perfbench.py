"""Tests of the benchmark's own arithmetic and wrappers.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402


def test_self_time_of_synthetic_nested_call():
    # clock reads in call order: outer, inner, leaf, /leaf, /inner,
    # other, /other, /outer
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 7.0, 8.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("leaf", lambda: None)
    inner = tracer.wrap("inner", leaf)
    other = tracer.wrap("other", lambda: None)

    def body():
        inner()
        other()

    tracer.wrap("outer", body)()
    assert [(s.name, s.parent) for s in tracer.spans] == [
        ("outer", None), ("inner", 0), ("leaf", 1), ("other", 0)]
    assert self_times(tracer.spans) == [10.0 - 3.5 - 1.0, 3.5 - 1.0, 1.0, 1.0]


def test_self_times_subtract_only_covered_child_time():
    spans = [
        Span("outer", 0.0, 10.0, None),
        Span("a", 1.0, 4.0, 0),
        Span("b", 2.0, 3.0, 1),
        Span("c", 6.0, 8.0, 0),
    ]
    assert self_times(spans) == [10.0 - 3.0 - 2.0, 3.0 - 1.0, 1.0, 2.0]


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in (20, 50, 99, 100, 199, 200, 240, 399, 400, 900, 999, 1000, 5000):
        for cap in (90.0, 95.0, 97.5, 99.0):
            p = run.tail_percentile(n, cap)
            assert p <= cap
            assert run.beyond(n, p) >= 10
            higher = [q for q in run.TAIL_LADDER if p < q <= cap]
            assert all(run.beyond(n, q) < 10 for q in higher), (n, cap, p)
    assert run.tail_percentile(300, 99.0) == 95.0
    assert run.tail_percentile(400, 99.0) == 97.5
    assert run.tail_percentile(15, 99.0) == 50.0


def test_nearest_rank_counts_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert run.nearest_rank(values, 95.0) == 190.0
    assert run.beyond(200, 95.0) == 10
    assert sum(v > run.nearest_rank(values, 95.0) for v in values) == 10


def test_trimmed_rate_leaves_out_the_slowest_operations():
    lat = [0.1] * 39 + [5.0]  # 2.5 % of 40 is the one heavy operation
    rate = run.trimmed_rate(lat, between=0.4)
    # 39 operations in 3.9 s plus 39/40 of the 0.4 s between
    assert abs(rate - 39 / (3.9 + 0.39)) < 1e-12
    assert run.trimmed_rate([0.5] * 10, 0.0) == 2.0


def test_install_then_restore_puts_every_name_back():
    lspace = layers.module("lspace")
    targets = [(layers.module(m), a) for m, a, _, _ in layers.WRAPPED]
    targets.append((lspace, "enumerate_candidates"))
    before = [getattr(owner, attr) for owner, attr in targets]
    to_json = lspace.SurveyReport.__dict__["to_json"]
    with Tracer() as tracer:
        layers.install(tracer)
        assert all(getattr(o, a) is not b for (o, a), b in zip(targets, before))
        assert lspace.SurveyReport.__dict__["to_json"] is not to_json
    assert all(getattr(o, a) is b for (o, a), b in zip(targets, before))
    assert lspace.SurveyReport.__dict__["to_json"] is to_json


def test_traced_calls_record_spans_and_results():
    with Tracer() as tracer:
        layers.install(tracer)
        zfactor = layers.module("zfactor")
        fac = zfactor.factor_over_z(layers.module("intpoly").parse_poly(
            "4t^6 - 17t^5 + 38t^4 - 51t^3 + 38t^2 - 17t + 4"))
    assert len(fac.factors) == 2
    assert [s.name for s in tracer.spans[:2]] == ["parse", "factor"]
    assert tracer.spans[1].note == (6, 2)
    ddf = [s for s in tracer.spans if s.name == "ddf"]
    assert ddf and all(s.parent == 1 for s in ddf)
    metrics = layers.layer_metrics(tracer.spans, 0, 0)
    assert metrics["zfactor.factor_calls"] == 1
    assert metrics["zfactor.single_factor_ratio"] == 0.0


def test_generators_are_deterministic_in_the_seed():
    for workload in ("survey_g16_sample", "queries"):
        a = workloads.make_inputs(workload, 7, 2)
        assert repr(a) == repr(workloads.make_inputs(workload, 7, 2))
        assert repr(a) != repr(workloads.make_inputs(workload, 8, 2))
        assert len(set(map(repr, a))) == len(a) == workloads.BATCH[workload]


def test_hartley_built_queries_are_n_hartley_knot_shaped():
    import random

    hartley = layers.module("hartley")
    rng = random.Random(3)
    for _ in range(40):
        delta = layers.module("intpoly").IntPoly(
            tuple(reversed(workloads._hartley_built(rng))))
        assert delta(1) in (1, -1) and delta[0] != 0
        assert hartley.hartley_set(hartley.hartley_profile(delta)).members
