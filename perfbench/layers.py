"""Which freeperiod names the traced run wraps, and the per-layer metrics.

The package binds names with `from .x import y`, so each wrapper goes on
the module that looks the name up, not only on the module defining it.
All spans of one pass are reduced to the flat metric dict of that pass.
"""

from __future__ import annotations

import importlib
import statistics

from tracing import Span, Tracer, self_times


def module(name: str):
    """The submodule freeperiod.<name>.

    The package namespace binds the function cyclotomic over the submodule
    of the same name, so this goes through the import system.
    """
    return importlib.import_module(f"freeperiod.{name}")


def _factor_note(args, kwargs, result):
    return (args[0].degree, len(result.factors))


def _power_levels(args, kwargs, result):
    max_r = kwargs.get("max_r", args[2] if len(args) > 2 else None)
    return result if max_r is not None and result == max_r else result + 1


def _hits_note(args, kwargs, result):
    return (len(result), sum(1 for h in result if h.divides))


def _result(args, kwargs, result):
    return result


def _json_bytes(args, kwargs, result):
    return len(result)


# (module, attribute, span name, note); one span name per concept, wrapped
# under every module that looks it up
WRAPPED = [
    ("zfactor", "ddf_degree_multiset", "ddf", None),
    ("zfactor", "factor_squarefree_mod_p", "split", None),
    ("zfactor", "factor_over_z", "factor", _factor_note),
    ("lspace", "factor_over_z", "factor", _factor_note),
    ("hartley", "factor_over_z", "factor", _factor_note),
    ("murasugi", "factor_over_z", "factor", _factor_note),
    ("hartley", "degree_set_filter", "degree_filter", _result),
    ("hartley", "e_of_irreducible", "e", None),
    ("hartley", "power_index", "power_index", _power_levels),
    ("lspace", "profile_from_factors", "profile", None),
    ("hartley", "profile_from_factors", "profile", None),
    ("hartley", "construct_witness", "witness", None),
    ("hartley", "verify_witness", "verify_witness", None),
    ("hartley", "prime_bound", "prime_bound", _result),
    ("lspace", "cyclotomic_tag", "cyclotomic_tag", None),
    ("hartley", "cyclotomic_tag", "cyclotomic_tag", None),
    ("mahler", "cyclotomic_tag", "cyclotomic_tag", None),
    ("cyclotomic", "phi_inverse", "phi_inverse", None),
    ("lspace", "phi_inverse", "phi_inverse", None),
    ("lspace", "murasugi_screen_all", "murasugi", _hits_note),
    ("murasugi", "murasugi_screen_all", "murasugi", _hits_note),
    ("lspace", "candidate_record", "record", None),
    ("intpoly", "parse_poly", "parse", None),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of freeperiod in tracer spans."""
    for owner, attr, name, note in WRAPPED:
        tracer.patch(module(owner), attr, name, note)
    lspace = module("lspace")
    tracer.patch(lspace, "enumerate_candidates", "enumerate", materialize=True)
    tracer.patch(lspace.SurveyReport, "to_json", "serialize", _json_bytes)


def layer_metrics(spans: list[Span], e_hits: int, e_misses: int) -> dict[str, float]:
    """Flat per-layer metrics of one traced pass.

    e_hits and e_misses are the deltas of e_of_irreducible.cache_info()
    over the pass.
    """
    selfs = self_times(spans)
    by: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by.setdefault(s.name, []).append(i)

    def calls(name):
        return len(by.get(name, ()))

    def total(name):
        return sum(spans[i].duration for i in by.get(name, ()))

    def self_total(name):
        return sum(selfs[i] for i in by.get(name, ()))

    def notes(name):
        return [spans[i].note for i in by.get(name, ())]

    def ratio(num, den):
        return num / den if den else 0.0

    factor_notes = notes("factor")
    inflation = [spans[i].note[0] for i in by.get("factor", ())
                 if spans[i].parent is not None
                 and spans[spans[i].parent].name in ("power_index", "e")]
    filter_results = notes("degree_filter")
    screened = sum(1 for i in by.get("degree_filter", ())
                   if spans[i].parent is not None
                   and spans[spans[i].parent].name == "power_index")
    levels = sum(notes("power_index"))
    bounds = notes("prime_bound")
    hits = notes("murasugi")
    n_hits = sum(h for h, _ in hits)
    return {
        "modpoly.ddf_calls": calls("ddf"),
        "modpoly.ddf_s": total("ddf"),
        "modpoly.split_calls": calls("split"),
        "modpoly.split_s": total("split"),
        "zfactor.factor_calls": calls("factor"),
        "zfactor.factor_self_s": self_total("factor"),
        "zfactor.max_degree": max((d for d, _ in factor_notes), default=0),
        "zfactor.single_factor_ratio": ratio(
            sum(1 for _, k in factor_notes if k == 1), len(factor_notes)),
        "zfactor.degree_filter_calls": calls("degree_filter"),
        "zfactor.degree_filter_reject_ratio": ratio(
            sum(1 for ok in filter_results if not ok), len(filter_results)),
        "hartley.e_calls": calls("e"),
        "hartley.e_cache_hit_ratio": ratio(e_hits, e_hits + e_misses),
        "hartley.power_index_calls": calls("power_index"),
        "hartley.power_index_self_s": self_total("power_index"),
        "hartley.power_levels": levels,
        "hartley.screen_pass_ratio": ratio(screened, levels),
        "hartley.inflation_factor_calls": len(inflation),
        "hartley.inflation_max_degree": max(inflation, default=0),
        "hartley.profile_s": total("profile"),
        "hartley.witness_s": total("witness"),
        "hartley.verify_witness_s": total("verify_witness"),
        "mahler.bound_calls": len(bounds),
        "mahler.bound_s": total("prime_bound"),
        "mahler.bound_median": statistics.median(bounds) if bounds else 0,
        "mahler.bound_max": max(bounds, default=0),
        "cyclotomic.tag_calls": calls("cyclotomic_tag"),
        "cyclotomic.tag_s": total("cyclotomic_tag"),
        "cyclotomic.phi_inverse_calls": calls("phi_inverse"),
        "cyclotomic.phi_inverse_s": total("phi_inverse"),
        "murasugi.screen_calls": calls("murasugi"),
        "murasugi.screen_s": total("murasugi"),
        "murasugi.hits": n_hits,
        "murasugi.divides_ratio": ratio(sum(d for _, d in hits), n_hits),
        "lspace.enumerate_s": total("enumerate"),
        "lspace.record_self_s": self_total("record"),
        "lspace.serialize_s": total("serialize"),
        "lspace.report_bytes": sum(notes("serialize")),
        "intpoly.parse_s": total("parse"),
        "trace.spans": len(spans),
    }


UNITS = {"_calls": "count", "_s": "s", "_ratio": "ratio", "_degree": "count",
         "_levels": "count", "_bytes": "bytes", "hits": "count",
         "bound_median": "count", "bound_max": "count", "spans": "count"}


def unit(name: str) -> str:
    """Unit of a per-layer metric, from the end of its name."""
    return next(u for suffix, u in UNITS.items() if name.endswith(suffix))
