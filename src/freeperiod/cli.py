"""Command line front end: knot-table ingestion, obstruction queries, survey.

Every subcommand that reads polynomials takes exactly one of --poly (a
single symbolic or ascending comma-separated coefficient expression) or
--poly-file (a knot table CSV with header name,alexander).  Table rows are
normalized knot records; a bare --poly is taken as-is so non-Alexander
polynomials can still be factored or profiled.

Exit codes: 0 success, 1 domain error (bad polynomial, failed
precondition), 2 usage error.  Machine-readable output via --json always
carries the bound mode and a rigor flag.  FPL_MODE sets the default for
--mode; an explicit flag wins.
"""

from __future__ import annotations

import csv
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional, TypeVar

import click

from .hartley import (
    BoundMode,
    construct_witness,
    hartley_knot_check,
    hartley_profile,
    hartley_set,
    is_n_hartley,
)
from .intpoly import IntPoly, format_poly, parse_poly
from .lspace import FilterConfig, survey
from .murasugi import murasugi_screen, murasugi_screen_all
from .zfactor import factor_over_z

T = TypeVar("T")


@dataclass(frozen=True)
class KnotRecord:
    """One knot-table row: a name and its normalized Alexander polynomial.

    Normalization strips the t^k unit and flips the global sign so the
    constant term is positive; rows whose polynomial is not palindromic up
    to sign or does not evaluate to +-1 at 1 are rejected.
    """

    name: str
    alexander: IntPoly
    source: str


def normalize_alexander(poly: IntPoly) -> IntPoly:
    if not poly:
        raise ValueError("zero polynomial")
    poly = poly.shift_down(poly.order_at_zero())
    if poly[0] < 0:
        poly = -poly
    if poly(1) not in (1, -1):
        raise ValueError(f"value at 1 is {poly(1)}, not +-1")
    if not poly.is_palindromic_up_to_sign():
        raise ValueError("not palindromic up to sign")
    return poly


def ingest_csv(path: str, strict: bool = False,
               errors: Optional[list[str]] = None) -> list[KnotRecord]:
    """Read and validate a name,alexander CSV.

    Invalid rows abort with ValueError in strict mode; otherwise they are
    skipped, with one message per row appended to errors when a list is
    supplied.
    """
    try:
        fh = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}")
    with fh:
        reader = csv.DictReader(fh)
        fields = reader.fieldnames or []
        if "name" not in fields or "alexander" not in fields:
            raise ValueError(f"{path}: header must contain name,alexander")
        records = []
        for i, row in enumerate(reader, start=2):
            try:
                name = (row["name"] or "").strip()
                if not name:
                    raise ValueError("empty name")
                poly = normalize_alexander(parse_poly(row["alexander"] or ""))
            except ValueError as exc:
                msg = f"{path} row {i}: {exc}"
                if strict:
                    raise ValueError(msg)
                if errors is not None:
                    errors.append(msg)
                continue
            records.append(KnotRecord(name=name, alexander=poly,
                                      source=f"{path}:{i}"))
    return records


# -- shared option plumbing ------------------------------------------------


def _poly_options(fn):
    fn = click.option("--poly", help="polynomial expression")(fn)
    fn = click.option("--poly-file", type=click.Path(),
                      help="knot table CSV (name,alexander)")(fn)
    return fn


def _mode_option(fn):
    return click.option(
        "--mode", type=click.Choice(["heuristic", "rigorous"]),
        default="heuristic", envvar="FPL_MODE", show_default=True,
        help="Mahler bound mode (env FPL_MODE sets the default)")(fn)


def _jobs_option(fn):
    return click.option("--jobs", type=int, default=1, show_default=True,
                        help="worker fan-out for batch inputs")(fn)


def _inputs(poly: Optional[str], poly_file: Optional[str]) -> list[tuple[Optional[str], IntPoly]]:
    if (poly is None) == (poly_file is None):
        raise click.UsageError("provide exactly one of --poly or --poly-file")
    if poly is not None:
        return [(None, _domain(parse_poly)(poly))]
    errors: list[str] = []
    records = _domain(ingest_csv)(poly_file, False, errors)
    for msg in errors:
        click.echo(f"skipped: {msg}", err=True)
    return [(r.name, r.alexander) for r in records]


def _domain(fn: Callable[..., T]) -> Callable[..., T]:
    # domain failures exit 1; usage problems keep click's exit 2
    def run(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ValueError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    return run


def _pmap(fn: Callable[[tuple[Optional[str], IntPoly]], T],
          items: list[tuple[Optional[str], IntPoly]], jobs: int) -> list[T]:
    if jobs > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    return [fn(item) for item in items]


def _emit(as_json: bool, mode: BoundMode, results: list[dict],
          human: Callable[[dict], str]) -> None:
    if as_json:
        click.echo(json.dumps(
            {"mode": mode.value, "rigorous": mode is BoundMode.RIGOROUS,
             "results": results}, separators=(",", ":")))
        return
    for res in results:
        prefix = f"{res['name']}: " if res.get("name") else ""
        click.echo(prefix + human(res))


@click.group()
def main() -> None:
    """Free-periodicity and periodicity obstructions for knot polynomials."""


# -- subcommands -----------------------------------------------------------


@main.command()
@_poly_options
@_mode_option
@_jobs_option
@click.option("--json", "as_json", is_flag=True)
def factor(poly, poly_file, mode, jobs, as_json):
    """Factor polynomials into irreducibles over the integers."""
    mode = BoundMode(mode)

    def one(item):
        name, f = item
        fp = _domain(factor_over_z)(f)
        return {"name": name, "poly": format_poly(f), "sign": fp.sign,
                "content": fp.content,
                "factors": [{"coeffs": list(g), "mult": m, "str": format_poly(g)}
                            for g, m in fp.factors]}

    results = _pmap(one, _inputs(poly, poly_file), jobs)

    def human(res):
        body = " * ".join(
            f"({f['str']})^{f['mult']}" if f["mult"] > 1 else f"({f['str']})"
            for f in res["factors"])
        unit = res["sign"] * res["content"]
        return f"{unit} * {body}" if body else str(unit)

    _emit(as_json, mode, results, human)


def _hartley_payload(f: IntPoly, mode: BoundMode) -> dict:
    profile = _domain(hartley_profile)(f, mode)
    hs = hartley_set(profile)
    return {"e": profile.e_gcd_literal,
            "hartley": {"finite": hs.finite, "members": list(hs.members),
                        "rule": hs.rule},
            "_set": str(hs)}


@main.command()
@_poly_options
@_mode_option
@_jobs_option
@click.option("--json", "as_json", is_flag=True)
def evalue(poly, poly_file, mode, jobs, as_json):
    """Report the E invariant (0 for cyclotomic products) per polynomial."""
    mode = BoundMode(mode)

    def one(item):
        name, f = item
        res = _hartley_payload(f, mode)
        return {"name": name, "poly": format_poly(f), "e": res["e"],
                "hartley": res["hartley"], "_set": res["_set"]}

    results = _pmap(one, _inputs(poly, poly_file), jobs)

    def human(res):
        rule = res["hartley"]["rule"]
        tail = f", rule {rule}" if rule else f", set {res['_set']}"
        return f"E = {res['e']}{tail}"

    for res in results:
        res.pop("_set") if as_json else None
    _emit(as_json, mode, results, human)


@main.command("hartley-set")
@_poly_options
@_mode_option
@_jobs_option
@click.option("--json", "as_json", is_flag=True)
def hartley_set_cmd(poly, poly_file, mode, jobs, as_json):
    """Print all orders n >= 2 passing the free-period factorization test."""
    mode = BoundMode(mode)

    def one(item):
        name, f = item
        res = _hartley_payload(f, mode)
        return {"name": name, "poly": format_poly(f),
                "hartley": res["hartley"], "_set": res["_set"]}

    results = _pmap(one, _inputs(poly, poly_file), jobs)
    for res in results:
        res.pop("_set") if as_json else None
    _emit(as_json, mode, results, lambda res: res["_set"])


@main.command("hartley-check")
@_poly_options
@_mode_option
@_jobs_option
@click.option("--n", "order", type=int, required=True,
              help="period order to test")
@click.option("--knot", is_flag=True,
              help="enforce Alexander-polynomial preconditions first")
@click.option("--json", "as_json", is_flag=True)
def hartley_check(poly, poly_file, mode, jobs, order, knot, as_json):
    """Decide whether each polynomial is n-Hartley, with a witness."""
    mode = BoundMode(mode)

    def one(item):
        name, f = item
        out = {"name": name, "poly": format_poly(f), "n": order}
        if knot:
            rep = _domain(hartley_knot_check)(f, order, mode)
            out["verdict"] = rep.verdict
            if rep.verdict:
                out["witness"] = list(rep.certificate.witness)
                out["sign"] = rep.certificate.sign
                out["witness_str"] = format_poly(rep.certificate.witness)
                out["witness_unit_at_one"] = rep.witness_unit_at_one
                out["witness_palindromic"] = rep.witness_palindromic
            return out
        profile = _domain(hartley_profile)(f, mode)
        out["verdict"] = _domain(is_n_hartley)(profile, order)
        if out["verdict"]:
            cert = construct_witness(f, order, mode)
            out["witness"] = list(cert.witness)
            out["sign"] = cert.sign
            out["witness_str"] = format_poly(cert.witness)
        return out

    results = _pmap(one, _inputs(poly, poly_file), jobs)

    def human(res):
        if not res["verdict"]:
            return f"n = {res['n']}: no"
        return (f"n = {res['n']}: yes, witness {res['witness_str']},"
                f" sign {res['sign']:+d}")

    for res in results:
        res.pop("witness_str", None) if as_json else None
    _emit(as_json, mode, results, human)


@main.command()
@_poly_options
@_mode_option
@_jobs_option
@click.option("--n", "order", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
def witness(poly, poly_file, mode, jobs, order, as_json):
    """Construct and verify an order-n witness factorization."""
    mode = BoundMode(mode)

    def one(item):
        name, f = item
        cert = _domain(construct_witness)(f, order, mode)
        return {"name": name, "poly": format_poly(f), "n": order,
                "witness": list(cert.witness), "sign": cert.sign,
                "verified": cert.verified,
                "witness_str": format_poly(cert.witness)}

    results = _pmap(one, _inputs(poly, poly_file), jobs)

    def human(res):
        return (f"n = {res['n']}: witness {res['witness_str']},"
                f" sign {res['sign']:+d}, verified {res['verified']}")

    for res in results:
        res.pop("witness_str", None) if as_json else None
    _emit(as_json, mode, results, human)


@main.command()
@_poly_options
@_mode_option
@_jobs_option
@click.option("--q", "period", type=int, default=None,
              help="screen one prime-power period")
@click.option("--all", "do_all", is_flag=True,
              help="screen every prime power up to deg + 1")
@click.option("--json", "as_json", is_flag=True)
def murasugi(poly, poly_file, mode, jobs, period, do_all, as_json):
    """Run the mod-p periodicity congruence screen."""
    mode = BoundMode(mode)
    if (period is None) == (not do_all):
        raise click.UsageError("provide exactly one of --q or --all")

    def one(item):
        name, f = item
        if do_all:
            hits = _domain(murasugi_screen_all)(f)
        else:
            hits = _domain(murasugi_screen)(f, period)
        return {"name": name, "poly": format_poly(f),
                "hits": [{"q": h.q, "lam": h.lam, "shift": h.shift,
                          "sign": h.sign, "quotient": list(h.quotient),
                          "quotient_str": format_poly(h.quotient),
                          "divides": h.divides} for h in hits]}

    results = _pmap(one, _inputs(poly, poly_file), jobs)

    def human(res):
        if not res["hits"]:
            return "no hits (screen obstructs the period)"
        return "; ".join(
            f"q={h['q']} lam={h['lam']} shift={h['shift']} sign={h['sign']:+d}"
            f" divides={h['divides']} quotient {h['quotient_str']}"
            for h in res["hits"])

    if as_json:
        for res in results:
            for h in res["hits"]:
                h.pop("quotient_str")
    _emit(as_json, mode, results, human)


@main.command("survey")
@_mode_option
@click.option("--max-genus", type=int, default=10, show_default=True)
@click.option("--full", is_flag=True,
              help="allow the long run past genus 10")
@click.option("--filters", "filter_names", multiple=True,
              type=click.Choice(["top-gap-1"]))
@click.option("--jobs", type=int, default=1, show_default=True)
@click.option("--json", "as_json", is_flag=True)
def survey_cmd(mode, max_genus, full, filter_names, jobs, as_json):
    """Survey candidate L-space knot polynomials for periodicity escapes."""
    mode = BoundMode(mode)
    if max_genus > 10 and not full:
        raise click.UsageError(
            "genus beyond 10 is a long run; pass --full to confirm")
    if max_genus < 1:
        raise click.UsageError("--max-genus must be positive")
    filters = FilterConfig(top_gap_1="top-gap-1" in filter_names)
    report = survey(max_genus, mode, filters, jobs=jobs)
    if as_json:
        click.echo(report.to_json())
        return
    click.echo(f"mode: {mode.value} (rigorous: {mode is BoundMode.RIGOROUS})")
    click.echo(f"counts: {report.counts}")
    hx = report.hartley_exceptional
    click.echo(f"hartley exceptional: {len(hx)}")
    for r in hx:
        click.echo(f"  genus {r.candidate.genus}: "
                   f"{format_poly(r.candidate.poly)}")
    for q in report.hit_qs():
        qual = report.murasugi_exceptional(q)
        bare = report.murasugi_exceptional(q, require_divides=False)
        click.echo(f"murasugi q={q}: {len(qual)} divides-qualified"
                   f" of {len(bare)} bare hits")
        for r in qual:
            click.echo(f"  genus {r.candidate.genus}: "
                       f"{format_poly(r.candidate.poly)}")


@main.command()
@click.argument("path", type=click.Path())
@click.option("--strict", is_flag=True, help="abort on the first bad row")
@click.option("--json", "as_json", is_flag=True)
def ingest(path, strict, as_json):
    """Validate a knot table CSV and print the normalized records."""
    errors: list[str] = []
    records = _domain(ingest_csv)(path, strict, errors)
    for msg in errors:
        click.echo(f"skipped: {msg}", err=True)
    if as_json:
        click.echo(json.dumps(
            {"records": [{"name": r.name, "alexander": list(r.alexander),
                          "source": r.source} for r in records],
             "skipped": len(errors)}, separators=(",", ":")))
        return
    for r in records:
        click.echo(f"{r.name}: {format_poly(r.alexander)}")
    click.echo(f"{len(records)} records, {len(errors)} skipped", err=True)


if __name__ == "__main__":
    main()
