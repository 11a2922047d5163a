"""Command line front end: knot-table ingestion, obstruction queries, survey.

Every subcommand that reads polynomials takes exactly one of --poly (a
single symbolic or ascending comma-separated coefficient expression) or
--poly-file (a knot table CSV with header name,alexander).  Table rows are
normalized knot records; a bare --poly is taken as-is so non-Alexander
polynomials can still be factored or profiled.

--jobs N (N >= 1) computes the rows of a table on N worker processes, at
most one per CPU; the output is the same as with --jobs 1, and the first
failing row in input order is reported once.

Exit codes: 0 success, 1 domain error (bad polynomial, failed
precondition), 2 usage error.  Only the commands that compute E (evalue,
hartley-set, hartley-check, witness, survey) take --mode; their --json
output carries the bound mode and a rigor flag.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, Optional, TextIO

import click

from .hartley import (
    BoundMode,
    construct_witness,
    hartley_profile,
    hartley_set,
    is_n_hartley,
    normalize_alexander,
)
from .intpoly import IntPoly, format_poly, parse_poly
from .lspace import (
    SurveyTally,
    parallel_map,
    survey_stream,
    write_csv,
    write_json,
)
from .murasugi import murasugi_screen, murasugi_screen_all
from .zfactor import factor_over_z


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


def ingest_csv(path: str, strict: bool = False,
               errors: Optional[list[str]] = None) -> list[KnotRecord]:
    """Read and validate a name,alexander CSV.

    Invalid rows abort with ValueError in strict mode; otherwise they are
    skipped, with one message per row appended to errors when a list is
    supplied.
    """
    try:
        fh = open(path, newline="", encoding="utf-8-sig")
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


@click.group()
def main() -> None:
    """Free-periodicity and periodicity obstructions for knot polynomials."""


# -- per-polynomial subcommands --------------------------------------------

_MODE = click.option(
    "--mode", type=click.Choice(["heuristic", "rigorous"]),
    default="heuristic", show_default=True,
    callback=lambda ctx, param, value: BoundMode(value),
    help="Mahler bound mode")
_INPUT_OPTIONS = (
    click.option("--poly-file", type=click.Path(),
                 help="knot table CSV (name,alexander)"),
    click.option("--poly", help="polynomial expression"),
    click.option("--jobs", type=click.IntRange(min=1), default=1,
                 show_default=True, help="worker processes for batch inputs"),
)


@contextmanager
def _domain_errors() -> Iterator[None]:
    # domain failures exit 1; usage problems keep click's exit 2
    try:
        yield
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)


def _inputs(poly: Optional[str], poly_file: Optional[str]) -> list[tuple[Optional[str], IntPoly]]:
    if (poly is None) == (poly_file is None):
        raise click.UsageError("provide exactly one of --poly or --poly-file")
    if poly is not None:
        return [(None, parse_poly(poly))]
    errors: list[str] = []
    records = ingest_csv(poly_file, False, errors)
    for msg in errors:
        click.echo(f"skipped: {msg}", err=True)
    return [(r.name, r.alexander) for r in records]


def _row(row: Callable[..., tuple[dict, str]], opts: dict,
         item: tuple[Optional[str], IntPoly]) -> tuple[dict, str]:
    name, f = item
    out, line = row(f, **opts)
    prefix = f"{name}: " if name else ""
    return {"name": name, "poly": format_poly(f), **out}, prefix + line


def _per_poly(name: str, summary: str, row: Callable[..., tuple[dict, str]],
              *options, check: Optional[Callable[..., None]] = None) -> None:
    """Register a subcommand that computes one row per input polynomial.

    row(f, **opts) is a module-level function (worker processes unpickle
    it) taking the command's options and returning the JSON row after its
    name and poly keys together with the row's human line.  check(**opts)
    rejects option combinations before any input is read.
    """
    def command(poly, poly_file, jobs, as_json, **opts):
        if check:
            check(**opts)
        with _domain_errors():
            items = _inputs(poly, poly_file)
            rows = parallel_map(partial(_row, row, opts), items, jobs)
        if as_json:
            mode = opts.get("mode")
            head = {} if mode is None else {
                "mode": mode.value, "rigorous": mode is BoundMode.RIGOROUS}
            click.echo(json.dumps({**head, "results": [r for r, _ in rows]},
                                  separators=(",", ":")))
            return
        for _, line in rows:
            click.echo(line)

    for option in reversed((*_INPUT_OPTIONS, *options,
                            click.option("--json", "as_json", is_flag=True))):
        command = option(command)
    main.command(name, help=summary)(command)


def _factor_row(f: IntPoly) -> tuple[dict, str]:
    fp = factor_over_z(f)
    return {"sign": fp.sign, "content": fp.content,
            "factors": [{"coeffs": list(g), "mult": m, "str": format_poly(g)}
                        for g, m in fp.factors]}, str(fp)


def _evalue_row(f: IntPoly, mode: BoundMode) -> tuple[dict, str]:
    profile = hartley_profile(f, mode)
    hs, e = hartley_set(profile), profile.e_gcd_literal
    tail = f"rule {hs.rule}" if hs.rule else f"set {hs}"
    return {"e": e, "hartley": hs.as_json()}, f"E = {e}, {tail}"


def _hartley_set_row(f: IntPoly, mode: BoundMode) -> tuple[dict, str]:
    hs = hartley_set(hartley_profile(f, mode))
    return {"hartley": hs.as_json()}, str(hs)


def _hartley_check_row(f: IntPoly, mode: BoundMode, order: int,
                       knot: bool) -> tuple[dict, str]:
    if knot:
        # a power of t is refused rather than stripped
        if not f or f[0] == 0:
            raise ValueError("Alexander polynomials have nonzero constant term")
        f = normalize_alexander(f)
    if not is_n_hartley(hartley_profile(f, mode), order):
        return {"n": order, "verdict": False}, f"n = {order}: no"
    cert = construct_witness(f, order, mode)
    w = cert.witness
    out = {"n": order, "verdict": True, "witness": list(w), "sign": cert.sign}
    if knot:
        # informational only: witnesses are far from unique
        out.update(witness_unit_at_one=w(1) in (1, -1),
                   witness_palindromic=w.is_palindromic_up_to_sign())
    return out, f"n = {order}: yes, witness {w}, sign {cert.sign:+d}"


def _witness_row(f: IntPoly, mode: BoundMode, order: int) -> tuple[dict, str]:
    cert = construct_witness(f, order, mode)
    return ({"n": order, "witness": list(cert.witness), "sign": cert.sign,
             "verified": cert.verified},
            f"n = {order}: witness {cert.witness}, sign {cert.sign:+d},"
            f" verified {cert.verified}")


def _murasugi_check(period: Optional[int], do_all: bool) -> None:
    if (period is None) == (not do_all):
        raise click.UsageError("provide exactly one of --q or --all")


def _murasugi_row(f: IntPoly, period: Optional[int],
                  do_all: bool) -> tuple[dict, str]:
    hits = murasugi_screen_all(f) if do_all else murasugi_screen(f, period)
    line = "; ".join(f"{h} quotient {h.quotient}" for h in hits)
    return ({"hits": [h.as_json() for h in hits]},
            line or "no hits (screen obstructs the period)")


_per_poly("factor", "Factor polynomials into irreducibles over the integers.",
          _factor_row)
_per_poly("evalue",
          "Report the E invariant (0 for cyclotomic products) per polynomial.",
          _evalue_row, _MODE)
_per_poly("hartley-set",
          "Print all orders n >= 2 passing the free-period factorization test.",
          _hartley_set_row, _MODE)
_per_poly("hartley-check",
          "Decide whether each polynomial is n-Hartley, with a witness.",
          _hartley_check_row, _MODE,
          click.option("--n", "order", type=click.IntRange(min=2),
                       required=True, help="period order to test"),
          click.option("--knot", is_flag=True,
                       help="enforce Alexander-polynomial preconditions first"))
_per_poly("witness", "Construct and verify an order-n witness factorization.",
          _witness_row, _MODE,
          click.option("--n", "order", type=click.IntRange(min=2),
                       required=True))
_per_poly("murasugi", "Run the mod-p periodicity congruence screen.",
          _murasugi_row,
          click.option("--q", "period", type=click.IntRange(min=2),
                       default=None, help="screen one prime-power period"),
          click.option("--all", "do_all", is_flag=True,
                       help="screen every prime power up to deg + 1"),
          check=_murasugi_check)


# -- batch commands --------------------------------------------------------


_PROGRESS_INTERVAL_S = 10


def _progress_printer(stream: TextIO) -> Callable[[int, int], None]:
    """A survey progress(done, total) callback writing to stream.

    It prints done/total, elapsed time and ETA at most once per
    _PROGRESS_INTERVAL_S, and the total elapsed time at completion.
    """
    start = time.monotonic()
    next_at = start

    def progress(done: int, total: int) -> None:
        nonlocal next_at
        now = time.monotonic()
        elapsed = now - start
        if done == total:
            click.echo(f"  {done}/{total} candidates, elapsed {elapsed:.1f}s",
                       file=stream)
        elif now >= next_at:
            next_at = now + _PROGRESS_INTERVAL_S
            eta = (total - done) * elapsed / max(done, 1)
            click.echo(f"  {done}/{total} candidates, {elapsed:7.1f}s elapsed,"
                       f" eta {eta:7.1f}s", file=stream)

    return progress


@main.command("survey")
@_MODE
@click.option("--max-genus", type=int, default=10, show_default=True)
@click.option("--full", is_flag=True,
              help="allow the long run past genus 10")
@click.option("--filters", "filter_names", multiple=True,
              type=click.Choice(["top-gap-1"]))
@click.option("--jobs", type=click.IntRange(min=1), default=1,
              show_default=True)
@click.option("--json", "as_json", is_flag=True,
              help="print the report as JSON")
@click.option("--csv", "as_csv", is_flag=True,
              help="print the report as CSV")
def survey_cmd(mode, max_genus, full, filter_names, jobs, as_json, as_csv):
    """Survey candidate L-space knot polynomials for periodicity escapes.

    Records are written out as they are computed and never all held, so
    memory does not grow with --max-genus.  Progress and ETA go to stderr
    when it is a terminal.
    """
    if max_genus > 10 and not full:
        raise click.UsageError(
            "genus beyond 10 is a long run; pass --full to confirm")
    if max_genus < 1:
        raise click.UsageError("--max-genus must be positive")
    if as_json and as_csv:
        raise click.UsageError("provide at most one of --json or --csv")
    top_gap_1 = "top-gap-1" in filter_names
    progress = _progress_printer(sys.stderr) if sys.stderr.isatty() else None
    records = survey_stream(max_genus, mode, top_gap_1, jobs=jobs,
                            progress=progress)
    if as_json:
        write_json(sys.stdout, records, max_genus, mode, top_gap_1)
        sys.stdout.write("\n")
        return
    if as_csv:
        write_csv(sys.stdout, records, mode, top_gap_1)
        return
    tally = SurveyTally()
    for r in records:
        tally.add(r)
    click.echo(f"mode: {mode.value} (rigorous: {mode is BoundMode.RIGOROUS})")
    click.echo(f"counts: {tally.counts}")
    click.echo(f"hartley exceptional: {len(tally.hartley_exceptional)}")
    for r in tally.hartley_exceptional:
        click.echo(f"  genus {r.candidate.genus}: "
                   f"{format_poly(r.candidate.poly)}")
    for q in tally.hit_qs():
        qual = tally.murasugi_exceptional.get(q, ())
        click.echo(f"murasugi q={q}: {len(qual)} divides-qualified"
                   f" of {tally.bare_hits[q]} bare hits")
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
    with _domain_errors():
        records = ingest_csv(path, strict, errors)
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
