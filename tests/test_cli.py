"""End-to-end command line behavior through click's test runner."""

import hashlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from freeperiod import survey
from freeperiod.cli import _progress_printer, main
from freeperiod.lspace import write_csv

FIG8 = "t^2 - 3*t + 1"
TREFOIL = "t^2 - t + 1"
K14 = "4*t^6 - 17*t^5 + 38*t^4 - 51*t^3 + 38*t^2 - 17*t + 4"
README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture()
def runner():
    return CliRunner()


@pytest.fixture()
def table(tmp_path):
    path = tmp_path / "knots.csv"
    path.write_text(
        "name,alexander\n"
        "trefoil,\"1,-1,1\"\n"
        "figure8,\"1,-3,1\"\n"
        "bad,\"1,2\"\n"
        "unsym,\"3,-1,-1\"\n",
        encoding="utf-8")
    return str(path)


# -- single-polynomial commands --------------------------------------------


def test_hartley_set_plain(runner):
    res = runner.invoke(main, ["hartley-set", "--poly", FIG8])
    assert res.exit_code == 0
    assert res.output == "{2}\n"


def test_hartley_set_json_rule(runner):
    res = runner.invoke(main, ["hartley-set", "--poly", TREFOIL, "--json"])
    payload = json.loads(res.output)
    assert payload["mode"] == "heuristic" and payload["rigorous"] is False
    (row,) = payload["results"]
    assert row["hartley"]["finite"] is False
    assert row["hartley"]["rule"] == "gcd(n, 6) = 1"
    assert 5 in row["hartley"]["members"]
    assert 2 not in row["hartley"]["members"]


def test_evalue_human_lines(runner):
    res = runner.invoke(main, ["evalue", "--poly", TREFOIL])
    assert res.output == "E = 0, rule gcd(n, 6) = 1\n"
    res = runner.invoke(main, ["evalue", "--poly", FIG8])
    assert res.output == "E = 2, set {2}\n"


def test_factor_human_and_json(runner):
    res = runner.invoke(main, ["factor", "--poly", K14])
    assert res.exit_code == 0
    assert res.output == ("1 * (t^3 - 3*t^2 + 5*t - 4)"
                          " * (4*t^3 - 5*t^2 + 3*t - 1)\n")
    res = runner.invoke(main, ["factor", "--poly", K14, "--json"])
    (row,) = json.loads(res.output)["results"]
    assert row["sign"] == 1 and row["content"] == 1
    assert row["factors"][0] == {"coeffs": [-4, 5, -3, 1], "mult": 1,
                                 "str": "t^3 - 3*t^2 + 5*t - 4"}


def test_coefficient_list_polynomials_parse(runner):
    res = runner.invoke(main, ["evalue", "--poly", "1,-3,1"])
    assert res.exit_code == 0 and res.output.startswith("E = 2")


def test_witness_success_and_refusal(runner):
    res = runner.invoke(main, ["witness", "--poly", FIG8, "--n", "2"])
    assert res.exit_code == 0
    assert res.output == "n = 2: witness t^2 - t - 1, sign +1, verified True\n"
    res = runner.invoke(main, ["witness", "--poly", FIG8, "--n", "3"])
    assert res.exit_code == 1
    assert "error:" in res.stderr and "not 3-Hartley" in res.stderr


def test_hartley_check_paths(runner):
    res = runner.invoke(main, ["hartley-check", "--poly", FIG8, "--n", "4"])
    assert res.output == "n = 4: no\n"
    res = runner.invoke(main, ["hartley-check", "--poly", FIG8, "--n", "2",
                               "--knot", "--json"])
    (row,) = json.loads(res.output)["results"]
    assert row["verdict"] is True and row["witness"] == [-1, -1, 1]
    assert row["sign"] == 1 and row["witness_palindromic"] is False
    res = runner.invoke(main, ["hartley-check", "--poly", "t^2 - 2",
                               "--n", "2", "--knot"])
    assert res.exit_code == 1 and "palindromic" in res.stderr


def test_murasugi_single_and_all(runner):
    res = runner.invoke(main, ["murasugi", "--poly", FIG8, "--q", "2"])
    assert res.output == ("q=2 lam=3 shift=0 sign=+1 divides=True"
                          " quotient 1\n")
    res = runner.invoke(main, ["murasugi", "--poly", FIG8, "--all", "--json"])
    (row,) = json.loads(res.output)["results"]
    assert [h["q"] for h in row["hits"]] == [2]
    res = runner.invoke(main, ["murasugi", "--poly", TREFOIL, "--q", "7"])
    assert res.output == "no hits (screen obstructs the period)\n"


def test_murasugi_domain_errors(runner):
    res = runner.invoke(main, ["murasugi", "--poly", TREFOIL, "--q", "6"])
    assert res.exit_code == 1 and "not a prime power" in res.stderr
    res = runner.invoke(main, ["murasugi", "--poly", "t^2 + 1", "--q", "2"])
    assert res.exit_code == 1 and "evaluate to +-1" in res.stderr
    res = runner.invoke(main, ["murasugi", "--poly", TREFOIL,
                               "--q", str(10**25)])
    assert res.exit_code == 1 and "too large" in res.stderr


# -- usage errors ----------------------------------------------------------


def test_usage_errors_exit_2(runner, table):
    assert runner.invoke(main, ["murasugi", "--poly", FIG8]).exit_code == 2
    assert runner.invoke(
        main, ["murasugi", "--poly", FIG8, "--q", "2", "--all"]).exit_code == 2
    assert runner.invoke(main, ["factor"]).exit_code == 2
    assert runner.invoke(
        main, ["factor", "--poly", FIG8, "--poly-file", table]).exit_code == 2
    assert runner.invoke(main, ["survey", "--max-genus", "11"]).exit_code == 2
    assert runner.invoke(main, ["survey", "--max-genus", "0"]).exit_code == 2


def test_bad_polynomial_is_a_domain_error(runner):
    res = runner.invoke(main, ["factor", "--poly", "t^^2"])
    assert res.exit_code == 1
    assert res.stderr.startswith("error:")


# -- table input -----------------------------------------------------------


def test_poly_file_names_outputs_and_reports_skips(runner, table):
    res = runner.invoke(main, ["evalue", "--poly-file", table])
    assert res.exit_code == 0
    lines = res.stdout.splitlines()
    assert lines[0] == "trefoil: E = 0, rule gcd(n, 6) = 1"
    assert lines[1] == "figure8: E = 2, set {2}"
    assert len(lines) == 2
    assert "row 4: value at 1 is 3, not +-1" in res.stderr
    assert "row 5: not palindromic up to sign" in res.stderr


@pytest.mark.parametrize("command", [
    ["factor"], ["evalue"], ["hartley-set"], ["hartley-check", "--n", "2"],
    ["hartley-check", "--n", "2", "--knot"], ["witness", "--n", "2"],
    ["murasugi", "--all"], ["witness", "--n", "3"],
], ids=lambda c: "_".join(a.lstrip("-") for a in c))
@pytest.mark.parametrize("as_json", [[], ["--json"]], ids=["human", "json"])
def test_poly_file_jobs_fanout_matches_serial(runner, table, command, as_json):
    args = command + ["--poly-file", table] + as_json
    serial = runner.invoke(main, args + ["--jobs", "1"])
    fanned = runner.invoke(main, args + ["--jobs", "2"])
    assert (serial.exit_code, serial.stdout, serial.stderr) == (
        fanned.exit_code, fanned.stdout, fanned.stderr)
    assert serial.stdout or serial.exit_code == 1


def test_failing_rows_report_one_error_at_any_jobs(runner, table):
    # neither table knot is 3-Hartley: the first failing row is reported once
    for jobs in ("1", "2", "3"):
        res = runner.invoke(main, ["witness", "--n", "3", "--poly-file", table,
                                   "--jobs", jobs])
        assert res.exit_code == 1 and res.stdout == ""
        errors = [ln for ln in res.stderr.splitlines() if ln.startswith("error:")]
        assert errors == ["error: not 3-Hartley; no witness exists"]


@pytest.mark.parametrize("command", [["factor", "--poly", FIG8],
                                     ["survey", "--max-genus", "2"]],
                         ids=["factor", "survey"])
@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(runner, command, jobs):
    res = runner.invoke(main, command + ["--jobs", jobs])
    assert res.exit_code == 2
    assert "--jobs" in res.stderr


@pytest.mark.parametrize("command", [["hartley-check", "--poly", FIG8],
                                     ["witness", "--poly", FIG8]],
                         ids=["hartley-check", "witness"])
@pytest.mark.parametrize("order", ["1", "0"])
def test_n_below_two_is_a_usage_error(runner, command, order):
    res = runner.invoke(main, command + ["--n", order])
    assert res.exit_code == 2
    assert "--n" in res.stderr


@pytest.mark.parametrize("period", ["1", "0", "-3"])
def test_murasugi_q_below_two_is_a_usage_error(runner, period):
    res = runner.invoke(main, ["murasugi", "--poly", FIG8, "--q", period])
    assert res.exit_code == 2
    assert "--q" in res.stderr


def test_ingest_human_json_and_strict(runner, table):
    res = runner.invoke(main, ["ingest", table])
    assert res.exit_code == 0
    assert res.stdout == ("trefoil: t^2 - t + 1\n"
                          "figure8: t^2 - 3*t + 1\n")
    assert "2 records, 2 skipped" in res.stderr
    res = runner.invoke(main, ["ingest", table, "--json"])
    payload = json.loads(res.stdout)
    assert payload["skipped"] == 2
    assert payload["records"][0]["name"] == "trefoil"
    assert payload["records"][0]["alexander"] == [1, -1, 1]
    assert payload["records"][0]["source"].endswith(":2")
    res = runner.invoke(main, ["ingest", table, "--strict"])
    assert res.exit_code == 1 and "row 4" in res.stderr


def test_ingest_missing_file_and_header(runner, tmp_path):
    res = runner.invoke(main, ["ingest", str(tmp_path / "nope.csv")])
    assert res.exit_code == 1 and "cannot read" in res.stderr
    bare = tmp_path / "bare.csv"
    bare.write_text("a,b\n1,2\n", encoding="utf-8")
    res = runner.invoke(main, ["ingest", str(bare)])
    assert res.exit_code == 1 and "header must contain" in res.stderr


def test_table_with_a_byte_order_mark_reads_like_one_without(runner, tmp_path):
    # spreadsheet exports often start a UTF-8 file with a byte-order mark
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfname,alexander\ntrefoil,t^2-t+1\n")
    res = runner.invoke(main, ["ingest", str(path)])
    assert res.exit_code == 0 and res.stdout == "trefoil: t^2 - t + 1\n"
    res = runner.invoke(main, ["factor", "--poly-file", str(path)])
    assert res.exit_code == 0 and res.stdout == "trefoil: 1 * (t^2 - t + 1)\n"


def _readme_sessions():
    """(argv, output) for each `$ freeperiod ...` session of the README's
    Command line block."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line.*?```text\n(.*?)```", text, re.S).group(1)
    sessions = []
    for chunk in block.strip().split("\n\n"):
        command, *output = chunk.split("\n")
        assert command.startswith("$ freeperiod ")
        sessions.append((shlex.split(command)[2:], "".join(ln + "\n" for ln in output)))
    return sessions


def test_readme_command_line_examples(runner, tmp_path):
    sessions = _readme_sessions()
    assert len(sessions) == 9
    with runner.isolated_filesystem(temp_dir=tmp_path):
        Path("knots.csv").write_text("name,alexander\ntrefoil,t^2 - t + 1\n"
                                     "figure8,t^2 - 3t + 1\n", encoding="utf-8")
        for argv, output in sessions:
            res = runner.invoke(main, argv)
            assert (res.exit_code, res.output) == (0, output), argv


def test_readme_csv_recipe_turns_the_json_report_into_the_survey_csv(
        runner, tmp_path, monkeypatch):
    text = README.read_text(encoding="utf-8")
    (recipe,) = [block for block in re.findall(r"```python\n(.*?)```", text, re.S)
                 if "read_report" in block]
    res = runner.invoke(main, ["survey", "--max-genus", "6", "--json"])
    assert res.exit_code == 0
    (tmp_path / "g16.json").write_text(res.output, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    exec(recipe, {})
    res = runner.invoke(main, ["survey", "--max-genus", "6", "--csv"])
    assert res.exit_code == 0
    assert (tmp_path / "g16.csv").read_text(encoding="utf-8") == res.output


# -- mode plumbing ---------------------------------------------------------


def test_mode_flag_only_where_a_bound_is_computed(runner):
    res = runner.invoke(main, ["evalue", "--poly", FIG8, "--json",
                               "--mode", "rigorous"])
    payload = json.loads(res.output)
    assert payload["mode"] == "rigorous" and payload["rigorous"] is True
    res = runner.invoke(main, ["factor", "--poly", FIG8, "--mode", "rigorous"])
    assert res.exit_code == 2
    res = runner.invoke(main, ["factor", "--poly", FIG8, "--json"])
    assert list(json.loads(res.output)) == ["results"]


# -- large integers --------------------------------------------------------

M61 = str(2**61 - 1)  # a prime: trial division would never finish
T_TREFOIL = "t^3 - t^2 + t"


@pytest.mark.parametrize("args, code, out", [
    (["hartley-check", "--poly", FIG8, "--n", M61], 0, f"n = {M61}: no\n"),
    (["hartley-check", "--poly", TREFOIL, "--n", M61], 0,
     f"n = {M61}: yes, witness t^2 - t + 1, sign +1\n"),
    (["witness", "--poly", T_TREFOIL, "--n", M61], 0,
     f"n = {M61}: witness t^3 - t^2 + t, sign +1, verified True\n"),
    (["witness", "--poly", T_TREFOIL, "--n", "100000007"], 0,
     "n = 100000007: witness t^3 - t^2 + t, sign +1, verified True\n"),
    (["murasugi", "--poly", FIG8, "--q", M61], 0,
     "no hits (screen obstructs the period)\n"),
    (["evalue", "--poly", f"t - {M61}"], 0, "E = 1, set {}\n"),
    (["witness", "--poly", TREFOIL, "--n", M61], 0,
     f"n = {M61}: witness t^2 - t + 1, sign +1, verified True\n"),
    (["witness", "--poly", TREFOIL, "--n", "100000007"], 0,
     "n = 100000007: witness t^2 - t + 1, sign +1, verified True\n"),
    (["hartley-check", "--poly", T_TREFOIL, "--n", M61], 0,
     f"n = {M61}: yes, witness t^3 - t^2 + t, sign +1\n"),
])
def test_large_integer_inputs_end_promptly(runner, args, code, out):
    start = time.monotonic()
    res = runner.invoke(main, args)
    assert time.monotonic() - start < 1.0
    assert res.exit_code == code
    assert res.stdout == out if code == 0 else out in res.stderr


# -- survey ----------------------------------------------------------------


def test_survey_json_counts_and_filters(runner):
    res = runner.invoke(main, ["survey", "--max-genus", "3", "--json"])
    payload = json.loads(res.output)
    assert payload["aggregates"]["candidates"] == 7
    assert payload["config"]["rigorous"] is False
    assert payload["config"]["filters"]["top_gap_1"] is False
    res = runner.invoke(main, ["survey", "--max-genus", "4", "--json",
                               "--filters", "top-gap-1"])
    payload = json.loads(res.output)
    assert payload["aggregates"]["candidates"] == 8
    assert payload["config"]["filters"]["top_gap_1"] is True


def test_survey_human_summary(runner):
    res = runner.invoke(main, ["survey", "--max-genus", "2"])
    lines = res.output.splitlines()
    assert lines[0] == "mode: heuristic (rigorous: False)"
    assert lines[1] == ("counts: {'candidates': 3, 'cyclotomic_products': 3,"
                        " 'noncyclotomic': 0}")
    assert lines[2] == "hartley exceptional: 0"


def test_survey_seed_and_jobs_do_not_change_output(runner):
    base = runner.invoke(main, ["survey", "--max-genus", "3", "--json"])
    forked = runner.invoke(main, ["survey", "--max-genus", "3", "--json",
                                  "--jobs", "2"])
    assert base.output == forked.output


def test_survey_csv_prints_the_report_csv(runner):
    for jobs in ("1", "2"):
        res = runner.invoke(main, ["survey", "--max-genus", "4", "--csv",
                                   "--jobs", jobs])
        assert res.exit_code == 0
        rep, out = survey(4), io.StringIO()
        write_csv(out, rep.records, rep.mode, rep.top_gap_1)
        assert res.output == out.getvalue()


def test_streamed_survey_json_keeps_the_pinned_genus_9_hash(runner):
    # the command line writes records as they arrive, through a pool at
    # --jobs 2; the bytes are those of survey(9, RIGOROUS).to_json(), which
    # tests/test_lspace.py and the benchmark pin
    for jobs in ("1", "2"):
        res = runner.invoke(main, ["survey", "--max-genus", "9", "--mode",
                                   "rigorous", "--json", "--jobs", jobs])
        assert res.exit_code == 0, res.output
        assert res.output.endswith("}\n")
        digest = hashlib.sha256(res.output[:-1].encode()).hexdigest()
        assert digest == ("a6dc799bb62328ab0ca1847d2abd9145"
                          "bb87d0993a4d584d6de47775198d6074")


def test_top_gap_1_survey_json_keeps_the_pinned_hash(runner):
    # the bytes of survey(8, RIGOROUS, top_gap_1=True).to_json(), pinned
    # in tests/test_lspace.py
    res = runner.invoke(main, ["survey", "--max-genus", "8", "--mode",
                               "rigorous", "--filters", "top-gap-1", "--json"])
    assert res.exit_code == 0, res.output
    digest = hashlib.sha256(res.output[:-1].encode()).hexdigest()
    assert digest == ("258d2d0c73f7404fa628b02906334ddf"
                      "28f40529d7275ebb295a1009b3fb31b5")


def test_survey_csv_and_json_together_is_a_usage_error(runner):
    res = runner.invoke(main, ["survey", "--max-genus", "2", "--csv", "--json"])
    assert res.exit_code == 2


def test_progress_printer_throttles_and_reports_completion(monkeypatch):
    now = [100.0]
    monkeypatch.setattr(time, "monotonic", lambda: now[0])
    out = io.StringIO()
    progress = _progress_printer(out)
    for done, t in [(10, 101.0), (20, 105.0), (30, 110.9), (40, 111.0),
                    (50, 115.0), (60, 122.0)]:
        now[0] = t
        progress(done, 100)
    now[0] = 125.0
    progress(100, 100)
    assert out.getvalue().splitlines() == [
        "  10/100 candidates,     1.0s elapsed, eta     9.0s",
        "  40/100 candidates,    11.0s elapsed, eta    16.5s",
        "  60/100 candidates,    22.0s elapsed, eta    14.7s",
        "  100/100 candidates, elapsed 25.0s",
    ]


def test_python_dash_m_entry_point_matches_across_jobs():
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(
               filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    outs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "freeperiod", "survey", "--max-genus", "3",
             "--json", "--jobs", jobs],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["aggregates"]["candidates"] == 7


# -- pinned transcript -----------------------------------------------------

_TRANSCRIPT_POLYS = [
    ["--poly", FIG8],  # 2-Hartley, one Murasugi hit
    ["--poly", "t^4 - t^3 + t^2 - t + 1"],  # Phi_10: E = 0, a rule
    ["--poly", "t^6 - t^4 + t^3 - t^2 + 1"],  # no Murasugi hit at any q
    ["--poly", K14],  # two factors, a hit with a nonconstant quotient
]
_TRANSCRIPT_COMMANDS = [
    ["factor"], ["evalue"], ["evalue", "--mode", "rigorous"], ["hartley-set"],
    ["hartley-check", "--n", "2"], ["hartley-check", "--n", "3"],
    ["hartley-check", "--n", "2", "--knot"], ["witness", "--n", "2"],
    ["murasugi", "--all"], ["murasugi", "--q", "2"], ["murasugi", "--q", "5"],
]
# factor's unit, content and multiplicities: -2 (t^2 - 3t + 1)^2, and -6
_TRANSCRIPT_FACTOR_ONLY = [
    ["factor", "--poly", "-2*t^4 + 12*t^3 - 22*t^2 + 12*t - 2"],
    ["factor", "--poly", "-6"],
]


def test_per_polynomial_commands_keep_their_pinned_transcript(
        runner, table, monkeypatch):
    # every per-polynomial command, human and --json, over the table and a
    # few single polynomials: the hash pins every printed form
    monkeypatch.chdir(os.path.dirname(table))
    calls = [command + source
             for command in _TRANSCRIPT_COMMANDS
             for source in [["--poly-file", "knots.csv"], *_TRANSCRIPT_POLYS]]
    parts = []
    for args in calls + _TRANSCRIPT_FACTOR_ONLY:
        for as_json in ([], ["--json"]):
            res = runner.invoke(main, args + as_json)
            parts.append("\n".join([shlex.join(args + as_json),
                                    str(res.exit_code), res.stdout, res.stderr]))
    text = "\n\x00\n".join(parts)
    assert "E = 2, set {2}" in text and "quotient t^2 + t + 1" in text
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == ("962fd9cbf0850c9ca14a36ccb4266371"
                      "3f9366fa29ada02a5d4a4539bf2e154f")
