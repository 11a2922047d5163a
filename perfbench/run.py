"""freeperiod benchmark: each workload measured for a fixed time.

    python3 perfbench/run.py --workload queries --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py            # both gated workloads, one after the other

Run from anywhere inside a checkout that has src/freeperiod.  The run is a
closed loop of passes; each pass is a fresh interpreter (worker.py) that
imports freeperiod, generates a fixed-size batch of inputs from
(seed, pass index), runs it as one single-process client (jobs=1), checks
every output and reports per-operation latencies.  Passes start until
about --seconds have gone by; a pass that outlives its deadline is killed
and its operations count as failed.

--trace 0 prints the end-to-end metrics.  --trace 1 runs each pass twice,
untraced then traced with wrappers on every layer boundary, and prints the
per-layer metrics (medians over traced passes) and the tracing overhead.
Each workload's block of output ends in one JSON line: correct, attempted,
failed, metrics.  See README.md for what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from workloads import BATCH

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# the workloads BENCHMARK.json names; EXTRA runs only when named, because
# its heavy-tailed inputs make its times too seed-dependent to gate on
WORKLOADS = ("survey_g9_rigorous", "queries")
EXTRA = ("survey_g16_sample",)
# what one operation is, singular and plural, in the printed labels
OP_NAME = {"survey_g16_sample": ("candidate", "candidates"),
           "survey_g9_rigorous": ("candidate", "candidates"),
           "queries": ("query", "queries")}

# tail percentiles come from this ladder; TAIL_CAP fixes one percentile per
# workload so the metric means the same thing on a faster or slower commit
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 97.5, 99.0, 99.5, 99.9)
TAIL_CAP = {"survey_g16_sample": 90.0, "survey_g9_rigorous": 97.5,
            "queries": 97.5}

# ops_per_s leaves out this share of the slowest operations, so that one
# rare heavy input does not set a run's throughput
TRIM_PCT = 2.5

MIN_SETUPS = 9          # interpreter starts per run, for the setup_s median
PASS_DEADLINE_S = 60.0  # one pass; rigorous survey(10) would blow this
RUN_LIMIT_S = 160.0     # no pass starts or continues past this
IMPORTTIME_RUNS = 3


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    k = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank pct-th percentile of n."""
    return n - max(1, math.ceil(pct / 100 * n))


def tail_percentile(n: int, cap: float) -> float:
    """Highest ladder percentile <= cap with at least 10 samples beyond it.

    Falls back to the median when n is too small for any (n < 20).
    """
    ok = [p for p in TAIL_LADDER if p <= cap and beyond(n, p) >= 10]
    return ok[-1] if ok else TAIL_LADDER[0]


class Runner:
    """Starts worker.py passes and keeps the run inside its time limit."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.t0 = time.monotonic()
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # starts load bytecode written by the first one, as an installed
        # package does, whatever the caller's environment says
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)

    def remaining(self) -> float:
        return RUN_LIMIT_S - (time.monotonic() - self.t0)

    def spawn(self, pass_index: int, trace: int = 0, setup_only: bool = False):
        """(setup seconds, result dict) or (None, None) on a crash or deadline."""
        cmd = [sys.executable, str(HERE / "worker.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--pass", str(pass_index), "--trace", str(trace)]
        if setup_only:
            cmd.append("--setup-only")
        start = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, cwd=ROOT,
                                env=self.env)
        try:
            out, err = proc.communicate(
                timeout=max(1.0, min(PASS_DEADLINE_S, self.remaining())))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            print(f"pass {pass_index}: killed at its deadline", file=sys.stderr)
            return None, None
        if proc.returncode != 0:
            sys.stderr.write(err[-2000:])
            print(f"pass {pass_index}: worker exited {proc.returncode}",
                  file=sys.stderr)
            return None, None
        res = json.loads(out.strip().splitlines()[-1])
        return res["ready"] - start, res


def importtime(env: dict) -> dict[str, float]:
    """Cumulative import seconds of numpy, freeperiod.cli and freeperiod."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import freeperiod"], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=60, check=True)
    cum = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m:
            cum[m.group(2)] = int(m.group(1)) / 1e6
    return {"setup.numpy_import_s": cum["numpy"],
            "setup.cli_import_s": cum["freeperiod.cli"],
            "setup.package_import_s": cum["freeperiod"]}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + EXTRA + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "freeperiod" / "__init__.py").is_file():
        print(f"error: no freeperiod sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        result = run_workload(workload, args.seed, args.seconds, args.trace)
        if result is None:
            print("error: the worker cannot import freeperiod", file=sys.stderr)
            return 2
        print(json.dumps(result))
    return 0


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict | None:
    """Measure one workload; the result object, or None if nothing can run."""
    runner = Runner(workload, seed)
    # also writes the bytecode cache, so no measured start compiles it
    if runner.spawn(0, setup_only=True)[1] is None:
        return None

    batch = BATCH[workload]
    setups: list[float] = []
    plain: list[dict] = []
    pairs: list[tuple[dict, dict]] = []  # (untraced, traced) on one input
    attempted = failed = 0
    problems: list[str] = []

    def record(setup, res):
        nonlocal attempted, failed
        if res is None:
            attempted += batch
            failed += batch
            problems.append("pass lost to a crash or its deadline")
            return None
        setups.append(setup)
        attempted += res["attempted"]
        failed += res["failed"]
        problems.extend(res["problems"])
        return res

    # start another pass while at least half of one, judged by the last,
    # fits in the time left, so runs end near --seconds on either side
    start = time.monotonic()
    k = 0
    last = 0.0
    while (k == 0 or time.monotonic() - start + last / 2 < seconds) \
            and runner.remaining() > 0:
        t = time.monotonic()
        res = record(*runner.spawn(k))
        if res is not None:
            plain.append(res)
        if trace and res is not None and runner.remaining() > 0:
            res_t = record(*runner.spawn(k, trace=1))
            if res_t is not None:
                pairs.append((res, res_t))
        last = time.monotonic() - t
        k += 1
    while len(setups) < MIN_SETUPS and runner.remaining() > 0:
        setup, res = runner.spawn(k, setup_only=True)
        if res is not None:
            setups.append(setup)
        k += 1

    for p in problems[:10]:
        print(f"problem: {p}", file=sys.stderr)
    correct = failed == 0 and bool(plain) and (bool(pairs) or not trace)
    op, ops = OP_NAME[workload]
    print(f"workload {workload}, seed {seed}: passes of {batch} "
          f"{ops}: {len(plain)}, interpreter starts: {len(setups)}")
    print(f"  error_rate {failed / max(attempted, 1):.4f} "
          f"({failed} failed of {attempted}), outputs "
          f"{'checked' if correct else 'FAILED'}")
    if not plain or (trace and not pairs):
        metrics = {}
    elif trace:
        metrics = layer_summary(pairs, runner.env)
    else:
        metrics = end_to_end(workload, plain, setups, op, ops)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def trimmed_rate(lat: list[float], between: float,
                 trim_pct: float = TRIM_PCT) -> float:
    """Operations per second over all but the slowest trim_pct % of them.

    between is the time spent outside operations (for a survey: the survey
    loop, enumeration, report and JSON); the kept operations carry their share.
    """
    keep = sorted(lat)[:len(lat) - int(len(lat) * trim_pct / 100)]
    return len(keep) / (sum(keep) + between * len(keep) / len(lat))


def end_to_end(workload: str, plain: list[dict], setups: list[float],
               op: str, ops: str) -> dict:
    lat = sorted(x for r in plain for x in r["latencies_s"])
    between = sum(r["work_s"] - sum(r["latencies_s"]) for r in plain)
    pct = tail_percentile(len(lat), TAIL_CAP[workload])
    values = {
        "setup_s": (statistics.median(setups), "s", "setup_s"),
        "ops_per_s": (trimmed_rate(lat, between), "1/s", f"{ops}_per_s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms", f"{op}_p50_ms"),
        "op_tail_ms": (nearest_rank(lat, pct) * 1e3, "ms", f"{op}_tail_ms"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in plain) / 1024,
                        "MB", "peak_rss_mb"),
    }
    for key, (value, unit, label) in values.items():
        note = ""
        if key == "op_tail_ms":
            note = (f"  (p{pct:g} of {len(lat)} samples, "
                    f"{beyond(len(lat), pct)} beyond)")
        elif key == "setup_s":
            note = f"  (median of {len(setups)} interpreter starts)"
        elif key == "ops_per_s":
            note = f"  ({len(plain)} passes, slowest {TRIM_PCT:g} % left out)"
        print(f"  {label:<22} {value:12.4f} {unit}{note}")
    return {key: {"value": value, "unit": unit}
            for key, (value, unit, _) in values.items()}


def layer_summary(pairs: list[tuple[dict, dict]], env: dict) -> dict:
    traced = [t for _, t in pairs]
    metrics = {}
    for name in traced[0]["layers"]:
        metrics[name] = statistics.median(r["layers"][name] for r in traced)
    runs = [importtime(env) for _ in range(IMPORTTIME_RUNS)]
    for name in runs[0]:
        metrics[name] = statistics.median(r[name] for r in runs)
    metrics["trace.overhead_ratio"] = statistics.median(
        t["work_s"] / p["work_s"] for p, t in pairs)
    for name, value in metrics.items():
        print(f"  {name:<36} {value:14.6f} {layers.unit(name)}")
    return {name: {"value": value, "unit": layers.unit(name)}
            for name, value in metrics.items()}


if __name__ == "__main__":
    sys.exit(main())
