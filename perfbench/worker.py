"""One benchmark pass in a fresh interpreter; run.py starts it.

    python3 perfbench/worker.py --workload W --seed S --pass K --trace 0|1
    python3 perfbench/worker.py --workload W --seed S --pass K --setup-only

Imports freeperiod from the checkout's src/, generates the pass's inputs,
and records time.monotonic() at that point as the end of set-up.  Then it
runs the batch, checks every output and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pass", dest="pass_index", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import freeperiod

    if Path(freeperiod.__file__).resolve().parent != SRC / "freeperiod":
        print(f"freeperiod imported from {freeperiod.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.pass_index)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    result = workloads.run_pass(args.workload, inputs, bool(args.trace))
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    attempted, failed, digest, problems = workloads.check_pass(
        args.workload, inputs, result,
        workloads.pinned_digest(args.workload, args.seed, args.pass_index))
    print(json.dumps({
        "ready": ready,
        "latencies_s": result.latencies_s,
        "work_s": result.work_s,
        "maxrss_kb": maxrss_kb,
        "attempted": attempted,
        "failed": failed,
        "sha256": digest,
        "problems": problems[:20],
        "layers": result.layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
