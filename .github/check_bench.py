"""Read the verdict of a benchmark smoke run.

perfbench/run.py exits 0 even when an output check or a pinned hash fails,
so this reads the JSON line each workload prints and exits nonzero unless
there are as many lines as expected and every one has "correct": true.

usage: python3 .github/check_bench.py OUTPUT COUNT

COUNT is an exact number of workload lines, or N+ for at least N.
"""

import json
import sys


def main(path: str, count: str) -> None:
    with open(path) as fp:
        results = [json.loads(line) for line in fp if line.startswith("{")]
    least = count.endswith("+")
    n = int(count.rstrip("+"))
    if len(results) < n or not least and len(results) > n:
        sys.exit(f"{path}: {len(results)} workload lines, expected {count}")
    if not all(r["correct"] is True for r in results):
        sys.exit(f"{path}: benchmark smoke run not correct: {[r.get('correct') for r in results]}")


if __name__ == "__main__":
    main(*sys.argv[1:])
