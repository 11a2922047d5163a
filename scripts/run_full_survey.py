#!/usr/bin/env python3
"""Run the candidate survey at full scale and write JSON/CSV reports.

The genus-16 run touches all 65535 candidates and takes a while on one
core; progress goes to stderr so redirected report output stays clean.
"""

import argparse
import sys
import time

from freeperiod.hartley import BoundMode
from freeperiod.lspace import FilterConfig, survey


def positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-genus", type=int, default=16)
    ap.add_argument("--mode", choices=["heuristic", "rigorous"],
                    default="heuristic")
    ap.add_argument("--jobs", type=positive_int, default=1)
    ap.add_argument("--top-gap-1", action="store_true",
                    help="restrict to candidates whose top exponent gap is 1")
    ap.add_argument("--json", metavar="PATH", help="write the JSON report here")
    ap.add_argument("--csv", metavar="PATH", help="write the CSV report here")
    args = ap.parse_args()

    start = time.time()
    last = [0.0]

    def progress(done: int, total: int) -> None:
        now = time.time()
        if now - last[0] >= 10 or done == total:
            last[0] = now
            rate = done / max(now - start, 1e-9)
            eta = (total - done) / max(rate, 1e-9)
            print(f"  {done}/{total} candidates, {now - start:7.1f}s elapsed, "
                  f"eta {eta:7.1f}s", file=sys.stderr, flush=True)

    report = survey(args.max_genus, BoundMode(args.mode),
                    FilterConfig(top_gap_1=args.top_gap_1),
                    jobs=args.jobs, progress=progress)

    if args.json:
        with open(args.json, "w") as fh:
            fh.write(report.to_json())
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(report.to_csv())

    print(f"elapsed: {time.time() - start:.1f}s")
    print("counts:", report.counts)
    print("hartley exceptional:",
          [(r.candidate.genus, r.candidate.exponents)
           for r in report.hartley_exceptional])
    for q in report.hit_qs():
        qualified = report.murasugi_exceptional(q)
        bare = report.murasugi_exceptional(q, require_divides=False)
        print(f"murasugi q={q}: {len(qualified)} divides-qualified "
              f"of {len(bare)} bare hits")
        for r in qualified:
            print(f"  genus {r.candidate.genus}: {r.candidate.exponents}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
