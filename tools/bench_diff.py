#!/usr/bin/env python3
"""Compare two bench JSON records and print per-metric ratios.

The benches emit flat single-object JSON records (`bench::JsonReport`, see
docs/benchmarks.md) so the perf trajectory survives across PRs. This tool
diffs two of them — typically the committed record in bench/results/
against a freshly produced build/BENCH_*.json — and prints, per shared
numeric key, old value, new value and new/old ratio. String keys are
compared for equality; keys present on one side only are listed so schema
drift is visible.

Ratios are informational by default (CI runs the benches in quick mode, so
absolute times differ from the committed full-size records; the *ratio*
keys are the comparable ones). With --fail-above R, exit 1 if any numeric
key whose name ends in "ratio" grew by more than the factor R, or if a
"ratio" key of the old record is missing from the new one — that turns the
tool into a regression gate on the scale-free metrics that a bench cannot
pass by no longer emitting one. Retiring a ratio key means removing it
from the committed record in the same change.

Usage: python3 tools/bench_diff.py OLD.json NEW.json [--fail-above R]
"""

import argparse
import json
import sys
from pathlib import Path


def load(path: str) -> dict:
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        sys.exit(f"bench_diff: cannot read {path}: {error}")
    if not isinstance(record, dict):
        sys.exit(f"bench_diff: {path} is not a flat JSON object")
    return record


def is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", help="baseline record (e.g. bench/results/BENCH_e10.json)")
    parser.add_argument("new", help="fresh record (e.g. build/BENCH_e10.json)")
    parser.add_argument(
        "--fail-above",
        type=float,
        default=None,
        metavar="R",
        help="exit 1 if any *ratio key grew by more than this factor or "
        "is missing from the new record",
    )
    args = parser.parse_args()

    old, new = load(args.old), load(args.new)
    print(f"bench_diff: {Path(args.old).name} (old) vs {Path(args.new).name} (new)")

    shared = [k for k in old if k in new]
    width = max((len(k) for k in shared), default=3)
    regressions = []
    for key in shared:
        a, b = old[key], new[key]
        if is_number(a) and is_number(b):
            ratio = b / a if a else float("inf") if b else 1.0
            print(f"  {key:<{width}}  {a:>14.6g}  ->  {b:>14.6g}   x{ratio:.3f}")
            if (
                args.fail_above is not None
                and key.endswith("ratio")
                and a > 0
                and ratio > args.fail_above
            ):
                regressions.append((key, ratio))
        elif a != b:
            print(f"  {key:<{width}}  {a!r}  ->  {b!r}   (changed)")

    missing = []
    for key in old:
        if key not in new:
            print(f"  {key}: only in old record")
            if args.fail_above is not None and key.endswith("ratio"):
                missing.append(key)
    for key in new:
        if key not in old:
            print(f"  {key}: only in new record")

    for key, ratio in regressions:
        print(f"bench_diff: REGRESSION {key} grew x{ratio:.3f} "
              f"(> {args.fail_above})", file=sys.stderr)
    for key in missing:
        print(f"bench_diff: MISSING {key} is gated in the old record but absent "
              f"from the new one", file=sys.stderr)
    return 1 if regressions or missing else 0


if __name__ == "__main__":
    sys.exit(main())
