#!/usr/bin/env python3
"""Compare two google-benchmark JSON files and fail on throughput regressions.

Usage: bench_compare.py BASELINE.json CURRENT.json [--threshold 0.15]
                        [--series fused,simd]

The guarded series are the production kernels (benchmark labels containing
"fused" or "simd" by default); the reference/oracle series are informational
only, so a slow oracle never blocks a PR. Benchmarks are matched by
name+label; entries present on only one side are reported and skipped (new
benchmarks have no baseline yet, retired ones no longer matter) — but when
the baseline holds guarded series and not one of them matches, the gate
compared nothing and exits 1 instead of passing vacuously. The metric
is bytes_per_second when both sides report it, else 1/real_time. Entries
that carry one of the LOWER_IS_BETTER side metrics — "p99_ms" tail latency
(the rispard serving sweep) or the "load_ms"/"reload_ms" bundle timings (the
BENCH_bundle_load cold-start sweep) — are additionally gated on each, with
the regression direction flipped, at the same threshold: a serving path can
lose a PR on p99 growth even when aggregate throughput held, and the
zero-copy loader can lose one on load-time growth.

A missing or unreadable baseline file exits 0 with a note: the very first CI
run (and any run after artifact expiry) has nothing to compare against —
this script is the gate only once a trajectory exists.
"""

import argparse
import json
import sys

# Per-entry side metrics gated lower-is-better (latency-shaped), unlike the
# higher-is-better throughput headline. Benchmark counters surface as
# top-level fields of each entry in google-benchmark JSON, so adding a
# counter with one of these names to any benchmark opts it into the gate.
LOWER_IS_BETTER = ("p99_ms", "load_ms", "reload_ms")


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return error


def series_key(entry):
    # name already encodes the Args; the label carries the human series tag
    # (e.g. "independent/simd"), which distinguishes relabeled runs.
    return (entry.get("name", ""), entry.get("label", ""))


def metric(entry):
    """Higher-is-better throughput figure for one benchmark entry."""
    bps = entry.get("bytes_per_second")
    if bps:
        return float(bps), "bytes_per_second"
    real = float(entry.get("real_time", 0.0))
    return (1.0 / real if real > 0 else 0.0), "1/real_time"


def guarded(entry, tags):
    haystack = (entry.get("label", "") + " " + entry.get("name", "")).lower()
    return any(tag in haystack for tag in tags)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.15,
                        help="maximum allowed fractional throughput drop "
                             "in a guarded series (default 0.15)")
    parser.add_argument("--series", default="fused,simd",
                        help="comma-separated substrings of guarded series "
                             "labels (default: fused,simd)")
    args = parser.parse_args()
    tags = [tag.strip().lower() for tag in args.series.split(",") if tag.strip()]

    baseline = load(args.baseline)
    if isinstance(baseline, Exception):
        print(f"bench_compare: no usable baseline ({args.baseline}: {baseline}); "
              "nothing to compare — first run records the trajectory.")
        return 0
    current = load(args.current)
    if isinstance(current, Exception):
        print(f"bench_compare: cannot read current results {args.current}: "
              f"{current}", file=sys.stderr)
        return 2

    old = {series_key(e): e for e in baseline.get("benchmarks", [])}
    new = {series_key(e): e for e in current.get("benchmarks", [])}

    regressions = []
    compared = 0
    for key, entry in sorted(new.items()):
        if not guarded(entry, tags):
            continue
        if key not in old:
            print(f"  new (no baseline): {key[0]} [{key[1]}]")
            continue
        new_value, how = metric(entry)
        old_value, old_how = metric(old[key])
        if how != old_how:
            # A bench gained/lost SetBytesProcessed: the ratio would compare
            # different units. Treat as a fresh baseline, not a result.
            print(f"  metric changed ({old_how} -> {how}): {key[0]} [{key[1]}]")
            continue
        if old_value <= 0:
            continue
        compared += 1
        change = new_value / old_value - 1.0
        marker = "REGRESSION" if change < -args.threshold else "ok"
        print(f"  {marker:>10}: {key[0]} [{key[1]}] {change:+.1%} ({how})")
        if change < -args.threshold:
            regressions.append((key, change))

        # Lower-is-better side metrics, where reported (tail latency, bundle
        # load/reload timings): the regression direction flips relative to
        # throughput.
        for field in LOWER_IS_BETTER:
            old_side = float(old[key].get(field, 0.0))
            new_side = float(entry.get(field, 0.0))
            if old_side > 0 and new_side > 0:
                side_change = new_side / old_side - 1.0
                marker = "REGRESSION" if side_change > args.threshold else "ok"
                print(f"  {marker:>10}: {key[0]} [{key[1]}] "
                      f"{side_change:+.1%} ({field})")
                if side_change > args.threshold:
                    regressions.append((key, side_change))

    for key in sorted(set(old) - set(new)):
        if guarded(old[key], tags):
            print(f"  retired (in baseline only): {key[0]} [{key[1]}]")

    # A gate that compared nothing passes vacuously: a change that renames
    # or relabels every guarded row would otherwise skip them all as
    # "new"/"retired" and pass.
    if compared == 0 and any(guarded(entry, tags) for entry in old.values()):
        print("bench_compare: the baseline holds guarded series but none "
              "matched a current series by name+label — nothing was "
              "compared.", file=sys.stderr)
        return 1

    if regressions:
        print(f"bench_compare: {len(regressions)} guarded series regressed "
              f"more than {args.threshold:.0%}:", file=sys.stderr)
        for key, change in regressions:
            print(f"  {key[0]} [{key[1]}]: {change:+.1%}", file=sys.stderr)
        return 1
    print(f"bench_compare: {compared} guarded series compared, none regressed "
          f"more than {args.threshold:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
