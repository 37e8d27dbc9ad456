#!/usr/bin/env python3
"""The layer waterfall of one traced run.

  waterfall.py build-e2e/spans-WORKLOAD-seedN.jsonl [--untraced RESULT.json]

Reads the spans rispar_e2e --trace 1 wrote (one JSON object per span: id,
name, start_ns, end_ns, parent, op, bytes) and prints

  * every span name with its count, median duration and median self time
    (duration minus the time its child spans cover);
  * the layer ladder: the same corpus bytes costed at each layer's entry
    point, in ns per byte, with the difference to the layer above it;
  * the workload waterfall: the median self time of each stage of the
    workload's operation ("op" spans) and their sum. With --untraced (a
    --trace 0 result line of the same workload) the sum is compared with
    the untraced latency_p50_ms.
"""
import argparse
import json
import statistics
from collections import defaultdict

# Top to bottom: each row adds one mechanism to the row above it.
LADDER = [
    ("automata.translate", "byte -> symbol translation"),
    ("core.serial_scan", "serial DFA scan"),
    ("parallel.ca_run", "chunked recognize, c=16 (reach + join)"),
    ("find.serial", "serial Sigma*p find"),
    ("parallel.match_count.count", "chunked count, c=16"),
    ("parallel.match_count.find", "chunked find, c=16 (+ hit recording)"),
    ("parallel.match_count.find_exact", "chunked find, kExact (+ reverse scans)"),
    ("engine.stream.find_only", "stream_find_feed, 4 KiB windows, c=1"),
    ("engine.stream.feed", "StreamSession::feed (+ decision carry, translations)"),
    ("server.feed_rtt", "rispard FEED -> FED round trip (+ server, loopback)"),
    ("engine.multistream.feed", "MultiStreamSession, 5 patterns, 64 KiB, c=4, kExact"),
]


def load(path):
    spans = [json.loads(line) for line in open(path) if line.strip()]
    children = defaultdict(float)
    for s in spans:
        s["ms"] = (s["end_ns"] - s["start_ns"]) / 1e6
        if s["parent"] >= 0:
            children[s["parent"]] += s["ms"]
    for s in spans:
        s["self_ms"] = s["ms"] - children[s["id"]]
    return spans


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("spans")
    parser.add_argument("--untraced", help="a --trace 0 result JSON line of the workload")
    args = parser.parse_args()
    spans = load(args.spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    print(f"{'span':34} {'count':>6} {'median ms':>11} {'self ms':>11}")
    for name in sorted(by_name):
        group = by_name[name]
        print(f"{name:34} {len(group):6} {statistics.median(s['ms'] for s in group):11.4f} "
              f"{statistics.median(s['self_ms'] for s in group):11.4f}")

    print(f"\n{'layer ladder':34} {'ns/byte':>9} {'vs above':>9}  what the row adds")
    above = None
    for name, what in LADDER:
        # Probe spans only (no parent): the workload's ops cover other bytes.
        group = [s for s in by_name.get(name, []) if s["bytes"] > 0 and s["parent"] < 0]
        if not group:
            continue
        ns = statistics.median(s["ms"] * 1e6 / s["bytes"] for s in group)
        delta = "" if above is None else f"{ns - above:+9.3f}"
        print(f"{name:34} {ns:9.3f} {delta:>9}  {what}")
        above = ns

    ops = {s["id"]: s for s in by_name.get("op", [])}
    if not ops:
        return
    per_op = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s["parent"] in ops:
            per_op[s["parent"]][s["name"]] += s["ms"]
    stages = sorted({name for parts in per_op.values() for name in parts})
    print(f"\n{'workload stage':34} {'median self ms':>15}")
    total = 0.0
    for name in stages + ["op.self"]:
        if name == "op.self":
            values = [op["self_ms"] for op in ops.values()]
        else:
            values = [per_op[i].get(name, 0.0) for i in ops]
        ms = statistics.median(values)
        total += ms
        print(f"{name:34} {ms:15.4f}")
    print(f"{'stage sum':34} {total:15.4f}")
    print(f"{'traced op p50':34} {statistics.median(op['ms'] for op in ops.values()):15.4f}")
    if args.untraced:
        line = open(args.untraced).read().strip().splitlines()[-1]
        p50 = json.loads(line)["metrics"]["latency_p50_ms"]["value"]
        print(f"{'untraced latency_p50_ms':34} {p50:15.4f}  (stage sum is {total / p50:.1%})")


if __name__ == "__main__":
    main()
