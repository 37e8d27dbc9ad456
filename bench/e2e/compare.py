#!/usr/bin/env python3
"""Collect and compare end-to-end benchmark runs.

  compare.py collect --checkout PARENT --checkout CHANGE --pairs 10 --out DIR
      Runs bench/e2e/run.sh in both checkouts, alternating which side goes
      first; pair i uses seed SEED0 + i on both sides. Writes DIR/a.jsonl
      (first checkout) and DIR/b.jsonl (second), each opened by a stamp line
      (commit, CPU model, nproc, compiler, serve-tail rate). Naming the same
      checkout twice collects two sets of one commit.

  compare.py report PARENT.jsonl CHANGE.jsonl
      The decision rule, one row per (workload, metric): medians and
      quartiles of each side, the share of pairs the change wins, and a
      verdict. A gain needs a win share of at least 0.9 and a median gap
      larger than the parent's interquartile range; a regression is a median
      worse than the parent's by more than the metric's bound in
      BENCHMARK.json; a spread (IQR / median) wider than the bound is
      "unresolved" unless every change run beats every parent run. Any rise
      in the failed share of operations is a regression. Exits 1 when any row
      is a regression or unresolved.

  compare.py spread SET.jsonl [SET.jsonl]
      Each set's spread per (workload, metric) against its bound, and with
      two sets, how far the second median moved from the first.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
WORKLOADS = ["bulk-recognize", "bulk-find", "serve-tail", "serve-backfill"]


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m for m in bench["end_to_end"]}


def load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            record = json.loads(line)
            if "result" in record:
                runs.append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def stamp(checkout):
    def first_line(cmd):
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=checkout).stdout
        except OSError:
            return ""
        return out.splitlines()[0].strip() if out else ""

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(l.split(":", 1)[1].strip() for l in f if l.startswith("model name"))
    except (OSError, StopIteration):
        pass
    rate = "unknown"
    with open(os.path.join(checkout, "bench/e2e/pinned.conf")) as f:
        for line in f:
            if line.startswith("serve_tail_rate"):
                rate = int(line.split()[1])
    commit = first_line(["git", "rev-parse", "HEAD"]) or "unknown"
    if first_line(["git", "status", "--porcelain"]):
        commit += "-dirty"  # uncommitted changes, such as this benchmark before it lands
    return {
        "commit": commit,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": first_line(["c++", "--version"]) or "unknown",
        "serve_tail_rate": rate,
        "machine": platform.machine(),
    }


def run_once(checkout, workload, seed, seconds):
    cmd = ["bash", "bench/e2e/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr[-2000:])
        raise SystemExit(f"compare.py: run failed in {checkout}: {' '.join(cmd)}")
    return json.loads(lines[-1])


def collect(args):
    checkouts = [os.path.abspath(c) for c in args.checkout]
    if len(checkouts) == 1:
        checkouts *= 2
    if len(checkouts) != 2:
        raise SystemExit("compare.py collect: name one or two checkouts")
    os.makedirs(args.out, exist_ok=True)
    files = [open(os.path.join(args.out, name), "w") for name in ("a.jsonl", "b.jsonl")]
    for f, checkout in zip(files, checkouts):
        f.write(json.dumps({"stamp": stamp(checkout)}) + "\n")
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for workload in args.workload or WORKLOADS:
            for side in order:
                result = run_once(checkouts[side], workload, seed, args.seconds)
                record = {"workload": workload, "seed": seed, "pair": i,
                          "side": "ab"[side], "result": result}
                files[side].write(json.dumps(record) + "\n")
                files[side].flush()
                print(f"pair {i} {workload} {'ab'[side]}: correct={result['correct']} "
                      f"failed={result['failed']}", flush=True)
    for f in files:
        f.close()


def by_key(runs):
    table = {}
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            table.setdefault((r["workload"], name), {})[r["pair"]] = metric["value"]
    return table


def better(a, b, direction):
    return a > b if direction == "higher" else a < b


def report(args):
    metrics = load_benchmark()
    parent, change = load_runs(args.parent), load_runs(args.change)
    p_table, c_table = by_key(parent), by_key(change)
    header = (f"{'workload':15} {'metric':16} {'parent median [q1, q3]':34} "
              f"{'change median [q1, q3]':34} {'delta':>8} {'wins':>5}  verdict")
    print(header)
    bad = 0
    for workload in WORKLOADS:
        for name, spec in metrics.items():
            p, c = p_table.get((workload, name)), c_table.get((workload, name))
            if not p or not c:
                continue
            pairs = sorted(set(p) & set(c))
            pv, cv = [p[i] for i in pairs], [c[i] for i in pairs]
            pq, cq = quartiles(pv), quartiles(cv)
            direction, bound = spec["better"], spec["bound"]
            worse = (cq[1] - pq[1]) / pq[1]
            if direction == "higher":
                worse = -worse
            wins = sum(better(cv[i], pv[i], direction) for i in range(len(pairs)))
            share = wins / len(pairs)
            spread = max((pq[2] - pq[0]) / pq[1], (cq[2] - cq[0]) / cq[1])
            all_better = (min(cv) > max(pv)) if direction == "higher" else (max(cv) < min(pv))
            if worse > bound:
                verdict = "regression"
            elif (better(cq[1], pq[1], direction) and share >= 0.9
                  and abs(cq[1] - pq[1]) > pq[2] - pq[0]):
                verdict = "gain"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            else:
                verdict = "no change"
            bad += verdict in ("regression", "unresolved")
            print(f"{workload:15} {name:16} "
                  f"{pq[1]:10.4g} [{pq[0]:.4g}, {pq[2]:.4g}]".ljust(67) +
                  f"{cq[1]:10.4g} [{cq[0]:.4g}, {cq[2]:.4g}]".ljust(35) +
                  f"{-worse:+8.1%} {wins:2}/{len(pairs):<2}  {verdict}")
        # failed_share: any rise over the parent is a regression.
        pf = [r["result"] for r in parent if r["workload"] == workload]
        cf = [r["result"] for r in change if r["workload"] == workload]
        if pf and cf:
            share_p = sum(r["failed"] for r in pf) / sum(r["attempted"] for r in pf)
            share_c = sum(r["failed"] for r in cf) / sum(r["attempted"] for r in cf)
            incorrect = sum(not r["correct"] for r in cf)
            verdict = "regression" if share_c > share_p or incorrect else "no change"
            bad += verdict == "regression"
            print(f"{workload:15} {'failed_share':16} {share_p:10.4g}".ljust(67) +
                  f"{share_c:10.4g}".ljust(35) + f"{'':8} {'':5}  {verdict}"
                  + (f" ({incorrect} incorrect runs)" if incorrect else ""))
    return 1 if bad else 0


def spread(args):
    metrics = load_benchmark()
    sets = [by_key(load_runs(path)) for path in args.sets]
    print(f"{'workload':15} {'metric':16} {'bound':>6} " +
          " ".join(f"{'spread ' + str(i + 1):>9}" for i in range(len(sets))) +
          ("  median moved" if len(sets) == 2 else ""))
    over = 0
    for workload in WORKLOADS:
        for name, spec in metrics.items():
            rows = [s.get((workload, name)) for s in sets]
            if not all(rows):
                continue
            stats = [quartiles(list(r.values())) for r in rows]
            spreads = [(q3 - q1) / q2 for q1, q2, q3 in stats]
            line = f"{workload:15} {name:16} {spec['bound']:6.2f} " + " ".join(
                f"{s:9.2%}" for s in spreads)
            if name != "setup_s":
                over += sum(s > spec["bound"] for s in spreads)
            if len(sets) == 2:
                moved = (stats[1][1] - stats[0][1]) / stats[0][1]
                worse = -moved if spec["better"] == "higher" else moved
                over += worse > spec["bound"]
                line += f"  {moved:+8.2%}"
            print(line)
    return 1 if over else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--checkout", action="append", required=True)
    c.add_argument("--pairs", type=int, default=10)
    c.add_argument("--out", required=True)
    c.add_argument("--workload", action="append")
    c.add_argument("--seed0", type=int, default=1)
    c.add_argument("--seconds", type=int, default=json.load(
        open(os.path.join(ROOT, "BENCHMARK.json")))["run_seconds"])
    r = sub.add_parser("report")
    r.add_argument("parent")
    r.add_argument("change")
    s = sub.add_parser("spread")
    s.add_argument("sets", nargs="+")
    args = parser.parse_args()
    if args.command == "collect":
        collect(args)
        return 0
    return report(args) if args.command == "report" else spread(args)


if __name__ == "__main__":
    sys.exit(main())
