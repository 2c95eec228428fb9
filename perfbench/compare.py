#!/usr/bin/env python3
"""Collect and compare sets of benchmark runs.

  collect  run perfbench/run.py once per (workload, seed), for every
           workload in BENCHMARK.json at its run_seconds, and keep each
           run's stdout as DIR/<workload>-seed<N>-trace<T>.out
  spread   per workload and metric: median, quartiles and the quartile
           spread as a share of the median, against the metric's bound
  compare  two run sets, one row per (workload, metric): each side's median
           and quartiles and a verdict:
             worse       the new median is worse than the base median by
                         more than the bound
             unresolved  either side's spread is wider than the bound (unless
                         every new run beats every base run)
             better / unchanged  otherwise

Bounds, units and directions come from BENCHMARK.json.  Quartiles are
statistics.quantiles(values, n=4).  Examples:

  python3 perfbench/compare.py collect --out runs/base --seeds 1-10
  python3 perfbench/compare.py spread runs/base
  python3 perfbench/compare.py compare runs/base runs/new
"""
import argparse
import glob
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def metric_specs(spec, trace):
    return {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def last_json(path):
    with open(path) as f:
        lines = [ln for ln in f.read().splitlines() if ln.strip()]
    return json.loads(lines[-1]) if lines else None


def load_set(directory, trace=0):
    """{workload: {metric: [values...]}} plus a failure count per workload."""
    values, failures = {}, {}
    for path in sorted(glob.glob(os.path.join(directory, f"*-trace{trace}.out"))):
        workload = os.path.basename(path).rsplit("-seed", 1)[0]
        result = last_json(path)
        per = values.setdefault(workload, {})
        if not result or not result.get("correct"):
            failures[workload] = failures.get(workload, 0) + 1
            continue
        for name, m in result["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return values, failures


def quartiles(vals):
    if len(vals) < 2:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def spread(vals):
    q1, q2, q3 = quartiles(vals)
    return (q3 - q1) / abs(q2) if q2 else float("inf")


def cmd_collect(args):
    spec = load_spec()
    os.makedirs(args.out, exist_ok=True)
    for seed in parse_seeds(args.seeds):
        for w in (w["name"] for w in spec["workloads"]):
            path = os.path.join(args.out, f"{w}-seed{seed}-trace{args.trace}.out")
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            with open(path, "w") as out:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=out).returncode
            print(f"{w} seed {seed}: exit {rc}", flush=True)
    return 0


def cmd_spread(args):
    specs = metric_specs(load_spec(), args.trace)
    values, failures = load_set(args.dir, args.trace)
    bad = False
    for w in sorted(values):
        print(f"== {w}  (runs failed: {failures.get(w, 0)})")
        for name in sorted(values[w]):
            vals = values[w][name]
            q1, q2, q3 = quartiles(vals)
            s = spread(vals)
            bound = specs.get(name, {}).get("bound")
            note = ""
            if bound is not None:
                note = f"bound {bound:.3f}  " + ("OK" if s <= bound / 3 else
                                                 "within bound" if s <= bound
                                                 else "TOO NOISY")
                bad |= s > bound
            print(f"  {name:28s} n={len(vals):2d} median {q2:14.6g}  "
                  f"q1 {q1:14.6g}  q3 {q3:14.6g}  spread {s:7.2%}  {note}")
    return 1 if bad else 0


def verdict(base, new, spec):
    bound = spec["bound"]
    lower = spec["better"] == "lower"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    change = (nm - bm) / abs(bm) if bm else 0.0
    worse_by = change if lower else -change
    if worse_by > bound:
        return "worse", change
    all_better = (max(new) < min(base)) if lower else (min(new) > max(base))
    if (spread(base) > bound or spread(new) > bound) and not all_better:
        return "unresolved", change
    return ("better" if worse_by < 0 else "unchanged"), change


def cmd_compare(args):
    specs = metric_specs(load_spec(), 0)
    base, base_fail = load_set(args.base)
    new, new_fail = load_set(args.new)
    worst = 0
    for w in sorted(set(base) | set(new)):
        print(f"== {w}  (failed runs: base {base_fail.get(w, 0)}, "
              f"new {new_fail.get(w, 0)})")
        for name, spec in specs.items():
            bv, nv = base.get(w, {}).get(name), new.get(w, {}).get(name)
            if not bv or not nv:
                print(f"  {name:14s} missing")
                worst = 1
                continue
            v, change = verdict(bv, nv, spec)
            b1, bm, b3 = quartiles(bv)
            n1, nm, n3 = quartiles(nv)
            print(f"  {name:14s} base {bm:12.6g} [{b1:.6g}, {b3:.6g}]  "
                  f"new {nm:12.6g} [{n1:.6g}, {n3:.6g}]  "
                  f"{change:+7.2%}  bound {spec['bound']:.2f}  {v}")
            if v in ("worse", "unresolved"):
                worst = 1
    return worst


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--out", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    s = sub.add_parser("spread")
    s.add_argument("dir")
    s.add_argument("--trace", type=int, choices=(0, 1), default=0)
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("new")
    args = ap.parse_args()
    return {"collect": cmd_collect, "spread": cmd_spread,
            "compare": cmd_compare}[args.cmd](args)


if __name__ == "__main__":
    sys.exit(main())
