#!/usr/bin/env python3
"""Smoke test of the benchmark itself (a few seconds per workload).

    python3 perfbench/test_smoke.py [--seconds 3]

For every workload in BENCHMARK.json, untraced and traced, it checks that:
  * the last stdout line is exactly {correct, attempted, failed, metrics},
    with correct == true and failed == 0;
  * every metric BENCHMARK.json names for that mode is emitted with its unit
    and a finite value, and no unnamed metric appears;
  * the correctness checks ran (byte identity on serve-*, the AUC floor on
    train) and the input description and host diagnostics were printed.
It also checks that the benchmark exits non-zero without a result line in a
directory holding only BENCHMARK.json and perfbench/.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(workload, seconds, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", str(seconds), "--trace",
           str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)


def check_run(spec, workload, seconds, trace):
    errors = []
    proc = run(workload, seconds, trace)
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}"]
    lines = [json.loads(ln) for ln in proc.stdout.splitlines() if ln.strip()]
    result, info = lines[-1], {}
    for obj in lines[:-1]:
        info.update(obj)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"run not correct: {result.get('failed')} failed")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append("attempted must be a whole number >= 1")
    wanted = {m["name"]: m["unit"]
              for m in spec["per_layer" if trace else "end_to_end"]}
    got = result.get("metrics", {})
    for name in sorted(set(wanted) - set(got)):
        errors.append(f"missing metric {name}")
    for name in sorted(set(got) - set(wanted)):
        errors.append(f"unnamed metric {name}")
    for name in sorted(set(got) & set(wanted)):
        m = got[name]
        if m.get("unit") != wanted[name]:
            errors.append(f"{name}: unit {m.get('unit')} != {wanted[name]}")
        if not isinstance(m.get("value"), (int, float)) or not math.isfinite(
                m["value"]):
            errors.append(f"{name}: non-finite value {m.get('value')}")
    for key in ("inputs", "checks", "host"):
        if key not in info:
            errors.append(f"no {key} line")
    checks = info.get("checks", {})
    if workload == "train":
        if checks.get("auc_check") != "pass":
            errors.append("AUC floor check did not pass")
    elif checks.get("byte_checked_requests", 0) < 1 or checks.get(
            "byte_mismatches") != 0:
        errors.append(f"byte-identity check did not run clean: {checks}")
    return errors


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: the program sources are missing,
    so the build must fail and no result may be printed."""
    bare = os.path.join(ROOT, ".bench_build", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run("serve-cold", 1, 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    errors = []
    if proc.returncode == 0:
        errors.append("exit code 0 without program sources")
    if proc.stdout.strip():
        errors.append("printed output without program sources")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=3)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failed = False
    cases = [(w["name"], t) for w in spec["workloads"] for t in (0, 1)]
    for workload, trace in cases:
        errors = check_run(spec, workload, args.seconds, trace)
        failed |= bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {workload} trace={trace}")
        for e in errors:
            print(f"     {e}")
    errors = check_bare_directory()
    failed |= bool(errors)
    print(f"{'FAIL' if errors else 'ok  '} bare directory exits non-zero")
    for e in errors:
        print(f"     {e}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
