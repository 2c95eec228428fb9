#!/usr/bin/env python3
"""Run one benchmark workload against the program in this checkout.

    python3 perfbench/run.py --workload train|serve-cold|serve-hot \
        --seed N --seconds S --trace 0|1

Run from the checkout root.  The first call builds the harness and the
program library from ../src into .bench_build/ (incremental afterwards) and
prepares the serving snapshot and checkpoints (once per build).  The
harness's stdout is passed through; its last line is the result object.
Exits non-zero, without a result line, when anything fails.
"""
import argparse
import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
HARNESS = os.path.join(BUILD, "perfbench_harness")
PREP = os.path.join(BUILD, "prep")
WORKLOADS = ("train", "serve-cold", "serve-hot")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs,
                    "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr)


def harness_digest():
    h = hashlib.sha256()
    with open(HARNESS, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def prepare():
    """Serving inputs are a function of the build: redo them when the
    harness binary changes, so a snapshot or checkpoint format change in
    the program never meets stale files."""
    stamp = os.path.join(PREP, "STAMP")
    digest = harness_digest()
    if os.path.exists(stamp):
        with open(stamp) as f:
            if f.read().strip() == digest:
                return
    os.makedirs(PREP, exist_ok=True)
    log("preparing serving snapshot and checkpoints")
    subprocess.run([HARNESS, "prep", "--cache", PREP], check=True,
                   stdout=sys.stderr, timeout=600)
    with open(stamp, "w") as f:
        f.write(digest + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    try:
        build()
        prepare()
        proc = subprocess.run(
            [HARNESS, "run", "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--cache", PREP],
            stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError) as e:
        log(f"failed: {e}")
        return 1
    if proc.returncode != 0:
        log(f"harness exited with {proc.returncode}")
        return 1
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
