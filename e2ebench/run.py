#!/usr/bin/env python3
"""Build the end-to-end benchmark from source and run one workload.

    python3 e2ebench/run.py --workload lubm-lookup --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is built with dune (shared
build cache off, so nothing is written outside the checkout), then the
benchmark executable runs the workload.  Its last line of standard
output is the result object; the line before it holds the run's
metadata.  A traced run (--trace 1) also writes its spans to
e2ebench/_out/trace-<workload>.tsv.

Any HEXASTORE_* variable in the environment is dropped, so the store,
the domain pool and telemetry run with the program's defaults.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("lubm-lookup", "barton-analytic", "lubm-update")
TARGET = "./e2ebench/main.exe"
EXE = os.path.join(ROOT, "_build", "default", "e2ebench", "main.exe")
TRACE_DIR = os.path.join("e2ebench", "_out")


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    return None


def main():
    args = parse_args()
    env = {k: v for k, v in os.environ.items() if not k.startswith("HEXASTORE_")}
    env["DUNE_CACHE"] = "disabled"
    dune = dune_command()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    try:
        build = subprocess.run(
            dune + ["build", "--root", ROOT, TARGET],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr, timeout=840,
        )
    except subprocess.TimeoutExpired:
        print("run.py: build timed out", file=sys.stderr)
        return 2
    if build.returncode != 0 or not os.path.isfile(EXE):
        print("run.py: build failed", file=sys.stderr)
        return 2
    cmd = [
        EXE,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if args.trace:
        os.makedirs(os.path.join(ROOT, TRACE_DIR), exist_ok=True)
        cmd += ["--trace-dir", TRACE_DIR]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, cwd=ROOT, env=env, timeout=170)
    except subprocess.TimeoutExpired:
        print("run.py: benchmark timed out", file=sys.stderr)
        return 2
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
