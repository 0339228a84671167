#!/usr/bin/env python3
"""End-to-end EDM benchmark entry point.

Usage (from the repository root):

    python3 edmbench/run.py --workload paper_bv6 --seed 1 --seconds 30 --trace 0

Builds edmbench/edm_bench from source into .bench_build/edmbench on
first use (a later call only re-runs the incremental build), runs one
measurement with a fresh temporary directory under .bench_build/tmp for
any journal files, removes that directory afterwards, and prints the
benchmark's JSON result as the last line of stdout. Build output and
diagnostics go to stderr. Exits non-zero without printing a result when
the build or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("paper_bv6", "small_budget_checked", "faulted_journal")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 650  # configure + build together, so a first run ends in 900 s

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "edmbench"
BINARY = BUILD_DIR / "edm_bench"


def fail(message):
    print(f"edmbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then build incrementally; log to the build dir."""
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log_path = BUILD_DIR / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "edmbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "edm_bench", "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(
                    step, stdout=log, stderr=log,
                    timeout=max(1.0, deadline - time.monotonic())).returncode
            except (OSError, subprocess.TimeoutExpired) as exc:
                fail(f"build step {step[:2]} failed: {exc}")
            if code != 0:
                log.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                print(tail, file=sys.stderr)
                if not (BUILD_DIR / "edm_bench").exists():
                    # A failed first configure must not stick.
                    (BUILD_DIR / "CMakeCache.txt").unlink(missing_ok=True)
                fail(f"build failed (see {log_path})")


def parse_result(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload (smoke test)")
    parser.add_argument("--inject", choices=("journal-byte", "traced-result"),
                        help="negative case for the smoke test")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build()

    (ROOT / ".bench_build" / "tmp").mkdir(parents=True, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-",
                               dir=ROOT / ".bench_build" / "tmp")
    command = [str(BINARY), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--scratch", scratch]
    if args.tiny:
        command.append("--tiny")
    if args.inject:
        command += ["--inject", args.inject]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as exc:
        fail(f"benchmark run failed: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    result = parse_result(proc.stdout)
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stdout)
        fail(f"edm_bench exited with {proc.returncode} and no valid result")
    if not result["correct"]:
        print(f"edmbench: {result['failed']} of {result['attempted']} "
              "checked calls FAILED their correctness checks",
              file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
