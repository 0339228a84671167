#!/usr/bin/env python3
"""Tiny-size smoke test of the EDM benchmark, with negative cases.

Usage (from the repository root):

    python3 edmbench/smoke.py

Checks, in about a minute after the build:
  * every workload at --tiny size, traced and untraced, reports
    correct=true, failed=0 and exactly the metrics BENCHMARK.json names;
  * a corrupted journal byte (faulted_journal) and a perturbed traced
    result (paper_bv6) are each reported as failures, not passed over;
  * in a directory holding only BENCHMARK.json and the benchmark's own
    files, the benchmark exits non-zero without printing a result.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN = ["python3", "edmbench/run.py", "--seconds", "1"]


def run(cwd, *args):
    proc = subprocess.run(RUN + list(args), cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    return proc.returncode, result


def main():
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in SPEC["workloads"]:
        name = workload["name"]
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result = run(ROOT, "--workload", name, "--seed", "3",
                               "--trace", str(trace), "--tiny")
            want = {m["name"] for m in SPEC[key]}
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] >= 1
                   and set(result["metrics"]) == want,
                   f"{name} --trace {trace}: correct, all {key} metrics")

    for name, inject in (("faulted_journal", "journal-byte"),
                         ("paper_bv6", "traced-result")):
        code, result = run(ROOT, "--workload", name, "--seed", "3",
                           "--trace", "0", "--tiny", "--inject", inject)
        expect(code == 0 and result is not None and not result["correct"]
               and result["failed"] > 0,
               f"{name} --inject {inject}: reported as a failure")

    (ROOT / ".bench_build" / "tmp").mkdir(parents=True, exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-",
                                 dir=ROOT / ".bench_build" / "tmp"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path)
        code, result = run(bare, "--workload", "paper_bv6", "--seed", "3",
                           "--trace", "0")
        expect(code != 0 and result is None,
               "bare benchmark directory: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
