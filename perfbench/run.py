#!/usr/bin/env python3
"""Runs one workload of the repository benchmark and prints its result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--record FILE]

Run from the repository root. The first call configures and builds
perfbench/mbi_perfbench.cc against the library sources into .bench_build/;
later calls rebuild only what changed. mbi_perfbench checks every
answer; this wrapper adds the host and run fingerprint and prints two lines:

  1. the full record: fingerprint, every metric, informational numbers and
     the first gate failures (also appended to FILE with --record);
  2. last, the summary object {"correct", "attempted", "failed", "metrics"}
     holding the end-to-end metrics of BENCHMARK.json (--trace 0) or its
     per-layer metrics (--trace 1).

Exits non-zero, after printing, if any answer failed the gate, and without a
result if the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "mbi_perfbench"
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds mbi_perfbench; output goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD_DIR),
               "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(["ninja", "--version"], capture_output=True,
                          check=False).returncode == 0:
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(BUILD_DIR), "--target", "mbi_perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, check=False).returncode:
        fail("build failed")


def cmake_cache(key):
    try:
        for line in (BUILD_DIR / "CMakeCache.txt").read_text().splitlines():
            if line.startswith(key + ":"):
                return line.split("=", 1)[1]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for sub in ("src", "perfbench"):
        files += sorted(p for p in (ROOT / sub).rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def fingerprint(args, labels, info):
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cmake_cache("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True, check=False).stdout
        compiler = version.splitlines()[0] if version else compiler
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "compiler": compiler,
        "build_type": cmake_cache("CMAKE_BUILD_TYPE"),
        "git_commit": git_commit(),
        "source_digest": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "dataset": labels.get("dataset", "unknown"),
        "dataset_rows": info.get("rows"),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the full record (JSONL)")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    work_dir = BUILD_DIR.parent / "work" / f"{args.workload}-{os.getpid()}"
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(work_dir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        fail(f"mbi_perfbench exited with {proc.returncode}")
    raw = json.loads(lines[-1])

    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            fail(f"mbi_perfbench did not report {m['name']} in {m['unit']}")
        metrics[m["name"]] = got
    record = {"fingerprint": fingerprint(args, raw["labels"], raw["info"]),
              "correct": raw["correct"], "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": raw["metrics"],
              "info": raw["info"], "failures": raw["failures"]}
    line = json.dumps(record, sort_keys=True)
    print(line)
    if args.record:
        with open(args.record, "a", encoding="utf-8") as out:
            out.write(line + "\n")
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    sys.exit(0 if raw["correct"] else 1)


if __name__ == "__main__":
    main()
