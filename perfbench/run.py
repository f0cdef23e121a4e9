#!/usr/bin/env python3
"""Build the BiSMO benchmark program from source and run one workload.

    python3 perfbench/run.py --workload bismo_128 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

The first form configures and builds perfbench/ (and the library it links)
into .bench_build/ at the root of the checkout, runs bismo_perfbench, and passes
its output through: human-readable lines, then one JSON object as the last
line.  Result files and spans land in .bench_out/.  The second form runs
every workload briefly and asserts the benchmark's own contract (see
perfbench/README.md).  Run from the root of a checkout.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BINARY = BUILD / "bismo_perfbench"
RUN_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure once, then build (a no-op when up to date)."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(2, f"no BiSMO sources next to {HERE.name}/ (expected "
                "CMakeLists.txt and src/ at the checkout root)")
    BUILD.mkdir(exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD / "build.lock", "w") as lock, \
            open(BUILD / "build.log", "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                      "--target", "bismo_perfbench"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                fail(3, f"build failed; see {BUILD / 'build.log'}")


def source_id():
    """Git commit when the checkout is a repository, plus a digest of the
    sources the build compiles, so results name exactly what ran."""
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    digest.update((ROOT / "CMakeLists.txt").read_bytes())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    return f"{commit or 'nogit'}+src:{digest.hexdigest()[:12]}"


def run_benchmark(args, commit):
    """Run bismo_perfbench; return (exit code, stdout text)."""
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT), "--commit", commit]
    if args.quick:
        cmd.append("--quick")
    if args.corrupt:
        cmd.append("--corrupt")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(4, f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def selftest(commit):
    """Run every workload briefly and check the benchmark's contract."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, corrupt in ((0, False), (1, False), (0, True)):
            args = argparse.Namespace(workload=workload, seed=7, seconds=2,
                                      trace=trace, quick=True,
                                      corrupt=corrupt)
            code, stdout = run_benchmark(args, commit)
            label = f"{workload} trace={trace}{' corrupt' if corrupt else ''}"
            result = last_json(stdout) if code == 0 else None
            if result is None:
                problems.append(f"{label}: exit {code}, no result")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expect[trace]:
                problems.append(f"{label}: metrics/units differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(expect[trace]))}")
            if corrupt:
                if result["failed"] < 1 or result["correct"]:
                    problems.append(f"{label}: corrupted result not counted")
            elif not result["correct"] or result["failed"] != 0:
                problems.append(f"{label}: output check failed "
                                f"({result['failed']} of {result['attempted']})")
            print(f"selftest {label}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']}")
    for problem in problems:
        print(f"SELFTEST FAILED {problem}")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="self-test scale: one set-up, minimal panels")
    parser.add_argument("--corrupt", action="store_true",
                        help="flip a bit in one checked result")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds,
                                      args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    build()
    commit = source_id()
    if args.selftest:
        sys.exit(selftest(commit))
    code, stdout = run_benchmark(args, commit)
    sys.stdout.write(stdout)
    sys.exit(code)


if __name__ == "__main__":
    main()
