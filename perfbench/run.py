#!/usr/bin/env python3
"""The repository's benchmark: one command per workload run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run it from the repository root. It builds perfbench/ and the library it
measures from source (Release) into .bench_build/perfbench, then runs the
workload in its own process. The last line of standard output is the
result object: {"correct", "attempted", "failed", "metrics"}; with
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (spans go to .bench_build/spans/). A wrong answer makes
the command exit 1.

--self-test runs the harness checks (perfbench_selftest), then a short
paper_headline run that must pass and the same run with an injected
wrong max_annual, which must fail and name that field.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("paper_headline", "book_tail", "serve_paced")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(f"no library sources under {ROOT}; run from a "
                           "full checkout of the repository")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    generated = (BUILD / "Makefile").is_file() or (BUILD / "build.ninja").is_file()
    if not (BUILD / "CMakeCache.txt").is_file() or not generated:
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout's last line is the result.
        done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(cmd)}")


def run(cmd):
    """Runs a benchmark process in the checkout root and waits for it."""
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
        return 1


def self_test():
    if run([str(BUILD / "perfbench_selftest")]) != 0:
        log("self-test: harness checks failed")
        return 1
    # The gate must pass the clean run and name the injected field in the
    # other. paper_headline is monolithic, so its gate is bitwise and no
    # other difference can stand in for the injected one.
    runs = {}
    for inject in (False, True):
        cmd = [str(BUILD / "perfbench"), "--workload", "paper_headline",
               "--seed", "7", "--seconds", "0.5", "--trace", "0"]
        if inject:
            cmd.append("--inject-wrong-answer")
        runs[inject] = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                      text=True, timeout=RUN_TIMEOUT_S,
                                      check=False)
    clean, injected = runs[False], runs[True]
    if clean.returncode != 0 or '"correct": true' not in clean.stdout:
        log("self-test: the run without an injected error failed")
        return 1
    wrong = [line for line in injected.stdout.splitlines()
             if line.startswith("# WRONG ANSWER")]
    last = injected.stdout.strip().splitlines()[-1:] or [""]
    if (injected.returncode == 0 or '"correct": false' not in last[0]
            or not any("max_annual" in line for line in wrong)):
        log("self-test: the injected wrong max_annual was not caught")
        return 1
    log("self-test: passed")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    try:
        build()
    except (RuntimeError, OSError, subprocess.TimeoutExpired) as err:
        log(str(err))
        return 1
    if args.self_test:
        return self_test()
    cmd = [str(BUILD / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace]
    if args.trace == "1":
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    return run(cmd)


if __name__ == "__main__":
    sys.exit(main())
