#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dear-bw --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Builds the library and the benchmark (Release) into .bench_build/perfbench,
then runs the benchmark binary. Its last stdout line is the JSON result.
Exits non-zero, printing no result, when the library sources are missing or
the build or the run fails.
"""

import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.getcwd()
BUILD = os.path.join(".bench_build", "perfbench")
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def source_id():
    """Git commit when available, else a digest of the library sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha1()
    for base, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-" + digest.hexdigest()[:12]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs, "--target",
                  "perfbench", "perfbench_selftest"])
    for cmd in steps:
        # Build logs go to stderr so stdout ends with the result line only.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run(cmd):
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["dear-bw", "dear-msgs", "sim-tune"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()
    if not args.selftest and args.workload is None:
        p.error("--workload is required")
    if not 1 <= args.seconds <= 60:
        p.error("--seconds must be in [1, 60]")

    build()
    if args.selftest:
        sys.exit(run([os.path.join(BUILD, "perfbench_selftest")]))
    sys.stdout.flush()
    code = run([os.path.join(BUILD, "perfbench"),
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--commit", source_id(),
                "--out-dir", os.path.join(".bench_build", "traces")])
    if code != 0:
        fail("benchmark exited with code %d" % code)


if __name__ == "__main__":
    main()
