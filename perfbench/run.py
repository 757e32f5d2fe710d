#!/usr/bin/env python3
"""Build and run the end-to-end solve benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The engine and the benchmark are built from source into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on first use.
Build output goes to stderr, so the last line of stdout is always the
benchmark's own JSON record. Any build failure exits non-zero without a
record.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Run a build step, sending its output to stderr; raise on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        raise RuntimeError("build step failed: " + " ".join(cmd))


def build(out):
    if not os.path.isdir(os.path.join(ROOT, "src")):
        raise RuntimeError("no engine sources in " + ROOT)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                   "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    run_quiet(["cmake", "--build", out, "-j", jobs,
               "--target", "perfbench", "perfbench_selftest"])


def source_digest():
    """sha256 over every engine and benchmark source file (path + bytes)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, d) for d in ("src", "perfbench")]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            files.extend(os.path.join(dirpath, f) for f in sorted(filenames))
    for path in files:
        if not os.path.isfile(path):
            continue
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as handle:
            digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else "none"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and not args.workload:
        parser.error("--workload is required")

    out = build_dir()
    try:
        build(out)
    except (RuntimeError, OSError) as err:
        print("perfbench: " + str(err), file=sys.stderr)
        return 2

    if args.selftest:
        cmd = [os.path.join(out, "perfbench_selftest")]
    else:
        cmd = [os.path.join(out, "perfbench"),
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--out-dir", os.path.relpath(out, ROOT),
               "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    proc = subprocess.Popen(cmd, cwd=ROOT)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
