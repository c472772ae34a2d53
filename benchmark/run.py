#!/usr/bin/env python3
"""Build the TFlux benchmark from source and run one workload.

    python3 benchmark/run.py --workload serve-mix --seed 1 --seconds 50 --trace 0

Run from the repository root. The first run configures and builds
benchmark/CMakeLists.txt (the TFlux libraries plus the tflux_bench
program) under .bench_build/; later runs rebuild only what changed. Build
output goes to stderr, so the last line of stdout is tflux_bench's JSON
result. With --trace 1 the Chrome trace of the traced phase is written
to .bench_build/traces/<workload>-seed<seed>.json.
"""
import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORKLOADS = ["soft-suite", "soft-fine", "serve-mix", "sim-figs"]


def tree_digest():
    """A digest of the sources the benchmark builds and runs."""
    digest = hashlib.sha256()
    for top in ("src", "benchmark"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def source_revision():
    """The git commit, with "-dirty-<digest>" when src/ or benchmark/
    differ from it; outside a git checkout, "tree-<digest>"."""
    def git(*args):
        out = subprocess.run(["git", "-C", ROOT] + list(args),
                             capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None

    if os.path.isdir(os.path.join(ROOT, ".git")):
        head = git("rev-parse", "HEAD")
        status = git("status", "--porcelain", "--", "src", "benchmark")
        if head and status == "":
            return head
        if head and status:
            return head + "-dirty-" + tree_digest()
    return "tree-" + tree_digest()


def build():
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "benchmark"),
                        "-B", BUILD] + gen, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "--target", "tflux_bench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "tflux_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "core", "CMakeLists.txt")):
        print("run.py: TFlux sources (src/) not found next to benchmark/",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--commit", source_revision()]
    if args.trace == "1":
        traces = os.path.join(ROOT, ".bench_build", "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
