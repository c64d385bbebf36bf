#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

    python3 perfbench/run.py --workload profiles|explore|corpus|serve \
        --seed N --seconds S --trace 0|1

Run it from the root of the repository. The build goes to the directory
named by CARGO_TARGET_DIR (default .bench_build); build output goes to
stderr, so the last line on stdout is the benchmark's JSON result. The exit
code is the benchmark's: non-zero when the build fails, a correctness check
fails or the run exceeds its time limit.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("profiles", "explore", "corpus", "serve")
RUN_TIMEOUT_S = 170


def build(source: Path, build_dir: Path) -> Path:
    # Keep the compiler's temporary files inside the build tree too.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    subprocess.run(
        ["cmake", "-S", str(source), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        stdout=sys.stderr, check=True, env=env)
    subprocess.run(
        ["cmake", "--build", str(build_dir), "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True, env=env)
    return build_dir / "perfbench"


def commit(root: Path) -> str:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    source = Path(__file__).resolve().parent
    root = source.parent
    build_dir = (root / os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(source, build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--work-dir", str(build_dir), "--commit", commit(root)]
    if args.trace == "1":
        traces = build_dir / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out",
                str(traces / f"{args.workload}-{args.seed}.json")]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
