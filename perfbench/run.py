#!/usr/bin/env python3
"""Builds and runs the BANKS serving benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload cold|hot|ingest --seed N \
        --seconds S --trace 0|1

Run from the repository root. The first run configures and builds
perfbench/ (and the engine sources under src/) into .bench_build/perfbench;
later runs rebuild incrementally. Build output goes to stderr, so the last
line of stdout is the benchmark's one-line JSON result.
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"


def source_digest() -> str:
    """SHA-256 over the engine sources, a commit stand-in outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str:
    """HEAD of the checkout's own git repository, or "none" (never a
    repository enclosing the checkout)."""
    if not (ROOT / ".git").exists():
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def build() -> bool:
    jobs = str(max(1, min(3, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=["cold", "hot", "ingest"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "core" / "banks.h").is_file():
        print("perfbench: engine sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return 2
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 2
    data_dir = BUILD / "data" / f"{args.workload}-seed{args.seed}"
    cmd = [str(BUILD / "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(data_dir), "--commit", commit(),
           "--source-digest", source_digest()]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
