#!/usr/bin/env python3
"""Engine benchmark entry point.

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles
the engine from ../src) into $CARGO_TARGET_DIR (default .bench_build)
and runs one workload:

    python3 perfbench/run.py --workload skewed-hot --seed 1 --seconds 10 --trace 0

The last line of stdout is the result object. Build output goes to
stderr. Extra modes:

    python3 perfbench/run.py --selftest          # benchmark self-test
    python3 perfbench/run.py --sweep-rates 0.5,1,1.5 --seed 1
"""
import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def source_revision():
    """git HEAD when the checkout is a repository, else a digest of the
    engine and benchmark sources."""
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and path.suffix in (".h", ".cpp", ".txt", ".py"):
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def build(build_root):
    build_dir = build_root / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            log("build step failed:", " ".join(step))
            sys.exit(3)
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--sweep-rates")
    args = parser.parse_args()

    if not (ROOT / "src" / "serve" / "epoch_server.cpp").is_file():
        log("engine sources not found under", ROOT / "src")
        return 2
    build_root = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build(build_root)
    work_dir = build_root / "perfbench-run"

    if args.selftest:
        return subprocess.run([str(build_dir / "perfbench_selftest"),
                               str(ROOT / "BENCHMARK.json")]).returncode
    command = [str(build_dir / "perfbench"), "--seed", str(args.seed),
               "--work-dir", str(work_dir)]
    if args.sweep_rates:
        command += ["--sweep-rates", args.sweep_rates]
    else:
        if not args.workload:
            parser.error("--workload is required")
        command += ["--workload", args.workload,
                    "--seconds", str(args.seconds), "--trace", args.trace,
                    "--git-rev", source_revision()]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
