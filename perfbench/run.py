#!/usr/bin/env python3
"""Builds and runs the S-OLAP repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload explore|scan|ingest --seed N \
        --seconds S --trace 0|1

The first run configures and compiles perfbench/ (which pulls in the
library from the repository root) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs reuse the
build. Build output goes to stderr. The benchmark binary prints its report
on stdout and ends with one JSON line: correct, attempted, failed, metrics.
The exit code is the binary's (non-zero on a failed answer check, a failed
build, or a timeout).
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 700


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    base = Path(base)
    if not base.is_absolute():
        base = REPO_ROOT / base
    return base / "perfbench"


def source_id():
    """The git commit, with "-dirty" when tracked files differ from it.
    A source tree without git metadata (an exported copy) is named by a
    digest of the sources the benchmark builds instead."""
    if (REPO_ROOT / ".git").exists():
        try:
            def git(*args):
                return subprocess.run(
                    ["git", "-C", str(REPO_ROOT)] + list(args),
                    capture_output=True, text=True, check=True).stdout
            dirty = git("status", "--porcelain", "--untracked-files=no")
            return "git:" + git("rev-parse", "HEAD").strip() + \
                ("-dirty" if dirty.strip() else "")
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [REPO_ROOT / "CMakeLists.txt"]
    for root in (REPO_ROOT / "src", BENCH_DIR):
        files.extend(p for p in root.rglob("*") if p.is_file())
    for path in sorted(files):
        digest.update(str(path.relative_to(REPO_ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_group(cmd, timeout, stdout):
    """Runs cmd in its own process group; on timeout the whole group (make
    and compiler children included) is killed and reaped."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def run_logged(cmd, timeout):
    return run_group(cmd, timeout, sys.stderr)


def build():
    out = build_dir()
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if not (out / "CMakeCache.txt").is_file():
        rc = run_logged(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                         "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S)
        if rc != 0:
            return None
    rc = run_logged(["cmake", "--build", str(out), "--target",
                     "solap_perfbench", "-j", jobs], BUILD_TIMEOUT_S)
    if rc != 0:
        return None
    binary = out / "solap_perfbench"
    return binary if binary.is_file() else None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["explore", "scan", "ingest"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    if not (REPO_ROOT / "CMakeLists.txt").is_file() or \
            not (REPO_ROOT / "src").is_dir():
        print("perfbench: no S-OLAP sources next to the benchmark "
              "(expected CMakeLists.txt and src/ at " + str(REPO_ROOT) + ")",
              file=sys.stderr)
        return 2
    try:
        binary = build()
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 2
    if binary is None:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source", source_id()]
    sys.stdout.flush()
    try:
        return run_group(cmd, RUN_TIMEOUT_S, sys.stdout)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
