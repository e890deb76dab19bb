#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds the
driver (perfbench/driver.cpp against src/) under .bench_build/perfbench;
later calls reuse the build. The driver's standard output is passed through:
a fingerprint line, then, as the last line, one JSON object with the keys
correct, attempted, failed and metrics. The fingerprint and result are also
saved under .bench_build/perfbench/results/, and a traced run (--trace 1)
writes its spans as Chrome trace-event JSON under .bench_build/perfbench/traces/.

Extra flags for the self-test: --size tiny (small inputs) and --corrupt 1
(damage one output per operation, so the checks must fail).
"""
import argparse
import hashlib
import json
import os
import platform
import socket
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
DRIVER = BUILD_DIR / "perfbench_driver"
WORKLOADS = ("ldd-grid", "mds-grid", "route-serve", "expander-gather-certify")
DRIVER_TIMEOUT_S = 170


def build():
    """Configure once, then let CMake rebuild only what changed."""
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--parallel", "4"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            return False
    return DRIVER.exists()


def tree_digest(top):
    """sha256 over the relative paths and bytes of every file under `top`."""
    h = hashlib.sha256()
    for path in sorted(p for p in top.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(top)).encode())
        h.update(b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha():
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def host_stamp():
    return {
        "hostname": socket.gethostname(),
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "git_sha": git_sha(),
        "src_sha256": tree_digest(ROOT / "src"),
        "perfbench_sha256": tree_digest(BENCH_DIR),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    if not (ROOT / "src").is_dir():
        sys.stderr.write(f"perfbench: no library sources in {ROOT / 'src'}\n")
        return 1
    if not build():
        sys.stderr.write("perfbench: build failed\n")
        return 1

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    trace_out = BUILD_DIR / "traces" / f"{tag}.trace.json"
    results = BUILD_DIR / "results" / f"{tag}.json"
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    results.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--corrupt", str(args.corrupt),
           "--trace-out", str(trace_out),
           "--stamp", json.dumps(host_stamp(), sort_keys=True)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: driver timed out\n")
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        fingerprint = json.loads(lines[-2])["fingerprint"]
    except (IndexError, KeyError, ValueError):
        result = fingerprint = None
    if (proc.returncode != 0 or not isinstance(result, dict)
            or sorted(result) != ["attempted", "correct", "failed", "metrics"]):
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: driver failed (exit {proc.returncode})\n")
        return 1
    results.write_text(json.dumps({"fingerprint": fingerprint, "result": result},
                                  indent=2, sort_keys=True) + "\n")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
