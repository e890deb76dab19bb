#!/usr/bin/env python3
"""Self-test of the repository benchmark at tiny input sizes.

    python3 perfbench/selftest.py

For every workload in BENCHMARK.json it runs perfbench/run.py three times:
untraced, traced, and untraced with --corrupt 1. It checks that

  * the last output line has exactly the keys correct/attempted/failed/metrics
    and reports every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json, each with its declared unit and a finite value;
  * the fingerprint line names the host, compiler, flags, git sha, seed and
    pool size;
  * the traced run writes a Chrome trace-event file with complete spans;
  * clean runs fail no check, and a deliberately corrupted output (a split
    cluster, a dropped dominating vertex, an altered route, a broken split
    partition) raises failed_fraction above 0.

Exits 0 when every check holds.
"""
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
FINGERPRINT_KEYS = ("compiler", "build_type", "cxx_flags", "hardware_concurrency",
                    "pool_threads", "workload", "seed", "seconds", "trace")
HOST_KEYS = ("hostname", "cpu", "nproc", "git_sha", "src_sha256")


def run(workload, trace, corrupt=0, seed=7):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--size", "tiny", "--corrupt", str(corrupt)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: run.py exited {proc.returncode}\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["fingerprint"], json.loads(lines[-1])


def check_metrics(where, result, specs):
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"], where
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, where
    assert isinstance(result["failed"], int), where
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    assert set(metrics) == set(want), f"{where}: metric names {sorted(metrics)}"
    for name, unit in want.items():
        entry = metrics[name]
        assert entry["unit"] == unit, f"{where}: {name} unit {entry['unit']}"
        assert isinstance(entry["value"], (int, float)), f"{where}: {name}"
        assert math.isfinite(entry["value"]), f"{where}: {name} not finite"


def check_trace_file(where, workload, seed=7):
    path = (ROOT / ".bench_build" / "perfbench" / "traces" /
            f"{workload}-seed{seed}-trace1-tiny.trace.json")
    doc = json.loads(path.read_text())
    events = doc["traceEvents"]
    assert events, f"{where}: empty trace"
    layers = set()
    for e in events:
        assert e["ph"] == "X" and e["dur"] >= 0 and e["ts"] >= 0, where
        assert e["args"]["parent"] < e["args"]["span"], where
        layers.add(e["cat"])
    assert {"graph", "congest", "decomp"} <= layers, f"{where}: layers {layers}"
    assert doc["otherData"]["fingerprint"]["workload"] == workload, where


def main():
    failures = []
    for wl in (w["name"] for w in SPEC["workloads"]):
        try:
            fp, clean = run(wl, trace=0)
            check_metrics(f"{wl} untraced", clean, SPEC["end_to_end"])
            assert clean["correct"] and clean["failed"] == 0, f"{wl}: {clean}"
            for key in FINGERPRINT_KEYS:
                assert key in fp, f"{wl}: fingerprint lacks {key}"
            for key in HOST_KEYS:
                assert key in fp["host"], f"{wl}: host stamp lacks {key}"

            _, traced = run(wl, trace=1)
            check_metrics(f"{wl} traced", traced, SPEC["per_layer"])
            assert traced["failed"] == 0, f"{wl} traced: {traced['failed']} failed"
            check_trace_file(f"{wl} trace file", wl)

            _, bad = run(wl, trace=0, corrupt=1)
            assert bad["failed"] > 0 and not bad["correct"], (
                f"{wl}: corrupted output went undetected")
            print(f"ok   {wl}: {clean['attempted']} checked, corruption caught "
                  f"({bad['failed']}/{bad['attempted']} failed)")
        except (AssertionError, KeyError, ValueError, OSError) as e:
            failures.append(wl)
            print(f"FAIL {wl}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
