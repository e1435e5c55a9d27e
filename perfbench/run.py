#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/ (the afc_bench program linked against the afceph library
built from src/) and runs one workload:

    python3 perfbench/run.py --workload write_4k --seed 42 --seconds 20 --trace 0

With --trace 0 the result carries every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric. The last stdout line is one JSON
object with exactly the keys correct, attempted, failed and metrics. The
exit code is 0 only when the build succeeded, every correctness check of
afc_bench passed and every metric was produced. The build goes to the
directory named by CARGO_TARGET_DIR (default .bench_build) under the
repository root.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build afc_bench; returns its path or None."""
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "afc_bench", "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout is reserved for the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            return None
    binary = out / "afc_bench"
    return binary if binary.exists() else None


def load_spec(path=ROOT / "BENCHMARK.json"):
    with open(path) as f:
        return json.load(f)


def make_result(raw, spec, trace):
    """The benchmark's result line from afc_bench's JSON record.

    Selects the metrics BENCHMARK.json lists for this mode (end_to_end for
    trace 0, per_layer for trace 1) and checks each is present with the
    declared unit and a numeric value. Raises ValueError otherwise.
    """
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = raw["metrics"].get(m["name"])
        if got is None:
            raise ValueError(f"metric {m['name']} missing from afc_bench output")
        if got.get("unit") != m["unit"]:
            raise ValueError(f"metric {m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"metric {m['name']}: value {value!r} is not a number")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted, failed = raw["attempted"], raw["failed"]
    if not (isinstance(attempted, int) and isinstance(failed, int) and attempted >= 1):
        raise ValueError(f"bad op counts: attempted={attempted!r} failed={failed!r}")
    return {
        "correct": bool(raw["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None):
    spec = load_spec()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    binary = build()
    if binary is None:
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: afc_bench exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"perfbench: afc_bench printed nothing (exit {proc.returncode})")
        return 1
    try:
        raw = json.loads(lines[-1])
        result = make_result(raw, spec, args.trace)
    except (ValueError, KeyError, TypeError) as e:
        log(f"perfbench: unusable afc_bench output: {e}")
        return 1
    for check in raw.get("checks", []):
        if not check["ok"]:
            log(f"perfbench: check {check['name']} failed: {check['detail']}")
    ok = result["correct"] and proc.returncode == 0
    result["correct"] = ok
    print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
