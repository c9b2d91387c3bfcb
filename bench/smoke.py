#!/usr/bin/env python3
"""Tiny-size smoke run of the benchmark.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at smoke size (`--tiny`, one-second
window), untraced and traced, and checks that each run exits 0, ends with a
result line of exactly the four keys, passes its output checks, and prints
every end-to-end (untraced) or per-layer (traced) metric named in
BENCHMARK.json, with that metric's unit. Exits 1 on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check(spec, workload, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        return f"exit code {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        return f"result keys {sorted(result)}"
    if result["correct"] is not True or result["attempted"] < 1:
        return f"correct={result['correct']} attempted={result['attempted']}"
    want = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(want) & set(got) if want[k] != got[k])
        return f"missing {missing}, unexpected {extra}, wrong unit {units}"
    bad = [k for k, v in result["metrics"].items()
           if not isinstance(v["value"], (int, float)) or v["value"] != v["value"]]
    if bad:
        return f"non-numeric values {bad}"
    return None


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            problem = check(spec, workload, trace)
            print(f"{workload} trace={trace}: {'ok' if problem is None else problem}")
            failures += problem is not None
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
