#!/usr/bin/env python3
"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 perfbench/smoke.py

Runs each workload once untraced and once traced at tiny sizes, checks that
the printed metric names and units are exactly those in BENCHMARK.json,
that every workload in BENCHMARK.json exists here, and that no call failed.
Exits non-zero on the first mismatch.
"""
from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.BUILDERS):
        raise SystemExit(f"workloads differ: BENCHMARK.json {names}, perfbench {sorted(workloads.BUILDERS)}")
    for name in names:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            args = run.parse_args(["--workload", name, "--seconds", "0", "--trace", str(trace)])
            result, _ = run.execute(args, tiny=True)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                raise SystemExit(f"{name} trace={trace}: metrics {got} differ from {want}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                raise SystemExit(f"{name} trace={trace}: error rate is not 0: {result}")
            print(f"{name} trace={trace}: ok, {result['attempted']} calls")
    return 0


if __name__ == "__main__":
    sys.exit(main())
