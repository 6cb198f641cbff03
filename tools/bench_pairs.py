#!/usr/bin/env python3
"""Before/after benchmark: perfbench runs in pairs, a parent checkout against this one.

    python3 tools/bench_pairs.py --parent DIR --pr N [--seed 0]
        [--workload NAME ...] [--out FILE]

DIR is a checkout of the parent commit, made for example with ``git clone``
or ``git archive`` (not inside this checkout). Each pair runs
``perfbench/run.py --trace 0`` once in DIR and once in this checkout for
every workload, one process at a time, for the ``run_seconds`` that
``BENCHMARK.json`` sets; there are 10 pairs, and the side that goes first
alternates from pair to pair, so a drift of the host's speed hits both sides
alike.

The result, ``BENCH_<N>.json`` in this checkout unless --out says otherwise,
holds for every workload and end-to-end metric of ``BENCHMARK.json`` each
side's runs with their median and quartiles, and the number of pairs in
which the change did better; next to them whether every run was correct,
the Python and NumPy versions, nproc, and each side's git SHA and source
digest as perfbench's run record gives them.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10


def perfbench(checkout: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One ``--trace 0`` run in checkout: its run record and its result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True,
                          timeout=10 * seconds + 600)
    lines = done.stdout.strip().splitlines()
    if done.returncode or len(lines) < 2:
        raise SystemExit(f"bench_pairs: {workload} in {checkout} failed:\n{done.stderr}")
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def summarize(runs: dict, better: dict, workloads: list[str]) -> dict:
    """Per workload: each metric's spread on both sides and the pairs the
    change won, and whether every run was correct."""
    out = {}
    for name in workloads:
        results = {side: [r for _, r in runs[side][name]] for side in SIDES}
        metrics = {}
        for metric, direction in better.items():
            values = {side: [r["metrics"][metric]["value"] for r in results[side]] for side in SIDES}
            sign = 1 if direction == "higher" else -1
            ahead = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            metrics[metric] = {
                "unit": results["change"][0]["metrics"][metric]["unit"],
                "better": direction,
                **{side: spread(values[side]) for side in SIDES},
                "change_ahead_pairs": ahead,
            }
        out[name] = {
            "correct": all(r["correct"] for side in SIDES for r in results[side]),
            "failed": sum(r["failed"] for side in SIDES for r in results[side]),
            "metrics": metrics,
        }
    return out


def identity(records: list[dict]) -> dict:
    """The git SHA and source digest of one side, the same in all its runs."""
    seen = {(r["git_sha"], r["src_sha256"]) for r in records}
    if len(seen) != 1:
        raise SystemExit(f"bench_pairs: the program changed between runs: {sorted(seen)}")
    sha, digest = seen.pop()
    return {"git_sha": sha, "src_sha256": digest}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--parent", required=True, type=Path, help="checkout of the parent commit")
    p.add_argument("--pr", required=True, type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", action="append", default=None,
                   help="a workload to run (repeatable); all of BENCHMARK.json by default")
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    checkouts = {"parent": args.parent.resolve(), "change": ROOT}
    runs = {side: {name: [] for name in workloads} for side in SIDES}
    for i in range(PAIRS):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for name in workloads:
            for side in order:
                record, result = perfbench(checkouts[side], name, args.seed, seconds)
                runs[side][name].append((record, result))
                value = result["metrics"]["items_per_s"]["value"]
                print(f"pair {i + 1}/{PAIRS} {name} {side}: items_per_s {value:.2f}",
                      file=sys.stderr)
    records = {side: [rec for name in workloads for rec, _ in runs[side][name]] for side in SIDES}
    first = records["change"][0]
    report = {
        "pr": args.pr,
        "command": ["perfbench/run.py", "--trace", "0", "--seconds", str(seconds),
                    "--seed", str(args.seed)],
        "pairs": PAIRS,
        "python": first["python"],
        "numpy": first["numpy"],
        "nproc": first["nproc"],
        **{side: identity(records[side]) for side in SIDES},
        "workloads": summarize(runs, better, workloads),
    }
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=2) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
