#!/usr/bin/env python3
"""unirdc benchmark: one workload per process, closed loop, one call at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` the workload's calls are timed with tracing off
and the end-to-end metrics are printed, in host-reference seconds (see
``ref_s``). With ``--trace 1`` a fixed list of
calls runs with each call made untraced and then traced, and the per-layer
metrics are printed, with the tracing overhead as the traced time over the
untraced time. Every call's output is checked; the
last line of stdout is the result object. Scratch files, the span dump and a
run record go to ``.perfbench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
# Nominal time of one ``ref_s`` reading. Every end-to-end time is scaled by
# REF_NOMINAL_S over the reference time read around it, which cancels the
# drift of a shared host's speed; both commits of a comparison use the same
# loop and the same constant, so the scale itself never moves a result.
REF_NOMINAL_S = 0.008


def load_program():
    """Import unirdc from the checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "unirdc" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no unirdc sources under {src}")
    sys.path.insert(0, str(src))
    from unirdc import cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit("perfbench: imported unirdc from outside the checkout")
    return cli


def ref_s() -> float:
    """Time of a fixed pure-Python loop (median of three): the host's speed
    right now. Read between timed calls; a call's time is divided by the
    mean of the readings just before and just after it."""
    times = []
    for _ in range(3):
        t = time.perf_counter()
        sum((i * i) % 7 for i in range(100_000))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def scaled(dt: float, ref_before: float, ref_after: float) -> float:
    """``dt`` in host-reference seconds: as long as it would take on a host
    where ``ref_s`` reads REF_NOMINAL_S."""
    return dt * REF_NOMINAL_S / ((ref_before + ref_after) / 2)


def src_digest() -> str:
    """SHA-256 over the program's sources, names included."""
    src = hashlib.sha256()
    for path in sorted((ROOT / "src" / "unirdc").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return src.hexdigest()


def run_record(args, probes: list[float]) -> dict:
    import numpy
    import scipy

    from unirdc.core import enumeration_cap

    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        sha = ref
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            sha = target.read_text().strip() if target.is_file() else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "git_sha": sha,
        "src_sha256": src_digest(),
        "unirdc_cap": enumeration_cap(),
        "probe_before_s": probes[0],
        "probe_after_s": probes[1],
    }


def time_setup(args) -> tuple[float, float]:
    """Median time of fresh processes that import unirdc and make the inputs,
    in host-reference seconds and in wall seconds."""
    times, walls = [], []
    ref = ref_s()
    for i in range(SETUP_REPEATS):
        work = OUT / f"setup-{args.workload}-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(work)]
        t = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        dt = time.perf_counter() - t
        shutil.rmtree(work, ignore_errors=True)
        after = ref_s()
        times.append(scaled(dt, ref, after))
        walls.append(dt)
        ref = after
    return statistics.median(times), statistics.median(walls)


class Runner:
    """Issues a workload's calls in order and checks each call's output."""

    def __init__(self, cli, wl, digests: dict | None):
        self.cli = cli
        self.wl = wl
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.mismatches: list[str] = []

    def call(self, index: int, tracer=None) -> tuple[float, dict]:
        """One timed call, then its (untimed) check; returns seconds and counts."""
        call = self.wl.calls[index % len(self.wl.calls)]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink):
            t = time.perf_counter()
            if tracer is None:
                rc = self.cli.run(call.argv)
            else:
                tracer.install()
                try:
                    rc = tracer.span("cli.run", self.cli.run, call.argv)
                finally:
                    tracer.uninstall()
            dt = time.perf_counter() - t
        self.attempted += 1
        counts: dict = {}
        if rc != 0:
            ok, detail = False, f"exit code {rc}: {sink.getvalue().strip()}"
        else:
            ok, detail, digest, counts = call.check()
            if ok and self.digests is not None and self.digests.get(call.key) != digest:
                ok, detail = False, "output differs from the recorded default-seed digest"
        if not ok:
            self.failed += 1
            print(f"perfbench: {self.wl.name} call {call.key} failed: {detail}", file=sys.stderr)
        return dt, counts

    def run_for(self, seconds: float) -> tuple[float, float, int]:
        """Calls in order, in whole cycles, until ``seconds`` would be passed by
        more than half a cycle more, with a ``ref_s`` reading between calls;
        returns busy host-reference seconds, busy wall seconds and items done."""
        busy_ref, busy, done, items = 0.0, 0.0, 0, 0
        start = time.perf_counter()
        ref = ref_s()
        while True:
            dt = self.call(done)[0]
            after = ref_s()
            busy_ref += scaled(dt, ref, after)
            busy += dt
            ref = after
            items += self.wl.calls[done % len(self.wl.calls)].items
            done += 1
            elapsed = time.perf_counter() - start
            if done % self.wl.cycle == 0 and elapsed * (1 + 0.5 * self.wl.cycle / done) >= seconds:
                return busy_ref, busy, items


def end_to_end(args, runner, context: dict) -> dict:
    busy_ref, busy, items = runner.run_for(args.seconds)
    setup, setup_wall = time_setup(args)
    # The unscaled figures go to the run record, as context.
    context.update(wall_items_per_s=items / busy, wall_setup_s=setup_wall)
    return {
        "items_per_s": {"value": items / busy_ref, "unit": "1/s"},
        "setup_s": {"value": setup, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
    }


def summed(counts: list[dict]) -> dict:
    total: dict = {}
    for c in counts:
        for k, v in c.items():
            total[k] = total.get(k, 0) + v
    return total


def traced(args, runner, tiny: bool) -> dict:
    from tracer import Tracer
    from unirdc.core import enumeration_cap

    wl = runner.wl
    n_calls = wl.trace_calls
    # Each call runs untraced and then traced, back to back, so a change in
    # the host's speed shows in both halves of the overhead alike.
    tracer = Tracer()
    untraced_s = traced_s = 0.0
    counts = []
    for i in range(n_calls):
        dt, plain = runner.call(i)
        untraced_s += dt
        dt, seen = runner.call(i, tracer)
        traced_s += dt
        if plain != seen:
            runner.mismatches.append(f"call {i} gave different output counts traced and untraced")
        counts.append(seen)
    out_counts = summed(counts)
    tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.csv")

    calls, incl, own = tracer.totals()
    cnt = tracer.counters
    m: dict = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    def per(a, b):
        return a / b if b else 0.0

    put("lz78.parse_calls", calls["lz78.parse"], "count")
    put("lz78.parse_s", incl["lz78.parse"], "s")
    put("lz78.parse_us", per(incl["lz78.parse"], calls["lz78.parse"]) * 1e6, "us")
    put("universal.table_calls", calls["universal.table"], "count")
    put("universal.table_s", incl["universal.table"], "s")
    put("universal.table_blocks", cnt["universal.table_blocks"], "count")
    put("universal.sphere_calls", calls["universal.sphere"], "count")
    put("universal.sphere_s", incl["universal.sphere"], "s")
    put("universal.sphere_blocks_scanned", cnt["universal.sphere_blocks_scanned"], "count")
    put("universal.sphere_ns_per_block",
        per(incl["universal.sphere"], cnt["universal.sphere_blocks_scanned"]) * 1e9, "ns")
    put("universal.sphere_hit_ratio",
        per(out_counts.get("sphere_hits", 0), cnt["universal.sphere_blocks_scanned"]), "ratio")
    put("distortion.witness_s", incl["distortion.witness"], "s")
    draws = out_counts.get("draws_scanned", 0)
    encoded = out_counts.get("encoded_blocks", 0)
    put("distortion.evals", draws + cnt["universal.sphere_blocks_scanned"]
        + cnt["converse.covering_pairs"], "count")
    enc = sorted(tracer.durations("codec.encode"))
    put("codec.encode_calls", calls["codec.encode"], "count")
    put("codec.encode_s", incl["codec.encode"], "s")
    put("codec.encode_p50_ms", statistics.median(enc) * 1e3 if enc else 0.0, "ms")
    put("codec.encode_p99_ms", enc[min(len(enc) - 1, int(0.99 * len(enc)))] * 1e3 if enc else 0.0, "ms")
    put("codec.draws_scanned", draws, "count")
    put("codec.draws_per_s", per(draws, incl["codec.encode"]), "1/s")
    put("codec.hit_ratio", per(encoded, draws), "ratio")
    put("codec.escapes", out_counts.get("escapes", 0), "count")
    put("codec.bits_per_block", per(out_counts.get("wire_bits", 0), encoded), "bits")
    put("codec.decode_calls", calls["codec.decode"], "count")
    put("codec.decode_s", incl["codec.decode"], "s")
    put("codec.replay_draws", out_counts.get("replay_draws", 0), "count")
    put("codec.container_write_s", incl["codec.container_write"], "s")
    put("codec.container_read_s", incl["codec.container_read"], "s")
    put("codec.container_bytes", out_counts.get("container_bytes", 0), "bytes")
    put("converse.type_class_calls", calls["converse.type_class"], "count")
    put("converse.type_class_s", incl["converse.type_class"], "s")
    put("converse.covering_calls", calls["converse.covering"], "count")
    put("converse.covering_s", incl["converse.covering"], "s")
    put("converse.covering_pairs", cnt["converse.covering_pairs"], "count")
    put("converse.greedy_s", incl["converse.greedy"], "s")
    put("converse.double_count_calls", calls["converse.double_count"], "count")
    put("converse.double_count_s", incl["converse.double_count"], "s")
    put("converse.length_bound_s", incl["converse.length_bound"], "s")
    put("experiments.self_s", sum((v for k, v in own.items() if k.startswith("experiments.")), 0.0), "s")
    put("cli.self_s", own["cli.run"], "s")
    put("core.enum_cap_frac", cnt["core.enum_max"] / enumeration_cap(), "ratio")
    put("trace.overhead_frac", traced_s / untraced_s - 1, "ratio")

    exact = {k: v["value"] for k, v in m.items() if v["unit"] == "count"}
    # Counts must repeat across runs of one program on one seed, so they are
    # kept per source digest: another commit's counts are never compared.
    # The smoke test's tiny sizes can give the same call keys, so they are
    # kept apart too.
    shape = hashlib.sha256(json.dumps(
        [src_digest(), tiny, [(c.key, c.items) for c in wl.calls[:n_calls]]]).encode())
    record = OUT / f"counts-{wl.name}-seed{args.seed}-{shape.hexdigest()[:16]}.json"
    if record.is_file() and json.loads(record.read_text()) != exact:
        runner.mismatches.append(f"exact counts differ from an earlier run of this program and seed ({record})")
    record.write_text(json.dumps(exact, sort_keys=True))
    return m


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", default=None, metavar="DIR",
                   help="import the program, make the inputs in DIR and exit (times set-up)")
    return p.parse_args(argv)


def execute(args, tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload as ``args`` asks; returns the result and the run record."""
    cli = load_program()
    import workloads

    if args.workload not in workloads.BUILDERS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r}")
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        wl = workloads.build(args.workload, args.seed, work, tiny)
        digests = None
        if args.seed == workloads.DEFAULT_SEED and not tiny:
            digests = json.loads((HERE / "digests.json").read_text())[wl.name]
        runner = Runner(cli, wl, digests)
        probes = [ref_s()]
        context: dict = {}
        metrics = traced(args, runner, tiny) if args.trace else end_to_end(args, runner, context)
        probes.append(ref_s())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = run_record(args, probes)
    record.update(context, ref_nominal_s=REF_NOMINAL_S)
    record.update(item=wl.unit, calls=runner.attempted, failed=runner.failed, mismatches=runner.mismatches)
    for problem in runner.mismatches:
        print(f"perfbench: {problem}", file=sys.stderr)
    (OUT / f"record-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))
    result = {
        "correct": runner.failed == 0 and not runner.mismatches,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    return result, record


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_only:
        load_program()
        import workloads

        workloads.build(args.workload, args.seed, Path(args.setup_only))
        return 0
    result, record = execute(args)
    print(json.dumps({"run_record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
