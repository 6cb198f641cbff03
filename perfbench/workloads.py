"""The benchmark's workloads: seeded inputs, the calls made on them, and the
checks that every call's output is correct.

Every call goes through ``unirdc.cli.run(argv)`` in-process with ``--out``
files, one call at a time (closed loop, one client, ``jobs=1``). Inputs are
made from the workload seed before the first timed call, so the same seed
always gives the same files. Checks read only the output files and recompute
what they can with the benchmark's own arithmetic (distortion counting,
replaying the seeded codeword stream) rather than trusting the program's
report of itself.
"""
from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

DEFAULT_SEED = 0

# A per-letter matrix with rational entries on a ternary alphabet; it keeps
# every sphere scan on the Fraction path, which is the expensive one today.
TERNARY_MATRIX = [["0", "1/2", "1"], ["1/2", "0", "1/2"], ["1", "1/2", "0"]]


@dataclass
class Call:
    """One closed-loop call: CLI arguments, items of work, and its check.

    ``check`` reads the call's output files and returns ``(ok, detail,
    digest, counts)``; ``counts`` holds exact work counts taken from the
    output, which must repeat exactly for the same input.
    """

    key: str
    argv: list[str]
    items: int
    check: Callable[[], tuple[bool, str, str, dict]]


@dataclass
class Workload:
    name: str
    unit: str  # what one item of throughput is
    calls: list[Call]
    cycle: int  # runs stop only at a multiple of this many calls
    trace_calls: int  # calls in the traced pass (whole cycles)
    state: dict = field(default_factory=dict)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _rng(name: str, seed: int) -> random.Random:
    return random.Random(f"unirdc-perfbench/{name}/{seed}")


def _random_blocks(rng: random.Random, symbols: str, n: int, count: int) -> list[str]:
    return ["".join(rng.choice(symbols) for _ in range(n)) for _ in range(count)]


def _hamming_distance(a: str, b: str) -> int:
    return sum(1 for u, v in zip(a, b) if u != v)


def _replay(table, seed: int, count: int, symbols: str) -> list[str]:
    """First ``count`` codewords of the seeded stream, as text.

    ``sample_exact`` consumes the seeded generator exactly as the codec's
    streaming sampler does, so this is an independent replay of the stream.
    """
    from unirdc.universal import sample_exact

    return ["".join(symbols[s] for s in b.symbols) for b in sample_exact(table, seed, count)]


# -- achievability_n8 -------------------------------------------------------


def achievability(seed: int, work: Path, n: int = 8, trials: int = 24, configs: int = 32) -> Workload:
    """Config-driven achievability experiment: all 2^n binary sources, D=1/4."""
    rng = _rng("achievability_n8", seed)
    # Every binary source has the same Hamming sphere: the blocks within n/4 flips.
    ball = sum(math.comb(n, j) for j in range(n // 4 + 1))
    calls = []
    for i in range(configs):
        cfg = work / f"ach{i}.json"
        out = work / f"ach{i}.out.json"
        cfg.write_text(
            json.dumps(
                {
                    "experiment": "achievability",
                    "n": n,
                    "level": "1/4",
                    "trials": trials,
                    "master_seed": rng.getrandbits(63),
                    "mode": "exact",
                    "jobs": 1,
                }
            )
        )

        def check(out=out):
            report = json.loads(out.read_text())
            rows = report["rows"]
            ok = (
                len(rows) == 2**n
                and report["all_semifaithful"] is True
                and all(r["trials"] == trials and r["semifaithful_failures"] == 0 for r in rows)
            )
            counts = {
                "escapes": sum(r["escapes"] for r in rows),
                "trials": sum(r["trials"] for r in rows),
                "sphere_hits": len(rows) * ball,
            }
            return ok, "" if ok else "report failed its invariants", sha256_file(out), counts

        argv = ["experiment", "--config", str(cfg), "--jobs", "1", "--format", "json", "--out", str(out)]
        calls.append(Call(f"ach{i}", argv, 2**n * trials, check))
    return Workload("achievability_n8", "source x seed trials", calls, 1, 4)


# -- codec_n12 ---------------------------------------------------------------


def _read_container(path: Path):
    from unirdc.codec import read_container

    with open(path, "rb") as f:
        return read_container(f)


def _table(state: dict, n: int, k: int):
    if "table" not in state:
        from unirdc.universal import build_universal_table

        state["table"] = build_universal_table(n, k)
    return state["table"]


def codec(seed: int, work: Path, n: int = 12, blocks: int = 128, files: int = 64) -> Workload:
    """CLI encode of seeded uniform binary block files, exact sampler, D=1/n,
    each followed by a CLI decode of the container that encode wrote.

    The decode traffic is therefore exactly what the encoder emits. Each
    file's blocks are the next ``blocks`` of a seeded shuffle of all K^n
    sources, reshuffled when it runs out, so a run sees every source about
    equally often and the draws it asks for vary little from seed to seed.
    """
    from unirdc.codec import DEFAULT_MAX_DRAWS

    rng = _rng("codec_n12", seed)
    wl = Workload("codec_n12", "blocks encoded and decoded", [], 2, 12)
    budget = 1  # n * D with D = 1/n
    sources = [format(v, f"0{n}b") for v in range(2**n)]
    pool: list[str] = []
    for i in range(files):
        src = work / f"codec{i}.txt"
        urc = work / f"codec{i}.urc"
        out = work / f"codec{i}.out.txt"
        lines = []
        while len(lines) < blocks:
            if not pool:
                pool = sources[:]
                rng.shuffle(pool)
            lines.append(pool.pop())
        src.write_text("".join(line + "\n" for line in lines))
        stream_seed = rng.getrandbits(63)
        expected: list[str] = []

        def check_encode(urc=urc, lines=lines, stream_seed=stream_seed, expected=expected):
            expected.clear()
            header, messages = _read_container(urc)
            if len(messages) != len(lines) or header.seed != stream_seed or header.n != n:
                return False, "container header or record count is wrong", sha256_file(urc), {}
            indices = [m.index for m in messages if not m.escape]
            escape_records = len(messages) - len(indices)
            replay = _replay(_table(wl.state, n, 2), stream_seed, max(indices, default=0), "01")
            bad = 0
            for x, m in zip(lines, messages):
                if m.escape:
                    bits = format(m.payload.value, f"0{m.payload.length}b")
                    xhat = bits if m.payload.length == n else None
                else:
                    xhat = replay[m.index - 1]
                if xhat is None or _hamming_distance(x, xhat) > budget:
                    bad += 1
                expected.append(xhat or "")
            counts = {
                "encoded_blocks": len(messages),
                "draws_scanned": sum(indices) + escape_records * DEFAULT_MAX_DRAWS,
                "escapes": escape_records,
                "wire_bits": sum(m.total_bits for m in messages),
                "container_bytes": urc.stat().st_size,
            }
            return bad == 0, f"{bad} decoded blocks over budget", sha256_file(urc), counts

        def check_decode(urc=urc, out=out, expected=expected):
            _, messages = _read_container(urc)
            ok = bool(expected) and out.read_text() == "".join(x + "\n" for x in expected)
            counts = {"replay_draws": sum(m.index for m in messages if not m.escape)}
            return ok, "" if ok else "decoded blocks differ from the replayed stream", sha256_file(out), counts

        enc = ["encode", "--alphabet", "01", "--in", str(src), "--seed", str(stream_seed),
               "--D", f"1/{n}", "--mode", "exact", "--out", str(urc)]
        dec = ["decode", "--alphabet", "01", "--in", str(urc), "--out", str(out)]
        wl.calls.append(Call(f"enc{i}", enc, 0, check_encode))
        wl.calls.append(Call(f"dec{i}", dec, blocks, check_decode))
    return wl


# -- sphere_k3n10 -----------------------------------------------------------


def _read_sphere_csv(path: Path) -> list[tuple[Fraction, int]]:
    lines = path.read_text().splitlines()
    if not lines or lines[0] != "index,mass,sphere_size,min_bits,neg_log2_mass":
        return []
    rows = []
    for line in lines[1:]:
        _, mass, size, _, _ = line.split(",")
        rows.append((Fraction(mass), int(size)))
    return rows


def sphere(seed: int, work: Path, n: int = 10, blocks: int = 1, files: int = 24) -> Workload:
    """CLI sphere-mass of seeded ternary block files at D=1/10 then D=1/5."""
    rng = _rng("sphere_k3n10", seed)
    spec = json.dumps(
        {"kind": "per_letter_matrix", "matrix": TERNARY_MATRIX,
         "alphabets": {"source": "012", "repro": "012"}}
    )
    calls = []
    for i in range(files):
        src = work / f"sph{i}.txt"
        src.write_text("".join(b + "\n" for b in _random_blocks(rng, "012", n, blocks)))
        outs = [work / f"sph{i}.d10.csv", work / f"sph{i}.d5.csv"]
        for level, out in zip(("1/10", "1/5"), outs):

            def check(out=out, smaller=outs[0] if out is outs[1] else None):
                rows = _read_sphere_csv(out)
                ok = len(rows) == blocks and all(0 < m <= 1 and s >= 1 for m, s in rows)
                if ok and smaller is not None:
                    inner = _read_sphere_csv(smaller)
                    ok = len(inner) == blocks and all(
                        a[0] <= b[0] and a[1] <= b[1] for a, b in zip(inner, rows)
                    )
                counts = {"spheres": len(rows), "sphere_hits": sum(s for _, s in rows)}
                return ok, "" if ok else "sphere masses failed their invariants", sha256_file(out), counts

            argv = ["sphere-mass", "--alphabet", "012", "--in", str(src), "--dist", spec,
                    "--D", level, "--format", "csv", "--out", str(out)]
            calls.append(Call(f"sph{i}/{level}", argv, blocks, check))
    return Workload("sphere_k3n10", "spheres weighed", calls, 2, 2)


# -- converse_n10 -----------------------------------------------------------


def converse(seed: int, work: Path, n: int = 10) -> Workload:
    """CLI converse-check, binary Hamming, over every (class, level) pair.

    The classes have n/2 - 1, n/2 and n/2 + 1 ones, at D = 1/n and 2/n; the
    seed orders the six pairs, and runs stop only after whole cycles of six,
    so every run does the same work.
    """
    rng = _rng("converse_n10", seed)
    levels = (str(Fraction(1, n)), str(Fraction(2, n)))
    pairs = [(ones, level) for ones in (n // 2 - 1, n // 2, n // 2 + 1) for level in levels]
    rng.shuffle(pairs)
    calls = []
    for i, (ones, level) in enumerate(pairs):
        out = work / f"conv{i}.json"
        counts_arg = json.dumps({"0": n - ones, "1": ones})

        # The report weighs one Hamming sphere, whose size the benchmark counts.
        ball = sum(math.comb(n, j) for j in range(int(n * Fraction(level)) + 1))

        def check(out=out, ones=ones, ball=ball):
            payload = json.loads(out.read_text())
            ok = payload["identity_ok"] is True and payload["M0"] != "inf"
            if ok:
                ok = payload["M_greedy"] >= math.ceil(Fraction(payload["M0"]))
            counts = {"class_size": math.comb(n, ones), "M_greedy": payload["M_greedy"], "sphere_hits": ball}
            return ok, "" if ok else "converse report failed its invariants", sha256_file(out), counts

        argv = ["converse-check", "--alphabet", "01", "--n", str(n), "--type-counts", counts_arg,
                "--D", level, "--out", str(out)]
        calls.append(Call(f"conv{ones}/{level}", argv, 1, check))
    return Workload("converse_n10", "converse checks", calls, len(calls), len(calls))


BUILDERS = {
    "achievability_n8": achievability,
    "codec_n12": codec,
    "sphere_k3n10": sphere,
    "converse_n10": converse,
}

# Sizes small enough that every workload runs in about a second; the smoke
# test uses them to exercise every path without the full cost.
TINY = {
    "achievability_n8": dict(n=4, trials=2, configs=2),
    "codec_n12": dict(n=6, blocks=4, files=2),
    "sphere_k3n10": dict(n=4, blocks=1, files=1),
    "converse_n10": dict(n=4),
}


def build(name: str, seed: int, work: Path, tiny: bool = False) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, work, **(TINY[name] if tiny else {}))
