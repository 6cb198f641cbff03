"""Command line front end.

Machine-readable output goes to stdout; identical flags and seeds give
byte-identical output. Domain failures print a JSON error object and exit
with 1 for runtime errors or 2 for precondition and usage errors.
"""
from __future__ import annotations

import argparse
import functools
import io
import json
import os
import stat
import sys
from fractions import Fraction

from . import codec, converse, experiments, lz78, reference, universal
from .core import Alphabet, check_enumerable, parse_rational, read_blocks
from .distortion import (
    hamming,
    load_spec,
    spec_from_json,
    spec_to_json,
    squared_disagreement,
)
from .errors import PreconditionError, UnirdcError


def _parse_level(text: str) -> Fraction:
    return parse_rational(text, f"cannot parse distortion level {text!r} as a rational")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"invalid {what} JSON: {e}")


def _resolve_spec(name: str, source: Alphabet, repro: Alphabet):
    if name == "hamming":
        return hamming(source, repro)
    if name == "squared_disagreement":
        return squared_disagreement(source, repro)
    if name.lstrip().startswith("{"):
        return spec_from_json(name)
    return load_spec(name)


def _read_lines(path: str):
    if path == "-":
        return sys.stdin.read().splitlines()
    with open(path, "r", encoding="utf-8") as f:
        return f.read().splitlines()


def _read_block_file(path: str, alpha: Alphabet):
    """The blocks of a non-empty file whose blocks all share one length."""
    blocks = read_blocks(_read_lines(path), alpha)
    if not blocks:
        raise PreconditionError("no input blocks")
    if any(b.n != blocks[0].n for b in blocks):
        raise PreconditionError("all blocks must share one length")
    return blocks


def _write_bytes(path: str, data: bytes) -> None:
    """Overwrite path with data in place.

    The file is opened without O_TRUNC, written, and only then cut to the new
    length: truncating a just-written file to zero first can make the file
    system flush its pages to disk. An existing file keeps its inode and mode,
    a symlink is followed, and a device or FIFO is written but never cut. The
    write is not atomic.
    """
    fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if stat.S_ISREG(os.fstat(fd).st_mode):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _write_text(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write_bytes(path, text.encode("utf-8"))


def _emit(args, rows: list[dict], columns: list[str]) -> None:
    if args.format == "json":
        _write_text(args.out, json.dumps(rows, sort_keys=True) + "\n")
        return
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in columns))
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_lz_length(args) -> int:
    alpha = Alphabet(args.alphabet)
    blocks = read_blocks(_read_lines(args.infile), alpha)
    rows = []
    for i, b in enumerate(blocks):
        parse = lz78.lz_parse(b, alpha.size)
        bits = (
            parse.bit_length
            if args.length_mode == "plain"
            else lz78.lz_capped_length(b, alpha.size)
        )
        rows.append(
            {
                "index": i,
                "c": parse.phrase_count,
                "bits": bits,
                "final_duplicate": parse.final_is_duplicate,
            }
        )
    _emit(args, rows, ["index", "c", "bits", "final_duplicate"])
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:  # before the exact mode builds a whole table
        raise PreconditionError("count must be non-negative")
    universal.require_seed(args.seed)
    alpha = Alphabet(args.alphabet)
    if args.mode == "exact":
        table = universal.build_universal_table(args.n, alpha.size, args.length_mode)
        blocks = universal.sample_exact(table, args.seed, args.count)
    else:
        blocks = universal.sample_bitfeed(args.n, alpha.size, args.seed, args.count)
    _write_text(args.out, "".join(alpha.to_text(b) + "\n" for b in blocks))
    return 0


def _cmd_sphere_mass(args) -> int:
    source = Alphabet(args.alphabet)
    repro = Alphabet(args.repro_alphabet or args.alphabet)
    spec = _resolve_spec(args.dist, source, repro)
    level = _parse_level(args.level)
    blocks = _read_block_file(args.infile, source)
    table = universal.build_universal_table(blocks[0].n, repro.size, args.length_mode)
    rows = []
    for i, b in enumerate(blocks):
        m = universal.sphere_mass(b, level, spec, table)
        rows.append(
            {
                "index": i,
                "mass": str(m.mass),
                "sphere_size": m.sphere_size,
                "min_bits": m.min_bits if m.min_bits is not None else "",
                "neg_log2_mass": m.neg_log2_mass(),
            }
        )
    _emit(args, rows, ["index", "mass", "sphere_size", "min_bits", "neg_log2_mass"])
    return 0


def _cmd_encode(args) -> int:
    source = Alphabet(args.alphabet)
    repro = Alphabet(args.repro_alphabet or args.alphabet)
    spec = _resolve_spec(args.dist, source, repro)
    level = _parse_level(args.level)
    blocks = _read_block_file(args.infile, source)
    stream = codec.CodebookStream(
        seed=args.seed,
        n=blocks[0].n,
        alphabet_size=repro.size,
        mode=args.mode,
        max_draws=args.max_draws,
        length_mode=args.length_mode,
    )
    codec.check_container_header(stream, level)  # refused before any draw
    messages = codec.encode_blocks(blocks, level, spec, stream)
    out = args.out or "-"
    if out == "-":
        codec.write_container(sys.stdout.buffer, stream, level, messages)
        sys.stdout.buffer.flush()
    else:
        buf = io.BytesIO()
        codec.write_container(buf, stream, level, messages)
        _write_bytes(out, buf.getvalue())
    return 0


def _cmd_decode(args) -> int:
    if args.infile == "-":
        header, messages = codec.read_container(sys.stdin.buffer)
    else:
        with open(args.infile, "rb") as f:
            header, messages = codec.read_container(f)
    repro = Alphabet(args.alphabet)
    if repro.size != header.alphabet_size:
        raise PreconditionError(
            f"container was coded over {header.alphabet_size} symbols, "
            f"alphabet {repro.symbols!r} has {repro.size}"
        )
    stream = codec.CodebookStream(
        seed=args.seed if args.seed is not None else header.seed,
        n=header.n,
        alphabet_size=header.alphabet_size,
        mode=header.mode,
        max_draws=args.max_draws,
        length_mode=header.length_mode,
    )
    blocks = codec.decode_messages(messages, stream)
    _write_text(args.out, "".join(repro.to_text(b) + "\n" for b in blocks))
    return 0


def _parse_grid(text: str) -> list[Fraction]:
    parts = text.split(":")
    if len(parts) != 3:
        raise PreconditionError("grid must look like start:stop:step")
    lo, hi, step = (_parse_level(p) for p in parts)
    if step <= 0 or hi < lo:
        raise PreconditionError("grid needs step > 0 and stop >= start")
    count = (hi - lo) // step + 1
    check_enumerable(count, "grid")
    return [lo + i * step for i in range(count)]


def _parse_dist_vector(text: str, size: int) -> list[Fraction]:
    error = f"cannot parse source distribution {text!r} as rationals"
    parts = [parse_rational(p, error) for p in text.split(",")]
    if len(parts) != size or sum(parts) != 1 or any(p < 0 for p in parts):
        raise PreconditionError("source distribution must be a probability vector")
    return parts


def _cmd_rd_curve(args) -> int:
    source = Alphabet(args.alphabet)
    repro = Alphabet(args.repro_alphabet or args.alphabet)
    spec = _resolve_spec(args.dist, source, repro)
    if spec.kind != "per_letter_matrix":
        raise PreconditionError("rate-distortion curves need a per-letter matrix")
    if args.source_dist:
        p = [float(v) for v in _parse_dist_vector(args.source_dist, source.size)]
    else:
        p = [1.0 / source.size] * source.size
    grid = _parse_grid(args.grid)

    mass_block = None
    table = None
    if args.source:
        mass_block = source.to_block(args.source)
        table = universal.build_universal_table(
            mass_block.n, repro.size, args.length_mode
        )
    rows = []
    for level in grid:
        r = reference.blahut_arimoto(p, spec.matrix, float(level)).rate
        e = reference.sphere_exponent(p, spec.matrix, float(level)).exponent
        if mass_block is not None:
            m = universal.sphere_mass(mass_block, level, spec, table)
            mass_col = m.neg_log2_mass() / mass_block.n if m.sphere_size else "inf"
        else:
            mass_col = ""
        rows.append(
            {
                "D": str(level),
                "R": f"{r:.9f}",
                "E": f"{e:.9f}",
                "minus_log_U_mass_over_n": mass_col,
            }
        )
    _emit(args, rows, ["D", "R", "E", "minus_log_U_mass_over_n"])
    return 0


def _cmd_converse_check(args) -> int:
    source = Alphabet(args.alphabet)
    repro = Alphabet(args.repro_alphabet or args.alphabet)
    spec = _resolve_spec(args.dist, source, repro)
    cfg = experiments.ExperimentConfig(
        n=args.n,
        source_alphabet=source.symbols,
        repro_alphabet=repro.symbols,
        order=args.order,
        level=_parse_level(args.level),
        distortion=json.loads(spec_to_json(spec)),
        epsilon=args.epsilon,
        type_counts=_parse_json(args.type_counts, "type counts") if args.type_counts else None,
        length_mode=args.length_mode,
    )
    report = experiments.converse_experiment(cfg)
    m0 = report.min_codebook_size
    payload = {
        "M0": str(m0) if m0 is not None else "inf",
        "M_greedy": report.greedy_size,
        "Delta": report.delta_per_symbol,
        "delta": report.base_slack_per_symbol,
        "S_ell": report.tree_nodes,
        "identity_ok": report.identity_ok,
        "uq2lz_worst_slack": report.type_log_size_slack,
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def _cmd_experiment(args) -> int:
    if args.jobs < 0:
        raise PreconditionError(f"--jobs must be positive, or 0 for the config's, got {args.jobs}")
    with open(args.config, "r", encoding="utf-8") as f:
        raw = _parse_json(f.read(), "config")
    if not isinstance(raw, dict) or "experiment" not in raw:
        raise PreconditionError("config must be a JSON object with an 'experiment' name")
    name = raw["experiment"]
    cfg = experiments.ExperimentConfig.from_json(json.dumps(raw))
    if args.jobs:
        cfg.jobs = args.jobs
    report = experiments.run_experiment(name, cfg)
    if args.format == "csv" and hasattr(report, "to_csv"):
        _write_text(args.out, report.to_csv())
    else:
        _write_text(args.out, report.to_json() + "\n")
    return 0


def _cmd_counting_seq(args) -> int:
    alpha = Alphabet(args.alphabet)
    seq = experiments.build_counting_sequence(args.depth, alpha.size)
    payload = {
        "depth": seq.depth,
        "alphabet_size": seq.alphabet_size,
        "n": seq.length,
        "c": seq.phrase_count,
        "bits": seq.bit_length,
        "measured_epsilon": seq.measured_epsilon,
        "block": alpha.to_text(seq.block),
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unirdc",
        description="Universal rate-distortion coding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, repro=False, dist=False, level=False, fmt=True, out=True):
        if repro:
            p.add_argument("--repro-alphabet", default=None)
        if dist:
            p.add_argument("--dist", default="hamming")
        if level:
            p.add_argument("--D", dest="level", required=True)
        if fmt:
            p.add_argument("--format", choices=["csv", "json"], default="csv")
        if out:
            p.add_argument("--out", default=None)

    p = sub.add_parser("lz-length", help="parse blocks and report phrase counts and bits")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--length-mode", choices=["plain", "capped"], default="plain")
    common(p)
    p.set_defaults(func=_cmd_lz_length)

    p = sub.add_parser("sample", help="draw blocks from the universal distribution")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--mode", choices=["exact", "bitfeed"], default="exact")
    p.add_argument("--length-mode", choices=["plain", "capped"], default="plain")
    common(p, fmt=False)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("sphere-mass", help="exact sphere masses for input blocks")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--length-mode", choices=["plain", "capped"], default="plain")
    common(p, repro=True, dist=True, level=True)
    p.set_defaults(func=_cmd_sphere_mass)

    p = sub.add_parser("encode", help="random-codebook encode blocks to a container")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=["exact", "bitfeed"], default="exact")
    p.add_argument("--length-mode", choices=["plain", "capped"], default="plain")
    p.add_argument("--max-draws", type=int, default=codec.DEFAULT_MAX_DRAWS)
    common(p, repro=True, dist=True, level=True, fmt=False)
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("decode", help="decode a container back to blocks")
    p.add_argument("--alphabet", required=True, help="reproduction alphabet for output")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the header seed")
    p.add_argument("--max-draws", type=int, default=codec.DEFAULT_MAX_DRAWS)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("rd-curve", help="rate and sphere-exponent curves over a grid")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--grid", required=True, help="start:stop:step, rationals")
    p.add_argument("--source-dist", default=None, help="comma-separated rationals")
    p.add_argument("--source", default=None, help="block for the exact-mass column")
    p.add_argument("--length-mode", choices=["plain", "capped"], default="plain")
    common(p, repro=True, dist=True)
    p.set_defaults(func=_cmd_rd_curve)

    p = sub.add_parser("converse-check", help="covering bound and slack report")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--epsilon", type=float, default=1.0)
    p.add_argument("--type-counts", default=None, help="JSON chunk-text to count map")
    p.add_argument("--length-mode", choices=["plain", "capped"], default="plain")
    common(p, repro=True, dist=True, level=True, fmt=False)
    p.set_defaults(func=_cmd_converse_check)

    p = sub.add_parser("experiment", help="run a config-driven experiment")
    p.add_argument("--config", required=True)
    p.add_argument("--jobs", type=int, default=0)
    common(p)
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("counting-seq", help="worst-case parse sequence report")
    p.add_argument("--alphabet", required=True)
    p.add_argument("--depth", type=int, required=True)
    common(p, fmt=False)
    p.set_defaults(func=_cmd_counting_seq)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every run in this process, built on the first one:
    parse_args keeps no state between calls, and help is formatted anew for
    the terminal each time."""
    return build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return int(e.code) if e.code is not None else 0
    try:
        return args.func(args)
    except UnirdcError as e:
        print(json.dumps({"error": {"code": e.code, "message": str(e)}}, sort_keys=True))
        return 2 if isinstance(e, PreconditionError) else 1
    except OSError as e:
        print(
            json.dumps(
                {"error": {"code": "precondition", "message": str(e)}}, sort_keys=True
            )
        )
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))
