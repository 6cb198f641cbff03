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

from . import codec, experiments, lz78, reference, universal
from .core import (
    Alphabet, block_symbols, check_enumerable, parse_rational, read_symbols, write_symbols,
)
from .distortion import JOINT_TYPE, spec_from_object
from .errors import PreconditionError, UnirdcError


def _parse_level(text: str) -> Fraction:
    return parse_rational(text, f"cannot parse distortion level {text!r} as a rational")


def _parse_json(text: str, what: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise PreconditionError(f"invalid {what} JSON: {e}")


def _read_json(path: str, what: str):
    with open(path, "r", encoding="utf-8") as f:
        return _parse_json(f.read(), what)


_NAMED_MEASURES = {
    "hamming": {"kind": "hamming"},
    "squared_disagreement": {"kind": JOINT_TYPE, "functional": "squared_disagreement"},
}


def _measure(args):
    """(source, repro, dist, spec): the command's alphabets, the JSON object
    of its --dist (a built-in name, inline JSON or a file) and its measure.
    An object without alphabets takes --alphabet and --repro-alphabet."""
    source = Alphabet(args.alphabet)
    repro = Alphabet(args.repro_alphabet or args.alphabet)
    if args.dist in _NAMED_MEASURES:
        dist = dict(_NAMED_MEASURES[args.dist])
    elif args.dist.lstrip().startswith("{"):
        dist = _parse_json(args.dist, "distortion")
    else:
        dist = _read_json(args.dist, "distortion")
    return source, repro, dist, spec_from_object(dist, source.symbols, repro.symbols)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as f:
        return f.read()


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


def _emit(args, columns: list[str], rows: list[tuple]) -> None:
    """Write the rows, tuples in the order of columns, as CSV or JSON objects.

    None is an empty CSV field and JSON null; JSON writes an infinite float
    as "inf" or "-inf", as the experiment reports do, and refuses NaN."""
    if args.format == "json":
        objects = experiments._jsonable([dict(zip(columns, row)) for row in rows])
        _write_text(args.out, json.dumps(objects, sort_keys=True, allow_nan=False) + "\n")
        return
    lines = [",".join(columns)]
    lines += [",".join("" if v is None else str(v) for v in row) for row in rows]
    _write_text(args.out, "\n".join(lines) + "\n")


def _cmd_lz_length(args) -> int:
    alpha = Alphabet(args.alphabet)
    # lines may differ in length here, so each is a Block of its own
    blocks = [alpha.to_block(line) for line in _read_text(args.infile).splitlines() if line]
    rows = []
    for i, b in enumerate(blocks):
        parse = lz78.lz_parse(b, alpha.size)
        bits = parse.bit_length
        if args.length_mode == "capped":
            bits = int(lz78.capped_bits(bits, b.n, alpha.size))
        rows.append((i, parse.phrase_count, bits, parse.final_is_duplicate))
    _emit(args, ["index", "c", "bits", "final_duplicate"], rows)
    return 0


def _cmd_sample(args) -> int:
    if args.count < 0:  # before the exact mode builds a whole table
        raise PreconditionError("count must be non-negative")
    universal.require_seed(args.seed)
    alpha = Alphabet(args.alphabet)
    if args.mode == "exact":
        table = universal.build_universal_table(args.n, alpha.size, args.length_mode)
        check_enumerable(args.count * args.n, "exact sample")  # the symbols it would hold
        drawn = universal._ExactSampler(table, args.seed).draw(args.count)
        drawn = block_symbols(drawn, args.n, alpha.size)
    else:
        check_enumerable(args.count * args.n, "bitfeed sample")  # the symbols it would hold
        drawn = universal._BitfeedSampler(args.n, alpha.size, args.seed).draw(args.count)
    _write_text(args.out, write_symbols(drawn, alpha))
    return 0


def _cmd_sphere_mass(args) -> int:
    source, repro, _, spec = _measure(args)
    level = _parse_level(args.level)
    symbols = read_symbols(_read_text(args.infile), source)
    table = universal.build_universal_table(symbols.shape[1], repro.size, args.length_mode)
    rows = []
    for i, x in enumerate(symbols):
        m = universal.sphere_mass(x, level, spec, table)
        rows.append((i, str(m.mass), m.sphere_size, m.min_bits, m.neg_log2_mass()))
    _emit(args, ["index", "mass", "sphere_size", "min_bits", "neg_log2_mass"], rows)
    return 0


def _cmd_encode(args) -> int:
    source, repro, _, spec = _measure(args)
    level = _parse_level(args.level)
    symbols = read_symbols(_read_text(args.infile), source)
    stream = codec.CodebookStream(
        seed=args.seed,
        n=symbols.shape[1],
        alphabet_size=repro.size,
        mode=args.mode,
        max_draws=args.max_draws,
        length_mode=args.length_mode,
    )
    codec.check_container_header(stream, level)  # refused before any draw
    records = codec.encode_streams(symbols, level, spec, [stream]).records()
    buf = io.BytesIO()
    codec.write_container(buf, stream, level, records)
    if (args.out or "-") == "-":
        sys.stdout.buffer.write(buf.getvalue())
        sys.stdout.buffer.flush()
    else:
        _write_bytes(args.out, buf.getvalue())
    return 0


def _cmd_decode(args) -> int:
    if args.infile == "-":
        header, records = codec.read_container(sys.stdin.buffer)
    else:
        with open(args.infile, "rb") as f:
            header, records = codec.read_container(f)
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
    _write_text(args.out, write_symbols(codec.decode_messages(records, stream), repro))
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
    source, repro, _, spec = _measure(args)
    if spec.kind != "per_letter_matrix":
        raise PreconditionError("rate-distortion curves need a per-letter matrix")
    if args.source_dist:
        p = [float(v) for v in _parse_dist_vector(args.source_dist, source.size)]
    else:
        p = [1.0 / source.size] * source.size
    grid = _parse_grid(args.grid)

    mass_block = source.to_block(args.source) if args.source else None
    if mass_block is not None:
        table = universal.build_universal_table(mass_block.n, repro.size, args.length_mode)
    rows = []
    for level, point in zip(grid, reference.complexity_crossover(p, spec.matrix, grid)):
        if mass_block is not None:
            m = universal.sphere_mass(mass_block, level, spec, table)
            mass_col = m.neg_log2_mass() / mass_block.n if m.sphere_size else "inf"
        else:
            mass_col = ""
        rows.append((str(level), f"{point.rate:.9f}", f"{point.exponent:.9f}", mass_col))
    _emit(args, ["D", "R", "E", "minus_log_U_mass_over_n"], rows)
    return 0


def _cmd_converse_check(args) -> int:
    source, repro, dist, _ = _measure(args)  # refused before the config is built
    cfg = experiments.ExperimentConfig(
        n=args.n,
        source_alphabet=source.symbols,
        repro_alphabet=repro.symbols,
        order=args.order,
        level=_parse_level(args.level),
        distortion=dist,
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
    raw = _read_json(args.config, "config")
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


# Every flag that several subcommands take, declared once.
_FLAGS = {
    "--alphabet": {"required": True},
    "--in": {"dest": "infile", "required": True},
    "--n": {"type": int, "required": True},
    "--seed": {"type": int, "required": True},
    "--mode": {"choices": codec.MODES, "default": codec.EXACT},
    "--length-mode": {"choices": universal.LENGTH_MODES, "default": "plain"},
    "--max-draws": {"type": int, "default": codec.DEFAULT_MAX_DRAWS},
    "--repro-alphabet": {},
    "--dist": {"default": "hamming"},
    "--D": {"dest": "level", "required": True},
    "--format": {"choices": ["csv", "json"], "default": "csv"},
    "--out": {},
}

# Each subcommand's help, handler and flags in order: a shared flag by name,
# a flag of its own (or a shared one with settings changed) as (name, settings).
_COMMANDS = [
    ("lz-length", "parse blocks and report phrase counts and bits", _cmd_lz_length,
     ["--alphabet", "--in", "--length-mode", "--format", "--out"]),
    ("sample", "draw blocks from the universal distribution", _cmd_sample,
     ["--alphabet", "--n", "--seed", ("--count", {"type": int, "default": 1}), "--mode",
      "--length-mode", "--out"]),
    ("sphere-mass", "exact sphere masses for input blocks", _cmd_sphere_mass,
     ["--alphabet", "--in", "--length-mode", "--repro-alphabet", "--dist", "--D", "--format",
      "--out"]),
    ("encode", "random-codebook encode blocks to a container", _cmd_encode,
     ["--alphabet", "--in", "--seed", "--mode", "--length-mode", "--max-draws",
      "--repro-alphabet", "--dist", "--D", "--out"]),
    ("decode", "decode a container back to blocks", _cmd_decode,
     [("--alphabet", {"help": "reproduction alphabet for output"}), "--in",
      ("--seed", {"required": False, "help": "override the header seed"}),
      "--max-draws", "--out"]),
    ("rd-curve", "rate and sphere-exponent curves over a grid", _cmd_rd_curve,
     ["--alphabet", ("--grid", {"required": True, "help": "start:stop:step, rationals"}),
      ("--source-dist", {"help": "comma-separated rationals"}),
      ("--source", {"help": "block for the exact-mass column"}),
      "--length-mode", "--repro-alphabet", "--dist", "--format", "--out"]),
    ("converse-check", "covering bound and slack report", _cmd_converse_check,
     ["--alphabet", "--n", ("--order", {"type": int, "default": 1}),
      ("--epsilon", {"type": float, "default": 1.0}),
      ("--type-counts", {"help": "JSON chunk-text to count map"}),
      "--length-mode", "--repro-alphabet", "--dist", "--D", "--out"]),
    ("experiment", "run a config-driven experiment", _cmd_experiment,
     [("--config", {"required": True}), ("--jobs", {"type": int, "default": 0}), "--format",
      "--out"]),
    ("counting-seq", "worst-case parse sequence report", _cmd_counting_seq,
     ["--alphabet", ("--depth", {"type": int, "required": True}), "--out"]),
]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="unirdc",
        description="Universal rate-distortion coding toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, func, flags in _COMMANDS:
        p = sub.add_parser(name, help=text)
        for flag in flags:
            flag, own = (flag, {}) if isinstance(flag, str) else flag
            p.add_argument(flag, **(_FLAGS.get(flag, {}) | own))
        p.set_defaults(func=func)
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
        code, message, status = e.code, str(e), 2 if isinstance(e, PreconditionError) else 1
    except (OSError, UnicodeDecodeError) as e:  # an input that cannot be read as text
        code, message, status = "precondition", str(e), 2
    print(json.dumps({"error": {"code": code, "message": message}}, sort_keys=True))
    return status


def main() -> None:
    sys.exit(run(sys.argv[1:]))
