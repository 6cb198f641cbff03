import hashlib
import importlib
import io
import itertools
import json
import math
import os
import shlex
import shutil
import struct
import subprocess
import sys
import time
from pathlib import Path

import pytest
from fractions import Fraction

import unirdc
from unirdc import BINARY, binary_entropy, build_universal_table, sphere_mass, hamming
from unirdc import codec, experiments, universal
from unirdc.cli import _parser, run

distortion_module = importlib.import_module("unirdc.distortion")


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    capsys.readouterr()


def test_unknown_subcommand_exits_two(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_one_parser_prints_what_fresh_parsers_print(capsys):
    # the parser is built on the first run of a process and serves every
    # later one; usage errors between runs leave help, usage, error and
    # output bytes as a fresh parser per run prints them
    argvs = [
        ["--help"],
        ["counting-seq", "--alphabet", "01", "--depth", "2"],
        ["counting-seq", "--alphabet", "01"],
        ["encode", "--help"],
        ["sample", "--alphabet", "01", "--n", "4", "--seed", "1", "--mode", "fair"],
        ["frobnicate"],
        ["sample", "--alphabet", "01", "--n", "4", "--seed", "1", "--count", "2"],
        ["counting-seq", "--alphabet", "01", "--depth", "two"],
        ["counting-seq", "--alphabet", "01", "--depth", "2"],
    ]

    def outcome(argv):
        code = run(argv)
        printed = capsys.readouterr()
        return code, printed.out, printed.err

    fresh = []
    for argv in argvs:
        _parser.cache_clear()
        fresh.append(outcome(argv))
    _parser.cache_clear()
    shared = [outcome(argv) for argv in argvs]
    assert _parser.cache_info().misses == 1
    assert shared == fresh
    assert [code for code, _, _ in fresh] == [0, 0, 2, 0, 2, 2, 0, 2, 0]
    assert fresh[0][1].startswith("usage: unirdc") and "required: --depth" in fresh[2][2]


def test_lz_length_csv(tmp_path, capsys):
    p = tmp_path / "blocks.txt"
    p.write_text("abbabaabbaaabaa\naaaa\n")
    code, out = invoke(
        capsys, "lz-length", "--alphabet", "ab", "--in", str(p)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "index,c,bits,final_duplicate"
    assert lines[1] == "0,8,24,True"
    assert lines[2] == "1,3,5,True"


def test_lz_length_json(tmp_path, capsys):
    p = tmp_path / "blocks.txt"
    p.write_text("01\n")
    code, out = invoke(
        capsys, "lz-length", "--alphabet", "01", "--in", str(p), "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == [
        {"index": 0, "c": 2, "bits": 3, "final_duplicate": False}
    ]


def test_lz_length_capped_parses_each_line_once(tmp_path, monkeypatch, capsys):
    p = tmp_path / "blocks.txt"
    p.write_text("abbabaabbaaabaa\naaaa\nab\n")
    parses = []
    real = unirdc.lz78.lz_parse
    monkeypatch.setattr(unirdc.lz78, "lz_parse", lambda *a: parses.append(a) or real(*a))
    argv = ["lz-length", "--alphabet", "ab", "--in", str(p), "--length-mode", "capped"]
    code, out = invoke(capsys, *argv)
    assert code == 0 and len(parses) == 3
    assert out.splitlines()[1:] == ["0,8,16,True", "1,3,5,True", "2,2,3,False"]  # min(24, 15) + 1
    code, out = invoke(capsys, *argv, "--format", "json")
    assert json.loads(out)[0] == {"index": 0, "c": 8, "bits": 16, "final_duplicate": True}


def test_sample_deterministic(capsys):
    args = ["sample", "--alphabet", "01", "--n", "6", "--seed", "5", "--count", "8"]
    code1, out1 = invoke(capsys, *args)
    code2, out2 = invoke(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    assert len(out1.splitlines()) == 8
    assert all(len(line) == 6 and set(line) <= {"0", "1"} for line in out1.splitlines())
    _, out3 = invoke(capsys, *args[:-4], "--seed", "6", "--count", "8")
    assert out3 != out1


def test_sample_bitfeed_mode(capsys):
    code, out = invoke(
        capsys, "sample", "--alphabet", "01", "--n", "4", "--seed", "1",
        "--count", "3", "--mode", "bitfeed",
    )
    assert code == 0
    assert len(out.splitlines()) == 3


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_negative_sample_count_is_refused_before_any_table(capsys, monkeypatch, mode):
    def no_table(*args):
        raise AssertionError("build_universal_table was called")

    monkeypatch.setattr(unirdc.universal, "build_universal_table", no_table)
    code, out = invoke(
        capsys, "sample", "--alphabet", "01", "--n", "20", "--count", "-1",
        "--seed", "1", "--mode", mode,
    )
    assert code == 2
    assert json.loads(out) == {
        "error": {"code": "precondition", "message": "count must be non-negative"}
    }


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_negative_sample_seed_is_refused_before_any_table(capsys, monkeypatch, mode):
    def no_table(*args):
        raise AssertionError("build_universal_table was called")

    monkeypatch.setattr(unirdc.universal, "build_universal_table", no_table)
    code, out = invoke(
        capsys, "sample", "--alphabet", "01", "--n", "20", "--count", "3",
        "--seed", "-7", "--mode", mode,
    )
    assert code == 2
    assert json.loads(out) == {
        "error": {"code": "precondition", "message": "seed must be non-negative"}
    }


def test_sphere_mass_output(tmp_path, capsys):
    p = tmp_path / "blocks.txt"
    p.write_text("0000\n")
    code, out = invoke(
        capsys, "sphere-mass", "--alphabet", "01", "--in", str(p), "--D", "1/4",
        "--format", "json",
    )
    assert code == 0
    row = json.loads(out)[0]
    t = build_universal_table(4, 2, "plain")
    m = sphere_mass(BINARY.to_block("0000"), Fraction(1, 4), hamming(BINARY), t)
    assert row["mass"] == str(m.mass)
    assert row["sphere_size"] == 5


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


def test_sphere_mass_json_of_an_empty_sphere_is_json(tmp_path, capsys):
    # an empty sphere has no minimum length and an infinite -log2 mass:
    # null and "inf" in JSON, while the CSV keeps its empty field and inf
    p = tmp_path / "blocks.txt"
    p.write_text("0022\n0101\n")
    argv = ["sphere-mass", "--alphabet", "012", "--repro-alphabet", "01", "--dist",
            '{"kind":"per_letter_matrix","matrix":[[0,1],[1,0],[1,1]]}', "--in", str(p),
            "--D", "0"]
    code, out = invoke(capsys, *argv, "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=_refuse_constant)
    assert rows[0] == {"index": 0, "mass": "0", "min_bits": None, "neg_log2_mass": "inf",
                       "sphere_size": 0}
    assert rows[1] == {"index": 1, "mass": "1/20", "min_bits": 6,
                       "neg_log2_mass": 4.321928094887363, "sphere_size": 1}
    code, out = invoke(capsys, *argv, "--format", "csv")
    assert code == 0
    assert out == (
        "index,mass,sphere_size,min_bits,neg_log2_mass\n"
        "0,0,0,,inf\n"
        "1,1/20,1,6,4.321928094887363\n"
    )


def test_encode_decode_round_trip(tmp_path, capsys):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("011010\n000000\n111100\n")
    container = tmp_path / "out.bin"
    code, _ = invoke(
        capsys, "encode", "--alphabet", "01", "--in", str(blocks), "--D", "1/6",
        "--seed", "42", "--out", str(container),
    )
    assert code == 0
    assert container.read_bytes()[:2] == b"UR"
    code, out = invoke(capsys, "decode", "--alphabet", "01", "--in", str(container))
    assert code == 0
    decoded = out.splitlines()
    originals = ["011010", "000000", "111100"]
    for x, y in zip(originals, decoded):
        assert sum(a != b for a, b in zip(x, y)) <= 1  # semifaithful at D=1/6


def test_encode_decode_pipe(tmp_path, capsys):
    # Run both stages as ``python -m unirdc`` against the source tree the
    # suite imports, so the pipe needs no installed script and works from any
    # working directory.
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    prog = shlex.quote(sys.executable) + " -m unirdc"
    cmd = (
        "printf '0110\\n0011\\n' | "
        f"{prog} encode --alphabet 01 --in - --D 1/4 --seed 3 --out - | "
        f"{prog} decode --alphabet 01 --in -"
    )
    out = subprocess.run(
        cmd, shell=True, capture_output=True, text=True, check=True, env=env,
        timeout=60,
    ).stdout
    assert len(out.splitlines()) == 2

    blocks = tmp_path / "blocks.txt"
    blocks.write_text("0110\n0011\n")
    container = tmp_path / "out.bin"
    code, _ = invoke(
        capsys, "encode", "--alphabet", "01", "--in", str(blocks), "--D", "1/4",
        "--seed", "3", "--out", str(container),
    )
    assert code == 0
    code, expected = invoke(capsys, "decode", "--alphabet", "01", "--in", str(container))
    assert code == 0
    assert out == expected


def _piped(monkeypatch, argv, stdin: bytes) -> tuple[int, bytes]:
    """run(argv) in-process with stdin read from the bytes stdin, and the
    bytes it wrote to stdout, through both the text and the binary layer."""
    out = io.BytesIO()
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8"))
    monkeypatch.setattr(sys, "stdout", io.TextIOWrapper(out, encoding="utf-8", write_through=True))
    code = run(list(argv))
    sys.stdout.flush()
    return code, out.getvalue()


@pytest.mark.parametrize("argv", [
    ["lz-length", "--alphabet", "01"],
    ["sphere-mass", "--alphabet", "01", "--D", "1/4", "--format", "json"],
    ["encode", "--alphabet", "01", "--D", "1/4", "--seed", "3", "--out", "-"],
])
def test_text_stdin_is_read_as_the_file(tmp_path, monkeypatch, argv):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("0110\n0011\n1111\n")
    code, from_file = _piped(monkeypatch, [*argv, "--in", str(blocks)], b"")
    assert code == 0 and from_file
    assert _piped(monkeypatch, [*argv, "--in", "-"], blocks.read_bytes()) == (0, from_file)


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_encode_to_stdout_decodes_from_stdin_as_through_files(tmp_path, monkeypatch, mode):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("011010\n000000\n111100\n011010\n")
    coding = ["--alphabet", "01", "--D", "1/6", "--seed", "9", "--mode", mode, "--max-draws", "4"]
    container = tmp_path / "out.bin"
    assert run(["encode", *coding, "--in", str(blocks), "--out", str(container)]) == 0
    code, wire = _piped(monkeypatch, ["encode", *coding, "--in", "-", "--out", "-"],
                        blocks.read_bytes())
    assert code == 0 and wire == container.read_bytes()
    decoded = tmp_path / "decoded.txt"
    assert run(["decode", "--alphabet", "01", "--in", str(container), "--out", str(decoded)]) == 0
    code, out = _piped(monkeypatch, ["decode", "--alphabet", "01", "--in", "-"], wire)
    assert code == 0 and out == decoded.read_bytes()
    assert len(out.splitlines()) == 4


IMPORT_GUARD = """
import sys
from unirdc.cli import run

codes = [run(argv) for argv in ARGVS]
print(codes, "numpy.random" in sys.modules)
"""


def test_commands_leave_numpy_random_unimported(tmp_path):
    # importing numpy.random adds about 6 MB to a process's peak RSS; the
    # exact sampler reads MT19937 words from random.Random instead
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("011010000011\n000000111111\n111100001010\n")
    cfg = tmp_path / "ach.json"
    cfg.write_text(json.dumps({"experiment": "achievability", "n": 6, "trials": 4, "mode": "exact"}))
    argvs = []
    for mode in codec.MODES:
        container, decoded = tmp_path / f"{mode}.urc", tmp_path / f"{mode}.txt"
        argvs += [
            ["encode", "--alphabet", "01", "--in", str(blocks), "--D", "1/6", "--seed", "4",
             "--mode", mode, "--out", str(container)],
            ["decode", "--alphabet", "01", "--in", str(container), "--out", str(decoded)],
            ["sample", "--alphabet", "01", "--n", "12", "--seed", "4", "--count", "300",
             "--mode", mode, "--out", str(tmp_path / f"{mode}.sample")],
        ]
    argvs.append(["experiment", "--config", str(cfg), "--out", str(tmp_path / "ach.out")])
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", f"ARGVS = {argvs!r}\n" + IMPORT_GUARD],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout
    assert out == f"{[0] * len(argvs)} False\n"
    assert all((tmp_path / f"{mode}.sample").stat().st_size for mode in codec.MODES)


POOL_GUARD = """
import sys
import unirdc.cli

loaded = "concurrent.futures.process" in sys.modules
print(loaded, unirdc.cli.run(ARGV), "concurrent.futures.process" in sys.modules)
"""


def test_a_serial_run_leaves_the_process_pool_unimported(tmp_path):
    # the process pool loads multiprocessing, about 14 ms of import time and
    # 2 MB of RSS; only a sweep on more than one worker imports it
    cfg = tmp_path / "ach.json"
    cfg.write_text(json.dumps({"experiment": "achievability", "n": 6, "trials": 4, "mode": "exact"}))
    argv = ["experiment", "--config", str(cfg), "--jobs", "1", "--format", "json",
            "--out", str(tmp_path / "ach.out")]
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", f"ARGV = {argv!r}\n" + POOL_GUARD],
        capture_output=True, text=True, check=True, env=env, timeout=120,
    ).stdout
    assert out == "False 0 False\n"
    assert json.loads((tmp_path / "ach.out").read_text())["rows"]


def test_rd_curve(capsys):
    code, out = invoke(
        capsys, "rd-curve", "--alphabet", "01", "--grid", "1/10:3/10:1/10"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "D,R,E,minus_log_U_mass_over_n"
    first = lines[1].split(",")
    assert first[0] == "1/10"
    assert float(first[1]) == pytest.approx(1 - binary_entropy(0.1), abs=1e-6)
    assert float(first[2]) == pytest.approx(binary_entropy(0.1), abs=1e-6)


def test_rd_curve_with_mass_column(capsys):
    code, out = invoke(
        capsys, "rd-curve", "--alphabet", "01", "--grid", "1/4:1/4:1/4",
        "--source", "010101",
    )
    assert code == 0
    val = out.splitlines()[1].split(",")[3]
    t = build_universal_table(6, 2, "plain")
    m = sphere_mass(BINARY.to_block("010101"), Fraction(1, 4), hamming(BINARY), t)
    assert float(val) == pytest.approx(m.neg_log2_mass() / 6)


@pytest.mark.parametrize(
    "grid, digest",
    [
        ("1/10:3/10:1/10", "fd10059ff33d4707f27f6fb05b31edb3ca2f9699e83d6a15dcbd2d70c792aedf"),
        ("0:1/2:1/20", "f0148af32c7acab05bc3fa7402be947d569993b832a48f4401806d02d276c408"),
        ("1/7:9/10:3/22", "911e61261a157d364219fb3ab2135f963a71afe92085954a5bae09ed4c6ff834"),
    ],
)
def test_rd_curve_grid_output_is_pinned(capsys, grid, digest):
    code, out = invoke(
        capsys, "rd-curve", "--alphabet", "01", "--grid", grid, "--source", "010110"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_huge_rd_curve_grid_is_refused_before_any_point(capsys, monkeypatch):
    def no_point(*args):
        raise AssertionError("a grid point was computed")

    monkeypatch.setattr(unirdc.reference, "blahut_arimoto", no_point)
    code, out = invoke(capsys, "rd-curve", "--alphabet", "01", "--grid", "0:1e9:1e-9")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "enumeration_cap"


def test_rd_curve_bad_source_dist_is_precondition_error(capsys):
    code, out = invoke(
        capsys, "rd-curve", "--alphabet", "01", "--grid", "0:1/2:1/4",
        "--source-dist", "a,b",
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "matrix, code, digest",
    [
        ('[[0, 1], [1, "1e400"]]', 2, None),
        ('[[0, "1e400"], [1, 0]]', 2, None),
        # the largest entries a float holds keep their curve, or their refusal
        ('[[0, "1e308"], [1, 0]]', 0,
         "638d2db806408603becac607a6cd0b19cf800b5a396644ae8583e7cc20fb9015"),
        ('[[0, 1], [1, "1e308"]]', 1,
         "a68b1b3e052426a4146affa2086a24e288ea7bfef639102e8a61ba378c882105"),
    ],
    ids=["corner-1e400", "off-diagonal-1e400", "off-diagonal-1e308", "corner-1e308"],
)
def test_rd_curve_matrix_entry_beyond_a_float(capsys, matrix, code, digest):
    dist = f'{{"kind": "per_letter_matrix", "matrix": {matrix}}}'
    got, out = invoke(
        capsys, "rd-curve", "--alphabet", "01", "--grid", "0:1/2:1/4", "--dist", dist
    )
    assert got == code
    if digest is None:
        assert json.loads(out)["error"] == {
            "code": "precondition", "message": "matrix entries must fit in a float"
        }
    else:
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_rd_curve_near_the_float_limit_writes_nothing_to_stderr(capsys):
    # the slope times 1e308 overflows to -inf, whose weight 2^-inf is the
    # intended 0, so no NumPy overflow warning reaches the user
    dist = '{"kind": "per_letter_matrix", "matrix": [[0, "1e308"], [1, 0]]}'
    argv = ["rd-curve", "--alphabet", "01", "--grid", "0:1/2:1/4", "--dist", dist]
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "unirdc", *argv], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == invoke(capsys, *argv)[1]
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == (
        "638d2db806408603becac607a6cd0b19cf800b5a396644ae8583e7cc20fb9015"
    )


def test_rd_curve_with_costs_whose_weights_underflow(capsys):
    # 2^(-slope * 2000) is 0 in a float: each row is weighed against its minimum
    dist = '{"kind": "per_letter_matrix", "matrix": [[2000, 3000], [3000, 2000]]}'
    code, out = invoke(
        capsys, "rd-curve", "--alphabet", "01", "--grid", "2100:2200:100", "--dist", dist
    )
    assert (code, out) == (0, (
        "D,R,E,minus_log_U_mass_over_n\n"
        "2100,0.531004406,0.468995594,\n"
        "2200,0.278071905,0.721928095,\n"
    ))


def test_converse_check_wire_keys(capsys):
    code, out = invoke(
        capsys, "converse-check", "--alphabet", "01", "--n", "6", "--D", "1/6",
        "--epsilon", "1.0", "--type-counts", '{"0": 3, "1": 3}',
    )
    assert code == 0
    data = json.loads(out)
    assert set(data) == {
        "M0", "M_greedy", "Delta", "delta", "S_ell", "identity_ok",
        "uq2lz_worst_slack",
    }
    assert data["M0"] == "5"
    assert data["identity_ok"] is True
    assert data["S_ell"] == 3


@pytest.mark.parametrize(
    "ones, level, digest",
    [
        (4, "1/10", "07f0c4332efe92ead56abe818886014f6f11b03c178512cdd2895444bd8fe733"),
        (4, "1/5", "3210fa334e0b6e088722a64860f91d7396771611e9ad52ed91f0695388bf9611"),
        (5, "1/10", "660e8fd25d5e735650407c73f143a11abcebe89c4dc87d9bff4aef1252537e60"),
        (5, "1/5", "6f7c9e080b8b82e0a960cd7f7a347c0bcf9eb77099e867a1df7b78f2cca29c65"),
        (6, "1/10", "07f0c4332efe92ead56abe818886014f6f11b03c178512cdd2895444bd8fe733"),
        (6, "1/5", "b6d5819d7b61568f6821e9c807e1cb09d9b403a77b0a286fdf0de99dd8f0011f"),
    ],
)
def test_converse_check_pinned_stdout(capsys, ones, level, digest):
    # binary Hamming at n = 10, the classes with 4, 5 and 6 ones
    code, out = invoke(
        capsys, "converse-check", "--alphabet", "01", "--n", "10", "--D", level,
        "--type-counts", json.dumps({"0": 10 - ones, "1": ones}),
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_counting_seq(capsys):
    code, out = invoke(capsys, "counting-seq", "--alphabet", "01", "--depth", "2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 10 and data["c"] == 6 and data["bits"] == 17
    assert data["block"] == "0100011011"


def test_experiment_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "experiment": "converse", "n": 6, "level": "1/6", "epsilon": 1.0,
        "type_counts": {"0": 3, "1": 3},
    }))
    code, out = invoke(capsys, "experiment", "--config", str(cfg))
    assert code == 0
    data = json.loads(out)
    assert data["min_codebook_size"] == "5"
    assert data["schema_version"] == "1"


def test_experiment_requires_name(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"n": 4}')
    code, out = invoke(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "dist",
    [
        '{"kind": "hamming", "alphabets": 3}',
        '{"kind": "hamming", "alphabets": ["01"]}',
        '{"kind": "hamming", "alphabets": {"source": 3}}',
        '{"kind": "hamming", "alphabets": {"source": "01", "repro": ["0", "1"]}}',
    ],
)
def test_ill_typed_dist_alphabets_are_precondition_errors(tmp_path, capsys, dist):
    p = tmp_path / "b.txt"
    p.write_text("0101\n")
    code, out = invoke(
        capsys, "sphere-mass", "--alphabet", "01", "--in", str(p), "--D", "1/4",
        "--dist", dist,
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "matrix",
    [
        "[[0, NaN], [1, 0]]",
        "[[0, Infinity], [1, 0]]",
        '[[0, "abc"], [1, 0]]',
        '[[0, "1/0"], [1, 0]]',
        "[0, 1]",
        '"x"',
    ],
)
def test_malformed_dist_matrices_are_precondition_errors(tmp_path, capsys, matrix):
    p = tmp_path / "b.txt"
    p.write_text("0101\n")
    code, out = invoke(
        capsys, "sphere-mass", "--alphabet", "01", "--in", str(p), "--D", "1/4",
        "--dist", '{"kind": "per_letter_matrix", "matrix": %s}' % matrix,
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "field",
    [
        {"n": "x"},
        {"trials": "y"},
        {"n": 4.5},
        {"n": True},
        {"level": [1, 4]},
        {"level": "1/0"},
        {"seeds": "123"},
        {"seeds": [1, "2"]},
        {"source_blocks": [1010]},
        {"distortion": "hamming"},
        {"type_counts": [2, 2]},
        {"source_alphabet": 1},
        {"epsilon": "big"},
        {"base": "e"},
        {"epsilon": math.nan},
        {"base": math.nan},
        {"base": math.inf},
        {"epsilon": -math.inf},
    ],
    ids=json.dumps,
)
def test_ill_typed_config_fields_are_precondition_errors(tmp_path, capsys, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "achievability", "n": 4, "trials": 2} | field))
    code, out = invoke(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


def test_config_that_is_not_json_is_precondition_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"experiment": "converse", "n": 4')
    code, out = invoke(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "counts",
    [
        "[3, 3]",
        "nope",
        '{"0": "x", "1": 3}',
        '{"0": -1, "1": 7}',
        '{"0": 3.5, "1": 3.5}',
        '{"0": true, "1": 5}',
    ],
)
def test_bad_type_counts_are_precondition_errors(capsys, counts):
    code, out = invoke(
        capsys, "converse-check", "--alphabet", "01", "--n", "6", "--D", "1/6",
        "--type-counts", counts,
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "argv",
    [
        ["--n", "-2"],
        ["--n", "0"],
        ["--n", "1", "--type-counts", '{"0": 1}'],
        ["--n", "6", "--order", "0"],
        ["--n", "6", "--order", "-1"],
        ["--n", "6", "--epsilon", "nan"],
        ["--n", "6", "--epsilon", "inf"],
    ],
    ids=" ".join,
)
def test_converse_bad_length_or_order_is_precondition_error(capsys, argv):
    code, out = invoke(capsys, "converse-check", "--alphabet", "01", "--D", "1/6", *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize("experiment", ["achievability", "ensemble_failure"])
@pytest.mark.parametrize("field", [{"trials": 0}, {"seeds": []}], ids=json.dumps)
def test_empty_seed_list_is_precondition_error(tmp_path, capsys, experiment, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "n": 4, "trials": 2} | field))
    code, out = invoke(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize(
    "field, argv", [({"jobs": -3}, []), ({}, ["--jobs", "-2"])], ids=["config", "flag"]
)
def test_jobs_below_one_is_precondition_error(tmp_path, capsys, monkeypatch, field, argv):
    swept = []
    monkeypatch.setattr(unirdc.experiments, "_sweep", lambda *args: swept.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "achievability", "n": 4, "trials": 2} | field))
    code, out = invoke(capsys, "experiment", "--config", str(cfg), *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"
    assert swept == []


@pytest.mark.parametrize("experiment", ["achievability", "ensemble_failure", "converse"])
@pytest.mark.parametrize(
    "field", [{"level": "-1"}, {"source_blocks": []}, {"n": 0}, {"n": -2}], ids=json.dumps
)
def test_negative_level_or_no_sources_is_precondition_error(
    tmp_path, capsys, monkeypatch, experiment, field
):
    swept = []
    monkeypatch.setattr(unirdc.experiments, "_sweep", lambda *args: swept.append(args))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": experiment, "n": 4, "trials": 2} | field))
    code, out = invoke(capsys, "experiment", "--config", str(cfg))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"
    assert swept == []


def test_sphere_mass_at_a_negative_level_is_the_empty_sphere(tmp_path, capsys):
    p = tmp_path / "b.txt"
    p.write_text("0101\n")
    code, out = invoke(capsys, "sphere-mass", "--alphabet", "01", "--in", str(p), "--D", "-1")
    assert code == 0
    assert out.splitlines()[1] == "0,0,0,,inf"


def test_counting_seq_is_refused_beyond_the_cap(capsys, monkeypatch):
    # binary depth 16 is 1,966,082 symbols, past the default cap of 2^20
    monkeypatch.delenv("UNIRDC_CAP", raising=False)
    code, out = invoke(capsys, "counting-seq", "--alphabet", "01", "--depth", "16")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "enumeration_cap"


@pytest.mark.parametrize(
    "command", [["sphere-mass"], ["encode", "--seed", "1"]], ids=lambda c: c[0]
)
@pytest.mark.parametrize(
    "text, message",
    [("", "no input blocks"), ("\n\n", "no input blocks"),
     ("0101\n011\n", "all blocks must share one length")],
)
def test_bad_block_files_are_precondition_errors(tmp_path, capsys, command, text, message):
    p = tmp_path / "b.txt"
    p.write_text(text)
    out_file = tmp_path / "out"
    code, out = invoke(
        capsys, *command, "--alphabet", "01", "--in", str(p), "--D", "1/4",
        "--out", str(out_file),
    )
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "precondition"
    assert err["message"] == message


def test_bad_alphabet_is_precondition_error(tmp_path, capsys):
    p = tmp_path / "b.txt"
    p.write_text("aa\n")
    code, out = invoke(capsys, "lz-length", "--alphabet", "aa", "--in", str(p))
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "precondition"


def test_missing_file_is_precondition_error(capsys):
    code, out = invoke(capsys, "lz-length", "--alphabet", "01", "--in", "/no/such/file")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


@pytest.mark.parametrize("case", ["out_dir", "decode_in_dir", "lz_in_dir", "config_dir"])
def test_path_errors_are_precondition_errors(tmp_path, capsys, case):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("0110\n")
    folder = tmp_path / "folder"
    folder.mkdir()
    argv = {
        "out_dir": ["lz-length", "--alphabet", "01", "--in", str(blocks), "--out", str(folder)],
        "decode_in_dir": ["decode", "--alphabet", "01", "--in", str(folder)],
        "lz_in_dir": ["lz-length", "--alphabet", "01", "--in", str(folder)],
        "config_dir": ["experiment", "--config", str(folder)],
    }[case]
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


def test_corrupt_container_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XX not a container")
    code, out = invoke(capsys, "decode", "--alphabet", "01", "--in", str(bad))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "corrupt_stream"


def test_enumeration_cap_is_runtime_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("UNIRDC_CAP", "8")
    code, out = invoke(
        capsys, "sample", "--alphabet", "01", "--n", "5", "--seed", "1"
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "enumeration_cap"


def test_converse_on_a_long_type_class_is_an_error_object(capsys):
    # the class has 1200 members, and the 2^1200-block table is refused at
    # the cap before the class is listed
    code, out = invoke(
        capsys, "converse-check", "--alphabet", "01", "--n", "1200", "--D", "1/1200",
        "--type-counts", '{"0": 1199, "1": 1}',
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "enumeration_cap"


def test_container_beyond_any_table_is_an_error_object(tmp_path, capsys):
    # exact mode, K=2, n=65535, level 1/4, seed 0, one record: index 1
    header = b"UR" + struct.pack(">BBHBBQ", 0x10, 2, 0xFFFF, 1, 4, 0)
    record = struct.pack(">I", 2) + bytes([0b01000000])
    crafted = tmp_path / "huge.urc"
    crafted.write_bytes(header + struct.pack(">I", 1) + record)
    assert crafted.stat().st_size == 25
    code, out = invoke(capsys, "decode", "--alphabet", "01", "--in", str(crafted))
    assert code in (1, 2)
    err = json.loads(out)["error"]
    assert err["code"] == "enumeration_cap"
    assert "2^65535" in err["message"]


def test_container_witness_outside_the_alphabet_is_an_error_object(tmp_path, capsys):
    # exact mode, K=3, n=2, level 1/6, seed 11, one escape whose witness
    # holds the 2-bit symbols 2 and 3
    header = b"UR" + struct.pack(">BBHBBQ", 0x10, 3, 2, 1, 6, 11)
    record = struct.pack(">I", 5) + bytes([0b11011000])
    crafted = tmp_path / "bad.urc"
    crafted.write_bytes(header + struct.pack(">I", 1) + record)
    code, out = invoke(capsys, "decode", "--alphabet", "012", "--in", str(crafted))
    assert code == 1
    assert json.loads(out)["error"]["code"] == "corrupt_stream"


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_draw_budget_past_int64_is_refused_before_any_draw(tmp_path, capsys, monkeypatch, mode):
    # one record holding index 2^64, within a --max-draws of 2^70 but past
    # any int64 replay
    stream = codec.CodebookStream(seed=0, n=6, alphabet_size=2, mode=mode)
    crafted = tmp_path / "huge.urc"
    with open(crafted, "wb") as f:
        codec.write_container(f, stream, Fraction(1, 6), codec.Records([2**64], {}))
    monkeypatch.setattr(codec.CodebookStream, "sampler", lambda self: pytest.fail("drew"))
    code, out = invoke(
        capsys, "decode", "--alphabet", "01", "--in", str(crafted), "--max-draws", str(2**70)
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


SQUARED_ONTO_BINARY = {
    "kind": "joint_type_functional",
    "functional": "squared_disagreement",
    "alphabets": {"source": "012", "repro": "01"},
}


# Containers and decodes as the bitfeed sampler gave them when it built one
# Block per draw, so bitfeed seeds keep their codewords past the first draws.
@pytest.mark.parametrize(
    "texts, argv, dist, container_digest, decoded_digest",
    [
        # first hits up to 2560
        (
            [format(i * 2654435761 % 4096, "012b") for i in range(16)],
            ["--alphabet", "01", "--D", "1/12", "--seed", "5"],
            None,
            "eec9f04b4c6b888bd8ba7228f47ade5737c5b350729ca9ab17e1830110b6de40",
            "813828c6561284dc78ffdde41010b2243455a9e53c2cf291ff539cb83562b759",
        ),
        # 6 of the 12 blocks escape
        (
            ["000000", "121010", "210120", "012101", "101211", "021012",
             "110122", "202100", "001210", "211011", "010121", "102102"],
            ["--alphabet", "012", "--repro-alphabet", "01", "--D", "1/6", "--seed", "4",
             "--max-draws", "5"],
            SQUARED_ONTO_BINARY,
            "61149518570eaea066a22567c7f7e2d9c9b3c966d470ca56e20799600be3ffc9",
            "58a1a741a67a31fadd571fbf132278d2c097cb464c135392527f0fbb2c907143",
        ),
    ],
    ids=["binary-hamming", "ternary-squared-escapes"],
)
def test_bitfeed_containers_and_decodes_are_pinned(
    tmp_path, capsys, texts, argv, dist, container_digest, decoded_digest
):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("".join(t + "\n" for t in texts))
    if dist:
        (tmp_path / "dist.json").write_text(json.dumps(dist))
        argv = argv + ["--dist", str(tmp_path / "dist.json")]
    container = tmp_path / "out.urc"
    code, _ = invoke(
        capsys, "encode", *argv, "--in", str(blocks), "--mode", "bitfeed", "--out", str(container)
    )
    assert code == 0
    assert hashlib.sha256(container.read_bytes()).hexdigest() == container_digest
    code, out = invoke(capsys, "decode", "--alphabet", "01", "--in", str(container))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == decoded_digest


# Exact-mode containers and decodes as the record layer wrote and read them
# when each record was an EncodedMessage with its own bit string.
@pytest.mark.parametrize(
    "texts, argv, dist, container_digest, decoded_digest",
    [
        (
            [format(i * 2654435761 % 4096, "012b") for i in range(16)],
            ["--alphabet", "01", "--D", "1/12", "--seed", "5"],
            None,
            "03c730f596091ff5ceaad5f81cf9ed1620420d56e348d64aefea1089412a6d15",
            "d49718e4fa41760ae903f7443a0cd2b5a1263628aa3e79b40a06c6453274af7e",
        ),
        # 12 of the 16 blocks escape
        (
            [format(i * 2654435761 % 4096, "012b") for i in range(16)],
            ["--alphabet", "01", "--D", "1/12", "--seed", "5", "--max-draws", "40"],
            None,
            "c6099d5b9873743354eebec58077e5970e45511ea06a11d762e1129af6b0991f",
            "c89f7c794b8f692219db4a0a3fbd01af9a5cf1c079e90a8ef9778283289d17bb",
        ),
        # 3 of the 12 blocks escape
        (
            ["000000", "121010", "210120", "012101", "101211", "021012",
             "110122", "202100", "001210", "211011", "010121", "102102"],
            ["--alphabet", "012", "--repro-alphabet", "01", "--D", "1/6", "--seed", "4",
             "--max-draws", "5"],
            SQUARED_ONTO_BINARY,
            "984c15feabddd6647ba98b0378da35c7b58856f5f6678428458a1098342c8546",
            "b0e78e13fdc6b63f5ee704e58d0f3b126355f26315227b346048337e621b1dd2",
        ),
    ],
    ids=["binary-hamming", "binary-hamming-escapes", "ternary-squared-escapes"],
)
def test_exact_containers_and_decodes_are_pinned(
    tmp_path, capsys, texts, argv, dist, container_digest, decoded_digest
):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("".join(t + "\n" for t in texts))
    if dist:
        (tmp_path / "dist.json").write_text(json.dumps(dist))
        argv = argv + ["--dist", str(tmp_path / "dist.json")]
    container = tmp_path / "out.urc"
    code, _ = invoke(
        capsys, "encode", *argv, "--in", str(blocks), "--mode", "exact", "--out", str(container)
    )
    assert code == 0
    assert hashlib.sha256(container.read_bytes()).hexdigest() == container_digest
    code, out = invoke(capsys, "decode", "--alphabet", "01", "--in", str(container))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == decoded_digest


@pytest.mark.parametrize("mode", codec.MODES)
@pytest.mark.parametrize("budget", [[], ["--max-draws", "40"]], ids=["hits", "escapes"])
def test_cli_encode_and_decode_build_nothing_per_record(tmp_path, capsys, monkeypatch, mode, budget):
    # the container layer packs and parses records as ints and bytes: with
    # the message and bit objects made to fail, the bytes are the same
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("".join(format(i * 2654435761 % 4096, "012b") + "\n" for i in range(128)))
    encode = ["encode", "--alphabet", "01", "--in", str(blocks), "--D", "1/12", "--seed", "9",
              "--mode", mode, *budget]
    decode = ["decode", "--alphabet", "01", "--in", str(tmp_path / "c.urc")]
    assert invoke(capsys, *encode, "--out", str(tmp_path / "c.urc")) == (0, "")
    want = tmp_path.joinpath("c.urc").read_bytes(), invoke(capsys, *decode)
    with open(tmp_path / "c.urc", "rb") as f:
        assert bool(codec.read_container(f)[1].witnesses) == bool(budget)

    def fail(*args, **kwargs):
        raise AssertionError("built per record")

    monkeypatch.setattr(codec, "EncodedMessage", fail)
    monkeypatch.setattr(codec, "BitString", fail)
    assert invoke(capsys, *encode, "--out", str(tmp_path / "c.urc")) == (0, "")
    got = tmp_path.joinpath("c.urc").read_bytes(), invoke(capsys, *decode)
    assert got == want and want[1][0] == 0


# Four encoded containers: (encode flags, decode flags, source blocks).
CRAFTED_SOURCES = [
    # exact, every block hits
    (["--alphabet", "01", "--D", "1/4", "--seed", "7"], ["--alphabet", "01"],
     ["01100111", "00000000", "11111111", "10100101", "01100111"]),
    # exact, a budget of 3 draws at both ends: escapes among the hits
    (["--alphabet", "01", "--D", "1/8", "--seed", "7", "--max-draws", "3"],
     ["--alphabet", "01", "--max-draws", "3"],
     ["01100111", "00000000", "11111111", "10100101"]),
    # bitfeed, a budget of 5 draws: escapes among the hits
    (["--alphabet", "01", "--D", "1/8", "--seed", "3", "--mode", "bitfeed", "--max-draws", "5"],
     ["--alphabet", "01"], ["10010110", "00000000", "11110000", "01010101"]),
    # ternary n=6, capped table
    (["--alphabet", "012", "--D", "1/3", "--seed", "2", "--length-mode", "capped"],
     ["--alphabet", "012"], ["012012", "000000", "221100", "120201"]),
]
# sha256 over the (exit code, stdout) of the in-process decode of every
# variant _crafted_variants makes of the containers of CRAFTED_SOURCES
CRAFTED_DIGEST = "98490ba885c2de100c0276ad5338cfee83da328fb09c220fbdcf86a6b6ac0cae"


def _crafted_variants(raw: bytes):
    """Every single-bit flip of the header, the record count and the first
    two records; the container cut at every byte; the record count set to
    count - 1, count + 1, 0 and 2^32 - 1; and stray bytes after the last record."""
    end = 20
    for _ in range(2):
        end += 4 + (int.from_bytes(raw[end : end + 4], "big") + 7) // 8
    for bit in range(8 * end):
        flipped = bytearray(raw)
        flipped[bit >> 3] ^= 0x80 >> (bit & 7)
        yield bytes(flipped)
    for cut in range(len(raw)):
        yield raw[:cut]
    count = int.from_bytes(raw[16:20], "big")
    for wrong in (count - 1, count + 1, 0, 2**32 - 1):
        yield raw[:16] + wrong.to_bytes(4, "big") + raw[20:]
    for tail in (b"\x00", b"\xff", struct.pack(">I", 1) + b"\x80"):
        yield raw + tail


def test_crafted_containers_decode_to_pinned_verdicts(tmp_path, capsys):
    # the exit codes, decoded blocks and error objects of 1,212 damaged
    # containers, as the decoder gave them when it read records through
    # messages and bit strings
    digest = hashlib.sha256()
    variants = 0
    for flags, decode_flags, texts in CRAFTED_SOURCES:
        blocks = tmp_path / "blocks.txt"
        blocks.write_text("".join(t + "\n" for t in texts))
        container = tmp_path / "c.urc"
        assert invoke(capsys, "encode", *flags, "--in", str(blocks), "--out", str(container)) == (0, "")
        for raw in _crafted_variants(container.read_bytes()):
            container.write_bytes(raw)
            code, out = invoke(capsys, "decode", *decode_flags, "--in", str(container))
            digest.update(f"{code}\n{out}\0".encode())
            variants += 1
    assert variants == 1212
    assert digest.hexdigest() == CRAFTED_DIGEST


@pytest.mark.skipif(
    shutil.which("unirdc") is None,
    reason="no unirdc console script on PATH; install the package with "
    "'pip install --no-build-isolation -e .', which on setuptools older "
    "than 70.1 also needs the wheel package",
)
def test_installed_entry_point():
    out = subprocess.run(
        ["unirdc", "counting-seq", "--alphabet", "01", "--depth", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert out.returncode == 0
    assert json.loads(out.stdout)["block"] == "01"


@pytest.mark.parametrize(
    "flag, value",
    [("--seed", "-1"), ("--seed", str(1 << 64)), ("--D", "1/300")],
)
def test_unwritable_container_is_refused_before_any_draw(
    tmp_path, capsys, monkeypatch, flag, value
):
    def no_draws(*args):
        raise AssertionError("encode_streams was called")

    monkeypatch.setattr(unirdc.codec, "encode_streams", no_draws)
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("011010\n000000\n")
    args = {"--alphabet": "01", "--in": str(blocks), "--D": "1/6", "--seed": "42"}
    args[flag] = value
    code, out = invoke(capsys, "encode", *(part for item in args.items() for part in item))
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"


# -- --out files are overwritten in place -----------------------------------

COUNTING_ARGV = ["counting-seq", "--alphabet", "01", "--depth", "2"]


def _encode_argv(tmp_path):
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("011010\n000000\n111100\n")
    return ["encode", "--alphabet", "01", "--in", str(blocks), "--D", "1/6", "--seed", "42"]


def test_shorter_text_output_leaves_only_the_new_bytes(tmp_path, capsys):
    code, expected = invoke(capsys, *COUNTING_ARGV)
    assert code == 0
    out = tmp_path / "seq.json"
    out.write_text("x" * 4096)
    code, _ = invoke(capsys, *COUNTING_ARGV, "--out", str(out))
    assert code == 0
    assert out.read_text() == expected


def test_encode_to_a_file_writes_the_stdout_bytes(tmp_path, capsysbinary):
    argv = _encode_argv(tmp_path)
    assert run([*argv, "--out", "-"]) == 0
    expected = capsysbinary.readouterr().out
    assert expected[:2] == b"UR"
    container = tmp_path / "out.bin"
    container.write_bytes(b"\xff" * 4096)
    assert run([*argv, "--out", str(container)]) == 0
    assert container.read_bytes() == expected
    capsysbinary.readouterr()
    assert run(["decode", "--alphabet", "01", "--in", str(container)]) == 0
    assert len(capsysbinary.readouterr().out.splitlines()) == 3


def test_out_through_a_symlink_writes_the_target(tmp_path, capsys):
    target = tmp_path / "target.json"
    target.write_text("old contents that run longer than the new ones " * 20)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    code, _ = invoke(capsys, *COUNTING_ARGV, "--out", str(link))
    assert code == 0
    assert link.is_symlink()
    assert json.loads(target.read_text())["block"] == "0100011011"


def test_out_keeps_the_inode_and_mode(tmp_path, capsys):
    out = tmp_path / "seq.json"
    out.write_text("old")
    out.chmod(0o640)
    before = out.stat()
    code, _ = invoke(capsys, *COUNTING_ARGV, "--out", str(out))
    assert code == 0
    after = out.stat()
    assert after.st_ino == before.st_ino
    assert after.st_mode == before.st_mode
    assert json.loads(out.read_text())["depth"] == 2


@pytest.mark.skipif(not os.path.exists(os.devnull), reason="no null device")
def test_out_to_the_null_device(tmp_path, capsys):
    assert invoke(capsys, *COUNTING_ARGV, "--out", os.devnull) == (0, "")
    assert invoke(capsys, *_encode_argv(tmp_path), "--out", os.devnull) == (0, "")


def test_out_is_never_opened_with_o_trunc(tmp_path, capsys, monkeypatch):
    opened = []
    original = os.open

    def spy(path, flags, *args, **kwargs):
        opened.append((os.fspath(path), flags))
        return original(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", spy)
    text_out, container = tmp_path / "seq.json", tmp_path / "out.bin"
    for argv, out in ((COUNTING_ARGV, text_out), (_encode_argv(tmp_path), container)):
        out.write_bytes(b"\0" * 4096)
        code, _ = invoke(capsys, *argv, "--out", str(out))
        assert code == 0
    written = {path for path, flags in opened if flags & (os.O_WRONLY | os.O_RDWR)}
    assert written == {str(text_out), str(container)}
    assert not any(flags & os.O_TRUNC for _, flags in opened)


_HUGE = "1e99999999"  # Fraction() would expand it into a 100-million-digit integer


@pytest.mark.parametrize(
    "where",
    ["level", "grid", "source_dist", "config_level", "matrix_entry", "printable_level"],
)
def test_huge_decimal_exponent_is_refused_at_once(tmp_path, capsys, where):
    blocks = tmp_path / "b.txt"
    blocks.write_text("0101\n")
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "converse", "n": 4, "level": _HUGE}))
    matrix = json.dumps({"kind": "per_letter_matrix", "matrix": [[0, _HUGE], [1, 0]]})
    mass = ["sphere-mass", "--alphabet", "01", "--in", str(blocks)]
    argv = {
        "level": [*mass, "--D", _HUGE],
        "grid": ["rd-curve", "--alphabet", "01", "--grid", f"0:{_HUGE}:1"],
        "source_dist": ["rd-curve", "--alphabet", "01", "--grid", "0:1:1",
                        "--source-dist", f"{_HUGE},0"],
        "config_level": ["experiment", "--config", str(cfg)],
        "matrix_entry": [*mass, "--dist", matrix, "--D", "1/4"],
        # 10^4300 has 4301 digits: a report could not print it
        "printable_level": ["converse-check", "--alphabet", "01", "--n", "4", "--D", "1e4300"],
    }[where]
    start = time.perf_counter()
    code, out = invoke(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "precondition" and "4300-digit limit" in error["message"]


def test_decimal_exponents_within_the_limit_still_parse(tmp_path, capsys):
    blocks = tmp_path / "b.txt"
    blocks.write_text("0101\n")
    mass = ["sphere-mass", "--alphabet", "01", "--in", str(blocks), "--D"]
    assert invoke(capsys, *mass, "2.5e-1") == invoke(capsys, *mass, "1/4")
    assert invoke(capsys, *mass, "1e4299")[0] == 0


@pytest.mark.parametrize("form", ["inline", "file"])
@pytest.mark.parametrize("command", ["sphere-mass", "encode", "converse-check"])
def test_json_dist_without_alphabets_takes_the_command_alphabets(tmp_path, capsys, command, form):
    # a JSON --dist that names no alphabets measures over --alphabet and
    # --repro-alphabet, as the named measure does, not over "01"
    (tmp_path / "blocks.txt").write_text("012\n210\n111\n")
    (tmp_path / "hamming.json").write_text('{"kind": "hamming"}')
    dist = '{"kind": "hamming"}' if form == "inline" else str(tmp_path / "hamming.json")
    args = {
        "sphere-mass": ["--in", str(tmp_path / "blocks.txt"), "--D", "1/3"],
        "encode": ["--in", str(tmp_path / "blocks.txt"), "--D", "1/3", "--seed", "5",
                   "--repro-alphabet", "012"],
        "converse-check": ["--n", "6", "--D", "1/6"],
    }[command]

    def outcome(dist, out):
        code, text = invoke(capsys, command, "--alphabet", "012", *args, "--dist", dist,
                            "--out", str(tmp_path / out))
        return code, text, (tmp_path / out).read_bytes()

    named = outcome("hamming", "named.out")
    assert named[0] == 0
    assert outcome(dist, "json.out") == named


def test_config_distortion_without_alphabets_takes_the_config_alphabets():
    cfg = unirdc.ExperimentConfig(n=3, source_alphabet="012", distortion={"kind": "hamming"})
    assert cfg.spec() == hamming(unirdc.Alphabet("012"), BINARY)
    # the config's object is resolved as it is, with no JSON round trip
    half = Fraction(1, 2)
    cfg = unirdc.ExperimentConfig(
        n=3, distortion={"kind": "per_letter_matrix", "matrix": [[0, half], [half, 0]]}
    )
    assert cfg.spec().matrix == ((0, half), (half, 0))


@pytest.mark.parametrize("via", ["flags", "config"])
@pytest.mark.parametrize("order", ["11", "40"])
def test_order_that_does_not_divide_n_is_refused_before_listing_chunks(
    tmp_path, capsys, monkeypatch, via, order
):
    # order 40 used to list all 2^40 chunk kinds before the divisibility check
    def product(*iterables, repeat=1):
        assert repeat <= 10, f"listed chunk kinds of order {repeat} at n 10"
        return itertools.product(*iterables, repeat=repeat)

    monkeypatch.setattr(experiments, "product", product)
    if via == "flags":
        argv = ["converse-check", "--alphabet", "01", "--n", "10", "--order", order, "--D", "1/4"]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(
            {"experiment": "converse", "n": 10, "order": int(order), "level": "1/4"}
        ))
        argv = ["experiment", "--config", str(cfg)]
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"] == {
        "code": "precondition", "message": f"order {order} does not divide n 10"
    }


def test_cover_matrix_beyond_the_row_ceiling_is_an_error_object(capsys, monkeypatch):
    # the balanced class at n = 10 has 252 members, so its rows take 252 x 2^10
    # bytes; the ceiling is patched down to just below that
    monkeypatch.setattr(distortion_module, "_ROW_BYTES_CAP", 252 * 1024 - 1, raising=False)
    code, out = invoke(
        capsys, "converse-check", "--alphabet", "01", "--n", "10", "--D", "1/4",
        "--type-counts", '{"0": 5, "1": 5}',
    )
    assert code == 1
    assert json.loads(out)["error"]["code"] == "enumeration_cap"


def test_a_huge_block_length_is_refused_at_once():
    # 3^(10^9) has about 1.6e9 bits; the refusal reads its bit length instead
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("UNIRDC_CAP", None)
    argv = ["sample", "--alphabet", "012", "--n", "1000000000", "--seed", "0"]
    done = subprocess.run(
        [sys.executable, "-m", "unirdc", *argv], capture_output=True, text=True, env=env,
        timeout=10,
    )
    assert done.returncode == 1
    error = json.loads(done.stdout)["error"]
    assert error["code"] == "enumeration_cap"
    assert error["message"] == (
        "universal table needs at least 2^1584962500 states but the cap is 1048576"
    )


def test_a_huge_bitfeed_sample_is_refused_before_any_draw():
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env.pop("UNIRDC_CAP", None)
    argv = ["sample", "--alphabet", "01", "--n", "1000000000", "--seed", "0", "--mode", "bitfeed"]
    done = subprocess.run(
        [sys.executable, "-m", "unirdc", *argv], capture_output=True, text=True, env=env,
        timeout=10,
    )
    assert done.returncode == 1
    error = json.loads(done.stdout)["error"]
    assert error["code"] == "enumeration_cap"
    assert error["message"] == "bitfeed sample needs 1000000000 states but the cap is 1048576"


def test_a_huge_exact_sample_is_refused_before_any_draw(capsys, monkeypatch):
    # 10^12 draws of 4 symbols would not fit in memory; the table is built first
    monkeypatch.delenv("UNIRDC_CAP", raising=False)

    def no_sampler(*args):
        raise AssertionError("a sampler was made")

    monkeypatch.setattr(universal, "_ExactSampler", no_sampler)
    code, out = invoke(
        capsys, "sample", "--alphabet", "01", "--n", "4", "--seed", "1", "--count", "1000000000000"
    )
    assert code == 1
    error = json.loads(out)["error"]
    assert error["code"] == "enumeration_cap"
    assert error["message"] == "exact sample needs 4000000000000 states but the cap is 1048576"


def test_a_non_positive_converse_epsilon_is_refused_before_any_work(capsys, monkeypatch):
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)

    spy(experiments, "build_universal_table")
    spy(experiments, "enumerate_type_class")
    for module in ("unirdc.converse", "unirdc.distortion"):
        spy(importlib.import_module(module), "sphere_rows")
    for epsilon in ("0", "-1.5"):
        code, out = invoke(
            capsys, "converse-check", "--alphabet", "01", "--n", "14", "--D", "1/7",
            "--epsilon", epsilon,
        )
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "precondition", "message": "need n >= 1 and epsilon > 0"
        }
    assert calls == []
    # the spies pass a check with a positive epsilon through
    assert invoke(capsys, "converse-check", "--alphabet", "01", "--n", "6", "--D", "1/6")[0] == 0
    assert calls == ["build_universal_table", "enumerate_type_class", "sphere_rows"]


@pytest.mark.parametrize("mode", ["exact", "bitfeed"])
def test_block_files_end_lines_as_splitlines_does(tmp_path, capsys, mode):
    # CRLF, form feed and U+2028 each end a block of a non-ASCII alphabet
    blocks = ["αββααβαβ", "ββαααβαβ", "αααββββα", "βαβαβαβα"]
    decoded = []
    for name, text in [
        ("lf", "\n".join(blocks) + "\n"),
        ("mixed", blocks[0] + "\r\n" + blocks[1] + "\x0c\n" + blocks[2] + "\u2028" + blocks[3]),
    ]:
        path, container = tmp_path / f"{name}.txt", tmp_path / f"{name}.ur"
        path.write_text(text, encoding="utf-8")
        code, _ = invoke(
            capsys, "encode", "--alphabet", "αβ", "--in", str(path), "--D", "1/4", "--seed", "3",
            "--mode", mode, "--out", str(container),
        )
        assert code == 0
        decoded.append(invoke(capsys, "decode", "--alphabet", "αβ", "--in", str(container)))
    assert decoded[0] == decoded[1]
    code, out = decoded[0]
    assert code == 0 and len(out.splitlines()) == 4 and set(out) == set("αβ\n")


def test_mode_choices_are_the_library_vocabularies():
    choices = {}
    for sub in _parser()._subparsers._group_actions[0].choices.values():
        for action in sub._actions:
            if action.dest in ("mode", "length_mode"):
                choices.setdefault(action.dest, set()).add(action.choices)
    assert choices == {"mode": {codec.MODES}, "length_mode": {universal.LENGTH_MODES}}
    # the container's wire codes cover exactly these names
    assert tuple(codec._MODE_CODES) == codec.MODES
    assert tuple(codec._LENGTH_CODES) == universal.LENGTH_MODES
    with pytest.raises(unirdc.PreconditionError, match="unknown length mode"):
        build_universal_table(2, 2, "fast")


@pytest.mark.parametrize("flag", ["--in", "--dist", "--config"])
def test_input_that_is_not_utf8_is_precondition_error(tmp_path, capsys, flag):
    path = tmp_path / "latin1.txt"
    path.write_bytes(b"\xff0101\n")
    argv = {
        "--in": ["lz-length", "--alphabet", "01", "--in", str(path)],
        "--dist": ["sphere-mass", "--alphabet", "01", "--in", str(path), "--D", "0",
                   "--dist", str(path)],
        "--config": ["experiment", "--config", str(path)],
    }[flag]
    code, out = invoke(capsys, *argv)
    assert code == 2
    assert json.loads(out)["error"]["code"] == "precondition"
