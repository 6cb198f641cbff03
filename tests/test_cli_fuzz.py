"""Arbitrary argv into cli.run: every call ends in a result or a JSON error.

Each example is one in-process call of a subcommand with flags drawn from
well-formed, malformed and boundary values, some flags left out and some
foreign ones added. The call must exit 0, or exit 1 or 2 with exactly one JSON
error object on stdout, or exit 2 from argparse with usage on stderr; run()
must never raise. Inputs stay small: a low UNIRDC_CAP, short blocks, few
draws, one job, and every output under a temporary directory.
"""
import contextlib
import io
import json
import os
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from unirdc.cli import run

_BAD_RATIONALS = ["x", "1/0", "nan", "inf", "1e99999999", "1//2", ""]


def _files(root):
    """Paths of the inputs the flags draw from, made once under root."""
    def write(name, text):
        path = root / name
        path.write_text(text)
        return str(path)

    tern = {"kind": "per_letter_matrix", "matrix": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
    files = {
        "bin": write("bin.txt", "0110\n1000\n"),
        "tern": write("tern.txt", "012\n210\n"),
        "empty": write("empty.txt", ""),
        "ragged": write("ragged.txt", "01\n011\n"),
        "dist": write("dist.json", json.dumps(tern | {"alphabets": {"source": "012"}})),
        "bad_json": write("bad.json", '{"kind": '),
        "ach": write("ach.json", json.dumps(
            {"experiment": "achievability", "n": 3, "level": "1/3", "trials": 2})),
        "ens": write("ens.json", json.dumps(
            {"experiment": "ensemble_failure", "n": 3, "level": "1/3", "trials": 2,
             "mode": "bitfeed"})),
        "conv": write("conv.json", json.dumps(
            {"experiment": "converse", "n": 4, "level": "1/4",
             "type_counts": {"0": 2, "1": 2}})),
        "conv_order": write("conv_order.json", json.dumps(
            {"experiment": "converse", "n": 4, "level": "1/4", "order": 40})),
        "no_name": write("no_name.json", '{"n": 3}'),
        "unknown": write("unknown.json", '{"experiment": "x", "n": 3}'),
        "list": write("list.json", "[1, 2]"),
        "missing": str(root / "missing.txt"),
        "dir": str(root),
        "out": str(root / "out.txt"),
        "out_missing_dir": str(root / "nowhere" / "out.txt"),
    }
    container = root / "c.urc"
    with contextlib.redirect_stdout(io.StringIO()):
        assert run(["encode", "--alphabet", "01", "--in", files["bin"], "--D", "1/4",
                    "--seed", "3", "--out", str(container)]) == 0
    truncated = root / "truncated.urc"
    truncated.write_bytes(container.read_bytes()[:-1])
    not_utf8 = root / "not_utf8.txt"
    not_utf8.write_bytes(b"\xff0101\n")
    return files | {
        "container": str(container), "truncated": str(truncated), "not_utf8": str(not_utf8)
    }


def _values(f):
    """flag -> values to draw from; None leaves the flag out."""
    return {
        "--alphabet": ["01", "012", "ab", "0", "00", "", None],
        "--repro-alphabet": ["01", "012", "0", None],
        "--in": [f["bin"], f["tern"], f["empty"], f["ragged"], f["missing"], f["dir"],
                 f["container"], f["truncated"], f["not_utf8"], None],
        "--n": ["-1", "0", "1", "2", "4", "6", "13", "x", "2.5", None],
        "--seed": ["-1", "0", "1", str(2**63), str(2**64), "x", None],
        "--count": ["-1", "0", "1", "3", "x", None],
        "--mode": ["exact", "bitfeed", "fair", None],
        "--length-mode": ["plain", "capped", "x", None],
        "--max-draws": ["-1", "0", "1", "64", str(2**63), "x", None],
        "--dist": ["hamming", "squared_disagreement", '{"kind": "hamming"}',
                   '{"kind": "per_letter_matrix", "matrix": [[0, 1], [1, 0]]}',
                   '{"kind": "per_letter_matrix", "matrix": [[0, "nan"], [1, 0]]}',
                   '{"kind": "hamming", "alphabets": {"source": "012"}}',
                   '{"kind": "hamming", "alphabets": 3}', '{"kind": "x"}', "{bad", "[1]",
                   f["dist"], f["bad_json"], f["not_utf8"], f["missing"], f["dir"], None],
        "--D": ["0", "1/4", "1/2", "1", "1e300", "-1/4", "1e-5", *_BAD_RATIONALS, None],
        "--format": ["csv", "json", "xml", None],
        "--out": [f["out"], "-", f["dir"], f["out_missing_dir"], None],
        "--grid": ["0:1/2:1/4", "0:1", "1:0:1/4", "0:1:0", "0:1:-1/4", "0:1:x",
                   "0:1:1/1000000", "-1/4:1/4:1/4", None],
        "--source-dist": ["1/2,1/2", "1,0", "1/3,1/3,1/3", "a,b", "1/2", "-1,2", None],
        "--source": ["0110", "012", "", "x", "0" * 20, None],
        "--order": ["-1", "0", "1", "2", "3", "40", str(2**40), "x", None],
        "--epsilon": ["1.0", "0", "-1", "nan", "inf", "x", "1e308", None],
        "--type-counts": ['{"0": 2, "1": 2}', '{"0": 1, "1": 1, "2": 2}', '{"00": 1, "11": 1}',
                          '{"0": -1, "1": 5}', '{"0": 2.5, "1": 1.5}', "[1]", "x", "{", None],
        "--config": [f["ach"], f["ens"], f["conv"], f["conv_order"], f["no_name"],
                     f["unknown"], f["list"], f["bad_json"], f["not_utf8"], f["missing"],
                     f["dir"], None],
        "--jobs": ["0", "1", "-1", "x", None],
        "--depth": ["-1", "0", "1", "2", "3", "40", "x", None],
    }


_COMMANDS = {
    "lz-length": ["--alphabet", "--in", "--length-mode", "--format", "--out"],
    "sample": ["--alphabet", "--n", "--seed", "--count", "--mode", "--length-mode", "--out"],
    "sphere-mass": ["--alphabet", "--in", "--length-mode", "--repro-alphabet", "--dist", "--D",
                    "--format", "--out"],
    "encode": ["--alphabet", "--in", "--seed", "--mode", "--length-mode", "--max-draws",
               "--repro-alphabet", "--dist", "--D", "--out"],
    "decode": ["--alphabet", "--in", "--seed", "--max-draws", "--out"],
    "rd-curve": ["--alphabet", "--grid", "--source-dist", "--source", "--length-mode",
                 "--repro-alphabet", "--dist", "--format", "--out"],
    "converse-check": ["--alphabet", "--n", "--order", "--epsilon", "--type-counts",
                       "--length-mode", "--repro-alphabet", "--dist", "--D", "--out"],
    "experiment": ["--config", "--jobs", "--format", "--out"],
    "counting-seq": ["--alphabet", "--depth", "--out"],
}


@st.composite
def _argv(draw, values):
    command = draw(st.sampled_from(sorted(_COMMANDS)))
    # mostly the subcommand's own flags, now and then one it does not take
    flags = _COMMANDS[command] + draw(st.lists(st.sampled_from(sorted(values)), max_size=1))
    argv = [command]
    for flag in flags:
        value = draw(st.sampled_from(values[flag]))
        if value is not None:
            argv += [flag, value]
    return argv


def _outcome(argv):
    """(exit code, stdout text, stderr text) of one in-process call."""
    raw, err = io.BytesIO(), io.StringIO()
    out = io.TextIOWrapper(raw, encoding="utf-8", write_through=True)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, raw.getvalue().decode("utf-8", "replace"), err.getvalue()


def _is_error_object(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        return False
    return (
        text.endswith("}\n")
        and text.count("\n") == 1
        and set(data) == {"error"}
        and set(data["error"]) == {"code", "message"}
    )


def test_arbitrary_argv_exits_cleanly(tmp_path):
    values = _values(_files(tmp_path))

    @settings(max_examples=300, deadline=2000, derandomize=True, database=None)
    @given(_argv(values))
    def check(argv):
        code, out, err = _outcome(argv)
        assert (
            code == 0
            or (code in (1, 2) and _is_error_object(out))
            or (code == 2 and not out and err.startswith("usage: "))
        ), (argv, code, out, err)

    with patch.dict(os.environ, {"UNIRDC_CAP": str(1 << 12)}):
        check()
