"""The unirdc names the benchmark harness in perfbench/ looks up still exist.

perfbench/tracer.py wraps each function of its TARGETS list by module and
name, and perfbench/workloads.py imports a few names directly; a rename in
the package would break the benchmark without failing any other test, and a
check that stops calling the wrapped names would leave its counters at 0.
"""
import importlib
import importlib.util
from pathlib import Path

from unirdc.cli import run
from unirdc.codec import index_code_length, read_container
from unirdc.universal import build_universal_table, sample_exact

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_perfbench_names_resolve():
    tracer = _tracer_module()
    assert len(tracer.TARGETS) == 17
    for module, attr, _, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)
    for module, attr in [
        ("unirdc.universal", "sample_exact"),
        ("unirdc.universal", "build_universal_table"),
        ("unirdc.codec", "read_container"),
        ("unirdc.codec", "DEFAULT_MAX_DRAWS"),
    ]:
        assert hasattr(importlib.import_module(module), attr), (module, attr)


def test_a_traced_converse_check_runs_through_the_public_converse_functions(tmp_path):
    tracer = _tracer_module()
    for module, _, _, _ in tracer.TARGETS:
        importlib.import_module(module)
    traced = tracer.Tracer()
    traced.install()
    try:
        code = run(["converse-check", "--alphabet", "01", "--n", "10", "--D", "1/10",
                    "--out", str(tmp_path / "report.json")])
    finally:
        traced.uninstall()
    assert code == 0
    calls = traced.totals()[0]
    for name in ("covering", "double_count", "greedy", "length_bound"):
        assert calls[f"converse.{name}"] == 1, name
    assert traced.counters["converse.covering_pairs"] == 252 * 2**10


def test_container_records_expose_what_the_codec_workload_reads(tmp_path, capsys):
    # perfbench/workloads.py checks codec_n12 by reading, off each item of
    # read_container(f)[1], escape, index, payload.value, payload.length and
    # total_bits: the witness of an escape is its payload in n bits, an
    # index record decodes to the draw at its index, and the wire bits and
    # container bytes are counted from total_bits
    n = 8
    blocks = tmp_path / "blocks.txt"
    blocks.write_text("01100111\n00000000\n11111111\n10100101\n01100111\n")
    urc, out = tmp_path / "c.urc", tmp_path / "out.txt"
    assert run(["encode", "--alphabet", "01", "--in", str(blocks), "--seed", "7",
                "--D", "1/8", "--mode", "exact", "--max-draws", "3", "--out", str(urc)]) == 0
    assert run(["decode", "--alphabet", "01", "--in", str(urc), "--out", str(out)]) == 0
    capsys.readouterr()
    with open(urc, "rb") as f:
        header, messages = read_container(f)
    assert len(messages) == 5 and header.seed == 7 and header.n == n
    indices = [m.index for m in messages if not m.escape]
    assert indices and len(indices) < len(messages)  # index and escape records both
    replay = sample_exact(build_universal_table(n, 2), 7, max(indices))
    decoded = out.read_text().splitlines()
    for m, line in zip(messages, decoded, strict=True):
        assert m.escape in (True, False)
        if m.escape:
            assert m.index is None and m.payload.length == n
            assert format(m.payload.value, f"0{m.payload.length}b") == line
        else:
            assert 1 <= m.index <= 3
            assert "".join(map(str, replay[m.index - 1].symbols)) == line
            assert m.payload.length == index_code_length(m.index)
        assert m.total_bits == 1 + m.payload.length
    assert urc.stat().st_size == 20 + sum(4 + (m.total_bits + 7) // 8 for m in messages)
