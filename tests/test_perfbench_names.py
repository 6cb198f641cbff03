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
