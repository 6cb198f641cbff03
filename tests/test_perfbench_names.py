"""The unirdc names the benchmark harness in perfbench/ looks up still exist.

perfbench/tracer.py wraps each function of its TARGETS list by module and
name, and perfbench/workloads.py imports a few names directly; a rename in
the package would break the benchmark without failing any other test.
"""
import importlib
import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_perfbench_names_resolve():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", PERFBENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
