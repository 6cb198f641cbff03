import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import unirdc

DEMOS = Path(__file__).resolve().parent.parent / "demos"
# sha256 of the stdout of the demos whose output is pinned byte for byte
PINNED = {
    "codec_walkthrough.py": "29c185ce56c1541d3394e6437fb64f1ff0ea14f52743648c48caba1b3b490eec",
    "parse_and_lengths.py": "6e158f25a1d048d3e479953ed601970eb623677f882a5b6fde1096a930cdebf2",
}


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo):
    # Run each demo as a script against the source tree the suite imports.
    src = str(Path(unirdc.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, str(DEMOS / demo)], capture_output=True, text=True, env=env,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip()
    if demo in PINNED:
        assert hashlib.sha256(out.stdout.encode()).hexdigest() == PINNED[demo]
