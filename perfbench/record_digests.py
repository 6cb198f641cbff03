#!/usr/bin/env python3
"""Record the SHA-256 of every output of every workload at the default seed.

    python3 perfbench/record_digests.py [WORKLOAD ...]

Runs each call of each named workload (default: all) once, checks it, and
updates ``perfbench/digests.json``. The benchmark compares default-seed outputs
against this file on every call, so a change that alters a report, a mass
or the codeword stream fails there. Re-record only when an output is meant
to change.
"""
from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main(names: list[str]) -> int:
    cli = run.load_program()
    path = run.HERE / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    digests = {k: v for k, v in digests.items() if k in workloads.BUILDERS}
    for name in names or list(workloads.BUILDERS):
        work = run.OUT / f"record-{name}"
        try:
            wl = workloads.build(name, workloads.DEFAULT_SEED, work)
            digests[name] = {}
            for call in wl.calls:
                if cli.run(call.argv) != 0:
                    raise SystemExit(f"{name} {call.key}: the call failed")
                ok, detail, digest, _ = call.check()
                if not ok:
                    raise SystemExit(f"{name} {call.key}: {detail}")
                digests[name][call.key] = digest
            print(f"{name}: {len(wl.calls)} outputs", file=sys.stderr)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
