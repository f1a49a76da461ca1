"""Record perfbench/reference.json from the package in ./src.

Run from the repository root: python3 perfbench/record.py
The committed file was recorded at the commit that introduced the benchmark;
re-record only when a change is meant to alter the values it holds.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

sys.path.insert(0, "src")
sys.path.insert(0, str(Path(__file__).resolve().parent))
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")]))

import sdepthlab as pkg  # noqa: E402

import oracles  # noqa: E402
import workloads  # noqa: E402


def main() -> None:
    ref = {}
    for name in ("sdepth-sqfree", "sdepth-squares"):
        wl = workloads.WORKLOADS[name]
        ref[name] = {i.key: wl.call(pkg, i).value for i in wl.instances(pkg)}
    wl = workloads.WORKLOADS["betti-table"]
    ref["betti-table"] = {
        i.key: oracles.betti_digest(wl.call(pkg, i).entries) for i in wl.instances(pkg)
    }
    whole = workloads.Instance("scan", [sys.executable, "-m", "sdepthlab.cli", *workloads.SCAN_ARGS])
    stdout, code = workloads.WORKLOADS["scan-thm14"].call(pkg, whole)
    ref["scan-thm14"] = {"stdout": stdout.decode(), "exit_code": code}
    (workloads.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
