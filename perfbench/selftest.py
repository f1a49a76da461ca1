"""Planted-failure self-test: wrong values and corrupted outputs must count as failed.

Run from the repository root: python3 perfbench/selftest.py
It passes a few real outputs through the same pass-and-count path the
benchmark uses, corrupting some of them on the way, and exits 0 only when
exactly the corrupted ones are counted as failed.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, "src")
sys.path.insert(0, str(HERE))

import sdepthlab as pkg  # noqa: E402

import workloads  # noqa: E402
from worker import Run  # noqa: E402

# workload -> {instance key: planted corruption, or None for the honest output}
PLANS = {
    "sdepth-sqfree": {
        "line-9-4": "wrong value",
        "cycle-9-4": "certificate missing an interval",
        "line-9-5": None,
    },
    "sdepth-squares": {"line-4-2": "certificate with a repeated interval", "cycle-4-2": None},
    "betti-table": {"line-10-2": "wrong Betti number", "cycle-10-3": "missing Betti entry",
                    "line-10-9": None},
    "scan-thm14": {"m2": None, "m3": "changed output byte", "m4": "wrong exit code"},
}


class Planted:
    """A workload whose outputs for planned instances are corrupted after the call."""

    def __init__(self, wl, plan, ref):
        self.wl = wl
        self.plan = plan
        self.ref = ref
        self.name = wl.name
        self.in_process = wl.in_process

    def call(self, pkg, inst):
        if not self.in_process:  # the recorded honest output; no subprocess needed
            return inst.key, self.wl.expected(inst, self.ref)
        return inst.key, self.wl.call(pkg, inst)

    def extract(self, out):
        key, raw = out
        data = self.wl.extract(raw)
        label = self.plan[key]
        return data if label is None else dict(self.wl.planted(data))[label]

    def check(self, inst, data, ref):
        return self.wl.check(inst, data, ref)


def main() -> int:
    ref = workloads.load_reference()
    ok = True
    for name, plan in PLANS.items():
        wl = workloads.WORKLOADS[name]
        base = {i.key: i for i in wl.instances(pkg)}
        order = [base[key] for key in plan]
        run = Run(pkg, Planted(wl, plan, ref[name]), ref)
        run.run_pass(order)
        expected = sum(1 for label in plan.values() if label)
        passed = run.attempted == len(plan) and run.failed == expected
        ok &= passed
        print(f"{'ok  ' if passed else 'FAIL'} {name}: {run.failed} of {run.attempted} failed,"
              f" {expected} planted")
        for problem in run.problems:
            print(f"     {problem}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
