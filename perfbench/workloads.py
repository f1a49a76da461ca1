"""The four workloads: their instances, the timed call, and the output check.

A workload builds its inputs through the package's public API during set-up,
calls one public entry point per instance in the timed section, and turns each
output into plain data that the oracles check afterwards.
"""

from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import oracles

HERE = Path(__file__).resolve().parent
FRONTIER = json.loads((HERE / "frontier.json").read_text())

# Per-instance limit passed to the solver.  Every timed instance finishes in
# well under a third of it at the seed; see frontier.json for those that do not.
TIME_LIMIT_S = 30.0

SCAN_JOBS = 2
SCAN_ARGS = ("scan", "--check", "thm14", "--n-max", "10", "--jobs", str(SCAN_JOBS))
SCAN_M = range(2, 10)
SCAN_TIMEOUT_S = 150


@dataclass
class Instance:
    key: str
    arg: object  # the package input, or the command line for the scan
    kind: str = ""
    n: int = 0
    m: int = 0


def _family_ideal(pkg, kind, n, m, power):
    ideal = (pkg.line_path_ideal if kind == "line" else pkg.cycle_path_ideal)(n, m)
    if power == 2:
        ideal = pkg.minimalize([a.times(b) for a in ideal.gens for b in ideal.gens], n)
    return ideal


class SdepthWorkload:
    """Certified sdepth of S/I^power over a grid of line and cycle path ideals."""

    in_process = True

    def __init__(self, name, ns, power, nominal_pass_s):
        self.name = name
        self.ns = ns
        self.power = power
        self.nominal_pass_s = nominal_pass_s
        self._gens = {}

    def instances(self, pkg):
        skip = {(f["kind"], f["n"], f["m"]) for f in FRONTIER[self.name]}
        out = []
        for n in self.ns:
            for m in range(2, n):
                for kind in ("line", "cycle"):
                    if (kind, n, m) not in skip:
                        pair = pkg.ring_quotient(_family_ideal(pkg, kind, n, m, self.power))
                        out.append(Instance(f"{kind}-{n}-{m}", pair, kind, n, m))
        return out

    def call(self, pkg, inst):
        return pkg.sdepth_of_pair(inst.arg, time_limit_s=TIME_LIMIT_S)

    @staticmethod
    def extract(result):
        intervals = tuple(
            (bottom.exponents, frozenset(zvars)) for bottom, zvars in result.certificate.intervals
        )
        return (result.value, intervals)

    def check(self, inst, data, ref):
        value, intervals = data
        problems = oracles.check_sdepth_value(
            inst.kind, inst.n, inst.m, self.power, value, ref[inst.key]
        )
        gens = self._gens.get(inst.key)
        if gens is None:
            supports = oracles.path_generators(inst.kind, inst.n, inst.m)
            gens = self._gens[inst.key] = oracles.exponent_vectors(inst.n, supports, self.power)
        return problems + oracles.check_certificate(gens, list(intervals), value)

    @staticmethod
    def planted(data):
        value, intervals = data
        yield "wrong value", (value + 1, intervals)
        yield "certificate missing an interval", (value, intervals[1:])
        yield "certificate with a repeated interval", (value, intervals + intervals[:1])


class BettiWorkload:
    """Full Hochster Betti table of S/I for the n = 10 line and cycle ideals."""

    name = "betti-table"
    nominal_pass_s = 15.0
    in_process = True

    def instances(self, pkg):
        return [
            Instance(f"{kind}-10-{m}", _family_ideal(pkg, kind, 10, m, 1), kind, 10, m)
            for m in range(2, 10)
            for kind in ("line", "cycle")
        ]

    def call(self, pkg, inst):
        return pkg.hochster_betti(inst.arg)

    @staticmethod
    def extract(table):
        return tuple(sorted(table.entries.items()))

    def check(self, inst, data, ref):
        return oracles.check_betti(inst.kind, inst.n, inst.m, dict(data), ref[inst.key])

    @staticmethod
    def planted(data):
        (key, rank), rest = data[-1], data[:-1]
        yield "wrong Betti number", rest + ((key, rank + 1),)
        yield "missing Betti entry", rest


class ScanWorkload:
    """`sdepthlab scan --check thm14 --n-max 10 --jobs 2`, one subprocess per m.

    Each m is its own instance (`--m-min m --m-max m`), so the host-speed
    calibration brackets every part of the grid; one invocation for the whole
    grid is a single nine-second instance whose calibrated time spread 0.12 to
    0.19 between runs.  The rows of one m are the same bytes as the matching
    rows of the whole scan.
    """

    name = "scan-thm14"
    nominal_pass_s = 18.0
    in_process = False

    def __init__(self):
        self.rows_ms: list[int] = []  # the ms column of every --timings run

    def instances(self, pkg, launcher=("-m", "sdepthlab.cli")):
        return [
            Instance(f"m{m}", [sys.executable, *launcher, *SCAN_ARGS,
                               "--m-min", str(m), "--m-max", str(m)], m=m)
            for m in SCAN_M
        ]

    def call(self, pkg, inst):
        """Run the CLI; with --timings, add the ms column to rows_ms and zero it in the bytes."""
        proc = subprocess.run(inst.arg, capture_output=True, timeout=SCAN_TIMEOUT_S)
        if "--timings" not in inst.arg:
            return proc.stdout, proc.returncode
        lines = proc.stdout.decode().splitlines(keepends=True)
        zeroed = lines[:1]
        for line in lines[1:]:
            head, _, ms = line.rstrip("\n").rpartition(",")
            self.rows_ms.append(int(ms))
            zeroed.append(f"{head},0\n")
        return "".join(zeroed).encode(), proc.returncode

    @staticmethod
    def expected(inst, ref):
        """The recorded whole-grid scan output cut down to the rows of this m."""
        lines = ref["stdout"].splitlines(keepends=True)
        rows = [line for line in lines[1:] if line.split(",")[1] == str(inst.m)]
        return "".join(lines[:1] + rows).encode(), ref["exit_code"]

    @staticmethod
    def extract(out):
        return out

    def check(self, inst, data, ref):
        stdout, code = data
        ref_stdout, ref_code = self.expected(inst, ref)
        return oracles.check_scan(stdout, code, ref_stdout, ref_code)

    @staticmethod
    def planted(data):
        stdout, code = data
        yield "changed output byte", (stdout.replace(b",ok,", b",ox,", 1), code)
        yield "wrong exit code", (stdout, code + 2)


WORKLOADS = {
    w.name: w
    for w in (
        SdepthWorkload("sdepth-sqfree", (9, 10, 11), 1, 10.0),
        SdepthWorkload("sdepth-squares", (4, 5, 6, 7, 8), 2, 9.0),
        BettiWorkload(),
        ScanWorkload(),
    )
}


def load_reference():
    return json.loads((HERE / "reference.json").read_text())
