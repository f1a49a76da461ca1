"""One measured process: set-up, timed passes, output checks, planted failures.

Started by run.py with the checkout root as working directory and ./src on
PYTHONPATH.  It prints "ready" once the package is imported and the inputs
are built, then writes its measurements as JSON to the --out file.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent


def _cpu(who) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def planned_passes(seconds: float, nominal_pass_s: float) -> int:
    """Passes per run, fixed by --seconds and the workload's nominal pass cost.

    Fixed rather than timed, so every run of a workload has the same sample
    count and so the same tail percentile.  The nominal costs are set so that
    each workload runs two passes at --seconds 20.
    """
    return max(2, int(seconds / nominal_pass_s + 0.5))


@dataclass
class Pass:
    wall: float  # calibrated seconds, summed over instances
    cpu: float  # calibrated seconds, summed over instances
    times: dict[str, float]  # calibrated seconds per instance key
    raw_wall: float


class Run:
    def __init__(self, pkg, wl, ref):
        self.pkg = pkg
        self.wl = wl
        self.ref = ref
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.verdicts: dict[tuple, list[str]] = {}
        self.sample = None

    def run_pass(self, order, tracer=None) -> Pass:
        """Time every instance once; check the outputs after the timed section.

        Times are calibrated around each instance; see hostspeed.
        """
        who = resource.RUSAGE_SELF if self.wl.in_process else resource.RUSAGE_CHILDREN
        outputs = []
        calibs = [hostspeed.calibrate()]
        for inst in order:
            cpu0 = _cpu(who)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    tracer.instance = inst.key
                    out = tracer.span("instance", self.wl.call, (self.pkg, inst))
                else:
                    out = self.wl.call(self.pkg, inst)
                err = None
            except Exception as exc:  # any raised error is a failed instance
                out, err = None, f"{type(exc).__name__}: {exc}"
            t = time.perf_counter() - t0
            u = _cpu(who) - cpu0
            calibs.append(hostspeed.calibrate())
            outputs.append((inst, out, err, t, u))
        times, cpus = {}, []
        for (inst, _, _, t, u), before, after in zip(outputs, calibs, calibs[1:]):
            times[inst.key] = hostspeed.calibrated(t, before, after)
            cpus.append(hostspeed.calibrated(u, before, after))
        for inst, out, err, *_ in outputs:
            self.attempted += 1
            problems = [err] if err else self.check(inst, self.wl.extract(out))
            if problems:
                self.failed += 1
                self.problems.append(f"{inst.key}: {problems[0]}")
        return Pass(sum(times.values()), sum(cpus), times, sum(o[3] for o in outputs))

    def check(self, inst, data):
        key = (inst.key, data)
        if key not in self.verdicts:
            self.verdicts[key] = self.wl.check(inst, data, self.ref[self.wl.name])
            self.sample = (inst, data)
        return self.verdicts[key]

    def planted_failures(self):
        """Corrupt one checked output in known ways; each must count as failed."""
        if self.sample is None:
            return {"no checked output to corrupt": False}
        inst, data = self.sample
        report = {}
        for label, bad in self.wl.planted(data):
            report[label] = bool(self.wl.check(inst, bad, self.ref[self.wl.name]))
        return report


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    t0 = time.perf_counter()
    import sdepthlab as pkg

    wl = workloads.WORKLOADS[args.workload]
    t1 = time.perf_counter()
    instances = wl.instances(pkg)
    inputs_s = time.perf_counter() - t1
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"import_s": t1 - t0, "inputs_s": inputs_s, "instances": len(instances)}
    run = Run(pkg, wl, workloads.load_reference())
    rng = random.Random(args.seed)
    order = list(instances)

    if not args.trace:
        passes = []
        for _ in range(planned_passes(args.seconds, wl.nominal_pass_s)):
            rng.shuffle(order)
            passes.append(run.run_pass(order))
        result.update(
            walls=[p.wall for p in passes],
            cpus=[p.cpu for p in passes],
            per_instance={i.key: [p.times[i.key] for p in passes] for i in instances},
            raw_walls=[p.raw_wall for p in passes],
        )
    else:
        from tracing import Tracer, layer_metrics, load_spilled

        rng.shuffle(order)
        plain = run.run_pass(order)
        rng.shuffle(order)
        if not wl.in_process:
            with tempfile.TemporaryDirectory(dir=Path(args.out).parent) as spill:
                traced_order = wl.instances(pkg, (str(HERE / "trace_cli.py"), spill))
                for inst in traced_order:
                    inst.arg.append("--timings")
                traced = run.run_pass(traced_order)
                spans = load_spilled(Path(spill))
            rows_ms, jobs = wl.rows_ms, workloads.SCAN_JOBS
        else:
            tracer = Tracer()
            tracer.install()
            traced = run.run_pass(order, tracer)
            spans, rows_ms, jobs = tracer.spans, [], 1
        layers = layer_metrics(spans, traced.raw_wall, jobs, rows_ms)
        layers["inputs_s"] = inputs_s
        layers["trace_overhead_ratio"] = traced.wall / plain.wall - 1
        result["layers"] = layers
        trace_file = Path(args.out).with_name(f"spans-{args.workload}-seed{args.seed}.json")
        trace_file.write_text(json.dumps(
            [dict(zip(("id", "parent", "name", "start", "end", "instance", "count", "error"), s))
             for s in spans]
        ))
        result["spans_file"] = str(trace_file)

    result["planted"] = run.planted_failures()
    result.update(attempted=run.attempted, failed=run.failed, problems=run.problems[:20])
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    result["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
