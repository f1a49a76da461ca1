"""sdepthlab benchmark: time the package in ./src from outside and check every output.

Usage, from the root of a checkout:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see BENCHMARK.json for why each exists):
    sdepth-sqfree   certified sdepth of S/I, line and cycle ideals, n = 9..11
    sdepth-squares  certified sdepth of S/I^2, line and cycle ideals, n = 4..8
    betti-table     Hochster Betti tables, line and cycle ideals, n = 10
    scan-thm14      `sdepthlab scan --check thm14 --n-max 10 --jobs 2`

The last stdout line is one JSON object: correct, attempted, failed and the
metrics (end-to-end ones with --trace 0, per-layer ones with --trace 1).
Set-up is measured SETUP_PROBES times in fresh interpreters; the timed section
runs a fixed number of passes over the workload's instances, in an order drawn
from --seed.  End-to-end times are in calibrated seconds (see hostspeed.py);
per-layer times are raw span durations.  Run details with raw times, host
noise (calibration loop, nproc, load average) and spans go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
RUN_DEADLINE_S = 170

END_TO_END_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "instance_p50_s": "s",
    "instance_tail_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_ratio": "ratio",
}
PER_LAYER_UNITS = {
    "build_poset_s": "s",
    "poset_elements": "count",
    "search_s": "s",
    "search_found_s": "s",
    "search_refuted_s": "s",
    "levels_tried": "count",
    "levels_refuted": "count",
    "slowest_level_s": "s",
    "verify_s": "s",
    "certificate_intervals": "count",
    "time_limit_hits": "count",
    "restrict_s": "s",
    "restrict_calls": "count",
    "ranks_s": "s",
    "ranks_calls": "count",
    "faces": "count",
    "betti_self_s": "s",
    "rows": "count",
    "row_sum_s": "s",
    "slowest_row_s": "s",
    "pool_busy_ratio": "ratio",
    "emit_s": "s",
    "inputs_s": "s",
    "solver_self_s": "s",
    "homology_self_s": "s",
    "harness_self_s": "s",
    "other_self_s": "s",
    "trace_overhead_ratio": "ratio",
    "spans": "count",
}


class Deadline(Exception):
    pass


def host_noise() -> dict:
    return {
        "calibration_s": [hostspeed.calibrate() for _ in range(3)],
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": os.getloadavg(),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as (value, percentile).

    With ten or fewer samples there is no such percentile; the maximum is
    reported as percentile 100.
    """
    ordered = sorted(samples)
    if len(ordered) <= 10:
        return ordered[-1], 100.0
    idx = len(ordered) - 11
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def start_worker(args, out: Path, setup_only: bool, procs: list):
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--out", str(out),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(Path("src").resolve()), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, start_new_session=True)
    procs.append(proc)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != b"ready":
        proc.wait()
        raise RuntimeError(f"worker did not get ready (exit code {proc.returncode})")
    return proc, ready


def finish(proc) -> None:
    proc.stdout.read()
    if proc.wait() != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")


def measure(args, out_dir: Path, procs: list) -> tuple[dict, list[float], list[float]]:
    """Set-up probes in fresh interpreters (raw and calibrated), then the measured worker."""
    raw, setups = [], []
    for _ in range(SETUP_PROBES):
        before = hostspeed.calibrate()
        proc, ready = start_worker(args, out_dir / "probe.json", True, procs)
        after = hostspeed.calibrate()
        finish(proc)
        raw.append(ready)
        setups.append(hostspeed.calibrated(ready, before, after))
    out = out_dir / f"worker-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.unlink(missing_ok=True)
    proc, ready = start_worker(args, out, False, procs)
    raw.append(ready)
    finish(proc)
    return json.loads(out.read_text()), setups, raw


def metrics_of(args, res: dict, setups: list[float]) -> dict:
    if args.trace:
        return {k: res["layers"][k] for k in PER_LAYER_UNITS}
    per_instance = res["per_instance"].values()
    tail_value, _ = tail([t for times in per_instance for t in times])
    return {
        "wall_s": statistics.median(res["walls"]),
        "cpu_s": statistics.median(res["cpus"]),
        "instance_p50_s": statistics.median(statistics.median(ts) for ts in per_instance),
        "instance_tail_s": tail_value,
        "peak_rss_mb": res["peak_rss_mb"],
        "setup_s": statistics.median(setups),
        "ok_ratio": 1 - res["failed"] / res["attempted"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not Path("src/sdepthlab/__init__.py").is_file():
        print("error: run from the root of an sdepthlab checkout (no src/sdepthlab here)",
              file=sys.stderr)
        return 2
    out_dir = Path(".perfbench_out")
    out_dir.mkdir(exist_ok=True)

    def on_alarm(signum, frame):
        raise Deadline(f"run exceeded {RUN_DEADLINE_S} s")

    signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(RUN_DEADLINE_S)
    procs: list[subprocess.Popen] = []
    noise_before = host_noise()
    try:
        res, setups, raw_setups = measure(args, out_dir, procs)
    except (Deadline, RuntimeError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        for proc in procs:  # also reaps pool workers a killed scan left behind
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    noise_after = host_noise()

    metrics = metrics_of(args, res, setups)
    planted_ok = all(res["planted"].values())
    correct = res["failed"] == 0 and planted_ok
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "instances": res["instances"],
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "host_before": noise_before,
        "host_after": noise_after,
        "planted_failures_detected": res["planted"],
        "problems": res["problems"],
        "metrics": metrics,
    }
    if not args.trace:
        samples = sum(len(ts) for ts in res["per_instance"].values())
        _, pct = tail([t for ts in res["per_instance"].values() for t in ts])
        details.update(walls_s=res["walls"], raw_walls_s=res["raw_walls"], cpus_s=res["cpus"],
                       per_instance_s=res["per_instance"], instance_tail_percentile=pct)
        print(f"instance_p50_s is the median over {res['instances']} instances of each one's "
              f"median over {len(res['walls'])} passes; instance_tail_s is p{pct:.1f} of all "
              f"{samples} instance samples")
    else:
        print(f"spans written to {res['spans_file']}")
    print(f"host: calibration {min(noise_before['calibration_s']):.4f}/"
          f"{min(noise_after['calibration_s']):.4f} s (reference {hostspeed.REFERENCE_S} s),"
          f" nproc {noise_before['nproc']}, loadavg {noise_before['loadavg'][0]:.2f}/"
          f"{noise_after['loadavg'][0]:.2f}")
    for problem in res["problems"]:
        print(f"failed: {problem}", file=sys.stderr)
    if not planted_ok:
        print(f"error: planted failures went undetected: {res['planted']}", file=sys.stderr)
    (out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1))
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
