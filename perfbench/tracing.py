"""In-memory spans around the package's public functions.

``Tracer.install`` replaces each wrapped function in every loaded
``sdepthlab`` module that holds it, so calls made through any import path are
recorded.  A span is (id, parent id, name, start, end, instance id, work
count, error class name or ""); ids are ``pid:n`` so spans from forked pool workers merge without clashes.
Pool workers inherit the open span stack through fork, which makes their
top-level spans children of the span that started the pool.
"""

from __future__ import annotations

import json
import os
import sys
import time
from functools import wraps
from pathlib import Path

# (module, attribute, owning class or None) of every wrapped public function.
WRAPPED = (
    ("sdepthlab.solver", "build_poset", None),
    ("sdepthlab.solver", "exists_partition", None),
    ("sdepthlab.solver", "verify_decomposition", None),
    ("sdepthlab.homology", "restrict", "SimplicialComplex"),
    ("sdepthlab.homology", "faces", "SimplicialComplex"),
    ("sdepthlab.homology", "homology_ranks", None),
    ("sdepthlab.homology", "hochster_betti", None),
    ("sdepthlab.homology", "depth_squarefree", None),
    ("sdepthlab.harness", "run_scan", None),
    ("sdepthlab.harness", "_compute_rows", None),
    ("sdepthlab.harness", "emit_csv", None),
)

LAYER = {
    "build_poset": "solver",
    "exists_partition": "solver",
    "verify_decomposition": "solver",
    "restrict": "homology",
    "faces": "homology",
    "homology_ranks": "homology",
    "hochster_betti": "homology",
    "depth_squarefree": "homology",
    "run_scan": "harness",
    "_compute_rows": "harness",
    "emit_csv": "harness",
    "instance": "other",
}


def _count(name, args, result):
    """The work count a span carries: poset size, intervals checked, faces listed."""
    if name == "build_poset":
        return len(result)
    if name == "verify_decomposition":
        return len(args[1])
    if name == "faces":
        return len(result)
    if name == "exists_partition":
        return -1 if result is None else 1
    return 0


class Tracer:
    def __init__(self, spill_dir: Path | None = None):
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self.instance = ""
        self.pid = os.getpid()
        self.serial = 0
        self.spill_dir = spill_dir

    def _fresh_process(self):
        # First span in a forked child: drop the parent's spans, keep its stack.
        self.pid = os.getpid()
        self.spans = []
        if self.spill_dir is not None:
            import multiprocessing.util

            multiprocessing.util.Finalize(None, self.spill, exitpriority=100)

    def span(self, name, fn, args=(), kwargs=None):
        if os.getpid() != self.pid:
            self._fresh_process()
        self.serial += 1
        sid = f"{self.pid}:{self.serial}"
        parent = self.stack[-1] if self.stack else ""
        self.stack.append(sid)
        error = ""
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
            return result
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self.stack.pop()
            count = 0 if error else _count(name, args, result)
            self.spans.append((sid, parent, name, start, end, self.instance, count, error))

    def wrap(self, name, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            if name == "_compute_rows":
                tracer.instance = "row-{1}-{2}".format(*args[0])
            return tracer.span(name, fn, args, kwargs)

        return traced

    def install(self):
        """Wrap every function in WRAPPED wherever a loaded sdepthlab module holds it."""
        import importlib

        modules = [m for k, m in sorted(sys.modules.items()) if k.startswith("sdepthlab") and m]
        for modname, attr, owner in WRAPPED:
            home = importlib.import_module(modname)
            if owner is not None:
                cls = getattr(home, owner)
                setattr(cls, attr, self.wrap(attr, getattr(cls, attr)))
                continue
            original = getattr(home, attr, None)
            if original is None:
                continue
            traced = self.wrap(attr, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)

    def spill(self):
        """Write this process's spans to the spill directory (pool workers at exit)."""
        path = self.spill_dir / f"spans-{os.getpid()}.json"
        path.write_text(json.dumps(self.spans))


def load_spilled(spill_dir: Path) -> list[tuple]:
    spans = []
    for path in sorted(spill_dir.glob("spans-*.json")):
        spans.extend(tuple(s) for s in json.loads(path.read_text()))
    return spans


def self_times(spans, group=lambda name: LAYER.get(name, "other")) -> dict[str, float]:
    """Per group of span names (default: per layer), durations minus the union of
    the children's intervals."""
    children: dict[str, list[tuple[float, float]]] = {}
    for sid, parent, _n, start, end, *_ in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, float] = {}
    for sid, _p, name, start, end, *_ in spans:
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(sid, ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        key = group(name)
        out[key] = out.get(key, 0.0) + (end - start) - covered
    return out


def layer_metrics(spans, wall_s: float, jobs: int, rows_ms: list[int]) -> dict[str, float]:
    """The per-layer metrics of one traced pass."""

    def of(name):
        return [s for s in spans if s[2] == name]

    def total(items):
        return sum(s[4] - s[3] for s in items)

    searches = of("exists_partition")
    found = [s for s in searches if s[6] == 1]
    refuted = [s for s in searches if s[6] == -1]
    ranks = of("homology_ranks")
    selfs = self_times(spans)
    row_sum_s = sum(rows_ms) / 1000
    metrics = {
        "build_poset_s": total(of("build_poset")),
        "poset_elements": sum(s[6] for s in of("build_poset")),
        "search_s": total(searches),
        "search_found_s": total(found),
        "search_refuted_s": total(refuted),
        "levels_tried": len(searches),
        "levels_refuted": len(refuted),
        "slowest_level_s": max((s[4] - s[3] for s in searches), default=0.0),
        "verify_s": total(of("verify_decomposition")),
        "certificate_intervals": sum(s[6] for s in of("verify_decomposition")),
        "time_limit_hits": sum(1 for s in searches if s[7] == "TimeLimitExceededError"),
        "restrict_s": total(of("restrict")),
        "restrict_calls": len(of("restrict")),
        "ranks_s": total(ranks),
        "ranks_calls": len(ranks),
        "faces": sum(s[6] for s in of("faces")),
        "betti_self_s": self_times(spans, group=lambda name: name).get("hochster_betti", 0.0),
        "rows": len(rows_ms),
        "row_sum_s": row_sum_s,
        "slowest_row_s": max(rows_ms, default=0) / 1000,
        "pool_busy_ratio": row_sum_s / (jobs * wall_s) if rows_ms else 0.0,
        "emit_s": total(of("emit_csv")),
    }
    for layer in ("solver", "homology", "harness", "other"):
        metrics[f"{layer}_self_s"] = selfs.get(layer, 0.0)
    metrics["spans"] = len(spans)
    return metrics
