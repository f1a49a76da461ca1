"""Verification scans over the ideal families, with deterministic emitters.

Each scan row records a single (n, m) instance of one configured check.  Every
claim the scans assert is Stanley's inequality with a closed-form bracket,
depth = bound_lo <= sdepth <= bound_hi, and one function, ``row`` in
``_compute_rows``, sets every status from it: ``violation`` only when a
computed value breaks the claim, ``unknown`` when a requested sdepth hit a
resource limit, ``ok`` otherwise.  Row outputs are merged in (n, m, check)
order, so the emitted tables do not depend on how many processes computed them.
"""

from __future__ import annotations

import os
import time
from typing import NamedTuple

from .errors import InputError, ResourceCapError
from .families import (
    cycle_path_ideal,
    formula_table,
    is_equality_case,
    line_path_ideal,
    quotient_module_bound,
)
from .homology import depth_squarefree
from .ideals import (
    MAX_AMBIENT,
    QuotientPresentation,
    box_upset,
    ideal_cells,
    minimalize,
    monomial,
    ring_quotient,
    set_bits,
    submasks,
)
from .solver import (
    DEFAULT_POSET_CAP,
    DEFAULT_TIME_LIMIT_S,
    StanleyDecomposition,
    check_limits,
    format_certificate,
    sdepth_of_pair,
)

CHECKS = ("thm14", "cor15", "prop16", "conjecture", "formulas")

# A work index travels to the scan's processes as one record of this size.
_CLAIM_BYTES = 4


class ScanRow(NamedTuple):
    n: int
    m: int
    check: str
    psi: int | None
    phi: int | None
    sdepth: int | None
    depth: int | None
    bound_lo: int | None
    bound_hi: int | None
    status: str  # ok | violation | unknown
    ms: int


def default_n_max(check: str) -> int:
    return 12 if check == "formulas" else 10


def _instances(check: str, n_max: int, m_min: int, m_max: int | None) -> list[tuple[int, int]]:
    out = []
    for n in range(3, n_max + 1):
        top = n - 1 if m_max is None else min(m_max, n - 1)
        for m in range(max(2, m_min), top + 1):
            if check == "conjecture" and n < 3 * (m + 1) + 1:
                continue
            out.append((n, m))
    return out


def write_certificate(path: str, decomposition: StanleyDecomposition) -> None:
    """Write the certificate of ``decomposition`` to ``path``.

    An OSError is raised as InputError, which the CLI reports on one line
    with exit code 3: the ``sdepth`` command and scan rows, in any process,
    write through here.
    """
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(format_certificate(decomposition))
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _compute_rows(args: tuple) -> list[ScanRow]:
    """Rows of one (n, m) instance.

    Each check computes only its own quantities and passes them, with its
    bounds, to ``row``, the one evaluator of every claim.  ``row`` computes a
    requested sdepth itself, sets the status and stamps the milliseconds since
    the previous row.  An asserted row is a ``violation`` when its depth is not
    ``bound_lo``, its sdepth lies outside [``bound_lo``, ``bound_hi``] (None
    is no upper bound) or its structure check failed.  A row whose sdepth hit
    the time limit or the poset cap is otherwise ``unknown``: a missing value
    is never evidence against a claim.  The ``conjecture`` and
    ``cor15-printed-cond`` rows assert nothing and are never a violation.
    """
    check, n, m, time_limit_s, max_poset, cert_dir = args
    started = time.monotonic()
    rec = formula_table(n, m)
    cycle = cycle_path_ideal(n, m)

    def row(label, bound_lo, bound_hi, *, depth=None, pair=None, structure_ok=True):
        nonlocal started
        sdepth, status = None, "ok"
        if pair is not None:
            try:
                result = sdepth_of_pair(pair, time_limit_s=time_limit_s, max_poset=max_poset)
            except ResourceCapError:
                status = "unknown"
            else:
                sdepth = result.value
                if cert_dir is not None:  # the solver has verified the certificate
                    write_certificate(os.path.join(cert_dir, f"{check}-n{n}-m{m}.cert"),
                                      result.certificate)
        if label not in ("conjecture", "cor15-printed-cond") and (
            not structure_ok
            or depth not in (None, bound_lo)
            or sdepth is not None
            and (sdepth < bound_lo or bound_hi is not None and sdepth > bound_hi)
        ):
            status = "violation"
        now = time.monotonic()
        out = ScanRow(n, m, label, rec.psi, rec.phi, sdepth, depth, bound_lo, bound_hi,
                      status, int((now - started) * 1000))
        started = now
        return out

    if check == "thm14":
        return [row(check, rec.psi, rec.phi, depth=depth_squarefree(cycle),
                    pair=ring_quotient(cycle))]

    if check == "cor15":
        depth = depth_squarefree(cycle)
        if not is_equality_case(n, m):
            # Bracket conditions as printed select exactly the non-equality
            # instances, where the formulas force depth = psi < phi.
            return [row("cor15-printed-cond", rec.psi, rec.phi, depth=depth)]
        return [row(check, rec.phi, rec.phi, depth=depth, pair=ring_quotient(cycle))]

    if check == "prop16":
        report = prop16_structure_check(n, m)
        return [row(check, quotient_module_bound(n, m), None, depth=report.derived_depth,
                    pair=QuotientPresentation(cycle, line_path_ideal(n, m)),
                    structure_ok=report.ok)]

    if check == "conjecture":
        # Open statement: agreement with phi is recorded, never asserted.
        return [row(check, rec.phi, rec.phi, pair=ring_quotient(cycle))]

    if check == "formulas":
        line_row = row("formulas-line", rec.phi, rec.phi,
                       depth=depth_squarefree(line_path_ideal(n, m)))
        return [line_row, row("formulas-cycle", rec.psi, rec.psi, depth=depth_squarefree(cycle))]

    raise InputError(f"unknown check {check!r}")


def _claim_rows(work: list[tuple], claims: int) -> tuple[list, tuple | None]:
    """Compute the rows of every work index this process reads from ``claims``.

    Returns the (index, rows) pairs computed and, when a row raised, its
    (index, exception), after which this process claims no more.  A read of
    one record from a pipe is atomic, so each index goes to one process.
    """
    done = []
    while record := os.read(claims, _CLAIM_BYTES):
        index = int.from_bytes(record, "little")
        try:
            done.append((index, _compute_rows(work[index])))
        except Exception as exc:
            return done, (index, exc)
    return done, None


def _send_rows(work: list[tuple], claims: int, sink: int) -> None:
    """A forked child's whole job: claim rows, then pickle the outcome into ``sink``."""
    import pickle

    payload = pickle.dumps(_claim_rows(work, claims))
    with open(sink, "wb") as out:
        out.write(payload)


def _fork_rows(work: list[tuple], workers: int) -> list[list[ScanRow]]:
    """``_compute_rows`` of each work item, in work order, computed by this
    process and ``workers - 1`` forked children.

    Every process claims the next unclaimed index from one shared pipe, so a
    slow row holds back no other.  With ``workers`` = 1 nothing is forked.
    A row that raises is re-raised here, the lowest index first, whichever
    process computed it; a child that exits without sending its rows raises
    RuntimeError.  No child outlives the call.
    """
    # Fork, not spawn: a child starts from this process's memory instead of
    # importing the package again, which costs more than most rows.  The scan
    # starts no threads, so nothing is forked mid-operation.
    if workers > 1 and not hasattr(os, "fork"):
        raise InputError("jobs > 1 needs the fork start method, "
                         "which this platform does not have")
    claims, feed = os.pipe()
    # run_scan caps n at MAX_AMBIENT, so the records fit in the pipe's buffer
    # and the write returns before any process reads.
    with open(feed, "wb") as out:
        out.write(b"".join(i.to_bytes(_CLAIM_BYTES, "little") for i in range(len(work))))
    streams = []
    live = {}  # pid -> result stream of each child not yet reaped
    try:
        for _ in range(workers - 1):
            results, sink = os.pipe()
            streams.append(open(results, "rb"))
            try:
                pid = os.fork()
                if pid == 0:
                    # The child never returns into the caller's stack, and
                    # leaves without the interpreter's flushes, exit handlers
                    # and final collections.
                    code = 1
                    try:
                        _send_rows(work, claims, sink)
                        code = 0
                    finally:
                        os._exit(code)
            finally:
                os.close(sink)
            live[pid] = streams[-1]
        done, failure = _claim_rows(work, claims)
        failures = [] if failure is None else [failure]
        for pid, stream in list(live.items()):
            import pickle  # only here: a scan without children never loads it

            payload = stream.read()
            status = os.waitpid(pid, 0)[1]
            del live[pid]
            if not payload:
                raise RuntimeError(f"scan worker {pid} exited with code "
                                   f"{os.waitstatus_to_exitcode(status)} without sending its rows")
            theirs, failure = pickle.loads(payload)
            done += theirs
            if failure is not None:
                failures.append(failure)
    finally:
        os.close(claims)
        if live:
            import signal  # only here: the import costs a millisecond per scan process

            for pid in live:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
        for stream in streams:
            stream.close()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    done.sort(key=lambda pair: pair[0])
    return [rows for _, rows in done]


def run_scan(
    check: str,
    n_max: int | None = None,
    m_min: int = 2,
    m_max: int | None = None,
    *,
    time_limit_s: float = DEFAULT_TIME_LIMIT_S,
    max_poset: int = DEFAULT_POSET_CAP,
    jobs: int = 1,
    cert_dir: str | None = None,
) -> list[ScanRow]:
    """Run one check over the (n, m) grid and return rows in canonical order.

    ``jobs`` is the number of processes that compute rows, this one included;
    above 1 it needs ``os.fork``.  The limits are checked before any row, also
    for checks that search nothing.
    """
    if check not in CHECKS:
        raise InputError(f"check must be one of {', '.join(CHECKS)}; got {check!r}")
    if jobs < 1:
        raise InputError(f"jobs must be at least 1, got {jobs}")
    check_limits(time_limit_s, max_poset)
    if n_max is None:
        n_max = default_n_max(check)
    if n_max > MAX_AMBIENT:
        raise InputError(f"n_max must be at most {MAX_AMBIENT}, got {n_max}")
    if cert_dir is not None:
        try:
            os.makedirs(cert_dir, exist_ok=True)
        except OSError as exc:
            raise InputError(f"cannot use {cert_dir} as the certificate directory: {exc}") from exc
    work = [
        (check, n, m, time_limit_s, max_poset, cert_dir)
        for n, m in _instances(check, n_max, m_min, m_max)
    ]
    # A single row runs in process: a child would only add a fork to it.
    rows = [row for chunk in _fork_rows(work, min(jobs, len(work))) for row in chunk]
    rows.sort(key=lambda r: (r.n, r.m, r.check))
    return rows


# ---------------------------------------------------------------------------
# Emitters.  Timings default to 0 in every format so that repeated runs with
# identical flags produce byte-identical output; pass timings=True to see the
# measured milliseconds.
# ---------------------------------------------------------------------------

CSV_HEADER = "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms"
_COLUMNS = CSV_HEADER.split(",")


def _row_cells(row: ScanRow, timings: bool) -> list:
    data = row._asdict()
    data["ms"] = data["ms"] if timings else 0
    return [data[c] for c in _COLUMNS]


def emit_csv(rows: list[ScanRow], *, timings: bool = False) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join("" if c is None else str(c) for c in _row_cells(row, timings)))
    return "\n".join(lines) + "\n"


def emit_json(rows: list[ScanRow], *, timings: bool = False) -> str:
    import json

    payload = [dict(zip(_COLUMNS, _row_cells(row, timings))) for row in rows]
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def emit_md(rows: list[ScanRow], *, timings: bool = False) -> str:
    header = "| " + " | ".join(_COLUMNS) + " |"
    rule = "|" + "|".join(" --- " for _ in _COLUMNS) + "|"
    lines = [header, rule]
    for row in rows:
        cells = ["" if c is None else str(c) for c in _row_cells(row, timings)]
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Structure check for the cycle-modulo-line quotient module.
# ---------------------------------------------------------------------------


class ComponentReport(NamedTuple):
    """One wrap-window component that passed the structure check.

    Its residual family equals the faces of the complex on the ambient
    whose minimal nonfaces are ``minimal_nonfaces``, the predicted runs: a
    truncated run at the left edge, then the full-length runs that fit.
    """

    t: int
    wrap_window: tuple[int, ...]
    forced_var: int
    residual_count: int
    minimal_nonfaces: tuple[tuple[int, ...], ...]
    residual_depth: int
    component_depth: int


class Prop16Report(NamedTuple):
    n: int
    m: int
    ok: bool
    problems: tuple[str, ...]
    components: tuple[ComponentReport, ...]
    derived_depth: int | None


def prop16_structure_check(n: int, m: int) -> Prop16Report:
    """Decompose the cycle/line quotient into wrap-window components.

    Sets of variables are int masks, bit j - 1 for x_j, and the module's
    squarefree multidegrees are the cells of the box [0, (1,)*n] in the
    cycle's ideal but not the line's (``ideal_cells``).  Each must contain one
    of the m-1 windows that cross the n-to-1 seam, and is assigned to the
    smallest one it contains.  Per component one equality is checked: the
    residual sets (window removed) are exactly the faces of the complex on
    the variables strictly between the window and its forced excluded
    variable whose minimal nonfaces are consecutive runs (the run complex):
    a truncated run at the left edge, then the full-length runs that fit
    inside that ambient.  A component that fails gets one problem line,
    naming the least set in one family but not the other, and no
    ``ComponentReport``.  The derived depth is the minimum over the passing
    components of the residual quotient depth plus the window size.  The
    report passes no verdict on it: the ``prop16`` scan row compares it with
    ``quotient_module_bound(n, m)``, as it does every claim.  The check
    enumerates the 2^n cells at once, for every n up to ``MAX_AMBIENT``.
    """
    if not (2 <= m < n <= MAX_AMBIENT):
        raise InputError(f"need 2 <= m < n <= {MAX_AMBIENT}, got (n, m) = ({n}, {m})")

    box = (1,) * n

    def variables(mask):
        return [j + 1 for j in set_bits(mask)]

    unassigned = ideal_cells(cycle_path_ideal(n, m), box) & ~ideal_cells(line_path_ideal(n, m), box)
    problems = []
    components = []
    for t in range(1, m):
        wrap = (1 << m - t) - 1 << n - m + t | (1 << t) - 1  # x_(n-m+t+1) .. x_n, x_1 .. x_t
        forced = n - m + t
        ambient = (1 << n - m - 1) - 1 << t  # x_(t+1) .. x_(n-m+t-1)
        cells = unassigned & box_upset(1 << wrap, box)
        unassigned ^= cells
        family = cells >> wrap  # bit w - wrap for each w assigned here: the residuals
        # A truncated run at the left edge, then the full-length runs that fit.
        runs = [tuple(range(t + 1, m + 1))] if m <= n - m + t - 1 else []
        runs += [tuple(range(i, i + m)) for i in range(t + 2, n - 2 * m + t + 1)]
        run_cells = sum(1 << sum(1 << v - 1 for v in run) for run in runs)
        faces = submasks(ambient) & ~box_upset(run_cells, box)
        if family != faces:
            differ = family ^ faces
            least = (differ & -differ).bit_length() - 1
            problems.append(
                f"component {t}: residual {variables(least)} is not a face of the run complex"
                if family >> least & 1 else
                f"component {t}: face {variables(least)} of the run complex is not a residual"
            )
            continue

        size = ambient.bit_count()
        residual_depth = size  # with no nonface, of the polynomial ring
        if runs:
            gens = [monomial(size, [v - t for v in run]) for run in runs]
            residual_depth = depth_squarefree(minimalize(gens, size))
        components.append(
            ComponentReport(
                t=t,
                wrap_window=tuple(variables(wrap)),
                forced_var=forced,
                residual_count=family.bit_count(),
                minimal_nonfaces=tuple(runs),
                residual_depth=residual_depth,
                component_depth=residual_depth + m,
            )
        )
    problems += [f"non-assignable multidegree {variables(w)}" for w in set_bits(unassigned)]

    derived = min((c.component_depth for c in components), default=None)
    return Prop16Report(
        n=n,
        m=m,
        ok=not problems,
        problems=tuple(problems),
        components=tuple(components),
        derived_depth=derived,
    )
