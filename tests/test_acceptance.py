"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
summary lines.  Every tolerance here is exact integer equality or an exact
integer inequality; there are no numeric fudge factors anywhere.
"""

import subprocess
import sys
import time

from helpers import brute_force_sdepth, enumerate_small_ideals, principal_decomposition
from sdepthlab import (
    QuotientPresentation,
    build_poset,
    cycle_path_ideal,
    depth_squarefree,
    formula_table,
    homology_ranks,
    line_path_ideal,
    parse_ideal,
    prop16_structure_check,
    quotient_module_bound,
    ring_quotient,
    run_scan,
    sdepth_of_pair,
    sdepth_of_poset,
    sr_complex,
    verify_decomposition,
)


def report(number, label, failures, extra=""):
    status = "PASS" if not failures else "FAIL"
    tail = f" [{extra}]" if extra else ""
    print(f"criterion {number} ({label}): {status}{tail}")
    assert not failures, f"criterion {number}: " + "; ".join(str(f) for f in failures[:12])


def test_criterion_01_cycle_bounds_scan():
    started = time.monotonic()
    rows = run_scan("thm14", n_max=10, jobs=2, time_limit_s=300.0)
    elapsed = time.monotonic() - started
    failures = []
    unknown = [r for r in rows if r.status == "unknown"]
    for row in rows:
        if row.status == "violation":
            failures.append(f"violation at ({row.n},{row.m})")
        if row.depth != row.psi:
            failures.append(f"oracle depth {row.depth} != psi {row.psi} at ({row.n},{row.m})")
        if row.sdepth is not None and not row.psi <= row.sdepth <= row.phi:
            failures.append(f"bounds fail at ({row.n},{row.m})")
    assert len(rows) == sum(n - 2 for n in range(3, 11))
    report(
        1,
        "two-sided cycle bounds, n <= 10",
        failures,
        f"{len(rows)} rows, {len(unknown)} unknown, wall {elapsed:.1f}s (target 600s)",
    )


def test_criterion_02_line_family_exact():
    failures = []
    for n in range(3, 10):
        for m in range(2, n):
            rec = formula_table(n, m)
            line = line_path_ideal(n, m)
            value = sdepth_of_pair(ring_quotient(line)).value
            depth = depth_squarefree(line)
            if value != rec.phi:
                failures.append(f"sdepth {value} != phi {rec.phi} at ({n},{m})")
            if depth != rec.phi:
                failures.append(f"depth {depth} != phi {rec.phi} at ({n},{m})")
    report(2, "line family equals phi, n <= 9", failures)


def test_criterion_03_equality_cases():
    failures = []
    checked = 0
    for n in range(3, 11):
        for m in range(2, n):
            if n % (m + 1) not in (0, m):
                continue
            checked += 1
            rec = formula_table(n, m)
            cycle = cycle_path_ideal(n, m)
            value = sdepth_of_pair(ring_quotient(cycle)).value
            depth = depth_squarefree(cycle)
            if not value == depth == rec.phi == rec.psi:
                failures.append(
                    f"({n},{m}): sdepth={value} depth={depth} phi={rec.phi} psi={rec.psi}"
                )
    anchors = {
        (5, 2): sdepth_of_pair(ring_quotient(cycle_path_ideal(5, 2))).value,
        (8, 3): sdepth_of_pair(ring_quotient(cycle_path_ideal(8, 3))).value,
    }
    if anchors != {(5, 2): 2, (8, 3): 4}:
        failures.append(f"anchors {anchors}")
    report(3, "equality cases collapse", failures, f"{checked} instances")


def test_criterion_04_strictness_witness():
    failures = []
    result = sdepth_of_pair(ring_quotient(cycle_path_ideal(4, 2)))
    rec = formula_table(4, 2)
    if result.value != 1:
        failures.append(f"sdepth(S/J_(4,2)) = {result.value}, expected 1")
    if not result.value < rec.phi == 2:
        failures.append("upper bound is not strict at (4,2)")
    poset = build_poset(ring_quotient(cycle_path_ideal(4, 2)))
    from sdepthlab import exists_partition

    if exists_partition(poset, 2) is not None:
        failures.append("level 2 unexpectedly feasible at (4,2)")
    report(4, "strict upper bound witness (4,2)", failures)


def test_criterion_05_principal_characterization():
    failures = []
    total = 0
    principal_count = 0
    for n in (1, 2, 3):
        for ideal in enumerate_small_ideals(n, max_gens=3, max_exp=2):
            total += 1
            value = sdepth_of_pair(ring_quotient(ideal)).value
            principal = len(ideal.gens) == 1
            if (value == n - 1) != principal:
                failures.append(f"{ideal}: value {value}, gens {len(ideal.gens)}")
            if principal:
                principal_count += 1
                decomposition = principal_decomposition(ideal.gens[0])
                poset = build_poset(ring_quotient(ideal))
                if not verify_decomposition(poset, decomposition, n - 1).ok:
                    failures.append(f"constructed decomposition fails for {ideal}")
    report(
        5,
        "top value iff principal",
        failures,
        f"{total} ideals, {principal_count} principal",
    )


def test_criterion_06_quotient_module_bound():
    failures = []
    for n in range(3, 10):
        for m in range(2, n):
            # phi(n-m-2, m) + m, the smallest component depth of the module,
            # which equals psi + 1; psi + m - 1 exceeds dim(J/I) for most m >= 3.
            bound = formula_table(n, m).psi + 1
            pair = QuotientPresentation(cycle_path_ideal(n, m), line_path_ideal(n, m))
            result = sdepth_of_pair(pair)
            if not verify_decomposition(result.poset, result.certificate, result.value).ok:
                failures.append(f"certificate invalid at ({n},{m})")
            if result.value < bound:
                failures.append(
                    f"({n},{m}): sdepth {result.value} < stated bound {bound} (= psi+1)"
                )
    for n in range(3, 13):
        for m in range(2, n):
            rep = prop16_structure_check(n, m)
            if not rep.ok:
                failures.append(f"structure check fails at ({n},{m}): {rep.problems[:1]}")
            bound = quotient_module_bound(n, m)
            if rep.derived_depth != bound or bound != formula_table(n, m).psi + 1:
                failures.append(
                    f"({n},{m}): derived depth {rep.derived_depth}, bound {bound},"
                    f" psi+1 = {formula_table(n, m).psi + 1}"
                )
    anchor = sdepth_of_pair(
        QuotientPresentation(cycle_path_ideal(5, 2), line_path_ideal(5, 2))
    ).value
    if anchor != 3:
        failures.append(f"anchor (5,2) gave {anchor}")
    report(6, "quotient-module bound psi+1", failures)


def test_criterion_07_conjecture_scan():
    failures = []
    rows = run_scan("conjecture", n_max=12, m_min=2, m_max=2, time_limit_s=300.0)
    expected_grid = {(10, 2), (11, 2), (12, 2)}
    if {(r.n, r.m) for r in rows} != expected_grid:
        failures.append(f"grid was {sorted((r.n, r.m) for r in rows)}")
    agreements = []
    for row in rows:
        if row.status == "violation":
            failures.append(f"conjecture row hard-failed at ({row.n},{row.m})")
        if row.sdepth is None:
            failures.append(f"({row.n},{row.m}) did not complete")
            continue
        if row.phi != formula_table(row.n, row.m).phi:
            failures.append(f"phi column mismatch at ({row.n},{row.m})")
        agreements.append((row.n, row.sdepth == row.phi, row.sdepth, row.phi))
    summary = ", ".join(
        f"n={n}: sdepth={s} phi={p} {'agrees' if a else 'DIFFERS (review)'}"
        for n, a, s, p in agreements
    )
    report(7, "open-equality scan m=2", failures, summary)


def test_criterion_08_oracle_unit_suite():
    failures = []
    triangle = homology_ranks(sr_complex(parse_ideal("n=3: x1*x2*x3")))
    if triangle != (0, 0, 1):
        failures.append(f"hollow triangle ranks {triangle}")
    two_points = homology_ranks(sr_complex(parse_ideal("n=2: x1*x2")))
    if two_points != (0, 1):
        failures.append(f"two points ranks {two_points}")
    simplex = homology_ranks(sr_complex(parse_ideal("n=3: x1*x2*x3")).restrict(0b011))
    if any(simplex):
        failures.append(f"full simplex ranks {simplex}")
    # Every rank computation raises when an F_2 or a rational homology rank
    # is negative or an exact boundary rank falls below its rank over F_2 or
    # F_p, so the sweeps below (and every oracle call made by criteria 1-6 in
    # this run) fail loudly on those; the formulas are the check here.
    checked = 0
    for n in range(2, 11):
        for m in range(2, n + 1):
            line = line_path_ideal(n, m)
            if line.is_proper():
                rec = formula_table(n, m)
                if depth_squarefree(line) != rec.phi:
                    failures.append(f"line oracle off at ({n},{m})")
                checked += 1
            if m < n:
                rec = formula_table(n, m)
                if depth_squarefree(cycle_path_ideal(n, m)) != rec.psi:
                    failures.append(f"cycle oracle off at ({n},{m})")
                checked += 1
    report(8, "homology oracle units + rank checks + formulas", failures, f"{checked} oracle runs")


def test_criterion_09_solver_completeness():
    failures = []
    posets = []
    for n in range(2, 5):
        for m in range(1, n + 1):
            for kind in ("line", "cycle", "quotient"):
                if kind == "quotient":
                    if not 2 <= m < n:
                        continue
                    pair = QuotientPresentation(cycle_path_ideal(n, m), line_path_ideal(n, m))
                else:
                    ideal = line_path_ideal(n, m) if kind == "line" else cycle_path_ideal(n, m)
                    if ideal.is_unit():
                        continue
                    pair = ring_quotient(ideal)
                poset = build_poset(pair)
                if len(poset) <= 12:
                    posets.append((kind, n, m, poset))
    for kind, n, m, poset in posets:
        solver_value = sdepth_of_poset(poset).value
        brute_value = brute_force_sdepth(poset)
        if solver_value != brute_value:
            failures.append(f"{kind}({n},{m}): solver {solver_value} vs brute {brute_value}")
    report(9, "search matches brute-force enumeration", failures, f"{len(posets)} posets")


def test_criterion_10_deterministic_output():
    failures = []
    command = [
        sys.executable, "-m", "sdepthlab.cli",
        "scan", "--check", "thm14", "--n-max", "8", "--format", "csv",
    ]
    first = subprocess.run(command, capture_output=True, text=True)
    second = subprocess.run(command, capture_output=True, text=True)
    parallel = subprocess.run(command + ["--jobs", "2"], capture_output=True, text=True)
    if first.returncode != 0:
        failures.append(f"exit code {first.returncode}")
    if first.stdout != second.stdout:
        failures.append("consecutive runs differ")
    if first.stdout != parallel.stdout:
        failures.append("--jobs 2 changed the bytes")
    if not first.stdout.startswith("n,m,check"):
        failures.append("missing csv header")
    report(10, "byte-identical scan output", failures, f"{len(first.stdout)} bytes")
