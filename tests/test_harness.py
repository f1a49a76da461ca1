import gc
import hashlib
import itertools
import json
import os
import signal
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from helpers import reference_structure_ok
from sdepthlab import (
    InputError,
    PosetCapExceededError,
    ScanRow,
    TimeLimitExceededError,
    cycle_path_ideal,
    emit_csv,
    emit_json,
    emit_md,
    format_ideal,
    formula_table,
    line_path_ideal,
    member,
    monomial,
    prop16_structure_check,
    quotient_module_bound,
    run_scan,
)
from sdepthlab import cli, harness
from sdepthlab.ideals import ideal_cells, set_bits


def rows_by_nm(rows):
    return {(r.n, r.m): r for r in rows}


class TestThm14Scan:
    def test_small_grid(self):
        rows = run_scan("thm14", n_max=6)
        table = rows_by_nm(rows)
        r52 = table[(5, 2)]
        assert (r52.psi, r52.sdepth, r52.phi, r52.status) == (2, 2, 2, "ok")
        r42 = table[(4, 2)]
        assert (r42.psi, r42.sdepth, r42.phi, r42.status) == (1, 1, 2, "ok")
        assert all(r.status == "ok" for r in rows)
        assert all(r.depth == r.psi for r in rows)

    def test_rows_sorted(self):
        rows = run_scan("thm14", n_max=6)
        keys = [(r.n, r.m, r.check) for r in rows]
        assert keys == sorted(keys)

    def test_jobs_do_not_change_rows(self):
        sequential = emit_csv(run_scan("thm14", n_max=6))
        parallel = emit_csv(run_scan("thm14", n_max=6, jobs=2))
        assert sequential == parallel

    def test_pool_only_for_two_rows_or_more(self, monkeypatch):
        # The scan process computes rows beside at most min(jobs, rows) - 1
        # forked children; a single row runs in process, with the same bytes.
        sequential = emit_csv(run_scan("thm14", n_max=6, m_min=5, m_max=5))
        started = []
        fork = os.fork

        def recording():
            pid = fork()
            if pid:
                started.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", recording)
        assert emit_csv(run_scan("thm14", n_max=6, m_min=5, m_max=5, jobs=2)) == sequential
        assert started == []
        run_scan("thm14", n_max=6, m_min=4, m_max=4, jobs=4)
        assert len(started) == 1

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(InputError, match="jobs must be at least 1"):
                run_scan("thm14", n_max=4, jobs=jobs)

    @pytest.mark.parametrize("limits", [
        dict(time_limit_s=-1), dict(time_limit_s=float("nan")), dict(max_poset=0),
    ])
    def test_bad_limits_rejected_before_any_row(self, monkeypatch, limits):
        # Also by the checks that run no search.
        monkeypatch.setattr(harness, "_compute_rows", None)
        for check in ("thm14", "formulas"):
            with pytest.raises(InputError, match="must be at least"):
                run_scan(check, n_max=5, **limits)

    def test_grid_capped_at_max_ambient(self):
        with pytest.raises(InputError, match="n_max must be at most 20"):
            run_scan("thm14", n_max=21, m_min=20, jobs=2)

    def test_each_certificate_verified_once(self, monkeypatch, capsys, tmp_path):
        # Wrap the checker in every loaded module that holds it, so a second
        # check made through any import path is counted as well.
        import sdepthlab.solver

        original = sdepthlab.solver.verify_decomposition
        levels = []

        def counted(*args, **kw):
            levels.append(args[2])
            return original(*args, **kw)

        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "sdepthlab" and (
                getattr(module, "verify_decomposition", None) is original
            ):
                monkeypatch.setattr(module, "verify_decomposition", counted)
        rows = run_scan("thm14", n_max=6)
        assert levels == [r.sdepth for r in rows]

        levels.clear()
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        assert cli.main(["sdepth", "--ideal-file", str(ideal_file)]) == 0
        assert "sdepth = 1" in capsys.readouterr().out
        assert levels == [1]

    def test_certificates_stored(self, tmp_path):
        run_scan("thm14", n_max=4, cert_dir=str(tmp_path))
        files = sorted(p.name for p in tmp_path.iterdir())
        assert files == ["thm14-n3-m2.cert", "thm14-n4-m2.cert", "thm14-n4-m3.cert"]


def wait_for(path, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not path.exists():
        if time.monotonic() > deadline:
            raise AssertionError(f"{path.name} never appeared")
        time.sleep(0.005)


class Abort(BaseException):
    """Raised past the row handlers, as a KeyboardInterrupt would be."""


class TestForkedRows:
    """Failures in a scan with forked children.

    ``harness._compute_rows`` is replaced and the children inherit the
    replacement.  A marker file orders the processes: the one that fails
    touches it, and the other waits for it before computing its rows, so
    each case runs the same way on every host.  No case may leave a child.
    """

    GRID = dict(n_max=5)  # six rows

    @pytest.fixture
    def patch_rows(self, monkeypatch, tmp_path):
        parent = os.getpid()
        marker = tmp_path / "failed"
        real = harness._compute_rows

        def patch(in_child, fail):
            def rows(args):
                if (os.getpid() != parent) == in_child:
                    marker.touch()
                    fail()
                wait_for(marker)
                return real(args)

            monkeypatch.setattr(harness, "_compute_rows", rows)

        return patch

    @staticmethod
    def assert_no_children():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @staticmethod
    def raise_value_error():
        raise ValueError("row failed")

    @pytest.mark.parametrize("in_child", [True, False], ids=["child", "parent"])
    def test_row_failure_reraised(self, patch_rows, in_child):
        patch_rows(in_child, self.raise_value_error)
        with pytest.raises(ValueError, match="row failed"):
            run_scan("thm14", jobs=2, **self.GRID)
        self.assert_no_children()

    @pytest.mark.parametrize("jobs", [1, 2, 3])
    def test_lowest_failed_row_wins(self, monkeypatch, jobs):
        real = harness._compute_rows

        def rows(args):
            n, m = args[1:3]
            if (n, m) == (4, 2):
                raise KeyError("first failed row")
            if n == 5:
                raise ValueError("later failed row")
            return real(args)

        monkeypatch.setattr(harness, "_compute_rows", rows)
        with pytest.raises(KeyError):
            run_scan("thm14", jobs=jobs, **self.GRID)
        self.assert_no_children()

    def test_killed_child_raises(self, patch_rows):
        patch_rows(True, lambda: os.kill(os.getpid(), signal.SIGKILL))
        with pytest.raises(RuntimeError, match=f"exited with code {-signal.SIGKILL} "):
            run_scan("thm14", jobs=2, **self.GRID)
        self.assert_no_children()

    def test_parent_abort_kills_children(self, monkeypatch, tmp_path):
        # The child hangs in its row; the parent's own failure must not wait for it.
        parent = os.getpid()
        marker = tmp_path / "child-started"

        def rows(args):
            if os.getpid() != parent:
                marker.touch()
                time.sleep(60)
            wait_for(marker)
            raise Abort

        monkeypatch.setattr(harness, "_compute_rows", rows)
        started = time.monotonic()
        with pytest.raises(Abort):
            run_scan("thm14", jobs=2, **self.GRID)
        assert time.monotonic() - started < 30
        self.assert_no_children()

    def test_no_fork_start_method(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(InputError, match="fork start method"):
            run_scan("thm14", jobs=2, **self.GRID)
        assert run_scan("thm14", **self.GRID)

    # A scan in a process of its own; with a marker path, the child fails its
    # first row past the row handlers, after which the parent computes its
    # own.  Each line is printed once if only the scan's own process returns
    # from run_scan, and the first stays in the buffer of the piped stdout
    # across the fork.
    SCRIPT = """
import atexit, os, sys, time
from sdepthlab import harness, run_scan

parent, marker = os.getpid(), sys.argv[1]
real = harness._compute_rows

def rows(args):
    if marker and os.getpid() != parent:
        open(marker, "w").close()
        raise KeyboardInterrupt
    while marker and not os.path.exists(marker):
        time.sleep(0.005)
    return real(args)

harness._compute_rows = rows
atexit.register(print, "exit handler")
print("before the fork")
try:
    print("rows", len(run_scan("thm14", n_max=5, jobs=2)))
except RuntimeError as exc:
    print(str(exc).partition(" exited ")[2])
print("multiprocessing loaded:", "multiprocessing" in sys.modules)
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print("no child left")
"""

    @pytest.mark.parametrize("fails", [False, True], ids=["rows", "base-exception"])
    def test_child_leaves_through_exit(self, tmp_path, fails):
        # Without flushing the parent's buffers, running its exit handlers or
        # returning into its stack; and without loading multiprocessing.
        marker = str(tmp_path / "failed") if fails else ""
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, marker],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = "with code 1 without sending its rows" if fails else "rows 6"
        assert proc.stdout.splitlines() == [
            "before the fork", result, "multiprocessing loaded: False", "no child left",
            "exit handler",
        ]


class TestCor15Scan:
    def test_equality_rows_asserted(self):
        rows = run_scan("cor15", n_max=8)
        eq = [r for r in rows if r.check == "cor15"]
        assert all(r.status == "ok" and r.sdepth == r.phi == r.psi for r in eq)
        r83 = next(r for r in eq if (r.n, r.m) == (8, 3))
        assert r83.sdepth == 4

    def test_printed_condition_rows_informational(self):
        rows = run_scan("cor15", n_max=8)
        printed = [r for r in rows if r.check == "cor15-printed-cond"]
        assert printed and all(r.status == "ok" and r.sdepth is None for r in printed)
        # On these instances the two formulas always differ by one.
        assert all(r.phi == r.psi + 1 for r in printed)
        assert {(r.n, r.m) for r in printed} == {
            (n, m)
            for n in range(3, 9)
            for m in range(2, n)
            if n % (m + 1) not in (0, m)
        }


    def test_depth_past_the_structure_cap(self):
        rows = rows_by_nm(run_scan("cor15", n_max=13, m_min=11, m_max=11))
        r13 = rows[(13, 11)]
        assert (r13.check, r13.depth, r13.status) == ("cor15-printed-cond", r13.psi, "ok")


class TestProp16Scan:
    def test_anchor_five_two(self):
        rows = run_scan("prop16", n_max=5)
        r52 = rows_by_nm(rows)[(5, 2)]
        assert (r52.sdepth, r52.bound_lo, r52.status) == (3, 3, "ok")
        assert r52.depth == 3  # derived from the component structure

    def test_width_two_rows_all_ok(self):
        rows = run_scan("prop16", n_max=9, m_max=2)
        assert all(r.status == "ok" for r in rows)
        assert all(r.sdepth == r.bound_lo for r in rows)

    def test_structure_check_past_twelve(self):
        (row,) = run_scan("prop16", n_max=13, m_min=12)
        assert (row.n, row.m, row.status) == (13, 12, "ok")
        assert row.depth == row.bound_lo == row.psi + 1 == 12

    def test_wider_windows_fall_below_stated_bound(self):
        # The quotient value is psi+1, strictly below psi+m-1 once m exceeds
        # 2.  psi+m-1 = 6 at (7,3) cannot hold for any module value: no
        # squarefree monomial of support 6 or more lies in J but not in I, so
        # dim(J/I) <= 5, and both sdepth and depth are at most the dimension.
        n, m = 7, 3
        cycle, line = cycle_path_ideal(n, m), line_path_ideal(n, m)
        for size in range(6, n + 1):
            for support in itertools.combinations(range(1, n + 1), size):
                u = monomial(n, support)
                assert not (member(cycle, u) and not member(line, u)), support
        rows = run_scan("prop16", n_max=7, m_min=3)
        r73 = rows_by_nm(rows)[(7, 3)]
        assert r73.sdepth == 5
        assert r73.bound_lo == 5
        assert r73.status == "ok"


class TestConjectureScan:
    def test_reports_without_asserting(self):
        rows = run_scan("conjecture", n_max=10)
        assert {(r.n, r.m) for r in rows} == {(10, 2)}
        row = rows[0]
        assert row.status == "ok"
        assert row.sdepth == 4
        assert row.bound_lo == row.bound_hi == 4


class TestFormulasScan:
    def test_small_grid(self):
        rows = run_scan("formulas", n_max=7)
        assert all(r.status == "ok" for r in rows)
        line = [r for r in rows if r.check == "formulas-line"]
        cycle = [r for r in rows if r.check == "formulas-cycle"]
        assert len(line) == len(cycle)
        assert all(r.depth == r.phi for r in line)
        assert all(r.depth == r.psi for r in cycle)

    def test_past_fourteen(self):
        # The Betti table has no cap of its own below the ambient cap 20.
        rows = run_scan("formulas", n_max=16, m_min=10)
        assert max(r.n for r in rows) == 16
        assert all(r.status == "ok" and r.depth is not None for r in rows)


class TestEmitters:
    def test_csv_deterministic_and_timings_off(self):
        rows = run_scan("thm14", n_max=5)
        text = emit_csv(rows)
        assert text == emit_csv(rows)
        assert text.splitlines()[0] == "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms"
        assert all(line.endswith(",0") for line in text.splitlines()[1:])

    def test_json_round_trips(self):
        rows = run_scan("thm14", n_max=4)
        payload = json.loads(emit_json(rows))
        assert [r["n"] for r in payload] == [3, 4, 4]

    def test_md_has_all_rows(self):
        rows = run_scan("thm14", n_max=4)
        text = emit_md(rows)
        assert text.count("\n") == len(rows) + 2

    def test_bad_check_rejected(self):
        with pytest.raises(InputError):
            run_scan("nonsense")


# Whole emitted tables for small grids, blank cells and informational rows
# included; any change to a row's bytes shows up here.
PINNED_CSV = {
    ("thm14", 5): (
        "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms\n"
        "3,2,thm14,1,1,1,1,1,1,ok,0\n"
        "4,2,thm14,1,2,1,1,1,2,ok,0\n"
        "4,3,thm14,2,2,2,2,2,2,ok,0\n"
        "5,2,thm14,2,2,2,2,2,2,ok,0\n"
        "5,3,thm14,2,3,2,2,2,3,ok,0\n"
        "5,4,thm14,3,3,3,3,3,3,ok,0\n"
    ),
    ("cor15", 5): (
        "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms\n"
        "3,2,cor15,1,1,1,1,1,1,ok,0\n"
        "4,2,cor15-printed-cond,1,2,,1,1,2,ok,0\n"
        "4,3,cor15,2,2,2,2,2,2,ok,0\n"
        "5,2,cor15,2,2,2,2,2,2,ok,0\n"
        "5,3,cor15-printed-cond,2,3,,2,2,3,ok,0\n"
        "5,4,cor15,3,3,3,3,3,3,ok,0\n"
    ),
    ("prop16", 5): (
        "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms\n"
        "3,2,prop16,1,1,2,2,2,,ok,0\n"
        "4,2,prop16,1,2,2,2,2,,ok,0\n"
        "4,3,prop16,2,2,3,3,3,,ok,0\n"
        "5,2,prop16,2,2,3,3,3,,ok,0\n"
        "5,3,prop16,2,3,3,3,3,,ok,0\n"
        "5,4,prop16,3,3,4,4,4,,ok,0\n"
    ),
    ("formulas", 5): (
        "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms\n"
        "3,2,formulas-cycle,1,1,,1,1,1,ok,0\n"
        "3,2,formulas-line,1,1,,1,1,1,ok,0\n"
        "4,2,formulas-cycle,1,2,,1,1,1,ok,0\n"
        "4,2,formulas-line,1,2,,2,2,2,ok,0\n"
        "4,3,formulas-cycle,2,2,,2,2,2,ok,0\n"
        "4,3,formulas-line,2,2,,2,2,2,ok,0\n"
        "5,2,formulas-cycle,2,2,,2,2,2,ok,0\n"
        "5,2,formulas-line,2,2,,2,2,2,ok,0\n"
        "5,3,formulas-cycle,2,3,,2,2,2,ok,0\n"
        "5,3,formulas-line,2,3,,3,3,3,ok,0\n"
        "5,4,formulas-cycle,3,3,,3,3,3,ok,0\n"
        "5,4,formulas-line,3,3,,3,3,3,ok,0\n"
    ),
    ("conjecture", 10): (
        "n,m,check,psi,phi,sdepth,depth,bound_lo,bound_hi,status,ms\n"
        "10,2,conjecture,3,4,4,,4,4,ok,0\n"
    ),
}


PINNED_THM14_N4_JSON = (
    '[\n'
    '  {\n'
    '    "bound_hi": 1,\n'
    '    "bound_lo": 1,\n'
    '    "check": "thm14",\n'
    '    "depth": 1,\n'
    '    "m": 2,\n'
    '    "ms": 0,\n'
    '    "n": 3,\n'
    '    "phi": 1,\n'
    '    "psi": 1,\n'
    '    "sdepth": 1,\n'
    '    "status": "ok"\n'
    '  },\n'
    '  {\n'
    '    "bound_hi": 2,\n'
    '    "bound_lo": 1,\n'
    '    "check": "thm14",\n'
    '    "depth": 1,\n'
    '    "m": 2,\n'
    '    "ms": 0,\n'
    '    "n": 4,\n'
    '    "phi": 2,\n'
    '    "psi": 1,\n'
    '    "sdepth": 1,\n'
    '    "status": "ok"\n'
    '  },\n'
    '  {\n'
    '    "bound_hi": 2,\n'
    '    "bound_lo": 2,\n'
    '    "check": "thm14",\n'
    '    "depth": 2,\n'
    '    "m": 3,\n'
    '    "ms": 0,\n'
    '    "n": 4,\n'
    '    "phi": 2,\n'
    '    "psi": 2,\n'
    '    "sdepth": 2,\n'
    '    "status": "ok"\n'
    '  }\n'
    ']\n'
)

PINNED_THM14_N4_MD = (
    "| n | m | check | psi | phi | sdepth | depth | bound_lo | bound_hi | status | ms |\n"
    "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |\n"
    "| 3 | 2 | thm14 | 1 | 1 | 1 | 1 | 1 | 1 | ok | 0 |\n"
    "| 4 | 2 | thm14 | 1 | 2 | 1 | 1 | 1 | 2 | ok | 0 |\n"
    "| 4 | 3 | thm14 | 2 | 2 | 2 | 2 | 2 | 2 | ok | 0 |\n"
)


# The sha256 of each default scan's stdout, the digests of CI's "Default scan
# bytes" step.
DEFAULT_SCAN_DIGESTS = {
    "thm14": "9ce45b3d5cdc0a8bd936034effd8e8030c5288f7bfdb9475f12f99ffaeef4ae0",
    "cor15": "8a8c7a8784c3963979cb4933ab20a9ba12f8aafc2dae89bef198c10448123958",
    "prop16": "db9e216e4a9e3110afb25d167bbd31688a67ebb83cedea850dc88d6827f67c61",
    "conjecture": "413828e453ac375b1134a6c28b01d744005708f4d1731e6858deaa7894a7fe6e",
    "formulas": "da75836f64f2dbd4c4c5df21b4425896433485d4cae8d2e3628ee1eac9d4831f",
}


class TestPinnedOutput:
    def test_small_grid_csv_bytes(self):
        for (check, n_max), text in PINNED_CSV.items():
            assert emit_csv(run_scan(check, n_max=n_max)) == text, check

    def test_small_grid_json_and_md_bytes(self):
        rows = run_scan("thm14", n_max=4)
        assert emit_json(rows) == PINNED_THM14_N4_JSON
        assert emit_md(rows) == PINNED_THM14_N4_MD

    @pytest.mark.parametrize("check", DEFAULT_SCAN_DIGESTS)
    def test_default_scan_bytes(self, capsys, check):
        assert cli.main(["scan", "--check", check]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == DEFAULT_SCAN_DIGESTS[check]

    def test_structure_scan_to_twenty_bytes(self):
        # CI's "Structure check to n = 20" digest.  A poset cap of 1 makes
        # every sdepth unknown before any search, so only the structure
        # checks and the claim run.
        text = emit_csv(run_scan("prop16", n_max=20, max_poset=1))
        assert hashlib.sha256(text.encode()).hexdigest() == (
            "5f83ddb5dfd25a91018e7754d57f5bddc34d8d2066265d47575906e9a5053cfd"
        )


class TestUnknownRows:
    def test_poset_cap_makes_sdepth_unknown(self):
        # A cap of one cell makes every poset build raise, so every requested
        # sdepth is missing; the checks that need none keep their values.
        for check, n_max in [("thm14", 6), ("cor15", 6), ("prop16", 6), ("conjecture", 10)]:
            rows = run_scan(check, n_max=n_max, max_poset=1)
            assert rows, check
            asked = [r for r in rows if r.check != "cor15-printed-cond"]
            assert asked, check
            for row in asked:
                assert row.sdepth is None, (check, row)
                assert row.status == "unknown", (check, row)
            if check == "thm14":
                assert all(r.depth == r.psi for r in rows)
            if check == "cor15":
                printed = [r for r in rows if r.check == "cor15-printed-cond"]
                uncapped = [r for r in run_scan("cor15", n_max=n_max)
                            if r.check == "cor15-printed-cond"]
                assert printed and emit_csv(printed) == emit_csv(uncapped)


class TestRowClaims:
    """Every asserted row claims depth = bound_lo <= sdepth <= bound_hi.

    The computed quantities are replaced one at a time, so each row's status
    is seen to follow from that one claim alone.
    """

    # (check, n, m, bound_lo, bound_hi) of one row of each asserted check.
    ASSERTED = [
        ("thm14", 4, 2, formula_table(4, 2).psi, formula_table(4, 2).phi),
        ("cor15", 5, 2, formula_table(5, 2).phi, formula_table(5, 2).phi),
        ("prop16", 5, 2, quotient_module_bound(5, 2), None),
        ("formulas-line", 5, 2, formula_table(5, 2).phi, formula_table(5, 2).phi),
        ("formulas-cycle", 5, 2, formula_table(5, 2).psi, formula_table(5, 2).psi),
    ]
    SEARCHED = [case for case in ASSERTED if not case[0].startswith("formulas")]

    @staticmethod
    def row(label, n, m):
        check = label.partition("-")[0]
        rows = run_scan(check, n_max=n, m_min=m, m_max=m, jobs=1)
        (out,) = [r for r in rows if (r.n, r.m, r.check) == (n, m, label)]
        return out

    @staticmethod
    def sdepth_is(monkeypatch, value):
        # A row that stores no certificate reads only the value of a result.
        result = SimpleNamespace(value=value)
        monkeypatch.setattr(harness, "sdepth_of_pair", lambda pair, **kw: result)

    @pytest.mark.parametrize("label, n, m, lo, hi", ASSERTED)
    def test_depth_off_the_lower_bound(self, monkeypatch, label, n, m, lo, hi):
        if label == "prop16":
            structure = prop16_structure_check

            def shifted(n, m):
                report = structure(n, m)
                return report._replace(derived_depth=report.derived_depth + 1)

            monkeypatch.setattr(harness, "prop16_structure_check", shifted)
        else:
            depth = harness.depth_squarefree
            monkeypatch.setattr(harness, "depth_squarefree", lambda ideal: depth(ideal) + 1)
        out = self.row(label, n, m)
        assert (out.depth, out.bound_lo, out.status) == (lo + 1, lo, "violation")

    @pytest.mark.parametrize("label, n, m, lo, hi", SEARCHED)
    def test_sdepth_below_the_lower_bound(self, monkeypatch, label, n, m, lo, hi):
        self.sdepth_is(monkeypatch, lo - 1)
        out = self.row(label, n, m)
        assert (out.sdepth, out.depth, out.status) == (lo - 1, lo, "violation")

    @pytest.mark.parametrize("label, n, m, lo, hi", SEARCHED)
    def test_sdepth_above_the_upper_bound(self, monkeypatch, label, n, m, lo, hi):
        value = (lo if hi is None else hi) + 1
        self.sdepth_is(monkeypatch, value)
        out = self.row(label, n, m)
        # prop16 asserts only the lower side.
        assert (out.sdepth, out.status) == (value, "ok" if hi is None else "violation")

    def test_structure_problem(self, monkeypatch):
        structure = prop16_structure_check
        monkeypatch.setattr(harness, "prop16_structure_check",
                            lambda n, m: structure(n, m)._replace(ok=False))
        out = self.row("prop16", 5, 2)
        assert (out.depth, out.sdepth, out.status) == (out.bound_lo, out.bound_lo, "violation")

    @pytest.mark.parametrize("error", [TimeLimitExceededError, PosetCapExceededError])
    @pytest.mark.parametrize("label, n, m", [
        ("thm14", 4, 2), ("cor15", 5, 2), ("prop16", 5, 2), ("conjecture", 10, 2),
    ])
    def test_limit_makes_unknown(self, monkeypatch, error, label, n, m):
        def capped(pair, **kw):
            raise error("limit")

        monkeypatch.setattr(harness, "sdepth_of_pair", capped)
        out = self.row(label, n, m)
        assert (out.sdepth, out.status) == (None, "unknown")

    @pytest.mark.parametrize("value", [0, 99])
    def test_conjecture_asserts_nothing(self, monkeypatch, value):
        self.sdepth_is(monkeypatch, value)
        out = self.row("conjecture", 10, 2)
        assert (out.sdepth, out.bound_lo, out.status) == (value, formula_table(10, 2).phi, "ok")

    def test_printed_condition_asserts_nothing(self, monkeypatch):
        monkeypatch.setattr(harness, "depth_squarefree", lambda ideal: 99)
        out = self.row("cor15-printed-cond", 4, 2)
        assert (out.depth, out.sdepth, out.status) == (99, None, "ok")


class TestStructureCheck:
    def test_four_two_single_element(self):
        report = prop16_structure_check(4, 2)
        assert report.ok
        component = report.components[0]
        assert component.wrap_window == (1, 4)
        assert component.forced_var == 3
        assert component.residual_count == 1
        assert component.minimal_nonfaces == ((2,),)
        assert report.derived_depth == quotient_module_bound(4, 2) == 2

    def test_five_two_anchor(self):
        report = prop16_structure_check(5, 2)
        assert report.ok
        component = report.components[0]
        assert component.residual_count == 2
        assert component.minimal_nonfaces == ((2,),)
        assert report.derived_depth == quotient_module_bound(5, 2) == 3

    def test_seven_three_first_component(self):
        report = prop16_structure_check(7, 3)
        assert report.ok
        first = report.components[0]
        assert first.wrap_window == (1, 6, 7)
        assert first.minimal_nonfaces == ((2, 3),)
        second = report.components[1]
        assert second.wrap_window == (1, 2, 7)
        assert second.forced_var == 6
        assert second.minimal_nonfaces == ((3,),)
        assert report.derived_depth == quotient_module_bound(7, 3) == 5

    def test_reports_match_the_pinned_digest(self):
        # The values were recorded with the frozenset enumeration that the
        # masks replaced; the digest is of those reports without the claimed
        # depth and its comparison, which the scan's claim rule makes instead,
        # and without the predicted nonfaces, which equal the minimal ones in
        # every report.
        reports = [prop16_structure_check(n, m) for n in range(3, 13) for m in range(2, n)]
        assert hashlib.sha256(repr(reports).encode()).hexdigest() == (
            "ece7e43fe970a6e0715c3bf15fdc3babd2f8f2e033a1a36dbe2dbb858fa7e9c4"
        )

    @staticmethod
    def module_cells(n, m):
        box = (1,) * n
        return ideal_cells(cycle_path_ideal(n, m), box) & ~ideal_cells(line_path_ideal(n, m), box)

    def check_flipped(self, n, m, flips):
        """The check, and the four-test reference, on the module's cells with
        the cells ``flips`` toggled."""
        cycle, cells = cycle_path_ideal(n, m), self.module_cells(n, m) ^ flips
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "ideal_cells", lambda ideal, box: cells if ideal == cycle else 0)
            report = prop16_structure_check(n, m)
        return report, reference_structure_ok(n, m, cells)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_flipped_cells_match_the_four_tests(self, data):
        n = data.draw(st.integers(3, 9), label="n")
        m = data.draw(st.integers(2, n - 1), label="m")
        module = set_bits(self.module_cells(n, m))
        # Both removed module cells and added cells of the whole box.
        cell = st.one_of(st.sampled_from(module), st.integers(0, (1 << n) - 1))
        flips = data.draw(st.sets(cell, min_size=1, max_size=3), label="flips")
        report, reference = self.check_flipped(n, m, sum(1 << c for c in flips))
        assert report.ok == reference, report.problems

    def test_mismatch_names_the_least_differing_set(self):
        # (5,2) has one component: window {x1, x5}, ambient {x2, x3}, run
        # complex with faces {} and {x3}.  Adding {x1, x2, x5} adds the
        # residual {x2}; removing {x1, x5} removes the face {}.
        for cell, problem in [
            (0b10011, "component 1: residual [2] is not a face of the run complex"),
            (0b10001, "component 1: face [] of the run complex is not a residual"),
        ]:
            report, reference = self.check_flipped(5, 2, 1 << cell)
            assert report.problems == (problem,)
            assert (report.ok, reference) == (False, False)
            assert (report.components, report.derived_depth) == ((), None)

    def test_structure_holds_across_grid(self):
        from sdepthlab import cycle_depth_formula

        for n in range(3, 17):
            for m in range(2, n):
                report = prop16_structure_check(n, m)
                assert report.ok, (n, m, report.problems)
                assert len(report.components) == m - 1
                # Every component contributes residual depth + m; the minimum
                # always lands exactly one above the cycle-quotient depth.
                assert report.derived_depth == min(
                    c.component_depth for c in report.components
                )
                assert report.derived_depth == cycle_depth_formula(n, m) + 1
                assert report.derived_depth == quotient_module_bound(n, m)

    def test_bounds(self):
        with pytest.raises(InputError):
            prop16_structure_check(21, 2)
        with pytest.raises(InputError):
            prop16_structure_check(4, 4)
        assert prop16_structure_check(13, 2).ok

    def test_multidegrees_outside_every_wrap_window_reported(self, monkeypatch):
        # With the windows of width 2 in the cycle, {x1, x2} lies in the
        # module at (6,3) but holds no wrap window of width 3.
        monkeypatch.setattr(harness, "cycle_path_ideal", lambda n, m: cycle_path_ideal(n, m - 1))
        report = prop16_structure_check(6, 3)
        assert not report.ok
        assert "non-assignable multidegree [1, 2]" in report.problems


CLI = [sys.executable, "-m", "sdepthlab.cli"]


def run_cli(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


class TestCli:
    def test_family_text(self):
        proc = run_cli("family", "--kind", "cycle", "--n", "5", "--m", "2")
        assert proc.returncode == 0
        assert format_ideal(cycle_path_ideal(5, 2)) in proc.stdout
        assert "phi=2 psi=2" in proc.stdout

    @pytest.mark.parametrize("kind, n, m, notes", [
        ("cycle", 5, 2, []),
        ("cycle", 4, 4, ["note: m = n, the ideal is principal"]),
        ("line", 4, 1, ["note: m = 1, the quotient ring is the ground field"]),
        ("line", 1, 1, [
            "note: m = n, the ideal is principal",
            "note: m = 1, the quotient ring is the ground field",
        ]),
    ])
    def test_family_note_lines(self, kind, n, m, notes):
        # The ideal line and the formula line come first, then the notes.
        proc = run_cli("family", "--kind", kind, "--n", str(n), "--m", str(m))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[2:] == notes

    def test_family_json(self):
        proc = run_cli("family", "--kind", "line", "--n", "4", "--m", "2", "--out", "json")
        payload = json.loads(proc.stdout)
        assert payload["ideal"] == format_ideal(line_path_ideal(4, 2))
        assert payload["formulas"]["phi"] == 2

    def test_sdepth_ring_quotient(self, tmp_path):
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        cert = tmp_path / "out.cert"
        proc = run_cli(
            "sdepth", "--ideal-file", str(ideal_file), "--certificate", str(cert)
        )
        assert proc.returncode == 0
        assert "sdepth = 1" in proc.stdout
        assert cert.exists()
        verify = run_cli(
            "verify-decomp", "--ideal-file", str(ideal_file),
            "--decomp-file", str(cert), "--k", "1",
        )
        assert verify.returncode == 0
        assert "valid decomposition" in verify.stdout

    def test_verify_rejects_tampered(self, tmp_path):
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        cert = tmp_path / "out.cert"
        run_cli("sdepth", "--ideal-file", str(ideal_file), "--certificate", str(cert))
        lines = cert.read_text().splitlines()
        cert.write_text("\n".join(lines[:-1]) + "\n")
        proc = run_cli(
            "verify-decomp", "--ideal-file", str(ideal_file),
            "--decomp-file", str(cert), "--k", "1",
        )
        assert proc.returncode == 2
        assert "invalid" in proc.stdout

    def test_verify_names_every_failure_kind(self, tmp_path, capsys):
        # A hand-broken cycle (5,2) certificate at k = 2 that reaches every
        # failure a certificate file can: a top of rho 1 (interval 4), a
        # double cover (6), a bottom past the bound (7), a cell outside the
        # poset (8) and an uncovered element.
        ideal_file = tmp_path / "c52.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(5, 2)))
        cert = tmp_path / "broken.cert"
        cert.write_text(
            "1 ; {x1, x3}\nx2 ; {x2, x4}\nx4 ; {x1, x4}\nx5 ; {x5}\n"
            "x3*x5 ; {x3, x5}\nx2*x4 ; {x2, x4}\nx1^2 ; {}\nx1*x2 ; {}\n"
        )
        args = ["verify-decomp", "--ideal-file", str(ideal_file), "--decomp-file", str(cert)]
        assert cli.main([*args, "--k", "2"]) == 2
        assert capsys.readouterr().out == (
            "invalid: interval 4 [x5 ; {x5}]: top has rho 1 < 2\n"
            "invalid: double cover of x2*x4 by intervals 2 and 6\n"
            "invalid: interval 7 [x1^2 ; {}]: bottom x1^2 exceeds the bound\n"
            "invalid: interval 8 [x1*x2 ; {}]: cell x1*x2 is outside the poset\n"
            "invalid: uncovered element x2*x5\n"
        )

    def test_verify_level_out_of_range_is_input_error(self, tmp_path):
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        cert = tmp_path / "out.cert"
        run_cli("sdepth", "--ideal-file", str(ideal_file), "--certificate", str(cert))
        for k in ("-1", "9"):
            proc = run_cli(
                "verify-decomp", "--ideal-file", str(ideal_file),
                "--decomp-file", str(cert), "--k", k,
            )
            assert proc.returncode == 3, (k, proc.stdout)
            assert "k must be in 0..4" in proc.stderr

    def test_verify_max_poset(self, tmp_path):
        # The (4, 2) cycle's multidegree box has 2^4 = 16 cells.
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        cert = tmp_path / "out.cert"
        proc = run_cli("sdepth", "--ideal-file", str(ideal_file), "--max-poset", "16",
                       "--certificate", str(cert))
        assert proc.returncode == 0, proc.stderr
        verify = ["verify-decomp", "--ideal-file", str(ideal_file),
                  "--decomp-file", str(cert), "--k", "1", "--max-poset"]
        proc = run_cli(*verify, "16")
        assert proc.returncode == 0, proc.stderr
        assert "valid decomposition" in proc.stdout
        proc = run_cli(*verify, "15")
        assert proc.returncode == 4
        assert "cap is 15" in proc.stderr

    def test_sdepth_quotient_module(self, tmp_path):
        num = tmp_path / "num.txt"
        den = tmp_path / "den.txt"
        num.write_text(format_ideal(cycle_path_ideal(5, 2)))
        den.write_text(format_ideal(line_path_ideal(5, 2)))
        proc = run_cli(
            "sdepth", "--ideal-file", str(num), "--quotient-by", str(den)
        )
        assert proc.returncode == 0
        assert "sdepth = 3" in proc.stdout

    @pytest.mark.parametrize("ideal, quotient_by, stdout", [
        (format_ideal(cycle_path_ideal(5, 2)), None,
         "sdepth = 2\nposet elements = 11\ncertified: partition at 2, none at 3\n"),
        ("n=3: x1*x2", "n=3: 0",
         "sdepth = 3\nposet elements = 1\ncertified: partition at 3 (ambient bound)\n"),
    ], ids=["cycle-5-2", "free-module"])
    def test_sdepth_stdout_bytes(self, tmp_path, ideal, quotient_by, stdout):
        # The whole text: the `certified:` line is the only output of infeasible_at.
        ideal_file = tmp_path / "ideal.txt"
        ideal_file.write_text(ideal)
        args = ["sdepth", "--ideal-file", str(ideal_file)]
        if quotient_by is not None:
            den = tmp_path / "den.txt"
            den.write_text(quotient_by)
            args += ["--quotient-by", str(den)]
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
        # --stats writes only to stderr.
        proc = run_cli(*args, "--stats")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == stdout
        assert proc.stderr.startswith("search: levels=")

    def test_sdepth_stats_when_the_limit_is_hit(self, tmp_path):
        ideal_file = tmp_path / "c13-3.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(13, 3)))
        proc = run_cli("sdepth", "--ideal-file", str(ideal_file), "--time-limit-s", "0.2", "--stats")
        assert proc.returncode == 4
        assert proc.stdout == ""
        search, limit = proc.stderr.splitlines()
        assert search.startswith("search: levels=7 ")
        assert limit.startswith("resource limit:")

    def test_sdepth_stats_when_the_poset_cap_is_hit(self, tmp_path):
        # The build stops at the cap before any search, so there is no search line.
        ideal_file = tmp_path / "c12-3.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(12, 3)))
        proc = run_cli("sdepth", "--ideal-file", str(ideal_file), "--max-poset", "10", "--stats")
        assert proc.returncode == 4
        assert proc.stdout == ""
        assert proc.stderr == "resource limit: multidegree box has 4096 cells, cap is 10\n"

    def test_depth_with_betti(self, tmp_path):
        ideal_file = tmp_path / "i42.txt"
        ideal_file.write_text(format_ideal(line_path_ideal(4, 2)))
        proc = run_cli("depth", "--ideal-file", str(ideal_file), "--betti")
        assert proc.returncode == 0
        assert "depth = 2" in proc.stdout
        assert "pd = 2" in proc.stdout
        assert "0,,1" in proc.stdout  # the empty-degree table entry

    def test_input_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("n=2: x1 + x2")
        proc = run_cli("depth", "--ideal-file", str(bad))
        assert proc.returncode == 3
        assert "error:" in proc.stderr

    def test_unwritable_certificate_is_input_error(self, tmp_path):
        # Reported before the search: nothing reaches stdout.
        proc, cert = self.sdepth_with_certificate(tmp_path, "no-such-dir/out.cert")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: cannot write {cert}: no directory")

    def test_certificate_naming_a_directory_is_input_error(self, tmp_path):
        proc, cert = self.sdepth_with_certificate(tmp_path, ".")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: cannot write {cert}: it is a directory")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_full_certificate_file_writes_no_stdout(self, tmp_path):
        # The certificate is written before the result lines, so a write that
        # fails leaves stdout empty, as every input error does.
        proc, _ = self.sdepth_with_certificate(tmp_path, "/dev/full")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [
            "error: cannot write /dev/full: [Errno 28] No space left on device"
        ]

    @staticmethod
    def sdepth_with_certificate(tmp_path, name):
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        cert = tmp_path / name
        return run_cli("sdepth", "--ideal-file", str(ideal_file), "--certificate", str(cert)), cert

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_unwritable_scan_certificate_is_input_error(self, tmp_path, jobs):
        # A row's certificate path that is a directory fails at the write,
        # in whichever process computed the row.
        cert = tmp_path / "thm14-n4-m2.cert"
        cert.mkdir()
        proc = run_cli(
            "scan", "--check", "thm14", "--n-max", "4", "--jobs", jobs, "--cert-dir", str(tmp_path)
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: cannot write {cert}: ")

    def test_certificate_syntax_error_names_its_line(self, tmp_path):
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        cert = tmp_path / "bad.cert"
        cert.write_text("1 ; {x1}\nx1 ; {x2}\nx2*y ; {x3}\n")
        proc = run_cli(
            "verify-decomp", "--ideal-file", str(ideal_file), "--decomp-file", str(cert), "--k", "1"
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: certificate line 3: unexpected character 'y' (at position 3)\n"
        )

    def test_cert_dir_naming_a_file_is_input_error(self, tmp_path):
        taken = tmp_path / "taken"
        taken.write_text("")
        proc = run_cli("scan", "--check", "thm14", "--n-max", "5", "--cert-dir", str(taken))
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr.splitlines() == [proc.stderr.strip()]
        assert proc.stderr.startswith(f"error: cannot use {taken} as the certificate directory")

    def test_resource_cap_exit_code(self, tmp_path):
        ideal_file = tmp_path / "big.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(10, 2)))
        proc = run_cli("sdepth", "--ideal-file", str(ideal_file), "--max-poset", "10")
        assert proc.returncode == 4

    def test_scan_violation_exit_code(self, monkeypatch, capsys):
        # No shipped check reports a violation on a correct program, so the
        # scan is replaced by one that returns a violation row.
        row = ScanRow(n=7, m=3, check="prop16", psi=4, phi=4, sdepth=5, depth=5,
                      bound_lo=6, bound_hi=None, status="violation", ms=0)
        monkeypatch.setattr(cli, "run_scan", lambda *args, **kw: [row])
        code = cli.main(["scan", "--check", "prop16", "--n-max", "7", "--m-min", "3"])
        assert code == 2
        assert "violation" in capsys.readouterr().out

    def test_scan_csv_ok(self):
        proc = run_cli("scan", "--check", "thm14", "--n-max", "5")
        assert proc.returncode == 0
        assert proc.stdout.startswith("n,m,check")

    def test_main_and_scan_leave_the_collector_alone(self, capsys):
        # Only the exit function freezes the objects left behind.
        run_scan("thm14", n_max=5, jobs=2)
        assert cli.main(["scan", "--check", "thm14", "--n-max", "5", "--jobs", "2"]) == 0
        assert gc.get_freeze_count() == 0

    @pytest.mark.parametrize("args,code", [
        (("family", "--kind", "cycle", "--n", "5", "--m", "2"), 0),
        (("family", "--kind", "cycle", "--n", "5"), 3),
    ])
    def test_run_exits_with_the_code_of_main_after_freezing(self, args, code):
        script = ("import gc, sys\n"
                  "from sdepthlab import cli\n"
                  "try:\n"
                  "    cli.run()\n"
                  "except SystemExit as exc:\n"
                  "    print(exc.code, gc.get_freeze_count() > 0, file=sys.stderr)\n")
        proc = subprocess.run([sys.executable, "-c", script, *args],
                              capture_output=True, text=True, timeout=60)
        assert proc.stderr.splitlines()[-1] == f"{code} True"

    @pytest.mark.parametrize("args", [
        ("sdepth", "--time-limit-s", "-1"),
        ("sdepth", "--time-limit-s", "nan", "--stats"),
        ("sdepth", "--max-poset", "-5"),
        ("verify-decomp", "--max-poset", "0"),
        ("scan", "--check", "thm14", "--n-max", "9", "--m-min", "3", "--m-max", "3",
         "--time-limit-s", "-1"),
        ("scan", "--check", "formulas", "--max-poset", "0"),
    ])
    def test_bad_limits_are_input_errors(self, tmp_path, capsys, args):
        # Exit 3 before any work, not 4 as a limit that a search hit.
        ideal_file = tmp_path / "j42.txt"
        ideal_file.write_text(format_ideal(cycle_path_ideal(4, 2)))
        if args[0] == "sdepth":
            args += ("--ideal-file", str(ideal_file))
        if args[0] == "verify-decomp":
            args += ("--ideal-file", str(ideal_file), "--decomp-file", str(ideal_file), "--k", "1")
        assert cli.main(list(args)) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and "must be at least" in err
        assert err.count("\n") == 1

    def test_sdepth_reads_the_ideal_before_the_limits(self, tmp_path, capsys):
        missing = tmp_path / "missing.txt"
        args = ["sdepth", "--ideal-file", str(missing), "--time-limit-s", "-1", "--stats"]
        assert cli.main(args) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: cannot read {missing}") and err.count("\n") == 1

    def test_scan_jobs_below_one_is_input_error(self):
        proc = run_cli("scan", "--check", "thm14", "--n-max", "5", "--jobs", "-3")
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "jobs must be at least 1" in proc.stderr

    def test_import_loads_no_json_process_pool_or_dataclasses(self):
        # Start-up cost is paid by every scan process: the modules a command
        # needs only on some paths are imported on those paths, and the
        # records are plain classes, so neither `dataclasses` nor the
        # `inspect` it pulls in is loaded.
        code = "import sys, sdepthlab.cli; print(*sorted(sys.modules))"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        skipped = ("json", "multiprocessing", "concurrent", "dataclasses", "inspect")
        loaded = [name for name in proc.stdout.split() if name.partition(".")[0] in skipped]
        assert loaded == []

    @pytest.mark.parametrize("args", [
        ("family", "--kind", "cycle", "--n", "7", "--m", "3"),
        ("scan", "--check", "thm14", "--n-max", "6"),
    ])
    def test_closed_stdout_exits_quietly(self, args):
        # The reader end is closed before the CLI starts, so its first write
        # or final flush always meets a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(CLI + list(args), stdout=write_end,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.stderr == ""
        assert proc.returncode == cli.EXIT_BROKEN_PIPE

    def test_help_writes_the_parser_text(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            cli.main(["--help"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out == cli.build_parser().format_help()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("args", [
        ("family", "--kind", "cycle", "--n", "7", "--m", "3"),
        ("scan", "--check", "thm14", "--n-max", "6"),
        ("scan", "--check", "thm14", "--n-max", "6", "--jobs", "2"),
        ("--help",),
        ("scan", "--help"),
    ])
    def test_full_stdout_reports_one_line(self, args):
        # Every write to /dev/full fails with ENOSPC.
        with open("/dev/full", "w") as full:
            proc = subprocess.run(CLI + list(args), stdout=full,
                                  stderr=subprocess.PIPE, text=True)
        assert proc.stderr.splitlines() == [
            "error: cannot write standard output: [Errno 28] No space left on device"
        ]
        assert proc.returncode == cli.EXIT_BROKEN_PIPE
