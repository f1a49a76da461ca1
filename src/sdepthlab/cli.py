"""Command line interface.

Exit codes: 0 when everything ran and no asserted claim failed, 1 when
standard output could not be written (silently when the reader closed it, with
one ``error: cannot write standard output`` line on stderr for any other
OSError there), 2 when a scan or verification found a violation, 3 for input
errors, 4 when a resource cap or time limit was hit at the command level.
With ``--stats``, an ``sdepth`` run that searched no level prints no
``search:`` line: a bad limit, a capped poset build.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import InputError, ResourceCapError
from .families import cycle_path_ideal, formula_table, line_path_ideal
from .harness import CHECKS, emit_csv, emit_json, emit_md, run_scan, write_certificate
from .homology import HomologyStats, hochster_betti
from .ideals import QuotientPresentation, format_ideal, parse_ideal, ring_quotient
from .solver import (
    DEFAULT_POSET_CAP,
    DEFAULT_TIME_LIMIT_S,
    SearchStats,
    build_poset,
    parse_certificate,
    sdepth_of_pair,
    verify_decomposition,
)

EXIT_OK = 0
EXIT_BROKEN_PIPE = 1
EXIT_VIOLATION = 2
EXIT_INPUT = 3
EXIT_RESOURCE = 4


class _OutputError(Exception):
    """An OSError met writing standard output, which is its cause."""


def _write(text: str) -> None:
    """Write ``text`` to standard output and flush it.

    An OSError there is raised as _OutputError, so that ``main`` can tell it
    from the OSErrors of files.
    """
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        raise _OutputError from exc


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exits with code 2
        raise InputError(message)

    def print_help(self, file=None):
        # argparse's own write ignores an OSError; ``_write`` reports it.
        if file is None:
            _write(self.format_help())
        else:
            super().print_help(file)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _read_ideal(path: str):
    return parse_ideal(_read_text(path))


def _load_pair(args) -> QuotientPresentation:
    ideal = _read_ideal(args.ideal_file)
    if args.quotient_by is None:
        return ring_quotient(ideal)
    return QuotientPresentation(ideal, _read_ideal(args.quotient_by))


def _cmd_family(args) -> int:
    family = line_path_ideal if args.kind == "line" else cycle_path_ideal
    ideal = family(args.n, args.m)
    # Every field of the formula record after n and m, in field order.
    rec = formula_table(args.n, args.m)
    formulas = dict(zip(rec._fields[2:], rec[2:]))
    if args.out == "json":
        import json

        payload = {
            "kind": args.kind,
            "n": args.n,
            "m": args.m,
            "ideal": format_ideal(ideal),
            "formulas": formulas,
        }
        _write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return EXIT_OK
    lines = [
        format_ideal(ideal),
        " ".join(f"{name}={value}" for name, value in formulas.items()),
    ]
    if args.m == args.n:
        lines.append("note: m = n, the ideal is principal")
    if args.m == 1:
        lines.append("note: m = 1, the quotient ring is the ground field")
    _write("".join(line + "\n" for line in lines))
    return EXIT_OK


def _check_writable(path: str) -> None:
    """Raise InputError unless ``path`` names a file that can be written.

    Checked before a long computation whose result goes there; the write
    itself still reports any OSError it meets.
    """
    target = Path(path)
    folder = target.parent
    if target.is_dir():
        reason = "it is a directory"
    elif not folder.is_dir():
        reason = f"no directory {folder}"
    elif not os.access(folder, os.W_OK | os.X_OK) or (
        target.exists() and not os.access(target, os.W_OK)
    ):
        reason = "permission denied"
    else:
        return
    raise InputError(f"cannot write {path}: {reason}")


def _cmd_sdepth(args) -> int:
    pair = _load_pair(args)
    if args.certificate:
        _check_writable(args.certificate)
    stats = SearchStats() if args.stats else None
    try:
        result = sdepth_of_pair(pair, time_limit_s=args.time_limit_s,
                                max_poset=args.max_poset, stats=stats)
    finally:
        # Also when the search hits the time limit: the counts show how far it got.
        if stats is not None and stats.levels:
            print(f"search: {stats.format()}", file=sys.stderr)
    if result.infeasible_at is not None:
        certified = f"partition at {result.value}, none at {result.infeasible_at}"
    else:
        certified = f"partition at {result.value} (ambient bound)"
    _write(
        f"sdepth = {result.value}\nposet elements = {len(result.poset)}\n"
        f"certified: {certified}\n"
    )
    if args.certificate:
        write_certificate(args.certificate, result.certificate)
        _write(f"certificate written to {args.certificate}\n")
    return EXIT_OK


def _cmd_depth(args) -> int:
    ideal = _read_ideal(args.ideal_file)
    stats = HomologyStats() if args.stats else None
    table = hochster_betti(ideal, stats=stats)
    if stats is not None:
        print(f"homology: {stats.format()}", file=sys.stderr)
    lines = [f"depth = {table.depth()}", f"pd = {table.projective_dimension()}"]
    if args.betti:
        lines.append("i,F,rank")
        for (i, fvars), rank in sorted(table.entries.items()):
            lines.append(f"{i},{'-'.join(str(v) for v in fvars)},{rank}")
    _write("".join(line + "\n" for line in lines))
    return EXIT_OK


def _cmd_verify_decomp(args) -> int:
    pair = _load_pair(args)
    poset = build_poset(pair, cap=args.max_poset)
    decomposition = parse_certificate(_read_text(args.decomp_file), poset.n)
    report = verify_decomposition(poset, decomposition, args.k)
    if report.ok:
        _write(f"valid decomposition at level {args.k} (min rho = {report.min_rho})\n")
        return EXIT_OK
    _write("".join(f"invalid: {failure}\n" for failure in report.failures))
    return EXIT_VIOLATION


def _cmd_scan(args) -> int:
    rows = run_scan(
        args.check,
        n_max=args.n_max,
        m_min=args.m_min,
        m_max=args.m_max,
        time_limit_s=args.time_limit_s,
        max_poset=args.max_poset,
        jobs=args.jobs,
        cert_dir=args.cert_dir,
    )
    emitter = {"csv": emit_csv, "json": emit_json, "md": emit_md}[args.format]
    _write(emitter(rows, timings=args.timings))
    if any(row.status == "violation" for row in rows):
        return EXIT_VIOLATION
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sdepthlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", help="print a family ideal and its formula table")
    p_family.add_argument("--kind", choices=("line", "cycle"), required=True)
    p_family.add_argument("--n", type=int, required=True)
    p_family.add_argument("--m", type=int, required=True)
    p_family.add_argument("--out", choices=("text", "json"), default="text")
    p_family.set_defaults(func=_cmd_family)

    p_sdepth = sub.add_parser("sdepth", help="compute the certified invariant of a quotient")
    p_sdepth.add_argument("--ideal-file", required=True)
    p_sdepth.add_argument("--quotient-by", default=None,
                          help="denominator ideal file; omitted means the ring quotient")
    p_sdepth.add_argument("--time-limit-s", type=float, default=DEFAULT_TIME_LIMIT_S)
    p_sdepth.add_argument("--max-poset", type=int, default=DEFAULT_POSET_CAP)
    p_sdepth.add_argument("--certificate", default=None, help="write the certificate here")
    p_sdepth.add_argument("--stats", action="store_true",
                          help="print the partition search's counts on stderr")
    p_sdepth.set_defaults(func=_cmd_sdepth)

    p_depth = sub.add_parser("depth", help="depth of a squarefree quotient ring")
    p_depth.add_argument("--ideal-file", required=True)
    p_depth.add_argument("--betti", action="store_true", help="also print nonzero table entries")
    p_depth.add_argument("--stats", action="store_true",
                         help="print the Betti table computation's counts on stderr")
    p_depth.set_defaults(func=_cmd_depth)

    p_scan = sub.add_parser("scan", help="run a verification scan over the family grid")
    p_scan.add_argument("--check", choices=CHECKS, required=True)
    p_scan.add_argument("--n-max", type=int, default=None)
    p_scan.add_argument("--m-min", type=int, default=2)
    p_scan.add_argument("--m-max", type=int, default=None)
    p_scan.add_argument("--format", choices=("csv", "json", "md"), default="csv")
    p_scan.add_argument("--jobs", type=int, default=1)
    p_scan.add_argument("--time-limit-s", type=float, default=DEFAULT_TIME_LIMIT_S)
    p_scan.add_argument("--max-poset", type=int, default=DEFAULT_POSET_CAP)
    p_scan.add_argument("--timings", action="store_true",
                        help="emit measured milliseconds (output is then not reproducible)")
    p_scan.add_argument("--cert-dir", default=None, help="store certificates in this directory")
    p_scan.set_defaults(func=_cmd_scan)

    p_verify = sub.add_parser("verify-decomp", help="check a decomposition certificate")
    p_verify.add_argument("--ideal-file", required=True)
    p_verify.add_argument("--quotient-by", default=None)
    p_verify.add_argument("--decomp-file", required=True)
    p_verify.add_argument("--k", type=int, required=True)
    p_verify.add_argument("--max-poset", type=int, default=DEFAULT_POSET_CAP)
    p_verify.set_defaults(func=_cmd_verify_decomp)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ResourceCapError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (_OutputError, BrokenPipeError) as exc:
        # A closed reader needs no message; any other error of the output
        # gets one line.  As in the signal module's documentation, stdout
        # then points at devnull so the interpreter's final flush cannot fail
        # a second time.
        cause = exc.__cause__ if isinstance(exc, _OutputError) else exc
        if not isinstance(cause, BrokenPipeError):
            print(f"error: cannot write standard output: {cause}", file=sys.stderr)
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


def run() -> None:
    """Exit with ``main``'s code: ``python -m sdepthlab.cli`` and the ``sdepthlab`` script.

    The objects the run leaves behind are frozen first, so the interpreter's
    collections at exit skip them; they would walk every one of them and find
    nothing to collect.  ``main`` leaves the collector alone, for in-process
    callers.
    """
    code = main()
    import gc

    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
