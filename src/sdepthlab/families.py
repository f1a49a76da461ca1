"""Path-ideal families of the line and cycle graphs and their closed formulas."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .ideals import MAX_AMBIENT, MonomialIdeal, minimalize, monomial


def _check_bounds(n: int, m: int) -> None:
    if not 1 <= m <= n <= MAX_AMBIENT:
        raise InputError(f"need 1 <= m <= n <= {MAX_AMBIENT}, got (n, m) = ({n}, {m})")


def line_path_ideal(n: int, m: int) -> MonomialIdeal:
    """Ideal of all m consecutive-variable windows x_i*...*x_{i+m-1}, i = 1..n-m+1."""
    _check_bounds(n, m)
    gens = [monomial(n, range(i, i + m)) for i in range(1, n - m + 2)]
    return minimalize(gens, n)


def cycle_path_ideal(n: int, m: int) -> MonomialIdeal:
    """Ideal of all n cyclic windows of m consecutive variables (indices mod n)."""
    _check_bounds(n, m)
    gens = [monomial(n, ((i + d - 1) % n + 1 for d in range(m))) for i in range(1, n + 1)]
    return minimalize(gens, n)


def _floor_ceil(a: int, k: int) -> tuple[int, int]:
    q, r = divmod(a, k)
    return q, q + (1 if r else 0)


def line_depth_formula(n: int, m: int) -> int:
    """Closed form for the depth of the quotient by the line family ideal."""
    lo, hi = _floor_ceil(n + 1, m + 1)
    return n + 1 - lo - hi


def cycle_depth_formula(n: int, m: int) -> int:
    """Closed form for the depth of the quotient by the cycle family ideal."""
    return line_depth_formula(n - 1, m)


def quotient_module_bound(n: int, m: int) -> int:
    """Lower bound for the cycle ideal modulo the line ideal: phi(n-m-2, m) + m.

    The module splits into m-1 wrap-window components, each contributing its
    residual quotient's depth plus the m window variables; the smallest of
    these is phi(n-m-2, m) + m (``harness.prop16_structure_check`` derives it
    for every n <= ``MAX_AMBIENT``).  This equals psi(n, m) + 1 as an exact
    integer identity.
    """
    return line_depth_formula(n - m - 2, m) + m


def is_equality_case(n: int, m: int) -> bool:
    """Whether the two depth formulas coincide, i.e. n mod (m+1) lies in {0, m}."""
    return n % (m + 1) in (0, m)


class FormulaRecord(NamedTuple):
    """All closed-form invariants of a family instance in one place."""

    n: int
    m: int
    phi: int
    psi: int
    pd_line: int
    pd_cycle: int
    depth_line: int
    depth_cycle: int
    p: int
    d: int


def formula_table(n: int, m: int) -> FormulaRecord:
    """Evaluate every closed formula at (n, m) and cross-check the invariants."""
    _check_bounds(n, m)
    phi = line_depth_formula(n, m)
    psi = cycle_depth_formula(n, m)
    p, d = divmod(n, m + 1)
    pd_line = 2 * p + (d == m)
    pd_cycle = 2 * p + (d != 0)

    rec = FormulaRecord(
        n=n,
        m=m,
        phi=phi,
        psi=psi,
        pd_line=pd_line,
        pd_cycle=pd_cycle,
        depth_line=n - pd_line,
        depth_cycle=n - pd_cycle,
        p=p,
        d=d,
    )
    if rec.depth_line != rec.phi or rec.depth_cycle != rec.psi:
        raise AssertionError(f"n - pd disagrees with phi/psi at (n, m) = ({n}, {m})")
    return rec
