"""Path-ideal families of the line and cycle graphs and their closed formulas."""

from __future__ import annotations

from typing import NamedTuple

from .errors import InputError
from .ideals import (
    MAX_AMBIENT,
    MonomialIdeal,
    add_generators,
    colon,
    minimalize,
    monomial,
    variable,
)


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
    k = m + 1
    phi = line_depth_formula(n, m)
    psi = cycle_depth_formula(n, m)
    p, d = divmod(n, k)

    r = n % k
    if r <= m - 1:
        num = 2 * (n - r)
    else:  # r == m
        num = 2 * n - m + 1
    if num % k:
        raise AssertionError(f"pd_line numerator {num} is not divisible by {k}")
    pd_line = num // k
    pd_cycle = 2 * p + 1 if d != 0 else 2 * p

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


def proof_tower(n: int, m: int) -> list[tuple[MonomialIdeal, MonomialIdeal]]:
    """Colon/extension tower over the cycle ideal.

    Starting from L_0 = cycle ideal, returns pairs (L_k, U_k) for k = 0..m-1
    where U_k = (L_k, x_{n-k}) and L_{k+1} = (L_k : x_{n-k}).  Every ideal is
    computed by the colon and extension operations, never transcribed from a
    closed-form generator list.
    """
    if not (3 <= m + 1 < n):
        raise InputError(f"tower needs 3 <= m+1 < n, got (n, m) = ({n}, {m})")
    tower = []
    level = cycle_path_ideal(n, m)
    for k in range(m):
        x = variable(n, n - k)
        tower.append((level, add_generators(level, [x])))
        level = colon(level, x)
    return tower

