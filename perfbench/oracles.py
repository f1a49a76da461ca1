"""Correctness oracles that share no code with the package under test.

Each checker takes plain Python data (exponent tuples, variable sets, dicts)
and returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import hashlib
from itertools import product


def phi(n: int, m: int) -> int:
    """Depth of S/I for the line path ideal: n+1 - floor((n+1)/(m+1)) - ceil((n+1)/(m+1))."""
    q, r = divmod(n + 1, m + 1)
    return n + 1 - q - (q + (1 if r else 0))


def psi(n: int, m: int) -> int:
    """Depth of S/I for the cycle path ideal: phi(n-1, m)."""
    return phi(n - 1, m)


def path_generators(kind: str, n: int, m: int) -> list[frozenset[int]]:
    """Supports (0-based variable sets) of the m-windows on a line or cycle of n vertices."""
    if kind == "line":
        starts = range(n - m + 1)
    else:
        starts = range(n)
    return sorted({frozenset((s + d) % n for d in range(m)) for s in starts}, key=sorted)


def exponent_vectors(n: int, supports: list[frozenset[int]], power: int) -> list[tuple[int, ...]]:
    """Minimal generators of I^power as exponent tuples, I spanned by squarefree supports."""
    vecs = {tuple(0 for _ in range(n))}
    for _ in range(power):
        vecs = {
            tuple(v[j] + (1 if j in s else 0) for j in range(n)) for v in vecs for s in supports
        }
    return sorted(
        v for v in vecs
        if not any(w != v and all(a <= b for a, b in zip(w, v)) for w in vecs)
    )


def check_certificate(
    gens: list[tuple[int, ...]],
    intervals: list[tuple[tuple[int, ...], frozenset[int]]],
    k: int,
) -> list[str]:
    """Check an interval partition of the poset of S/I at level k.

    The poset is rebuilt from the generators: every multidegree a <= g with no
    generator dividing it, where g is the coordinatewise maximum exponent.  An
    interval is a bottom a and a set Z of 1-based variables; its top meets g on
    Z and keeps a elsewhere.  The intervals must lie in the poset, be pairwise
    disjoint, cover it exactly, and have tops meeting g in at least k places.
    """
    n = len(gens[0])
    g = tuple(max(v[j] for v in gens) for j in range(n))

    def in_ideal(c):
        return any(all(a <= b for a, b in zip(v, c)) for v in gens)

    cells = {c for c in product(*(range(gj + 1) for gj in g)) if not in_ideal(c)}
    problems = []
    seen: set[tuple[int, ...]] = set()
    for bottom, zvars in intervals:
        if len(bottom) != n or any(not 1 <= v <= n for v in zvars):
            problems.append(f"malformed interval {bottom} {sorted(zvars)}")
            continue
        top = tuple(g[j] if j + 1 in zvars else bottom[j] for j in range(n))
        if sum(1 for t, gj in zip(top, g) if t == gj) < k:
            problems.append(f"interval at {bottom} has a top below level {k}")
        for c in product(*(range(lo, hi + 1) for lo, hi in zip(bottom, top))):
            if c not in cells:
                problems.append(f"cell {c} lies outside the poset")
            elif c in seen:
                problems.append(f"cell {c} is covered twice")
            seen.add(c)
    missing = len(cells - seen)
    if missing:
        problems.append(f"{missing} poset cells are uncovered")
    return problems


def check_sdepth_value(kind: str, n: int, m: int, power: int, value: int, expected: int) -> list[str]:
    """Compare with the recorded value and, for S/I, with the closed-form bounds."""
    problems = []
    if value != expected:
        problems.append(f"sdepth {value}, reference {expected}")
    if power == 1:
        lo, hi = (phi(n, m), phi(n, m)) if kind == "line" else (psi(n, m), phi(n, m))
        if not lo <= value <= hi:
            problems.append(f"sdepth {value} outside [{lo}, {hi}]")
    return problems


def betti_digest(entries: dict[tuple[int, tuple[int, ...]], int]) -> str:
    """sha256 of the table as sorted 'i,F,rank' lines, the same text `depth --betti` prints."""
    lines = [f"{i},{'-'.join(map(str, f))},{r}" for (i, f), r in sorted(entries.items())]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def check_betti(
    kind: str,
    n: int,
    m: int,
    entries: dict[tuple[int, tuple[int, ...]], int],
    digest: str,
) -> list[str]:
    """Digest, projective dimension and a per-degree Euler identity.

    For each squarefree degree F, the alternating sum over i of beta_{i,F}
    equals the sum over faces G of the restriction to F of (-1)^(|F|+|G|);
    faces are the subsets containing no generator support.
    """
    problems = []
    if betti_digest(entries) != digest:
        problems.append("Betti table differs from the reference digest")
    depth = phi(n, m) if kind == "line" else psi(n, m)
    pd = max(i for i, _ in entries)
    if pd != n - depth:
        problems.append(f"pd {pd}, closed form {n - depth}")
    masks = [sum(1 << j for j in s) for s in path_generators(kind, n, m)]
    # chi[F] = sum over faces G inside F of (-1)^|G|, by a subset-sum transform.
    chi = [0] * (1 << n)
    for gmask in range(1 << n):
        if not any(gmask & nf == nf for nf in masks):
            chi[gmask] = -1 if gmask.bit_count() % 2 else 1
    for j in range(n):
        bit = 1 << j
        for f in range(1 << n):
            if f & bit:
                chi[f] += chi[f ^ bit]
    alt = [0] * (1 << n)
    for (i, fvars), rank in entries.items():
        alt[sum(1 << (v - 1) for v in fvars)] += -rank if i % 2 else rank
    for f in range(1 << n):
        expected = chi[f] if f.bit_count() % 2 == 0 else -chi[f]
        if alt[f] != expected:
            problems.append(f"Euler identity fails at degree mask {f:#x}")
            break
    return problems


def check_scan(stdout: bytes, exit_code: int, ref_stdout: bytes, ref_exit: int) -> list[str]:
    """Byte and exit-code comparison, then the thm14 claims row by row."""
    problems = []
    if exit_code != ref_exit:
        problems.append(f"exit code {exit_code}, reference {ref_exit}")
    if stdout != ref_stdout:
        problems.append("stdout differs from the reference bytes")
    lines = stdout.decode(errors="replace").splitlines()
    for line in lines[1:]:
        fields = line.split(",")
        try:
            n, m, ps, ph, depth = (int(fields[i]) for i in (0, 1, 3, 4, 6))
            sdepth = int(fields[5]) if fields[5] else None
        except (ValueError, IndexError):
            problems.append(f"unparsable row {line!r}")
            continue
        if ps != psi(n, m) or ph != phi(n, m):
            problems.append(f"row ({n},{m}) has wrong closed forms")
        elif depth != psi(n, m) or sdepth is None or not psi(n, m) <= sdepth <= phi(n, m):
            problems.append(f"row ({n},{m}) breaks psi = depth <= sdepth <= phi")
    return problems
