"""Independent oracles shared by the unit and acceptance tests."""

import subprocess
import sys
from fractions import Fraction
from itertools import combinations, compress, filterfalse, product, repeat
from math import prod
from operator import eq, le, lt, mul, or_

from sdepthlab import (
    InputError,
    Monomial,
    MonomialIdeal,
    StanleyDecomposition,
    VerificationReport,
    add_generators,
    colon,
    cycle_path_ideal,
    exists_partition,
    minimalize,
    monomial,
    sr_complex,
    variable,
)
from sdepthlab import homology
from sdepthlab.ideals import MAX_AMBIENT, box_steps, box_upset, set_bits, submasks


def run_optimized(code: str) -> str:
    """Run ``code`` under python -O, which strips assert statements."""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def rows(poset) -> tuple[tuple[int, ...], ...]:
    """The exponent tuple of each element of ``poset``, in element order."""
    return tuple(map(poset.exponents, range(len(poset))))


def encode(poset, exps) -> int:
    """The mixed-radix code of the exponent vector ``exps`` in ``poset``'s box."""
    return sum(e * w for e, w in zip(exps, poset.weights))


def decode(poset, code) -> tuple[int, ...]:
    """The exponent vector of the cell ``code`` of ``poset``'s box."""
    return tuple(code // w % (gj + 1) for w, gj in zip(poset.weights, poset.g))


def codes(poset) -> tuple[int, ...]:
    """The code of each element of ``poset``, in element order."""
    return tuple(encode(poset, e) for e in rows(poset))


def element_index(poset) -> dict[int, int]:
    """Each element's code mapped to its index in the poset's listing."""
    return {code: i for i, code in enumerate(codes(poset))}


def contains_exps(poset, exps) -> bool:
    """Whether the exponent vector ``exps`` is an element of ``poset``."""
    if any(e > gj for e, gj in zip(exps, poset.g)):
        return False
    return bool(poset.cells >> encode(poset, exps) & 1)


def principal_decomposition(u: Monomial) -> StanleyDecomposition:
    """The staircase decomposition of the quotient ring by one monomial.

    Writing u as an ordered product of variables (ascending index, repeats
    adjacent), the i-th interval starts at the product of the first i-1
    factors and spans every variable except the i-th factor's.  Each interval
    top then meets the bound in all but one coordinate, so the value is the
    ambient size minus one.
    """
    if u.is_constant():
        raise InputError("the principal generator must not be constant")
    n = u.ambient
    allvars = frozenset(range(1, n + 1))
    intervals = []
    prefix = [0] * n
    for j in range(1, n + 1):
        for _ in range(u.exponents[j - 1]):
            intervals.append((Monomial(tuple(prefix)), allvars - {j}))
            prefix[j - 1] += 1
    return StanleyDecomposition(n, tuple(intervals))


def brute_force_sdepth(poset) -> int:
    """Maximum over all interval partitions of the minimum rho, by enumeration.

    Enumerates every partition of the poset into intervals [a, b] (arbitrary
    elements a <= b whose whole box lies in the poset), using no level
    parameter, no canonical-top restriction, and no pruning.  Each partition
    is generated exactly once: the first uncovered element in the linear
    extension is the bottom of exactly one interval of any partition.
    """
    size = len(poset)
    exps = rows(poset)
    rho = poset.rho
    index = element_index(poset)
    best = -1

    def cells_of(ei, bi):
        a, b = exps[ei], exps[bi]
        if any(x > y for x, y in zip(a, b)):
            return None
        idxs = []
        for point in product(*(range(a[j], b[j] + 1) for j in range(poset.n))):
            ci = index.get(encode(poset, point))
            if ci is None:
                return None
            idxs.append(ci)
        return idxs

    def rec(covered, current_min):
        nonlocal best
        first = next((i for i in range(size) if not covered >> i & 1), None)
        if first is None:
            best = max(best, current_min)
            return
        for bi in range(size):
            if covered >> bi & 1:
                continue
            idxs = cells_of(first, bi)
            if idxs is None or any(covered >> ci & 1 for ci in idxs):
                continue
            mask = covered
            for ci in idxs:
                mask |= 1 << ci
            rec(mask, min(current_min, rho[bi]))

    rec(0, poset.n + 1)
    return best


def reference_poset(pair, g_override=None):
    """(g, codes, exps, rho, index) of a presentation's poset, by box enumeration.

    The bound is ``g_override`` or the coordinatewise maximum of the generator
    exponents.  Every point of the box [0, g] is kept when some numerator
    generator divides it and no denominator generator does; the kept points
    are listed by (degree, code), with mixed-radix codes, x1 least significant.
    """
    num = [m.exponents for m in pair.numerator.gens]
    den = [m.exponents for m in pair.denominator.gens]
    g = g_override or tuple(max(e[j] for e in num + den) for j in range(pair.ambient))
    weights = [prod(gj + 1 for gj in g[:j]) for j in range(len(g))]

    def divides(u, point):
        return all(a <= b for a, b in zip(u, point))

    kept = sorted(
        (sum(point), sum(e * w for e, w in zip(point, weights)), point)
        for point in product(*(range(gj + 1) for gj in g))
        if any(divides(u, point) for u in num) and not any(divides(u, point) for u in den)
    )
    codes = tuple(code for _, code, _ in kept)
    exps = tuple(point for _, _, point in kept)
    rho = tuple(sum(e == gj for e, gj in zip(point, g)) for point in exps)
    return g, codes, exps, rho, {code: i for i, code in enumerate(codes)}


def reference_maximal_rho(exps, rho) -> int:
    """The least rho among the points of ``exps`` with no other point above
    them, by comparing exponent vectors coordinate by coordinate.  Another
    point above e has a larger exponent sum, so only those are compared."""
    sums = list(map(sum, exps))
    return min(
        r for e, s, r in zip(exps, sums, rho)
        if not any(t > s and all(a <= b for a, b in zip(e, f)) for f, t in zip(exps, sums))
    )


def reference_up_down(poset, i) -> tuple[int, int]:
    """(up-set, down-set) of element i as bitsets over element indices, by
    comparing exponent vectors coordinate by coordinate."""
    exps = rows(poset)
    e = exps[i]
    up = sum(1 << j for j, f in enumerate(exps) if all(a <= b for a, b in zip(e, f)))
    down = sum(1 << j for j, f in enumerate(exps) if all(b <= a for a, b in zip(e, f)))
    return up, down


def reference_order_bitsets(points, g) -> tuple[list[list[int]], list[list[int]]]:
    """(ge, le) of ``solver.order_bitsets`` built from rows of exponents.

    ``ge[j][x]`` has bit i set when points[i][j] >= x and ``le[j][x]`` when
    points[i][j] <= x, for x in 0..g_j; each is read off the column's values,
    one character chr(value) per point, last point first.
    """
    full = (1 << len(points)) - 1
    ge, le = [], []
    for j, gj in enumerate(g):
        text = "".join(chr(point[j]) for point in reversed(points))
        at_least = [int(text.translate("0" * x + "1" * (gj + 1 - x)), 2) for x in range(gj + 1)]
        ge.append(at_least)
        le.append([full ^ above for above in at_least[1:]] + [full])
    return ge, le


def reference_candidate_tops(poset, k, i) -> list[int]:
    """The elements t >= element i with rho(t) >= k and t_j in {e_j, g_j} for
    every j, ascending by (cells of the box [e, t], code of t)."""
    exps = rows(poset)
    e = exps[i]
    tops = [
        t for t, f in enumerate(exps)
        if poset.rho[t] >= k and all(b in (a, gj) for a, b, gj in zip(e, f, poset.g))
    ]
    return sorted(
        tops, key=lambda t: (prod(b - a + 1 for a, b in zip(e, exps[t])), encode(poset, exps[t]))
    )


def reference_first_partition(poset, k) -> list[tuple[int, int]] | None:
    """The first partition with every top of rho >= k that a plain search meets.

    A recursive depth-first search: the lowest uncovered element is the
    bottom, tried with each of ``reference_candidate_tops`` in turn, and the
    first complete partition is returned as (bottom, top) element indices in
    the order placed, or None when there is none.  It has no prune, no table
    of failed states and no layer reduction.
    """
    exps = rows(poset)

    def cells(bottom, top):
        a, b = exps[bottom], exps[top]
        return {
            i for i, f in enumerate(exps)
            if all(x <= y <= z for x, y, z in zip(a, f, b))
        }

    def rec(covered, placed):
        bottom = next((i for i in range(len(exps)) if i not in covered), None)
        if bottom is None:
            return placed
        for top in reference_candidate_tops(poset, k, bottom):
            box = cells(bottom, top)
            if box.isdisjoint(covered):
                found = rec(covered | box, placed + [(bottom, top)])
                if found is not None:
                    return found
        return None

    return rec(frozenset(), [])


def relabel(ideal: MonomialIdeal, index_map, new_ambient: int) -> MonomialIdeal:
    """Rename variables through an injective 1-based index map.

    Every index in the support of every generator must be mapped; images must
    be distinct and lie in ``1..new_ambient``.
    """
    if not 1 <= new_ambient <= MAX_AMBIENT:
        raise InputError(f"ambient variable count must be in 1..{MAX_AMBIENT}, got {new_ambient!r}")
    values = list(index_map.values())
    if len(values) != len(set(values)):
        raise InputError("relabel map is not injective")
    for v in values:
        if not 1 <= v <= new_ambient:
            raise InputError(f"relabel image {v} out of range 1..{new_ambient}")
    new_gens = []
    for g in ideal.gens:
        exps = [0] * new_ambient
        for j in g.support():
            if j not in index_map:
                raise InputError(f"support index {j} is not mapped")
            exps[index_map[j] - 1] = g.exponents[j - 1]
        new_gens.append(Monomial(tuple(exps)))
    return minimalize(new_gens, new_ambient)


def v_ideal(n: int, m: int, k: int, j: int) -> MonomialIdeal:
    """Truncated line-type ideal in ambient n-k-1.

    Generators: the prefix window x_1*...*x_{m-j} followed by the full windows
    x_i*...*x_{i+m-1} for i = 2..n-m-k.  For j = 0 this is exactly the line
    family ideal in the smaller ambient.
    """
    if not (0 <= j <= k <= m - 2):
        raise InputError(f"need 0 <= j <= k <= m-2, got (k, j) = ({k}, {j})")
    if n - m - k < 2:
        raise InputError(f"need n-m-k >= 2, got {n - m - k}")
    ambient = n - k - 1
    gens = [monomial(ambient, range(1, m - j + 1))]
    for i in range(2, n - m - k + 1):
        gens.append(monomial(ambient, range(i, i + m)))
    return minimalize(gens, ambient)


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


def reference_faces(complex_) -> list[int]:
    """The masks that contain no nonface, ascending by (popcount, value)."""
    faces = [
        mask for mask in range(1 << complex_.n)
        if not any(nf & mask == nf for nf in complex_.nonface_masks)
    ]
    return sorted(faces, key=lambda mask: (mask.bit_count(), mask))


def bisect_sdepth(poset):
    """(value, infeasible_at, certificate) by binary search over the levels.

    The level order ``sdepth_of_poset`` used before it scanned down: binary
    search over 0..max(rho), then a direct search at value + 1 when the
    bisection did not refute that level itself.
    """
    lo, hi = 0, max(poset.rho)
    certificate = exists_partition(poset, 0)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = exists_partition(poset, mid)
        if found is None:
            hi = mid - 1
        else:
            lo, certificate = mid, found
    if lo == poset.n:
        return lo, None, certificate
    assert exists_partition(poset, lo + 1) is None
    return lo, lo + 1, certificate


def enumerate_small_ideals(n: int, max_gens: int = 3, max_exp: int = 2):
    """All distinct nonzero proper monomial ideals with at most ``max_gens``
    minimal generators and exponents at most ``max_exp``, canonically ordered."""
    monomials = [
        Monomial(exps)
        for exps in product(range(max_exp + 1), repeat=n)
        if any(exps)
    ]
    seen: dict[MonomialIdeal, None] = {}
    for count in range(1, max_gens + 1):
        for gens in combinations(monomials, count):
            ideal = minimalize(gens, n)
            if ideal not in seen:
                seen[ideal] = None
    return sorted(seen, key=lambda ideal: (len(ideal.gens), tuple(g.sort_key() for g in ideal.gens)))


def counting_integer_rank(monkeypatch) -> list[list[dict[int, int]]]:
    """Wrap the exact fallback so a test can count how often it runs; each
    call appends a copy of the sparse rows it was given."""
    calls = []
    rank = homology._integer_rank

    def counted(rows):
        calls.append([dict(row) for row in rows])
        return rank(rows)

    monkeypatch.setattr(homology, "_integer_rank", counted)
    return calls


def fraction_rank(matrix: list[list[int]]) -> int:
    """Rank of a dense integer matrix by Gaussian elimination over Fraction."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col] / rows[rank][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_ranks(complex_) -> tuple[int, ...]:
    """Reduced rational homology ranks from degree -1, by dense Fraction ranks.

    Faces are read off the minimal nonfaces directly; each signed boundary
    matrix is built densely and ranked with ``fraction_rank``, so no rank or
    face code of the package is involved.
    """
    def is_face(mask):
        return not any(nf & mask == nf for nf in complex_.nonface_masks)

    by_size = []
    for size in range(complex_.n + 1):
        level = [sum(1 << j for j in verts) for verts in combinations(range(complex_.n), size)]
        if not any(is_face(mask) for mask in level):
            break
        by_size.append([mask for mask in level if is_face(mask)])
    boundary_rank = [0] * (len(by_size) + 1)
    for s in range(1, len(by_size)):
        row_of = {mask: i for i, mask in enumerate(by_size[s - 1])}
        matrix = [[0] * len(by_size[s]) for _ in by_size[s - 1]]
        for col, mask in enumerate(by_size[s]):
            vertices = [j for j in range(complex_.n) if mask >> j & 1]
            for pos, j in enumerate(vertices):
                matrix[row_of[mask & ~(1 << j)]][col] = (-1) ** pos
        boundary_rank[s] = fraction_rank(matrix)
    return tuple(
        len(by_size[s]) - boundary_rank[s] - boundary_rank[s + 1] for s in range(len(by_size))
    )


def reference_betti(ideal: MonomialIdeal) -> dict[tuple[int, tuple[int, ...]], int]:
    """Hochster's formula on every vertex restriction, with no subset skipped."""
    complex_ = sr_complex(ideal)
    entries = {}
    for fmask in range(1 << ideal.ambient):
        fvars = tuple(j + 1 for j in range(ideal.ambient) if fmask >> j & 1)
        for degree_plus_one, rank in enumerate(reference_ranks(complex_.restrict(fmask))):
            if rank:
                entries[(len(fvars) - degree_plus_one, fvars)] = rank
    return entries


def reference_verification(poset, decomposition, k) -> VerificationReport:
    """``verify_decomposition`` cell by cell, as it was before its bitset rows.

    Every interval's cells are listed as codes, checked against the set of
    the poset's codes and a dict from each covered code to the first interval
    that covered it; the first element of ``codes(poset)`` that no interval
    covered is reported as uncovered.  The failures and their wording are the
    package's.
    """
    if not 0 <= k <= poset.n:
        raise InputError(f"k must be in 0..{poset.n}, got {k}")
    if decomposition.n != poset.n:
        return VerificationReport(False, (f"ambient mismatch: {decomposition.n} vs {poset.n}",), None)

    def label(i, bottom, zvars):
        return f"interval {i + 1} [{bottom} ; {{{', '.join(f'x{v}' for v in sorted(zvars))}}}]"

    n, g, weights, listing = poset.n, poset.g, poset.weights, codes(poset)
    index = set(listing)
    variables = range(1, n + 1)
    in_range = frozenset(variables)
    failures: list[str] = []
    seen: dict[int, int] = {}
    rhos: list[int] = []

    for i, (bottom, zvars) in enumerate(decomposition.intervals):
        e = bottom.exponents
        if len(e) != n:
            failures.append(f"{label(i, bottom, zvars)}: bottom ambient mismatch")
            continue
        if not in_range.issuperset(zvars):
            failures.append(f"{label(i, bottom, zvars)}: variable index out of range")
            continue
        if not all(map(le, e, g)):
            failures.append(f"{label(i, bottom, zvars)}: bottom {bottom} exceeds the bound")
            continue
        raised = list(map(zvars.__contains__, variables))
        at_bound = list(map(eq, e, g))
        r = sum(map(or_, raised, at_bound))
        rhos.append(r)
        if r < k:
            failures.append(f"{label(i, bottom, zvars)}: top has rho {r} < {k}")
        cells = [sum(map(mul, e, weights))]
        for j in compress(range(n), map(lt, at_bound, raised)):
            w = weights[j]
            cells = [c + step for step in range(0, (g[j] - e[j] + 1) * w, w) for c in cells]
        if all(map(index.__contains__, cells)) and seen.keys().isdisjoint(cells):
            seen.update(zip(cells, repeat(i)))
            continue
        for c in cells:
            if c not in index:
                outside = Monomial(decode(poset, c))
                failures.append(f"{label(i, bottom, zvars)}: cell {outside} is outside the poset")
                continue
            if c in seen:
                failures.append(
                    f"double cover of {Monomial(decode(poset, c))} by intervals "
                    f"{seen[c] + 1} and {i + 1}"
                )
            else:
                seen[c] = i

    missing = next(filterfalse(seen.__contains__, listing), None)
    if missing is not None:
        failures.append(f"uncovered element {Monomial(decode(poset, missing))}")

    return VerificationReport(not failures, tuple(failures), min(rhos, default=None))


def reference_structure_ok(n: int, m: int, cells: int) -> bool:
    """``prop16_structure_check``'s verdict on the module cells ``cells``, by
    the four separate tests it made before its one set equality per component.

    Per wrap-window component: the family is not empty; no residual uses the
    forced variable or leaves the ambient, and the family is downward closed;
    its minimal nonfaces in the ambient are the predicted runs.  Every cell
    must be assigned.  The old check went on to compute a depth from a failed
    family's nonfaces, and raised on an empty one; such a family is never
    accepted here, so the verdict counts that raise as not ok.
    """
    box, full = (1,) * n, (1 << n) - 1
    steps = box_steps(box)

    def step_up(found, mask):
        # The cells one step above ``found`` along a variable of ``mask``.
        out = 0
        for j in set_bits(mask):
            weight, below = steps[j]
            out |= (found & below) << weight
        return out

    unassigned = cells
    for t in range(1, m):
        wrap = (1 << m - t) - 1 << n - m + t | (1 << t) - 1
        ambient = (1 << n - m - 1) - 1 << t
        assigned = unassigned & box_upset(1 << wrap, box)
        unassigned ^= assigned
        family = assigned >> wrap
        if not family:
            return False
        inner = submasks(ambient)
        unclosed = family & step_up(submasks(full) & ~family, full)
        # The forced variable lies outside the ambient, so a residual that
        # uses it also leaves the ambient.
        if family & ~inner or unclosed:
            return False
        outside = inner & ~family
        minimal = outside & ~step_up(outside, ambient)
        nonfaces = sorted(tuple(j + 1 for j in set_bits(s)) for s in set_bits(minimal))
        predicted = [tuple(range(t + 1, m + 1))] if m <= n - m + t - 1 else []
        predicted += [tuple(range(i, i + m)) for i in range(t + 2, n - 2 * m + t + 1)]
        if nonfaces != predicted:
            return False
    return not unassigned
