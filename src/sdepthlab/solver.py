"""Characteristic posets and the exact interval-partition search.

A quotient presentation numerator/denominator is turned into the finite poset
of multidegrees a <= g whose monomials lie in the numerator but not in the
denominator, where g is the coordinatewise maximum of all generator exponents.
Partitions of this poset into intervals [a, b] encode the free decompositions
of the module; the invariant being maximized is the minimum over intervals of
rho(b), the number of coordinates of b that meet the bound g.

The decision search is a complete backtracking over interval partitions.  It
processes elements in a fixed linear extension (total degree, then numeric
code).  The first uncovered element must be the bottom of its interval in any
partition that extends the current one: a smaller bottom would itself be
uncovered and earlier in the extension.  Branching over the possible tops of
that element is therefore exhaustive.  Tops are restricted to the canonical
form b_j in {e_j, g_j}; any interval splits into canonical ones with no smaller
rho values, so the restriction loses no partitions worth finding.

The elements come from one pass over the box: the cells of each ideal are the
upward closure of its generators' cells, as one int bitmask indexed by code
(``box_upset``).  Each element also carries a unary code, so an element
dominates another exactly when its unary bits contain the other's.  An
element's exponents, degree, rho and unary code are read from two tables, one
per half of the coordinates, indexed by the low and high digits of its code;
the halves are chosen so that each table has about sqrt(box) rows, and an
element costs one divmod and a few lookups instead of a walk over its digits.
"""

from __future__ import annotations

import re
import sys
import time
from dataclasses import dataclass, field, fields
from math import prod
from operator import mul

from .errors import (
    InputError,
    InvalidPresentationError,
    PosetCapExceededError,
    TimeLimitExceededError,
)
from .ideals import Monomial, QuotientPresentation, box_upset, parse_monomial, set_bits

DEFAULT_POSET_CAP = 2_000_000
DEFAULT_TIME_LIMIT_S = 300.0

# Byte budget of the failed-state table that one level's search keeps.  An
# entry costs its key, an int with one bit per poset element, plus the set's
# slots: a set grows its table to at most eight 16-byte slots per entry.  The
# table is emptied when the next entry would exceed the budget.
FAILED_STATES_BYTES = 32 * 2**20
_SET_SLOT_BYTES = 128


@dataclass(frozen=True)
class CharacteristicPoset:
    """The finite multidegree poset of a quotient presentation.

    Elements are stored as mixed-radix integer codes (radix g_j + 1 per
    coordinate), listed ascending by (total degree, code); that listing is the
    linear extension used everywhere.  ``rho[i]`` counts the coordinates of
    element i that equal the bound g.  ``unary[i]`` has e_j one-bits in a
    g_j-bit field per coordinate j, so a <= b exactly when the bits of unary(a)
    are a subset of those of unary(b); on a squarefree bound it is the code.
    """

    n: int
    g: tuple[int, ...]
    weights: tuple[int, ...]
    codes: tuple[int, ...]
    exps: tuple[tuple[int, ...], ...]
    rho: tuple[int, ...]
    index: dict[int, int]
    unary: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.codes)

    @property
    def max_rho(self) -> int:
        return max(self.rho)

    def encode(self, exps: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def decode(self, code: int) -> tuple[int, ...]:
        out = []
        for gj in self.g:
            code, e = divmod(code, gj + 1)
            out.append(e)
        return tuple(out)

    def contains_exps(self, exps: tuple[int, ...]) -> bool:
        if any(e > gj for e, gj in zip(exps, self.g)):
            return False
        return self.encode(exps) in self.index


def build_poset(
    pair: QuotientPresentation,
    *,
    cap: int = DEFAULT_POSET_CAP,
    g_override: tuple[int, ...] | None = None,
) -> CharacteristicPoset:
    """Enumerate the multidegree poset of a presentation.

    ``g_override`` replaces the default bound with any coordinatewise larger
    one; the computed invariant does not depend on that choice, which the test
    suite exercises.
    """
    n = pair.ambient
    gens = pair.numerator.gens + pair.denominator.gens
    g = tuple(map(max, zip(*(m.exponents for m in gens))))
    if g_override is not None:
        if len(g_override) != n or any(o < gj for o, gj in zip(g_override, g)):
            raise InputError("g_override must dominate the generator exponents")
        g = tuple(g_override)

    box = prod(gj + 1 for gj in g)
    if box > cap:
        raise PosetCapExceededError(f"multidegree box has {box} cells, cap is {cap}")
    weights = tuple(prod(gj + 1 for gj in g[:j]) for j in range(n))

    # The elements are the box cells of the numerator less those of the denominator.
    num, den = (sum(1 << sum(map(mul, m.exponents, weights)) for m in ideal.gens)
                for ideal in (pair.numerator, pair.denominator))
    cells = box_upset(num, g) & ~box_upset(den, g)
    if not cells:
        raise InvalidPresentationError("the presentation has an empty poset")

    # A code is hi * radix + lo, with lo the code of the first `split`
    # coordinates, and each half's table is read at its half-code.  Splitting
    # where the two radix products are closest keeps both near sqrt(box) rows.
    low_sizes = weights + (box,)
    split = min(range(n + 1), key=lambda s: abs(low_sizes[s] - box // low_sizes[s]))
    radix = low_sizes[split]
    (lo_e, lo_d, lo_r, lo_u), (hi_e, hi_d, hi_r, hi_u) = (
        _half_table(g, range(split)), _half_table(g, range(split, n))
    )
    codes = set_bits(cells)
    halves = [divmod(code, radix) for code in codes]
    degree = [hi_d[a] + lo_d[b] for a, b in halves]
    # The codes are ascending and the sort is stable: (degree, code) order.
    order = sorted(range(len(codes)), key=degree.__getitem__)
    codes = tuple(codes[i] for i in order)
    halves = [halves[i] for i in order]
    exps = tuple(lo_e[b] + hi_e[a] for a, b in halves)
    rho = tuple(lo_r[b] + hi_r[a] for a, b in halves)
    unary = tuple(lo_u[b] | hi_u[a] for a, b in halves)

    poset = CharacteristicPoset(
        n=n,
        g=g,
        weights=weights,
        codes=codes,
        exps=exps,
        rho=rho,
        index={code: i for i, code in enumerate(codes)},
        unary=unary,
    )
    _assert_box_convex_sample(poset)
    return poset


def _half_table(g: tuple[int, ...], coords: range) -> tuple[tuple, ...]:
    """(exps, degree, rho, unary) per mixed-radix code of the coordinates ``coords``.

    The first coordinate is the least significant digit.  Exponent e_j
    becomes e_j one-bits from bit sum(g[:j]) on, where coordinate j's field
    sits in the unary code of a whole element.
    """
    rows = [((), 0, 0, 0)]
    for j in coords:
        gj, offset = g[j], sum(g[:j])
        rows = [
            (e + (x,), d + x, r + (x == gj), u | ((1 << x) - 1) << offset)
            for x in range(gj + 1)
            for e, d, r, u in rows
        ]
    return tuple(zip(*rows))


def _assert_box_convex_sample(poset: CharacteristicPoset, limit: int = 12) -> None:
    # The element set must be box-convex; spot-check a deterministic sample.
    sample = poset.exps[: limit]
    for a in sample:
        for b in sample:
            if a is b or any(x > y for x, y in zip(a, b)):
                continue
            mid = tuple((x + y) // 2 for x, y in zip(a, b))
            if not poset.contains_exps(mid):
                raise AssertionError("element set is not box-convex")


@dataclass(frozen=True)
class StanleyDecomposition:
    """A list of (bottom multidegree, variable set) interval descriptions.

    The interval of a pair (a, Z) runs from a to the top that has coordinate
    g_j for every x_j in Z and a's coordinate elsewhere, where g is the bound
    of the poset the decomposition is verified on.
    """

    n: int
    intervals: tuple[tuple[Monomial, frozenset[int]], ...]

    def __len__(self) -> int:
        return len(self.intervals)


def _interval(
    poset: CharacteristicPoset, bottom: int, top: int
) -> tuple[Monomial, frozenset[int]]:
    """The (bottom, variable set) pair of the interval between two element indices."""
    zvars = frozenset(j + 1 for j, (e, gj) in enumerate(zip(poset.exps[top], poset.g)) if e == gj)
    return Monomial(poset.exps[bottom]), zvars


def _check_level(poset: CharacteristicPoset, k: int) -> None:
    if not 0 <= k <= poset.n:
        raise InputError(f"k must be in 0..{poset.n}, got {k}")


def singleton_decomposition(poset: CharacteristicPoset) -> StanleyDecomposition:
    """Every element as its own interval; always a valid partition."""
    return StanleyDecomposition(poset.n, tuple(_interval(poset, i, i) for i in range(len(poset))))


@dataclass
class SearchStats:
    """Counters of the partition search, filled in when a caller passes one.

    ``levels`` lists the levels searched, in order.  A placement covers the
    cells of one interval; a prune rejects the covered set a placement made,
    or the root, because some uncovered element has no top left (stranded) or
    the degree counts cannot be split into intervals (moments).  A table hit
    is a placement skipped because its covered set is stored as one whose
    subtree holds no partition; ``stored_states`` counts those stores,
    ``table_clears`` the times the table reached its byte budget, and
    ``table_peak_bytes`` the most it held, in the budget's units.  Each search
    adds its counts once, when it returns or hits the time limit, so a record
    passed to ``sdepth_of_poset`` sums over the levels it tried.
    """

    levels: list[int] = field(default_factory=list)
    placements: int = 0
    stranded_prunes: int = 0
    moment_prunes: int = 0
    table_hits: int = 0
    stored_states: int = 0
    table_clears: int = 0
    table_peak_bytes: int = 0

    def format(self) -> str:
        """One line: ``levels=6,5 placements=... table_peak_bytes=...``."""
        counts = " ".join(f"{f.name}={getattr(self, f.name)}" for f in fields(self)[1:])
        return f"levels={','.join(map(str, self.levels))} {counts}"


def exists_partition(
    poset: CharacteristicPoset,
    k: int,
    *,
    time_limit_s: float | None = None,
    stats: SearchStats | None = None,
) -> StanleyDecomposition | None:
    """Complete search for an interval partition with min rho(top) >= k.

    Returns a partition when one exists and None when none exists; raises
    TimeLimitExceededError when the budget runs out, which is a distinct
    outcome from infeasibility.  A ``stats`` record, when given, gets this
    search's counts added.
    """
    _check_level(poset, k)
    if stats is not None:
        stats.levels.append(k)
    if k == 0:
        return singleton_decomposition(poset)
    if k > poset.max_rho:
        return None
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s
    intervals = _search(poset, k, deadline, stats)
    if intervals is None:
        return None
    return StanleyDecomposition(
        poset.n, tuple(_interval(poset, ei, poset.index[bcode]) for ei, bcode in intervals)
    )


def _search(poset, k, deadline, stats):
    n = poset.n
    g = poset.g
    codes = poset.codes
    exps = poset.exps
    rho = poset.rho
    index = poset.index
    weights = poset.weights
    unary = poset.unary
    size = len(codes)

    covered = bytearray(size)

    # Elements that cannot top their own interval; only these can get stranded.
    # watchers[t] is the bitset of the lows whose current witness (an
    # uncovered top above them) is t.  Each low is in exactly one set; a
    # covered low stays in its set, so that backtracking leaves every witness
    # valid again.
    lows = [i for i in range(size) if rho[i] < k]
    tops_desc = [i for i in range(size - 1, -1, -1) if rho[i] >= k]
    watchers = [0] * size

    # Degree-moment account.  For squarefree bounds rho is degree plus the
    # count z of coordinates pinned at zero.  When the poset's maximal degree
    # equals kappa = k - z, every interval top must sit at degree kappa
    # exactly, and an interval whose bottom lies s levels below the top covers
    # C(s, j) cells at degree kappa - j.  The number of intervals of each
    # height s is then forced level by level from the uncovered degree counts;
    # a negative forced count refutes the whole uncovered state at once.
    degs = [sum(e) for e in exps]
    max_deg = max(degs)
    z = sum(1 for gj in g if gj == 0)
    kappa = k - z
    moments_apply = max(g) <= 1 and max_deg == kappa
    per_degree = [0] * (max_deg + 1)
    for d in degs:
        per_degree[d] += 1
    binom = [[0] * (kappa + 1) for _ in range(kappa + 1)] if moments_apply else None
    if moments_apply:
        for s in range(kappa + 1):
            binom[s][0] = 1
            for j in range(1, s + 1):
                binom[s][j] = binom[s - 1][j - 1] + binom[s - 1][j]

    def moments_ok():
        # Height-s intervals are forced by the degree-(kappa - s) count once
        # all taller heights are known; the profile must stay nonnegative.
        heights = [0] * (kappa + 1)
        for s in range(kappa, -1, -1):
            forced = per_degree[kappa - s]
            for t in range(s + 1, kappa + 1):
                forced -= heights[t] * binom[t][s]
            if forced < 0:
                return False
            heights[s] = forced
        return True

    # Candidate tops of an element depend only on the element and k, so each
    # list is built once per level, on first use.  cells_of[ei][pos] holds the
    # (cell indices, cell bitmask) of candidate pos, found on its first try.
    tables: list[list | None] = [None] * size
    cells_of: list[list | None] = [None] * size

    def candidates(ei):
        cands = tables[ei]
        if cands is not None:
            return cands
        e = exps[ei]
        free = [j for j in range(n) if e[j] < g[j]]
        nfree = len(free)
        need = k - (n - nfree)
        cands = tables[ei] = []

        # Raise one free coordinate to g_j at a time, in increasing order.  A
        # top outside the poset ends its branch: the poset is box-convex and ei
        # lies below the whole branch.  So does a branch that cannot reach
        # need raised coordinates.
        def walk(bcode, box, combo, start):
            if len(combo) >= need:
                cands.append((box, bcode, combo))
            for i in range(start, nfree):
                if len(combo) + nfree - i < need:
                    break
                j = free[i]
                span = g[j] - e[j]
                top = bcode + span * weights[j]
                if top in index:
                    walk(top, box * (span + 1), combo + (j,), i + 1)

        walk(codes[ei], 1, (), 0)
        # The tops of one element are distinct, so this is the (box, top) order.
        cands.sort()
        cells_of[ei] = [None] * len(cands)
        return cands

    def box_cells(ei, combo):
        e = exps[ei]
        cells = [codes[ei]]
        for j in combo:
            w = weights[j]
            cells = [c + t * w for t in range(g[j] - e[j] + 1) for c in cells]
        return cells

    def rewitness(u):
        bits = unary[u]
        for t in tops_desc:
            if not covered[t] and unary[t] & bits == bits:
                watchers[t] |= 1 << u
                return True
        return False

    def none_stranded(cell_idx):
        # Only the uncovered lows watching a newly covered cell lost their
        # witness.  Each low that finds a new one moves to it; on failure the
        # low that found none and those not yet scanned stay with the cell,
        # which backtracking uncovers again.
        for c in cell_idx:
            lost = watchers[c] & ~mask
            while lost:
                bit = lost & -lost
                if not rewitness(bit.bit_length() - 1):
                    return False
                watchers[c] ^= bit
                lost ^= bit
        return True

    # The covered set as a bitmask, and the covered sets whose subtree was
    # searched to exhaustion without a partition.  The branch element is the
    # first uncovered one, and the candidate tables and both refutations
    # depend only on the covered set and k, so a subtree's outcome does too:
    # skipping a stored set never skips a partition, and the first partition
    # found is the same.  Failure depends on k, so the table lives one search.
    mask = 0
    full = (1 << size) - 1
    failed: set[int] = set()
    empty_bytes = sys.getsizeof(failed)
    entry_bytes = sys.getsizeof(full) + _SET_SLOT_BYTES
    capacity = max(1, (FAILED_STATES_BYTES - empty_bytes) // entry_bytes)
    placements = stranded = moment = hits = stored = clears = peak = 0

    def place(cell_idx, bits):
        nonlocal mask
        for ci in cell_idx:
            covered[ci] = 1
            if moments_apply:
                per_degree[degs[ci]] -= 1
        mask |= bits

    def unplace(cell_idx, bits):
        nonlocal mask
        for ci in cell_idx:
            covered[ci] = 0
            if moments_apply:
                per_degree[degs[ci]] += 1
        mask ^= bits

    try:
        # The loop's two refutations also run before the first placement.
        if moments_apply and not moments_ok():
            moment += 1
            return None
        if not all(rewitness(u) for u in lows):
            stranded += 1
            return None

        # Frame layout: [element index, candidate list, next position, (cells,
        # bits) placed by the parent choice that opened this frame (None at
        # the root)].
        frames = [[0, candidates(0), 0, None]]
        node = 0
        while frames:
            node += 1
            if deadline is not None and node % 512 == 0 and time.monotonic() > deadline:
                raise TimeLimitExceededError(f"partition search at level {k} hit the time limit")
            frame = frames[-1]
            ei, cands, pos, placed = frame
            if pos >= len(cands):
                frames.pop()
                if placed is not None:
                    # Nothing below was skipped except known failures, so the
                    # covered set this frame was opened with has none.
                    if len(failed) == capacity:
                        peak = max(peak, capacity)
                        failed.clear()
                        clears += 1
                    failed.add(mask)
                    stored += 1
                    unplace(*placed)
                continue
            frame[2] += 1
            info = cells_of[ei][pos]
            if info is None:
                # Box-convexity puts every cell between ei and the top in the poset.
                cell_idx = [index[c] for c in box_cells(ei, cands[pos][2])]
                bits = 0
                for ci in cell_idx:
                    bits |= 1 << ci
                info = cells_of[ei][pos] = (cell_idx, bits)
            cell_idx, bits = info
            if bits & mask:
                continue
            if mask | bits in failed:
                hits += 1
                continue

            place(cell_idx, bits)
            placements += 1

            if mask == full:
                # Each frame's last-tried candidate is the one it placed.
                return [(f[0], f[1][f[2] - 1][1]) for f in frames]

            if moments_apply and not moments_ok():
                moment += 1
            elif not none_stranded(cell_idx):
                stranded += 1
            else:
                nxt = ei + 1
                while covered[nxt]:
                    nxt += 1
                frames.append([nxt, candidates(nxt), 0, info])
                continue
            unplace(cell_idx, bits)

        return None
    finally:
        if stats is not None:
            stats.placements += placements
            stats.stranded_prunes += stranded
            stats.moment_prunes += moment
            stats.table_hits += hits
            stats.stored_states += stored
            stats.table_clears += clears
            peak = empty_bytes + max(peak, len(failed)) * entry_bytes
            stats.table_peak_bytes = max(stats.table_peak_bytes, peak)


@dataclass(frozen=True)
class SdepthResult:
    """Computed invariant with its certificate and the poset it lives on.

    ``infeasible_at`` is value + 1, the level at which no partition exists,
    or None when the value is the ambient size and no higher level exists.
    """

    value: int
    certificate: StanleyDecomposition
    poset: CharacteristicPoset
    infeasible_at: int | None


def sdepth_of_poset(
    poset: CharacteristicPoset,
    *,
    time_limit_s: float | None = DEFAULT_TIME_LIMIT_S,
    stats: SearchStats | None = None,
) -> SdepthResult:
    """Largest k admitting a partition, by scanning the levels downwards.

    The scan starts at the largest rho in the poset, which no interval top can
    exceed, and stops at the first level where the search finds a partition;
    level 0 always has one.  Every level above the value was refuted by its
    own search (or lies above the largest rho), so the result ships a failed
    search at value + 1 and a certificate at the value.  Low levels are the
    costly ones to search, and the scan never visits a level below the value.
    The certificate is verified with a check that raises AssertionError under
    ``python -O`` too.  ``time_limit_s`` bounds the whole scan: each level
    gets the time the levels before it left.  A ``stats`` record, when given,
    sums the counts of every level searched.
    """
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s
    for value in range(poset.max_rho, -1, -1):
        left = None if deadline is None else max(0.0, deadline - time.monotonic())
        certificate = exists_partition(poset, value, time_limit_s=left, stats=stats)
        if certificate is not None:
            break
    infeasible_at = value + 1 if value < poset.n else None

    report = verify_decomposition(poset, certificate, value)
    if not report.ok:
        raise AssertionError(f"internal certificate failed verification: {report.failures}")
    return SdepthResult(value, certificate, poset, infeasible_at)


def sdepth_of_pair(
    pair: QuotientPresentation,
    *,
    time_limit_s: float | None = DEFAULT_TIME_LIMIT_S,
    max_poset: int = DEFAULT_POSET_CAP,
    stats: SearchStats | None = None,
) -> SdepthResult:
    """Build the poset of the presentation and compute its invariant."""
    poset = build_poset(pair, cap=max_poset)
    return sdepth_of_poset(poset, time_limit_s=time_limit_s, stats=stats)


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    failures: tuple[str, ...]
    min_rho: int | None


def verify_decomposition(
    poset: CharacteristicPoset,
    decomposition: StanleyDecomposition,
    k: int,
) -> VerificationReport:
    """Independent validity check of a decomposition against a poset.

    Confirms that every interval lies inside the poset, that the intervals are
    pairwise disjoint, that they cover every element, and that every interval
    top has rho at least k.  Failures are reported, never raised; a level
    outside 0..n is an input error.
    """
    _check_level(poset, k)
    failures: list[str] = []
    seen: dict[int, int] = {}
    min_rho: int | None = None

    if decomposition.n != poset.n:
        return VerificationReport(False, (f"ambient mismatch: {decomposition.n} vs {poset.n}",), None)

    for i, (bottom, zvars) in enumerate(decomposition.intervals):
        # The interval's label is formatted only when a failure names it.
        if bottom.ambient != poset.n:
            failures.append(f"{_label(i, bottom, zvars)}: bottom ambient mismatch")
            continue
        if any(not 1 <= v <= poset.n for v in zvars):
            failures.append(f"{_label(i, bottom, zvars)}: variable index out of range")
            continue
        if any(e > gj for e, gj in zip(bottom.exponents, poset.g)):
            failures.append(f"{_label(i, bottom, zvars)}: bottom {bottom} exceeds the bound")
            continue
        top = tuple(poset.g[j] if j + 1 in zvars else e for j, e in enumerate(bottom.exponents))
        r = sum(1 for e, gj in zip(top, poset.g) if e == gj)
        min_rho = r if min_rho is None else min(min_rho, r)
        if r < k:
            failures.append(f"{_label(i, bottom, zvars)}: top has rho {r} < {k}")
        spans = [
            (j, bottom.exponents[j], top[j]) for j in range(poset.n) if top[j] > bottom.exponents[j]
        ]
        cells = [poset.encode(bottom.exponents)]
        for j, lo_e, hi_e in spans:
            w = poset.weights[j]
            cells = [c + t * w for t in range(hi_e - lo_e + 1) for c in cells]
        for c in cells:
            if c not in poset.index:
                outside = Monomial(poset.decode(c))
                failures.append(f"{_label(i, bottom, zvars)}: cell {outside} is outside the poset")
                continue
            if c in seen:
                failures.append(
                    f"double cover of {Monomial(poset.decode(c))} by intervals "
                    f"{seen[c] + 1} and {i + 1}"
                )
            else:
                seen[c] = i

    for code in poset.codes:
        if code not in seen:
            failures.append(f"uncovered element {Monomial(poset.decode(code))}")
            break

    return VerificationReport(not failures, tuple(failures), min_rho)


def _label(i: int, bottom: Monomial, zvars: frozenset[int]) -> str:
    """``interval i+1 [bottom ; {x_j, ...}]``: how a failure names the i-th interval."""
    return f"interval {i + 1} [{bottom} ; {{{', '.join(f'x{v}' for v in sorted(zvars))}}}]"


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


# ---------------------------------------------------------------------------
# Certificate files: one interval per line, "bottom ; {x_i, x_j, ...}", with
# "1" standing for the constant bottom and "{}" for the empty variable set.
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)$")


def format_certificate(decomposition: StanleyDecomposition) -> str:
    lines = []
    for bottom, zvars in decomposition.intervals:
        vars_text = ", ".join(f"x{v}" for v in sorted(zvars))
        lines.append(f"{bottom} ; {{{vars_text}}}")
    return "\n".join(lines) + "\n"


def parse_certificate(text: str, n: int) -> StanleyDecomposition:
    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ";" not in line:
            raise InputError(f"certificate line {lineno}: missing ';' separator")
        left, right = line.split(";", 1)
        bottom = parse_monomial(left.strip(), n)
        right = right.strip()
        if not (right.startswith("{") and right.endswith("}")):
            raise InputError(f"certificate line {lineno}: variable set must be braced")
        inner = right[1:-1].strip()
        zvars: set[int] = set()
        if inner:
            for token in inner.split(","):
                match = _VAR_RE.match(token.strip())
                if not match:
                    raise InputError(f"certificate line {lineno}: bad variable {token.strip()!r}")
                v = int(match.group(1))
                if not 1 <= v <= n:
                    raise InputError(f"certificate line {lineno}: variable x{v} out of range")
                zvars.add(v)
        intervals.append((bottom, frozenset(zvars)))
    return StanleyDecomposition(n, tuple(intervals))
