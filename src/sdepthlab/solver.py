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

Level k is searched on its rho = k layer: the elements with rho > k are
covered as singletons before the search starts, a low element (rho < k)
branches only onto canonical tops with rho exactly k, and an element with
rho = k takes only [e, e].  This is exact, and the search returns the same
first partition as one over every top of rho >= k, by the splitting step of
Herzog, Vladoiu and Zheng (J. Algebra 322, 2009):

- Split.  Take [e, t] with rho(t) > k and a coordinate j where
  t_j = g_j > e_j, and let t' equal t but for t'_j = e_j.  [e, t] is the union
  of [e, t'] and [e + u_j, t], u_j the j-th unit vector.  rho(t') =
  rho(t) - 1 >= k, t' is a canonical top of e, and |[t', g]| > |[t, g]|, so
  t' ranks before t (below).
- First success.  If a candidate t of e with rho(t) > k has a completion, so
  has an earlier candidate of rho exactly k, or [e, e] when rho(e) >= k.  The
  search keeps the first candidate with a completion, so every skipped
  candidate fails.
- Singletons above k.  rho is monotone, so no interval topped at rho k holds
  an element of rho > k: in the partition found each is its own interval.
  With no element of rho < k, ``exists_partition`` returns all singletons.
- Order.  Each branch element is the lowest uncovered one, so the placed
  intervals ascend by bottom index, and merging the singletons in by bottom
  index gives the unreduced search's list.
- Prunes.  A low is stranded when no uncovered top of rho exactly k lies above
  it; that is exact since the partition found has that form.  When
  k <= maximal_rho every low has such a top, as rho rises by at most 1 per unit
  step towards a maximal element.  When k is the largest rho, the poset's
  Hilbert series H(t), the sum of t^|e| / (1 - t)^rho(e), must have no
  negative coefficient in (1 - t)^k H(t), which is then a polynomial
  (``hilbert_negative_degree``); ``exists_partition`` runs that test before
  the search.

The elements come from bitmask passes over the box, indexed by code: the cells
of each ideal are the upward closure of its generators' cells (``ideal_cells``).
A code is cut into parts of at most 256 codes, runs of coordinates from x1 up;
the poset keeps one byte per part per element, its part code, and neither
codes nor exponent tuples.  The cells are read one row at a time, a row being
the cells that share every part code but the first, and only rows that hold a
cell are visited.  A row's digits, read in the first part's (degree, code)
order, give its part codes cut into runs of one degree; the row's other part
codes and its offsets of degree and rho are constants of the row, so each run
becomes its part bytes and rho with a few operations on ``bytes``.  The runs
of each degree are kept in row order, so reading the degrees in turn lists
the elements in (degree, code) order with no sort.  The maximal cells come
from one masked shift per coordinate, which also checks, exactly, that the
set is box-convex (``_maximal_cells``).  Each part has one record of tables,
indexed by part code, that depends only on the bound and is shared by every
poset with that bound (``_parts_of``): the part's place value, exponents,
count of coordinates at the bound (plus each offset a row can add), factor of
the box size, variables at the bound, order columns, degrees and (degree,
code) order.  An element's exponents are one table row per part byte; rho,
one byte per element, is a sum of per-part counts read once at the build.  A
list of elements is decoded in bulk (``decode``): its part bytes are gathered
and each part is mapped once through its tables, to exponents, codes and box
sizes, with no Python code per element.  The search decodes the tops of a
level this way, and a certificate's bottoms and variable sets are read off the
same way; the lists live for one call.

The search asks the order its questions as int bitsets indexed by element
(``order_bitsets``): for each coordinate and threshold, one translation of a
part's bytes gives the elements at or above it, and the up-set of an element
is the AND of one such column bitset per coordinate, and so is the down-set of
a top.  An interval's cells are the up-set of its bottom ANDed with the
down-set of its top.  The tops of a level are kept a second time, as bitsets
indexed by rank, ranked once by (-|[t, g]|, code of t), where |[t, g]| counts
the cells from t up to the bound (``ranked_tops``), and the search names each
top by its rank.  A canonical top t of e has |[e, t]| = |[e, g]| / |[t, g]|,
so rank order is every element's (box, code) order on its candidates: an
element's candidate tops are its rank-indexed up-set less the tops that are
not canonical (``candidate_ranks``), one int that a frame reads lowest bit
first, with no sort of its own, and a low element's witness is the uncovered
top of highest rank in that up-set.  A low's table keeps that int, its
exponents and the cells of each candidate tried so far, not its up-set over
every element: a candidate's cells are built on its first try.  An interval
[e, t] with rho(t) = k holds no other element of rho k: an element c of it
keeps e's coordinates wherever t does, so it has k coordinates at the bound
only if it reaches g on every raised coordinate, which makes c = t.  So a
placement covers one top, its candidate's rank, and only the lows watching
that rank need a new witness.

Every certificate the solver reports is checked again by
``verify_decomposition``, which shares no code with the search.  It holds the
poset as the bitset ``cells`` that the build computes, indexed by code, and
decodes the cells it names by its own arithmetic on the weights.  It builds
each interval's cells as one int per row of the box: the bottom's bit, shifted
along each raised coordinate.  One pass (``_cover``) checks each interval's
ambient, variables, bound and rho, and takes its cells out of the poset's
cells that no interval has covered yet; a cell of the interval that is not
among them lies outside the poset or was covered before, and is named.  The
cells left at the end are the uncovered ones.  The certificate is valid
exactly when the pass names no failure.
"""

from __future__ import annotations

import re
import sys
import time
from bisect import bisect_left, bisect_right
from functools import lru_cache, partial, reduce
from itertools import accumulate, compress, pairwise, starmap
from typing import Iterator, Mapping, NamedTuple, Sequence
from math import comb, prod
from operator import add, and_, eq, getitem, itemgetter, le, mul, or_, sub

from .errors import (
    IdealSyntaxError,
    InputError,
    InvalidPresentationError,
    PosetCapExceededError,
    TimeLimitExceededError,
)
from .ideals import (
    MAX_EXPONENT,
    Counters,
    FrozenRecord,
    Monomial,
    QuotientPresentation,
    box_steps,
    ideal_cells,
    parse_monomial,
    set_bits,
)

DEFAULT_POSET_CAP = 2_000_000
DEFAULT_TIME_LIMIT_S = 300.0

# Byte budget of the failed-state table that one level's search keeps.  An
# entry costs its key, an int with one bit per poset element, plus the set's
# slots: a set grows its table to at most eight 16-byte slots per entry.  The
# table is emptied when the next entry would exceed the budget.
FAILED_STATES_BYTES = 32 * 2**20
_SET_SLOT_BYTES = 128

# Maps the digits "0" and "1" to the byte values 0 and 1.
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")

# The most cells in one row of the bitsets that ``verify_decomposition`` checks.
ROW_CELLS = 1 << 13


class CharacteristicPoset(FrozenRecord):
    """The finite multidegree poset of a quotient presentation.

    Elements are cells of the box [0, g], each with its mixed-radix code
    (``weights``), listed ascending by (total degree, code); that listing is
    the linear extension used everywhere.  ``cells`` is the same set as one int
    with bit c set for each code c, the membership test.  ``parts`` holds, for
    each part of a code, the part code of every element as one ``bytes``,
    element i's at position i, which ``exponents(i)`` reads back through the
    bound's part tables (``_parts_of``, the one slot that is not a field).
    ``rho`` has one byte per element, the count of its coordinates that
    equal the bound g.  ``maximal_rho`` is the least rho of a maximal element:
    every element lies below a maximal one and rho is monotone, so some element
    has no top of rho >= k above it exactly when k > maximal_rho.
    """

    _fields = ("n", "g", "weights", "cells", "parts", "rho", "maximal_rho")
    __slots__ = (*_fields, "_tables")

    def __init__(
        self,
        n: int,
        g: tuple[int, ...],
        weights: tuple[int, ...],
        cells: int,
        parts: tuple[bytes, ...],
        rho: bytes,
        maximal_rho: int,
    ) -> None:
        self._init(n, g, weights, cells, parts, rho, maximal_rho)
        object.__setattr__(self, "_tables", _parts_of(g))

    def __len__(self) -> int:
        return len(self.rho)

    def exponents(self, i: int) -> tuple[int, ...]:
        """The exponents of element i, one table row per part byte."""
        out: tuple[int, ...] = ()
        for part, table in zip(self.parts, self._tables):
            out += table.exps[part[i]]
        return out


def build_poset(
    pair: QuotientPresentation,
    *,
    cap: int = DEFAULT_POSET_CAP,
    g_override: tuple[int, ...] | None = None,
) -> CharacteristicPoset:
    """Enumerate the multidegree poset of a presentation.

    ``g_override`` replaces the default bound with any coordinatewise larger
    one up to ``MAX_EXPONENT``; the computed invariant does not depend on that
    choice, which the test suite exercises.
    """
    check_limits(cap=cap)
    n = pair.ambient
    gens = pair.numerator.gens + pair.denominator.gens
    g = tuple(map(max, zip(*(m.exponents for m in gens))))
    if g_override is not None:
        if len(g_override) != n or any(o < gj for o, gj in zip(g_override, g)):
            raise InputError("g_override must dominate the generator exponents")
        if max(g_override) > MAX_EXPONENT:
            raise InputError(f"g_override entry {max(g_override)} exceeds the cap {MAX_EXPONENT}")
        g = tuple(g_override)

    box = prod(gj + 1 for gj in g)
    if box > cap:
        raise PosetCapExceededError(f"multidegree box has {box} cells, cap is {cap}")
    weights = tuple(accumulate([gj + 1 for gj in g[:-1]], mul, initial=1))

    # The elements are the box cells of the numerator less those of the
    # denominator.
    upper = ideal_cells(pair.numerator, g)
    cells = upper & ~ideal_cells(pair.denominator, g)
    if not cells:
        raise InvalidPresentationError("the presentation has an empty poset")
    maximal = _maximal_cells(cells, upper, g)

    # One pass over the rows of the box that hold a cell.  A row is the codes
    # that share every part code but the first, so its cells are one run of
    # ``width`` digits, and its other part codes and its offsets of degree and
    # rho are constants of the row.  The row's digits, read in the first
    # part's (degree, code) order (``_Part.ranked``), give its codes cut into
    # runs of one degree, each ascending by code.  Each degree keeps its runs
    # in row order, so reading the degrees in turn lists the elements in
    # (degree, code) order with no sort.
    first, *rest = _parts_of(g)
    width = first.radix
    text = format(cells, f"0{box}b")[::-1].encode().translate(_BIT_VALUES)
    tops = format(maximal, f"0{box}b")[::-1].encode().translate(_BIT_VALUES)
    # itemgetter of one index returns the item, not a 1-tuple; a box of one
    # cell is a row of one digit, already in order.
    in_degree_order = itemgetter(*first.ranked) if width > 1 else bytes
    by_degree: list[list[tuple[bytes, bytes, list[bytes]]]] = [[] for _ in range(sum(g) + 1)]
    maximal_rho = n
    start = text.find(1) // width * width
    while start >= 0:
        end = start + width
        q, degree, offset, others = start // width, 0, 0, []
        for table in rest:
            q, c = divmod(q, table.radix)
            degree += table.degrees[c]
            offset += table.rho[0][c]
            others.append(bytes((c,)))
        rho_of = first.rho[offset]
        codes = bytes(compress(first.ranked, in_degree_order(text[start:end])))
        degrees, rhos = codes.translate(first.degrees), codes.translate(rho_of)
        at = 0
        while at < len(codes):
            part_degree = degrees[at]
            end_run = degrees.rfind(part_degree) + 1
            by_degree[degree + part_degree].append((codes[at:end_run], rhos[at:end_run], others))
            at = end_run
        maximal_rho = min((maximal_rho, *compress(rho_of, tops[start:end])))
        start = text.find(1, end) // width * width

    firsts, rhos, others = zip(*(run for runs in by_degree for run in runs))
    sizes = list(map(len, firsts))
    return CharacteristicPoset(
        n=n,
        g=g,
        weights=weights,
        cells=cells,
        parts=(b"".join(firsts), *(b"".join(map(mul, column, sizes)) for column in zip(*others))),
        rho=b"".join(rhos),
        maximal_rho=maximal_rho,
    )


class _Part(NamedTuple):
    """The tables of one part of a code on a bound, indexed by part code c.

    ``weight`` is the part's place value in a code and ``radix`` its count
    of part codes.  ``exps[c]`` lists c's exponents, its first coordinate
    least significant; ``rho[k]``, for k in 0..n, is a 256-byte translation
    table from c to its count of coordinates at the bound plus k;
    ``factors[c]`` is prod(g_j - c_j + 1) over the part's coordinates, its
    factor of |[e, g]|; ``at_bound[c]`` is the set of its variables x_j with
    c_j = g_j, one frozenset per distinct set; ``columns[j][x - 1]``, for the
    part's j-th coordinate and x in 1..g_j, is a 256-byte translation table
    from c to "1" when that coordinate is x or more and to "0" otherwise;
    ``degrees`` is a 256-byte translation table from c to the sum of its
    exponents; ``ranked`` lists the part codes ascending by (degree, code).
    """

    weight: int
    radix: int
    exps: tuple[tuple[int, ...], ...]
    rho: tuple[bytes, ...]
    factors: tuple[int, ...]
    at_bound: tuple[frozenset[int], ...]
    columns: tuple[tuple[bytes, ...], ...]
    degrees: bytes
    ranked: bytes


@lru_cache(maxsize=64)
def _parts_of(g: tuple[int, ...]) -> tuple[_Part, ...]:
    """The tables of each part of a code on the bound g, x1's part first.

    A part is a run of coordinates from x1 up whose radix product is at most
    256, so a part code is one byte, as every bound is at most
    ``MAX_EXPONENT``; a code is the mixed-radix number of its part codes, x1's
    part least significant.  The rows grow one coordinate at a time, and
    each step raises each distinct variable set once, so equal sets are one
    frozenset.
    """
    runs: list[list[int]] = []
    for j, gj in enumerate(g):
        if runs and prod(g[i] + 1 for i in runs[-1]) * (gj + 1) <= 256:
            runs[-1].append(j)
        else:
            runs.append([j])
    parts, weight = [], 1
    for run in runs:
        rows = [((), 0, 1, frozenset())]
        for j in run:
            gj = g[j]
            raised = {z: z | {j + 1} for z in {z for *_, z in rows}}
            rows = [
                (e + (x,), r + (x == gj), f * (gj - x + 1), raised[z] if x == gj else z)
                for x in range(gj + 1)
                for e, r, f, z in rows
            ]
        exps, rho, factors, at_bound = zip(*rows)
        rho_plus = tuple(bytes(r + k for r in rho).ljust(256, b"\0") for k in range(len(g) + 1))
        degrees = bytes(map(sum, exps))
        columns = tuple(
            tuple(bytes(b"01"[d >= x] for d in digits).ljust(256, b"0") for x in range(1, g[j] + 1))
            for j, digits in zip(run, zip(*exps))
        )
        ranked = bytes(sorted(range(len(rows)), key=degrees.__getitem__))
        parts.append(_Part(
            weight, len(rows), exps, rho_plus, factors, at_bound, columns,
            degrees.ljust(256, b"\0"), ranked,
        ))
        weight *= len(rows)
    return tuple(parts)


def _maximal_cells(cells: int, upper: int, g: tuple[int, ...]) -> int:
    """The maximal cells of ``cells``, cells of the box [0, g] within the up-set ``upper``.

    Raises AssertionError unless the set is down(set) ∩ ``upper``: that makes
    it box-convex, as the meet of a down-set and an up-set, and with ``upper``
    the set's own up-set it holds for every box-convex set.  One masked shift
    per coordinate gives the cells one step below a cell of the set, and those
    in ``upper`` must all be in the set.  That is exact: a cell of
    down(set) ∩ ``upper`` outside the set has a unit-step path up to a cell of
    the set, all of it in ``upper``, and the path's last cell outside the set
    is one step below a cell of the set.  In a box-convex set a cell is
    maximal when no cell one step above it is in the set.
    """
    under = 0
    for weight, below in box_steps(g):
        under |= (cells >> weight) & below
    if (under | cells) & upper != cells:
        raise AssertionError("element set is not box-convex")
    return cells & ~under


class StanleyDecomposition(FrozenRecord):
    """A list of (bottom multidegree, variable set) interval descriptions.

    The interval of a pair (a, Z) runs from a to the top that has coordinate
    g_j for every x_j in Z and a's coordinate elsewhere, where g is the bound
    of the poset the decomposition is verified on.
    """

    __slots__ = _fields = ("n", "intervals")

    def __init__(self, n: int, intervals: tuple[tuple[Monomial, frozenset[int]], ...]) -> None:
        self._init(n, intervals)

    def __len__(self) -> int:
        return len(self.intervals)


def _decomposition(
    poset: CharacteristicPoset, bottoms: Sequence[int], tops: Sequence[int]
) -> StanleyDecomposition:
    """The intervals from each of ``bottoms`` to the matching one of ``tops``, element indices.

    A top's variable set is its variables at the bound, one table lookup per
    part byte (``_Part.at_bound``); with more than one part, the parts' sets
    are joined once per distinct tuple of them.  Equal sets share one
    frozenset.
    """
    _, exps, _, _ = decode(poset, bottoms)
    sets = [
        map(table.at_bound.__getitem__, part)
        for part, table in zip(decode(poset, tops)[0], poset._tables)
    ]
    if len(sets) == 1:
        zsets = sets[0]
    else:
        keys = list(zip(*sets))
        joined = {key: frozenset().union(*key) for key in set(keys)}
        zsets = map(joined.__getitem__, keys)
    # Every exponent of the poset lies in [0, g], and ``build_poset`` keeps g
    # under the cap, so the monomial constructor's checks can be skipped.
    return StanleyDecomposition(poset.n, tuple(zip(map(Monomial.trusted, exps), zsets)))


def check_limits(time_limit_s: float | None = None, cap: int = 1) -> None:
    """Raise InputError for a negative or NaN time limit or a poset cap below 1.

    A time limit of None, 0 or inf is valid; these are input errors, not
    resource limits that a search hit.
    """
    if time_limit_s is not None and not time_limit_s >= 0:
        raise InputError(f"time limit must be at least 0 seconds, got {time_limit_s}")
    if cap < 1:
        raise InputError(f"poset cap must be at least 1, got {cap}")


def _check_level(poset: CharacteristicPoset, k: int) -> None:
    if not 0 <= k <= poset.n:
        raise InputError(f"k must be in 0..{poset.n}, got {k}")


class SearchStats(Counters):
    """Counters of the partition search, filled in when a caller passes one.

    ``levels`` lists the levels tried, in order; ``sdepth_of_poset`` lists
    value + 1 unless it exceeds ``maximal_rho``.  Three outcomes need no
    search: a level above ``maximal_rho``; a moment prune, a level refuted by
    the Hilbert test on its (degree, rho) counts, the only one counted; and a
    level with no element of rho below it, settled by singletons.  A placement
    covers the cells of one interval.  A stranded prune rejects the covered
    set a placement made, or the root, because some uncovered element has no
    top left.  A table hit is a placement skipped because its covered set is
    stored as one whose subtree holds no partition; ``stored_states`` counts
    those stores, ``table_clears`` the times the table reached its byte
    budget, and ``table_peak_bytes`` the most it held, in the budget's units.
    ``candidate_tops`` counts the candidates whose cells the search built,
    each on its first try; an element of rho k has one candidate, itself,
    whose cells are built with its table.  The elements of rho above the
    level are covered as singletons before the search starts, so neither
    placements nor candidate tops count them.  Each search adds its counts
    once, when it returns or hits the time limit, so a record passed to
    ``sdepth_of_poset`` sums over the levels it tried.
    """

    _fields = (
        "levels", "placements", "stranded_prunes", "moment_prunes", "table_hits",
        "stored_states", "table_clears", "table_peak_bytes", "candidate_tops",
    )
    _defaults = {"levels": list}


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
    outcome from infeasibility.  A ``stats`` record, when given, gets k and
    this search's counts added.  Three outcomes need no search, in this
    order: a level above ``maximal_rho`` is refuted, as a maximal element of
    smaller rho tops every interval that contains it, and so is the level of
    the largest rho when its (degree, rho) counts fail the Hilbert test
    (``hilbert_negative_degree``), a moment prune; a level with no element of
    rho below k is settled by singletons.

    Any other level is searched on its rho = k layer (module docstring): each
    interval of the partition returned is a singleton of rho >= k or has a top
    of rho exactly k, and it is the partition that a search over every
    canonical top of rho >= k would meet first.
    """
    _check_level(poset, k)
    check_limits(time_limit_s)
    stats = SearchStats() if stats is None else stats
    stats.levels.append(k)
    if k > poset.maximal_rho:
        return None
    # The Hilbert test at the largest rho.  An element's degree is the sum of
    # its part degrees, each one translation of a part's bytes.  The elements
    # ascend by degree, so each degree's rho bytes are one run, found by
    # bisection, and each class is counted in it in C.
    rho = poset.rho
    if k == max(rho):
        parts = zip(poset.parts, poset._tables)
        degrees = list(reduce(partial(map, add), [part.translate(t.degrees) for part, t in parts]))
        starts = [bisect_left(degrees, d) for d in range(degrees[-1] + 2)]
        counts = {(d, r): count for d, (start, end) in enumerate(pairwise(starts))
                  for r in range(k + 1) if (count := rho.count(r, start, end))}
        if hilbert_negative_degree(counts, k) is not None:
            stats.moment_prunes += 1
            return None
    if min(rho) >= k:
        every = range(len(rho))
        return _decomposition(poset, every, every)
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s
    intervals = _search(poset, k, deadline, stats)
    return None if intervals is None else _decomposition(poset, *zip(*intervals))


def order_bitsets(
    parts: Sequence[bytes], g: tuple[int, ...]
) -> tuple[list[list[int]], list[list[int]]]:
    """The coordinate columns of a list of points of [0, g] as int bitsets.

    ``parts`` holds the points' part codes as ``CharacteristicPoset.parts``
    does, point i's at position i, and bit i stands for point i.
    ``ge[j][x]`` is the set of points with e_j >= x and ``le[j][x]`` the set
    with e_j <= x, for x in 0..g_j; ``ge[j][0]`` is every point.  Each
    ``ge[j][x]`` with x > 0 is one translation of the reversed part bytes
    into binary digits, with a table of the bound (``_Part.columns``), so no
    Python code runs per point.
    """
    full = (1 << len(parts[0])) - 1
    ge, le = [], []
    for part, table in zip(parts, _parts_of(g)):
        text = part[::-1]
        for tables in table.columns:
            at_least = [full] + [int(text.translate(table), 2) for table in tables]
            ge.append(at_least)
            le.append([full ^ above for above in at_least[1:]] + [full])
    return ge, le


def decode(
    poset: CharacteristicPoset, order: Sequence[int]
) -> tuple[list[bytes], Iterator[tuple[int, ...]], Iterator[int], Iterator[int]]:
    """The part bytes, exponents, codes and boxes |[e, g]| of the elements ``order`` lists.

    The part bytes are gathered in ``order``'s order, one ``bytes`` per part.
    The other three are iterators in that order, to be read at most once:
    each maps every part's bytes once through a table of the bound
    (``_parts_of``) and adds or multiplies the parts' values in C, so no
    Python code runs per element.
    """
    parts = [bytes(map(part.__getitem__, order)) for part in poset.parts]
    exps = codes = boxes = None
    for part, table in zip(parts, poset._tables):
        part_exps = map(table.exps.__getitem__, part)
        part_codes = iter(part) if table.weight == 1 else map(table.weight.__mul__, part)
        part_boxes = map(table.factors.__getitem__, part)
        if exps is None:
            exps, codes, boxes = part_exps, part_codes, part_boxes
        else:
            exps = map(add, exps, part_exps)
            codes = map(add, codes, part_codes)
            boxes = map(mul, boxes, part_boxes)
    return parts, exps, codes, boxes


def up_set(ge: list[list[int]], e: tuple[int, ...]) -> int:
    """The points at or above exponents e, from the ``ge`` columns."""
    return reduce(and_, map(getitem, ge, e))


def down_set(le: list[list[int]], t: tuple[int, ...]) -> int:
    """The points at or below exponents t, from the ``le`` columns."""
    return reduce(and_, map(getitem, le, t))


def ranked_tops(poset: CharacteristicPoset, tops: int) -> list[int]:
    """The elements of the bitset ``tops``, by (-|[t, g]|, code): their ranks.

    |[t, g]| = prod(g_j - t_j + 1) counts the cells from t up to the bound.  A
    canonical top t of an element e (t_j in {e_j, g_j} for every j) has
    |[e, t]| * |[t, g]| = |[e, g]|, so on every element's canonical tops this
    one order is (box of [e, t], code of t) order.  On a squarefree bound
    |[t, g]| = 2^(n - rho(t)) and the order is element order.
    """
    order = set_bits(tops)
    _, _, codes, boxes = decode(poset, order)
    # One int per top: its code less its box times the box of the bound, which
    # exceeds every code, so the ints ascend in (-|[t, g]|, code) order.
    size = prod(gj + 1 for gj in poset.g)
    keys = list(map(sub, codes, map(size.__mul__, boxes)))
    return list(map(order.__getitem__, sorted(range(len(order)), key=keys.__getitem__)))


def candidate_ranks(
    top_ge: list[list[int]], g: tuple[int, ...], e: tuple[int, ...], above: int
) -> int:
    """The canonical tops of exponents e, as a bitset over the tops' ranks.

    ``top_ge`` holds the columns of the ranked tops (``order_bitsets``) and
    ``above`` is their up-set of e.  A top t is canonical when t_j is e_j or
    g_j in every coordinate, that is, when no coordinate lies strictly
    between; lowest bit first, the set is in (box, top code) order.
    """
    between = 0
    for j, (x, gj) in enumerate(zip(e, g)):
        if x + 1 < gj:
            between |= top_ge[j][x + 1] ^ top_ge[j][gj]
    return above & ~between


def hilbert_negative_degree(counts: Mapping[tuple[int, int], int], k: int) -> int | None:
    """The least degree of a negative coefficient of (1 - t)^k H(t), or None if there is none.

    ``counts[d, r]`` counts the elements of degree d and rho r, each r <= k, so
    (1 - t)^k H(t), the sum of count * t^d * (1 - t)^(k - r), is a polynomial.
    A partition with every top of rho >= k leaves no negative coefficient: an
    interval [c, t] adds t^|c| / (1 - t)^rho(t) to H(t), times
    1 + t + ... + t^(t_j - c_j) for each coordinate j where t is below the
    bound.  This is the N-graded Hilbert-depth test (Uliczka, Manuscripta
    Math. 132, 2010; Bruns, Krattenthaler and Uliczka, J. Commut. Algebra 2,
    2010).
    """
    coefficients = [0] * (max((d + k - r for d, r in counts), default=0) + 1)
    for (d, r), count in counts.items():
        for j in range(k - r + 1):
            coefficients[d + j] += (-1) ** j * comb(k - r, j) * count
    return next((d for d, c in enumerate(coefficients) if c < 0), None)


def _search(poset, k, deadline, stats):
    g, rho, exponents = poset.g, poset.rho, poset.exponents
    size = len(rho)
    full = (1 << size) - 1

    # The covered set as a bitmask, and the covered sets whose subtree was
    # searched to exhaustion without a partition.  The branch element is the
    # first uncovered one, and the candidate tables and the stranded test
    # depend only on the covered set and k, so a subtree's outcome does too:
    # skipping a stored set never skips a partition, and the first partition
    # found is the same.  Failure depends on k, so the table lives one search.
    # ``taken`` is the covered set's tops, by rank: each placement covers one
    # top, its candidate (module docstring).
    mask = taken = 0
    failed: set[int] = set()
    empty_bytes = sys.getsizeof(failed)
    entry_bytes = sys.getsizeof(full) + _SET_SLOT_BYTES
    capacity = max(1, (FAILED_STATES_BYTES - empty_bytes) // entry_bytes)
    placements = stranded = hits = stored = clears = peak = built = 0

    try:
        # The level is searched on its rho = k layer (module docstring): the
        # elements of rho above k, ``high``, are covered as singletons from the
        # start, and the tops are the elements of rho exactly k; each set is
        # one translation of the reversed rho bytes into binary digits.  Only
        # the others, the lows, can get stranded.  The order is kept as bitsets
        # twice: over all elements, for the cells of intervals, and over the
        # tops alone, bit r standing for top_of[r] (``ranked_tops``), for
        # candidates and witnesses.  A top is named by its rank r everywhere
        # in the search, and by its element index only in the partition
        # returned.  A low's set of the tops above it by rank, ``ranks_above``,
        # is built on first use and kept for the rest of this level: one bit
        # per top, not one per element.
        rho_text = rho[::-1]
        high = int(rho_text.translate(b"0" * (k + 1) + b"1" * (255 - k)), 2)
        tops = int(rho_text.translate(b"0" * k + b"1" + b"0" * (255 - k)), 2)
        top_of = ranked_tops(poset, tops)
        rank_of = {t: r for r, t in enumerate(top_of)}
        ge, le = order_bitsets(poset.parts, g)
        top_parts, decoded, _, _ = decode(poset, top_of)
        top_ge, _ = order_bitsets(top_parts, g)
        # The tops' exponents by rank, decoded once for the watchers and the
        # cells of the candidates that name them.
        top_exps = list(decoded)
        ranks_above: list[int | None] = [None] * size

        # watchers[r] is the bitset of the lows whose current witness (an
        # uncovered top above them) is the top of rank r.  Each low is in
        # exactly one set; a covered low stays in its set, so that
        # backtracking leaves every witness valid again.
        watchers = [0] * len(top_of)

        # Candidate tops of an element depend only on the element and k, so
        # each table is built once per level, on first use.  A table is (its
        # candidates as a rank bitset, the cells of each candidate tried so
        # far by rank, the element's exponents).  Rank order is the tops'
        # (box, code) order, so a frame tries its candidates lowest bit first.
        # A candidate's cells, the element's up-set ANDed with the top's
        # down-set, are built on its first try and kept, so the table keeps
        # no up-set over every element.  A top's table is its one candidate,
        # its own rank, with its own bit as its cells.
        tables: list[tuple | None] = [None] * size

        def opened(ei, placed):
            # A frame is [element index, its table, its untried candidates as
            # a rank bitset, (bottom, top rank, cells) of the placement that
            # opened it or None].
            nonlocal built
            found = tables[ei]
            if found is None:
                if rho[ei] == k:
                    # A top's only candidate is itself: any other top above
                    # it has the same rho, so it is not canonical.
                    r = rank_of[ei]
                    found = tables[ei] = (1 << r, {r: 1 << ei}, None)
                    built += 1
                else:
                    # The set is never empty: the guard below gives every low
                    # e a top t above it, and the element equal to t where t
                    # meets g and to e elsewhere lies between them, has t's
                    # rho and is canonical.
                    e = exponents(ei)
                    above = ranks_above[ei]
                    if above is None:
                        above = ranks_above[ei] = up_set(top_ge, e)
                    found = tables[ei] = (candidate_ranks(top_ge, g, e, above), {}, e)
            return [ei, found, found[0], placed]

        # Each low's first witness is the top of highest rank above it: the
        # tops, highest rank first, take the lows below them that no higher
        # one took.  Since k <= maximal_rho every low has one, as rho rises by
        # at most 1 per step towards a maximal element; a low left over is
        # refuted here too, as a guard on maximal_rho.
        unwatched = full ^ tops ^ high
        for r in range(len(top_of) - 1, -1, -1):
            if not unwatched:
                break
            watchers[r] = down_set(le, top_exps[r]) & unwatched
            unwatched ^= watchers[r]
        if unwatched:
            stranded += 1
            return None

        # The innermost frame's loop runs until a placement opens a child
        # frame or its candidates run out.  It takes the untried ranks lowest
        # bit first and writes those left back into the frame before a child
        # opens.  The branch element is always the lowest uncovered one.
        mask = high
        frames = [opened((mask ^ (mask + 1)).bit_length() - 1, None)]
        while frames:
            frame = frames[-1]
            ei, (_, cells_of, e), untried, placed = frame
            while untried:
                bit = untried & -untried
                untried ^= bit
                r = bit.bit_length() - 1
                cells = cells_of.get(r)
                if cells is None:
                    cells = cells_of[r] = up_set(ge, e) & down_set(le, top_exps[r])
                    built += 1
                if cells & mask:
                    continue
                # The table is empty until a subtree fails, so a search that
                # never backtracks hashes no covered set.
                state = mask | cells
                if failed and state in failed:
                    hits += 1
                    continue

                mask = state
                taken |= bit
                placements += 1
                if mask == full:
                    # Every frame but the root was opened by one placement, so
                    # the placed intervals ascend by bottom; the singletons
                    # above k go in between.
                    placed_ranks = [f[3][:2] for f in frames[1:]] + [(ei, r)]
                    intervals = [(bottom, top_of[rank]) for bottom, rank in placed_ranks]
                    return sorted(intervals + [(i, i) for i in set_bits(high)])
                if deadline is not None and placements % 512 == 0 and time.monotonic() > deadline:
                    raise TimeLimitExceededError(
                        f"partition search at level {k} hit the time limit"
                    )

                # Only the uncovered lows watching the newly covered top r
                # lost their witness; each moves to the free top of highest
                # rank above it.  On failure the low that found none and
                # those not yet scanned stay with r, which backtracking
                # uncovers again.
                lost = watchers[r] & ~mask
                while lost:
                    low = lost & -lost
                    u = low.bit_length() - 1
                    above = ranks_above[u]
                    if above is None:
                        above = ranks_above[u] = up_set(top_ge, exponents(u))
                    above &= ~taken
                    if not above:
                        break
                    watchers[above.bit_length() - 1] |= low
                    watchers[r] ^= low
                    lost ^= low
                else:
                    # None is stranded: the next branch element is the lowest
                    # uncovered one.
                    frame[2] = untried
                    nxt = (mask ^ (mask + 1)).bit_length() - 1
                    frames.append(opened(nxt, (ei, r, cells)))
                    break
                stranded += 1
                mask ^= cells
                taken ^= bit
            else:
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
                    _, r, cells = placed
                    mask ^= cells
                    taken ^= 1 << r

        return None
    finally:
        stats.placements += placements
        stats.stranded_prunes += stranded
        stats.table_hits += hits
        stats.stored_states += stored
        stats.table_clears += clears
        peak = empty_bytes + max(peak, len(failed)) * entry_bytes
        stats.table_peak_bytes = max(stats.table_peak_bytes, peak)
        stats.candidate_tops += built


class SdepthResult(NamedTuple):
    """Computed invariant with its certificate and the poset it lives on.

    ``infeasible_at`` is value + 1, the level at which no partition exists,
    or None when the value is the ambient size and no higher level exists.
    That level was refuted either by ``exists_partition`` or because it
    exceeds the poset's ``maximal_rho``.
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

    The scan starts at ``maximal_rho``, above which ``exists_partition``
    refutes every level, and stops at the first level where it finds a
    partition; level 0 always has one.  So value + 1 is refuted either by
    ``exists_partition`` or because it exceeds ``maximal_rho``, and the
    result ships that refutation and a certificate at the value.  Low levels
    are the costly ones to search, and the scan never visits a level below
    the value.  The certificate is verified with a check that raises
    AssertionError under ``python -O`` too.  ``time_limit_s`` bounds the
    whole scan: each level gets the time the levels before it left.  A
    ``stats`` record, when given, sums the counts of every level tried.
    """
    check_limits(time_limit_s)
    deadline = None if time_limit_s is None else time.monotonic() + time_limit_s
    for value in range(poset.maximal_rho, -1, -1):
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
    """Check the limits, then build the poset of the presentation and compute its invariant."""
    check_limits(time_limit_s, max_poset)
    poset = build_poset(pair, cap=max_poset)
    return sdepth_of_poset(poset, time_limit_s=time_limit_s, stats=stats)


class VerificationReport(NamedTuple):
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

    The check reads only the certificate and the poset's bound, weights and
    cells, and decodes the cells it names by its own arithmetic on the
    weights, sharing no code with the search.  Sets of cells are bitsets
    indexed by code, cut into rows of at most ``ROW_CELLS`` cells.  One pass
    (``_cover``) checks each interval and names every failure; the
    certificate is valid when it names none.
    """
    _check_level(poset, k)
    if decomposition.n != poset.n:
        return VerificationReport(False, (f"ambient mismatch: {decomposition.n} vs {poset.n}",), None)
    failures: list[str] = []
    least = _cover(poset, decomposition.intervals, k, failures)
    return VerificationReport(not failures, tuple(failures), least)


def _cover(
    poset: CharacteristicPoset,
    intervals: Sequence[tuple[Monomial, frozenset[int]]],
    k: int,
    failures: list[str],
) -> int | None:
    """Check the intervals against the poset at level k, appending a line per failure.

    Per interval the pass checks the bottom's ambient, its variables' range
    and the bottom's bound, and a bottom that fails one is named and skipped.
    Otherwise it checks the top's rho and spreads the interval's cells; each
    variable set's coordinates are listed once.  The pass keeps the poset's
    cells that no interval has covered yet, and names each cell of an
    interval that is not among them, as outside the poset or covered before,
    in code order.  The cells left at the end name the first uncovered
    element.  Returns the least rho of the tops whose bottom passed the
    checks, or None when there is none.
    """
    # The poset's cells as rows of ``width`` cells, lowest first: the first
    # ``split`` coordinates run within a row, the rest across rows.  A bitset
    # of up to ROW_CELLS bits costs about as much to AND, OR or shift as the
    # interpreter's own work per operation, so a box of that many cells is
    # one row.
    n, g, weights = poset.n, poset.g, poset.weights
    sizes = weights + (weights[-1] * (g[-1] + 1),)
    split = bisect_right(sizes, ROW_CELLS) - 1
    width = sizes[split]
    digits = format(poset.cells, f"0{sizes[n]}b")
    cell_rows = [int(digits[a:a + width], 2) for a in range(0, sizes[n], width)][::-1]
    left = cell_rows.copy()  # the poset's cells that no interval has covered
    in_range = frozenset(range(1, n + 1))
    raised_of: dict[frozenset[int], list[int]] = {}
    least = n + 1  # above every rho: no top yet
    # The indices of the placed intervals, and the first interval to cover
    # each cell, to name a double cover.  ``owner`` is filled from
    # placed[:scanned], and extended to every placed interval, its cells
    # spread again, only when the current one covers a cell twice.  Keeping
    # each interval's cells instead held every row bitset alive to the end
    # and cost a valid cycle (20,3) certificate about a fifth more time.
    placed: list[int] = []
    owner: dict[int, int] = {}
    scanned = 0

    def exponents(cell):
        return tuple(cell // w % (gj + 1) for w, gj in zip(weights, g))

    def spread(e, raised):
        # The top's rho, the bottom's coordinates at the bound and the raised
        # ones below it, and the interval's rows and its cells within a row,
        # the bottom's bit spread along each raised coordinate below the bound.
        r = sum(map(eq, e, g))
        row, at = divmod(sum(map(mul, e, weights)), width)
        within, rows = 1 << at, [row]
        for j in raised:
            steps = g[j] - e[j]
            if steps:
                r += 1
                w = weights[j]
                if j < split:
                    for _ in range(steps):
                        within |= within << w
                else:
                    w //= width
                    rows = [below + step for step in range(0, (steps + 1) * w, w) for below in rows]
        return r, rows, within

    for i, (bottom, zvars) in enumerate(intervals):
        e = bottom.exponents
        raised = raised_of.get(zvars)
        if len(e) != n:
            failure = "bottom ambient mismatch"
        elif raised is None and not in_range >= zvars:
            failure = "variable index out of range"
        elif not all(map(le, e, g)):
            failure = f"bottom {bottom} exceeds the bound"
        else:
            failure = None
        if failure is not None:
            failures.append(f"{_label(i, bottom, zvars)}: {failure}")
            continue
        if raised is None:
            raised = raised_of[zvars] = sorted(v - 1 for v in zvars)
        r, rows, within = spread(e, raised)
        if r < least:
            least = r
        if r < k:
            failures.append(f"{_label(i, bottom, zvars)}: top has rho {r} < {k}")
        for row in rows:
            free = within & left[row]
            if free != within:
                for at in set_bits(within ^ free):
                    cell = row * width + at
                    if not cell_rows[row] >> at & 1:
                        outside = Monomial(exponents(cell))
                        failures.append(f"{_label(i, bottom, zvars)}: cell {outside} is outside the poset")
                        continue
                    for j in placed[scanned:]:
                        bottom_j, zvars_j = intervals[j]
                        _, rows_j, within_j = spread(bottom_j.exponents, raised_of[zvars_j])
                        for row_j in rows_j:
                            for at_j in set_bits(within_j):
                                owner.setdefault(row_j * width + at_j, j)
                    scanned = len(placed)
                    failures.append(
                        f"double cover of {Monomial(exponents(cell))} by intervals "
                        f"{owner[cell] + 1} and {i + 1}"
                    )
            left[row] ^= free
        placed.append(i)

    if any(left):
        # The first uncovered element is the left cell of least (degree,
        # code): a cell's degree is its row's plus that of its bit in the
        # row, read only for the rows and bits that hold a left cell.
        gaps = [
            (sum(exponents(row * width)), row * width, gap) for row, gap in enumerate(left) if gap
        ]
        bits = set_bits(reduce(or_, [gap for _, _, gap in gaps]))
        at_degree = dict(zip(bits, [sum(exponents(at)) for at in bits]))
        first = min(
            (degree + at_degree[at], start + at) for degree, start, gap in gaps for at in set_bits(gap)
        )[1]
        failures.append(f"uncovered element {Monomial(exponents(first))}")
    return least if least <= n else None


def _label(i: int, bottom: Monomial, zvars: frozenset[int]) -> str:
    """``interval i+1 [bottom ; {x_j, ...}]``: how a failure names the i-th interval."""
    return f"interval {i + 1} [{_line(bottom, zvars)}]"


# ---------------------------------------------------------------------------
# Certificate files: one interval per line, "bottom ; {x_i, x_j, ...}", with
# "1" standing for the constant bottom and "{}" for the empty variable set.
# ---------------------------------------------------------------------------

_VAR_RE = re.compile(r"^x(\d+)$")


def _line(bottom: Monomial, zvars: frozenset[int]) -> str:
    """The certificate line of an interval, without its newline."""
    return f"{bottom} ; {{{', '.join(f'x{v}' for v in sorted(zvars))}}}"


def format_certificate(decomposition: StanleyDecomposition) -> str:
    return "\n".join(starmap(_line, decomposition.intervals)) + "\n"


def parse_certificate(text: str, n: int) -> StanleyDecomposition:
    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ";" not in line:
            raise InputError(f"certificate line {lineno}: missing ';' separator")
        left, right = line.split(";", 1)
        try:
            bottom = parse_monomial(left.strip(), n)
        except IdealSyntaxError as exc:
            raise InputError(f"certificate line {lineno}: {exc}") from exc
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
