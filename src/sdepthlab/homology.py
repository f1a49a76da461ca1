"""Depth of squarefree monomial quotients through exact simplicial homology.

The complex attached to a squarefree ideal has as faces exactly the squarefree
monomials outside the ideal, encoded as bitmasks (bit j = variable x_{j+1}).
Multigraded Betti numbers of the quotient are read off reduced homology of
vertex-restricted subcomplexes; depth is the ambient size minus the largest
nonzero homological index.  The faces of the complex and their boundary rows
are listed once per ideal, and each restriction is read as the subset of them
inside its vertex set.  Ranks are over the rationals and exact.  Each
boundary map is first ranked over F_2, with rows as int bitmasks; since a
boundary matrix has entries 0 and +-1, its rank over F_2 is at most its rank
over Q, and the F_2 rank is exact next to any zero F_2 homology group.  Only a
boundary between two nonzero F_2 groups is ranked again by signed integer
elimination, so torsion (Reisner's six-vertex RP^2) is still handled.
"""

from __future__ import annotations

from itertools import combinations
from math import gcd
from typing import NamedTuple

from .errors import InputError
from .ideals import MonomialIdeal, Record, box_upset, set_bits


class SimplicialComplex(NamedTuple):
    """A simplicial complex stored implicitly by its minimal non-faces.

    ``nonface_masks`` is the canonical (sorted, mutually incomparable) tuple of
    bitmasks; a subset is a face exactly when it contains none of them.  The
    complex always contains the empty face.
    """

    n: int
    nonface_masks: tuple[int, ...]

    def faces(self) -> list[int]:
        """All face masks, ascending by (popcount, value): the cells of the box
        [0, (1, ..., 1)], whose codes are the masks, outside the nonfaces' upset."""
        nonfaces = box_upset(sum(1 << nf for nf in set(self.nonface_masks)), (1,) * self.n)
        out = set_bits(((1 << (1 << self.n)) - 1) & ~nonfaces)
        out.sort(key=lambda m: (m.bit_count(), m))
        return out

    def restrict(self, vertex_mask: int) -> "SimplicialComplex":
        """Full subcomplex on a vertex subset, compressed to a fresh vertex set."""
        positions = [j for j in range(self.n) if vertex_mask >> j & 1]
        nonfaces = []
        for nf in self.nonface_masks:
            if nf & vertex_mask == nf:
                nonfaces.append(sum(1 << i for i, j in enumerate(positions) if nf >> j & 1))
        return SimplicialComplex(len(positions), tuple(sorted(nonfaces)))


def sr_complex(ideal: MonomialIdeal) -> SimplicialComplex:
    """Complex whose faces are the squarefree monomials outside the ideal."""
    if not ideal.is_squarefree():
        raise InputError("the ideal must be squarefree")
    if ideal.is_zero() or ideal.is_unit():
        raise InputError("the ideal must be a nonzero proper ideal")
    masks = tuple(
        sorted(sum(1 << (j - 1) for j in g.support()) for g in ideal.gens)
    )
    return SimplicialComplex(ideal.ambient, masks)


def _gf2_rank(rows: list[int]) -> int:
    """Rank over F_2 of a matrix whose rows are int bitmasks of column indices.

    Each row is reduced by the stored pivot rows, keyed by their leading bit,
    until it is zero or has a new leading bit, where it becomes a pivot row.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row ^= pivot
    return len(pivots)


def _integer_rank(rows: list[dict[int, int]]) -> int:
    """Rank of an integer matrix given as sparse rows, by exact elimination.

    Cross-multiplication keeps everything in the integers; rows are reduced by
    their gcd after each elimination step so entries stay small.  The rank does
    not depend on the pivot order, so the pivot rule only affects the cost.
    """
    active = [dict(r) for r in rows if r]
    rank = 0
    while active:
        # A shortest row, and in it a +-1 entry if there is one, keeps fill-in
        # and entry growth low without scanning every entry of every row.
        pivot_row = min(active, key=len)
        pc = next((col for col, val in pivot_row.items() if abs(val) == 1), None)
        if pc is None:
            pc = min(pivot_row, key=lambda col: abs(pivot_row[col]))
        pv = pivot_row[pc]
        rank += 1
        next_rows = []
        for row in active:
            if row is pivot_row:
                continue
            v = row.get(pc)
            if v is None:
                next_rows.append(row)
                continue
            new_row = {}
            for col, val in row.items():
                if col == pc:
                    continue
                nv = val * pv - pivot_row.get(col, 0) * v
                if nv:
                    new_row[col] = nv
            for col, val in pivot_row.items():
                if col != pc and col not in row:
                    nv = -val * v
                    if nv:
                        new_row[col] = nv
            if new_row:
                g = 0
                for val in new_row.values():
                    g = gcd(g, val)
                if g > 1:
                    new_row = {c: v // g for c, v in new_row.items()}
                next_rows.append(new_row)
        active = next_rows
    return rank


def _face_table(complex_: SimplicialComplex):
    """The complex's faces grouped by size, their indices and F_2 boundary rows.

    ``by_size[s]`` lists the size-s faces ascending by value, ``index_of[s]``
    maps each of them to its position there, and ``rows[s][i]`` is the bitmask
    of the positions of the facets of ``by_size[s][i]``; the empty face has
    the row 0.
    """
    by_size: list[list[int]] = []
    for mask in complex_.faces():
        size = mask.bit_count()
        while len(by_size) <= size:
            by_size.append([])
        by_size[size].append(mask)
    index_of = [{m: i for i, m in enumerate(level)} for level in by_size]
    rows = [[0] * len(by_size[0])]
    for s in range(1, len(by_size)):
        below = index_of[s - 1]
        level_rows = []
        for mask in by_size[s]:
            row = 0
            rest = mask
            while rest:
                bit = rest & -rest
                row |= 1 << below[mask ^ bit]
                rest ^= bit
            level_rows.append(row)
        rows.append(level_rows)
    return by_size, index_of, rows


def _ranks_of(by_size, index_of, rows, inside) -> tuple[tuple[int, ...], int]:
    """Reduced homology ranks of the subcomplex whose size-s faces are the
    faces ``inside[s]`` (indices into ``by_size[s]``, ascending), and the
    number of boundaries ranked by exact elimination.

    ``inside`` must be closed under taking facets and have no empty level
    above a nonempty one.  Indices are global to the face table, so a
    boundary row of a face in the subcomplex is its row in ``rows``: a
    relabelling of columns, which changes no rank.  See ``homology_ranks``
    for the F_2 pass, the fallback rule and the checks.
    """
    top = len(inside) - 1
    sizes = [len(level) for level in inside]

    # boundary_rank[s] = rank of the map from size-s faces to size-(s-1) faces.
    boundary_rank = [0] * (top + 2)
    for s in range(1, top + 1):
        level_rows = rows[s]
        boundary_rank[s] = _gf2_rank([level_rows[i] for i in inside[s]])

    gf2_ranks = [sizes[s] - boundary_rank[s] - boundary_rank[s + 1] for s in range(top + 1)]
    if any(r < 0 for r in gf2_ranks):
        raise AssertionError("negative F_2 homology rank: rank computation is broken")

    fallbacks = 0
    for s in range(1, top + 1):
        if not (gf2_ranks[s - 1] and gf2_ranks[s]):
            continue
        # Signs come from the vertex positions in ascending order, which a
        # vertex subset keeps, so they are those of the restricted complex.
        below = index_of[s - 1]
        signed: dict[int, dict[int, int]] = {i: {} for i in inside[s - 1]}
        for col, i in enumerate(inside[s]):
            mask = by_size[s][i]
            vertices = [j for j in range(mask.bit_length()) if mask >> j & 1]
            for pos, j in enumerate(vertices):
                signed[below[mask & ~(1 << j)]][col] = -1 if pos % 2 else 1
        exact = _integer_rank(list(signed.values()))
        fallbacks += 1
        if exact < boundary_rank[s]:
            raise AssertionError("rank over F_2 exceeds rank over Q: rank computation is broken")
        boundary_rank[s] = exact

    ranks = [sizes[s] - boundary_rank[s] - boundary_rank[s + 1] for s in range(top + 1)]
    euler_faces = sum((-1) ** (s + 1) * sizes[s] for s in range(top + 1))
    euler_homology = sum((-1) ** (s + 1) * ranks[s] for s in range(top + 1))
    if euler_faces != euler_homology:
        raise AssertionError("Euler count mismatch: rank computation is broken")
    if any(r < 0 for r in ranks):
        raise AssertionError("negative homology rank: rank computation is broken")
    return tuple(ranks), fallbacks


def homology_ranks(complex_: SimplicialComplex) -> tuple[int, ...]:
    """Reduced homology ranks over the rationals, starting at degree -1.

    The empty face is carried as the single cell in degree -1, so the complex
    consisting of the empty face alone has ranks (1,).

    Every boundary map is ranked over F_2 first.  Write d_s for rank over Q
    minus rank over F_2 of the boundary from size-s faces; d_s >= 0, because
    a minor of a 0/+-1 matrix that is odd is nonzero.  The F_2 homology rank
    of size s is then the rational one plus d_s + d_(s+1), all nonnegative, so
    if it is zero, both boundaries next to it have d = 0.  Only a boundary
    whose two neighbouring F_2 groups are both nonzero is ranked again by
    signed integer elimination.  Four checks raise on every call: no F_2
    homology rank is negative, no exact rank is below its F_2 rank, the Euler
    count matches the face numbers, and no rational homology rank is negative.
    """
    by_size, index_of, rows = _face_table(complex_)
    inside = [range(len(level)) for level in by_size]
    return _ranks_of(by_size, index_of, rows, inside)[0]


class BettiTable(NamedTuple):
    """Nonzero multigraded Betti numbers of a squarefree quotient ring.

    Keys are (homological index, sorted 1-based variable tuple); values are
    positive ranks.
    """

    n: int
    entries: dict[tuple[int, tuple[int, ...]], int]

    def projective_dimension(self) -> int:
        return max(i for i, _ in self.entries)

    def depth(self) -> int:
        """Depth of the quotient ring: ambient minus projective dimension."""
        return self.n - self.projective_dimension()


MAX_HOCHSTER_AMBIENT = 14


class HomologyStats(Record):
    """Counters of ``hochster_betti``, filled in when a caller passes one.

    ``subsets`` counts the vertex subsets F scanned and ``lcm_skips`` those
    skipped because F is not a union of generator supports; every other F is
    ranked.  ``faces`` is the size of the complex's face list, ``boundaries``
    the boundary maps ranked over F_2 and ``fallbacks`` those ranked again by
    exact integer elimination.  Each call adds its counts once, when it
    returns.
    """

    _fields = ("subsets", "lcm_skips", "faces", "boundaries", "fallbacks")

    def __init__(
        self,
        subsets: int = 0,
        lcm_skips: int = 0,
        faces: int = 0,
        boundaries: int = 0,
        fallbacks: int = 0,
    ) -> None:
        self.subsets = subsets
        self.lcm_skips = lcm_skips
        self.faces = faces
        self.boundaries = boundaries
        self.fallbacks = fallbacks

    def format(self) -> str:
        """One line: ``subsets=... lcm_skips=... fallbacks=...``."""
        return " ".join(map("{}={}".format, self._fields, self._values()))


def hochster_betti(ideal: MonomialIdeal, stats: HomologyStats | None = None) -> BettiTable:
    """Full Betti table of the quotient by a squarefree ideal.

    The rank in homological index i and squarefree degree F is the reduced
    homology rank of the restriction to F in degree |F| - i - 1.  Only subsets
    F that are unions of generator supports can carry a nonzero rank; the rest
    are skipped.  The complex's faces and their F_2 boundary rows are listed
    once per ideal; the restriction to F is the full subcomplex on F, so its
    faces are the listed faces inside F, and every facet of such a face lies
    inside F too.  Each F is thus ranked on a subset of the listed faces and
    their stored rows, with no restricted complex built.  Subsets are scanned
    ascending by (popcount, value) so the table is deterministic.  A ``stats``
    record, when given, gets this call's counts added.
    """
    if ideal.ambient > MAX_HOCHSTER_AMBIENT:
        raise InputError(
            f"ambient {ideal.ambient} exceeds the Betti table cap {MAX_HOCHSTER_AMBIENT}"
        )
    complex_ = sr_complex(ideal)
    n = ideal.ambient
    by_size, index_of, rows = _face_table(complex_)
    full = (1 << n) - 1
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    subsets = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    lcm_skips = boundaries = fallbacks = 0
    for fmask in subsets:
        # Betti numbers live on the lcm lattice: if some vertex v of F lies in
        # no nonface inside F, v is a cone apex of the restriction to F, whose
        # reduced homology is then zero in every degree, -1 included (F is not
        # empty).  The empty set is its own union of nonfaces and is computed.
        covered = 0
        for nf in complex_.nonface_masks:
            if nf & fmask == nf:
                covered |= nf
        if covered != fmask:
            lcm_skips += 1
            continue
        outside = full ^ fmask
        inside = []
        for level in by_size:
            kept = [i for i, m in enumerate(level) if not m & outside]
            if not kept:
                break
            inside.append(kept)
        ranks, exact = _ranks_of(by_size, index_of, rows, inside)
        boundaries += len(ranks) - 1
        fallbacks += exact
        size = fmask.bit_count()
        fvars = tuple(j + 1 for j in range(n) if fmask >> j & 1)
        for degree_plus_one, rank in enumerate(ranks):
            if rank:
                i = size - degree_plus_one  # homological index for degree d = size - i - 1
                entries[(i, fvars)] = rank

    gen_supports = {g.support() for g in ideal.gens}
    degree_one = {f for i, f in entries if i == 1}
    if degree_one != gen_supports:
        raise AssertionError("index-1 table entries must be the generator supports")
    if entries.get((0, ())) != 1:
        raise AssertionError("the index-0 entry of the empty degree must be 1")
    if stats is not None:
        stats.subsets += len(subsets)
        stats.lcm_skips += lcm_skips
        stats.faces += sum(len(level) for level in by_size)
        stats.boundaries += boundaries
        stats.fallbacks += fallbacks
    return BettiTable(n, entries)


def depth_squarefree(ideal: MonomialIdeal) -> int:
    """Depth of the quotient ring by a squarefree ideal: ambient minus pd."""
    return hochster_betti(ideal).depth()
