"""Depth of squarefree monomial quotients through exact simplicial homology.

The complex attached to a squarefree ideal has as faces exactly the squarefree
monomials outside the ideal, encoded as bitmasks (bit j = variable x_{j+1}).
Multigraded Betti numbers of the quotient are read off reduced homology of
vertex-restricted subcomplexes; depth is the ambient size minus the largest
nonzero homological index.  Ranks are over the rationals and exact.  Each
boundary map is first ranked over F_2, with rows as int bitmasks; since a
boundary matrix has entries 0 and +-1, its rank over F_2 is at most its rank
over Q, and the F_2 rank is exact next to any zero F_2 homology group.  Only a
boundary between two nonzero F_2 groups is ranked again by signed integer
elimination, so torsion (Reisner's six-vertex RP^2) is still handled.

The Betti table visits only the lcm lattice, the unions F of minimal
nonfaces, and takes the cheapest of four exact routes for each F.  When the
nonfaces inside F fall into two or more vertex-disjoint groups, the
restriction to F is the join of the restrictions to the groups, and its ranks
are the convolution of theirs (Kunneth over Q).  When a vertex v of F is
dominated by another, deleting it is a strong collapse (Barmak-Minian), and F
has the ranks of F - v.  Neither ranks anything.  Otherwise the table ranks
the smaller of two complexes with the same homology up to a shift, each built
afresh from the nonfaces: the restriction itself, or its Alexander dual inside
F, the upper Koszul complex K^F = {F - N : N a nonface inside F}
(Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import InputError
from .ideals import Counters, MonomialIdeal, box_upset, set_bits, submasks


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


# A prime for the check that no exact fallback rank is below its rank over F_p.
_CHECK_PRIME = 2_147_483_647


def _modp_rank(rows: list[dict[int, int]]) -> int:
    """Rank over F_p, p = ``_CHECK_PRIME``, of an integer matrix given as
    sparse rows; at most its rank over Q, since a minor nonzero mod p is
    nonzero.  Pivot rows are kept monic and keyed by their least column."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = {col: val % _CHECK_PRIME for col, val in row.items() if val % _CHECK_PRIME}
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(row[lead], -1, _CHECK_PRIME)
                pivots[lead] = {col: val * inverse % _CHECK_PRIME for col, val in row.items()}
                break
            factor = row[lead]
            for col, val in pivot.items():
                nv = (row.get(col, 0) - factor * val) % _CHECK_PRIME
                if nv:
                    row[col] = nv
                else:
                    row.pop(col, None)
    return len(pivots)


def _ranks_of(faces: list[int], counts: HomologyStats) -> tuple[int, ...]:
    """Reduced homology ranks of the complex whose faces are ``faces`` (each
    size ascending by value, every facet present).  Adds to ``counts`` the
    faces, the boundaries ranked over F_2 and those ranked again by exact
    elimination.  See ``homology_ranks`` for the F_2 pass, the fallback rule
    and the checks.
    """
    by_size: list[list[int]] = []
    for mask in faces:
        size = mask.bit_count()
        while len(by_size) <= size:
            by_size.append([])
        by_size[size].append(mask)
    index_of = [{m: i for i, m in enumerate(level)} for level in by_size]
    top = len(by_size) - 1
    sizes = [len(level) for level in by_size]

    # boundary_rank[s] = rank of the map from size-s faces to size-(s-1) faces.
    # A face's F_2 row is the bitmask of the indices of its facets, built one
    # level at a time.
    boundary_rank = [0] * (top + 2)
    for s in range(1, top + 1):
        below = index_of[s - 1]
        rows = []
        for mask in by_size[s]:
            row, rest = 0, mask
            while rest:
                bit = rest & -rest
                row |= 1 << below[mask ^ bit]
                rest ^= bit
            rows.append(row)
        boundary_rank[s] = _gf2_rank(rows)
    counts.faces += len(faces)
    counts.boundaries += top

    gf2_ranks = [sizes[s] - boundary_rank[s] - boundary_rank[s + 1] for s in range(top + 1)]
    if any(r < 0 for r in gf2_ranks):
        raise AssertionError("negative F_2 homology rank: rank computation is broken")

    for s in range(1, top + 1):
        if not (gf2_ranks[s - 1] and gf2_ranks[s]):
            continue
        # Signs come from the vertex positions in ascending order.
        below = index_of[s - 1]
        matrix: list[dict[int, int]] = [{} for _ in by_size[s - 1]]
        for col, mask in enumerate(by_size[s]):
            vertices = [j for j in range(mask.bit_length()) if mask >> j & 1]
            for pos, j in enumerate(vertices):
                matrix[below[mask & ~(1 << j)]][col] = -1 if pos % 2 else 1
        exact = _integer_rank(matrix)
        counts.fallbacks += 1
        if exact < boundary_rank[s]:
            raise AssertionError("rank over F_2 exceeds rank over Q: rank computation is broken")
        if exact < _modp_rank(matrix):
            raise AssertionError("rank over F_p exceeds rank over Q: rank computation is broken")
        boundary_rank[s] = exact

    ranks = [sizes[s] - boundary_rank[s] - boundary_rank[s + 1] for s in range(top + 1)]
    euler_faces = sum((-1) ** (s + 1) * sizes[s] for s in range(top + 1))
    euler_homology = sum((-1) ** (s + 1) * ranks[s] for s in range(top + 1))
    if euler_faces != euler_homology:
        raise AssertionError("Euler count mismatch: rank computation is broken")
    if any(r < 0 for r in ranks):
        raise AssertionError("negative homology rank: rank computation is broken")
    return tuple(ranks)


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
    homology rank is negative, no exact rank is below its rank over F_2 or
    over F_p for a fixed large prime p, the Euler count matches the face
    numbers, and no rational homology rank is negative.
    """
    return _ranks_of(complex_.faces(), HomologyStats())


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


class HomologyStats(Counters):
    """Counters of ``hochster_betti``, filled in when a caller passes one.

    ``subsets`` counts the vertex subsets F and ``lcm_skips`` those skipped
    because F is not a union of generator supports.  Of the rest, ``joins``
    are read off smaller ones as joins, ``collapses`` off F minus a dominated
    vertex, and ``duals`` ranked through their upper Koszul complex; every
    other F is ranked as the restriction itself.  ``faces`` counts the faces
    of every complex ranked, ``boundaries`` the boundary maps ranked over F_2
    and ``fallbacks`` those ranked again by exact integer elimination.  Each
    call adds its counts once, when it returns.
    """

    _fields = (
        "subsets", "lcm_skips", "joins", "collapses", "duals", "faces", "boundaries", "fallbacks"
    )


def _join_ranks(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Ranks of the join of two complexes with ranks ``a`` and ``b``.

    With r[t] = dim H~_(t-1), Kunneth over a field gives
    H~_(t-1)(A * B) = sum over u + v = t of H~_(u-1)(A) (x) H~_(v-1)(B).
    """
    out = [0] * (len(a) + len(b) - 1)
    for u, x in enumerate(a):
        if x:
            for v, y in enumerate(b):
                out[u + v] += x * y
    return tuple(out)


def _dominated(fmask: int, inside: list[int], upset: int) -> int:
    """A vertex v of the restriction to F that another vertex w of F
    dominates, as the bit 1 << v, or 0 when there is none.

    ``inside`` lists the minimal nonfaces inside F, which must cover F, and
    bit m of ``upset`` is set when the mask m is a nonface.  v is dominated
    by w (every face holding v stays a face with w added) exactly when
    (N - w) | v is a nonface for every minimal nonface N inside F that holds
    w.  A w that shares a minimal nonface N with v fails that test on N, so
    only the w outside those nonfaces are tried.  A singleton nonface {v}
    passes it for every w, and then v is no vertex of the restriction at all.
    A single nonface, the boundary of a simplex, has no dominated vertex.
    """
    if len(inside) == 1:
        return 0
    vertices = fmask
    while vertices:
        vbit = vertices & -vertices
        vertices ^= vbit
        shared = 0
        for nf in inside:
            if nf & vbit:
                shared |= nf
                if shared == fmask:
                    break
        rest = fmask ^ shared
        while rest:
            wbit = rest & -rest
            rest ^= wbit
            if all(upset >> (nf ^ wbit | vbit) & 1 for nf in inside if nf & wbit):
                return vbit
    return 0


def _dual_ranks(fmask: int, inner: int, counts: HomologyStats) -> tuple[int, ...]:
    """``_ranks_of`` for the restriction to a nonempty F that is not a face,
    through its upper Koszul complex.

    ``inner`` has bit N set for each nonface N inside F.  K^F has the faces
    F - N; it is the Alexander dual of the restriction inside F, so
    dim H~_(s-1)(restriction) = dim H~_(|F|-s-2)(K^F), and the ranks of K^F
    are returned reversed and padded to the restriction's sizes 0..|F|-1.
    """
    # F - N = F ^ N for N inside F, so descending N lists the faces of K^F
    # ascending by value.
    dual = _ranks_of([fmask - nf for nf in reversed(set_bits(inner))], counts)
    return (0,) * (fmask.bit_count() - len(dual)) + dual[::-1]


def hochster_betti(ideal: MonomialIdeal, stats: HomologyStats | None = None) -> BettiTable:
    """Full Betti table of the quotient by a squarefree ideal.

    The rank in homological index i and squarefree degree F is the reduced
    homology rank of the restriction Delta_F to F in degree |F| - i - 1.  Only
    subsets F that are unions of minimal nonfaces (generator supports) can
    carry a nonzero rank, so only those are visited, ascending by (popcount,
    value) so the table is deterministic.  Each takes the first of four
    routes that applies:

    - join: when the minimal nonfaces inside F split into vertex-disjoint
      groups, Delta_F is the join of the restrictions to the groups' unions,
      smaller lattice elements already visited, and ``_join_ranks`` combines
      them;
    - collapse: when a vertex v of F is dominated (``_dominated``), deleting
      it is a strong collapse of Delta_F onto Delta_(F - v), which keeps the
      homotopy type (Barmak-Minian, Discrete Comput. Geom. 47, 2012), so F
      copies the ranks of F - v: a smaller lattice element, or else a cone,
      whose ranks are all zero;
    - dual: when Delta_F has more faces than nonfaces, the upper Koszul
      complex K^F = {F - N : N a nonface inside F}, its Alexander dual inside
      F, is ranked instead: beta_(i,F) = dim H~_(i-2)(K^F);
    - otherwise Delta_F itself, on its faces, the submasks of F outside the
      nonfaces.

    F = {} is ranked on its one face.  Every ranked complex is built afresh
    and goes through ``_ranks_of`` and all its checks.  A ``stats`` record,
    when given, gets this call's counts added.
    """
    n = ideal.ambient
    nonfaces = sr_complex(ideal).nonface_masks
    # Betti numbers live on the lcm lattice: if some vertex v of F lies in no
    # nonface inside F, v is a cone apex of the restriction to F, whose
    # reduced homology is then zero in every degree, -1 included (F is not
    # empty).  The empty set is its own union of nonfaces and is computed.
    lattice = {0}
    for nf in nonfaces:
        lattice |= {f | nf for f in lattice}
    lattice = sorted(lattice, key=lambda m: (m.bit_count(), m))
    # Bit m of ``upset`` is set when the mask m is a nonface.
    upset = box_upset(sum(1 << nf for nf in set(nonfaces)), (1,) * n)
    ranks_at: dict[int, tuple[int, ...]] = {}
    entries: dict[tuple[int, tuple[int, ...]], int] = {}
    counts = HomologyStats(subsets=1 << n, lcm_skips=(1 << n) - len(lattice))
    for fmask in lattice:
        size = fmask.bit_count()
        inside = [nf for nf in nonfaces if nf | fmask == fmask]
        # The unions of the nonfaces inside F that share vertices, transitively.
        groups: list[int] = []
        for nf in inside:
            merged, apart = nf, []
            for group in groups:
                if group & merged:
                    merged |= group
                else:
                    apart.append(group)
            apart.append(merged)
            groups = apart
        if len(groups) > 1:
            ranks = ranks_at[groups[0]]
            for group in groups[1:]:
                ranks = _join_ranks(ranks, ranks_at[group])
            counts.joins += 1
        elif not fmask:
            ranks = _ranks_of([0], counts)
        elif vbit := _dominated(fmask, inside, upset):
            ranks = ranks_at.get(fmask ^ vbit, ())
            counts.collapses += 1
        else:
            below = submasks(fmask)
            inner = upset & below
            if (1 << size) > 2 * inner.bit_count():
                ranks = _dual_ranks(fmask, inner, counts)
                counts.duals += 1
            else:
                ranks = _ranks_of(set_bits(below & ~upset), counts)
        ranks_at[fmask] = ranks
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
        for field, count in zip(counts._fields, counts._values()):
            setattr(stats, field, getattr(stats, field) + count)
    return BettiTable(n, entries)


def depth_squarefree(ideal: MonomialIdeal) -> int:
    """Depth of the quotient ring by a squarefree ideal: ambient minus pd."""
    return hochster_betti(ideal).depth()
