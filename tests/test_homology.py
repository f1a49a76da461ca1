import hashlib
import subprocess
import sys
from functools import reduce
from itertools import combinations
from operator import or_

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import fraction_rank, reference_betti, reference_faces, reference_ranks
from sdepthlab import (
    HomologyStats,
    InputError,
    SimplicialComplex,
    Monomial,
    cycle_depth_formula,
    cycle_path_ideal,
    depth_squarefree,
    format_ideal,
    hochster_betti,
    homology_ranks,
    line_depth_formula,
    line_path_ideal,
    minimalize,
    parse_ideal,
    sr_complex,
)
from sdepthlab import cli
from sdepthlab import homology
from sdepthlab.homology import _integer_rank
from sdepthlab.ideals import box_upset, set_bits, submasks

# A hollow triangle and an isolated vertex: F_2 homology in two neighbouring
# degrees, so the edge boundary takes the exact fallback, where the unsigned
# incidence matrix of the odd cycle would have the wrong rank.
CIRCLE_AND_POINT_TEXT = "n=4: x1*x2*x3, x1*x4, x2*x4, x3*x4"

# Reisner's six-vertex real projective plane: Cohen-Macaulay over Q but not
# over F_2, so its F_2 homology differs from its rational homology.  Every
# edge is a face, so its minimal nonfaces are the ten triples not listed.
RP2_FACETS = {frozenset(map(int, f)) for f in "123 134 145 156 126 235 346 245 356 246".split()}
RP2_TEXT = "n=6: " + ", ".join(
    "*".join(f"x{v}" for v in triple)
    for triple in combinations(range(1, 7), 3)
    if frozenset(triple) not in RP2_FACETS
)


def counting_integer_rank(monkeypatch):
    """Wrap the exact fallback so a test can count how often it runs."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return _integer_rank(rows)

    monkeypatch.setattr(homology, "_integer_rank", counted)
    return calls


def run_optimized(code: str) -> str:
    """Run ``code`` under python -O, which strips assert statements."""
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@st.composite
def squarefree_ideals(draw, max_n=7):
    n = draw(st.integers(min_value=1, max_value=max_n))
    masks = draw(st.lists(st.integers(min_value=1, max_value=(1 << n) - 1),
                          min_size=1, max_size=6))
    gens = [Monomial(tuple(mask >> j & 1 for j in range(n))) for mask in masks]
    return minimalize(gens, n)


class TestComplex:
    def test_line_three_two_faces(self):
        cx = sr_complex(line_path_ideal(3, 2))
        faces = {frozenset(j + 1 for j in range(3) if mask >> j & 1) for mask in cx.faces()}
        assert faces == {
            frozenset(),
            frozenset({1}),
            frozenset({2}),
            frozenset({3}),
            frozenset({1, 3}),
        }

    @settings(max_examples=150, deadline=None)
    @given(squarefree_ideals(max_n=10))
    def test_faces_match_brute_force(self, ideal):
        cx = sr_complex(ideal)
        assert cx.faces() == reference_faces(cx)

    def test_faces_at_the_ambient_cap(self):
        n = 14
        ideal = minimalize([*cycle_path_ideal(n, 3).gens, *line_path_ideal(n, 2).gens[::4]], n)
        cx = sr_complex(ideal)
        assert cx.faces() == reference_faces(cx)

    def test_faces_of_restrictions(self):
        cx = sr_complex(line_path_ideal(4, 2))
        assert cx.restrict(0b0101).faces() == [0, 1, 2, 3]
        assert cx.restrict(0).faces() == [0]

    def test_principal_three_gives_hollow_triangle(self):
        cx = sr_complex(parse_ideal("n=3: x1*x2*x3"))
        assert len(cx.faces()) == 7

    def test_guards(self):
        with pytest.raises(InputError):
            sr_complex(parse_ideal("n=2: x1^2"))
        with pytest.raises(InputError):
            sr_complex(parse_ideal("n=2: 0"))
        with pytest.raises(InputError):
            sr_complex(parse_ideal("n=2: 1"))

    def test_restrict_compresses_vertices(self):
        cx = sr_complex(line_path_ideal(4, 2))
        sub = cx.restrict(0b0101)  # vertices 1 and 3
        assert sub.n == 2
        assert sub.nonface_masks == ()


class TestHomologyRanks:
    def test_hollow_triangle_is_a_circle(self):
        cx = sr_complex(parse_ideal("n=3: x1*x2*x3"))
        assert homology_ranks(cx) == (0, 0, 1)

    def test_two_isolated_vertices(self):
        cx = sr_complex(parse_ideal("n=2: x1*x2"))
        assert homology_ranks(cx) == (0, 1)

    def test_full_simplex_is_contractible(self):
        cx = sr_complex(parse_ideal("n=3: x1*x2*x3")).restrict(0b011)
        assert homology_ranks(cx) == (0, 0, 0)

    def test_empty_face_only(self):
        cx = sr_complex(parse_ideal("n=1: x1"))
        assert homology_ranks(cx) == (1,)

    def test_two_disjoint_edges(self):
        cx = sr_complex(parse_ideal("n=4: x1*x3, x1*x4, x2*x3, x2*x4"))
        assert homology_ranks(cx) == (0, 1, 0)

    def test_circle_from_square(self):
        cx = sr_complex(cycle_path_ideal(4, 3))  # hollow square boundary-ish complex
        ranks = homology_ranks(cx)
        assert ranks[0] == 0
        assert ranks[1] == 0

    def test_euler_consistency_explicit(self):
        for ideal in [cycle_path_ideal(5, 2), line_path_ideal(6, 3), cycle_path_ideal(6, 4)]:
            cx = sr_complex(ideal)
            ranks = homology_ranks(cx)
            faces = cx.faces()
            euler_faces = sum((-1) ** (mask.bit_count() + 1) for mask in faces)
            euler_ranks = sum((-1) ** (s + 1) * r for s, r in enumerate(ranks))
            assert euler_faces == euler_ranks

    def test_wrong_rank_raises_under_optimize(self):
        # The rank checks must survive python -O, which strips asserts.  An
        # F_2 rank larger than the true one drives an F_2 homology rank negative.
        out = run_optimized("\n".join([
            "import sdepthlab.homology as homology",
            "from sdepthlab import parse_ideal, sr_complex",
            "homology._gf2_rank = lambda rows: len(rows) + 1",
            "try:",
            "    homology.homology_ranks(sr_complex(parse_ideal('n=3: x1*x2*x3')))",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ]))
        assert out.startswith("raised:"), out

    def test_exact_rank_below_gf2_rank_raises_under_optimize(self):
        # RP^2_6 needs the exact fallback on its top boundary; an exact rank
        # of 0 there passes the Euler and nonnegativity checks, so only the
        # check that the F_2 rank is at most the rational rank can catch it.
        out = run_optimized("\n".join([
            "import sdepthlab.homology as homology",
            "from sdepthlab import parse_ideal, sr_complex",
            "homology._integer_rank = lambda rows: 0",
            "try:",
            f"    homology.homology_ranks(sr_complex(parse_ideal({RP2_TEXT!r})))",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ]))
        assert out.startswith("raised: rank over F_2 exceeds rank over Q"), out

    def test_wrong_rank_raises_in_betti_table_under_optimize(self):
        # hochster_betti ranks through the same checks on both of its ranked
        # routes.  In each ideal only the whole vertex set F has a boundary
        # to rank, and it has no dominated vertex.  In the first, F ranks the
        # restriction (three points, tied with its upper Koszul complex); in
        # the second, cycle (5,4), F ranks its upper Koszul complex, five
        # points.
        routes = {
            "n=3: x1*x2, x1*x3, x2*x3": HomologyStats(
                subsets=8, lcm_skips=3, duals=3, faces=8, boundaries=1
            ),
            format_ideal(cycle_path_ideal(5, 4)): HomologyStats(
                subsets=32, lcm_skips=25, duals=6, faces=12, boundaries=1
            ),
        }
        for text, expected in routes.items():
            stats = HomologyStats()
            hochster_betti(parse_ideal(text), stats=stats)
            assert stats == expected
            out = run_optimized("\n".join([
                "import sdepthlab.homology as homology",
                "from sdepthlab import parse_ideal",
                "homology._gf2_rank = lambda rows: len(rows) + 1",
                "try:",
                f"    homology.hochster_betti(parse_ideal({text!r}))",
                "except AssertionError as exc:",
                "    print('raised:', exc)",
                "else:",
                "    print('returned')",
            ]))
            assert out.startswith("raised: negative F_2 homology rank"), (text, out)

    def test_exact_rank_below_gf2_rank_raises_in_betti_table_under_optimize(self):
        out = run_optimized("\n".join([
            "import sdepthlab.homology as homology",
            "from sdepthlab import parse_ideal",
            "homology._integer_rank = lambda rows: 0",
            "try:",
            f"    homology.hochster_betti(parse_ideal({RP2_TEXT!r}))",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ]))
        assert out.startswith("raised: rank over F_2 exceeds rank over Q"), out

    @pytest.mark.parametrize("call", [
        "homology.homology_ranks(sr_complex(ideal))",
        "homology.hochster_betti(ideal)",
    ], ids=["ranks", "betti-table"])
    def test_exact_rank_below_modp_rank_raises_under_optimize(self, call):
        # An exact fallback rank equal to the F_2 rank passes the F_2 check,
        # and on RP^2_6 it leaves every rational rank nonnegative; only the
        # check against the rank over F_p catches it.
        out = run_optimized("\n".join([
            "import sdepthlab.homology as homology",
            "from sdepthlab import parse_ideal, sr_complex",
            "homology._integer_rank = lambda rows: homology._gf2_rank(",
            "    [sum(1 << col for col in row) for row in rows])",
            f"ideal = parse_ideal({RP2_TEXT!r})",
            "try:",
            f"    {call}",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ]))
        assert out.startswith("raised: rank over F_p exceeds rank over Q"), out

    def test_rp2_needs_one_exact_fallback(self, monkeypatch):
        ideal = parse_ideal(RP2_TEXT)
        calls = counting_integer_rank(monkeypatch)
        assert homology_ranks(sr_complex(ideal)) == (0, 0, 0, 0)
        assert len(calls) == 1
        assert hochster_betti(ideal).entries == reference_betti(ideal)
        assert depth_squarefree(ideal) == 3

    def test_no_fallback_on_the_n10_families(self, monkeypatch):
        calls = counting_integer_rank(monkeypatch)
        for m in range(2, 10):
            hochster_betti(line_path_ideal(10, m))
            hochster_betti(cycle_path_ideal(10, m))
        assert calls == []


class TestFaceTable:
    def test_faces_listed_once_and_no_restriction_built(self, monkeypatch):
        calls = {"faces": 0, "restrict": 0}
        for name in calls:
            original = getattr(SimplicialComplex, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(SimplicialComplex, name, counted)
        hochster_betti(cycle_path_ideal(10, 3))
        assert calls == {"faces": 0, "restrict": 0}

    def test_rp2_betti_table_needs_one_exact_fallback(self, monkeypatch):
        # Only the whole RP^2 (F = all six vertices) has two nonzero F_2
        # groups next to one boundary; every proper restriction has none.
        ideal = parse_ideal(RP2_TEXT)
        calls = counting_integer_rank(monkeypatch)
        assert hochster_betti(ideal).entries == reference_betti(ideal)
        assert len(calls) == 1


class TestHomologyStats:
    def test_cycle_ten_three_counts(self, monkeypatch):
        gf2_rank, ranks_of = homology._gf2_rank, homology._ranks_of
        gf2_calls, faces_ranked = [], []

        def counted_gf2(rows):
            gf2_calls.append(len(rows))
            return gf2_rank(rows)

        def counted_ranks(faces, counts):
            faces_ranked.append(len(faces))
            return ranks_of(faces, counts)

        monkeypatch.setattr(homology, "_gf2_rank", counted_gf2)
        monkeypatch.setattr(homology, "_ranks_of", counted_ranks)
        stats = HomologyStats()
        hochster_betti(cycle_path_ideal(10, 3), stats=stats)
        assert stats == HomologyStats(
            subsets=1024, lcm_skips=902, joins=50, collapses=60, duals=10, faces=454,
            boundaries=6, fallbacks=0,
        )
        # F = {} and the one F that ranks its restriction, besides the duals.
        assert len(faces_ranked) == stats.duals + 2
        assert stats.faces == sum(faces_ranked)
        assert stats.boundaries == len(gf2_calls)

    def test_counts_add_up_over_calls(self):
        stats = HomologyStats()
        hochster_betti(parse_ideal("n=3: x1*x2*x3"), stats=stats)
        hochster_betti(parse_ideal("n=3: x1*x2*x3"), stats=stats)
        # F = {} ranks its one face; F = {1, 2, 3} ranks its upper Koszul
        # complex, the empty face alone.
        assert stats == HomologyStats(
            subsets=16, lcm_skips=12, joins=0, collapses=0, duals=2, faces=4, boundaries=0,
            fallbacks=0,
        )

    def test_a_call_that_raises_adds_nothing(self, monkeypatch):
        # Cycle (10,3) ranks six boundaries; the third rank fails.
        gf2_rank, calls = homology._gf2_rank, []

        def failing_gf2(rows):
            calls.append(rows)
            if len(calls) == 3:
                raise AssertionError("planted rank failure")
            return gf2_rank(rows)

        monkeypatch.setattr(homology, "_gf2_rank", failing_gf2)
        stats = HomologyStats(faces=7)
        with pytest.raises(AssertionError, match="planted"):
            hochster_betti(cycle_path_ideal(10, 3), stats=stats)
        assert stats == HomologyStats(faces=7)

    def test_rp2_reports_one_fallback(self, tmp_path, capsys):
        ideal_file = tmp_path / "rp2.txt"
        ideal_file.write_text(RP2_TEXT)
        assert cli.main(["depth", "--ideal-file", str(ideal_file), "--stats"]) == 0
        captured = capsys.readouterr()
        assert captured.out == "depth = 3\npd = 3\n"
        assert captured.err == (
            "homology: subsets=64 lcm_skips=31 joins=0 collapses=15 duals=16 faces=109"
            " boundaries=15 fallbacks=1\n"
        )


@st.composite
def small_matrices(draw):
    values = draw(st.sampled_from([range(-3, 4), (-3, -2, 0, 2, 3)]))
    ncols = draw(st.integers(min_value=1, max_value=6))
    row = st.lists(st.sampled_from(values), min_size=ncols, max_size=ncols)
    return draw(st.lists(row, max_size=7))


class TestIntegerRank:
    @settings(max_examples=300)
    @given(small_matrices())
    @example([[0, 0, 0], [2, -2, 0], [0, 0, 0], [3, 3, -2]])
    @example([[2, 3], [3, 2], [-2, 3], [0, 0]])
    def test_matches_fraction_elimination(self, matrix):
        sparse = [{col: v for col, v in enumerate(row) if v} for row in matrix]
        assert _integer_rank(sparse) == fraction_rank(matrix)

    @settings(max_examples=300)
    @given(small_matrices())
    @example([[2, 0], [0, 3], [-2, 3]])
    def test_modp_rank_matches_fraction_elimination(self, matrix):
        # Every minor of these matrices is far below the prime, so the rank
        # over F_p is the rank over Q.
        sparse = [{col: v for col, v in enumerate(row) if v} for row in matrix]
        assert homology._modp_rank(sparse) == fraction_rank(matrix)


class TestAgainstReferenceRanks:
    @settings(max_examples=100, deadline=None)
    @given(squarefree_ideals())
    @example(parse_ideal(RP2_TEXT))
    @example(parse_ideal(CIRCLE_AND_POINT_TEXT))
    def test_matches_dense_fraction_ranks(self, ideal):
        cx = sr_complex(ideal)
        assert homology_ranks(cx) == reference_ranks(cx)


class TestBettiTable:
    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals())
    @example(parse_ideal(CIRCLE_AND_POINT_TEXT))
    def test_matches_every_restriction(self, ideal):
        assert hochster_betti(ideal).entries == reference_betti(ideal)

    def test_principal_three(self):
        table = hochster_betti(parse_ideal("n=3: x1*x2*x3"))
        assert table.projective_dimension() == 1
        assert table.entries == {(0, ()): 1, (1, (1, 2, 3)): 1}

    def test_index_one_rows_are_generator_supports(self):
        for ideal in [line_path_ideal(5, 2), cycle_path_ideal(6, 3)]:
            table = hochster_betti(ideal)
            supports = {g.support() for g in ideal.gens}
            assert {f for i, f in table.entries if i == 1} == supports
            assert all(table.entries[(1, f)] == 1 for f in supports)

    def test_line_four_two(self):
        assert hochster_betti(line_path_ideal(4, 2)).projective_dimension() == 2

    def test_cycle_six_two(self):
        assert hochster_betti(cycle_path_ideal(6, 2)).projective_dimension() == 4

    def test_taylor_bound(self):
        for n in range(3, 8):
            for m in range(2, n):
                for ideal in (line_path_ideal(n, m), cycle_path_ideal(n, m)):
                    table = hochster_betti(ideal)
                    assert table.projective_dimension() <= len(ideal.gens)

    def test_rotation_equivariance(self):
        for n, m in [(5, 2), (6, 3), (7, 4)]:
            table = hochster_betti(cycle_path_ideal(n, m))
            rotated = {
                (i, tuple(sorted(j % n + 1 for j in fvars))): rank
                for (i, fvars), rank in table.entries.items()
            }
            assert rotated == table.entries

    def test_ambient_cap(self):
        # The Betti table runs up to the package's ambient cap, n = 20.
        assert depth_squarefree(line_path_ideal(20, 4)) == line_depth_formula(20, 4)
        assert depth_squarefree(cycle_path_ideal(20, 9)) == cycle_depth_formula(20, 9)

    @pytest.mark.parametrize("n", range(3, 18))
    def test_full_cycle_matches_kozlov(self, n):
        # The restriction of cycle (n, 2) to all n vertices is the independence
        # complex of the n-cycle, never collapsed (no vertex is dominated).
        # Kozlov (J. Combin. Theory Ser. A 88, 1999): it is a wedge of two
        # (k-1)-spheres for n = 3k, a (k-1)-sphere for n = 3k+1 and a
        # k-sphere for n = 3k+2; beta_(i,[n]) = dim H~_(n-i-1).
        k, r = divmod(n, 3)
        degree, rank = (k - 1, 2) if r == 0 else (k - 1, 1) if r == 1 else (k, 1)
        entries = hochster_betti(cycle_path_ideal(n, 2)).entries
        full = tuple(range(1, n + 1))
        assert {i: b for (i, f), b in entries.items() if f == full} == {n - degree - 1: rank}


class TestPinnedTables:
    # sha256 of the `sdepthlab depth --betti` text: the first three recorded
    # before the lcm-lattice skip and the shortest-row pivot rule, the n > 10
    # ones before the once-per-ideal face list.
    @pytest.mark.parametrize("ideal, digest", [
        (line_path_ideal(10, 5),
         "ff871ea320c1cc656bf7536a0e29971d2c8b2dc8ed1f7a1850a653b2932aecad"),
        (cycle_path_ideal(10, 3),
         "4807aa6adfc53576b6a907ec226dec2bc122d9a8d98db53ef4af4cc2ec179fc9"),
        (cycle_path_ideal(9, 4),
         "98093bb84e3ab71913867ebae25c476e88ac224b9f21de1773af08515a2c578c"),
        (cycle_path_ideal(12, 3),
         "3f66c9e85383ffbde4d3cd6e0a3c097019f9e5fa4b65dd3f8c8cc25fc9c6658d"),
        (line_path_ideal(13, 2),
         "f8428fed82c1b1933c242b241503a4cb3047243e66b48530a0ee90064ce27554"),
    ], ids=["line-10-5", "cycle-10-3", "cycle-9-4", "cycle-12-3", "line-13-2"])
    def test_depth_betti_text(self, ideal, digest, tmp_path, capsys):
        ideal_file = tmp_path / "ideal.txt"
        ideal_file.write_text(format_ideal(ideal))
        args = ["depth", "--ideal-file", str(ideal_file), "--betti"]
        assert cli.main(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest
        # --stats writes only to stderr.
        assert cli.main([*args, "--stats"]) == 0
        captured = capsys.readouterr()
        assert hashlib.sha256(captured.out.encode()).hexdigest() == digest
        assert captured.err.startswith("homology: subsets=")


# sha256 of the `sdepthlab depth --betti` text of every line and cycle ideal
# with n = 11, recorded before the Betti table visited only the lcm lattice.
N11_DIGESTS = [
    ("line", 2, "a9076f48f3b2f3081eb82ac6fe97a936c6f291e3cba380905d284d1f29188913"),
    ("line", 3, "b94da2a085f15aa1ddca381bbfdeef1aa65601b4039b06482852cf90af0f67c1"),
    ("line", 4, "48a701121d2d2461cb5155ef2a06254a4e9354c9c0224b462be0fd71959441d8"),
    ("line", 5, "1e3d9de3ff9679e8f8301cbdbd7d611408577f47e6bbb4895dcd0b0f20d09310"),
    ("line", 6, "48a4d86edaf1778cf244f6e53f6060e220ae07bdb54bae3f328bf2fbf8600d95"),
    ("line", 7, "458c65f3d26961bcfb6cffa0b80cd1374a32865f09a1271eb1cb19a1bafa26d8"),
    ("line", 8, "53d14f4a2a5e81b7ebf25f913874cb786bf07ace9787e1f2107a4cc5f2765a29"),
    ("line", 9, "44379af041274581c0da97955a5eb281c8619c0808b04d8473e5764d951096a9"),
    ("line", 10, "0330221955947dde3c3d0080df73d8ea1d8e892405987b7994ecf2938279a8c0"),
    ("line", 11, "f17b12d98c91430a0ca59b163f859d9305ee494e2f4517e22eebe839b3bc49c0"),
    ("cycle", 2, "d8c79845ef6d71cd5027ec197693f7fb4ad0e3a98eb471743426cc29931f52a4"),
    ("cycle", 3, "9179e44470a99e5d49aa07edc79538fc6f95981d2d8b8862a80162f463f6a1ba"),
    ("cycle", 4, "8349415be14825c0fe603e6cb547d63360b365d930cc5dd35d50092365f09f69"),
    ("cycle", 5, "0b756a33316efa340f15def10617ee540231347ad0a7140c31cb8b1f3c02b8bd"),
    ("cycle", 6, "427da051591f00db9cdc8b065b3ba237a30eaeb71d57af748178df294ac70687"),
    ("cycle", 7, "34c2e75a1edf7dd7adc96a05f7f1761cf2f1d69d9879bdb02fe04f525371b9e1"),
    ("cycle", 8, "6d91977483237c44a73f45e7b2ca131450a4269bbf625aa47e1ad78c224199c8"),
    ("cycle", 9, "b895619b8d65115a0edff35985e643bdabda940e0a98442d3a59406fb42bd7af"),
    ("cycle", 10, "f40b0a345b3c642b6521f0fe356e4e91c8f297ffa2788723413da39a58cfa13f"),
]


class TestPinnedElevenTables:
    @pytest.mark.parametrize(
        "kind, m, digest", N11_DIGESTS, ids=[f"{k}-11-{m}" for k, m, _ in N11_DIGESTS]
    )
    def test_depth_betti_text(self, kind, m, digest, tmp_path, capsys):
        family = line_path_ideal if kind == "line" else cycle_path_ideal
        ideal_file = tmp_path / "ideal.txt"
        ideal_file.write_text(format_ideal(family(11, m)))
        assert cli.main(["depth", "--ideal-file", str(ideal_file), "--betti"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of the `sdepthlab depth --betti` text of every line and cycle ideal
# with n = 12-14, recorded before the Betti table collapsed dominated vertices.
N12_14_DIGESTS = [
    ("line", 12, 2, "9cad4db94638c39d811dce3151d2248302eced878e9e3d49cda1cca2b1199df9"),
    ("line", 12, 3, "638266561f005b565548c68ad42ce91fc8c3da7f7b2ba241c5166a0d7c29d7a6"),
    ("line", 12, 4, "3de8f14f2095d7439604562a8c06763754ab29954e1365191481e4e710cec9cf"),
    ("line", 12, 5, "6db3f4ce3f7c110510b8a5a20d3696d270d12d3091d8a5b2a4ef485aaa25664c"),
    ("line", 12, 6, "2e2f15610afedde7dc95d027a01b820a85695caebed33cd56540c1e22f645644"),
    ("line", 12, 7, "d39a05a6906c9200c42ab0d7495d4389976a28ffb0d43ab7f35627f2439a463f"),
    ("line", 12, 8, "458a31bb1fa55e65b3b4a96ecf862eecd8b4f81928b6f9fda941cacb291d46a1"),
    ("line", 12, 9, "6c9498349ba397edbb9673e8f7bf59958819d76c22d57d4f5591a668a55d27dc"),
    ("line", 12, 10, "bbbe936fca5c672be56f6afdf7f46645da1cfd7e46dcca4df7d8696507d3e8d3"),
    ("line", 12, 11, "30f6ed5724e8c6ef2db1c25a28ab2fdcb7cc9ae5f54f9382cb91564837eb1180"),
    ("line", 12, 12, "30819d9e19745908bc75a97dd858ebe46a6cb0dfcea3d76380f27e4a40855bbf"),
    ("cycle", 12, 2, "b55053a500f028521bb3a63f24da7d22086389abf503c2e22d483b0f1be3873e"),
    ("cycle", 12, 3, "3f66c9e85383ffbde4d3cd6e0a3c097019f9e5fa4b65dd3f8c8cc25fc9c6658d"),
    ("cycle", 12, 4, "8dd85246935ebeb3ccc6618066058873484b8380f176c303ebfc2f27ae136819"),
    ("cycle", 12, 5, "b85a4787973d67917db1cc1653463fd72a60b9ef6f838f3009d0e1cfcfd90dca"),
    ("cycle", 12, 6, "22ee508a0459f4bb381e70dd619422877bd767ddaba65153d1f749a120ce3233"),
    ("cycle", 12, 7, "8c46ec2f13e6b33fb171ce0759dbaf80f6bb1c851bf211f1c675f0804b6d4185"),
    ("cycle", 12, 8, "d690ca8a42cd93a22a66a8d73ace13e5fe36b018aa119606326b98c3f340d073"),
    ("cycle", 12, 9, "7ea0be94e86b6875ec2fd9a8e6c432c854eb10c4f324e8cf545016426753bea0"),
    ("cycle", 12, 10, "7be6e552ed16f8dd397b455457ff18e40ca6362e26ed99e3413d3cb5a4e5a9ab"),
    ("cycle", 12, 11, "7513d573c67e297c9b148a7afd1aaed1eb9b9d26f13ed761ddb13a121217573e"),
    ("line", 13, 2, "f8428fed82c1b1933c242b241503a4cb3047243e66b48530a0ee90064ce27554"),
    ("line", 13, 3, "a7c7bd14cb49b59c5b96a56dc1fce1ce16911fb33515778823df4c2fca8ea500"),
    ("line", 13, 4, "0fb59ffb8018d688d7518b7d145aa06025c9b6e823eebabf78a58200c7bac01e"),
    ("line", 13, 5, "56ff8a8e0e91e75d68aa2329e4be71f310ee417d6d0f44ee1278945588d2c750"),
    ("line", 13, 6, "20867ca05d33253d8b572de1e5d781b604ece587447179bfd26cf7ddb762409e"),
    ("line", 13, 7, "613579c9e875272318c95e88ddcb4018850ebd4d6611bd49813eff0822277923"),
    ("line", 13, 8, "dddbf27c67ccb8f374da0b2e65cdb5c0db0b627a2b8dad95fed00f74095f5751"),
    ("line", 13, 9, "508ad316c2ad9435557809d3d2d3eeac210c26892b65698196ec26e970453e19"),
    ("line", 13, 10, "795ee5aa0d447b6f2384f8e3d116cb6e1387e8b877a9826c21a15813981740e6"),
    ("line", 13, 11, "e6bff1c00e724005f9830a7b6848a46055b48630abe74357c6954d79976af798"),
    ("line", 13, 12, "c42b09c12521a7d6d44d9ef98f5fbee711383bf741efad3fad35ba17052bce76"),
    ("line", 13, 13, "f881a5da58a29d4d6ced5deb07084bcba2396ee0f00fc88bda4b790952eeeb5b"),
    ("cycle", 13, 2, "f4c9b30be19674d3ce60533d3858810282c9704a2ed88858048006326c996224"),
    ("cycle", 13, 3, "1da0d6ed22f8e81073ddb3de8cb60148bba527d1142031de9aa25c0831e778c5"),
    ("cycle", 13, 4, "e06b39dd0382733120a82d7a629e4e3cb693c552c5afe096561c420207183a2f"),
    ("cycle", 13, 5, "1da16ad0dedcee90ccedae53b06beaacef82d4ff1af28599ae759d53b8e068a6"),
    ("cycle", 13, 6, "43b40182c7752d664caad8ce733f7edc966c693fd5bd17ef04418de258ab330f"),
    ("cycle", 13, 7, "4b6f79d227e90d4c3956248a2139675e36a865a653f88529916ba531df78f66d"),
    ("cycle", 13, 8, "b49e513e598bf47e94deef7affd2432a33a6287ca02c577e9d6f1e923e9bee00"),
    ("cycle", 13, 9, "649a63336c209dca368020358d61e3df771393127a49edc8c9d0111e1812f44d"),
    ("cycle", 13, 10, "49008132f64d2c5227944812ea74072d33cea97e333df459ee327cd9326f0144"),
    ("cycle", 13, 11, "d0e543d74b1b76fb39a7779ee0e2331256673b5be024ee30ccae56ed98d8e9af"),
    ("cycle", 13, 12, "dc7ca3eda3e220843d03b2bae0dc8028236e4add3013706dcf3a0301c34e829f"),
    ("line", 14, 2, "7d93c87b1e3fa67633ee99e2841712d10114e8ccd84e6125160df1f6461110a8"),
    ("line", 14, 3, "fe62b2d90d2bd1a4a75274d7ecf52dd07afce11de73a73cb6239d6b10e9b8d5d"),
    ("line", 14, 4, "820c7cf6d9241b51cb6748b2c0bd9e0dc9fee42530c7cc1a137b095c1903bc0d"),
    ("line", 14, 5, "be683ef12a598388c4c3d0e52e2624d61c2a5d7b21dc351c6e5cac050b790c1e"),
    ("line", 14, 6, "4cf80335774a2e530870ef6f94d5abd7a397271420057e7d64865cb29a8cd1a8"),
    ("line", 14, 7, "cac8246cf3c54860af6ea3d3a3a59e0faa7dbe30a6533162ce6c03cecf85f2c3"),
    ("line", 14, 8, "7b30a1a596658ae51cd916102b6ad3b20bb8f346952d67c4f907519946c7042e"),
    ("line", 14, 9, "22bed09563045995704bd230bd658ad4dbe661e9c0f5f2c58d332d0d66ad5433"),
    ("line", 14, 10, "355a032dc53559b03592f4c4011a7fa6484b6028ffd7868f3582793e85613284"),
    ("line", 14, 11, "a4fc67e7f8c4a684e8a2299a593a9014b0146b7095d7cf7e63cb99b3a17036e9"),
    ("line", 14, 12, "0e072592a5a955d72198cfacd1ad3697289cf417df707fdf79025a7bd1e6f332"),
    ("line", 14, 13, "e57d93504382ba5584742064db03d86158d0123f6dd7c4b4d6b98346c1cc0f91"),
    ("line", 14, 14, "f941e60963ff14ebf30b1a612348a4210436afa3602430a996cbbbd047a236f9"),
    ("cycle", 14, 2, "8681fac8fb4c92698b0781ec2c24ace4f5d508a906d86adb1629bc2b15669e56"),
    ("cycle", 14, 3, "5ec63139c13dbcaa5a70c168fb72b7b37d0739948ca8ab2eab92d84f8ec90c8f"),
    ("cycle", 14, 4, "db37b325c70e9363ccacc28f39e275fb244126960b9f3f1d7fd2a818897d6063"),
    ("cycle", 14, 5, "8d22f8aff74d36315c964fca3b3a138f40b717167361d406ceeffffb00318cbb"),
    ("cycle", 14, 6, "e1fd1e1e6f90eca316ae5c0cd780e1ca02b3a5431eb57a8ead3b1b5256056a79"),
    ("cycle", 14, 7, "90ecfa444ed090f8450ad3d8b8b55352600c7762b8b9e3684c36e4ad0b77d100"),
    ("cycle", 14, 8, "b1ab516907f188128c4c193a08ea98a27aee783bb87d447676a34f42ecec926c"),
    ("cycle", 14, 9, "6a74b488670d77b58da7147b547316c07e3c2caab4342131598ee25b6c7b1d90"),
    ("cycle", 14, 10, "f593e7fa3294f9bface66b250f8938277139ea074825a8798993dee0d674bdf4"),
    ("cycle", 14, 11, "e23f0210947c5414388f1ed39e4c032f64580332d27d4be14bb29565836b3db5"),
    ("cycle", 14, 12, "d304a2621ace28f1745b5a614c073e13d44207698d63e56909c3bc49dffb5cef"),
    ("cycle", 14, 13, "646841363e2a1c50c1af4fd085248cd43365c4639ee3efdcf4df9c23edd3a079"),
]


class TestPinnedTwelveToFourteenTables:
    @pytest.mark.parametrize(
        "kind, n, m, digest", N12_14_DIGESTS, ids=[f"{k}-{n}-{m}" for k, n, m, _ in N12_14_DIGESTS]
    )
    def test_depth_betti_text(self, kind, n, m, digest, tmp_path, capsys):
        family = line_path_ideal if kind == "line" else cycle_path_ideal
        ideal_file = tmp_path / "ideal.txt"
        ideal_file.write_text(format_ideal(family(n, m)))
        assert cli.main(["depth", "--ideal-file", str(ideal_file), "--betti"]) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def shifted(ideal, before: int, after: int) -> list[Monomial]:
    """The generators of ``ideal`` with ``before`` unused variables in front
    and ``after`` behind."""
    return [Monomial((0,) * before + g.exponents + (0,) * after) for g in ideal.gens]


def nonzero(ranks) -> dict[int, int]:
    return {s: r for s, r in enumerate(ranks) if r}


class TestLatticeRoutes:
    @settings(max_examples=40, deadline=None)
    @given(squarefree_ideals(max_n=4), squarefree_ideals(max_n=4))
    @example(parse_ideal("n=2: x1*x2"), parse_ideal("n=3: x1*x2*x3"))
    # Homology in two degrees on each side, so two products meet in one degree.
    @example(parse_ideal(CIRCLE_AND_POINT_TEXT), parse_ideal(CIRCLE_AND_POINT_TEXT))
    def test_disjoint_variables_give_the_kunneth_product(self, first, second):
        # Every F that meets both variable sets in a lattice element is a
        # join, read off the two factors' restrictions.
        n1, n2 = first.ambient, second.ambient
        ideal = minimalize(shifted(first, 0, n2) + shifted(second, n1, 0), n1 + n2)
        product: dict[tuple[int, tuple[int, ...]], int] = {}
        for (i1, f1), b1 in hochster_betti(first).entries.items():
            for (i2, f2), b2 in hochster_betti(second).entries.items():
                key = (i1 + i2, f1 + tuple(v + n1 for v in f2))
                product[key] = product.get(key, 0) + b1 * b2
        entries = hochster_betti(ideal).entries
        assert entries == product
        assert entries == reference_betti(ideal)

    @settings(max_examples=80, deadline=None)
    @given(squarefree_ideals())
    @example(parse_ideal(RP2_TEXT))
    @example(parse_ideal(CIRCLE_AND_POINT_TEXT))
    def test_restriction_and_upper_koszul_complex_agree(self, ideal):
        # For every nonempty lattice element F, both ranked routes of
        # hochster_betti give the reference ranks of the restriction to F:
        # the restriction on the faces it lists for F, and K^F.
        cx = sr_complex(ideal)
        upset = box_upset(sum(1 << nf for nf in cx.nonface_masks), (1,) * cx.n)
        for fmask in range(1, 1 << cx.n):
            inside = [nf for nf in cx.nonface_masks if nf & fmask == nf]
            if reduce(or_, inside, 0) != fmask:
                continue
            below = submasks(fmask)
            faces = set_bits(below & ~upset)
            assert faces == sorted(m for m in reference_faces(cx) if m & fmask == m)
            expected = nonzero(reference_ranks(cx.restrict(fmask)))
            counts = HomologyStats()
            assert nonzero(homology._ranks_of(faces, counts)) == expected
            assert nonzero(homology._dual_ranks(fmask, below & upset, counts)) == expected

    @settings(max_examples=150, deadline=None)
    @given(squarefree_ideals())
    @example(parse_ideal("n=3: x1*x2, x2*x3"))
    @example(parse_ideal("n=4: x1, x2*x3, x3*x4"))
    @example(parse_ideal(RP2_TEXT))
    def test_collapse_keeps_the_ranks(self, ideal):
        # Every lattice element F that has a dominated vertex v has the
        # reference ranks of the restriction to F - v, or zero ranks when
        # F - v is off the lattice.  A degree-1 generator is a singleton
        # nonface, which every other vertex dominates.
        cx = sr_complex(ideal)
        upset = box_upset(sum(1 << nf for nf in cx.nonface_masks), (1,) * cx.n)
        for fmask in range(1, 1 << cx.n):
            inside = [nf for nf in cx.nonface_masks if nf & fmask == nf]
            if reduce(or_, inside, 0) != fmask:
                continue
            vbit = homology._dominated(fmask, inside, upset)
            if not vbit:
                continue
            assert vbit & fmask == vbit and vbit.bit_count() == 1
            rest = fmask ^ vbit
            on_lattice = reduce(or_, (nf for nf in inside if nf & rest == nf), 0) == rest
            copied = nonzero(reference_ranks(cx.restrict(rest))) if on_lattice else {}
            assert copied == nonzero(reference_ranks(cx.restrict(fmask)))


class TestDepth:
    def test_examples(self):
        assert depth_squarefree(parse_ideal("n=3: x1*x2*x3")) == 2
        assert depth_squarefree(cycle_path_ideal(4, 2)) == 1
        assert depth_squarefree(line_path_ideal(6, 2)) == 2

    def test_against_formulas_small_grid(self):
        for n in range(2, 9):
            for m in range(2, n + 1):
                line = line_path_ideal(n, m)
                if line.is_proper():
                    assert depth_squarefree(line) == line_depth_formula(n, m), (n, m)
                if m < n:
                    assert depth_squarefree(cycle_path_ideal(n, m)) == cycle_depth_formula(
                        n, m
                    ), (n, m)
