import pytest

from helpers import proof_tower, relabel, run_optimized, v_ideal
from sdepthlab import (
    InputError,
    add_generators,
    colon,
    cycle_depth_formula,
    depth_squarefree,
    cycle_path_ideal,
    formula_table,
    is_equality_case,
    line_depth_formula,
    line_path_ideal,
    minimalize,
    monomial,
    quotient_module_bound,
    ring_quotient,
    sdepth_of_pair,
    variable,
)


def mono(n, *factors):
    return monomial(n, factors)


class TestConstructors:
    def test_line_four_two(self):
        ideal = line_path_ideal(4, 2)
        assert ideal.gens == (mono(4, 1, 2), mono(4, 2, 3), mono(4, 3, 4))

    def test_line_full_window_is_principal(self):
        for n in range(1, 8):
            assert len(line_path_ideal(n, n).gens) == 1

    def test_line_m_one_is_maximal(self):
        ideal = line_path_ideal(5, 1)
        assert len(ideal.gens) == 5
        assert all(g.degree() == 1 for g in ideal.gens)

    def test_line_generator_count(self):
        for n in range(2, 10):
            for m in range(1, n + 1):
                ideal = line_path_ideal(n, m)
                assert len(ideal.gens) == n - m + 1
                assert all(g.is_squarefree() and g.degree() == m for g in ideal.gens)

    def test_cycle_five_two(self):
        ideal = cycle_path_ideal(5, 2)
        assert len(ideal.gens) == 5
        assert mono(5, 5, 1) in ideal.gens

    def test_cycle_full_window_is_principal(self):
        assert cycle_path_ideal(6, 6).gens == (mono(6, 1, 2, 3, 4, 5, 6),)

    def test_cycle_m_one_is_maximal(self):
        ideal = cycle_path_ideal(4, 1)
        assert len(ideal.gens) == 4

    def test_cycle_generator_count_and_degrees(self):
        for n in range(3, 12):
            for m in range(2, n):
                ideal = cycle_path_ideal(n, m)
                assert len(ideal.gens) == n
                assert all(g.is_squarefree() and g.degree() == m for g in ideal.gens)

    def test_cycle_rotation_invariance(self):
        for n, m in [(5, 2), (6, 3), (7, 4)]:
            ideal = cycle_path_ideal(n, m)
            rotation = {j: j % n + 1 for j in range(1, n + 1)}
            assert relabel(ideal, rotation, n) == ideal

    def test_bounds(self):
        with pytest.raises(InputError):
            line_path_ideal(3, 4)
        with pytest.raises(InputError):
            cycle_path_ideal(3, 0)


class TestFormulas:
    def test_six_two(self):
        rec = formula_table(6, 2)
        assert (rec.phi, rec.psi, rec.pd_cycle, rec.depth_cycle) == (2, 2, 4, 2)

    def test_nine_three(self):
        rec = formula_table(9, 3)
        assert (rec.phi, rec.psi, rec.pd_cycle) == (5, 4, 5)
        assert (rec.p, rec.d) == (2, 1)

    def test_full_window_case(self):
        for n in range(2, 12):
            assert formula_table(n, n).phi == n - 1

    def test_psi_is_shifted_phi(self):
        for n in range(1, 21):
            for m in range(1, n + 1):
                assert cycle_depth_formula(n, m) == line_depth_formula(n - 1, m)

    def test_line_pd_formula_matches_phi(self):
        for n in range(1, 21):
            for m in range(1, n + 1):
                rec = formula_table(n, m)
                assert rec.depth_line == rec.phi
                assert rec.depth_cycle == rec.psi

    def test_quotient_module_bound_is_psi_plus_one(self):
        for n in range(3, 21):
            for m in range(2, n):
                assert quotient_module_bound(n, m) == cycle_depth_formula(n, m) + 1

    def test_cross_check_raises_under_optimize(self):
        # A phi off by one no longer matches n - pd_line.
        out = run_optimized("\n".join([
            "import sdepthlab.families as families",
            "line = families.line_depth_formula",
            "families.line_depth_formula = lambda n, m: line(n, m) + 1",
            "try:",
            "    families.formula_table(7, 3)",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ]))
        assert out == "raised: n - pd disagrees with phi/psi at (n, m) = (7, 3)\n", out

    def test_equality_case_characterization(self):
        for n in range(2, 21):
            for m in range(1, n):
                assert is_equality_case(n, m) == (
                    line_depth_formula(n, m) == cycle_depth_formula(n, m)
                )


class TestTower:
    def test_levels_seven_three(self):
        tower = proof_tower(7, 3)
        assert len(tower) == 3
        l0, u0 = tower[0]
        assert l0 == cycle_path_ideal(7, 3)
        assert u0 == minimalize(
            [mono(7, 7), mono(7, 1, 2, 3), mono(7, 2, 3, 4), mono(7, 3, 4, 5), mono(7, 4, 5, 6)],
            7,
        )
        l1 = tower[1][0]
        assert l1 == minimalize(
            [mono(7, 1, 2), mono(7, 2, 3, 4), mono(7, 3, 4, 5), mono(7, 5, 6), mono(7, 6, 1)], 7
        )
        l2 = tower[2][0]
        assert l2 == minimalize([mono(7, 1), mono(7, 2, 3, 4), mono(7, 5)], 7)

    def test_tower_recurrence(self):
        for n, m in [(6, 2), (7, 3), (9, 4)]:
            tower = proof_tower(n, m)
            level = cycle_path_ideal(n, m)
            for k, (lk, uk) in enumerate(tower):
                x = variable(n, n - k)
                assert lk == level
                assert uk == add_generators(level, [x])
                level = colon(level, x)

    def test_extension_structure(self):
        # U_k is generated by x_{n-k} plus the L_k generators it does not divide.
        for n, m in [(7, 3), (8, 3), (9, 4)]:
            for k, (lk, uk) in enumerate(proof_tower(n, m)):
                x = variable(n, n - k)
                expected = {x} | {g for g in lk.gens if not x.divides(g)}
                assert set(uk.gens) == expected

    def test_exact_sequence_inequalities(self):
        # Each triple (L_(k+1), L_k, U_k) is 0 -> S/(L_k : x) -> S/L_k ->
        # S/(L_k, x) -> 0 with x = x_(n-k); the middle term's depth and sdepth
        # (Rauf, Comm. Algebra 38, 2010) are at least the smaller outer value.
        for n, m in [(6, 2), (7, 3), (8, 3)]:
            tower = proof_tower(n, m)
            sdepth = {}
            for lk, _ in tower:
                sdepth[lk] = sdepth_of_pair(ring_quotient(lk)).value
            for k in range(m - 1):
                sub, (mid, quot) = tower[k + 1][0], tower[k]
                assert depth_squarefree(mid) >= min(depth_squarefree(sub), depth_squarefree(quot))
                s_quot = sdepth_of_pair(ring_quotient(quot)).value
                assert sdepth[mid] >= min(sdepth[sub], s_quot), (n, m, k)
            assert sdepth[tower[m - 1][0]] >= sdepth[cycle_path_ideal(n, m)], (n, m)

    def test_colon_of_the_largest_window_is_the_smaller_cycle(self):
        # For n = m + 1 the tower has no room; one colon by x_n gives the
        # cycle of n - 1 variables with windows of size n - 2.
        for n in range(4, 7):
            colon_ideal = colon(cycle_path_ideal(n, n - 1), variable(n, n))
            identity = {j: j for j in range(1, n)}
            assert relabel(colon_ideal, identity, n - 1) == cycle_path_ideal(n - 1, n - 2)

    def test_tower_bounds(self):
        with pytest.raises(InputError):
            proof_tower(4, 3)  # n must exceed m + 1
        with pytest.raises(InputError):
            proof_tower(5, 1)


class TestVIdeal:
    def test_j_zero_is_line_family(self):
        for n, m in [(7, 3), (8, 3), (9, 4)]:
            for k in range(0, m - 1):
                if n - m - k < 2:
                    continue
                assert v_ideal(n, m, k, 0) == line_path_ideal(n - k - 1, m)

    def test_seven_three_one_one(self):
        ideal = v_ideal(7, 3, 1, 1)
        assert ideal.ambient == 5
        assert ideal == minimalize([mono(5, 1, 2), mono(5, 2, 3, 4), mono(5, 3, 4, 5)], 5)

    def test_bounds(self):
        with pytest.raises(InputError):
            v_ideal(7, 3, 2, 0)  # k must stay at most m - 2
        with pytest.raises(InputError):
            v_ideal(5, 3, 1, 1)  # n - m - k too small
