import functools
import gc
import hashlib
import subprocess
import sys
import time
import tracemalloc
from math import comb, prod
from operator import eq, le

import pytest
from hypothesis import example, given, reject, settings, strategies as st

import sdepthlab.solver as solver
from helpers import (
    bisect_sdepth,
    brute_force_sdepth,
    codes,
    contains_exps,
    element_index,
    encode,
    enumerate_small_ideals,
    principal_decomposition,
    reference_candidate_tops,
    reference_first_partition,
    reference_maximal_rho,
    reference_order_bitsets,
    reference_poset,
    reference_up_down,
    reference_verification,
    relabel,
    rows,
)
from sdepthlab import (
    InputError,
    InvalidPresentationError,
    Monomial,
    QuotientPresentation,
    SearchStats,
    StanleyDecomposition,
    TimeLimitExceededError,
    build_poset,
    cycle_path_ideal,
    exists_partition,
    format_certificate,
    line_path_ideal,
    minimalize,
    monomial,
    parse_certificate,
    parse_ideal,
    parse_monomial,
    ring_quotient,
    sdepth_of_pair,
    sdepth_of_poset,
    unit_ideal,
    verify_decomposition,
    zero_ideal,
)
from sdepthlab.ideals import set_bits


def mono(n, *factors):
    return monomial(n, factors)


def cycle_quotient(n, m):
    return ring_quotient(cycle_path_ideal(n, m))


def principal_poset(text, n):
    return build_poset(ring_quotient(parse_ideal(f"n={n}: {text}")))


def interval_indices(poset, bottom, zvars):
    """(bottom, top) element indices of a certificate interval on ``poset``."""
    e = bottom.exponents
    t = tuple(gj if j in zvars else x for j, x, gj in zip(range(1, poset.n + 1), e, poset.g))
    index = element_index(poset)
    return index[encode(poset, e)], index[encode(poset, t)]


def square(ideal):
    return minimalize([a.times(b) for a in ideal.gens for b in ideal.gens], ideal.ambient)


@st.composite
def small_presentations(draw, squarefree_n_max=None):
    """S/I or J/I with J containing I, squarefree or with exponents up to 2.

    With ``squarefree_n_max``, squarefree only, in up to that many variables.
    """
    max_exp = 1 if squarefree_n_max else draw(st.sampled_from((1, 2)))
    n_max = squarefree_n_max or (5 if max_exp == 1 else 4)
    n = draw(st.integers(min_value=2, max_value=n_max))
    monomials = st.builds(
        lambda e: Monomial(tuple(e)),
        st.lists(st.integers(min_value=0, max_value=max_exp), min_size=n, max_size=n),
    )
    # Generators of degree 2 or more keep most posets above a handful of elements.
    relations = monomials.filter(lambda u: sum(u.exponents) >= 2)
    denominator = minimalize(draw(st.lists(relations, min_size=0, max_size=4)), n)
    extra = draw(st.lists(monomials, min_size=0, max_size=3))
    numerator = minimalize([*denominator.gens, *extra], n) if extra else unit_ideal(n)
    try:
        return build_poset(QuotientPresentation(numerator, denominator))
    except InvalidPresentationError:
        reject()


@st.composite
def box_presentations(draw):
    """(S/I or J/I, g_override or None) with exponents up to 3.

    Variables past ``used`` occur in no generator, so their bound is 0 unless
    the override raises it; the override adds 0 or 1 to each coordinate.
    """
    max_exp = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=1, max_value=(5, 4, 3)[max_exp - 1]))
    used = draw(st.integers(min_value=1, max_value=n))
    monomials = st.builds(
        lambda e: Monomial(tuple(e) + (0,) * (n - used)),
        st.lists(st.integers(min_value=0, max_value=max_exp), min_size=used, max_size=used),
    )
    relations = monomials.filter(lambda u: not u.is_constant())
    denominator = minimalize(draw(st.lists(relations, min_size=0, max_size=4)), n)
    extra = draw(st.lists(monomials, min_size=0, max_size=3))
    numerator = minimalize([*denominator.gens, *extra], n) if extra else unit_ideal(n)
    try:
        pair = QuotientPresentation(numerator, denominator)
    except InvalidPresentationError:
        reject()
    if not draw(st.booleans()):
        return pair, None
    g = reference_poset(pair)[0]
    steps = draw(st.lists(st.integers(min_value=0, max_value=1), min_size=n, max_size=n))
    return pair, tuple(gj + step for gj, step in zip(g, steps))


class TestBuildPoset:
    def test_override_past_the_exponent_cap_is_an_input_error(self):
        pair = ring_quotient(parse_ideal("n=2: x1^2*x2"))
        with pytest.raises(InputError, match="exceeds the cap 30"):
            build_poset(pair, g_override=(31, 1))
        poset = build_poset(pair, g_override=(30, 1))
        certificate = exists_partition(poset, 0)
        assert verify_decomposition(poset, certificate, 0).ok

    @settings(max_examples=200, deadline=None)
    @given(box_presentations())
    # One coordinate: one half of the box is empty.
    @example((ring_quotient(parse_ideal("n=1: x1^3")), None))
    # A coordinate at the exponent cap beside squarefree ones: unequal halves.
    @example((ring_quotient(parse_ideal("n=4: x1^30*x2, x2*x3*x4")), None))
    # A quotient module J/I.
    @example((QuotientPresentation(
        parse_ideal("n=3: x1, x3"), parse_ideal("n=3: x1^2*x2, x2*x3")
    ), None))
    # A raised bound, as in TestOrderBitsets.
    @example((ring_quotient(parse_ideal("n=3: x1^2*x2, x2*x3")), (3, 2, 2)))
    # One element, at the corner of a box at the exponent cap: the degree
    # pass runs through every degree of the box.
    @example((QuotientPresentation(
        parse_ideal("n=4: x1^30*x2^30*x3^30*x4^30"), zero_ideal(4)
    ), None))
    # x1 and x2^3 with no element of degree 2 between them.
    @example((QuotientPresentation(
        parse_ideal("n=2: x1, x2^3"), parse_ideal("n=2: x1^2, x1*x2")
    ), None))
    # Numerator generators of degrees 1, 2 and 4: the degree pass starts at
    # degree 1, and each later generator joins the cells of its own degree.
    @example((QuotientPresentation(
        parse_ideal("n=3: x1, x2^2, x3^4"),
        parse_ideal("n=3: x1^2, x1*x2, x1*x3, x2^3, x2^2*x3, x3^5"),
    ), None))
    def test_matches_box_enumeration(self, case):
        pair, g_override = case
        poset = build_poset(pair, g_override=g_override)
        expected = reference_poset(pair, g_override)
        found = (poset.g, codes(poset), rows(poset), tuple(poset.rho), element_index(poset))
        assert found == expected
        assert poset.cells == sum(1 << code for code in expected[1])
        # A maximal_rho too low would lower sdepth with every certificate valid.
        _, _, exps, rho, _ = expected
        assert poset.maximal_rho == reference_maximal_rho(exps, rho)

    def test_principal_two_vars(self):
        poset = build_poset(ring_quotient(parse_ideal("n=2: x1*x2")))
        assert len(poset) == 3
        assert set(rows(poset)) == {(0, 0), (1, 0), (0, 1)}
        assert poset.g == (1, 1)

    def test_cycle_five_two_counts_independent_sets(self):
        # The Lucas numbers L5 and L20; the n = 20 box has 2^20 cells.
        for n, count in [(5, 11), (20, 15_127)]:
            assert len(build_poset(cycle_quotient(n, 2))) == count

    def test_cycle_over_line_single_element(self):
        pair = QuotientPresentation(cycle_path_ideal(4, 2), line_path_ideal(4, 2))
        poset = build_poset(pair)
        assert rows(poset) == ((1, 0, 0, 1),)
        assert poset.rho == bytes([2])

    def test_linear_extension_order(self):
        poset = build_poset(cycle_quotient(4, 2))
        degrees = [sum(e) for e in rows(poset)]
        assert degrees == sorted(degrees)
        for a, b in zip(rows(poset), rows(poset)[1:]):
            assert (sum(a), encode(poset, a)) < (sum(b), encode(poset, b))

    def test_rho_counts_bound_coordinates(self):
        # x3 never occurs, so its bound is 0 and it counts toward every rho.
        poset = build_poset(ring_quotient(parse_ideal("n=3: x1*x2")))
        assert poset.g == (1, 1, 0)
        for e, r in zip(rows(poset), poset.rho):
            assert r == sum(1 for ej, gj in zip(e, poset.g) if ej == gj)
        assert poset.rho[0] == 1  # the constant monomial meets only the x3 bound

    def test_box_convexity(self):
        for pair in [cycle_quotient(5, 2), ring_quotient(parse_ideal("n=3: x1^2*x2, x2*x3"))]:
            poset = build_poset(pair)
            for a in rows(poset):
                for b in rows(poset):
                    if all(x <= y for x, y in zip(a, b)):
                        from itertools import product

                        for c in product(*(range(x, y + 1) for x, y in zip(a, b))):
                            assert contains_exps(poset, c)

    def test_convexity_sample_catches_a_hole(self):
        # x1 is missing between 1 and x1^2, the first two elements.
        fields = dict(
            n=1, g=(2,), weights=(1,), cells=0b101, parts=(bytes([0, 2]),),
            rho=bytes([0, 1]), maximal_rho=1,
        )
        poset = solver.CharacteristicPoset(**fields)
        with pytest.raises(AssertionError, match="element set is not box-convex"):
            solver._assert_box_convex_sample(poset)
        # The same check under python -O, which strips asserts.
        code = "\n".join([
            "import sdepthlab.solver as solver",
            f"poset = solver.CharacteristicPoset(**{fields!r})",
            "try:",
            "    solver._assert_box_convex_sample(poset)",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ])
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "raised: element set is not box-convex\n", proc.stdout

    def test_cap(self):
        from sdepthlab import PosetCapExceededError

        with pytest.raises(PosetCapExceededError):
            build_poset(cycle_quotient(10, 2), cap=100)

    @pytest.mark.parametrize("cap", [0, -5])
    def test_cap_below_one_is_input_error(self, cap):
        with pytest.raises(InputError, match=f"poset cap must be at least 1, got {cap}"):
            build_poset(cycle_quotient(4, 2), cap=cap)


class TestExistsPartition:
    def test_level_one_found_and_valid(self):
        poset = build_poset(cycle_quotient(4, 2))
        decomposition = exists_partition(poset, 1)
        assert decomposition is not None
        report = verify_decomposition(poset, decomposition, 1)
        assert report.ok
        assert report.min_rho >= 1

    def test_level_two_infeasible(self):
        poset = build_poset(cycle_quotient(4, 2))
        assert exists_partition(poset, 2) is None

    def test_level_zero_is_singletons(self):
        poset = build_poset(cycle_quotient(4, 2))
        decomposition = exists_partition(poset, 0)
        assert len(decomposition) == len(poset)
        assert verify_decomposition(poset, decomposition, 0).ok

    def test_hand_partition_verifies(self):
        # One valid level-1 partition of the 4-cycle quotient, written by hand.
        poset = build_poset(cycle_quotient(4, 2))
        hand = StanleyDecomposition(
            4,
            (
                (mono(4), frozenset({1, 3})),
                (mono(4, 2), frozenset({2, 4})),
                (mono(4, 4), frozenset({4})),
            ),
        )
        report = verify_decomposition(poset, hand, 1)
        assert report.ok
        assert report.min_rho == 1

    def test_monotone_in_level(self):
        for pair in [cycle_quotient(5, 2), cycle_quotient(6, 3)]:
            poset = build_poset(pair)
            feasible = [k for k in range(poset.n + 1) if exists_partition(poset, k) is not None]
            assert feasible == list(range(len(feasible)))

    def test_bad_level_rejected(self):
        poset = build_poset(cycle_quotient(4, 2))
        with pytest.raises(InputError):
            exists_partition(poset, -1)
        with pytest.raises(InputError):
            exists_partition(poset, 5)

    def test_rho_zero_maximal_element_refutes_level_one(self):
        # x1..x5 lies outside the square of the (5,3) cycle ideal and nothing
        # above it does; with rho 0 it can only top its own interval.
        ideal = cycle_path_ideal(5, 3)
        square = minimalize([a.times(b) for a in ideal.gens for b in ideal.gens], 5)
        poset = build_poset(ring_quotient(square))
        top = rows(poset)[element_index(poset)[encode(poset, (1, 1, 1, 1, 1))]]
        assert sum(e == gj for e, gj in zip(top, poset.g)) == 0
        assert not any(e != top and all(a <= b for a, b in zip(top, e)) for e in rows(poset))
        assert exists_partition(poset, 1) is None
        assert sdepth_of_poset(poset).value == 0

    def test_time_limit_raises(self):
        # Cycle (13,3) at level 7 does not settle within a minute.
        poset = build_poset(cycle_quotient(13, 3))
        with pytest.raises(TimeLimitExceededError):
            exists_partition(poset, 7, time_limit_s=0.02)

    @pytest.mark.parametrize("limit", [-1.0, -1e-9, float("-inf"), float("nan")])
    def test_negative_or_nan_time_limit_is_input_error(self, limit):
        # At every level, those that need no search included.
        poset = build_poset(cycle_quotient(5, 2))
        for k in range(poset.n + 1):
            with pytest.raises(InputError, match="time limit must be at least 0 seconds"):
                exists_partition(poset, k, time_limit_s=limit)
        with pytest.raises(InputError, match="time limit must be at least 0 seconds"):
            sdepth_of_poset(poset, time_limit_s=limit)

    @pytest.mark.parametrize("limit", [None, 0, 0.0, float("inf")])
    def test_none_zero_and_infinite_time_limits_are_valid(self, limit):
        # Cycle (5,2) settles in fewer placements than the clock is read after.
        poset = build_poset(cycle_quotient(5, 2))
        assert exists_partition(poset, 2, time_limit_s=limit) is not None
        assert sdepth_of_poset(poset, time_limit_s=limit).value == 2


class TestSdepth:
    def test_principal_full_support(self):
        assert sdepth_of_pair(ring_quotient(parse_ideal("n=3: x1*x2*x3"))).value == 2

    def test_four_cycle_strict(self):
        assert sdepth_of_pair(cycle_quotient(4, 2)).value == 1

    def test_cycle_over_line_five_two(self):
        pair = QuotientPresentation(cycle_path_ideal(5, 2), line_path_ideal(5, 2))
        assert sdepth_of_pair(pair).value == 3

    def test_principal_module_is_free(self):
        pair = QuotientPresentation(parse_ideal("n=3: x1*x2"), zero_ideal(3))
        result = sdepth_of_pair(pair)
        assert result.value == 3
        assert len(result.poset) == 1

    def test_whole_ring(self):
        from sdepthlab import unit_ideal

        pair = QuotientPresentation(unit_ideal(4), zero_ideal(4))
        assert sdepth_of_pair(pair).value == 4

    def test_certificate_and_refutation_shipped(self):
        result = sdepth_of_pair(cycle_quotient(5, 2))
        assert result.value == 2
        assert result.infeasible_at == 3
        assert verify_decomposition(result.poset, result.certificate, result.value).ok
        assert exists_partition(result.poset, result.value + 1) is None

    def test_permutation_equivariance(self):
        for n, m in [(5, 2), (6, 3), (7, 3)]:
            ideal = cycle_path_ideal(n, m)
            base = sdepth_of_pair(ring_quotient(ideal)).value
            rotation = {j: j % n + 1 for j in range(1, n + 1)}
            rotated = relabel(ideal, rotation, n)
            assert sdepth_of_pair(ring_quotient(rotated)).value == base
            reflection = {j: n + 1 - j for j in range(1, n + 1)}
            assert sdepth_of_pair(ring_quotient(relabel(ideal, reflection, n))).value == base

    def test_bound_independence(self):
        # Enlarging the bound vector must not change the computed value.
        pairs = [
            ring_quotient(parse_ideal("n=2: x1^2*x2")),
            ring_quotient(parse_ideal("n=3: x1^2, x2*x3^2")),
            ring_quotient(parse_ideal("n=3: x1*x2, x2^2*x3")),
        ]
        for pair in pairs:
            base_poset = build_poset(pair)
            base = sdepth_of_poset(base_poset).value
            for j in range(pair.ambient):
                bigger = tuple(
                    gj + 1 if i == j else gj for i, gj in enumerate(base_poset.g)
                )
                enlarged = build_poset(pair, g_override=bigger)
                assert sdepth_of_poset(enlarged).value == base, (pair, j)

    def test_matches_brute_force_on_small_posets(self):
        seen = 0
        for n in range(2, 5):
            for m in range(1, n + 1):
                for pair_kind in ("line", "cycle", "quotient"):
                    if pair_kind == "quotient":
                        if m >= n or m < 2:
                            continue
                        pair = QuotientPresentation(
                            cycle_path_ideal(n, m), line_path_ideal(n, m)
                        )
                    else:
                        ideal = (
                            line_path_ideal(n, m) if pair_kind == "line"
                            else cycle_path_ideal(n, m)
                        )
                        if ideal.is_unit():
                            continue
                        pair = ring_quotient(ideal)
                    poset = build_poset(pair)
                    if len(poset) > 12:
                        continue
                    seen += 1
                    assert sdepth_of_poset(poset).value == brute_force_sdepth(poset)
        assert seen >= 10

    @settings(max_examples=300, deadline=None)
    @given(small_presentations())
    def test_every_level_matches_brute_force(self, poset):
        # Covers both candidate paths: squarefree posets and exponent-2 boxes,
        # quotient rings and box-convex modules that are not down-closed.
        if len(poset) > 12:
            reject()
        best = brute_force_sdepth(poset)
        for k in range(poset.n + 1):
            assert (exists_partition(poset, k) is not None) == (best >= k), (rows(poset), k)
        # The level scan starts at maximal_rho.
        assert best <= poset.maximal_rho
        assert sdepth_of_poset(poset).value == best

    @settings(max_examples=200, deadline=None)
    @given(small_presentations())
    def test_first_partition_matches_plain_search(self, poset):
        # The search skips the candidates of rho above k and covers the
        # elements above k as singletons; a plain search over every canonical
        # top must still meet the same partition first.
        if len(poset) > 12:
            reject()
        for k in range(poset.n + 1):
            expected = reference_first_partition(poset, k)
            found = exists_partition(poset, k)
            if expected is None or found is None:
                assert found is expected is None, (rows(poset), k)
                continue
            pairs = [interval_indices(poset, bottom, zvars) for bottom, zvars in found.intervals]
            assert pairs == expected, (rows(poset), k)
            for bottom, top in pairs:
                rho = poset.rho[top]
                assert rho == k or (bottom == top and rho > k), (rows(poset), k)

    # sha256 of format_certificate.  The search visits its nodes in a fixed
    # order, so a speed-up that keeps that order keeps these bytes: the heaviest
    # sdepth-sqfree instance, a non-squarefree S/I^2, and two box-convex
    # modules that are not down-closed, one squarefree and one J^2/I^2.
    @pytest.mark.parametrize("pair, value, digest", [
        (
            ring_quotient(cycle_path_ideal(9, 3)), 5,
            "0fe5dad6ef4c10f27034e90e8f722e4871283f79865f7c7794f5c032cfc56f8d",
        ),
        (
            ring_quotient(square(cycle_path_ideal(7, 3))), 4,
            "bd49d5fe768c10bca5fdabc87114610ab4c9adb52b61a9bea50b7508a467dbe6",
        ),
        (
            QuotientPresentation(cycle_path_ideal(7, 3), line_path_ideal(7, 3)), 5,
            "492ea47342d067d67c31e9a717f904c0e94cbc0a837ea36b2a1f38663d7bef9d",
        ),
        (
            QuotientPresentation(square(cycle_path_ideal(7, 2)), square(line_path_ideal(7, 2))), 3,
            "c13cb5c55d37ca5eaa3464630a216a597fbd017f6da972134dc9fc18997358cd",
        ),
        # 17,155 elements; recorded when the search listed all 138,661
        # candidate tops of its 2,878 tables, so a changed order shows here.
        (
            ring_quotient(cycle_path_ideal(16, 3)), 8,
            "dad498bcaba5d0eaef8337dd608190abd447f923a29646bd78f6cd1f79d13b5f",
        ),
        # Recorded when level 5 took 672,260 placements, before each level
        # was searched on its rho = k layer.
        (
            ring_quotient(cycle_path_ideal(13, 2)), 5,
            "dd2a3df4b549edfbca6720df286e880754229b9933ba3209979bd922d655b9d9",
        ),
    ], ids=[
        "cycle-9-3", "cycle-7-3-squared", "prop16-7-3", "prop16-7-2-squared", "cycle-16-3",
        "cycle-13-2",
    ])
    def test_pinned_certificate(self, pair, value, digest):
        result = sdepth_of_pair(pair)
        assert result.value == value
        text = format_certificate(result.certificate)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @settings(max_examples=300, deadline=None)
    @given(small_presentations())
    def test_scan_matches_binary_search(self, poset):
        if len(poset) > 12:
            reject()
        assert_same_as_binary_search(poset)

    @pytest.mark.parametrize("pair", [
        ring_quotient(cycle_path_ideal(9, 3)),
        ring_quotient(square(cycle_path_ideal(7, 3))),
        QuotientPresentation(cycle_path_ideal(7, 3), line_path_ideal(7, 3)),
        ring_quotient(square(line_path_ideal(6, 3))),
        QuotientPresentation(square(cycle_path_ideal(7, 2)), square(line_path_ideal(7, 2))),
    ], ids=[
        "cycle-9-3", "cycle-7-3-squared", "prop16-7-3", "line-6-3-squared", "prop16-7-2-squared",
    ])
    def test_scan_matches_binary_search_on_pinned_pairs(self, pair):
        assert_same_as_binary_search(build_poset(pair))

    def test_principal_characterization_small(self):
        # Among small ideals the top value n-1 happens exactly for one generator.
        for ideal in enumerate_small_ideals(2):
            value = sdepth_of_pair(ring_quotient(ideal)).value
            assert (value == 1) == (len(ideal.gens) == 1), ideal


def assert_same_as_binary_search(poset):
    # The level order must not change the value, the refuted level or the
    # certificate's bytes.
    value, infeasible_at, certificate = bisect_sdepth(poset)
    result = sdepth_of_poset(poset)
    assert (result.value, result.infeasible_at) == (value, infeasible_at)
    assert format_certificate(result.certificate) == format_certificate(certificate)


class TestLevelOrder:
    """The levels sdepth_of_poset searches, in order, with each outcome."""

    @staticmethod
    def searched_levels(monkeypatch, pair):
        calls = []
        search = solver.exists_partition

        def recording(poset, k, **kwargs):
            found = search(poset, k, **kwargs)
            calls.append((k, found))
            return found

        monkeypatch.setattr(solver, "exists_partition", recording)
        result = sdepth_of_pair(pair)
        # The scan starts at maximal_rho, every level it searches above the
        # value is refuted, and it stops at the value, whose partition is the
        # certificate.
        assert calls[0][0] == result.poset.maximal_rho
        assert all(found is None for _, found in calls[:-1])
        assert calls[-1] == (result.value, result.certificate)
        assert result.infeasible_at == (result.value + 1 if result.value < result.poset.n else None)
        return result, [(k, found is not None) for k, found in calls]

    def test_cycle_nine_three(self, monkeypatch):
        # Level 6 exceeds maximal_rho and is never searched.
        result, levels = self.searched_levels(monkeypatch, cycle_quotient(9, 3))
        assert levels == [(5, True)]
        assert result.infeasible_at == 6

    def test_cycle_nine_six_refutes_maximal_rho_by_degrees(self, monkeypatch):
        # Level 7 = maximal_rho is refuted by the degree counts' beta profile.
        stats = SearchStats()
        exists_partition(build_poset(cycle_quotient(9, 6)), 7, stats=stats)
        assert (stats.moment_prunes, stats.placements) == (1, 0)
        result, levels = self.searched_levels(monkeypatch, cycle_quotient(9, 6))
        assert levels == [(7, False), (6, True)]
        assert result.infeasible_at == 7

    def test_square_of_cycle_seven_four_ends_at_singletons(self, monkeypatch):
        # A maximal element of rho 0 leaves only level 0 to search.
        pair = ring_quotient(square(cycle_path_ideal(7, 4)))
        result, levels = self.searched_levels(monkeypatch, pair)
        assert levels == [(0, True)]
        assert len(result.certificate) == len(result.poset)
        assert result.infeasible_at == 1

    def test_free_module_searches_only_the_ambient_level(self, monkeypatch):
        pair = QuotientPresentation(parse_ideal("n=3: x1*x2"), zero_ideal(3))
        result, levels = self.searched_levels(monkeypatch, pair)
        assert levels == [(3, True)]
        assert result.infeasible_at is None


class TestTimeLimit:
    def test_levels_share_one_limit(self, monkeypatch):
        # Each level gets what the levels before it left of the one limit.
        limits = []
        search = solver.exists_partition

        def recording(poset, k, *, time_limit_s=None, stats=None):
            limits.append(time_limit_s)
            time.sleep(0.02)
            return search(poset, k, time_limit_s=time_limit_s, stats=stats)

        monkeypatch.setattr(solver, "exists_partition", recording)
        result = sdepth_of_pair(cycle_quotient(9, 6), time_limit_s=60.0)
        assert result.value == 6
        assert len(limits) == 2
        assert 60.0 - 1 < limits[0] <= 60.0
        for before, after in zip(limits, limits[1:]):
            assert 0 <= after <= before - 0.02

    def test_no_limit_stays_unlimited(self, monkeypatch):
        limits = []
        search = solver.exists_partition

        def recording(poset, k, *, time_limit_s=None, stats=None):
            limits.append(time_limit_s)
            return search(poset, k, time_limit_s=time_limit_s, stats=stats)

        monkeypatch.setattr(solver, "exists_partition", recording)
        sdepth_of_pair(cycle_quotient(9, 6), time_limit_s=None)
        assert limits == [None, None]

    @pytest.mark.parametrize("limits", [dict(time_limit_s=-1), dict(max_poset=0)])
    def test_pair_limits_checked_before_the_build(self, monkeypatch, limits):
        def unreachable(*args, **kw):
            raise AssertionError("the poset was built")

        monkeypatch.setattr(solver, "build_poset", unreachable)
        with pytest.raises(InputError, match="must be at least"):
            sdepth_of_pair(cycle_quotient(5, 2), **limits)


class TestSearchStats:
    """Exact counts of deterministic searches.

    A weaker prune or table leaves the first partition the same and only
    costs time, so these counts are what shows it.
    """

    # Recorded when each level began to be searched on its rho = k layer,
    # which leaves the singletons above k out of ``placements`` and
    # ``candidate_tops``; the line (6,3)^2 and root-refuted rows kept their
    # earlier counts.  Cycle (9,3) level 5 made 44,316 placements and cycle
    # (13,2) level 5 672,260 before, so a lost reduction shows here.  The
    # middle four levels are on posets of 2,025 and 6,516 elements
    # (squarefree and not), where a changed candidate or witness order would
    # show only in these counts.
    @pytest.mark.parametrize("pair, k, feasible, counts", [
        (cycle_quotient(9, 3), 5, True, dict(
            placements=23_990, stranded_prunes=6_123, moment_prunes=0,
            table_hits=7_216, stored_states=17_831, table_clears=0, candidate_tops=147,
        )),
        (ring_quotient(square(line_path_ideal(6, 3))), 4, False, dict(
            placements=6_615, stranded_prunes=2_136, moment_prunes=0,
            table_hits=3_559, stored_states=4_479, table_clears=0, candidate_tops=320,
        )),
        (cycle_quotient(11, 9), 9, False, dict(
            placements=0, stranded_prunes=0, moment_prunes=1,
            table_hits=0, stored_states=0, table_clears=0, candidate_tops=0,
        )),
        (cycle_quotient(11, 9), 8, True, dict(
            placements=165, stranded_prunes=0, moment_prunes=0,
            table_hits=0, stored_states=0, table_clears=0, candidate_tops=165,
        )),
        # Level 6 exceeds maximal_rho, so it is refuted before any search.
        (ring_quotient(square(cycle_path_ideal(8, 7))), 6, False, dict(
            placements=0, stranded_prunes=0, moment_prunes=0,
            table_hits=0, stored_states=0, table_clears=0, candidate_tops=0,
        )),
        (ring_quotient(square(cycle_path_ideal(8, 7))), 5, True, dict(
            placements=448, stranded_prunes=0, moment_prunes=0,
            table_hits=0, stored_states=0, table_clears=0, candidate_tops=448,
        )),
        (cycle_quotient(13, 2), 5, True, dict(
            placements=25_358, stranded_prunes=5_826, moment_prunes=0,
            table_hits=208, stored_states=19_441, table_clears=0, candidate_tops=127,
        )),
    ], ids=[
        "cycle-9-3-level-5", "line-6-3-squared-level-4", "cycle-11-9-level-9",
        "cycle-11-9-level-8", "cycle-8-7-squared-level-6", "cycle-8-7-squared-level-5",
        "cycle-13-2-level-5",
    ])
    def test_pinned_counts(self, pair, k, feasible, counts):
        # Each search takes well under a second; the limit turns a weakened
        # prune into a TimeLimitExceededError instead of a hang.
        stats = SearchStats()
        found = exists_partition(build_poset(pair), k, time_limit_s=60.0, stats=stats)
        assert (found is not None) == feasible
        assert stats.levels == [k]
        assert {name: getattr(stats, name) for name in counts} == counts

    def test_sdepth_sums_the_levels(self):
        # Level 4 = maximal_rho is refuted by its search (6,615 placements,
        # pinned above) and level 3 is found.  Recorded when each level began
        # to be searched on its rho = k layer.
        stats = SearchStats()
        sdepth_of_pair(ring_quotient(square(line_path_ideal(6, 3))), stats=stats)
        assert stats.levels == [4, 3]
        counts = (stats.placements, stats.stranded_prunes, stats.candidate_tops)
        assert counts == (6_719, 2_136, 444)

    def test_no_search_below_level_one_or_above_max_rho(self):
        poset = build_poset(cycle_quotient(5, 2))
        stats = SearchStats()
        exists_partition(poset, 0, stats=stats)
        exists_partition(poset, poset.maximal_rho + 1, stats=stats)
        assert stats == SearchStats(levels=[0, poset.maximal_rho + 1])


def counts_of_heights(heights):
    """Degree counts of intervals with tops at degree kappa, heights[s] of height s."""
    kappa = len(heights) - 1
    alpha = [0] * (kappa + 1)
    for s, count in enumerate(heights):
        for j in range(s + 1):
            alpha[kappa - s + j] += count * comb(s, j)
    return alpha


class TestMomentLemma:
    """Below the root the degree-moment test never fails, so the search runs
    it at the root only.

    On a squarefree bound with z coordinates at 0 and largest degree kappa,
    the level k = kappa + z has its tops at degree kappa.  The search branches
    on the lowest uncovered element and places a Boolean interval up to a top
    of degree kappa that misses the covered cells; after each placement the
    uncovered degree counts keep a ``beta_profile``.
    """

    @settings(max_examples=200, deadline=None)
    @given(small_presentations(squarefree_n_max=7), st.data())
    def test_placements_keep_the_profile_nonnegative(self, poset, data):
        points = rows(poset)
        degree = list(map(sum, points))
        kappa = degree[-1]

        def below(a, b):
            return all(x <= y for x, y in zip(a, b))

        def profile(uncovered):
            counts = [0] * (kappa + 1)
            for i in uncovered:
                counts[degree[i]] += 1
            return solver.beta_profile(counts, kappa)

        uncovered = set(range(len(points)))
        if profile(uncovered) is None:
            reject()
        while uncovered:
            # Element order is (degree, code), so the lowest index is the
            # search's branch element.  The poset is box-convex, so an
            # interval misses the covered cells when it has 2^height
            # uncovered ones.
            e = points[min(uncovered)]
            intervals = []
            for t in sorted(uncovered):
                if degree[t] != kappa or not below(e, points[t]):
                    continue
                cells = {
                    i for i in uncovered if below(e, points[i]) and below(points[i], points[t])
                }
                if len(cells) == 2 ** (kappa - sum(e)):
                    intervals.append(frozenset(cells))
            if not intervals:
                break  # the search backtracks here
            uncovered -= data.draw(st.sampled_from(intervals))
            assert profile(uncovered) is not None, sorted(uncovered)


class TestBetaProfile:
    """``beta_profile`` against the closed form of the Hilbert-depth recursion,
    beta_d = sum_j (-1)^(d-j) C(kappa-j, d-j) alpha_j for the intervals with
    bottom at degree d."""

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=12).flatmap(lambda kappa: st.one_of(
        st.lists(st.integers(min_value=0, max_value=200), min_size=kappa + 1, max_size=kappa + 1),
        st.lists(st.integers(min_value=0, max_value=5), min_size=kappa + 1, max_size=kappa + 1)
        .map(counts_of_heights),
    )))
    # Only the last count goes negative: height 0, the singletons at degree kappa.
    @example([1, 2, 0])
    # Counts of an actual split, whose profile is its interval counts.
    @example(counts_of_heights([3, 0, 2, 1, 4]))
    def test_matches_the_closed_form(self, alpha):
        kappa = len(alpha) - 1
        beta = [
            sum((-1) ** (d - j) * comb(kappa - j, d - j) * alpha[j] for j in range(d + 1))
            for d in range(kappa + 1)
        ]
        profile = solver.beta_profile(alpha, kappa)
        if min(beta) < 0:
            assert profile is None
        else:
            assert profile == beta[::-1]


class TestOrderBitsets:
    """The search's order bitsets against componentwise comparison of exponents."""

    @settings(max_examples=200, deadline=None)
    @given(small_presentations())
    # A raised bound, so that tops must be canonical for a non-squarefree g.
    @example(build_poset(ring_quotient(parse_ideal("n=3: x1^2*x2, x2*x3")), g_override=(3, 2, 2)))
    # Equal boxes from different degrees: above (0,0,0), the tops (3,0,0) and
    # (0,1,1) both span 4 cells, and code 3 comes before code 12 although
    # element order puts (0,1,1) first.
    @example(build_poset(ring_quotient(parse_ideal("n=3: x1^3*x2*x3")), g_override=(3, 1, 1)))
    # The largest bound: 33 elements on the box [0, (30, 1)].
    @example(build_poset(ring_quotient(parse_ideal("n=2: x1^2*x2")), g_override=(30, 1)))
    def test_matches_brute_force(self, poset):
        ge, le = solver.order_bitsets(poset.parts, poset.g)
        for i, e in enumerate(rows(poset)):
            up, down = reference_up_down(poset, i)
            assert (solver.up_set(ge, e), solver.down_set(le, e)) == (up, down), e
        # Candidate tops as the search reads them: rank bitsets, lowest bit
        # first.  A level above the largest rho has no tops at all.
        for k in range(max(poset.rho) + 1):
            tops = sum(1 << t for t, r in enumerate(poset.rho) if r >= k)
            top_of = solver.ranked_tops(poset, tops)
            top_ge, _ = solver.order_bitsets(solver.decode(poset, top_of)[0], poset.g)
            for i, e in enumerate(rows(poset)):
                ranks = solver.candidate_ranks(top_ge, poset.g, e, solver.up_set(top_ge, e))
                found = [top_of[r] for r in set_bits(ranks)]
                assert found == reference_candidate_tops(poset, k, i), (e, k)


class TestPartBytes:
    """The poset keeps one byte per code part per element and no exponent rows."""

    @settings(max_examples=200, deadline=None)
    @given(box_presentations())
    # Squarefree: a cycle's quotient ring and a module J/I.
    @example((cycle_quotient(9, 3), None))
    @example((QuotientPresentation(cycle_path_ideal(7, 3), line_path_ideal(7, 3)), None))
    # Squared: S/I^2, and J^2/I^2.
    @example((ring_quotient(square(line_path_ideal(6, 3))), None))
    @example((QuotientPresentation(
        square(cycle_path_ideal(6, 2)), square(line_path_ideal(6, 2))
    ), None))
    # The largest bound, a part of two coordinates.
    @example((ring_quotient(parse_ideal("n=2: x1^2*x2")), (30, 1)))
    def test_columns_match_rows(self, case):
        pair, g_override = case
        poset = build_poset(pair, g_override=g_override)
        points = rows(poset)
        expected = reference_order_bitsets(points, poset.g)
        assert solver.order_bitsets(poset.parts, poset.g) == expected
        sizes = [prod(gj - x + 1 for x, gj in zip(e, poset.g)) for e in points]
        for k in range(max(poset.rho) + 1):
            # The ranks of the tops of rho >= k, and of the search's tops,
            # rho = k, when there are any.
            at_least = sum(1 << t for t, r in enumerate(poset.rho) if r >= k)
            exactly = sum(1 << t for t, r in enumerate(poset.rho) if r == k)
            for tops in filter(None, (at_least, exactly)):
                top_of = solver.ranked_tops(poset, tops)
                assert top_of == sorted(
                    set_bits(tops), key=lambda t: (-sizes[t], encode(poset, points[t]))
                ), k
                found = solver.order_bitsets(solver.decode(poset, top_of)[0], poset.g)
                assert found == reference_order_bitsets([points[t] for t in top_of], poset.g), k
        # exponents(i) reads back every element as box enumeration lists it,
        # and the bulk decode reads them all back as exponents(i) does.
        expected = reference_poset(pair, g_override)[2]
        assert list(points) == list(expected)
        order = list(range(len(poset) - 1, -1, -2))
        parts, exps, codes_of, boxes = solver.decode(poset, order)
        assert parts == [bytes(part[i] for i in order) for part in poset.parts]
        assert list(exps) == [poset.exponents(i) for i in order]
        assert list(codes_of) == [encode(poset, points[i]) for i in order]
        assert list(boxes) == [sizes[i] for i in order]

    @pytest.mark.parametrize("g, radices", [
        ((1,) * 11, [256, 8]),
        ((2,) * 8, [243, 27]),
        ((1,) * 20, [256, 256, 16]),
        ((1, 0, 1), [4]),
        ((30, 30, 1), [31, 62]),
        ((30, 1), [62]),
    ])
    def test_parts_group_coordinates_from_x1(self, g, radices):
        tables = solver._parts_of(g)
        assert [table.radix for table in tables] == radices
        # Each part's place value is the product of the radices before it,
        # and the last part's place value times its radix is the box size.
        assert [table.weight for table in tables] == [prod(radices[:p]) for p in range(len(radices))]
        assert tables[-1].weight * tables[-1].radix == prod(gj + 1 for gj in g)
        # Each part code's rho, box factor and variable set follow from its
        # row of exponents, on the part's run of coordinates from x1 up.
        first = 0
        for table in tables:
            bound = g[first:first + len(table.exps[0])]
            assert len(table.exps) == table.radix
            for c, e in enumerate(table.exps):
                assert table.rho[c] == sum(map(eq, e, bound)), (c, e)
                assert table.factors[c] == prod(gj - x + 1 for x, gj in zip(e, bound)), (c, e)
                assert table.at_bound[c] == {
                    first + j + 1 for j, (x, gj) in enumerate(zip(e, bound)) if x == gj
                }, (c, e)
            first += len(bound)
        assert first == len(g)

    def test_build_retains_under_20_bytes_per_element(self):
        # The bound's tables are shared by every poset with that bound.
        pair = cycle_quotient(14, 3)
        build_poset(pair)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            poset = build_poset(pair)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained < 20 * len(poset), (retained, len(poset))

    def test_equal_variable_sets_are_one_object(self):
        # Squared ideals: the variable sets of their certificates repeat.
        for certificate in [
            sdepth_of_pair(ring_quotient(square(cycle_path_ideal(7, 3)))).certificate,
            solver.singleton_decomposition(principal_poset("x1^2*x2^2*x3", 3)),
        ]:
            shared = {}
            for _, zvars in certificate.intervals:
                assert shared.setdefault(zvars, zvars) is zvars
            assert len(shared) < len(certificate)


class TestFailedStates:
    """The table of covered sets whose subtree failed must not change results."""

    def test_line_six_three_squared(self):
        # Recorded with the search before the table, which took about 18 s
        # on a 2-core host.
        result = sdepth_of_pair(ring_quotient(square(line_path_ideal(6, 3))))
        assert (result.value, result.infeasible_at) == (3, 4)
        digest = hashlib.sha256(format_certificate(result.certificate).encode()).hexdigest()
        assert digest == "4cdfa007d149c0f876e5958b63e214d9418cf93a5ea69e223a03ce50b20d46f7"

    def test_clears_keep_the_certificate(self, monkeypatch):
        monkeypatch.setattr(solver, "FAILED_STATES_BYTES", 2**16)
        stats = SearchStats()
        result = sdepth_of_pair(cycle_quotient(9, 3), stats=stats)
        assert stats.table_clears > 0
        assert stats.table_peak_bytes <= 2**16
        digest = hashlib.sha256(format_certificate(result.certificate).encode()).hexdigest()
        assert digest == "0fe5dad6ef4c10f27034e90e8f722e4871283f79865f7c7794f5c032cfc56f8d"

    def test_table_stays_within_budget(self, monkeypatch):
        # The real size of the table (the set and its keys) after every store,
        # on a level that runs past the limit.
        budget = 2**18
        sizes = []

        class MeasuredSet(set):
            __slots__ = ("key_bytes",)

            def __init__(self):
                super().__init__()
                self.key_bytes = 0

            def add(self, key):
                super().add(key)
                self.key_bytes += sys.getsizeof(key)
                sizes.append(sys.getsizeof(self) + self.key_bytes)

            def clear(self):
                super().clear()
                self.key_bytes = 0

        monkeypatch.setattr(solver, "FAILED_STATES_BYTES", budget)
        monkeypatch.setattr(solver, "set", MeasuredSet, raising=False)
        stats = SearchStats()
        with pytest.raises(TimeLimitExceededError):
            exists_partition(build_poset(cycle_quotient(13, 3)), 7, time_limit_s=1.0, stats=stats)
        assert stats.table_clears > 0
        assert len(sizes) == stats.stored_states
        assert max(sizes) <= budget
        assert stats.table_peak_bytes <= budget


class TestPrincipalDecomposition:
    def test_two_variables(self):
        d = principal_decomposition(parse_monomial("x1*x2", 2))
        assert d.intervals == (
            (mono(2), frozenset({2})),
            (mono(2, 1), frozenset({1})),
        )
        assert verify_decomposition(principal_poset("x1*x2", 2), d, 0).min_rho == 1

    def test_square_one_variable(self):
        d = principal_decomposition(parse_monomial("x1^2", 1))
        assert d.intervals == (
            (mono(1), frozenset()),
            (mono(1, 1), frozenset()),
        )
        assert verify_decomposition(principal_poset("x1^2", 1), d, 0).min_rho == 0

    def test_three_variables(self):
        d = principal_decomposition(parse_monomial("x1*x2*x3", 3))
        assert len(d) == 3
        assert verify_decomposition(principal_poset("x1*x2*x3", 3), d, 0).min_rho == 2

    @pytest.mark.parametrize(
        "text,n",
        [("x1*x2", 2), ("x1^2", 1), ("x1*x2*x3", 3), ("x1^2*x2", 2), ("x2^3", 3), ("x1*x3", 3)],
    )
    def test_verifies_against_poset(self, text, n):
        u = parse_monomial(text, n)
        d = principal_decomposition(u)
        assert verify_decomposition(principal_poset(text, n), d, n - 1).ok
        assert sdepth_of_pair(ring_quotient(parse_ideal(f"n={n}: {text}"))).value == n - 1

    def test_constant_rejected(self):
        with pytest.raises(InputError):
            principal_decomposition(mono(2))


MUTATIONS = (
    "drop", "repeat", "shift", "add variable", "remove variable", "bad index",
    "bottom ambient", "decomposition ambient", "k above min_rho",
)


@st.composite
def tampered_certificates(draw):
    """(poset, certificate, k): the search's certificate at level k, and 0 to 3
    mutations of it or of k, in the order drawn."""
    poset = draw(small_presentations())
    k = draw(st.integers(min_value=0, max_value=poset.n))
    found = exists_partition(poset, k)
    if found is None:
        k, found = 0, exists_partition(poset, 0)
    return tamper(draw, poset, found, k)


@functools.lru_cache(maxsize=None)
def two_row_certificate():
    """The cycle (14,3) poset and its certificate at level 7: a box of 2^14
    cells, two rows of ROW_CELLS, so that an interval can span both."""
    poset = build_poset(cycle_quotient(14, 3))
    return poset, exists_partition(poset, 7)


@st.composite
def tampered_two_row_certificates(draw):
    """(poset, certificate, k): the cycle (14,3) certificate at level 7 and 0
    to 3 mutations of it or of k."""
    poset, found = two_row_certificate()
    return tamper(draw, poset, found, 7)


def tamper(draw, poset, found, k):
    """(poset, certificate, k) after 0 to 3 mutations of the certificate
    ``found`` or of k, drawn with ``draw``."""
    n = poset.n
    intervals, ambient = list(found.intervals), n
    for kind in draw(st.lists(st.sampled_from(MUTATIONS), max_size=3)):
        if kind == "decomposition ambient":
            ambient = n + 1
            continue
        if kind == "k above min_rho":
            # min_rho counts the tops of the intervals with their bottom and
            # variables in range.
            in_range = frozenset(range(1, n + 1))
            rhos = [
                sum(x == gj or j in zvars for j, x, gj in zip(range(1, n + 1), bottom.exponents, poset.g))
                for bottom, zvars in intervals
                if len(bottom.exponents) == n and zvars <= in_range
                and all(map(le, bottom.exponents, poset.g))
            ]
            if rhos and min(rhos) < n:
                k = min(rhos) + 1
            continue
        if not intervals:
            continue
        i = draw(st.integers(min_value=0, max_value=len(intervals) - 1))
        bottom, zvars = intervals[i]
        e = bottom.exponents
        if kind == "drop":
            del intervals[i]
        elif kind == "repeat":
            intervals.insert(draw(st.integers(min_value=0, max_value=len(intervals))), intervals[i])
        elif kind == "shift":
            j = draw(st.integers(min_value=0, max_value=len(e) - 1))
            step = draw(st.sampled_from((-1, 1))) if e[j] else 1
            e = e[:j] + (e[j] + step,) + e[j + 1:]
            intervals[i] = (Monomial(e), zvars)
        elif kind == "add variable":
            intervals[i] = (bottom, zvars | {draw(st.integers(min_value=1, max_value=n))})
        elif kind == "remove variable" and zvars:
            intervals[i] = (bottom, zvars - {draw(st.sampled_from(sorted(zvars)))})
        elif kind == "bad index":
            intervals[i] = (bottom, zvars | {draw(st.sampled_from((0, n + 1)))})
        elif kind == "bottom ambient":
            intervals[i] = (Monomial(e + (0,)), zvars)
    return poset, StanleyDecomposition(ambient, tuple(intervals)), k


class TestVerification:
    @settings(max_examples=400, deadline=None)
    @given(tampered_certificates(), st.sampled_from((1, 2, 4, 8, solver.ROW_CELLS)))
    # An interval repeated across four rows of two cells: its double covers
    # are named in code order, row by row.
    @example((
        principal_poset("x1*x2*x3", 3),
        StanleyDecomposition(3, ((Monomial((0, 0, 0)), frozenset({2, 3})),) * 2),
        0,
    ), 2)
    def test_matches_cell_by_cell_reference(self, case, row_cells):
        # Rows of 1 to 8 cells split these small boxes the way a box of more
        # than ROW_CELLS cells is split.
        poset, certificate, k = case
        expected = reference_verification(poset, certificate, k)
        default, solver.ROW_CELLS = solver.ROW_CELLS, row_cells
        try:
            assert verify_decomposition(poset, certificate, k) == expected
        finally:
            solver.ROW_CELLS = default

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.tuples(tampered_certificates(), st.sampled_from((1, 4, solver.ROW_CELLS))),
        st.tuples(tampered_two_row_certificates(), st.just(solver.ROW_CELLS)),
    ))
    def test_one_pass_matches_each_interval(self, drawn):
        # The pass without a list accepts exactly the certificates that the
        # naming pass finds no failure in, with its min_rho, and the report
        # is the cell-by-cell reference's, failure texts included.  Rows of
        # 1 or 4 cells split the small boxes, and the cycle (14,3) box is two
        # rows at the default.
        (poset, certificate, k), row_cells = drawn
        default, solver.ROW_CELLS = solver.ROW_CELLS, row_cells
        try:
            if certificate.n == poset.n:
                least = solver._cover(poset, certificate.intervals, k)
                failures = []
                named = solver._cover(poset, certificate.intervals, k, failures)
                assert (least is not None) == (not failures)
                assert least == (None if failures else named)
            expected = reference_verification(poset, certificate, k)
            assert verify_decomposition(poset, certificate, k) == expected
        finally:
            solver.ROW_CELLS = default

    @pytest.mark.parametrize("n, m, k", [(14, 2, 5), (14, 3, 7)])
    def test_matches_reference_on_rows(self, n, m, k):
        # A box of 2^14 cells is two rows.  The certificate, less its first
        # interval, with its last interval repeated at the front, and with its
        # first one twice more at the end: the third cover names the first.
        poset = build_poset(cycle_quotient(n, m))
        intervals = exists_partition(poset, k).intervals
        for tampered in (
            intervals, intervals[1:], intervals[-1:] + intervals, intervals + intervals[:1] * 2,
        ):
            certificate = StanleyDecomposition(n, tampered)
            expected = reference_verification(poset, certificate, k)
            assert verify_decomposition(poset, certificate, k) == expected
            assert expected.ok == (tampered is intervals)

    def test_uncovered_reported(self):
        poset = build_poset(cycle_quotient(4, 2))
        decomposition = exists_partition(poset, 1)
        tampered = StanleyDecomposition(4, decomposition.intervals[:-1])
        report = verify_decomposition(poset, tampered, 1)
        assert not report.ok
        assert any("uncovered element" in f for f in report.failures)

    def test_double_cover_reported(self):
        poset = build_poset(cycle_quotient(4, 2))
        decomposition = exists_partition(poset, 1)
        doubled = StanleyDecomposition(4, decomposition.intervals + decomposition.intervals[-1:])
        report = verify_decomposition(poset, doubled, 1)
        assert not report.ok
        assert any("double cover" in f for f in report.failures)

    def test_outside_poset_reported(self):
        poset = build_poset(ring_quotient(parse_ideal("n=2: x1*x2")))
        bad = StanleyDecomposition(2, ((mono(2), frozenset({1, 2})),))
        report = verify_decomposition(poset, bad, 0)
        assert not report.ok
        assert any("outside the poset" in f for f in report.failures)

    def test_failure_wording_pinned(self):
        # A certificate missing one interval, repeating another, and with one
        # interval outside the poset and one past the bound.
        poset = build_poset(cycle_quotient(4, 2))
        intervals = exists_partition(poset, 1).intervals
        tampered = StanleyDecomposition(4, intervals[:-1] + intervals[:1] + (
            (parse_monomial("x1*x2", 4), frozenset({3})),
            (parse_monomial("x1^2", 4), frozenset()),
        ))
        report = verify_decomposition(poset, tampered, 1)
        assert report == solver.VerificationReport(False, (
            "double cover of 1 by intervals 1 and 6",
            "double cover of x1 by intervals 1 and 6",
            "interval 7 [x1*x2 ; {x3}]: cell x1*x2 is outside the poset",
            "interval 7 [x1*x2 ; {x3}]: cell x1*x2*x3 is outside the poset",
            "interval 8 [x1^2 ; {}]: bottom x1^2 exceeds the bound",
            "uncovered element x2*x4",
        ), 1)

    def test_ambient_range_and_rho_wording_pinned(self):
        # Recorded at the parent of the map-based per-interval check: a
        # decomposition in the wrong ambient, then a bottom in the wrong
        # ambient, variables out of range on both sides and tops below k.
        poset = build_poset(cycle_quotient(4, 2))
        intervals = exists_partition(poset, 1).intervals
        report = verify_decomposition(poset, StanleyDecomposition(5, intervals), 1)
        assert report == solver.VerificationReport(False, ("ambient mismatch: 5 vs 4",), None)
        x2 = parse_monomial("x2", 4)
        tampered = StanleyDecomposition(4, intervals[:2] + (
            (Monomial((0, 1, 0)), frozenset({1})),
            (x2, frozenset({2, 5})),
            (x2, frozenset({0})),
        ) + intervals[2:])
        report = verify_decomposition(poset, tampered, 3)
        assert report == solver.VerificationReport(False, (
            "interval 1 [1 ; {x1}]: top has rho 1 < 3",
            "interval 2 [x2 ; {x2}]: top has rho 1 < 3",
            "interval 3 [x2 ; {x1}]: bottom ambient mismatch",
            "interval 4 [x2 ; {x2, x5}]: variable index out of range",
            "interval 5 [x2 ; {x0}]: variable index out of range",
            "interval 6 [x3 ; {x3}]: top has rho 1 < 3",
            "interval 7 [x4 ; {x4}]: top has rho 1 < 3",
            "interval 8 [x1*x3 ; {x1, x3}]: top has rho 2 < 3",
            "interval 9 [x2*x4 ; {x2, x4}]: top has rho 2 < 3",
        ), 1)

    def test_low_rho_reported(self):
        poset = build_poset(cycle_quotient(4, 2))
        decomposition = exists_partition(poset, 1)
        report = verify_decomposition(poset, decomposition, 4)
        assert not report.ok
        assert any("rho" in f for f in report.failures)

    def test_failed_certificate_raises_under_optimize(self):
        # The solver's own check must survive python -O, which strips asserts.
        code = "\n".join([
            "import sdepthlab.solver as solver",
            "from sdepthlab import cycle_path_ideal, ring_quotient",
            "solver.verify_decomposition = (",
            "    lambda *args: solver.VerificationReport(False, ('planted',), None))",
            "try:",
            "    solver.sdepth_of_pair(ring_quotient(cycle_path_ideal(4, 2)))",
            "except AssertionError as exc:",
            "    print('raised:', exc)",
            "else:",
            "    print('returned')",
        ])
        proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("raised:"), proc.stdout
        assert "planted" in proc.stdout


class TestCertificates:
    def test_roundtrip(self):
        result = sdepth_of_pair(cycle_quotient(5, 2))
        text = format_certificate(result.certificate)
        parsed = parse_certificate(text, 5)
        assert verify_decomposition(result.poset, parsed, result.value).ok
        assert parse_certificate(format_certificate(parsed), 5).intervals == parsed.intervals

    def test_constant_bottom_renders_as_one(self):
        d = principal_decomposition(parse_monomial("x1*x2", 2))
        text = format_certificate(d)
        assert text.splitlines()[0].startswith("1 ;")

    def test_bad_lines_rejected(self):
        with pytest.raises(InputError):
            parse_certificate("x1*x2 {x1}", 2)
        with pytest.raises(InputError):
            parse_certificate("x1 ; x1, x2", 2)
        with pytest.raises(InputError):
            parse_certificate("x1 ; {x9}", 2)
        # A bottom that does not parse is named by its line, as every other error is.
        with pytest.raises(InputError, match=r"^certificate line 3: unexpected character 'y'"):
            parse_certificate("1 ; {x1}\nx1 ; {x2}\nx2*y ; {x3}\n", 3)
