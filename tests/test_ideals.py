import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import relabel
from sdepthlab import (
    HomologyStats,
    IdealSyntaxError,
    InputError,
    InvalidPresentationError,
    Monomial,
    MonomialIdeal,
    QuotientPresentation,
    SearchStats,
    add_generators,
    colon,
    constant,
    cycle_path_ideal,
    format_ideal,
    member,
    minimalize,
    monomial,
    parse_ideal,
    parse_monomial,
    ring_quotient,
    unit_ideal,
    variable,
    zero_ideal,
)
from sdepthlab.ideals import MAX_EXPONENT, set_bits


def mono(n, *factors):
    return monomial(n, factors)


class TestParse:
    def test_principal(self):
        ideal = parse_ideal("n=3: x1*x2*x3")
        assert ideal.ambient == 3
        assert ideal.gens == (mono(3, 1, 2, 3),)

    def test_line_family_text(self):
        ideal = parse_ideal("n=4: x1*x2, x2*x3, x3*x4")
        assert len(ideal.gens) == 3
        assert ideal == parse_ideal("n = 4 :  x3*x4 , x1 * x2, x2*x3")

    def test_index_out_of_range(self):
        with pytest.raises(IdealSyntaxError, match="out of range"):
            parse_ideal("n=2: x1*x9")

    def test_zero_ideal_text(self):
        assert parse_ideal("n=3: 0") == zero_ideal(3)

    def test_unit_ideal_text(self):
        assert parse_ideal("n=3: 1") == unit_ideal(3)

    def test_exponents(self):
        ideal = parse_ideal("n=2: x1^2*x2")
        assert ideal.gens[0].exponents == (2, 1)
        assert parse_ideal("n=2: x1*x1*x2") == ideal

    def test_exponent_zero_rejected(self):
        with pytest.raises(IdealSyntaxError, match="exponent 0"):
            parse_ideal("n=2: x1^0")

    def test_exponent_cap(self):
        with pytest.raises(IdealSyntaxError, match="cap"):
            parse_ideal("n=1: x1^31")

    def test_ambient_cap(self):
        with pytest.raises(IdealSyntaxError, match="n must be"):
            parse_ideal("n=21: x1")
        with pytest.raises(IdealSyntaxError):
            parse_ideal("n=0: 0")

    def test_syntax_error_reports_position(self):
        with pytest.raises(IdealSyntaxError) as err:
            parse_ideal("n=2: x1 + x2")
        assert err.value.position == 8

    def test_garbage_rejected(self):
        with pytest.raises(IdealSyntaxError):
            parse_ideal("n=2: x1,")
        with pytest.raises(IdealSyntaxError):
            parse_ideal("x1*x2")


class TestMinimalize:
    def test_absorbs_multiples(self):
        ideal = minimalize([mono(2, 1), mono(2, 1, 2)], 2)
        assert ideal.gens == (mono(2, 1),)

    def test_cycle_full_window_dedups_to_principal(self):
        assert len(cycle_path_ideal(4, 4).gens) == 1

    def test_idempotent_on_minimal_input(self):
        gens = [mono(3, 2, 3), mono(3, 1, 2)]
        ideal = minimalize(gens, 3)
        assert minimalize(ideal.gens, 3) == ideal
        assert ideal.gens == (mono(3, 1, 2), mono(3, 2, 3))

    def test_empty_input_is_zero_ideal(self):
        assert minimalize([], 3).is_zero()

    def test_constructor_rejects_non_canonical(self):
        with pytest.raises(InputError):
            MonomialIdeal(2, (mono(2, 1), mono(2, 1, 2)))


class TestOperations:
    def test_colon_cycle_example(self):
        q = colon(cycle_path_ideal(4, 3), variable(4, 4))
        assert q == minimalize([mono(4, 1, 2), mono(4, 2, 3), mono(4, 1, 3)], 4)

    def test_colon_by_one_is_identity(self):
        ideal = cycle_path_ideal(5, 2)
        assert colon(ideal, constant(5)) == ideal

    def test_colon_seven_three(self):
        q = colon(cycle_path_ideal(7, 3), variable(7, 7))
        expected = minimalize(
            [mono(7, 1, 2), mono(7, 5, 6), mono(7, 6, 1), mono(7, 2, 3, 4), mono(7, 3, 4, 5)], 7
        )
        assert q == expected

    def test_colon_zero_and_unit(self):
        assert colon(zero_ideal(2), variable(2, 1)).is_zero()
        assert colon(unit_ideal(2), variable(2, 1)).is_unit()

    def test_add_generators_seven_three(self):
        u = add_generators(cycle_path_ideal(7, 3), [variable(7, 7)])
        expected = minimalize(
            [mono(7, 7), mono(7, 1, 2, 3), mono(7, 2, 3, 4), mono(7, 3, 4, 5), mono(7, 4, 5, 6)], 7
        )
        assert u == expected

    def test_add_constant_gives_unit(self):
        assert add_generators(cycle_path_ideal(4, 2), [constant(4)]).is_unit()

    def test_add_to_zero(self):
        assert add_generators(zero_ideal(2), [variable(2, 1)]).gens == (variable(2, 1),)

    def test_member(self):
        j = cycle_path_ideal(5, 3)
        assert member(j, mono(5, 1, 2, 3))
        assert not member(j, mono(5, 1, 3))
        assert not member(zero_ideal(5), constant(5))
        assert member(unit_ideal(5), constant(5))

    def test_relabel_identity(self):
        ideal = cycle_path_ideal(4, 2)
        assert relabel(ideal, {j: j for j in range(1, 5)}, 4) == ideal

    def test_relabel_shrinks_ambient(self):
        q = colon(cycle_path_ideal(4, 3), variable(4, 4))
        assert relabel(q, {1: 1, 2: 2, 3: 3}, 3) == cycle_path_ideal(3, 2)

    def test_relabel_missing_support_index(self):
        with pytest.raises(InputError, match="not mapped"):
            relabel(cycle_path_ideal(4, 2), {1: 1, 2: 2, 3: 3}, 4)

    def test_relabel_not_injective(self):
        with pytest.raises(InputError, match="injective"):
            relabel(cycle_path_ideal(3, 2), {1: 1, 2: 1, 3: 2}, 3)


class TestPresentation:
    def test_denominator_must_be_inside(self):
        with pytest.raises(InvalidPresentationError):
            QuotientPresentation(parse_ideal("n=2: x1"), parse_ideal("n=2: x2"))

    def test_module_must_be_nonzero(self):
        ideal = parse_ideal("n=2: x1")
        with pytest.raises(InvalidPresentationError):
            QuotientPresentation(ideal, ideal)

    def test_ring_quotient_of_unit_rejected(self):
        with pytest.raises(InvalidPresentationError):
            ring_quotient(unit_ideal(2))

    def test_cycle_over_line_is_valid(self):
        QuotientPresentation(cycle_path_ideal(5, 2), line_ideal_52())


def line_ideal_52():
    from sdepthlab import line_path_ideal

    return line_path_ideal(5, 2)


# -- property tests ---------------------------------------------------------

small_monomials = st.builds(
    lambda exps: Monomial(tuple(exps)),
    st.lists(st.integers(min_value=0, max_value=3), min_size=3, max_size=3),
)

small_gen_lists = st.lists(small_monomials, min_size=0, max_size=5)


@given(small_gen_lists, st.randoms())
def test_minimalize_order_insensitive(gens, rng):
    shuffled = list(gens)
    rng.shuffle(shuffled)
    assert minimalize(gens, 3) == minimalize(shuffled, 3)


@given(small_gen_lists)
def test_minimalize_idempotent(gens):
    ideal = minimalize(gens, 3)
    assert minimalize(ideal.gens, 3) == ideal


@settings(max_examples=60)
@given(
    st.lists(
        st.builds(
            lambda e: Monomial(tuple(e)),
            st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5),
        ),
        min_size=1,
        max_size=5,
    ),
    st.builds(lambda e: Monomial(tuple(e)), st.lists(st.integers(0, 2), min_size=5, max_size=5)),
    st.builds(lambda e: Monomial(tuple(e)), st.lists(st.integers(0, 2), min_size=5, max_size=5)),
)
def test_colon_composes(gens, u, v):
    ideal = minimalize(gens, 5)
    assert colon(colon(ideal, u), v) == colon(ideal, u.times(v))


@given(small_gen_lists, small_monomials, small_monomials)
def test_member_is_monotone(gens, u, v):
    ideal = minimalize(gens, 3)
    if member(ideal, u):
        assert member(ideal, u.times(v))


@given(small_gen_lists, small_monomials)
def test_colon_contains_ideal(gens, u):
    ideal = minimalize(gens, 3)
    q = colon(ideal, u)
    for g in ideal.gens:
        assert member(q, g)


@given(small_gen_lists)
def test_parse_format_roundtrip(gens):
    ideal = minimalize(gens, 3)
    assert parse_ideal(format_ideal(ideal)) == ideal


def test_roundtrip_unit_and_zero():
    assert parse_ideal(format_ideal(unit_ideal(4))) == unit_ideal(4)
    assert parse_ideal(format_ideal(zero_ideal(4))) == zero_ideal(4)


def test_monomial_guards():
    with pytest.raises(InputError):
        Monomial((1, -1))
    with pytest.raises(InputError):
        Monomial((31,))
    with pytest.raises(InputError):
        Monomial(tuple([0] * 21))
    with pytest.raises(InputError):
        parse_monomial("x1*x2", 1)
    for bad in (1.0, "1"):
        with pytest.raises(InputError, match="nonnegative integers"):
            Monomial((0, bad))
    assert Monomial((MAX_EXPONENT,)).exponents == (MAX_EXPONENT,)
    assert Monomial((True, False)).exponents == (True, False)
    # The message names the first bad exponent.
    with pytest.raises(InputError, match=r"^exponent 31 exceeds the cap 30$"):
        Monomial((31, -1))
    with pytest.raises(InputError, match=r"^exponents must be nonnegative integers, got -1$"):
        Monomial((-1, 31))


@given(st.integers(min_value=0, max_value=2**300) | st.sets(st.integers(0, 2**20 - 1)).map(
    lambda positions: sum(1 << i for i in positions)
))
@example(0)
@example(1 << 2**20 - 1 | 1 << 2**19 | 1)  # three bits over 2^20 digits
def test_set_bits_matches_a_scan_of_every_digit(mask):
    assert set_bits(mask) == [i for i, c in enumerate(reversed(bin(mask))) if c == "1"]


@pytest.mark.parametrize("build", [
    lambda: HomologyStats(1, subsets=2),
    lambda: SearchStats([5], levels=[6]),
    lambda: HomologyStats(nodes=1),
    lambda: HomologyStats(*range(9)),
], ids=["given-twice", "levels-twice", "unknown-name", "too-many-values"])
def test_counters_reject_what_a_constructor_would(build):
    with pytest.raises(TypeError):
        build()
