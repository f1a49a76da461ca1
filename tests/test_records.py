"""What every record type keeps: value equality with the field-tuple hash, its
repr, no assignment to a frozen record, pickling, ``len`` and the stats lines."""

import pickle

import pytest

from sdepthlab import (
    HomologyStats,
    Monomial,
    ScanRow,
    SearchStats,
    build_poset,
    cycle_path_ideal,
    formula_table,
    hochster_betti,
    parse_ideal,
    prop16_structure_check,
    ring_quotient,
    sdepth_of_pair,
    sr_complex,
    verify_decomposition,
)


FROZEN_TYPES = (
    "BettiTable", "CharacteristicPoset", "ComponentReport", "FormulaRecord",
    "Monomial", "MonomialIdeal", "Prop16Report", "QuotientPresentation", "ScanRow",
    "SdepthResult", "SimplicialComplex", "StanleyDecomposition", "VerificationReport",
)


@pytest.fixture(scope="module")
def frozen():
    """One instance of each frozen record type, with one of its field names."""
    ideal = cycle_path_ideal(5, 2)
    pair = ring_quotient(ideal)
    result = sdepth_of_pair(pair)
    report = prop16_structure_check(5, 2)
    return {
        "Monomial": (ideal.gens[0], "exponents"),
        "MonomialIdeal": (ideal, "gens"),
        "QuotientPresentation": (pair, "denominator"),
        "FormulaRecord": (formula_table(5, 2), "phi"),
        "ScanRow": (ScanRow(5, 2, "thm14", 2, 2, 2, 2, 2, 2, "ok", 0), "status"),
        "ComponentReport": (report.components[0], "component_depth"),
        "Prop16Report": (report, "ok"),
        "CharacteristicPoset": (result.poset, "rho"),
        "StanleyDecomposition": (result.certificate, "intervals"),
        "SdepthResult": (result, "value"),
        "VerificationReport": (verify_decomposition(result.poset, result.certificate, 0), "ok"),
        "SimplicialComplex": (sr_complex(ideal), "nonface_masks"),
        "BettiTable": (hochster_betti(ideal), "entries"),
    }


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_frozen_record_rejects_assignment_and_deletion(frozen, name):
    record, field = frozen[name]
    assert type(record).__name__ == name
    value = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, value)
    with pytest.raises(AttributeError):
        delattr(record, field)
    assert getattr(record, field) is value


@pytest.mark.parametrize("name", FROZEN_TYPES)
def test_frozen_record_survives_pickle(frozen, name):
    record, _ = frozen[name]
    assert pickle.loads(pickle.dumps(record)) == record


def test_scan_row_survives_pickle():
    # The forked scan sends its children's rows to the scan process pickled.
    row = ScanRow(7, 3, "thm14", 2, 3, None, 3, 2, 3, "unknown", 12)
    copy = pickle.loads(pickle.dumps(row))
    assert copy == row
    assert type(copy) is ScanRow


@pytest.mark.parametrize("build, fields", [
    (lambda: Monomial((1, 0, 2)), lambda r: (r.exponents,)),
    (lambda: parse_ideal("n=3: x1*x2, x2*x3"), lambda r: (r.ambient, r.gens)),
    (lambda: ring_quotient(parse_ideal("n=3: x1*x2, x2*x3")),
     lambda r: (r.numerator, r.denominator)),
], ids=["Monomial", "MonomialIdeal", "QuotientPresentation"])
def test_equal_records_built_apart_share_the_field_tuple_hash(build, fields):
    a, b = build(), build()
    assert a is not b
    assert a == b
    assert hash(a) == hash(b) == hash(fields(a))


def test_records_of_other_values_or_types_differ():
    assert Monomial((1, 0)) != Monomial((0, 1))
    assert Monomial((1, 0)) != (1, 0)
    assert parse_ideal("n=2: x1") != parse_ideal("n=3: x1")


def test_repr_names_every_field():
    assert repr(Monomial((1, 0))) == "Monomial(exponents=(1, 0))"
    assert repr(parse_ideal("n=2: x1")) == (
        "MonomialIdeal(ambient=2, gens=(Monomial(exponents=(1, 0)),))"
    )
    assert repr(SearchStats()) == (
        "SearchStats(levels=[], placements=0, stranded_prunes=0, moment_prunes=0,"
        " table_hits=0, stored_states=0, table_clears=0, table_peak_bytes=0,"
        " candidate_tops=0)"
    )
    assert repr(HomologyStats(faces=3)) == (
        "HomologyStats(subsets=0, lcm_skips=0, joins=0, collapses=0, duals=0, faces=3,"
        " boundaries=0, fallbacks=0)"
    )


def test_len_counts_elements_and_intervals():
    poset = build_poset(ring_quotient(parse_ideal("n=2: x1*x2")))
    assert len(poset) == 3 == len(poset.rho)
    certificate = sdepth_of_pair(ring_quotient(cycle_path_ideal(5, 2))).certificate
    assert len(certificate) == len(certificate.intervals) > 0


def test_stats_constructors_keep_their_defaults():
    a, b = SearchStats(), SearchStats()
    assert a == b
    assert a.levels == [] and a.levels is not b.levels
    assert SearchStats([6, 5], 3).placements == 3
    assert HomologyStats(1, 2) == HomologyStats(subsets=1, lcm_skips=2)
    assert HomologyStats(1) != HomologyStats(2)
    with pytest.raises(TypeError):
        hash(SearchStats())


def test_stats_lines_list_the_counters_in_order():
    assert SearchStats().format() == (
        "levels= placements=0 stranded_prunes=0 moment_prunes=0 table_hits=0"
        " stored_states=0 table_clears=0 table_peak_bytes=0 candidate_tops=0"
    )
    stats = SearchStats(levels=[6, 5], placements=7, candidate_tops=2)
    assert stats.format() == (
        "levels=6,5 placements=7 stranded_prunes=0 moment_prunes=0 table_hits=0"
        " stored_states=0 table_clears=0 table_peak_bytes=0 candidate_tops=2"
    )
    assert HomologyStats().format() == (
        "subsets=0 lcm_skips=0 joins=0 collapses=0 duals=0 faces=0 boundaries=0 fallbacks=0"
    )
    assert HomologyStats(fallbacks=1, subsets=4).format() == (
        "subsets=4 lcm_skips=0 joins=0 collapses=0 duals=0 faces=0 boundaries=0 fallbacks=1"
    )
