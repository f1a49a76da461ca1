"""Exact Stanley depth and depth computations for monomial quotients."""

from .errors import (
    IdealSyntaxError,
    InputError,
    InvalidPresentationError,
    PosetCapExceededError,
    ResourceCapError,
    SdepthLabError,
    TimeLimitExceededError,
)
from .families import (
    FormulaRecord,
    cycle_depth_formula,
    cycle_path_ideal,
    formula_table,
    is_equality_case,
    line_depth_formula,
    line_path_ideal,
    proof_tower,
    quotient_module_bound,
)
from .harness import (
    Prop16Report,
    ScanRow,
    emit_csv,
    emit_json,
    emit_md,
    prop16_structure_check,
    run_scan,
)
from .homology import (
    BettiTable,
    HomologyStats,
    SimplicialComplex,
    depth_squarefree,
    hochster_betti,
    homology_ranks,
    sr_complex,
)
from .ideals import (
    Monomial,
    MonomialIdeal,
    QuotientPresentation,
    add_generators,
    colon,
    constant,
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
from .solver import (
    CharacteristicPoset,
    SdepthResult,
    SearchStats,
    StanleyDecomposition,
    VerificationReport,
    build_poset,
    exists_partition,
    format_certificate,
    parse_certificate,
    sdepth_of_pair,
    sdepth_of_poset,
    verify_decomposition,
)

__version__ = "0.1.0"
