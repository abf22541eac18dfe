"""Shuffle-algebra, exact rational-function, and numeric Chen-series
machinery for hyperlogarithms, with a linear-independence certifier."""

from .words import (
    Alphabet,
    EMPTY_WORD,
    Letter,
    MultiDegree,
    Word,
    coshuffle,
    graded_lex_compare,
    graded_lex_key,
    multi_degree,
    partial_degree,
    shuffle,
)
from .ratfun import (
    GaussianRational,
    PoleEvaluationError,
    PoleLocalizedRational,
    PoleSet,
    PoleSetMismatchError,
    ResidueObstruction,
    format_gaussian,
    format_plr,
    format_plr_pretty,
    parse_gaussian,
    parse_plr,
)
from .ncalg import (
    Multiplier,
    NCPolynomial,
    UnresolvedWordError,
    ZeroPolynomialError,
    format_ncpoly,
    leading_monomial,
    left_residual,
    monic_normalize,
    pair,
    reconstruction_check,
    reduce,
    right_residual,
    shuffle_product,
)
from .chen import (
    CoefficientTable,
    PathGeometryError,
    PathSpec,
    StepSizeUnderflowError,
    build_path,
    eval_coeffs,
    grouplike_defect,
    grouplike_report,
)
from .cert import (
    Dependent,
    Independent,
    IndependenceVerdict,
    Relation,
    RelationStatus,
    RationalCoefficientTable,
    certify,
    discover_relations,
    normal_form_table,
    numeric_relation_defect,
    rational_coefficient_table,
    residue_matrix,
    sample_matrix,
    verify_relation,
    witness_to_degree1_relation,
)

__version__ = "0.1.0"
