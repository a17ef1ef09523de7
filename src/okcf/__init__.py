"""Exact continued fractions with partial quotients in the ring of
integers of a real quadratic field, and the Q(sqrt(5)) expansion
algorithm for real quartic irrationals with all-real conjugates."""

from .cf import (
    CFExpansion,
    EvalFailure,
    Mat2,
    PeriodicEvalResult,
    QPairState,
    associated_poly,
    cf_matrix,
    continuant,
    convergents,
    e_matrix,
    eval_periodic,
    qpair_states,
)
from .field import (
    FieldSpec,
    InputRuleError,
    KElement,
    SurdElement,
    is_square_in_k,
    rational_sqrt,
    reals_equal,
    sign_of,
)
from .golden import (
    CoveringRadius,
    ExpansionResult,
    GoldenPreconditionError,
    MaxStepsError,
    NoCandidateError,
    PairState,
    RealPair,
    choose_quotient,
    covering_radius,
    expand_pair,
    float_roots,
    lattice_coords,
    squared_distance,
    verify_roundtrip,
)
from .intervals import DEFAULT_BITS, MAX_BITS, PrecisionError, RealInterval
from .parsing import ParseError, parse_expansion, parse_k, parse_rational, parse_surd
from .quartic import (
    PreconditionReport,
    QuadraticPolyK,
    QuotientState,
    SeedError,
    SquareDiscriminantError,
    TrajectoryRow,
    diagnostics,
    make_state,
    naive_height,
    periodicity_preconditions,
    run_trajectory,
    step_state,
    triple_recursion,
    weil_height,
    weil_height4,
    weil_height_element,
)

__version__ = "0.1.0"
