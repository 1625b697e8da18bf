"""Weierstrass elliptic function numerics over complex lattices."""

from .cm import (
    CMRationalPair,
    DiscExtension,
    DiscReport,
    PoleSumMap,
    disc_eval,
    fit_multiplier_maps,
    verify_disc_extension,
)
from .errors import (
    DegenerateAddition,
    DegenerateLattice,
    DomainError,
    FitFailure,
    HalfPeriodSingularity,
    PoleError,
    RootFindingFailure,
    SingularSample,
    WeierpError,
)
from .identities import (
    DivisionPolynomialSet,
    RationalMap,
    addition_formula,
    curve_polynomial,
    diffeq_residual,
    division_polynomials,
    division_values,
    duplication,
    duplication_rational_map,
    multiplication_by_n,
)
from .interval_maps import (
    ChainRuleInstance,
    ChainRuleReport,
    IntervalBijection,
    build_chain_matrix,
    chain_rule_check,
    from_line,
    from_line_aux,
    from_line_deriv,
    to_line,
    to_line_deriv,
)
from .lattice import (
    CMWitness,
    Invariants,
    Lattice,
    LatticeClass,
    classify_real,
    detect_cm,
    eisenstein_invariants,
    ensure_reduced,
    invariants_qseries,
    is_closed_under_conjugation,
    reduce_generators,
    shortest_vector,
)
from .verify import SuiteResult, run_all_suites
from .wp import (
    EvalResult,
    LaurentCoefficients,
    WpMany,
    laurent_coefficients,
    pole_distance,
    pole_distance_many,
    wp_direct_sum,
    wp_eval,
    wp_many,
    wp_prime_eval,
    wp_second_eval,
)

__version__ = "0.1.0"
