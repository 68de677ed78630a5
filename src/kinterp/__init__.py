"""Numerical laboratory for limiting K-interpolation formulas on (L1, Linf)."""

from .quadrature import (
    GridSpec,
    IntegralOverflowError,
    IntegralResult,
)
from .weights import (
    WeightExpr,
    One,
    PowerLog,
    ExpLog,
    Product,
    Power,
    Flip,
    SVClassReport,
    parse_weight,
    tail_qnorm,
    head_qnorm,
    classify,
    tilde_construction,
)
from .profiles import (
    KProfile,
    Rearrangement,
    parse_profile,
    check_quasiconcave,
    K_from_rearrangement,
    realize_rearrangement,
    truncation_split,
    conjugate_profile,
    profile_suite,
)
from .norms import (
    SpaceSpec,
    IndexPair,
    space_norm,
    index,
    index_limit,
    quasi_monotone_constant,
    check_condition_monotone_index,
)
from .weighted_ineq import (
    InequalitySpec,
    ConstantReport,
    DivergentIntegralError,
    compute_constant,
    best_constant_probe,
    window_condition,
    hardy_build_v,
    hardy_check,
    hmt_check,
)
from .holmstedt import (
    HolmstedtCase,
    HypothesisError,
    RatioReport,
    rhs_formula,
    lhs_decomposition,
    equivalence_scan,
    negative_demo,
)
from .reiteration import (
    ReiterationSpec,
    LKSpec,
    build_tilde_b,
    build_hat_b,
    log_derivative_check,
    reiteration_check,
    lorentz_karamata_norm,
    lk_identification_check,
)

__version__ = "0.1.0"
