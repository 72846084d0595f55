"""Simultaneous polynomial root-finding with semilocal convergence
certificates, componentwise error bounds and root-inclusion disks."""

from .certify import (
    Certificate,
    Disk,
    GaugeBundle,
    a_posteriori_bound_1,
    a_posteriori_bound_2,
    a_priori_bound,
    certify_initial,
    corollary_threshold,
    gauge_bundle,
    inclusion_disks,
    solve_R,
    w_contraction_bound,
)
from .errors import (
    BadExponent,
    DegreeMismatch,
    EvaluationPointCollision,
    LeadingCoefficientZero,
    NonDistinctComponents,
    NotCertified,
    OutsideDomain,
    RootCertError,
    SingularJacobian,
    UnsupportedCombination,
)
from .iterations import (
    MethodKind,
    StepResult,
    ehrlich_step_bs,
    tanabe_step,
    weierstrass_step,
)
from .measures import (
    Measurement,
    NormContext,
    e_measure,
    measure,
    norm_context,
    p_norm,
    separation,
    weierstrass_correction,
)
from .oracle import (
    MatchedRoots,
    cone_norm,
    dochev_byrnev_step,
    ehrlich_step_newton,
    known_instance,
    match_roots,
    newton_viete_step,
    sigma_sum,
)
from .polynomials import (
    Polynomial,
    coeff_vector,
    evaluate,
    evaluate_with_derivatives,
    from_roots,
    viete,
)
from .solve import (
    IterationTrace,
    SolveConfig,
    SolveResult,
    default_init,
    estimate_order,
    solve,
)

__version__ = "0.1.0"
