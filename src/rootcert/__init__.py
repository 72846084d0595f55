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
    LeadingCoefficientZero,
    NonDistinctComponents,
    NotCertified,
    OutsideDomain,
    RootCertError,
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
from .polynomials import (
    Polynomial,
    evaluate,
    from_roots,
    viete,
)
from .solve import (
    SolveConfig,
    SolveResult,
    default_init,
    estimate_order,
    solve,
)

__version__ = "0.1.0"
