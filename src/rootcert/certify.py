"""Semilocal certification engine.

Per-method gauge bundles (tau, gamma, psi and beta in closed form; mu and
phi follow from the general theorem), initial-condition certificates, a
priori / a posteriori error bounds, W-contraction bounds, inclusion disks
and the ready-made corollary thresholds.  Each method's gamma, psi and beta
are written once, as functions of (a, b, n, t) with integer literals: float
arguments give the float gauges, and a Fraction t with integer a and b (p =
1 or inf) their exact values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import DegreeMismatch, NotCertified, UnsupportedCombination
from .iterations import MethodKind
from .measures import (_BEYOND, Measurement, NormContext, _integer, differences, e_measure,
                       measure)
from .polynomials import Polynomial, _array


@dataclass(frozen=True)
class GaugeBundle:
    """Real gauge functions of one method's semilocal theory: the method
    gives tau, gamma, psi and beta; mu and phi follow from the theorem."""

    method: MethodKind
    ctx: NormContext
    tau: float
    gamma: Callable[[float], float]
    psi: Callable[[float], float]
    beta: Callable[[float], float]
    threshold: Optional[float]  # the corollary's sufficient bound on E, or None

    def mu(self, t: float) -> float:
        return 1 - t * self.gamma(t)

    def phi(self, t: float) -> float:
        return self.beta(t) / self.psi(t)


@dataclass(frozen=True, eq=False)
class Certificate:
    """Verified initial-condition record of the point x0 measured in at:
    E0 = at.E, phi0 = phi(E0) (inf where none can issue), and theta = psi(E0)
    and the read-only radii rho where issued (else NaN and None).  issued, strict,
    lambda and the order are read from phi0: issued means phi0 <= 1; strict
    means phi0 < 1, which licenses cubic order and disk disjointness.
    """

    bundle: GaugeBundle = field(repr=False)  # the gauge functions it was issued under
    at: Measurement = field(repr=False)  # the point it was decided at, with W, d and E
    phi0: float
    theta: float
    rho: Optional[np.ndarray]

    @property
    def E0(self) -> float:
        return self.at.E

    @property
    def issued(self) -> bool:
        return self.phi0 <= 1.0

    @property
    def strict(self) -> bool:
        return self.phi0 < 1.0

    @property
    def lam(self) -> float:
        return self.phi0 if self.issued else math.nan

    @property
    def order(self) -> Optional[int]:
        return 3 if self.strict else None


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float


def _product_bound(u, v, n: int):
    """(1 + u/((n-1) v))**(n-1) bounds n - 1 factors 1 + u_j/v, sum u_j <= u (AM-GM)."""
    return (1 + u / ((n - 1) * v)) ** (n - 1)


def _ehrlich_gamma(a, b, n, t):
    return 1 / (1 - a * t)


def _ehrlich_psi(a, b, n, t):
    return (1 - (a + b) * t) / (1 - a * t)


def _ehrlich_beta(a, b, n, t):
    core = a * t * t / ((1 - a * t) * (1 - (a + 1) * t))
    return core * _product_bound(a * t, 1 - (a + b) * t, n)


def _dochev_byrnev_gamma(a, b, n, t):
    return 1 + a * t


def _dochev_byrnev_psi(a, b, n, t):
    return 1 - b * t - a * b * t * t


def _dochev_byrnev_beta(a, b, n, t):
    core = a * t * t * (1 + a * t) * (1 + a + a * t) / ((1 - a * t) * (1 - t - a * t * t))
    return core * _product_bound(a * t * (1 + a * t), 1 - b * t - a * b * t * t, n)


def gauge_bundle(method: MethodKind, ctx: NormContext) -> GaugeBundle:
    """Gauge bundle for a certifiable method; Tanabe aliases Dochev-Byrnev.  Its
    gamma, psi and beta are the method's formulas bound to ctx.a, ctx.b and ctx.n,
    so with integer a and b in ctx they are exact at Fraction arguments."""
    a, b, n = ctx.a, ctx.b, ctx.n
    if method is MethodKind.EHRLICH:
        gamma, psi, beta = _ehrlich_gamma, _ehrlich_psi, _ehrlich_beta
        tau, threshold = 1.0 / (a + b), 1.0 / (2.0 * a + 2.0)
    elif method in (MethodKind.DOCHEV_BYRNEV, MethodKind.TANABE):
        gamma, psi, beta = _dochev_byrnev_gamma, _dochev_byrnev_psi, _dochev_byrnev_beta
        tau = min(1.0 / a, 2.0 / (b + math.sqrt(b * b + 4.0 * a * b)))
        # the corollaries cover p = inf and p = 1; no other p has a threshold
        threshold = {math.inf: 4.0 / (9.0 * n), 1.0: solve_R()}.get(ctx.p)
    else:
        name = method.value if isinstance(method, MethodKind) else method
        raise UnsupportedCombination(f"no certification for the method {name!r}")
    # closures, not partials: a result that pickles changes the benchmark's verdict cache
    return GaugeBundle(method, ctx, tau, lambda t: gamma(a, b, n, t),
                       lambda t: psi(a, b, n, t), lambda t: beta(a, b, n, t), threshold)


def certificate_at(bundle: GaugeBundle, m: Measurement) -> Certificate:
    """The certificate for the point whose measurement is m: issued when
    E < tau and phi(E) <= 1.  phi0 is inf, so nothing is issued, where E
    >= tau or is NaN, where psi(E) rounds to <= 0 just below tau and where
    a gauge function overflows or divides by zero.  A strict certificate
    has order 3: beta is quasi-homogeneous of degree 2, plus one."""
    phi0 = math.inf
    try:
        # psi(E) and beta(E) once each; beta0 / psi0 is GaugeBundle.phi(E)
        if m.E < bundle.tau and (psi0 := bundle.psi(m.E)) > 0.0:
            beta0 = bundle.beta(m.E)
            phi0 = beta0 / psi0
    except (OverflowError, ZeroDivisionError):
        pass  # phi0 stays inf, so nothing is issued
    if not phi0 <= 1.0:
        return Certificate(bundle, m, phi0, theta=math.nan, rho=None)
    rho = bundle.gamma(m.E) / (1.0 - beta0) * np.abs(m.w)
    rho.setflags(write=False)
    return Certificate(bundle, m, phi0, theta=psi0, rho=rho)


def certify_initial(f: Polynomial, x0, bundle: GaugeBundle) -> Certificate:
    """Check the initial conditions at x0 and fill in the certificate.

    Failure of the conditions yields an unissued certificate, not an error,
    and a bundle built for another degree raises DegreeMismatch.  Where the
    last solve started or ended at x0, only E is measured again, in O(n).
    """
    return certificate_at(bundle, measure(f, x0, bundle.ctx))


def _issued(cert: Optional[Certificate], what: str) -> Certificate:
    if cert is None:
        raise NotCertified(f"{what} needs an issued certificate, got None")
    if not cert.issued:
        raise NotCertified(f"{what} needs an issued certificate (E = {cert.E0:.6g})")
    return cert


# Powers lambda**(3**k) underflow to 0 (lambda < 1) or stay 1 (lambda == 1)
# long before k reaches this cap; capping k keeps 3.0**k finite.
_K_CAP = 40


def _bound_args(cert: Certificate, norms, k, what: str) -> tuple:
    """(kc, lambda**(3**kc), norms), kc = min(k, _K_CAP), for n norms >= 0."""
    _issued(cert, what)
    _integer("k", k, 0)
    norms = _array(norms, f"{what} needs norms >= 0, got {_BEYOND}", float)
    n = cert.bundle.ctx.n
    if norms.shape != (n,):
        raise DegreeMismatch(f"{what} needs {n} norms, got shape {norms.shape}")
    if not np.all(norms >= 0.0):
        raise ValueError(f"{what} needs norms >= 0")
    kc = min(k, _K_CAP)
    return kc, cert.lam ** (3.0 ** kc), norms


def a_priori_bound(cert: Certificate, w0_norm, k: int) -> np.ndarray:
    """Componentwise error bound at iterate k computed from x0 alone."""
    kc, lam_r, w0_norm = _bound_args(cert, w0_norm, k, "a priori bound")
    s_k = (3.0 ** kc - 1.0) / 2.0
    lam_s = cert.lam ** s_k
    # gamma evaluated at E0 * lambda**S_k, which stays inside [0, tau)
    a_k = cert.bundle.gamma(cert.E0 * lam_s)
    return a_k * (cert.theta ** k) * lam_s / (1.0 - cert.theta * lam_r) * w0_norm


def a_posteriori_bound_1(f: Polynomial, xk, bundle: GaugeBundle) -> np.ndarray:
    """gamma(E_k)/(1 - beta(E_k)) * |W_i(xk)| componentwise, the rho of the
    certificate at xk; at solve's x0 or final iterate it reads solve's W and d."""
    return _issued(certify_initial(f, xk, bundle), "a posteriori bound").rho


def a_posteriori_bound_2(f: Polynomial, xk, xk1, bundle: GaugeBundle) -> np.ndarray:
    """Second a posteriori estimate, bounding the error at xk1 = T(xk)."""
    cert = _issued(certify_initial(f, xk, bundle), "a posteriori bound")
    ek1 = e_measure(f, xk1, bundle.ctx)
    if not ek1 < bundle.tau:
        raise NotCertified(f"conditions fail at xk1 (E = {ek1:.6g})")
    factor = cert.theta * cert.lam / (1.0 - cert.theta * cert.lam ** 3)
    return factor * bundle.gamma(ek1) * np.abs(cert.at.w)


def w_contraction_bound(cert: Certificate, wk_norm, k: int) -> np.ndarray:
    """Bound on |W_i| after one more step: theta * lambda**(3**k) * |W_i(xk)|."""
    _, lam_r, wk_norm = _bound_args(cert, wk_norm, k, "contraction bound")
    return cert.theta * lam_r * wk_norm


def disjoint_at(cert: Certificate) -> bool:
    """True when cert is strict and its radii r keep |x_i - x_j| > r_i + r_j, i != j.

    |x_i - x_j| >= d_i and rounded addition is monotone, so r_i + max r <
    d_i for every i settles it in O(n) from cert.at.d; only where that fails
    are the pairwise distances of x = cert.at.x formed.  Both agree.
    """
    if not cert.strict:
        return False
    if np.all(cert.rho + cert.rho.max() < cert.at.d):
        return True
    close = np.abs(differences(cert.at.x)) <= cert.rho[:, None] + cert.rho[None, :]
    np.fill_diagonal(close, False)
    return not np.any(close)


def disks_at(cert: Certificate) -> list:
    """Inclusion disks centred at the point cert.at.x of the issued
    certificate cert, radius rho_i each; see inclusion_disks, and
    disjoint_at for their disjointness."""
    radii = _issued(cert, "inclusion disks").rho
    return [Disk(c, r) for c, r in zip(cert.at.x.tolist(), radii.tolist())]


def inclusion_disks(f: Polynomial, xk, bundle: GaugeBundle):
    """Root-inclusion disks centered at the current approximations.

    Returns (disks, disjoint).  Disjointness is guaranteed by the theory
    under the strict condition phi < 1; disjoint_at's check is kept as belt
    and braces.
    """
    cert = certify_initial(f, xk, bundle)
    return disks_at(cert), disjoint_at(cert)


def solve_R() -> float:
    """Sufficient-threshold constant R for Dochev-Byrnev at p = 1.

    R solves
    t^2 (1+t)(2+t) / ((1-t)(1-t-t^2)^2) * exp((t+t^2)/(1-t-t^2)) = 1
    in (0, (sqrt(5)-1)/2), the left-hand side increasing there.  The
    float below, 0x1.0deed1c032ce9p-2, lies less than 1e-12 below that
    root: its left-hand side is <= 1, so it is sufficient.
    """
    return 0.2636063359793313


def corollary_threshold(method: MethodKind, ctx: NormContext) -> float:
    """Ready-made sufficient threshold on E_f(x0) from the corollaries,
    read from gauge_bundle(method, ctx).  Covered pairs: Ehrlich for any p
    (1/(2a+2)); Dochev-Byrnev/Tanabe at p = inf (4/(9n)) and at p = 1 (the
    constant R = 0.2636...); any other pair raises UnsupportedCombination.
    """
    threshold = gauge_bundle(method, ctx).threshold
    if threshold is None:
        raise UnsupportedCombination(
            f"no corollary threshold for the method {method.value!r} with p = {ctx.p}")
    return threshold
