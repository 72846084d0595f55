"""Semilocal certification engine.

Per-method gauge bundles (tau, gamma, psi and beta in closed form; mu and
phi follow from the general theorem), initial-condition certificates, a
priori / a posteriori error bounds, W-contraction bounds, inclusion disks
and the ready-made corollary thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import NotCertified, UnsupportedCombination
from .iterations import MethodKind
from .measures import Measurement, NormContext, e_measure, measure
from .polynomials import Polynomial


@dataclass(frozen=True)
class GaugeBundle:
    """Real gauge functions controlling one method's semilocal theory.

    Each method gives tau, gamma, psi and beta; mu and phi follow from
    the general theorem.  beta is quasi-homogeneous of degree m = 2,
    which makes the certified convergence order r = m + 1 = 3.
    """

    method: MethodKind
    ctx: NormContext
    tau: float
    gamma: Callable[[float], float]
    psi: Callable[[float], float]
    beta: Callable[[float], float]
    r: int = 3

    def mu(self, t: float) -> float:
        return 1.0 - t * self.gamma(t)

    def phi(self, t: float) -> float:
        return self.beta(t) / self.psi(t)


def _finite_or_none(v: float):
    return float(v) if math.isfinite(v) else None


@dataclass(frozen=True)
class Certificate:
    """Verified initial-condition record.

    issued means E0 < tau and phi(E0) <= 1; strict additionally requires
    phi(E0) < 1, which is what licenses cubic order and disk disjointness.
    """

    method: MethodKind
    ctx: NormContext
    E0: float
    tau: float
    phi0: float
    strict: bool
    lam: float
    theta: float
    rho: Optional[np.ndarray]
    order: Optional[int]
    issued: bool
    bundle: GaugeBundle = field(repr=False)  # the gauge functions it was issued under

    def to_dict(self) -> dict:
        return {
            "method": self.method.value,
            "n": self.ctx.n,
            "p": "inf" if math.isinf(self.ctx.p) else self.ctx.p,
            "E0": _finite_or_none(self.E0),
            "tau": self.tau,
            "phi0": _finite_or_none(self.phi0),
            "strict": self.strict,
            "lambda": _finite_or_none(self.lam),
            "theta": _finite_or_none(self.theta),
            "rho": None if self.rho is None else [float(r) for r in self.rho],
            "order": self.order,
            "issued": self.issued,
        }


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float


def _ehrlich_bundle(ctx: NormContext) -> GaugeBundle:
    a, b, n = ctx.a, ctx.b, ctx.n
    tau = 1.0 / (a + b)

    def gamma(t):
        return 1.0 / (1.0 - a * t)

    def psi(t):
        return (1.0 - (a + b) * t) / (1.0 - a * t)

    def beta(t):
        core = a * t * t / ((1.0 - a * t) * (1.0 - (a + 1.0) * t))
        bump = (1.0 + a * t / ((n - 1) * (1.0 - (a + b) * t))) ** (n - 1)
        return core * bump

    return GaugeBundle(MethodKind.EHRLICH, ctx, tau, gamma, psi, beta)


def _dochev_byrnev_bundle(ctx: NormContext) -> GaugeBundle:
    a, b, n = ctx.a, ctx.b, ctx.n
    tau = min(1.0 / a, 2.0 / (b + math.sqrt(b * b + 4.0 * a * b)))

    def gamma(t):
        return 1.0 + a * t

    def psi(t):
        return 1.0 - b * t - a * b * t * t

    def beta(t):
        core = (a * t * t * (1.0 + a * t) * (1.0 + a + a * t)
                / ((1.0 - a * t) * (1.0 - t - a * t * t)))
        bump = (1.0 + a * t * (1.0 + a * t)
                / ((n - 1) * (1.0 - b * t - a * b * t * t))) ** (n - 1)
        return core * bump

    return GaugeBundle(MethodKind.DOCHEV_BYRNEV, ctx, tau, gamma, psi, beta)


def gauge_bundle(method: MethodKind, ctx: NormContext) -> GaugeBundle:
    """Gauge bundle for a certifiable method; Tanabe aliases Dochev-Byrnev."""
    if method is MethodKind.EHRLICH:
        return _ehrlich_bundle(ctx)
    if method in (MethodKind.DOCHEV_BYRNEV, MethodKind.TANABE):
        return replace(_dochev_byrnev_bundle(ctx), method=method)
    raise UnsupportedCombination("no certification for the Weierstrass method")


def certificate_at(bundle: GaugeBundle, m: Measurement) -> Certificate:
    """The certificate for the point whose measurement is m: issued when
    E < tau and phi(E) <= 1, with phi(E) = inf where E >= tau or is NaN."""
    phi0 = bundle.phi(m.E) if m.E < bundle.tau else math.inf
    issued = phi0 <= 1.0
    strict = issued and phi0 < 1.0
    if issued:
        lam, theta = phi0, bundle.psi(m.E)
        rho = bundle.gamma(m.E) / (1.0 - bundle.beta(m.E)) * np.abs(m.w)
    else:
        lam, theta, rho = math.nan, math.nan, None
    return Certificate(method=bundle.method, ctx=bundle.ctx, E0=m.E,
                       tau=bundle.tau, phi0=phi0, strict=strict, lam=lam,
                       theta=theta, rho=rho, order=bundle.r if strict else None,
                       issued=issued, bundle=bundle)


def certify_initial(f: Polynomial, x0, bundle: GaugeBundle) -> Certificate:
    """Check the initial conditions at x0 and fill in the certificate.

    Failure of the conditions yields an unissued certificate, not an error.
    """
    return certificate_at(bundle, measure(f, x0, bundle.ctx))


def _issued(cert: Certificate, what: str) -> Certificate:
    if not cert.issued:
        raise NotCertified(f"{what} needs an issued certificate (E = {cert.E0:.6g})")
    return cert


# Powers lambda**(3**k) underflow to 0 (lambda < 1) or stay 1 (lambda == 1)
# long before k reaches this cap; capping k keeps 3.0**k finite.
_K_CAP = 40


def a_priori_bound(cert: Certificate, w0_norm, k: int) -> np.ndarray:
    """Componentwise error bound at iterate k computed from x0 alone."""
    _issued(cert, "a priori bound")
    if k < 0:
        raise ValueError("k must be >= 0")
    w0_norm = np.asarray(w0_norm, dtype=float)
    kc = min(k, _K_CAP)
    s_k = (3.0 ** kc - 1.0) / 2.0
    lam_s = cert.lam ** s_k
    lam_r = cert.lam ** (3.0 ** kc)
    # gamma evaluated at E0 * lambda**S_k, which stays inside [0, tau)
    a_k = cert.bundle.gamma(cert.E0 * lam_s)
    return a_k * (cert.theta ** k) * lam_s / (1.0 - cert.theta * lam_r) * w0_norm


def a_posteriori_bound_1(f: Polynomial, xk, bundle: GaugeBundle) -> np.ndarray:
    """gamma(E_k)/(1 - beta(E_k)) * |W_i(xk)| componentwise."""
    return _issued(certify_initial(f, xk, bundle), "a posteriori bound").rho


def a_posteriori_bound_2(f: Polynomial, xk, xk1, bundle: GaugeBundle) -> np.ndarray:
    """Second a posteriori estimate, bounding the error at xk1 = T(xk)."""
    m = measure(f, xk, bundle.ctx)
    cert = _issued(certificate_at(bundle, m), "a posteriori bound")
    ek1 = e_measure(f, xk1, bundle.ctx)
    if not ek1 < bundle.tau:
        raise NotCertified(f"conditions fail at xk1 (E = {ek1:.6g})")
    factor = cert.theta * cert.lam / (1.0 - cert.theta * cert.lam ** 3)
    return factor * bundle.gamma(ek1) * np.abs(m.w)


def w_contraction_bound(cert: Certificate, wk_norm, k: int) -> np.ndarray:
    """Bound on |W_i| after one more step: theta * lambda**(3**k) * |W_i(xk)|."""
    _issued(cert, "contraction bound")
    wk_norm = np.asarray(wk_norm, dtype=float)
    lam_r = cert.lam ** (3.0 ** min(k, _K_CAP))
    return cert.theta * lam_r * wk_norm


def disks_at(x: np.ndarray, cert: Certificate, diff: np.ndarray):
    """Inclusion disks at x from its certificate cert and diff =
    differences(x); see inclusion_disks."""
    radii = _issued(cert, "inclusion disks").rho
    disks = [Disk(complex(c), float(r)) for c, r in zip(x, radii)]
    close = np.abs(diff) <= radii[:, None] + radii[None, :]
    np.fill_diagonal(close, False)
    return disks, bool(cert.strict and not np.any(close))


def inclusion_disks(f: Polynomial, xk, bundle: GaugeBundle):
    """Root-inclusion disks centered at the current approximations.

    Returns (disks, disjoint).  Disjointness is guaranteed by the theory
    under the strict condition phi < 1; the pairwise numeric check is kept
    as belt and braces.
    """
    m = measure(f, xk, bundle.ctx)
    return disks_at(xk, certificate_at(bundle, m), m.diff)


def solve_R() -> float:
    """Sufficient-threshold constant for Dochev-Byrnev at p = 1.

    Unique solution of
    t^2 (1+t)(2+t) / ((1-t)(1-t-t^2)^2) * exp((t+t^2)/(1-t-t^2)) = 1
    in (0, (sqrt(5)-1)/2), found by bisection to 1e-12.  The returned end
    of the final bracket has left-hand side <= 1, so it is sufficient.
    """

    def lhs(t):
        u = 1.0 - t - t * t
        # exponent blows up near the right bracket end; clamp to keep
        # the sign information without overflowing
        return (t * t * (1.0 + t) * (2.0 + t) / ((1.0 - t) * u * u)
                * math.exp(min((t + t * t) / u, 700.0)))

    lo, hi = 1e-9, 0.618
    while hi - lo > 1e-12:
        mid = 0.5 * (lo + hi)
        if lhs(mid) <= 1.0:
            lo = mid
        else:
            hi = mid
    return lo


def corollary_threshold(method: MethodKind, ctx: NormContext) -> float:
    """Ready-made sufficient threshold on E_f(x0) from the corollaries.

    Covered pairs: Ehrlich for any p (1/(2a+2)); Dochev-Byrnev/Tanabe at
    p = inf (4/(9n)) and at p = 1 (the constant R = 0.2636...).
    """
    if method is MethodKind.EHRLICH:
        return 1.0 / (2.0 * ctx.a + 2.0)
    if method in (MethodKind.DOCHEV_BYRNEV, MethodKind.TANABE):
        if math.isinf(ctx.p):
            return 4.0 / (9.0 * ctx.n)
        if ctx.p == 1:
            return solve_R()
        raise UnsupportedCombination(
            f"no corollary threshold for Dochev-Byrnev with p = {ctx.p}")
    raise UnsupportedCombination("no corollary threshold for Weierstrass")
