"""Certified solve loop: initialization, iteration with per-step
measurements, stopping rules and empirical convergence-order estimation.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .certify import Certificate, Disk, certificate_at, disks_at, gauge_bundle
from .errors import UnsupportedCombination
from .iterations import MethodKind, step_function
from .measures import measure, norm_context
from .polynomials import Polynomial


@dataclass(frozen=True)
class SolveConfig:
    method: MethodKind = MethodKind.EHRLICH
    p: float = math.inf
    max_iter: int = 100
    w_tol: float = 1e-13
    require_certificate: bool = True

    def __post_init__(self):
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not self.w_tol > 0:
            raise ValueError("w_tol must be positive")


@dataclass
class IterationTrace:
    iterates: List[np.ndarray] = field(default_factory=list)
    w_norms: List[np.ndarray] = field(default_factory=list)
    e_values: List[float] = field(default_factory=list)


@dataclass
class SolveResult:
    trace: IterationTrace
    certificate: Optional[Certificate]
    final: np.ndarray
    disks: List[Disk]
    disjoint: bool
    converged: bool
    order_estimate: Optional[float]

    @property
    def iterations(self) -> int:
        return len(self.trace.iterates) - 1


def default_init(f: Polynomial, rotation: float = 0.4) -> np.ndarray:
    """Aberth-style starting points: n points equally spaced on a circle
    centered at the coefficient centroid -C_1/(n C_0), with radius
    1 + max_i |C_i/C_0|**(1/i) and a rotation to break symmetry.
    Pairwise distinct by construction."""
    n = f.degree
    c = f.coeffs / f.coeffs[0]
    center = -c[1] / n
    radius = 1.0 + max(abs(c[i]) ** (1.0 / i) for i in range(1, n + 1))
    angles = 2.0 * np.pi * np.arange(n) / n + rotation
    return center + radius * np.exp(1j * angles)


def estimate_order(trace: IterationTrace) -> Optional[float]:
    """Median empirical convergence order from the trace.

    Uses e_k = max_i |W_i(x^(k))| and the ratio
    log(e_{k+1}/e_k) / log(e_k/e_{k-1}) over consecutive triples whose
    three e-values all lie in (1e-11, 1e-2); None with fewer than 2
    usable triples.
    """
    e = [float(np.max(w)) for w in trace.w_norms]
    ratios = []
    for k in range(1, len(e) - 1):
        window = e[k - 1:k + 2]
        if all(1e-11 < v < 1e-2 for v in window):
            denom = math.log(e[k] / e[k - 1])
            numer = math.log(e[k + 1] / e[k])
            if denom != 0.0:
                ratios.append(numer / denom)
    if len(ratios) < 2:
        return None
    return float(statistics.median(ratios))


def solve(f: Polynomial, x0, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Run the Picard iteration of the chosen method from x0.

    With require_certificate the initial conditions are verified first
    (Ehrlich / Dochev-Byrnev / Tanabe) and the run aborts with an unissued
    certificate on failure; the returned bounds and disks are then backed
    by the semilocal theory.  Each iterate is measured once, and that
    measurement feeds the step, the trace, the certificate and the disks.
    The run stops unconverged at the first iterate whose E is not finite.
    """
    x0 = np.asarray(x0, dtype=np.complex128)
    if not np.all(np.isfinite(x0)):
        raise ValueError("starting points must be finite")
    ctx = norm_context(f.degree, cfg.p)
    bundle = None
    if cfg.method is not MethodKind.WEIERSTRASS:
        bundle = gauge_bundle(cfg.method, ctx)
    elif cfg.require_certificate:
        raise UnsupportedCombination(
            "the Weierstrass method has no certificate; "
            "set require_certificate=False")

    tol = cfg.w_tol * max(1.0, float(np.max(np.abs(f.coeffs))))
    step = step_function(cfg.method)
    trace = IterationTrace()

    def record(x, m) -> bool:
        trace.iterates.append(x)
        trace.w_norms.append(np.abs(m.w))
        trace.e_values.append(m.E)
        return bool(np.max(trace.w_norms[-1]) <= tol)

    x = x0
    m = measure(f, x, ctx)
    certificate = None if bundle is None else certificate_at(bundle, m)
    converged = record(x, m)
    if cfg.require_certificate and not certificate.issued:
        return SolveResult(trace=trace, certificate=certificate, final=x0,
                           disks=[], disjoint=False, converged=False,
                           order_estimate=None)

    while not converged and math.isfinite(m.E) and len(trace.iterates) <= cfg.max_iter:
        x = step(x, m.w, m.diff)
        m = measure(f, x, ctx)
        converged = record(x, m)

    disks: List[Disk] = []
    disjoint = False
    if certificate is not None and certificate.issued:
        at_final = certificate_at(bundle, m)
        if at_final.issued:
            disks, disjoint = disks_at(x, at_final, m)

    return SolveResult(trace=trace, certificate=certificate, final=x,
                       disks=disks, disjoint=disjoint, converged=converged,
                       order_estimate=estimate_order(trace))
