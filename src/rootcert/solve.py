"""Certified solve loop: initialization, iteration with per-step
measurements, stopping rules and empirical convergence-order estimation.
"""

from __future__ import annotations

import math
import numbers
import statistics
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .certify import Certificate, Disk, certificate_at, disks_at, gauge_bundle
from .errors import UnsupportedCombination
from .iterations import MethodKind, step_function
from .measures import Measurement, _measured, norm_context, remember
from .polynomials import Polynomial


@dataclass(frozen=True)
class SolveConfig:
    method: MethodKind = MethodKind.EHRLICH
    p: float = math.inf
    max_iter: int = 100
    w_tol: float = 1e-13
    require_certificate: bool = True

    def __post_init__(self):
        if not isinstance(self.method, MethodKind):
            raise ValueError(f"method must be a MethodKind, got {self.method!r}")
        if not (isinstance(self.max_iter, numbers.Integral)
                and not isinstance(self.max_iter, bool) and self.max_iter >= 1):
            raise ValueError(f"max_iter must be an integer >= 1, got {self.max_iter!r}")
        if not self.w_tol > 0:
            raise ValueError("w_tol must be positive")


@dataclass
class SolveResult:
    """trace is the Measurement of each iterate, x0's first: x_k, W_k, d_k
    and E_k are trace[k].x, .w, .d and .E, and final is trace[-1].x.
    order_estimate is estimate_order(trace), computed each time it is read."""

    trace: List[Measurement]
    certificate: Optional[Certificate]
    final: np.ndarray
    disks: List[Disk]
    disjoint: bool
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.trace) - 1

    @property
    def order_estimate(self) -> Optional[float]:
        return estimate_order(self.trace)


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


def estimate_order(trace: List[Measurement]) -> Optional[float]:
    """Median empirical convergence order from a trace of measurements.

    Uses e_k = max_i |W_i(x^(k))|, read from trace[k].w, and the ratio
    log(e_{k+1}/e_k) / log(e_k/e_{k-1}) over consecutive triples whose
    three e-values all lie in (1e-11, 1e-2); None with fewer than 2
    usable triples.
    """
    e = [float(np.max(np.abs(m.w))) for m in trace]
    ratios = [math.log(c / b) / math.log(b / a) for a, b, c in zip(e, e[1:], e[2:])
              if all(1e-11 < v < 1e-2 for v in (a, b, c)) and math.log(b / a) != 0.0]
    if len(ratios) < 2:
        return None
    return float(statistics.median(ratios))


def solve(f: Polynomial, x0, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Run the Picard iteration of the chosen method from x0.

    With require_certificate the initial conditions are verified first
    (Ehrlich / Dochev-Byrnev / Tanabe) and the run aborts with an unissued
    certificate on failure; the returned bounds and disks are then backed
    by the semilocal theory.  Each iterate's one measurement is its entry
    in the trace and feeds the step, the certificate and the disks; the
    order estimate is read from the trace only when asked for.
    The run stops unconverged at the first iterate whose E is not finite.

    On return, the abort at x0 included, copies of W and d at x0 and at the
    final iterate replace the record in ``measures`` that ``measure`` (behind
    every public function of a point but solve and the steps) reads instead
    of measuring again; solve only writes it, so a repeated request is
    measured again.  x0 is copied: the result never aliases the caller's.
    """
    x0 = np.array(x0, dtype=np.complex128)
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
    trace = []

    m, diff = _measured(f, x0, ctx)
    certificate = None if bundle is None else certificate_at(bundle, m)
    aborted = cfg.require_certificate and not certificate.issued
    while True:
        trace.append(m)
        converged = bool(np.max(np.abs(m.w)) <= tol)
        if (converged or aborted or not math.isfinite(m.E)
                or len(trace) > cfg.max_iter):
            break
        m, diff = _measured(f, step(m, diff), ctx)

    disks, disjoint = [], False
    if certificate is not None and certificate.issued:
        at_final = certificate_at(bundle, m)
        if at_final.issued:
            disks, disjoint = disks_at(at_final, m)

    remember(f, trace[0], m)
    return SolveResult(trace=trace, certificate=certificate, final=m.x, disks=disks,
                       disjoint=disjoint, converged=converged and not aborted)
