"""Certified solve loop: initialization, iteration with per-step
measurements, stopping rules and empirical convergence-order estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .certify import Certificate, Disk, certificate_at, disjoint_at, disks_at, gauge_bundle
from .errors import UnsupportedCombination
from .iterations import _STEP_MAPS, MethodKind
from .measures import (Measurement, _checked, _exponent, _integer, _measured, _setting,
                       _with_d, norm_context, remember)
from .polynomials import Polynomial, _finite


@dataclass(frozen=True)
class SolveConfig:
    """A solve's settings, each checked once, when built."""

    method: MethodKind = MethodKind.EHRLICH
    p: float = math.inf
    max_iter: int = 100
    w_tol: float = 1e-13
    require_certificate: bool = True

    def __post_init__(self):
        if not isinstance(self.method, MethodKind):
            raise ValueError(f"method must be a MethodKind, got {self.method!r}")
        _exponent(self.p)
        _integer("max_iter", self.max_iter, 1)
        _setting("w_tol", self.w_tol, "be finite and > 0", lambda t: math.isfinite(t) and t > 0)
        if not isinstance(rc := self.require_certificate, (bool, np.bool_)):
            raise ValueError(f"require_certificate must be a bool, got {rc!r}")
        if self.method is MethodKind.WEIERSTRASS and self.require_certificate:
            raise UnsupportedCombination("the Weierstrass method has no certificate; "
                                         "set require_certificate=False")


@dataclass(frozen=True, eq=False)
class SolveResult:
    """A frozen value.  trace is the tuple of each iterate's Measurement, x0's
    first: x_k, W_k, d_k and E_k are trace[k].x, .w, .d and .E, the last two
    cached properties, where d_k between x0 and the last iterate is reduced
    from x_k when first read; final is trace[-1].x, and final_certificate
    the certificate at trace[-1], None unless certificate issued; disks,
    disjoint and order_estimate are computed when read."""

    trace: Tuple[Measurement, ...]
    certificate: Optional[Certificate]
    final_certificate: Optional[Certificate]
    final: np.ndarray
    converged: bool

    @property
    def disks(self) -> List[Disk]:
        c = self.final_certificate
        return disks_at(c) if c is not None and c.issued else []

    @property
    def disjoint(self) -> bool:
        c = self.final_certificate
        return c is not None and disjoint_at(c)

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
    Pairwise distinct by construction; a ValueError where not finite (rotation too)."""
    rotation = _setting("rotation", rotation, "be a finite real", math.isfinite)
    n, error = f.degree, "default_init: the starting circle is not finite for these coefficients"
    with np.errstate(all="ignore"):  # an overflow is reported by the ValueError
        c = f.coeffs / f.coeffs[0]
        center = -c[1] / n
        radius = 1.0 + max(abs(c[i]) ** (1.0 / i) for i in range(1, n + 1))
        angles = 2.0 * np.pi * np.arange(n) / n + rotation
        return _finite(center + radius * np.exp(1j * angles), error)


def estimate_order(trace: Sequence[Measurement]) -> Optional[float]:
    """Median empirical convergence order from a trace of measurements.

    Uses e_k = max_i |W_i(x^(k))|, read from trace[k].w, and the ratio
    log(e_{k+1}/e_k) / log(e_k/e_{k-1}) over consecutive triples whose
    three e-values all lie in (1e-11, 1e-2); None with fewer than 2
    usable triples.
    """
    e = [float(np.abs(m.w).max()) for m in trace]
    ratios = sorted(math.log(c / b) / math.log(b / a) for a, b, c in zip(e, e[1:], e[2:])
                    if all(1e-11 < v < 1e-2 for v in (a, b, c)) and math.log(b / a) != 0.0)
    if len(ratios) < 2:
        return None
    # the median as statistics.median takes it, which would load fractions and decimal
    half = len(ratios) // 2
    return ratios[half] if len(ratios) % 2 else (ratios[half - 1] + ratios[half]) / 2


def solve(f: Polynomial, x0, cfg: SolveConfig = SolveConfig()) -> SolveResult:
    """Run the Picard iteration of the chosen method from x0.

    With require_certificate the initial conditions are verified first
    (Ehrlich / Dochev-Byrnev / Tanabe) and the run aborts with an unissued
    certificate on failure; the returned bounds and disks are then backed
    by the semilocal theory.  Each iterate's one measurement is its entry
    in the trace and feeds the step and the certificates at x0 and the final
    iterate; the disks and the order estimate are read only when asked for.
    The steps read W and D alone, so d is reduced from D, by _with_d, only
    at x0 and the final iterate; any other entry reduces it from its x the
    first time it is read, once, to the same bits, and E when read.  The
    run stops unconverged at the first iterate whose W is not finite,
    which E then is not either.

    On return, the abort at x0 included, W and d at x0 and at the final
    iterate replace the record in ``measures`` that ``measure`` (behind
    every public function of a point but solve and the steps) reads instead
    of measuring again; solve only writes it, so a repeated request is
    measured again.  x0 is checked and copied as every function of a point
    checks and copies its point: the result never aliases the caller's.
    """
    ctx = norm_context(f.degree, cfg.p)
    bundle = (None if cfg.method is MethodKind.WEIERSTRASS
              else gauge_bundle(cfg.method, ctx))

    tol = cfg.w_tol * max(1.0, float(np.max(np.abs(f.coeffs))))
    trace = []

    m, diff = _measured(f, _checked(f, x0, ctx), ctx)
    _with_d(m, diff)  # x0's certificate reads E straight away
    certificate = None if bundle is None else certificate_at(bundle, m)
    aborted = cfg.require_certificate and not certificate.issued
    while True:
        trace.append(m)
        w_max = float(np.abs(m.w).max())
        converged = w_max <= tol
        if converged or aborted or not math.isfinite(w_max) or len(trace) > cfg.max_iter:
            break
        x = _STEP_MAPS[cfg.method](m, diff)
        del diff  # freed before the next D is built
        m, diff = _measured(f, x, ctx)

    _with_d(m, diff)  # d at the final iterate, from the D still held
    remember(f, trace[0], m)
    at_final = certificate_at(bundle, m) if certificate and certificate.issued else None
    return SolveResult(trace=tuple(trace), certificate=certificate, final_certificate=at_final,
                       final=m.x, converged=converged and not aborted)
