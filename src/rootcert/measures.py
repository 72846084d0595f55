"""Measurement layer: separations, Weierstrass corrections and the
initial-condition measure E_f together with its p-norm machinery.

``_checked`` copies a caller's point where it enters and requires n =
f.degree finite entries; ``_measured``, the one path that computes W, d
and E into a ``Measurement`` that carries its point, trusts it.  A zero
d_i, and nothing else, decides that components coincide.  Each of d, W
and sigma is a reduction of one pairwise-difference matrix D per point,
built by ``differences``, which ``_measured`` hands to the step map that
follows, D's one reader, and keeps nowhere.

Whenever ``solve`` returns, it leaves W and d at x0 and at its final
iterate in one O(n) record, keyed by the exact bytes of f.coeffs and of
the point.  ``measure``, behind every public function of a point but
``solve`` and the steps, reads it first and on a hit returns the bits a
fresh measurement gives, in fresh arrays.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import BadExponent, DegreeMismatch, NonDistinctComponents
from .polynomials import Polynomial, evaluate


@dataclass(frozen=True)
class NormContext:
    """The (n, p) pair with its conjugate exponent and the derived constants.

    a = (n-1)**(1/q) and b = 2**(1/q) where 1/p + 1/q = 1.  The endpoint
    conventions are hard-coded: p = 1 gives q = inf hence a = b = 1, and
    p = inf gives q = 1 hence a = n - 1, b = 2.
    """

    n: int
    p: float
    q: float
    a: float
    b: float


def _integer(name: str, v, low: int) -> int:
    """int(v) by the one rule for an integer setting: an Integral, not a bool, >= low."""
    if not (isinstance(v, numbers.Integral) and not isinstance(v, bool) and v >= low):
        raise ValueError(f"{name} must be an integer >= {low}, got {v!r}")
    return int(v)


def _real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


def _exponent(p) -> float:
    """float(p) by the one rule for an exponent: a real, not a bool, 1 <= p <= inf."""
    if not _real(p) or math.isnan(p := float(p)) or p < 1:
        raise BadExponent(f"p must satisfy 1 <= p <= inf, got {p!r}")
    return p


def norm_context(n: int, p: float) -> NormContext:
    """Build a NormContext for an n-point configuration and exponent p."""
    n, p = _integer("n", n, 2), _exponent(p)
    if p == 1:
        q, a, b = math.inf, 1.0, 1.0
    elif math.isinf(p):
        q, a, b = 1.0, float(n - 1), 2.0
    else:
        q = p / (p - 1)
        a = (n - 1) ** (1.0 / q)
        b = 2.0 ** (1.0 / q)
    return NormContext(n=n, p=p, q=q, a=a, b=b)


def p_norm(v, p: float) -> float:
    """p-norm of a nonnegative real vector, rescaled by the maximum to
    avoid overflow for large p; inf where an entry is inf.  Anything but a
    vector of entries >= 0 (NaN aside) raises ValueError."""
    v, p = np.asarray(v, dtype=float), _exponent(p)
    if v.shape == (0,):
        return 0.0
    if v.ndim != 1 or v.min() < 0.0:
        raise ValueError(f"p_norm needs a vector of entries >= 0, got shape {v.shape}")
    m = float(np.max(v))
    if m == 0.0 or math.isinf(m) or math.isinf(p):
        return m
    if p == 1:
        return float(np.sum(v))
    return m * float(np.sum((v / m) ** p)) ** (1.0 / p)


def differences(x) -> np.ndarray:
    """D[j, i] = x_i - x_j, with a unit diagonal.

    Every reduction over j runs along axis 0, where numpy combines whole
    contiguous rows; along axis 1 it reduces complex products one row at
    a time in a scalar loop, several times slower.
    """
    x = np.asarray(x, dtype=np.complex128)
    diff = x[None, :] - x[:, None]
    np.fill_diagonal(diff, 1.0)
    return diff


def _finite(x: np.ndarray) -> np.ndarray:
    """x, where its entries are all finite, as every point must be."""
    if not np.all(np.isfinite(x)):
        raise ValueError("points must be finite")
    return x


def separation(x, diff: np.ndarray | None = None) -> np.ndarray:
    """d_i(x) = min over j != i of |x_i - x_j|, read from diff =
    differences(x) when given, else from x, checked finite; zero entries
    signal coinciding components and are left for the caller to reject."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"need a vector of at least 2 components, got shape {x.shape}")
    gaps = np.abs(differences(_finite(x)) if diff is None else diff)
    np.fill_diagonal(gaps, np.inf)
    return gaps.min(axis=0)


def sigmas(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """sigma_i = sum over j != i of W_j / (x_i - x_j), all i at once,
    from W and diff = differences(x)."""
    ratio = w[:, None] / diff
    np.fill_diagonal(ratio, 0.0)
    return ratio.sum(axis=0)


@dataclass(frozen=True)
class Measurement:
    """A point vector x (complex128) with W_f(x), d(x) and E_f(x) =
    ||W_f(x) / d(x)||_p."""

    x: np.ndarray
    w: np.ndarray
    d: np.ndarray
    E: float


def _checked(f: Polynomial, x, ctx: NormContext) -> np.ndarray:
    """A complex128 copy of x, a vector of n = ctx.n = f.degree finite points."""
    x = np.array(x, dtype=np.complex128)
    if x.ndim != 1:
        raise DegreeMismatch(f"points must form a vector, got shape {x.shape}")
    if not x.size == ctx.n == f.degree:
        raise DegreeMismatch(f"{x.size} points and n = {ctx.n} for degree {f.degree}")
    return _finite(x)


def _measurement(x, w, d, ctx: NormContext) -> Measurement:
    return Measurement(x=x, w=w, d=d, E=p_norm(np.abs(w) / d, ctx.p))


def _measured(f: Polynomial, x, ctx: NormContext):
    """(Measurement, D) at the checked point x, measured afresh, with D =
    differences(x) for the step map that follows.  A zero d_i means
    coinciding components and raises NonDistinctComponents."""
    diff = differences(x)
    d = separation(x, diff)
    if np.any(d == 0.0):
        raise NonDistinctComponents(
            f"components coincide (index {int(np.argmin(d))})")
    w = evaluate(f, x) / (f.coeffs[0] * np.prod(diff, axis=0))
    return _measurement(x, w, d, ctx), diff


# {(f.coeffs bytes, point bytes): (W, d)} at x0 and the final iterate of
# the last solve, W and d its own copies.  Only remember writes it, by one
# assignment, so a reader's one lookup sees one solve or another.
_record: dict = {}


def remember(f: Polynomial, *measurements: Measurement) -> None:
    """Replace the record with copies of W and d of each m, keyed by bytes."""
    global _record
    _record = {(f.coeffs.tobytes(), m.x.tobytes()): (m.w.copy(), m.d.copy())
               for m in measurements}


def measure(f: Polynomial, x, ctx: NormContext) -> Measurement:
    """The Measurement of W, d and E at x.  Where the last solve measured
    x (its x0 or its final iterate) copies of W and d come from the record
    and E is recomputed in O(n); elsewhere x is measured afresh.  Both
    give the same bits.  x passes _checked, so m.x is a copy of it."""
    x = _checked(f, x, ctx)
    hit = _record.get((f.coeffs.tobytes(), x.tobytes()))
    if hit is None:
        return _measured(f, x, ctx)[0]
    return _measurement(x, hit[0].copy(), hit[1].copy(), ctx)


def weierstrass_correction(f: Polynomial, x) -> np.ndarray:
    """W_i(x) = f(x_i) / (C_0 * prod over j != i of (x_i - x_j))."""
    return measure(f, x, norm_context(f.degree, math.inf)).w


def e_measure(f: Polynomial, x, ctx: NormContext) -> float:
    """E_f(x): the p-norm of the vector |W_i(x)| / d_i(x)."""
    return measure(f, x, ctx).E
