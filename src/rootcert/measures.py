"""Measurement layer: separations, Weierstrass corrections and the
initial-condition measure E_f together with its p-norm machinery.

``measure`` computes W, d and E together; its d, which E needs anyway,
also decides that the components are distinct.  ``corrections``, behind
``weierstrass_correction`` and the public steps, computes W by the same
formula but reduces no separations unless a product over j != i is zero
or not finite.  Each of d, W and sigma is a reduction of one
pairwise-difference matrix per point vector, built by ``differences``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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


def norm_context(n: int, p: float) -> NormContext:
    """Build a NormContext for an n-point configuration and exponent p."""
    if n < 2:
        raise ValueError("n must be >= 2")
    p = float(p)
    if math.isnan(p) or p < 1:
        raise BadExponent(f"p must satisfy 1 <= p <= inf, got {p}")
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
    avoid overflow for large p."""
    v = np.asarray(v, dtype=float)
    if v.size == 0:
        return 0.0
    m = float(np.max(v))
    if m == 0.0 or math.isinf(p):
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


def separation(x, diff=None) -> np.ndarray:
    """d_i(x) = min over j != i of |x_i - x_j|, read from diff =
    differences(x) when given; zero entries signal coinciding components
    and are left for the caller to reject."""
    x = np.asarray(x, dtype=np.complex128)
    if x.size < 2:
        raise ValueError("need at least 2 components")
    gaps = np.abs(differences(x) if diff is None else diff)
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
    """W_f(x), d(x) and E_f(x) = ||W_f(x) / d(x)||_p at one point vector x,
    with the matrix diff = differences(x) they were reduced from."""

    w: np.ndarray
    d: np.ndarray
    E: float
    diff: np.ndarray = field(repr=False)


def _reject_coinciding(d: np.ndarray) -> None:
    """Raise NonDistinctComponents where a separation d_i is zero."""
    if np.any(d == 0.0):
        i = int(np.argmin(d))
        raise NonDistinctComponents(f"components coincide (index {i})")


def _checked(f: Polynomial, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    if x.size != f.degree:
        raise DegreeMismatch(f"{x.size} points for degree {f.degree}")
    return x


def _w(f: Polynomial, x: np.ndarray, prod: np.ndarray) -> np.ndarray:
    """W_i = f(x_i) / (C_0 * prod_i), prod_i the product over j != i of
    (x_i - x_j)."""
    return evaluate(f, x) / (f.coeffs[0] * prod)


def corrections(f: Polynomial, x) -> tuple:
    """(W_f(x), differences(x)) after checking that x has deg f distinct
    components.

    A finite nonzero product over j != i of (x_i - x_j) proves component
    i distinct from the others: in binary64 complex arithmetic a product
    with a zero factor is 0 or NaN.  Only where a product is zero or not
    finite (underflow, overflow, NaN input) are the separations reduced,
    to raise the NonDistinctComponents that measure raises.
    """
    x = _checked(f, x)
    diff = differences(x)
    prod = np.prod(diff, axis=0)
    if not np.all(np.isfinite(prod) & (prod != 0.0)):
        _reject_coinciding(separation(x, diff))
    return _w(f, x, prod), diff


def measure(f: Polynomial, x, ctx: NormContext) -> Measurement:
    """The one evaluation of W, d and E at x that a step, a trace entry,
    a certificate and a set of disks all read.  E needs d anyway, so d
    also decides distinctness here."""
    x = _checked(f, x)
    diff = differences(x)
    d = separation(x, diff)
    _reject_coinciding(d)
    w = _w(f, x, np.prod(diff, axis=0))
    return Measurement(w=w, d=d, E=p_norm(np.abs(w) / d, ctx.p), diff=diff)


def weierstrass_correction(f: Polynomial, x) -> np.ndarray:
    """W_i(x) = f(x_i) / (C_0 * prod over j != i of (x_i - x_j)), with no
    separations reduced unless a product is zero or not finite."""
    return corrections(f, x)[0]


def e_measure(f: Polynomial, x, ctx: NormContext) -> float:
    """E_f(x): the p-norm of the vector |W_i(x)| / d_i(x)."""
    return measure(f, x, ctx).E
