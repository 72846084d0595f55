"""Complex polynomials: Horner evaluation, derivatives and Viete expansion.

Coefficients are stored leading-first, so ``coeffs[0]`` multiplies ``z**n``.
All arithmetic is complex binary64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LeadingCoefficientZero


@dataclass(frozen=True)
class Polynomial:
    """Degree-n polynomial with complex coefficients, leading-first.

    Parameters
    ----------
    coeffs : array_like
        Sequence of n+1 complex coefficients, leading coefficient first.
        The leading coefficient must be nonzero and n must be >= 2.
    """

    coeffs: np.ndarray = field()

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("need at least 3 coefficients (degree >= 2)")
        if c[0] == 0:
            raise LeadingCoefficientZero("leading coefficient is zero")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[0])

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(f: Polynomial, z):
    """Evaluate f at z (scalar or array) by Horner's scheme."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim == 0:
        # scalar path shared with evaluate_with_derivatives, so both agree
        # bitwise (numpy's scalar and array ufunc loops can round differently)
        p = f.coeffs[0]
        for c in f.coeffs[1:]:
            p = p * z[()] + c
        return p
    acc = np.full(z.shape, f.coeffs[0])
    for c in f.coeffs[1:]:
        acc = acc * z + c
    return acc


def evaluate_with_derivatives(f: Polynomial, z: complex):
    """Return (f(z), f'(z), f''(z)) by synthetic-division Horner.

    The first component is computed by the same recurrence as
    :func:`evaluate`, so both agree bitwise.
    """
    z = np.complex128(z)
    p = f.coeffs[0]
    dp = np.complex128(0.0)
    d2p = np.complex128(0.0)
    for c in f.coeffs[1:]:
        d2p = d2p * z + 2.0 * dp
        dp = dp * z + p
        p = p * z + c
    return p, dp, d2p


def from_roots(roots, leading: complex = 1.0) -> Polynomial:
    """Expand leading * prod(z - r_i) into a Polynomial.

    Repeated roots are allowed; the product is well-defined either way.
    """
    if leading == 0:
        raise LeadingCoefficientZero("leading coefficient is zero")
    return Polynomial(leading * np.concatenate([[1.0 + 0.0j], viete(roots)]))


def coeff_vector(f: Polynomial) -> np.ndarray:
    """Coefficients normalized by the leading one: (C_1/C_0, ..., C_n/C_0)."""
    return f.coeffs[1:] / f.coeffs[0]


def viete(x) -> np.ndarray:
    """Signed elementary symmetric polynomials of x.

    Returns the coefficient vector (without the leading 1) of the monic
    polynomial with roots x; a vector x solves the Viete system of f
    exactly when viete(x) == coeff_vector(f).
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size < 2:
        raise ValueError("need at least 2 components")
    coeffs = np.array([1.0 + 0.0j])
    for r in x:
        # multiply the running product by (z - r)
        coeffs = np.concatenate([coeffs, [0.0]]) - r * np.concatenate([[0.0], coeffs])
    return coeffs[1:]
