"""Complex polynomials: blocked Horner evaluation and Viete expansion.

Coefficients are stored leading-first, so ``coeffs[0]`` multiplies ``z**n``.
All arithmetic is complex binary64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegreeMismatch, LeadingCoefficientZero


def _array(v, error: str, dtype=np.complex128) -> np.ndarray:
    """np.array(v, dtype), a copy.  A real beyond binary64, which numpy
    rejects with OverflowError, raises ValueError(error): the error of the
    check that rejects an entry not finite, or one the caller cannot take."""
    try:
        return np.array(v, dtype=dtype)
    except OverflowError:
        raise ValueError(error) from None


def _finite(x: np.ndarray, error: str = "points must be finite") -> np.ndarray:
    """x where all entries are finite, as a point's or a coefficient's must be;
    else ValueError(error)."""
    if not np.all(np.isfinite(x)):
        raise ValueError(error)
    return x


def _vector(x) -> np.ndarray:
    """A complex128 copy of x, a vector (else DegreeMismatch) of at least 2 finite points."""
    x = _array(x, "points must be finite")
    if x.ndim != 1 or x.size < 2:
        raise DegreeMismatch(f"need a vector of at least 2 components, got shape {x.shape}")
    return _finite(x)


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
    # (nb, B) chunks of the coefficients for evaluate, leading-first; the
    # top chunk is padded with leading zeros
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so the caller's array stays writable and no later write
        # to it reaches coeffs, blocks or the hash
        c = _array(self.coeffs, "coefficients must be finite")
        if c.ndim != 1 or c.size < 3:
            raise ValueError("need a vector of at least 3 coefficients (degree >= 2), "
                             f"got shape {c.shape}")
        if c[0] == 0:
            raise LeadingCoefficientZero("leading coefficient is zero")
        _finite(c, "coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        # all n + 1 coefficients up to 16, so evaluate is plain Horner; else
        # the power of two nearest sqrt(n + 1) (a tie, at n + 1 = 2**(2k+1),
        # to the even exponent), whose (B - 1) + log2(B) + (nb - 1) passes
        # are within one of the fewest at every n <= 2048
        width = c.size if c.size <= 16 else 2 ** round(math.log2(c.size) / 2)
        nb = -(-c.size // width)
        blocks = np.concatenate([np.zeros(nb * width - c.size, dtype=np.complex128), c])
        blocks = blocks.reshape(nb, width)
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return bool(np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self):
        # agrees with ==, which takes 0.0 and -0.0 as equal
        return hash(tuple(self.coeffs.tolist()))

    @property
    def degree(self) -> int:
        return self.coeffs.size - 1

    @property
    def leading(self) -> complex:
        return complex(self.coeffs[0])

    def __call__(self, z):
        return evaluate(self, z)


def evaluate(f: Polynomial, z):
    """Evaluate f at z (scalar or array) by blocked Horner.

    The nb chunks of width B of ``f.blocks`` run their Horner recurrences
    side by side, and the chunk values are combined by Horner's scheme in
    z**B, formed by log2(B) squarings.  With n + 1 <= 16 there is one chunk
    and this is the plain recurrence.
    Every product multiplies two contiguous arrays of the same shape:
    numpy rounds a broadcast complex product differently from a
    contiguous one, and this keeps scalar and array calls bitwise equal.
    """
    z = _array(z, "points must be finite")
    nb, width = f.blocks.shape
    zz = z.reshape(1, -1).repeat(nb, axis=0)
    acc = f.blocks[:, :1].repeat(z.size, axis=1)
    for col in f.blocks.T[1:, :, None]:
        # product out of place, as numpy rounds an in-place one of length 1
        # differently; the sum, rounded alike either way, in place
        acc = acc * zz
        acc += col
    value = acc[0]
    if nb > 1:
        zb = zz[0]
        for _ in range(width.bit_length() - 1):
            zb = zb * zb
        for chunk in acc[1:]:
            value = value * zb + chunk
    return value.reshape(z.shape)[()]


def from_roots(roots, leading: complex = 1.0) -> Polynomial:
    """Expand leading * prod(z - r_i) into a Polynomial.

    Repeated roots are allowed; the product is well-defined either way.
    Roots and leading (one number) are checked finite before the expansion.
    """
    error = "coefficients must be finite"
    roots, leading = (_finite(_array(v, error), error) for v in (roots, leading))
    if leading.ndim != 0:
        raise ValueError(f"leading must be one number, got shape {leading.shape}")
    return Polynomial(leading * np.concatenate([[1.0 + 0.0j], viete(roots)]))


def viete(x) -> np.ndarray:
    """Signed elementary symmetric polynomials of x.

    Returns the coefficient vector (without the leading 1) of the monic
    polynomial with roots x; a vector x solves the Viete system of f
    exactly when viete(x) == f.coeffs[1:] / f.coeffs[0].
    """
    x = _vector(x)
    coeffs = np.array([1.0 + 0.0j])
    for r in x:
        # multiply the running product by (z - r)
        coeffs = np.concatenate([coeffs, [0.0]]) - r * np.concatenate([[0.0], coeffs])
    return coeffs[1:]
