"""Complex polynomials: blocked Horner evaluation and Viete expansion.

Coefficients are stored leading-first, so ``coeffs[0]`` multiplies ``z**n``.
All arithmetic is complex binary64.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import LeadingCoefficientZero

# evaluate combines its chunks by Horner's scheme in z**_BLOCK, which it
# forms by _SQUARINGS squarings
_SQUARINGS = 4
_BLOCK = 2 ** _SQUARINGS


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
    # (nb, B) chunks of the coefficients for evaluate, B = min(16, n + 1),
    # leading-first; the top chunk is padded with leading zeros
    blocks: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # a copy, so the caller's array stays writable and no later write
        # to it reaches coeffs, blocks or the hash
        c = np.array(self.coeffs, dtype=np.complex128)
        if c.ndim != 1 or c.size < 3:
            raise ValueError("need at least 3 coefficients (degree >= 2)")
        if c[0] == 0:
            raise LeadingCoefficientZero("leading coefficient is zero")
        if not np.all(np.isfinite(c)):
            raise ValueError("coefficients must be finite")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)
        width = min(_BLOCK, c.size)
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

    The nb chunks of ``f.blocks`` run their Horner recurrences side by
    side, and the chunk values are combined by Horner's scheme in z**16.
    With n + 1 <= 16 there is one chunk and this is the plain recurrence.
    Every product multiplies two contiguous arrays of the same shape:
    numpy rounds a broadcast complex product differently from a
    contiguous one, and this keeps scalar and array calls bitwise equal.
    """
    z = np.asarray(z, dtype=np.complex128)
    nb = f.blocks.shape[0]
    zz = np.tile(z.reshape(1, -1), (nb, 1))
    acc = np.repeat(f.blocks[:, :1], z.size, axis=1)
    for col in f.blocks.T[1:, :, None]:
        # not in place: numpy rounds an in-place product of length 1
        # differently from a longer one
        acc = acc * zz + col
    value = acc[0]
    if nb > 1:
        zb = zz[0]
        for _ in range(_SQUARINGS):
            zb = zb * zb
        for chunk in acc[1:]:
            value = value * zb + chunk
    return value.reshape(z.shape)[()]


def from_roots(roots, leading: complex = 1.0) -> Polynomial:
    """Expand leading * prod(z - r_i) into a Polynomial.

    Repeated roots are allowed; the product is well-defined either way.
    """
    return Polynomial(leading * np.concatenate([[1.0 + 0.0j], viete(roots)]))


def viete(x) -> np.ndarray:
    """Signed elementary symmetric polynomials of x.

    Returns the coefficient vector (without the leading 1) of the monic
    polynomial with roots x; a vector x solves the Viete system of f
    exactly when viete(x) == f.coeffs[1:] / f.coeffs[0].
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.size < 2:
        raise ValueError("need at least 2 components")
    coeffs = np.array([1.0 + 0.0j])
    for r in x:
        # multiply the running product by (z - r)
        coeffs = np.concatenate([coeffs, [0.0]]) - r * np.concatenate([[0.0], coeffs])
    return coeffs[1:]
