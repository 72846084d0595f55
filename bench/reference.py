"""Reference answers for generated inputs, and the checks made against them.

The exact roots of each generated binary64 polynomial come from
``numpy.roots`` followed by Newton's method in exact integer fixed-point
arithmetic with at least 200 fractional bits (about 60 digits).  Newton
stops once the last correction is below 1e-45 relative to the root, so the
polished roots are good to well over 40 digits.  Integer arithmetic is used
for the polish because it is several times faster than ``mpmath.polyval``
on degree-256 inputs; ``selfcheck.py`` cross-checks it against mpmath.

Disk containment is decided in mpmath from the exact fixed-point roots,
since the distances involved are about 1e-16 and below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath
import numpy as np
from scipy.optimize import linear_sum_assignment

# A returned root counts as wrong when it is farther than this from its
# matched reference root, relative to max(1, |root|).
ROOT_TOL = 1e-9

_MIN_BITS = 200
_STOP_REL = 1e-45
_MAX_NEWTON = 8


class ReferenceFailure(RuntimeError):
    """The reference roots of a generated input could not be established."""


def kac_coeffs(rng: np.random.Generator, n: int) -> np.ndarray:
    """Monic polynomial with non-leading coefficients uniform in the unit
    square, drawn in the same order as ``tests/conftest.random_monic``."""
    return np.concatenate([[1.0 + 0.0j],
                           rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)])


def _to_fixed(v: float, bits: int) -> int:
    num, den = float(v).as_integer_ratio()
    return (num << bits) // den


@dataclass(frozen=True)
class Reference:
    """Polished roots of one polynomial.

    ``re[i] / 2**bits + 1j * im[i] / 2**bits`` is root i; ``roots`` is its
    rounding to complex128 and ``error`` the size of the last Newton
    correction relative to max(1, |root|), an estimate of the error.
    """

    roots: np.ndarray
    re: tuple
    im: tuple
    bits: int
    error: float

    def mp_root(self, i: int) -> mpmath.mpc:
        # exact when evaluated under mpmath.workprec(self.bits + 64)
        return mpmath.mpc(mpmath.ldexp(mpmath.mpf(self.re[i]), -self.bits),
                          mpmath.ldexp(mpmath.mpf(self.im[i]), -self.bits))


def _newton_fixed(cr, ci, xr, xi, bits):
    """One Newton step for all roots at once on integers scaled by 2**bits;
    returns (new xr, new xi, correction re, correction im)."""
    n = xr.size
    pr = np.full(n, cr[0], dtype=object)
    pi = np.full(n, ci[0], dtype=object)
    dr = np.zeros(n, dtype=object)
    di = np.zeros(n, dtype=object)
    for k in range(1, len(cr)):
        dr, di = ((dr * xr - di * xi) >> bits) + pr, ((dr * xi + di * xr) >> bits) + pi
        pr, pi = ((pr * xr - pi * xi) >> bits) + cr[k], ((pr * xi + pi * xr) >> bits) + ci[k]
    den = dr * dr + di * di
    if any(v == 0 for v in den):
        raise ReferenceFailure("zero derivative during the reference polish")
    qr = ((pr * dr + pi * di) << bits) // den
    qi = ((pi * dr - pr * di) << bits) // den
    return xr - qr, xi - qi, qr, qi


def reference_roots(coeffs) -> Reference:
    """Roots of the polynomial with the given leading-first coefficients."""
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    n = coeffs.size - 1
    start = np.roots(coeffs)
    if start.size != n or not np.all(np.isfinite(start)):
        raise ReferenceFailure("numpy.roots did not return n finite roots")
    rmax = max(1.0, float(np.max(np.abs(start))))
    # Horner grows like |x|**n; extra bits keep the absolute noise floor low
    bits = _MIN_BITS + int(math.ceil(n * math.log2(rmax))) + n.bit_length()
    xr = np.array([_to_fixed(z.real, bits) for z in start], dtype=object)
    xi = np.array([_to_fixed(z.imag, bits) for z in start], dtype=object)
    cr = [_to_fixed(c.real, bits) for c in coeffs]
    ci = [_to_fixed(c.imag, bits) for c in coeffs]
    scale = 2.0 ** -bits
    for _ in range(_MAX_NEWTON):
        xr, xi, qr, qi = _newton_fixed(cr, ci, xr, xi, bits)
        roots = np.array([complex(float(a) * scale, float(b) * scale)
                          for a, b in zip(xr, xi)])
        step = np.hypot([float(a) * scale for a in qr], [float(b) * scale for b in qi])
        error = float(np.max(step / np.maximum(1.0, np.abs(roots))))
        if error < _STOP_REL:
            break
    else:
        raise ReferenceFailure(f"Newton polish stalled at relative step {error:.3g}")
    gaps = np.abs(roots[:, None] - roots[None, :])
    np.fill_diagonal(gaps, np.inf)
    if not gaps.min() > 1e6 * error:
        raise ReferenceFailure("polished roots are not clearly distinct")
    return Reference(roots=roots, re=tuple(xr), im=tuple(xi), bits=bits, error=error)


@dataclass
class Outcome:
    """Result of checking one returned root vector (and its disks)."""

    failed: bool = False
    reason: str = ""
    disks: int = 0
    unsound: int = 0
    undecided: int = 0


def match(found: np.ndarray, ref: Reference) -> np.ndarray:
    """perm with found[i] matched to ref.roots[perm[i]] (min-sum assignment)."""
    cost = np.abs(found[:, None] - ref.roots[None, :])
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(found.size, dtype=int)
    perm[rows] = cols
    return perm


def check_roots(found, converged: bool, ref: Reference) -> Outcome:
    """Fail on non-convergence, a non-finite root, or a root farther than
    ROOT_TOL from its matched reference root."""
    found = np.asarray(found, dtype=np.complex128)
    if not converged:
        return Outcome(True, "converged=False")
    if found.shape != ref.roots.shape:
        return Outcome(True, f"{found.size} roots for degree {ref.roots.size}")
    if not np.all(np.isfinite(found)):
        return Outcome(True, "non-finite root")
    perm = match(found, ref)
    truth = ref.roots[perm]
    rel = np.abs(found - truth) / np.maximum(1.0, np.abs(truth))
    worst = float(np.max(rel))
    if not worst <= ROOT_TOL:
        return Outcome(True, f"root error {worst:.3g} > {ROOT_TOL:g}")
    return Outcome()


def check_disks(out: Outcome, centers, radii, ref: Reference) -> Outcome:
    """Count issued disks that do not contain their matched exact root.

    A disk whose boundary lies within the reference error of the root is
    counted as undecided, not as unsound.
    """
    centers = np.asarray(centers, dtype=np.complex128)
    radii = np.asarray(radii, dtype=float)
    if centers.size == 0:
        return out
    out.disks += centers.size
    perm = match(centers, ref)
    with mpmath.workprec(ref.bits + 64):
        for c, r, j in zip(centers, radii, perm):
            if not math.isfinite(r) or r < 0:
                out.unsound += 1
                continue
            root = ref.mp_root(int(j))
            dist2 = (mpmath.mpf(c.real) - root.real) ** 2 + (mpmath.mpf(c.imag) - root.imag) ** 2
            slack = ref.error * max(1.0, abs(complex(c)))
            if dist2 > (mpmath.mpf(r) + slack) ** 2:
                out.unsound += 1
            elif dist2 > max(mpmath.mpf(r) - slack, 0) ** 2:
                out.undecided += 1
    return out
