"""Test-support oracles: known-answer instance generation, root matching,
a finite-difference Newton step on the Viete system, and the reference
forms of the iterations that the identity tests compare against.

The Newton step is deliberately independent of the main iteration code
path: the Jacobian comes from central differences on the Viete function
and the linear system is solved by hand-rolled partial-pivot elimination.
The reference forms reach the production steps' results by another
algebraic route; nothing in the solver calls them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationPointCollision, OutsideDomain, SingularJacobian
from .iterations import StepResult
from .measures import separation, weierstrass_correction
from .polynomials import (
    Polynomial,
    coeff_vector,
    evaluate_with_derivatives,
    from_roots,
    viete,
)


@dataclass(frozen=True)
class MatchedRoots:
    permutation: tuple
    max_abs_error: float


def known_instance(roots, perturbation: float, seed: int):
    """Monic polynomial with the given roots plus a perturbed start vector.

    Each start point is the root plus a uniform draw from the disk of the
    given radius; deterministic in the seed, re-drawn on (exact) collision.
    """
    roots = np.asarray(roots, dtype=np.complex128)
    f = from_roots(roots, 1.0)
    rng = np.random.default_rng(seed)
    while True:
        radii = perturbation * np.sqrt(rng.uniform(size=roots.size))
        angles = rng.uniform(0.0, 2.0 * np.pi, size=roots.size)
        x0 = roots + radii * np.exp(1j * angles)
        if separation(x0).min() > 0.0:
            return f, x0


def _solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Partial-pivot Gaussian elimination on a complex n x n system."""
    a = a.astype(np.complex128, copy=True)
    b = b.astype(np.complex128, copy=True)
    n = b.size
    scale = max(1.0, float(np.max(np.abs(a))))
    for col in range(n):
        piv = col + int(np.argmax(np.abs(a[col:, col])))
        if np.abs(a[piv, col]) < 1e-12 * scale:
            raise SingularJacobian(f"pivot below threshold in column {col}")
        if piv != col:
            a[[col, piv]] = a[[piv, col]]
            b[[col, piv]] = b[[piv, col]]
        for row in range(col + 1, n):
            m = a[row, col] / a[col, col]
            a[row, col:] -= m * a[col, col:]
            b[row] -= m * b[col]
    x = np.zeros(n, dtype=np.complex128)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1:] @ x[row + 1:]) / a[row, row]
    return x


def newton_viete_step(f: Polynomial, x, h: float = 1e-6) -> np.ndarray:
    """One Newton step on F(x) = viete(x) - coeff_vector(f).

    The Jacobian is built columnwise by central differences with step h,
    averaging the real and imaginary directional derivatives.
    """
    x = np.asarray(x, dtype=np.complex128)
    n = x.size
    target = coeff_vector(f)

    def F(y):
        return viete(y) - target

    jac = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        e = np.zeros(n, dtype=np.complex128)
        e[j] = h
        d_re = (F(x + e) - F(x - e)) / (2.0 * h)
        d_im = (F(x + 1j * e) - F(x - 1j * e)) / (2.0j * h)
        jac[:, j] = 0.5 * (d_re + d_im)
    return x - _solve_linear(jac, F(x))


def match_roots(found, truth) -> MatchedRoots:
    """Best alignment of found approximations to true roots.

    Exhaustive min-max matching for n <= 8; greedy nearest-neighbor above.
    matched[i] = found[permutation[i]] corresponds to truth[i].
    """
    found = np.asarray(found, dtype=np.complex128)
    truth = np.asarray(truth, dtype=np.complex128)
    if found.size != truth.size:
        raise ValueError("length mismatch")
    n = found.size
    dist = np.abs(truth[:, None] - found[None, :])
    if n <= 8:
        # argmin takes the first minimum in permutations order
        perms = np.array(list(itertools.permutations(range(n))))
        errs = dist[np.arange(n), perms].max(axis=1)
        best = int(np.argmin(errs))
        return MatchedRoots(tuple(int(j) for j in perms[best]), float(errs[best]))
    taken = set()
    perm = []
    for i in range(n):
        j = min((j for j in range(n) if j not in taken), key=lambda j: dist[i, j])
        taken.add(j)
        perm.append(j)
    err = max(dist[i, perm[i]] for i in range(n))
    return MatchedRoots(tuple(perm), float(err))


def cone_norm(v) -> np.ndarray:
    """Componentwise modulus |v_i| of a complex vector."""
    return np.abs(np.asarray(v, dtype=np.complex128))


def sigma_sum(w, x, i: int, at: complex) -> complex:
    """Sum over j != i of W_j / (at - x_j).

    With at = x_i this is sigma_i(x); with at set to the i-th component of
    the method image it is the hatted variant.
    """
    w = np.asarray(w, dtype=np.complex128)
    x = np.asarray(x, dtype=np.complex128)
    at = complex(at)
    total = 0.0 + 0.0j
    for j in range(x.size):
        if j == i:
            continue
        dz = at - x[j]
        if dz == 0:
            raise EvaluationPointCollision(f"evaluation point equals x[{j}]")
        total += w[j] / dz
    return total


def ehrlich_step_newton(f: Polynomial, x) -> StepResult:
    """Newton-like form: x_i - f(x_i) / (f'(x_i) - f(x_i) * sum 1/(x_i - x_j))."""
    x = np.asarray(x, dtype=np.complex128)
    w = weierstrass_correction(f, x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, np.inf)
    recip_sums = (1.0 / diff).sum(axis=1)
    fx, dfx, _ = evaluate_with_derivatives(f, x)
    den = dfx - fx * recip_sums
    vanishes = np.abs(den) < 1e-14 * (np.abs(dfx) + np.abs(fx * recip_sums))
    if np.any(vanishes):
        i = int(np.argmax(vanishes))
        raise OutsideDomain(f"Ehrlich denominator vanishes at component {i}")
    return StepResult(image=x - fx / den, corrections=w)


def dochev_byrnev_step(f: Polynomial, x) -> StepResult:
    """Dochev-Byrnev step through g(z) = C_0 * prod(z - x_j).

    Uses the closed forms g'(x_i) = C_0 * prod_{j != i}(x_i - x_j) and
    g''(x_i)/g'(x_i) = 2 * sum_{j != i} 1/(x_i - x_j), so each component
    costs O(n) with no coefficient expansion.
    """
    x = np.asarray(x, dtype=np.complex128)
    w = weierstrass_correction(f, x)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    gprime = f.coeffs[0] * np.prod(diff, axis=1)
    np.fill_diagonal(diff, np.inf)
    g2_over_g1 = 2.0 * (1.0 / diff).sum(axis=1)
    dfx = evaluate_with_derivatives(f, x)[1]
    image = x - w * (2.0 - dfx / gprime + 0.5 * w * g2_over_g1)
    return StepResult(image=image, corrections=w)
