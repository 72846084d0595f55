"""Test-support oracles: known-answer instance generation, root matching,
a finite-difference Newton step on the Viete system, the plain and the
blocked Horner recurrences, derivatives by synthetic division, and the reference forms of
the iterations that the identity tests compare against.

None of this is part of the rootcert package; the tests import it the way
they import ``conftest``.

The Newton step is deliberately independent of the main iteration code
path: the Jacobian comes from central differences on the Viete function
and the linear system is solved by hand-rolled partial-pivot elimination.
The reference forms reach the production steps' results by another
algebraic route; nothing in the solver calls them.

``exact_measure`` and ``exact_certificate`` decide the paper's initial
conditions for a binary64 input with no rounding: W and d in exact
integer arithmetic, and the gauges by the package's own formulas called
with ``Fraction`` arguments.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from rootcert import (
    GaugeBundle,
    OutsideDomain,
    Polynomial,
    StepResult,
    evaluate,
    from_roots,
    gauge_bundle,
    viete,
    weierstrass_correction,
)


class EvaluationPointCollision(Exception):
    """A sigma-type sum was requested at a point equal to some x_j."""


class SingularJacobian(Exception):
    """The finite-difference Jacobian of the Viete system is singular."""


@dataclass(frozen=True)
class MatchedRoots:
    permutation: tuple
    max_abs_error: float


def evaluate_with_derivatives(f: Polynomial, z):
    """Return (f(z), f'(z), f''(z)) at z (scalar or array).

    f(z) comes from :func:`rootcert.evaluate`, so both agree bitwise; f'
    and f'' come from synthetic division, whose running value p stops
    short of the last coefficient.
    """
    z = np.asarray(z, dtype=np.complex128)
    p = np.full(z.shape, f.coeffs[0])
    dp = np.zeros(z.shape, dtype=np.complex128)
    d2p = np.zeros(z.shape, dtype=np.complex128)
    for c in f.coeffs[1:-1]:
        d2p = d2p * z + 2.0 * dp
        dp = dp * z + p
        p = p * z + c
    return evaluate(f, z), dp * z + p, d2p * z + 2.0 * dp


def coeff_vector(f: Polynomial) -> np.ndarray:
    """Coefficients normalized by the leading one: (C_1/C_0, ..., C_n/C_0);
    a vector x solves the Viete system of f exactly when
    viete(x) == coeff_vector(f)."""
    return f.coeffs[1:] / f.coeffs[0]


def horner(f: Polynomial, z):
    """f at z (scalar or array) by the plain Horner recurrence, one pass per
    coefficient; the reference that the blocked ``evaluate`` is tested
    against."""
    z = np.asarray(z, dtype=np.complex128)
    acc = np.full(z.shape, f.coeffs[0])
    for c in f.coeffs[1:]:
        acc = acc * z + c
    return acc


def blocked_horner(f: Polynomial, z):
    """f at z (scalar or array) by the blocked Horner scheme, written as
    ``evaluate`` first wrote it: each chunk pass forms its product and its
    broadcast sum as fresh arrays, and the chunks of width B combine by
    Horner's scheme in z**B, formed by log2(B) squarings, B read from
    ``f.blocks``.  The rounding sequence that ``evaluate`` must keep,
    product for product, above degree 15."""
    z = np.asarray(z, dtype=np.complex128)
    nb, width = f.blocks.shape
    zz = np.tile(z.reshape(1, -1), (nb, 1))
    acc = np.repeat(f.blocks[:, :1], z.size, axis=1)
    for col in f.blocks.T[1:, :, None]:
        acc = acc * zz + col
    value = acc[0]
    if nb > 1:
        zb = zz[0]
        for _ in range(int(np.log2(width))):
            zb = zb * zb
        for chunk in acc[1:]:
            value = value * zb + chunk
    return value.reshape(z.shape)[()]


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
        # distinct without the package's separation, whose reductions the
        # call-counting tests count
        if np.unique(x0).size == x0.size:
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


def _fixed(v: float, s: int) -> int:
    """The binary64 value v times 2**s, an integer for s large enough."""
    num, den = float(v).as_integer_ratio()
    return num << (s - (den.bit_length() - 1))


def _gauss_mul(u: tuple, v: tuple) -> tuple:
    return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]


def exact_measure(f: Polynomial, x) -> tuple:
    """(|W_i|**2, d_i**2) of the binary64 point x, each a list of exact Fractions.

    Every binary64 number is a dyadic rational, so at the common scale 2**S
    of the coefficients and the points all of them are Gaussian integers:
    F_i = f(x_i) 2**(S(n+1)) by Horner, G_i = prod over j != i of (x_i - x_j)
    2**(S(n-1)) and d_i**2 2**(2S) are exact integers, and |W_i|**2 =
    |F_i|**2 / (|C_0 2**S|**2 |G_i|**2 2**(2S)).  Coinciding components raise
    ValueError.
    """
    coeffs = [complex(c) for c in f.coeffs]
    points = [complex(z) for z in np.asarray(x, dtype=np.complex128)]
    s = max(float(v).as_integer_ratio()[1].bit_length() - 1
            for z in coeffs + points for v in (z.real, z.imag))
    # C_k 2**(Sk), the k-th Horner addend at scale 2**(S(k+1))
    c = [(_fixed(z.real, s + s * k), _fixed(z.imag, s + s * k)) for k, z in enumerate(coeffs)]
    xs = [(_fixed(z.real, s), _fixed(z.imag, s)) for z in points]
    lead2 = c[0][0] ** 2 + c[0][1] ** 2
    w2, d2 = [], []
    for i, xi in enumerate(xs):
        acc = c[0]
        for ck in c[1:]:
            acc = _gauss_mul(acc, xi)
            acc = acc[0] + ck[0], acc[1] + ck[1]
        diffs = [(xi[0] - xj[0], xi[1] - xj[1]) for j, xj in enumerate(xs) if j != i]
        gap2 = min(u * u + v * v for u, v in diffs)
        if gap2 == 0:
            raise ValueError(f"components coincide (index {i})")
        prod = functools.reduce(_gauss_mul, diffs)
        den = lead2 * (prod[0] ** 2 + prod[1] ** 2)
        w2.append(Fraction(acc[0] ** 2 + acc[1] ** 2, den << 2 * s))
        d2.append(Fraction(gap2, 1 << 2 * s))
    return w2, d2


def _sqrt_up(r: Fraction, bits: int = 64) -> Fraction:
    """A dyadic rational >= sqrt(r), for r >= 0, within a relative 2**(1-bits) of it."""
    if r == 0:
        return Fraction(0)
    k = max(0, bits - (r.numerator.bit_length() - r.denominator.bit_length()) // 2)
    m = -(-(r.numerator << 2 * k) // r.denominator)  # ceil(r * 4**k)
    root = math.isqrt(m)
    return Fraction(root if root * root == m else root + 1, 1 << k)


def _float_up(r: Fraction) -> float:
    """The least binary64 value >= r; float(r) rounds to nearest."""
    v = float(r)
    return v if Fraction(v) >= r else math.nextafter(v, math.inf)


@dataclass(frozen=True)
class ExactCertificate:
    """The paper's initial conditions decided exactly at a binary64 point.

    E is a dyadic upper bound on E_f(x), within a relative 2**-63 of it.
    Since phi is increasing on [0, tau), phi0 = phi(E) <= 1 is sufficient,
    and then rho holds floats >= gamma(E) / (1 - beta(E)) |W_i|.  reason
    says why it did not issue, or why it declined to decide.
    """

    issued: bool
    reason: str = ""
    E: Optional[Fraction] = None
    phi0: Optional[Fraction] = None
    rho: Optional[tuple] = None


def exact_certificate(bundle: GaugeBundle, f: Polynomial, x) -> ExactCertificate:
    """Decide E < tau and phi(E) <= 1 at x with no rounding, from the exact
    W and d of exact_measure and the bundle's own gauge formulas.

    For p = inf and p = 1, a = n - 1, b = 2 and a = b = 1 are integers, so
    gauge_bundle on the same NormContext with integer a and b gives gamma,
    psi and beta that are exact at Fraction arguments; no formula is
    restated here.  For E >= 0, E < tau holds exactly when a E < 1 and
    psi(E) > 0, for both methods, so Dochev-Byrnev's square root needs no
    special case.  Any other p declines: its b = 2**(1/q) is irrational.
    """
    ctx = bundle.ctx
    if ctx.p not in (1.0, math.inf):
        return ExactCertificate(False, f"declined: at p = {ctx.p} b = 2**(1/q) is irrational; "
                                       "only p = 1 and p = inf are decided exactly")
    a = int(ctx.a)
    exact = gauge_bundle(bundle.method, dataclasses.replace(ctx, a=a, b=int(ctx.b)))
    w2, d2 = exact_measure(f, x)
    terms = [_sqrt_up(w / d) for w, d in zip(w2, d2)]
    e = max(terms) if math.isinf(ctx.p) else sum(terms)
    if not (a * e < 1 and exact.psi(e) > 0):
        return ExactCertificate(False, "E >= tau", e)
    phi0 = exact.phi(e)
    if phi0 > 1:
        return ExactCertificate(False, "phi(E) > 1", e, phi0)
    scale = exact.gamma(e) / (1 - exact.beta(e))
    rho = tuple(_float_up(scale * _sqrt_up(w)) for w in w2)
    return ExactCertificate(True, "", e, phi0, rho)
