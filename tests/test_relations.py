"""Root-free relations of the measurement, the certificate and the steps.

Scaling z by s = 2**k is exact in binary64 while nothing overflows or
goes subnormal.  The polynomial g(z) = s**n f(z / s), whose coefficients
are a_i s**i, has the roots s times those of f, and at s x:

- ``measure`` gives E equal and W and d multiplied by s;
- ``certify_initial`` gives phi0 and theta equal and rho multiplied by s;
- each of the three steps maps s x to s T(x).

Conjugation gives the same relations with conjugates: the conjugate
polynomial at the conjugate point has the conjugate W and T(x), with d,
E, phi0, theta and rho equal.  Every relation holds bit for bit, a zero
of either sign taken as one: it needs no roots and no tolerance.

The inputs are seeded Kac polynomials and z**n - 1, each at its
``default_init`` start and at a point near its roots.  The k of each
input comes from its coefficients' exponents; a degree that leaves no
k != 0 fails its test rather than dropping out, and no (input, k) is
excluded.

``solve`` commutes with conjugation too: on (conj f, conj x0) every
method runs the same iterations to the conjugate trace, with the same
issued flags and final radii.  Its scaling relation waits for a stop rule with
no unit, since ``solve``'s tolerance scales with max |a_i|.
"""

import math

import numpy as np
import pytest

from rootcert import (
    MethodKind,
    Polynomial,
    SolveConfig,
    certify_initial,
    default_init,
    ehrlich_step_bs,
    gauge_bundle,
    measure,
    norm_context,
    solve,
    tanabe_step,
    weierstrass_step,
)
from conftest import random_monic

# scaled coefficients keep their binary exponents within +-_BUDGET; the
# rest of binary64's range is headroom for the products the measurement
# forms, such as |x|**n <= 2**(2 n) at n <= 128 and |x| <= 4
_BUDGET = 400
_TINY = np.finfo(float).tiny
STEPS = (weierstrass_step, ehrlich_step_bs, tanabe_step)
METHODS = (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV)
PS = (1.0, math.inf)


def _kac(n, seed):
    rng = np.random.default_rng([16, n, seed])
    f = random_monic(n, rng)
    near = np.roots(f.coeffs) + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=n))
    return f, near


def _unity(n):
    f = Polynomial([1.0] + [0.0] * (n - 1) + [-1.0])
    rng = np.random.default_rng([16, n])
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    return f, omega + 1e-9 * np.exp(2j * np.pi * rng.uniform(size=n))


INPUTS = {**{f"kac-{n}-seed{seed}": (lambda n=n, seed=seed: _kac(n, seed))
             for n in (8, 16, 64, 128) for seed in (1, 2)},
          **{f"unity-{n}": (lambda n=n: _unity(n)) for n in (8, 16, 64, 128)}}


def _scales(f: Polynomial) -> tuple:
    """(-k_down, -1, 1, k_up): k_up and k_down are the largest k for which
    every nonzero part of a_i 2**(k i), i >= 1, keeps its exponent within
    +-_BUDGET, found from the exponents of f's coefficients."""
    i = np.arange(1, f.coeffs.size)
    parts = np.stack([f.coeffs[1:].real, f.coeffs[1:].imag])
    e = np.frexp(parts)[1]
    nonzero = parts != 0
    up = int(np.min(((_BUDGET - e) // i)[nonzero]))
    down = int(np.min(((_BUDGET + e) // i)[nonzero]))
    assert min(up, down) >= 1, (
        f"no k != 0 keeps degree {f.degree} within the exponent budget; "
        "this input must be listed as excluded, not dropped")
    return (-down, -1, 1, up)


def _scaled(f: Polynomial, k: int) -> Polynomial:
    return Polynomial(f.coeffs * 2.0 ** (k * np.arange(f.coeffs.size)))


def _normal(*values):
    """Each value finite and each real part 0 or normal, so that scaling it
    by a power of 2 was exact."""
    for v in values:
        parts = np.abs(np.concatenate([np.ravel(np.real(v)), np.ravel(np.imag(v))]))
        assert np.all(np.isfinite(parts)) and np.all((parts == 0) | (parts >= _TINY)), v


def _bits(v):
    """v's dtype and bytes with -0.0 read as 0.0 and every NaN as one NaN: a
    conjugate sum may round to a zero of the other sign, (-0.0) + 0.0 = 0.0
    where the sum at x is -0.0, and conjugation flips a NaN's sign bit."""
    if v is None:
        return None
    v = np.atleast_1d(np.asarray(v) + 0.0)
    parts = v.view(float) if np.iscomplexobj(v) else v
    parts[np.isnan(parts)] = np.nan
    return v.dtype, v.tobytes()


def _same(a, b):
    assert _bits(a) == _bits(b)


def _relation(f, x, g, y, image):
    """Check the relations between (f, x) and (g, y), with image the map
    from an output at x to the one expected at y for W, rho and the steps."""
    _normal(f.coeffs, g.coeffs, x, y)
    for p in PS:
        m, mg = measure(f, x, norm_context(f.degree, p)), measure(g, y, norm_context(g.degree, p))
        _normal(m.w, m.d, mg.w, mg.d)
        _same(mg.w, image(m.w))
        _same(mg.d, image(m.d))
        _same(mg.E, m.E)
        for method in METHODS:
            bundle = gauge_bundle(method, norm_context(f.degree, p))
            c, cg = certify_initial(f, x, bundle), certify_initial(g, y, bundle)
            _same(cg.phi0, c.phi0)
            _same(cg.theta, c.theta)
            _same(cg.rho, None if c.rho is None else image(c.rho))
    for step in STEPS:
        t, tg = step(f, x), step(g, y)
        _normal(t.image, tg.image)
        _same(tg.image, image(t.image))
        _same(tg.corrections, image(t.corrections))


@pytest.mark.parametrize("name", INPUTS)
def test_scaling_by_a_power_of_two(name):
    f, near = INPUTS[name]()
    for k in _scales(f):
        g, s = _scaled(f, k), 2.0 ** k
        for x in (default_init(f), near):
            _relation(f, x, g, s * x, lambda v: s * v)


@pytest.mark.parametrize("name", INPUTS)
def test_conjugation(name):
    f, near = INPUTS[name]()
    g = Polynomial(np.conj(f.coeffs))
    for x in (default_init(f), near):
        _relation(f, x, g, np.conj(x), np.conj)


@pytest.mark.parametrize("name", INPUTS)
def test_solve_commutes_with_conjugation(name):
    f, near = INPUTS[name]()
    g = Polynomial(np.conj(f.coeffs))
    runs = [(default_init(f), SolveConfig(method=method, require_certificate=False))
            for method in MethodKind]
    runs += [(near, SolveConfig(method=method))
             for method in MethodKind if method is not MethodKind.WEIERSTRASS]
    for x0, cfg in runs:
        # from default_init some Kac runs overflow, and the warnings are errors
        with np.errstate(all="ignore"):
            r, rg = solve(f, x0, cfg), solve(g, np.conj(x0), cfg)
        assert (rg.iterations, rg.converged) == (r.iterations, r.converged), cfg
        issued = [None if c is None else c.issued for c in (r.certificate, rg.certificate)]
        assert issued[0] == issued[1], cfg
        for m, mg in zip(r.trace, rg.trace):
            _same(mg.x, np.conj(m.x))
            _same(mg.w, np.conj(m.w))
            _same(mg.d, m.d)
            _same(mg.E, m.E)
        rho = [None if c is None else c.rho for c in (r.final_certificate, rg.final_certificate)]
        _same(rho[1], rho[0])


def test_the_inputs_reach_an_issued_certificate():
    # the rho relation is checked only where a certificate issues, so at
    # least the near points of every input must issue one
    for name, make in INPUTS.items():
        f, near = make()
        for method in METHODS:
            for p in PS:
                bundle = gauge_bundle(method, norm_context(f.degree, p))
                assert certify_initial(f, near, bundle).issued, (name, method, p)
