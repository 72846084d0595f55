import dataclasses
import itertools
from fractions import Fraction

import numpy as np
import pytest

from rootcert import (
    MethodKind,
    Polynomial,
    corollary_threshold,
    e_measure,
    from_roots,
    gauge_bundle,
    certify_initial,
    norm_context,
    weierstrass_step,
)
from conftest import random_distinct_points, random_monic, roots_of_unity_just_below_tau
from oracle import (
    SingularJacobian,
    exact_certificate,
    exact_measure,
    known_instance,
    match_roots,
    newton_viete_step,
    _solve_linear,
)

import math

INF = math.inf


class TestKnownInstance:
    def test_zero_perturbation(self):
        f, x0 = known_instance([1.0, -1.0], 0.0, seed=0)
        np.testing.assert_array_equal(x0, [1, -1])
        np.testing.assert_allclose(f.coeffs, [1, 0, -1], atol=1e-15)
        assert e_measure(f, x0, norm_context(2, INF)) == 0

    def test_small_perturbation_small_measure(self):
        f, x0 = known_instance([0.0, 1.0, 3.0], 0.01, seed=1)
        assert np.all(np.abs(x0 - np.array([0, 1, 3])) <= 0.01)
        assert e_measure(f, x0, norm_context(3, INF)) <= 0.04

    def test_deterministic_in_seed(self):
        a = known_instance([1.0, -1.0], 1.0, seed=42)
        b = known_instance([1.0, -1.0], 1.0, seed=42)
        np.testing.assert_array_equal(a[1], b[1])
        c = known_instance([1.0, -1.0], 1.0, seed=43)
        assert not np.array_equal(a[1], c[1])

    def test_points_distinct(self):
        for seed in range(20):
            _, x0 = known_instance([0.5, -0.5], 2.0, seed=seed)
            assert x0[0] != x0[1]

    @pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                        MethodKind.DOCHEV_BYRNEV])
    def test_below_threshold_certifies(self, method):
        roots = [0.0, 1.0, 3.0]
        ctx = norm_context(3, INF)
        thresh = corollary_threshold(method, ctx)
        for seed in range(10):
            f, x0 = known_instance(roots, 0.02, seed=seed)
            if e_measure(f, x0, ctx) < thresh:
                cert = certify_initial(f, x0, gauge_bundle(method, ctx))
                assert cert.issued


class TestNewtonViete:
    def test_quadratic_matches_weierstrass(self):
        f = Polynomial([1, 0, -1])
        x = np.array([2.0, -2.0], dtype=complex)
        got = newton_viete_step(f, x)
        np.testing.assert_allclose(got, [1.25, -1.25], atol=1e-6)
        np.testing.assert_allclose(got, weierstrass_step(f, x).image,
                                   atol=1e-6)

    def test_near_identity_at_roots(self):
        f = Polynomial([1, 0, -1])
        x = np.array([1.0, -1.0], dtype=complex)
        np.testing.assert_allclose(newton_viete_step(f, x), x, atol=1e-9)

    def test_cubic_example(self):
        f = Polynomial([1, -6, 11, -6])
        x = np.array([0.9, 2.2, 2.9], dtype=complex)
        np.testing.assert_allclose(newton_viete_step(f, x),
                                   weierstrass_step(f, x).image, atol=1e-5)

    @pytest.mark.parametrize("seed", range(100))
    def test_kerner_equivalence(self, seed):
        rng = np.random.default_rng(300 + seed)
        n = int(rng.integers(2, 6))
        f = random_monic(n, rng)
        x = random_distinct_points(n, rng, radius=1.0, min_sep=0.1)
        got = newton_viete_step(f, x)
        want = weierstrass_step(f, x).image
        assert np.max(np.abs(got - want)) <= 1e-5


class TestSolveLinear:
    def test_matches_direct_inverse(self):
        rng = np.random.default_rng(9)
        a = rng.uniform(-1, 1, (4, 4)) + 1j * rng.uniform(-1, 1, (4, 4))
        b = rng.uniform(-1, 1, 4) + 1j * rng.uniform(-1, 1, 4)
        x = _solve_linear(a, b)
        np.testing.assert_allclose(a @ x, b, atol=1e-12)

    def test_singular_rejected(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
        with pytest.raises(SingularJacobian):
            _solve_linear(a, np.array([1.0, 1.0], dtype=complex))


class TestMatchRoots:
    def test_identity(self):
        m = match_roots([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert m.permutation == (0, 1, 2)
        assert m.max_abs_error == 0

    def test_reversed(self):
        m = match_roots([3.0, 2.0, 1.0], [1.0, 2.0, 3.0])
        assert m.permutation == (2, 1, 0)
        assert m.max_abs_error == 0

    def test_small_perturbation(self):
        truth = np.array([1.0, -1.0, 1.0j])
        found = truth + 1e-10
        assert match_roots(found, truth).max_abs_error <= 2e-10

    def test_greedy_large_n(self):
        rng = np.random.default_rng(10)
        truth = random_distinct_points(10, rng, min_sep=0.5)
        perm = rng.permutation(10)
        m = match_roots(truth[perm], truth)
        assert m.max_abs_error <= 1e-14
        assert sorted(m.permutation) == list(range(10))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            match_roots([1.0, 2.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("n", range(2, 9))
    def test_exhaustive_equals_permutation_loop(self, n):
        rng = np.random.default_rng(n)
        for _ in range(3 if n == 8 else 12):
            # points on a coarse grid, so many pairings tie
            truth = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
            found = rng.integers(-2, 3, n) + 1j * rng.integers(-2, 3, n)
            dist = np.abs(truth[:, None] - found[None, :])
            best_perm, best_err = None, np.inf
            for perm in itertools.permutations(range(n)):
                err = max(dist[i, perm[i]] for i in range(n))
                if err < best_err:
                    best_perm, best_err = perm, err
            m = match_roots(found, truth)
            assert m.permutation == best_perm
            assert m.max_abs_error == best_err


def _direct_measure(f, x):
    """|W_i|**2 and d_i**2 in Fraction complex arithmetic, W_i as a quotient."""
    def fr(z):
        return Fraction(z.real), Fraction(z.imag)

    def mul(u, v):
        return u[0] * v[0] - u[1] * v[1], u[0] * v[1] + u[1] * v[0]

    c = [fr(complex(v)) for v in f.coeffs]
    xs = [fr(complex(v)) for v in x]
    w2, d2 = [], []
    for i, xi in enumerate(xs):
        val = c[0]
        for ck in c[1:]:
            val = mul(val, xi)
            val = val[0] + ck[0], val[1] + ck[1]
        den = c[0]
        for j, xj in enumerate(xs):
            if j != i:
                den = mul(den, (xi[0] - xj[0], xi[1] - xj[1]))
        m = den[0] ** 2 + den[1] ** 2
        w = ((val[0] * den[0] + val[1] * den[1]) / m, (val[1] * den[0] - val[0] * den[1]) / m)
        w2.append(w[0] ** 2 + w[1] ** 2)
        d2.append(min((xi[0] - xj[0]) ** 2 + (xi[1] - xj[1]) ** 2
                      for j, xj in enumerate(xs) if j != i))
    return w2, d2


EXACT_METHODS = [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV, MethodKind.TANABE]


class TestExactOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_measure_equals_direct_fraction_evaluation(self, seed):
        rng = np.random.default_rng(7100 + seed)
        n = int(rng.integers(2, 7))
        f = random_monic(n, rng)
        # scaled coefficients and points spread the exponents the common scale covers
        f = Polynomial(f.coeffs * 2.0 ** int(rng.integers(-40, 40)))
        x = random_distinct_points(n, rng) * 2.0 ** int(rng.integers(-20, 20))
        assert exact_measure(f, x) == _direct_measure(f, x)

    def test_measure_at_exact_roots(self):
        # W vanishes exactly where f(x_i) does; d is exact
        w2, d2 = exact_measure(Polynomial([1, 0, -1]), [1.0, -1.0])
        assert w2 == [0, 0] and d2 == [4, 4]

    def test_measure_rejects_coinciding_components(self):
        with pytest.raises(ValueError, match="coincide"):
            exact_measure(Polynomial([1, 0, -1]), [0.5, 0.5])

    @pytest.mark.parametrize("p", [1.0, INF], ids=["1", "inf"])
    @pytest.mark.parametrize("method", EXACT_METHODS, ids=lambda m: m.value)
    @pytest.mark.parametrize("seed", range(8))
    def test_certificate_against_float_and_direct(self, method, p, seed):
        rng = np.random.default_rng(7200 + seed)
        n = int(rng.integers(2, 7))
        roots = random_distinct_points(n, rng, min_sep=0.5)
        f, x = known_instance(roots, 10.0 ** -int(rng.integers(0, 5)), seed=seed)
        bundle = gauge_bundle(method, norm_context(n, p))
        got = exact_certificate(bundle, f, x)
        want = certify_initial(f, x, bundle)
        w2, d2 = _direct_measure(f, x)
        ratios = [w / d for w, d in zip(w2, d2)]
        if p == INF:
            # E is max sqrt(|W_i|**2 / d_i**2), rounded up by at most 2**-63
            assert got.E ** 2 >= max(ratios)
            assert (got.E / (1 + Fraction(1, 2 ** 62))) ** 2 <= max(ratios)
        # the float W carries the rounding of f(x_i), which cancels near a root
        assert float(got.E) == pytest.approx(want.E0, rel=1e-8)
        if want.phi0 < 0.99:
            assert got.issued and got.reason == ""
            assert float(got.phi0) == pytest.approx(want.phi0, rel=1e-7)
            np.testing.assert_allclose(got.rho, want.rho, rtol=1e-8)
            # each radius is at least gamma(E)/(1 - beta(E)) |W_i| at the exact E,
            # which is at least e_low; gamma and beta increase on [0, tau)
            ctx = bundle.ctx
            exact = gauge_bundle(method, dataclasses.replace(ctx, a=int(ctx.a), b=int(ctx.b)))
            e_low = got.E / (1 + Fraction(1, 2 ** 62))
            scale = exact.gamma(e_low) / (1 - exact.beta(e_low))
            for r, w in zip(got.rho, w2):
                assert Fraction(r) ** 2 >= scale ** 2 * w
        elif not want.issued and (want.E0 > 1.01 * bundle.tau or want.phi0 > 1.01):
            assert not got.issued and got.reason in ("E >= tau", "phi(E) > 1")

    @pytest.mark.parametrize("p", [1.0, INF], ids=["1", "inf"])
    @pytest.mark.parametrize("method", EXACT_METHODS, ids=lambda m: m.value)
    def test_certificate_between_threshold_and_tau(self, method, p):
        # E just below 0.9 tau: inside the domain, but phi(E) > 1
        bundle = gauge_bundle(method, norm_context(5, p))
        f, x = roots_of_unity_just_below_tau(5, bundle.ctx, 0.9 * bundle.tau)
        assert bundle.phi(certify_initial(f, x, bundle).E0) > 1.01
        got = exact_certificate(bundle, f, x)
        assert not got.issued and got.reason == "phi(E) > 1" and got.phi0 > 1

    def test_certificate_declines_other_p(self):
        f, x = known_instance([0.0, 1.0, 3.0], 0.01, seed=1)
        got = exact_certificate(gauge_bundle(MethodKind.EHRLICH, norm_context(3, 2)), f, x)
        assert not got.issued and got.E is None
        assert got.reason.startswith("declined: at p = 2.0")
