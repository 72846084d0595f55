import itertools

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
from conftest import random_distinct_points, random_monic
from oracle import (
    SingularJacobian,
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
