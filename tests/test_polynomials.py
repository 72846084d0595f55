import numpy as np
import pytest

from rootcert import (
    LeadingCoefficientZero,
    Polynomial,
    coeff_vector,
    evaluate,
    evaluate_with_derivatives,
    from_roots,
    viete,
)
from conftest import random_distinct_points


def test_evaluate_simple():
    f = Polynomial([1, 0, -1])
    assert evaluate(f, 2) == 3
    assert evaluate(f, 1) == 0


def test_evaluate_cubic():
    f = Polynomial([1, 0, -1, 0])  # z^3 - z
    assert evaluate(f, 2) == 6


def test_evaluate_matches_numpy_polyval():
    rng = np.random.default_rng(1)
    coeffs = rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6)
    coeffs[0] = 1.0
    f = Polynomial(coeffs)
    z = rng.uniform(-2, 2, 10) + 1j * rng.uniform(-2, 2, 10)
    np.testing.assert_allclose(evaluate(f, z), np.polyval(coeffs, z), rtol=1e-12)


def test_derivatives_simple():
    f = Polynomial([1, 0, -1])
    assert evaluate_with_derivatives(f, 2) == (3, 4, 2)
    assert evaluate_with_derivatives(f, 0) == (-1, 0, 2)
    g = Polynomial([1, 0, -1, 0])
    assert evaluate_with_derivatives(g, 1) == (0, 2, 6)


def test_derivatives_first_component_bitwise_equals_evaluate():
    rng = np.random.default_rng(2)
    coeffs = rng.uniform(-1, 1, 8) + 1j * rng.uniform(-1, 1, 8)
    f = Polynomial(coeffs)
    for z in rng.uniform(-2, 2, 20) + 1j * rng.uniform(-2, 2, 20):
        p, _, _ = evaluate_with_derivatives(f, z)
        assert p == evaluate(f, z)


def test_derivatives_on_array_match_scalar_calls():
    rng = np.random.default_rng(4)
    coeffs = rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9)
    f = Polynomial(coeffs)
    z = rng.uniform(-2, 2, 300) + 1j * rng.uniform(-2, 2, 300)
    got = evaluate_with_derivatives(f, z)
    want = np.array([evaluate_with_derivatives(f, zi) for zi in z]).T
    for g, w in zip(got, want):
        assert g.shape == z.shape
        np.testing.assert_allclose(g, w, rtol=1e-15)
    np.testing.assert_array_equal(got[0], evaluate(f, z))


def test_derivatives_against_finite_differences():
    rng = np.random.default_rng(3)
    coeffs = rng.uniform(-1, 1, 7) + 1j * rng.uniform(-1, 1, 7)
    f = Polynomial(coeffs)
    h = 1e-6
    for z in rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5):
        _, dp, d2p = evaluate_with_derivatives(f, z)
        fd1 = (evaluate(f, z + h) - evaluate(f, z - h)) / (2 * h)
        fd2 = (evaluate(f, z + h) - 2 * evaluate(f, z) + evaluate(f, z - h)) / h**2
        assert abs(dp - fd1) < 1e-7 * max(1.0, abs(dp))
        assert abs(d2p - fd2) < 1e-3 * max(1.0, abs(d2p))


def test_from_roots_examples():
    np.testing.assert_array_equal(from_roots([1, -1]).coeffs, [1, 0, -1])
    np.testing.assert_array_equal(from_roots([0, 0], 2).coeffs, [2, 0, 0])
    np.testing.assert_allclose(from_roots([1, 2, 3]).coeffs, [1, -6, 11, -6],
                               atol=1e-14)


def test_from_roots_zero_leading_rejected():
    with pytest.raises(LeadingCoefficientZero):
        from_roots([1, -1], 0.0)


def test_leading_zero_rejected():
    with pytest.raises(LeadingCoefficientZero):
        Polynomial([0, 1, -1])


def test_coeff_vector_examples():
    np.testing.assert_array_equal(coeff_vector(Polynomial([1, 0, -1])), [0, -1])
    np.testing.assert_array_equal(coeff_vector(Polynomial([2, 0, -2])), [0, -1])
    np.testing.assert_allclose(coeff_vector(Polynomial([1, -6, 11, -6])),
                               [-6, 11, -6], atol=1e-14)


def test_viete_examples():
    np.testing.assert_array_equal(viete([1, -1]), [0, -1])
    np.testing.assert_array_equal(viete([0, 0, 0]), [0, 0, 0])
    np.testing.assert_allclose(viete([1, 2, 3]), [-6, 11, -6], atol=1e-14)


def test_viete_against_brute_force_symmetric_sums():
    # independent oracle: elementary symmetric sums by explicit enumeration
    import itertools

    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 5) + 1j * rng.uniform(-1, 1, 5)
    expected = []
    for k in range(1, 6):
        s = sum(np.prod([x[j] for j in combo])
                for combo in itertools.combinations(range(5), k))
        expected.append((-1) ** k * s)
    np.testing.assert_allclose(viete(x), expected, rtol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5, 9])
def test_round_trip_coeff_vector_viete(n):
    rng = np.random.default_rng(n)
    roots = random_distinct_points(n, rng)
    c = 0.7 - 1.3j
    f = from_roots(roots, c)
    got = coeff_vector(f)
    want = viete(roots)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4, 7])
def test_constructed_roots_evaluate_near_zero(n):
    rng = np.random.default_rng(10 + n)
    roots = random_distinct_points(n, rng)
    f = from_roots(roots, 1.5 + 0.5j)
    scale = np.max(np.abs(f.coeffs))
    for r in roots:
        assert abs(evaluate(f, r)) <= 1e-10 * scale


def test_leading_scale_invariance_exact():
    f = Polynomial([1, -6, 11, -6])
    g = Polynomial(2 * f.coeffs)
    np.testing.assert_array_equal(coeff_vector(f), coeff_vector(g))
