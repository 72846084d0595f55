from dataclasses import fields

import mpmath
import numpy as np
import pytest

from rootcert import (
    LeadingCoefficientZero,
    Polynomial,
    default_init,
    evaluate,
    from_roots,
    viete,
)
from conftest import random_distinct_points, random_monic
from oracle import blocked_horner, coeff_vector, evaluate_with_derivatives, horner


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


@pytest.mark.parametrize("n", range(2, 16))
def test_evaluate_bitwise_equals_plain_horner(n):
    # up to degree 15 there is one chunk, so the blocked scheme is the plain
    # recurrence, product for product
    rng = np.random.default_rng([5, n])
    f = random_monic(n, rng)
    z = rng.uniform(-2, 2, 101) + 1j * rng.uniform(-2, 2, 101)
    np.testing.assert_array_equal(evaluate(f, z), horner(f, z))
    for zi in z[:10]:
        got = evaluate(f, zi)
        assert np.shape(got) == () and got == horner(f, zi)


def _same_bits(got, want):
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got).dtype == np.complex128
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("n", [16, 17, 31, 33, 64, 128, 129, 255, 256, 257, 512, 513])
def test_evaluate_bitwise_equals_blocked_horner(n):
    # above degree 15 the chunks round in their own order, which the
    # oracle pins: a rewrite that changed scalar and array calls alike
    # would still pass the scalar-against-array test below
    rng = np.random.default_rng([7, n])
    f = random_monic(n, rng)
    z = np.concatenate([default_init(f),
                        rng.uniform(-1.5, 1.5, 60) + 1j * rng.uniform(-1.5, 1.5, 60)])
    grid = z[-60:].reshape(6, 10)
    for zs in (z, z[::2], grid, grid[:, ::3], grid.T):
        _same_bits(evaluate(f, zs), blocked_horner(f, zs))
    for zi in (z[0], z[-1], complex(z[1]), 0.5):
        _same_bits(evaluate(f, zi), blocked_horner(f, zi))


@pytest.mark.parametrize("n", [15, 16, 17, 31, 32, 33, 128,
                               255, 256, 257, 511, 512, 513])
def test_evaluate_scalar_calls_equal_array_call(n):
    rng = np.random.default_rng([6, n])
    f = random_monic(n, rng)
    z = np.concatenate([default_init(f),
                        rng.uniform(-1.5, 1.5, 40) + 1j * rng.uniform(-1.5, 1.5, 40)])
    got = evaluate(f, z)
    assert got.shape == z.shape
    np.testing.assert_array_equal(got, [evaluate(f, zi) for zi in z])
    np.testing.assert_array_equal(evaluate(f, z[:40].reshape(4, 10)),
                                  got[:40].reshape(4, 10))


@pytest.mark.parametrize("n", [16, 17, 64, 128, 256, 512])
def test_evaluate_error_within_blocked_horner_bound(n):
    # |fl(f(z)) - f(z)| <= gamma_K * sum |a_i| |z|^i against the exact value
    # of the binary64 polynomial at the binary64 point, where a term meets at
    # most K = 2(B - 1) + (nb - 1)(B + 1) roundings: 2(B - 1) in its chunk's
    # recurrence, and per combination step the B - 1 of fl(z**B), a product
    # and a sum (Higham, 2nd ed., section 5.1).  At these degrees K is at
    # most the 2(n + 16) that a fixed B = 16 was held to.
    f = random_monic(n, np.random.default_rng([1, n]))
    nb, width = f.blocks.shape
    k = 2 * (width - 1) + (nb - 1) * (width + 1)
    assert k <= 2 * (n + 16)
    roots = np.roots(f.coeffs)
    step = max(1, n // 12)
    points = np.concatenate([default_init(f)[::step], (roots + 1e-9)[::step]])
    got = evaluate(f, points)
    with mpmath.workprec(300):
        coeffs = [mpmath.mpc(c.real, c.imag) for c in f.coeffs]
        abs_coeffs = [abs(c) for c in coeffs]
        worst = 0.0
        for z, fz in zip(points, got):
            z = mpmath.mpc(z.real, z.imag)
            exact = mpmath.polyval(coeffs, z)
            scale = mpmath.polyval(abs_coeffs, abs(z))
            err = abs(mpmath.mpc(fz.real, fz.imag) - exact) / scale
            worst = max(worst, float(err))
    assert worst <= k * 2.0 ** -53


# the chunk width B of each degree n: all n + 1 coefficients up to degree
# 15, above that the power of two nearest sqrt(n + 1)
WIDTHS = {2: 3, 15: 16, 16: 4, 17: 4, 40: 8, 126: 8, 127: 16, 511: 16, 512: 32}


@pytest.mark.parametrize("n", WIDTHS)
def test_blocks_layout(n):
    f = random_monic(n, np.random.default_rng(n))
    width = WIDTHS[n]
    nb = -(-(n + 1) // width)
    assert f.blocks.shape == (nb, width)
    pad = nb * width - (n + 1)
    np.testing.assert_array_equal(f.blocks.ravel()[:pad], 0)
    np.testing.assert_array_equal(f.blocks.ravel()[pad:], f.coeffs)
    assert not f.blocks.flags.writeable
    with pytest.raises(ValueError):
        f.blocks[0, 0] = 1.0
    # out of == and repr
    assert [fl.name for fl in fields(Polynomial) if fl.compare] == ["coeffs"]
    assert repr(f) == "Polynomial(coeffs=" + repr(f.coeffs) + ")"


def test_width_is_within_one_pass_of_the_fewest():
    # with nb chunks of width B, a power of two, evaluate makes B - 1 chunk
    # passes, log2(B) squarings and nb - 1 combination passes
    def passes(n, width):
        return width - 1 + width.bit_length() - 1 + -(-(n + 1) // width) - 1

    for n in range(2, 2049):
        nb, width = Polynomial(np.ones(n + 1)).blocks.shape
        if n <= 15:
            # one chunk: plain Horner
            assert (nb, width) == (1, n + 1)
            continue
        assert width & (width - 1) == 0
        assert passes(n, width) <= min(passes(n, 2 ** s) for s in range(12)) + 1
        if 127 <= n <= 511:
            assert width == 16


def test_value_equality_and_hash():
    f = Polynomial([1, 0, -1])
    g = Polynomial([1.0, -0.0, -1.0 + 0.0j])
    assert f == g and hash(f) == hash(g)
    assert f != Polynomial([1, 0, -2]) and f != [1, 0, -1]
    assert len({f, g, Polynomial([1, 0, -2])}) == 2


def test_coefficients_are_copied():
    c = np.array([1, 0, -1], dtype=complex)
    f = Polynomial(c)
    assert c.flags.writeable and f.coeffs is not c
    blocks = f.blocks.copy()
    c[2] = -4
    assert np.array_equal(f.coeffs, [1, 0, -1])
    assert np.array_equal(f.blocks, blocks)
    assert evaluate(f, 2) == 3
    assert f == Polynomial([1, 0, -1]) and f != Polynomial(c)
    assert hash(f) == hash(Polynomial([1, 0, -1]))


@pytest.mark.parametrize("coeffs", [[1, 0], [1], [1, np.inf, -1], [1, 0, np.nan]])
def test_short_or_non_finite_coefficients_rejected(coeffs):
    with pytest.raises(ValueError):
        Polynomial(coeffs)


@pytest.mark.parametrize("coeffs, shape", [(np.ones((2, 3)), "(2, 3)"),
                                          ([[1, 0, -1]], "(1, 3)")], ids=["2x3", "1x3"])
def test_coefficients_must_form_a_vector(coeffs, shape):
    # both hold 3 coefficients or more: the message names the shape
    with pytest.raises(ValueError) as exc:
        Polynomial(coeffs)
    assert str(exc.value) == ("need a vector of at least 3 coefficients (degree >= 2), "
                              f"got shape {shape}")


def test_viete_needs_two_components():
    # a vector of points, as separation checks it: a 2-D array is none
    for x in ([1.0], [[1.0, 2.0], [3.0, 4.0]]):
        for call in (viete, from_roots):
            with pytest.raises(ValueError, match=r"^need a vector of at least 2 "
                                                 r"components, got shape \("):
                call(x)


@pytest.mark.parametrize("leading", [[1.0, 2.0, 3.0], [[2.0]], np.array([2.0])],
                         ids=["list", "2-D", "array of one"])
def test_from_roots_takes_one_leading_number(leading):
    # a list would broadcast against the Viete coefficients: [1, 2] with
    # leading [1, 2, 3] gave z**2 - 6z + 6, whose roots are 3 +- sqrt(3)
    with pytest.raises(ValueError, match=r"^leading must be one number, got shape \("):
        from_roots([1, 2], leading=leading)
    assert from_roots([1, 2], leading=np.float64(2.0)) == Polynomial([2, -6, 4])


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
