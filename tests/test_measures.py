import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootcert import (
    BadExponent,
    DegreeMismatch,
    MethodKind,
    NonDistinctComponents,
    Polynomial,
    SolveConfig,
    a_posteriori_bound_1,
    a_posteriori_bound_2,
    certify_initial,
    default_init,
    e_measure,
    ehrlich_step_bs,
    evaluate,
    from_roots,
    gauge_bundle,
    inclusion_disks,
    measure,
    norm_context,
    p_norm,
    separation,
    solve,
    tanabe_step,
    viete,
    weierstrass_correction,
    weierstrass_step,
)
from rootcert import measures
from rootcert.measures import differences, sigmas
from conftest import random_distinct_points, random_monic
from oracle import (
    EvaluationPointCollision,
    dochev_byrnev_step,
    ehrlich_step_newton,
    sigma_sum,
)

INF = math.inf


class TestNormContext:
    def test_p_inf(self):
        ctx = norm_context(2, INF)
        assert (ctx.q, ctx.a, ctx.b) == (1, 1, 2)

    def test_p_one(self):
        ctx = norm_context(2, 1)
        assert (ctx.q, ctx.a, ctx.b) == (INF, 1, 1)

    def test_p_two(self):
        ctx = norm_context(5, 2)
        assert ctx.q == 2
        assert ctx.a == pytest.approx(2.0)
        assert ctx.b == pytest.approx(math.sqrt(2))

    def test_endpoint_conventions_general_n(self):
        ctx = norm_context(7, INF)
        assert (ctx.a, ctx.b) == (6, 2)
        ctx = norm_context(7, 1)
        assert (ctx.a, ctx.b) == (1, 1)

    def test_bad_exponent(self):
        with pytest.raises(BadExponent):
            norm_context(3, 0.5)

    @pytest.mark.parametrize("n", [2.5, 2.0, True, 1, np.int64(1), "3"])
    def test_degree_must_be_an_integer_of_at_least_2(self, n):
        # no polynomial has degree 2.5, so no context is built for it
        with pytest.raises(ValueError, match=re.escape(f"integer >= 2, got {n!r}")):
            norm_context(n, 2.0)

    def test_numpy_integer_degree(self):
        # stored as an int, so a certificate's n stays JSON-serialisable
        ctx = norm_context(np.int64(5), 2)
        assert ctx == norm_context(5, 2) and type(ctx.n) is int


def test_separation_examples():
    np.testing.assert_array_equal(separation([2, -2]), [4, 4])
    np.testing.assert_array_equal(separation([0, 1, 3]), [1, 1, 2])
    np.testing.assert_array_equal(separation([0, 0]), [0, 0])


def test_separation_takes_only_x():
    # a caller's D could disagree with x: [0, 1, 3] read from the
    # differences of [0, 10, 30] gave [10, 10, 20]
    with pytest.raises(TypeError):
        separation([0, 1, 3], differences([0, 10, 30]))


def test_separation_needs_two_components():
    with pytest.raises(ValueError):
        separation([1.0])


@pytest.mark.parametrize("x", [[np.nan, 1.0], [np.inf, 1.0, 2.0]], ids=["nan", "inf"])
def test_separation_needs_finite_points(x):
    # the rule every function of a point applies where the point enters;
    # viete shares separation's check, and from_roots checks its roots as
    # coefficients, before any arithmetic, so neither warns
    with pytest.raises(ValueError, match="^points must be finite$"):
        separation(x)
    with pytest.raises(ValueError, match="^points must be finite$"):
        viete(x)
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        from_roots(x)


def test_weierstrass_correction_examples():
    f = Polynomial([1, 0, -1])
    np.testing.assert_allclose(weierstrass_correction(f, [2, -2]), [0.75, -0.75])
    np.testing.assert_array_equal(weierstrass_correction(f, [1, -1]), [0, 0])
    g = Polynomial([2, 0, -2])
    np.testing.assert_allclose(weierstrass_correction(g, [2, -2]), [0.75, -0.75])


def test_weierstrass_correction_errors():
    f = Polynomial([1, 0, -1])
    with pytest.raises(NonDistinctComponents):
        weierstrass_correction(f, [2, 2])
    with pytest.raises(DegreeMismatch):
        weierstrass_correction(f, [1, 2, 3])


def test_points_must_form_a_vector():
    # one rule and one message for the shape of a point: as many points as
    # the degree in a 2 x 2 or 1 x 4 array, or too few in a vector, are each
    # rejected by the shape, not components misread as coinciding
    f = from_roots([1, -1, 2j, -2j])
    good = np.array([1.01, -1.01, 2.01j, -2.01j])
    ctx = norm_context(4, INF)
    bundle = gauge_bundle(MethodKind.EHRLICH, ctx)
    assert certify_initial(f, good, bundle).issued
    shapes = [np.array([[1.1, -1.1], [2.1j, -2.1j]]), np.array([1.1]), np.array([]),
              np.array([[1.1, -1.1, 2.1j, -2.1j]])]
    for x in shapes:
        calls = [
            lambda: measure(f, x, ctx),
            lambda: weierstrass_correction(f, x),
            lambda: e_measure(f, x, ctx),
            lambda: solve(f, x),
            lambda: weierstrass_step(f, x),
            lambda: ehrlich_step_bs(f, x),
            lambda: tanabe_step(f, x),
            lambda: certify_initial(f, x, bundle),
            lambda: a_posteriori_bound_1(f, x, bundle),
            lambda: a_posteriori_bound_2(f, x, good, bundle),
            lambda: a_posteriori_bound_2(f, good, x, bundle),
            lambda: inclusion_disks(f, x, bundle),
            lambda: separation(x),
            lambda: viete(x),
            lambda: from_roots(x),
        ]
        for call in calls:
            with pytest.raises(DegreeMismatch, match=r"^need a vector of at least 2 "
                                                     r"components, got shape \("):
                call()


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_points_must_be_finite(bad):
    # the gate where a point enters rejects it, rather than each function
    # returning NaN or a bound raising NotCertified (E = nan)
    f = from_roots([1, -1, 2j, -2j])
    good = np.array([1.01, -1.01, 2.01j, -2.01j])
    x = np.array([bad, -1.1, 2.1j, -2.1j])
    ctx = norm_context(4, INF)
    bundle = gauge_bundle(MethodKind.EHRLICH, ctx)
    assert certify_initial(f, good, bundle).issued
    measured = [
        lambda: measure(f, x, ctx),
        lambda: weierstrass_correction(f, x),
        lambda: e_measure(f, x, ctx),
        lambda: certify_initial(f, x, bundle),
        lambda: a_posteriori_bound_1(f, x, bundle),
        lambda: a_posteriori_bound_2(f, x, good, bundle),
        lambda: a_posteriori_bound_2(f, good, x, bundle),
        lambda: inclusion_disks(f, x, bundle),
        lambda: weierstrass_step(f, x),
        lambda: ehrlich_step_bs(f, x),
        lambda: tanabe_step(f, x),
        lambda: solve(f, x, SolveConfig(require_certificate=False)),
    ]
    for call in measured:
        with pytest.raises(ValueError, match="finite"):
            call()


@pytest.mark.parametrize("recorded", [False, True], ids=["fresh", "recorded"])
def test_measurement_does_not_alias_the_point(recorded):
    f = from_roots([1, -1, 2j, -2j])
    x = np.array([1.1, -1.1, 2.1j, -2.1j])
    ctx = norm_context(4, INF)
    if recorded:
        solve(f, x, SolveConfig(require_certificate=False))
    m = measure(f, x, ctx)
    assert not np.shares_memory(m.x, x)
    x[0] = 7.0
    assert m.x[0] == 1.1
    assert measure(f, m.x, ctx).w.tobytes() == m.w.tobytes()


W_ALONE = {
    "weierstrass_correction": weierstrass_correction,
    "weierstrass_step": lambda f, x: weierstrass_step(f, x).corrections,
    "ehrlich_step_bs": lambda f, x: ehrlich_step_bs(f, x).corrections,
    "tanabe_step": lambda f, x: tanabe_step(f, x).corrections,
}


def _count_separations(monkeypatch) -> list:
    # measure reduces d from its own D in measures._separations, which
    # the public separation(x) also calls
    calls = []

    def counted(*args, _original=measures._separations):
        calls.append(args)
        return _original(*args)
    monkeypatch.setattr(measures, "_separations", counted)
    return calls


@pytest.mark.parametrize("name", W_ALONE)
@pytest.mark.parametrize("seed", range(3))
def test_w_alone_reduces_separations_once(monkeypatch, name, seed):
    # one separation reduction where measure makes it, none in a step,
    # which reads no d; W is measure's W, bitwise
    rng = np.random.default_rng(4000 + seed)
    f = random_monic(12, rng)
    x = random_distinct_points(12, rng)
    calls = _count_separations(monkeypatch)
    w = W_ALONE[name](f, x)
    assert len(calls) == (1 if name == "weierstrass_correction" else 0)
    assert w.tobytes() == measure(f, x, norm_context(12, INF)).w.tobytes()


@pytest.mark.parametrize("name", W_ALONE)
@pytest.mark.parametrize("x", [[2.0, 2.0], [0.5, 3.0, 1.0, 3.0], [1j, 4.0, 1j]],
                         ids=["pair", "later-pair", "first-and-last"])
def test_w_alone_rejects_coinciding_components_as_measure_does(name, x):
    f = random_monic(len(x), np.random.default_rng(41))
    with pytest.raises(NonDistinctComponents) as want:
        measure(f, x, norm_context(len(x), INF))
    with pytest.raises(NonDistinctComponents) as got:
        W_ALONE[name](f, x)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", ["measure", *W_ALONE])
def test_coinciding_components_raise_before_an_overflowing_product_warns(name):
    # 300 points on a circle of radius 50, the first two equal: the other
    # products over j != i overflow, yet the coincidence raises first, as
    # the only error, with RuntimeWarning an error as in tier-1
    x = 50 * np.exp(2j * np.pi * np.arange(300) / 300)
    x[1] = x[0]
    f = Polynomial(np.r_[1.0, np.zeros(299), -1.0])
    call = W_ALONE.get(name, lambda f, x: measure(f, x, norm_context(300, INF)))
    with pytest.raises(NonDistinctComponents, match=r"^components coincide \(index 0\)$"):
        call(f, x)


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("name", ["weierstrass_correction", "weierstrass_step"])
def test_w_alone_underflowing_products_fall_back_to_separations(monkeypatch, name):
    # 64 distinct points 1e-7 apart: each product over j != i underflows
    # to 0, so the separations decide (no zero among them) and W is
    # measure's, infinite after the division by zero
    f = random_monic(64, np.random.default_rng(64))
    x = 1e-7 * np.arange(64) + 0j
    calls = _count_separations(monkeypatch)
    w = W_ALONE[name](f, x)
    assert len(calls) == 1
    assert w.tobytes() == measure(f, x, norm_context(64, INF)).w.tobytes()


def test_e_measure_examples():
    f = Polynomial([1, 0, -1])
    assert e_measure(f, [2, -2], norm_context(2, INF)) == pytest.approx(0.1875)
    assert e_measure(f, [2, -2], norm_context(2, 1)) == pytest.approx(0.375)
    assert e_measure(f, [1, -1], norm_context(2, INF)) == 0


def test_sigma_sum_examples():
    f = Polynomial([1, 0, -1])
    x = np.array([2, -2], dtype=complex)
    w = weierstrass_correction(f, x)
    assert sigma_sum(w, x, 0, 2.0) == pytest.approx(-0.1875)
    assert sigma_sum(np.zeros(2), x, 0, 5.0) == 0
    at = 14 / 13  # Ehrlich image of the first component
    assert sigma_sum(w, x, 0, at) == pytest.approx(-0.75 / (at + 2))


def test_sigma_sum_collision():
    with pytest.raises(EvaluationPointCollision):
        sigma_sum([1.0, 1.0], [2.0, -2.0], 0, -2.0)


@pytest.mark.parametrize("p", [1, 1.5, 2, 3, INF])
def test_p_norm_against_numpy(p):
    rng = np.random.default_rng(5)
    v = rng.uniform(0, 3, 7)
    assert p_norm(v, p) == pytest.approx(np.linalg.norm(v, ord=p), rel=1e-13)


@pytest.mark.parametrize("p", [1, 2, 3.5, INF])
def test_p_norm_of_an_infinite_entry_is_inf(p):
    assert p_norm([1.0, INF], p) == INF


@pytest.mark.parametrize("p", [1, 2, INF])
def test_p_norm_of_an_empty_vector_is_zero(p):
    assert p_norm([], p) == 0.0


def test_p_norm_huge_p_no_overflow():
    v = np.array([1e200, 2e200])
    assert p_norm(v, 100.0) == pytest.approx(2e200, rel=1e-10)


@pytest.mark.parametrize("p", [0, -1, 0.5, np.nan], ids=["0", "-1", "0.5", "nan"])
def test_p_norm_takes_norm_contexts_exponent_rule(p):
    with pytest.raises(BadExponent, match="1 <= p <= inf"):
        p_norm([1.0, 2.0], p)


@pytest.mark.parametrize("p", [1, 2, INF])
@pytest.mark.parametrize("v", [[1, -5], [-1], [1.0, -INF], [[1, 2], [3, 4]],
                               [-1.0, np.nan], [np.nan, -1.0]],
                         ids=["negative-entry", "all-negative", "minus-inf", "matrix",
                              "negative-then-nan", "nan-then-negative"])
def test_p_norm_takes_only_a_vector_of_entries_at_least_0(v, p):
    with pytest.raises(ValueError, match="p_norm needs a vector of entries >= 0"):
        p_norm(v, p)


@pytest.mark.parametrize("p", [1, 2, INF])
def test_p_norm_of_a_nan_entry_is_nan(p):
    assert math.isnan(p_norm([1.0, np.nan], p))


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("p", [1, 2, INF])
def test_sigma_bounded_by_a_times_e(seed, p):
    rng = np.random.default_rng(seed)
    n = rng.integers(2, 8)
    f = random_monic(n, rng)
    x = random_distinct_points(n, rng)
    ctx = norm_context(n, p)
    w = weierstrass_correction(f, x)
    e = e_measure(f, x, ctx)
    for i in range(n):
        assert abs(sigma_sum(w, x, i, x[i])) <= ctx.a * e * (1 + 1e-12)


@pytest.mark.parametrize("seed", range(10))
def test_e_measure_affine_invariance(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(2, 7))
    roots = random_distinct_points(n, rng)
    f = from_roots(roots, 1.0)
    x = random_distinct_points(n, rng)
    ctx = norm_context(n, INF)
    s = 0.5 + 1.25j
    c = -0.3 + 0.7j
    # conjugate polynomial h(z) = f(s z + c) and pulled-back points
    h = from_roots((roots - c) / s, complex(f.leading * s**n))
    y = (x - c) / s
    assert e_measure(h, y, ctx) == pytest.approx(e_measure(f, x, ctx), rel=1e-10)


def test_weierstrass_leading_scale_invariance():
    rng = np.random.default_rng(6)
    f = random_monic(5, rng)
    g = Polynomial((2.0 - 1.0j) * f.coeffs)
    x = random_distinct_points(5, rng)
    np.testing.assert_allclose(weierstrass_correction(f, x),
                               weierstrass_correction(g, x), rtol=1e-14)


def test_permutation_equivariance():
    rng = np.random.default_rng(7)
    n = 6
    f = random_monic(n, rng)
    x = random_distinct_points(n, rng)
    perm = rng.permutation(n)
    ctx = norm_context(n, 2)
    np.testing.assert_allclose(weierstrass_correction(f, x[perm]),
                               weierstrass_correction(f, x)[perm], rtol=1e-13)
    np.testing.assert_allclose(separation(x[perm]), separation(x)[perm])
    assert e_measure(f, x[perm], ctx) == pytest.approx(e_measure(f, x, ctx))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_p_monotonicity_max_le_sum(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    f = random_monic(n, rng)
    x = random_distinct_points(n, rng)
    e_inf = e_measure(f, x, norm_context(n, INF))
    e_one = e_measure(f, x, norm_context(n, 1))
    assert e_inf <= e_one * (1 + 1e-14)


# The pairwise kernel at degree 128 against plain per-component loops and
# the reference forms, at the Aberth start and at a point near the roots.
KAC_N = 128


@pytest.fixture(scope="module", params=["default_init", "near_root"])
def kac_point(request):
    f = random_monic(KAC_N, np.random.default_rng(1280))
    if request.param == "default_init":
        return f, default_init(f)
    rng = np.random.default_rng(1281)
    return f, np.roots(f.coeffs) + 1e-6 * np.exp(2j * np.pi * rng.uniform(size=KAC_N))


def test_kernel_w_and_d_match_loops(kac_point):
    f, x = kac_point
    m = measure(f, x, norm_context(KAC_N, INF))
    fx = evaluate(f, x)
    w_loop = np.empty(KAC_N, dtype=complex)
    d_loop = np.empty(KAC_N)
    for i in range(KAC_N):
        prod, dmin = 1.0 + 0.0j, math.inf
        for j in range(KAC_N):
            if j != i:
                prod *= complex(x[i]) - complex(x[j])
                dmin = min(dmin, abs(complex(x[i]) - complex(x[j])))
        w_loop[i] = complex(fx[i]) / (f.leading * prod)
        d_loop[i] = dmin
    np.testing.assert_allclose(m.w, w_loop, rtol=1e-12, atol=0)
    np.testing.assert_allclose(m.d, d_loop, rtol=1e-12, atol=0)


def test_kernel_sigma_matches_oracle(kac_point):
    f, x = kac_point
    m = measure(f, x, norm_context(KAC_N, INF))
    got = sigmas(m.w, differences(x))
    for i in range(KAC_N):
        others = np.arange(KAC_N) != i
        scale = np.sum(np.abs(m.w[others] / (x[i] - x[others])))
        assert abs(got[i] - sigma_sum(m.w, x, i, x[i])) <= 1e-12 * scale


@pytest.mark.parametrize("step, reference", [
    (ehrlich_step_bs, ehrlich_step_newton),
    (tanabe_step, dochev_byrnev_step),
])
def test_kernel_steps_match_reference_forms(kac_point, step, reference):
    f, x = kac_point
    np.testing.assert_allclose(step(f, x).image, reference(f, x).image,
                               rtol=1e-10, atol=0)
