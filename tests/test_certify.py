import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rootcert
from rootcert import (
    Measurement,
    MethodKind,
    NotCertified,
    Polynomial,
    UnsupportedCombination,
    a_posteriori_bound_1,
    a_posteriori_bound_2,
    a_priori_bound,
    certify_initial,
    corollary_threshold,
    dochev_byrnev_step,
    e_measure,
    ehrlich_step_bs,
    from_roots,
    gauge_bundle,
    inclusion_disks,
    norm_context,
    separation,
    solve_R,
    w_contraction_bound,
    weierstrass_correction,
)
from rootcert.certify import disks_at
from conftest import well_separated_roots

INF = math.inf
F = Polynomial([1, 0, -1])
X = np.array([2.0, -2.0], dtype=complex)
CTX2 = norm_context(2, INF)


def certified_instance(n, method, rng, p=INF, target=0.5):
    """Constructed-roots instance whose E0 sits near target * tau (certified)."""
    ctx = norm_context(n, p)
    bundle = gauge_bundle(method, ctx)
    roots = well_separated_roots(n, rng)
    f = from_roots(roots, 1.0)
    pert = 0.2
    for _ in range(60):
        x = roots + pert * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        if np.min(separation(x)) > 0:
            e = e_measure(f, x, ctx)
            if e < bundle.tau * target and bundle.phi(e) < 1:
                return f, x, roots, bundle
        pert *= 0.6
    raise RuntimeError("could not build a certified instance")


class TestGaugeBundles:
    def test_ehrlich_n2_inf_phi_closed_form(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        for t in np.linspace(0.0, 0.33, 50):
            want = t * t / (1 - 3 * t) ** 2 if t > 0 else 0.0
            assert b.phi(t) == pytest.approx(want, rel=1e-13, abs=1e-15)
        assert b.phi(0.25) == 1.0

    def test_gauge_normalization(self):
        for method in (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV):
            b = gauge_bundle(method, norm_context(5, 2))
            assert b.phi(0.0) == 0.0
            assert b.psi(0.0) == 1.0
            assert b.gamma(0.0) == 1.0

    def test_dochev_byrnev_tau_n2_inf(self):
        b = gauge_bundle(MethodKind.DOCHEV_BYRNEV, CTX2)
        assert b.tau == pytest.approx(min(1.0, 2 / (2 + math.sqrt(12))),
                                      rel=1e-15)
        assert b.tau == pytest.approx(0.3660254, abs=1e-7)

    def test_tanabe_aliases_dochev_byrnev(self):
        db = gauge_bundle(MethodKind.DOCHEV_BYRNEV, CTX2)
        ta = gauge_bundle(MethodKind.TANABE, CTX2)
        assert ta.tau == db.tau
        for t in np.linspace(0, db.tau * 0.99, 20):
            assert ta.phi(t) == db.phi(t)

    def test_weierstrass_unsupported(self):
        with pytest.raises(UnsupportedCombination):
            gauge_bundle(MethodKind.WEIERSTRASS, CTX2)

    @pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                        MethodKind.DOCHEV_BYRNEV])
    @pytest.mark.parametrize("p", [1, 2, INF])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_psi_mu_consistency(self, method, p, n):
        b = gauge_bundle(method, norm_context(n, p))
        ts = np.linspace(0, b.tau, 1000, endpoint=False)
        for t in ts:
            g = b.gamma(t)
            assert b.psi(t) == pytest.approx(1 - b.ctx.b * t * g, rel=1e-13,
                                             abs=1e-15)
            assert b.mu(t) == pytest.approx(1 - t * g, rel=1e-13, abs=1e-15)
            assert b.phi(t) * b.psi(t) == pytest.approx(b.beta(t), rel=1e-13,
                                                        abs=1e-15)

    @pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                        MethodKind.DOCHEV_BYRNEV])
    def test_beta_quasi_homogeneous_degree_2(self, method):
        b = gauge_bundle(method, norm_context(4, INF))
        ts = np.linspace(1e-6, b.tau * 0.999, 500)
        ratio = np.array([b.beta(t) / t**2 for t in ts])
        assert np.all(np.diff(ratio) >= -1e-13 * ratio[:-1])


class TestCertify:
    def test_issued_example(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        cert = certify_initial(F, X, b)
        assert cert.issued and cert.strict
        assert cert.E0 == 0.1875
        assert cert.phi0 == pytest.approx(0.1875**2 / 0.4375**2, rel=1e-13)
        assert cert.order == 3
        assert cert.lam * cert.theta == pytest.approx(b.beta(cert.E0),
                                                      rel=1e-14)
        np.testing.assert_allclose(cert.rho, [1.0243902, 1.0243902], rtol=1e-6)

    def test_exact_roots_trivial_certificate(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        cert = certify_initial(F, [1.0, -1.0], b)
        assert cert.issued and cert.E0 == 0 and cert.lam == 0
        np.testing.assert_array_equal(cert.rho, [0, 0])

    def test_not_issued(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        cert = certify_initial(F, [0.6, -0.6], b)
        assert not cert.issued
        assert cert.E0 == pytest.approx(abs(0.36 - 1) / 1.2 / 1.2, rel=1e-13)
        assert cert.E0 > 1 / 3


class TestBounds:
    def setup_method(self):
        self.bundle = gauge_bundle(MethodKind.EHRLICH, CTX2)
        self.cert = certify_initial(F, X, self.bundle)
        self.w0 = np.abs(weierstrass_correction(F, X))

    def test_a_priori_k0_equals_rho(self):
        np.testing.assert_allclose(a_priori_bound(self.cert, self.w0, 0),
                                   self.cert.rho, rtol=1e-14)

    def test_a_priori_zero_for_exact_roots(self):
        cert = certify_initial(F, [1.0, -1.0], self.bundle)
        np.testing.assert_array_equal(a_priori_bound(cert, np.zeros(2), 3),
                                      [0, 0])

    def test_a_priori_example_value(self):
        np.testing.assert_allclose(a_priori_bound(self.cert, self.w0, 0),
                                   [1.0243902, 1.0243902], rtol=1e-6)

    def test_a_priori_requires_certificate(self):
        cert = certify_initial(F, [0.6, -0.6], self.bundle)
        with pytest.raises(NotCertified):
            a_priori_bound(cert, self.w0, 1)

    def test_a_posteriori_1_examples(self):
        np.testing.assert_array_equal(
            a_posteriori_bound_1(F, [1.0, -1.0], self.bundle), [0, 0])
        bound = a_posteriori_bound_1(F, X, self.bundle)
        np.testing.assert_allclose(bound, [1.0243902, 1.0243902], rtol=1e-6)
        # dominates the true error |2 - 1| = 1
        assert np.all(bound >= 1.0)

    def test_a_posteriori_1_rejects_bad_point(self):
        with pytest.raises(NotCertified):
            a_posteriori_bound_1(F, [0.6, -0.6], self.bundle)

    def test_a_posteriori_2_example(self):
        x1 = ehrlich_step_bs(F, X).image
        bound = a_posteriori_bound_2(F, X, x1, self.bundle)
        e1 = e_measure(F, x1, CTX2)
        lam0, theta0 = self.cert.lam, self.cert.theta
        want = (theta0 * lam0 / (1 - theta0 * lam0**3)
                * self.bundle.gamma(e1) * 0.75)
        np.testing.assert_allclose(bound, [want, want], rtol=1e-13)
        # dominates the true error at x1
        assert np.all(bound >= np.abs(x1 - np.array([1, -1])))

    def test_a_posteriori_2_zero_at_roots(self):
        r = np.array([1.0, -1.0])
        np.testing.assert_array_equal(
            a_posteriori_bound_2(F, r, r, self.bundle), [0, 0])

    def test_w_contraction_k0_is_beta(self):
        bound = w_contraction_bound(self.cert, self.w0, 0)
        want = self.bundle.beta(self.cert.E0) * self.w0
        np.testing.assert_allclose(bound, want, rtol=1e-14)

    def test_w_contraction_zero_lambda(self):
        cert = certify_initial(F, [1.0, -1.0], self.bundle)
        np.testing.assert_array_equal(w_contraction_bound(cert, self.w0, 2),
                                      0 * self.w0)


class TestDisks:
    def test_exact_roots_zero_radius(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        disks, disjoint = inclusion_disks(F, [1.0, -1.0], b)
        assert disjoint
        assert [d.radius for d in disks] == [0, 0]
        assert [d.center for d in disks] == [1, -1]

    def test_example_disks_contain_roots(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        disks, disjoint = inclusion_disks(F, X, b)
        assert disjoint
        for d, root in zip(disks, [1.0, -1.0]):
            assert d.radius == pytest.approx(1.0243902, rel=1e-6)
            assert abs(d.center - root) <= d.radius

    def test_perturbed_three_roots(self):
        rng = np.random.default_rng(11)
        roots = np.array([0.0, 1.0, 3.0])
        f = from_roots(roots, 1.0)
        x = roots + 0.01 * (rng.uniform(-1, 1, 3) + 1j * rng.uniform(-1, 1, 3))
        b = gauge_bundle(MethodKind.EHRLICH, norm_context(3, INF))
        disks, disjoint = inclusion_disks(f, x, b)
        assert disjoint
        for d, root in zip(disks, roots):
            assert abs(d.center - root) <= d.radius

    def test_rejects_uncertified_point(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        with pytest.raises(NotCertified):
            inclusion_disks(F, [0.6, -0.6], b)

    @pytest.mark.parametrize("seed", range(20))
    def test_disjointness_matches_pairwise_loop(self, seed):
        # at E = 0 the radii are exactly |W_i|; on points 1 apart these W
        # give both touching and separate neighbours, and touching counts
        # as overlap
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, 6))
        x = rng.permutation(n) + 0j
        w = rng.choice([0.25, 0.5], size=n) + 0j
        b = gauge_bundle(MethodKind.EHRLICH, norm_context(n, INF))
        disks, disjoint = disks_at(x, b, Measurement(w=w, d=separation(x), E=0.0))
        radii = [d.radius for d in disks]
        want = all(abs(x[i] - x[j]) > radii[i] + radii[j]
                   for i in range(n) for j in range(i + 1, n))
        assert disjoint is want


class TestThresholds:
    def test_ehrlich_n5(self):
        assert corollary_threshold(MethodKind.EHRLICH,
                                   norm_context(5, INF)) == pytest.approx(0.1)

    def test_dochev_byrnev_inf(self):
        assert corollary_threshold(MethodKind.DOCHEV_BYRNEV,
                                   CTX2) == pytest.approx(4 / 18)

    def test_dochev_byrnev_p1(self):
        val = corollary_threshold(MethodKind.DOCHEV_BYRNEV, norm_context(4, 1))
        assert val == pytest.approx(0.2636, abs=5e-4)

    def test_unsupported_pairs(self):
        with pytest.raises(UnsupportedCombination):
            corollary_threshold(MethodKind.DOCHEV_BYRNEV, norm_context(3, 2))
        with pytest.raises(UnsupportedCombination):
            corollary_threshold(MethodKind.WEIERSTRASS, CTX2)


class TestSolveR:
    @staticmethod
    def lhs(t):
        u = 1 - t - t * t
        return (t * t * (1 + t) * (2 + t) / ((1 - t) * u * u)
                * math.exp((t + t * t) / u))

    def test_bracket_signs(self):
        assert self.lhs(0.1) < 1
        assert self.lhs(0.4) > 1

    def test_value(self):
        r = solve_R()
        assert round(r, 4) == 0.2636
        assert self.lhs(r) == pytest.approx(1.0, abs=1e-9)
        assert 0 < r < (math.sqrt(5) - 1) / 2

    def test_threshold_is_sufficient(self):
        assert self.lhs(solve_R()) <= 1

    def test_import_does_not_load_scipy(self):
        src = os.path.dirname(os.path.dirname(rootcert.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, rootcert; print('scipy' in sys.modules)"],
            capture_output=True, text=True, check=True, env=env, timeout=60)
        assert out.stdout.strip() == "False"


@pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                    MethodKind.DOCHEV_BYRNEV])
@pytest.mark.parametrize("seed", range(10))
def test_image_separation_lower_bound(method, seed):
    # d(T(x)) >= psi(E) d(x) componentwise on certified instances
    rng = np.random.default_rng(5000 + seed)
    n = int(rng.integers(2, 8))
    f, x, _, bundle = certified_instance(n, method, rng)
    e = e_measure(f, x, bundle.ctx)
    step = ehrlich_step_bs if method is MethodKind.EHRLICH else dochev_byrnev_step
    image = step(f, x).image
    assert np.all(separation(image) >= bundle.psi(e) * separation(x) - 1e-12)


@pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                    MethodKind.DOCHEV_BYRNEV])
@pytest.mark.parametrize("seed", range(10))
def test_w_contraction_pointwise(method, seed):
    # |W_i(T(x))| <= beta(E) |W_i(x)| on certified instances
    rng = np.random.default_rng(6000 + seed)
    n = int(rng.integers(2, 8))
    f, x, _, bundle = certified_instance(n, method, rng)
    e = e_measure(f, x, bundle.ctx)
    step = ehrlich_step_bs if method is MethodKind.EHRLICH else dochev_byrnev_step
    image = step(f, x).image
    w_img = np.abs(weierstrass_correction(f, image))
    w_here = np.abs(weierstrass_correction(f, x))
    scale = max(1.0, float(np.max(np.abs(f.coeffs))))
    assert np.all(w_img <= bundle.beta(e) * w_here + 1e-12 * scale)


@pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                    MethodKind.DOCHEV_BYRNEV])
@pytest.mark.parametrize("seed", range(10))
def test_gauge_descent(method, seed):
    # E(T(x)) <= E * beta(E) / psi(E) on certified instances
    rng = np.random.default_rng(7000 + seed)
    n = int(rng.integers(2, 8))
    f, x, _, bundle = certified_instance(n, method, rng)
    e = e_measure(f, x, bundle.ctx)
    step = ehrlich_step_bs if method is MethodKind.EHRLICH else dochev_byrnev_step
    image = step(f, x).image
    assert (e_measure(f, image, bundle.ctx)
            <= e * bundle.beta(e) / bundle.psi(e) + 1e-10)


def test_ehrlich_phi_at_corollary_threshold():
    for n in range(2, 101):
        for p in (1, 2, INF):
            ctx = norm_context(n, p)
            b = gauge_bundle(MethodKind.EHRLICH, ctx)
            r = 1.0 / (2 * ctx.a + 2)
            val = b.phi(r)
            if n == 2 and math.isinf(p):
                assert val == pytest.approx(1.0, abs=1e-12)
            else:
                assert val < 1.0


def test_dochev_byrnev_phi_at_corollary_threshold():
    for n in range(2, 1001):
        ctx = norm_context(n, INF)
        b = gauge_bundle(MethodKind.DOCHEV_BYRNEV, ctx)
        assert b.phi(4.0 / (9 * n)) < 1.0
