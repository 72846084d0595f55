import dataclasses
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import rootcert
from rootcert import (
    DegreeMismatch,
    Measurement,
    MethodKind,
    NotCertified,
    Polynomial,
    SolveConfig,
    UnsupportedCombination,
    a_posteriori_bound_1,
    a_posteriori_bound_2,
    a_priori_bound,
    certify_initial,
    corollary_threshold,
    e_measure,
    ehrlich_step_bs,
    from_roots,
    gauge_bundle,
    inclusion_disks,
    measure,
    norm_context,
    separation,
    solve,
    solve_R,
    w_contraction_bound,
    weierstrass_correction,
)
from rootcert.certify import _K_CAP, certificate_at, disjoint_at, disks_at
from conftest import roots_of_unity_just_below_tau, well_separated_roots
from oracle import dochev_byrnev_step

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

    def test_unsupported_method_is_named(self):
        # a method name given as a string is not a MethodKind
        with pytest.raises(UnsupportedCombination, match="'ehrlich'"):
            gauge_bundle("ehrlich", CTX2)

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

    @pytest.mark.parametrize("p", [1, 2, INF])
    @pytest.mark.parametrize("n", [2, 3, 7])
    def test_mu_phi_match_closed_forms(self, p, n):
        # mu and phi come from the general theorem; the paper's closed
        # forms are the independent reference
        ctx = norm_context(n, p)
        a, b = ctx.a, ctx.b
        eh = gauge_bundle(MethodKind.EHRLICH, ctx)
        for t in np.linspace(0, eh.tau, 200, endpoint=False):
            bump = (1 + a * t / ((n - 1) * (1 - (a + b) * t))) ** (n - 1)
            phi = a * t * t / ((1 - (a + 1) * t) * (1 - (a + b) * t)) * bump
            assert eh.mu(t) == pytest.approx((1 - (a + 1) * t) / (1 - a * t),
                                             rel=1e-13, abs=1e-15)
            assert eh.phi(t) == pytest.approx(phi, rel=1e-13, abs=1e-15)
        db = gauge_bundle(MethodKind.DOCHEV_BYRNEV, ctx)
        for t in np.linspace(0, db.tau, 200, endpoint=False):
            assert db.mu(t) == pytest.approx(1 - t - a * t * t, rel=1e-13,
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

    def test_certificate_stores_what_certificate_at_decided(self):
        # issued, strict, lambda and the order are each read from phi0
        assert [fl.name for fl in dataclasses.fields(rootcert.Certificate)] == [
            "bundle", "E0", "phi0", "theta", "rho"]
        for name in ("issued", "strict", "lam", "order"):
            assert isinstance(getattr(rootcert.Certificate, name), property), name

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

    def test_unsupported_method_named_by_its_value(self):
        with pytest.raises(UnsupportedCombination) as exc:
            gauge_bundle(MethodKind.WEIERSTRASS, CTX2)
        assert str(exc.value) == "no certification for the method 'weierstrass'"
        # an argument that is no MethodKind shows as its repr
        with pytest.raises(UnsupportedCombination) as exc:
            gauge_bundle("ehrlich", CTX2)
        assert str(exc.value) == "no certification for the method 'ehrlich'"
        with pytest.raises(UnsupportedCombination, match=r"method None$"):
            gauge_bundle(None, CTX2)

    def test_bundle_for_another_degree_is_rejected(self):
        # each point is 0.55 from its root; a degree-2 bundle's tau and
        # radii would issue disks of radius <= 0.499 that all miss
        f = from_roots([1, -1, 2j, -2j])
        x = np.array([1.55, -1.55, 2.55j, -2.55j])
        assert not certify_initial(
            f, x, gauge_bundle(MethodKind.EHRLICH, norm_context(4, INF))).issued
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        calls = [
            lambda: certify_initial(f, x, b),
            lambda: inclusion_disks(f, x, b),
            lambda: a_posteriori_bound_1(f, x, b),
            lambda: a_posteriori_bound_2(f, x, x, b),
            lambda: measure(f, x, b.ctx),
            lambda: e_measure(f, x, b.ctx),
        ]
        for call in calls:
            with pytest.raises(DegreeMismatch, match="n = 2 .*degree 4"):
                call()


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

    def test_a_priori_rejects_negative_k(self):
        # every bound in k rejects a negative k
        for bound in (a_priori_bound, w_contraction_bound):
            with pytest.raises(ValueError):
                bound(self.cert, self.w0, -1)

    def test_bounds_reject_a_fractional_k(self):
        # k counts iterates; numpy integers count too, a bool does not
        for bound in (a_priori_bound, w_contraction_bound):
            for k in (1.5, True):
                with pytest.raises(ValueError, match="integer"):
                    bound(self.cert, self.w0, k)
            np.testing.assert_array_equal(bound(self.cert, self.w0, np.int64(2)),
                                          bound(self.cert, self.w0, 2))

    def test_bounds_take_one_norm_per_component(self):
        # a vector of n entries >= 0, as every function of a point checks n
        cert = solve(Polynomial([1, 0, -1]), [2.0, -2.0]).certificate
        assert cert.issued
        for bound in (a_priori_bound, w_contraction_bound):
            for norms in ([1.0], np.ones((3, 3)), np.ones((2, 1)), 1.0):
                with pytest.raises(DegreeMismatch):
                    bound(cert, norms, 2)
            for norms in ([-1.0, 1.0], [math.nan, 1.0]):
                with pytest.raises(ValueError, match=">= 0"):
                    bound(cert, norms, 2)
            assert bound(cert, [0.5, 0.0], 2).shape == (2,)

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

    def test_a_posteriori_2_rejects_image_at_or_past_tau(self):
        # E(0.6, -0.6) = 0.64 / 1.44 > tau = 1/3
        with pytest.raises(NotCertified, match="xk1"):
            a_posteriori_bound_2(F, X, [0.6, -0.6], self.bundle)

    def test_a_posteriori_2_zero_at_roots(self):
        r = np.array([1.0, -1.0])
        np.testing.assert_array_equal(
            a_posteriori_bound_2(F, r, r, self.bundle), [0, 0])

    def test_w_contraction_k0_is_beta(self):
        bound = w_contraction_bound(self.cert, self.w0, 0)
        want = self.bundle.beta(self.cert.E0) * self.w0
        np.testing.assert_allclose(bound, want, rtol=1e-14)

    def test_unissued_certificate_raises(self):
        cert = certify_initial(F, [0.6, -0.6], self.bundle)
        with pytest.raises(NotCertified):
            w_contraction_bound(cert, self.w0, 1)
        with pytest.raises(NotCertified):
            a_posteriori_bound_2(F, [0.6, -0.6], X, self.bundle)

    def test_w_contraction_zero_lambda(self):
        cert = certify_initial(F, [1.0, -1.0], self.bundle)
        np.testing.assert_array_equal(w_contraction_bound(cert, self.w0, 2),
                                      0 * self.w0)


@pytest.mark.parametrize("method", [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV])
def test_bounds_over_k_shrink_to_zero(method):
    # finite and non-increasing in k, and exactly 0 once k passes the cap
    f, x, _, bundle = certified_instance(5, method, np.random.default_rng(12))
    cert = certify_initial(f, x, bundle)
    assert cert.issued and cert.lam < 1
    w0 = np.abs(weierstrass_correction(f, x))
    for bound in (a_priori_bound, w_contraction_bound):
        b = np.array([bound(cert, w0, k) for k in range(61)])
        assert np.all(np.isfinite(b))
        assert np.all(np.diff(b, axis=0) <= 0)
        assert np.all(b[_K_CAP + 1:] == 0)


@pytest.mark.parametrize("method", [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV])
def test_one_certificate_one_rho(method):
    # the bound, the certificate and the disks read the same radii
    f, x, _, bundle = certified_instance(6, method, np.random.default_rng(31))
    rho = a_posteriori_bound_1(f, x, bundle)
    np.testing.assert_array_equal(rho, certify_initial(f, x, bundle).rho)
    disks, _ = inclusion_disks(f, x, bundle)
    np.testing.assert_array_equal([d.radius for d in disks], rho)
    res = solve(f, x, SolveConfig(method=method))
    assert res.disks
    np.testing.assert_array_equal([d.radius for d in res.disks],
                                  a_posteriori_bound_1(f, res.final, bundle))


@pytest.mark.parametrize("bound", [a_priori_bound, w_contraction_bound])
def test_missing_certificate_is_not_certified(bound):
    # a Weierstrass run has no certificate, and a bound from it says so
    r = solve(F, [2.0, -2.0], SolveConfig(method=MethodKind.WEIERSTRASS,
                                           require_certificate=False))
    assert r.certificate is None
    with pytest.raises(NotCertified, match="got None"):
        bound(r.certificate, np.abs(r.trace[0].w), r.iterations)


def _measurement_at(E, n):
    # certificate_at reads only E and w
    return Measurement(x=np.zeros(n, dtype=complex), w=np.full(n, 1e-3 + 0j),
                       d=np.ones(n), E=E)


def _assert_declined(cert):
    assert not cert.issued and not cert.strict
    assert cert.phi0 == INF and cert.rho is None and cert.order is None


class TestVerdictNearTau:
    def test_psi_rounding_below_zero_declines(self):
        # psi(E) rounds to -5.6e-17 at the float just below tau
        b = gauge_bundle(MethodKind.DOCHEV_BYRNEV, norm_context(3, 1.5))
        e = math.nextafter(b.tau, 0)
        assert b.psi(e) < 0
        _assert_declined(certificate_at(b, _measurement_at(e, 3)))

    @pytest.mark.parametrize("method, n, p, below", [
        (MethodKind.EHRLICH, 300, 2.0, False),   # beta overflows
        (MethodKind.EHRLICH, 1000, 1.0, False),
        (MethodKind.DOCHEV_BYRNEV, 1000, 1.0, False),
        (MethodKind.DOCHEV_BYRNEV, 5, 3.0, True),  # psi(E) = 0: beta divides by it
    ])
    def test_gauge_failure_declines(self, method, n, p, below):
        b = gauge_bundle(method, norm_context(n, p))
        e = math.nextafter(b.tau, 0) if below else b.tau * (1 - 1e-6)
        with pytest.raises(ArithmeticError):
            b.phi(e)
        _assert_declined(certificate_at(b, _measurement_at(e, n)))

    def test_verdict_total_and_sound_just_below_tau(self):
        for method in (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV,
                       MethodKind.TANABE):
            for n in range(2, 201):
                for p in (1, 1.5, 2, 3, 4, INF):
                    b = gauge_bundle(method, norm_context(n, p))
                    es = [b.tau * (1 - 1e-6), math.nextafter(b.tau, 0)]
                    es += [math.nextafter(es[-1], 0)]
                    es += [math.nextafter(es[-1], 0)]
                    for e in es:
                        cert = certificate_at(b, _measurement_at(e, n))
                        if cert.issued:
                            assert 0 <= cert.phi0 <= 1 and cert.theta > 0
                            assert np.all(cert.rho >= 0)

    @pytest.mark.parametrize("method", [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV,
                                        MethodKind.TANABE])
    def test_gauge_values_computed_once_and_match_phi(self, method):
        calls = {"psi": 0, "beta": 0}

        def counted(name, g):
            def wrapped(t):
                calls[name] += 1
                return g(t)
            return wrapped

        for n, p in [(2, INF), (3, 1.5), (17, 1.0), (64, 2.0)]:
            b = gauge_bundle(method, norm_context(n, p))
            counting = dataclasses.replace(b, psi=counted("psi", b.psi),
                                           beta=counted("beta", b.beta))
            es = [float(e) for e in np.linspace(0.0, b.tau, 200, endpoint=False)]
            es += [math.nextafter(b.tau, 0), b.tau, 2 * b.tau, math.nan]
            for e in es:
                m = _measurement_at(e, n)
                calls.update(psi=0, beta=0)
                cert = certificate_at(counting, m)
                assert calls["psi"] <= 1 and calls["beta"] <= 1
                # the certificate as bundle.phi, psi and beta give it
                try:
                    phi0 = b.phi(e) if e < b.tau and b.psi(e) > 0 else INF
                except (OverflowError, ZeroDivisionError):
                    phi0 = INF
                issued = phi0 <= 1
                assert (cert.issued, cert.strict) == (issued, issued and phi0 < 1)
                assert cert.phi0.hex() == phi0.hex()
                if issued:
                    assert cert.lam.hex() == phi0.hex()
                    assert cert.theta.hex() == b.psi(e).hex()
                    rho = b.gamma(e) / (1.0 - b.beta(e)) * np.abs(m.w)
                    assert cert.rho.tobytes() == rho.tobytes()
                else:
                    assert math.isnan(cert.lam) and math.isnan(cert.theta)
                    assert cert.rho is None

    def test_certify_and_solve_decline_where_beta_overflows(self):
        ctx = norm_context(300, 2.0)
        b = gauge_bundle(MethodKind.EHRLICH, ctx)
        f, x = roots_of_unity_just_below_tau(300, ctx, b.tau)
        assert b.tau * (1 - 1e-4) < e_measure(f, x, ctx) < b.tau
        _assert_declined(certify_initial(f, x, b))
        res = solve(f, x, SolveConfig(p=2.0))
        _assert_declined(res.certificate)
        assert res.iterations == 0 and not res.converged


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

    @pytest.mark.parametrize("seed", range(40))
    def test_disjointness_matches_pairwise_loop(self, seed):
        # points 1 apart, n up to 12, with one of four radius mixes; at
        # E = 0 the radii are exactly |W_i|, and the flag must be the
        # brute-force answer, touching counting as overlap
        rng = np.random.default_rng(9000 + seed)
        mix = ("mixed", "touching", "far", "tiny")[seed % 4]
        n = int(rng.integers(3 if mix == "far" else 2, 13))
        x = rng.permutation(n) + 0j
        if mix == "mixed":
            # both touching (0.5 + 0.5) and separate (0.25 + 0.5) neighbours
            w = rng.choice([0.25, 0.5], size=n)
        elif mix == "touching":
            w = np.full(n, 0.5)
        elif mix == "tiny":
            w = rng.uniform(0.0, 1e-300, size=n)
        else:
            # one large disk 64 away from the rest: it stays apart, touches
            # or overlaps its neighbour
            far = int(np.argmax(x.real))
            x[far] += 63.0
            w = np.full(n, 0.25)
            w[far] = rng.choice([32.0, 63.5, 63.75, 64.0])
        b = gauge_bundle(MethodKind.EHRLICH, norm_context(n, INF))
        # tiny radii pass the O(n) test on d
        m = Measurement(x=x, w=w + 0j, d=separation(x), E=0.0)
        cert = certificate_at(b, m)
        disks, disjoint = disks_at(cert, m), disjoint_at(cert, m)
        radii = np.array([d.radius for d in disks])
        if mix == "far":
            # r_i + max r >= d_i for the others: the pairwise test decides
            assert not np.all(radii + radii.max() < m.d)
        want = all(abs(x[i] - x[j]) > radii[i] + radii[j]
                   for i in range(n) for j in range(i + 1, n))
        assert disjoint is want

    @pytest.mark.parametrize("x", [[2.0, -2.0], np.array([2.0, -2.0]), X],
                             ids=["list", "real-array", "complex-array"])
    def test_disk_fields_are_python_scalars(self, x):
        # Disk documents center: complex and radius: float, not numpy scalars
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        m = Measurement(x=X, w=np.array([0.25, 0.5]) + 0j, d=separation(X), E=0.0)
        for disks in (inclusion_disks(F, x, b)[0],
                      disks_at(certificate_at(b, m), m)):
            assert [d.center for d in disks] == [2, -2]
            for d in disks:
                assert type(d.center) is complex
                assert type(d.radius) is float

    def test_disjoint_at_is_false_unless_strict(self):
        b = gauge_bundle(MethodKind.EHRLICH, CTX2)
        m = measure(F, [0.6, -0.6], CTX2)
        unissued = certificate_at(b, m)
        assert not unissued.issued and disjoint_at(unissued, m) is False
        # radii 1e-3 at points 4 apart: only strictness decides the answer
        m, rho = measure(F, X, CTX2), np.array([1e-3, 1e-3])
        edge = rootcert.Certificate(b, m.E, phi0=1.0, theta=0.5, rho=rho)
        assert edge.issued and not edge.strict
        assert disjoint_at(edge, m) is False
        assert disjoint_at(dataclasses.replace(edge, phi0=0.5), m) is True


THRESHOLD_NS = [*range(2, 130), 256, 512, 1024]
CERTIFIABLE = [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV, MethodKind.TANABE]


def _corollary(method, ctx):
    """The corollaries' thresholds in closed form: None where none covers
    (method, p)."""
    if method is MethodKind.EHRLICH:
        return 1.0 / (2.0 * ctx.a + 2.0)
    if math.isinf(ctx.p):
        return 4.0 / (9.0 * ctx.n)
    return solve_R() if ctx.p == 1 else None


class TestThresholds:
    @pytest.mark.parametrize("p", [1, 1.5, 2, INF])
    @pytest.mark.parametrize("method", CERTIFIABLE, ids=lambda m: m.value)
    def test_bundle_threshold_is_the_corollary_threshold(self, method, p):
        for n in THRESHOLD_NS:
            ctx = norm_context(n, p)
            threshold, want = gauge_bundle(method, ctx).threshold, _corollary(method, ctx)
            if want is None:
                assert threshold is None
                with pytest.raises(UnsupportedCombination):
                    corollary_threshold(method, ctx)
            else:
                assert type(threshold) is float and threshold == want, n
                assert corollary_threshold(method, ctx) == threshold

    @pytest.mark.parametrize("p", [1, 1.5, 2, INF])
    @pytest.mark.parametrize("method", CERTIFIABLE, ids=lambda m: m.value)
    def test_threshold_lies_where_phi_is_at_most_1(self, method, p):
        for n in THRESHOLD_NS:
            bundle = gauge_bundle(method, norm_context(n, p))
            if bundle.threshold is not None:
                assert bundle.threshold < bundle.tau, n
                assert bundle.phi(bundle.threshold) <= 1.0, n

    @pytest.mark.parametrize("method, ctx, name", [
        ("ehrlich", CTX2, "'ehrlich'"),
        (None, CTX2, "method None"),
        (MethodKind.WEIERSTRASS, CTX2, "'weierstrass'"),
        (MethodKind.DOCHEV_BYRNEV, norm_context(3, 2), "'dochev-byrnev' with p = 2.0"),
        (MethodKind.TANABE, norm_context(3, 1.5), "'tanabe' with p = 1.5"),
    ], ids=["string", "None", "weierstrass", "dochev-byrnev-p2", "tanabe-p1.5"])
    def test_rejected_method_is_named(self, method, ctx, name):
        with pytest.raises(UnsupportedCombination) as exc:
            corollary_threshold(method, ctx)
        assert name in str(exc.value)

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
        # nor does the package ship the test oracles, as a module or as names
        test_support = ("MatchedRoots", "cone_norm", "dochev_byrnev_step",
                        "ehrlich_step_newton", "known_instance", "match_roots",
                        "newton_viete_step", "sigma_sum",
                        "evaluate_with_derivatives", "coeff_vector",
                        "SingularJacobian", "EvaluationPointCollision")
        src = os.path.dirname(os.path.dirname(rootcert.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import importlib.util, sys, rootcert\n"
             "print('scipy' in sys.modules)\n"
             "print('rootcert.oracle' in sys.modules)\n"
             "print(importlib.util.find_spec('rootcert.oracle') is not None)\n"
             f"print([n for n in {test_support!r} if hasattr(rootcert, n)])"],
            capture_output=True, text=True, check=True, env=env, timeout=60)
        assert out.stdout.split("\n") == ["False", "False", "False", "[]", ""]


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
