import math

import numpy as np
import pytest

import rootcert.measures as measures
from rootcert import (
    IterationTrace,
    MethodKind,
    Polynomial,
    SolveConfig,
    SolveResult,
    UnsupportedCombination,
    a_posteriori_bound_1,
    a_priori_bound,
    coeff_vector,
    default_init,
    e_measure,
    ehrlich_step_bs,
    estimate_order,
    from_roots,
    gauge_bundle,
    known_instance,
    match_roots,
    norm_context,
    solve,
    tanabe_step,
    viete,
    weierstrass_correction,
    weierstrass_step,
)
from conftest import random_monic, well_separated_roots

INF = math.inf
F = Polynomial([1, 0, -1])


class TestDefaultInit:
    def test_quadratic(self):
        x = default_init(F)
        assert x.size == 2
        np.testing.assert_allclose(np.abs(x), [2, 2], rtol=1e-14)
        np.testing.assert_allclose(x[0], -x[1], rtol=1e-14)

    def test_z_squared_distinct(self):
        x = default_init(Polynomial([1, 0, 0]))
        np.testing.assert_allclose(np.abs(x), [1, 1], rtol=1e-14)
        assert x[0] != x[1]

    def test_cubic_center_and_spacing(self):
        f = Polynomial([1, -6, 11, -6])
        x = default_init(f)
        assert np.mean(x) == pytest.approx(2.0, abs=1e-13)
        r = np.abs(x - 2.0)
        np.testing.assert_allclose(r, r[0], rtol=1e-13)
        angles = np.sort(np.angle(x - 2.0))
        np.testing.assert_allclose(np.diff(angles), 2 * np.pi / 3, rtol=1e-12)

    def test_rotation_changes_points(self):
        assert not np.allclose(default_init(F, rotation=0.4),
                               default_init(F, rotation=1.1))


class TestEstimateOrder:
    def test_short_trace_absent(self):
        trace = IterationTrace(iterates=[np.zeros(2)] * 2,
                               w_norms=[np.array([1e-3]), np.array([1e-5])],
                               e_values=[0.1, 0.01])
        assert estimate_order(trace) is None

    def test_synthetic_cubic_sequence(self):
        # e_{k+1} = C e_k^3 with C tuned so four values sit inside the
        # usable window, giving two triples with ratio near 3
        exponents = [2.1, 2.785, 4.825, 10.96]
        w = [np.array([10.0 ** -a]) for a in exponents]
        trace = IterationTrace(iterates=[np.zeros(1)] * 4, w_norms=w,
                               e_values=[0.0] * 4)
        est = estimate_order(trace)
        assert est is not None
        assert 2.7 <= est <= 3.3

    def test_window_excludes_converged_tail(self):
        w = [np.array([v]) for v in (1e-3, 1e-6, 1e-13, 1e-16)]
        trace = IterationTrace(iterates=[np.zeros(1)] * 4, w_norms=w,
                               e_values=[0.0] * 4)
        assert estimate_order(trace) is None

    def test_quadratic_sequence(self):
        # e_{k+1} = e_k^2 stays in the window long enough for 2 triples
        e = [3e-3]
        for _ in range(3):
            e.append(e[-1] ** 2)
        # 3e-3, 9e-6, 8.1e-11, ... last leaves the window; stretch with a
        # constant: use e_{k+1} = 30 e_k^2 instead
        e = [3e-3]
        for _ in range(3):
            e.append(30 * e[-1] ** 2)
        assert all(1e-11 < v < 1e-2 for v in e)
        trace = IterationTrace(iterates=[np.zeros(1)] * 4,
                               w_norms=[np.array([v]) for v in e],
                               e_values=[0.0] * 4)
        assert estimate_order(trace) == pytest.approx(2.0, abs=0.2)


class TestSolve:
    def test_quadratic_example(self):
        res = solve(F, [2.0, -2.0])
        assert res.converged
        assert res.certificate.issued
        assert res.iterations <= 6
        m = match_roots(res.final, [1.0, -1.0])
        assert m.max_abs_error <= 1e-13
        assert res.disjoint and len(res.disks) == 2

    def test_exact_roots_zero_iterations(self):
        res = solve(F, [1.0, -1.0])
        assert res.converged
        assert res.iterations == 0
        assert len(res.trace.iterates) == 1

    def test_uncertified_abort(self):
        res = solve(F, [0.6, -0.6])
        assert not res.certificate.issued
        assert not res.converged
        assert res.iterations == 0
        assert res.disks == [] and not res.disjoint

    def test_weierstrass_requires_opt_out(self):
        with pytest.raises(UnsupportedCombination):
            solve(F, [2.0, -2.0], SolveConfig(method=MethodKind.WEIERSTRASS))
        res = solve(F, [2.0, -2.0],
                    SolveConfig(method=MethodKind.WEIERSTRASS,
                                require_certificate=False))
        assert res.converged
        assert res.certificate is None and res.disks == []

    def test_uncertified_mode_still_iterates(self):
        res = solve(F, [0.6, -0.6], SolveConfig(require_certificate=False))
        assert res.converged
        assert match_roots(res.final, [1.0, -1.0]).max_abs_error <= 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            solve(F, [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                        MethodKind.DOCHEV_BYRNEV,
                                        MethodKind.TANABE])
    def test_live_order_estimate_in_range_when_present(self, method):
        f, x0 = known_instance([0.0, 1.0, -1.0], 0.05, seed=7)
        res = solve(f, x0, SolveConfig(method=method))
        assert res.converged and res.certificate.issued
        if res.order_estimate is not None:
            assert 2.7 <= res.order_estimate <= 3.3


@pytest.mark.parametrize("method", [MethodKind.EHRLICH,
                                    MethodKind.DOCHEV_BYRNEV])
@pytest.mark.parametrize("seed", range(8))
class TestCertifiedRunProperties:
    roots_by_seed = {
        0: [1.0, -1.0],
        1: [0.0, 1.0, 3.0],
        2: [2.0, -1.0 + 1.0j, -1.0 - 1.0j],
        3: [0.0, 1.5, -1.5, 2.5j],
        4: [1.0, -1.0, 1.0j, -1.0j],
        5: [0.0, 1.0, 2.0, 3.0, 4.0],
        6: [1.0, 2.0, -2.0, -1.0 - 2.0j],
        7: [0.5, -0.5, 1.5j, -1.5j, 3.0],
    }

    def run(self, method, seed):
        roots = np.asarray(self.roots_by_seed[seed], dtype=complex)
        f, x0 = known_instance(roots, 0.02, seed=100 + seed)
        res = solve(f, x0, SolveConfig(method=method))
        assert res.certificate.issued and res.converged
        return roots, f, res

    def test_e_values_monotone_until_floor(self, method, seed):
        _, f, res = self.run(method, seed)
        scale = max(1.0, float(np.max(np.abs(f.coeffs))))
        for k in range(len(res.trace.e_values) - 1):
            if np.max(res.trace.w_norms[k]) < 1e-14 * scale:
                break
            assert (res.trace.e_values[k + 1]
                    <= res.trace.e_values[k] + 1e-10)

    def test_ball_containment(self, method, seed):
        _, _, res = self.run(method, seed)
        rho = res.certificate.rho
        x0 = res.trace.iterates[0]
        for x in res.trace.iterates:
            assert np.all(np.abs(x - x0) <= rho + 1e-10)

    def test_bound_domination(self, method, seed):
        roots, f, res = self.run(method, seed)
        bundle = gauge_bundle(method, norm_context(f.degree, INF))
        w0 = res.trace.w_norms[0]
        cert = res.certificate
        for k, x in enumerate(res.trace.iterates):
            m = match_roots(x, roots)
            err = np.abs(np.asarray(x)[list(m.permutation)] - roots)
            assert np.all(err <= a_priori_bound(cert, w0, k) + 1e-10)
            assert np.all(err <= a_posteriori_bound_1(f, x, bundle) + 1e-10)

    def test_limit_is_root_vector(self, method, seed):
        _, f, res = self.run(method, seed)
        resid = np.abs(viete(res.final) - coeff_vector(f))
        scale = max(1.0, float(np.max(np.abs(f.coeffs))))
        assert np.max(resid) <= 1e-9 * scale


def test_default_init_plus_solve_end_to_end():
    roots = np.array([1.0, -1.0, 2.0j])
    f = from_roots(roots, 1.0)
    res = solve(f, default_init(f), SolveConfig(require_certificate=False))
    assert res.converged
    assert match_roots(res.final, roots).max_abs_error <= 1e-10


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iter=0)
    with pytest.raises(ValueError):
        SolveConfig(w_tol=0.0)


def test_non_finite_start_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            solve(F, [bad, -2.0], SolveConfig(require_certificate=False))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_measure_stops_the_run():
    # f overflows at this finite start, so E is not finite from x0 on
    res = solve(F, [1e300, -1e300], SolveConfig(require_certificate=False))
    assert not math.isfinite(res.trace.e_values[0])
    assert res.iterations == 0 and not res.converged
    np.testing.assert_array_equal(res.final, [1e300, -1e300])


@pytest.mark.parametrize("method", [MethodKind.EHRLICH, MethodKind.TANABE,
                                    MethodKind.DOCHEV_BYRNEV])
def test_one_measurement_per_iterate(method, monkeypatch):
    # each iterate costs one whole-vector evaluation of f and one set of
    # separations, shared by the step, the trace, the certificate and disks
    counts = {"evaluate": 0, "separation": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(measures, name)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(measures, name, counted)
    f, x0 = known_instance([1.0, -1.0, 2.0, -2.0j], 0.01, seed=3)
    res = solve(f, x0, SolveConfig(method=method))
    assert res.certificate.issued and res.converged and res.disjoint
    assert res.iterations >= 2
    assert counts == {"evaluate": res.iterations + 1,
                      "separation": res.iterations + 1}


def _plain_run(f, x0, step, cfg):
    """The solve loop written out over the public step functions."""
    ctx = norm_context(f.degree, cfg.p)
    tol = cfg.w_tol * max(1.0, float(np.max(np.abs(f.coeffs))))
    trace = IterationTrace()
    x = np.asarray(x0, dtype=complex)
    while True:
        w = weierstrass_correction(f, x)
        trace.iterates.append(x)
        trace.w_norms.append(np.abs(w))
        trace.e_values.append(e_measure(f, x, ctx))
        if np.max(np.abs(w)) <= tol or len(trace.iterates) > cfg.max_iter:
            return x, trace
        x = step(f, x).image


@pytest.mark.parametrize("method, step", [
    (MethodKind.WEIERSTRASS, weierstrass_step),
    (MethodKind.EHRLICH, ehrlich_step_bs),
    (MethodKind.TANABE, tanabe_step),
])
@pytest.mark.parametrize("seed", range(3))
def test_solve_equals_plain_loop_bitwise(method, step, seed):
    f = random_monic(7, np.random.default_rng(8000 + seed))
    cfg = SolveConfig(method=method, require_certificate=False)
    res = solve(f, default_init(f), cfg)
    final, trace = _plain_run(f, default_init(f), step, cfg)
    assert res.iterations >= 3
    assert np.array_equal(res.final, final)
    for got, want in [(res.trace.iterates, trace.iterates),
                      (res.trace.w_norms, trace.w_norms)]:
        assert len(got) == len(want)
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    assert res.trace.e_values == trace.e_values


@pytest.mark.parametrize("seed", range(3))
def test_dochev_byrnev_runs_the_tanabe_map(seed):
    rng = np.random.default_rng(8100 + seed)
    f, x0 = known_instance(well_separated_roots(5, rng), 0.01, seed=seed)
    db = solve(f, x0, SolveConfig(method=MethodKind.DOCHEV_BYRNEV))
    ta = solve(f, x0, SolveConfig(method=MethodKind.TANABE))
    assert db.certificate.issued and db.iterations >= 1
    assert np.array_equal(db.final, ta.final)
    assert len(db.trace.iterates) == len(ta.trace.iterates)
    assert all(np.array_equal(a, b)
               for a, b in zip(db.trace.iterates, ta.trace.iterates))
