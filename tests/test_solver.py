import dataclasses
import importlib
import math

import numpy as np
import pytest

import rootcert.measures as measures
from rootcert import (
    BadExponent,
    Measurement,
    MethodKind,
    Polynomial,
    SolveConfig,
    SolveResult,
    UnsupportedCombination,
    a_posteriori_bound_1,
    a_priori_bound,
    certify_initial,
    default_init,
    ehrlich_step_bs,
    estimate_order,
    from_roots,
    gauge_bundle,
    inclusion_disks,
    measure,
    norm_context,
    solve,
    tanabe_step,
    viete,
    weierstrass_step,
)
from conftest import random_monic, well_separated_roots
from oracle import coeff_vector, known_instance, match_roots

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


def _synthetic_trace(w_norms):
    """A trace of measurements whose W_k are the given vectors."""
    return [Measurement(x=np.zeros(w.size), w=w, d=np.ones(w.size), E=0.0)
            for w in w_norms]


class TestEstimateOrder:
    def test_short_trace_absent(self):
        trace = _synthetic_trace([np.array([1e-3]), np.array([1e-5])])
        assert estimate_order(trace) is None

    def test_synthetic_cubic_sequence(self):
        # e_{k+1} = C e_k^3 with C tuned so four values sit inside the
        # usable window, giving two triples with ratio near 3
        exponents = [2.1, 2.785, 4.825, 10.96]
        w = [np.array([10.0 ** -a]) for a in exponents]
        trace = _synthetic_trace(w)
        est = estimate_order(trace)
        assert est is not None
        assert 2.7 <= est <= 3.3

    def test_window_excludes_converged_tail(self):
        w = [np.array([v]) for v in (1e-3, 1e-6, 1e-13, 1e-16)]
        trace = _synthetic_trace(w)
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
        trace = _synthetic_trace([np.array([v]) for v in e])
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
        assert len(res.trace) == 1

    def test_uncertified_abort(self):
        res = solve(F, [0.6, -0.6])
        assert not res.certificate.issued
        assert not res.converged
        assert res.iterations == 0
        assert res.disks == [] and not res.disjoint

    @pytest.mark.parametrize("start", [[2.0, -2.0], [0.6, -0.6]],
                             ids=["converged", "aborted"])
    def test_result_does_not_alias_x0(self, start):
        x0 = np.array(start, dtype=complex)
        res = solve(F, x0)
        final, first = res.final.copy(), res.trace[0].x.copy()
        x0[:] = 7.0
        assert np.array_equal(res.final, final)
        assert np.array_equal(res.trace[0].x, first)
        assert np.array_equal(first, start)

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

    @pytest.mark.parametrize("method", list(MethodKind), ids=lambda m: m.value)
    def test_order_estimate_is_read_from_the_trace(self, method, monkeypatch):
        # solve computes no estimate; the result reads it from its trace
        module = importlib.import_module("rootcert.solve")
        calls = []

        def counted(trace, _original=module.estimate_order):
            calls.append(len(trace))
            return _original(trace)

        monkeypatch.setattr(module, "estimate_order", counted)
        # (z - 1)^2 (z + 1): linear convergence at the double root gives an
        # estimate for every method
        f = Polynomial([1, -1, -1, 1])
        res = solve(f, default_init(f), SolveConfig(method=method,
                                                    require_certificate=False))
        assert res.converged and calls == []
        got = res.order_estimate
        assert calls == [len(res.trace)]
        assert got is not None and got == estimate_order(res.trace)

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
        for k in range(len(res.trace) - 1):
            if np.max(np.abs(res.trace[k].w)) < 1e-14 * scale:
                break
            assert (res.trace[k + 1].E
                    <= res.trace[k].E + 1e-10)

    def test_ball_containment(self, method, seed):
        _, _, res = self.run(method, seed)
        rho = res.certificate.rho
        x0 = res.trace[0].x
        for x in [m.x for m in res.trace]:
            assert np.all(np.abs(x - x0) <= rho + 1e-10)

    def test_bound_domination(self, method, seed):
        roots, f, res = self.run(method, seed)
        bundle = gauge_bundle(method, norm_context(f.degree, INF))
        w0 = np.abs(res.trace[0].w)
        cert = res.certificate
        for k, x in enumerate([m.x for m in res.trace]):
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
    # a method name given as a string, not a MethodKind
    with pytest.raises(ValueError, match="'ehrlich'"):
        SolveConfig(method="ehrlich")
    # a fractional or boolean count of iterations; numpy integers pass
    for max_iter in (2.5, True):
        with pytest.raises(ValueError, match="integer"):
            SolveConfig(max_iter=max_iter)
    assert SolveConfig(max_iter=np.int64(3)).max_iter == 3


@pytest.mark.parametrize("w_tol", [math.inf, math.nan, -1e-13])
def test_w_tol_must_be_finite_and_positive(w_tol):
    # an infinite tolerance would report the starting points as roots
    with pytest.raises(ValueError, match="w_tol must be finite and > 0"):
        SolveConfig(w_tol=w_tol)


def test_weierstrass_certificate_rejected_by_the_config():
    # the rule holds where the config is built, before any solve
    with pytest.raises(UnsupportedCombination, match="no certificate"):
        SolveConfig(method=MethodKind.WEIERSTRASS)
    assert SolveConfig(method=MethodKind.WEIERSTRASS,
                       require_certificate=False).method is MethodKind.WEIERSTRASS


@pytest.mark.parametrize("p", [0.5, math.nan])
def test_bad_exponent_rejected_by_the_config(p):
    # p passes norm_context's rule where the config is built, before any solve
    with pytest.raises(BadExponent, match="p must satisfy 1 <= p <= inf"):
        SolveConfig(p=p)


def test_bad_exponent_reported_before_bad_start():
    with pytest.raises(BadExponent):
        solve(F, [np.nan, -2.0], SolveConfig(p=0.5))


def test_non_finite_start_rejected():
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError):
            solve(F, [bad, -2.0], SolveConfig(require_certificate=False))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_measure_stops_the_run():
    # f overflows at this finite start, so E is not finite from x0 on
    res = solve(F, [1e300, -1e300], SolveConfig(require_certificate=False))
    assert not math.isfinite(res.trace[0].E)
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
    trace = []
    x = np.asarray(x0, dtype=complex)
    while True:
        m = measure(f, x, ctx)
        trace.append(m)
        if np.max(np.abs(m.w)) <= tol or len(trace) > cfg.max_iter:
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
    assert len(res.trace) == len(trace)
    for got, want in zip(res.trace, trace):
        assert all(np.array_equal(getattr(got, k), getattr(want, k))
                   for k in ("x", "w", "d"))
        assert got.E == want.E


@pytest.mark.parametrize("seed", range(3))
def test_dochev_byrnev_runs_the_tanabe_map(seed):
    rng = np.random.default_rng(8100 + seed)
    f, x0 = known_instance(well_separated_roots(5, rng), 0.01, seed=seed)
    db = solve(f, x0, SolveConfig(method=MethodKind.DOCHEV_BYRNEV))
    ta = solve(f, x0, SolveConfig(method=MethodKind.TANABE))
    assert db.certificate.issued and db.iterations >= 1
    assert np.array_equal(db.final, ta.final)
    assert len(db.trace) == len(ta.trace)
    assert all(np.array_equal(a.x, b.x)
               for a, b in zip(db.trace, ta.trace))


@pytest.mark.parametrize("kwargs", [
    # a truthy string would abort a run that was asked not to certify
    {"require_certificate": "false"}, {"require_certificate": 0},
    {"require_certificate": None},
    {"w_tol": True}, {"w_tol": np.bool_(True)}, {"w_tol": "1e-13"},
], ids=repr)
def test_config_settings_have_one_type_rule(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        SolveConfig(**kwargs)


@pytest.mark.parametrize("p", [True, False, np.bool_(True), "inf", "2"], ids=repr)
def test_exponent_is_a_real_number_not_a_bool_or_string(p):
    for build in (lambda: SolveConfig(p=p), lambda: norm_context(3, p),
                  lambda: measures.p_norm([1.0, 2.0], p)):
        with pytest.raises(BadExponent, match="1 <= p <= inf"):
            build()


def test_numpy_scalars_pass_the_config_rules():
    cfg = SolveConfig(p=np.float64(2.0), w_tol=np.float32(1e-10),
                      require_certificate=np.bool_(False))
    assert solve(F, [0.6, -0.6], cfg).converged


def test_solve_result_fields():
    # the disks and their disjointness are read from the final certificate
    assert [fl.name for fl in dataclasses.fields(SolveResult)] == [
        "trace", "certificate", "final_certificate", "final", "converged"]
    assert isinstance(SolveResult.disks, property)
    assert isinstance(SolveResult.disjoint, property)


def _bits(v):
    return np.asarray(v, dtype=complex).tobytes()


@pytest.mark.parametrize("p", [1.0, INF])
@pytest.mark.parametrize("method", [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV,
                                    MethodKind.TANABE])
@pytest.mark.parametrize("n", [8, 64])
def test_final_certificate_is_the_certificate_at_final(n, method, p):
    # seeded Kac polynomial, started next to its roots so that x0 certifies
    f = random_monic(n, np.random.default_rng([4200, n]))
    near = solve(f, default_init(f), SolveConfig(require_certificate=False)).final
    r = solve(f, near * (1.0 + 1e-9), SolveConfig(method=method, p=p))
    bundle = gauge_bundle(method, norm_context(n, p))
    c, want = r.final_certificate, certify_initial(f, r.final, bundle)
    assert r.certificate.issued and c.issued
    assert c.bundle is r.certificate.bundle
    assert _bits([c.E0, c.phi0, c.theta]) == _bits([want.E0, want.phi0, want.theta])
    assert _bits(c.rho) == _bits(want.rho)
    assert _bits(a_posteriori_bound_1(f, r.final, bundle)) == _bits(c.rho)
    disks, disjoint = inclusion_disks(f, r.final, bundle)
    assert r.disjoint is disjoint
    assert _bits([d.center for d in r.disks]) == _bits([d.center for d in disks])
    assert _bits([d.radius for d in r.disks]) == _bits(c.rho)


@pytest.mark.parametrize("method, start, require", [
    (MethodKind.WEIERSTRASS, [2.0, -2.0], False),
    (MethodKind.EHRLICH, [0.6, -0.6], False),  # x0 not issued, run anyway
    (MethodKind.EHRLICH, [0.6, -0.6], True),  # the abort at x0
], ids=["weierstrass", "unissued", "abort"])
def test_no_final_certificate_unless_x0_certified(method, start, require):
    r = solve(F, start, SolveConfig(method=method, require_certificate=require))
    assert r.final_certificate is None
    assert r.disks == [] and r.disjoint is False


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("start, cfg, ended", [
    ([2.0, -2.0], SolveConfig(), lambda r: r.converged),
    ([2.0, -2.0], SolveConfig(max_iter=1), lambda r: r.iterations == 1 and not r.converged),
    ([0.6, -0.6], SolveConfig(), lambda r: not r.certificate.issued),
    ([1e300, -1e300], SolveConfig(require_certificate=False),
     lambda r: not math.isfinite(r.trace[-1].E)),
    ([2.0, -2.0], SolveConfig(method=MethodKind.WEIERSTRASS, require_certificate=False),
     lambda r: r.certificate is None and r.converged),
], ids=["converged", "max_iter", "abort", "non-finite-E", "weierstrass"])
def test_final_is_the_last_iterate_on_every_ending(start, cfg, ended):
    r = solve(F, start, cfg)
    assert ended(r)
    assert r.final is r.trace[-1].x


def test_solve_builds_no_disks(monkeypatch):
    # solve decides the certificates; the disks and the disjointness test
    # run once each time the result is asked for them
    module = importlib.import_module("rootcert.solve")
    calls = []
    for name in ("disks_at", "disjoint_at"):
        def counted(*args, _name=name, _original=getattr(module, name)):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(module, name, counted)
    r = solve(F, [2.0, -2.0])
    assert r.final_certificate.strict and calls == []
    assert len(r.disks) == 2 and r.disjoint
    assert calls == ["disks_at", "disjoint_at"]
