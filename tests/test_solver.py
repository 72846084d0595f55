import dataclasses
import importlib
import math
import os
from fractions import Fraction
import pickle
import statistics
import subprocess
import sys
import warnings

import numpy as np
import pytest

import rootcert
import rootcert.measures as measures
from rootcert import (
    BadExponent,
    MethodKind,
    Polynomial,
    SolveConfig,
    SolveResult,
    UnsupportedCombination,
    a_posteriori_bound_1,
    a_priori_bound,
    certify_initial,
    corollary_threshold,
    default_init,
    e_measure,
    ehrlich_step_bs,
    estimate_order,
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
    w_contraction_bound,
    weierstrass_step,
)
from conftest import random_monic, synthetic_measurement, well_separated_roots
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

    def test_non_finite_circle_is_a_value_error(self):
        # C_1/C_0 = 1/1e-320 overflows; numpy's overflow and invalid-value
        # warnings from that division are silenced here, so the error shows
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^default_init: the starting circle is not finite"):
            default_init(Polynomial([1e-320, 1, -1]))

    def test_non_finite_circle_raises_no_numpy_warning_first(self):
        # with RuntimeWarning an error, as in tier-1, the overflow in C_1/C_0
        # still surfaces as default_init's own ValueError
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(ValueError,
                               match="^default_init: the starting circle is not finite"):
                default_init(Polynomial([1e-320, 1, -1]))


def _synthetic_trace(w_norms):
    """A trace of measurements whose W_k are the given vectors."""
    return [synthetic_measurement(np.zeros(w.size), w, np.ones(w.size), 0.0)
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

    @pytest.mark.parametrize("length", range(4, 10))
    def test_median_is_statistics_median(self, length):
        # length - 2 triples: an odd and an even count of ratios alike
        e = [10.0 ** a for a in np.random.default_rng(length).uniform(-10.5, -2.5, length)]
        trace = _synthetic_trace([np.array([v]) for v in e])
        ratios = [math.log(c / b) / math.log(b / a) for a, b, c in zip(e, e[1:], e[2:])]
        got = estimate_order(trace)
        assert type(got) is float and got == statistics.median(ratios)

    def test_import_does_not_load_statistics(self):
        # statistics loads fractions and decimal; numpy loads none of the three
        src = os.path.dirname(os.path.dirname(rootcert.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, rootcert\n"
             "print([m for m in ('statistics', 'fractions', 'decimal') if m in sys.modules])"],
            capture_output=True, text=True, check=True, env=env, timeout=60)
        assert out.stdout == "[]\n"


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


@pytest.mark.parametrize("p", [1.0, 2.0, INF])
@pytest.mark.parametrize("method", list(MethodKind))
def test_trace_d_and_e_read_after_solve_are_measures(method, p):
    # solve reduces d and E from its own D at x0 and the final iterate
    # only; every other entry reduces them from its x when first read,
    # to the bits measure gives there
    f = random_monic(7, np.random.default_rng(3300))
    ctx = norm_context(7, p)
    r = solve(f, default_init(f), SolveConfig(method=method, p=p, require_certificate=False))
    assert r.converged and r.iterations >= 3
    for m in r.trace:
        want = measure(f, m.x, ctx)
        # a copy made before the first read reduces them at the run's p too
        assert dataclasses.replace(m).E == want.E
        assert m.d.tobytes() == want.d.tobytes()
        assert np.float64(m.E).tobytes() == np.float64(want.E).tobytes()
        assert not m.d.flags.writeable


def _mid_run(monkeypatch, method, at, move):
    """Patch method's step map so its image at step `at` (1 = x1) is
    move(image); returns the list the moved image is appended to."""
    maps = importlib.import_module("rootcert.iterations")._STEP_MAPS
    moved, steps = [], []

    def step(m, diff, _original=maps[method]):
        x = _original(m, diff)
        steps.append(x)
        if len(steps) == at:
            x = move(x.copy())
            moved.append(x)
        return x
    monkeypatch.setitem(maps, method, step)
    return moved


def _coincide(i, j):
    def move(x):
        x[j] = x[i]
        return x
    return move


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("at, i, j", [(1, 0, 1), (2, 3, 0), (2, 1, 3)])
def test_components_coinciding_mid_run_raise_measures_error(monkeypatch, method, at, i, j):
    # a coincidence zeroes its product over j != i, so d decides before W's
    # division: measure's NonDistinctComponents, and no RuntimeWarning
    f, x0 = known_instance([1.0, -1.0, 2.0, -2.0j], 0.05, seed=4)
    moved = _mid_run(monkeypatch, method, at, _coincide(i, j))
    cfg = SolveConfig(method=method, require_certificate=False)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(rootcert.NonDistinctComponents) as got:
            solve(f, x0, cfg)
        with pytest.raises(rootcert.NonDistinctComponents) as want:
            measure(f, moved[0], norm_context(4, INF))
    assert str(got.value) == str(want.value)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", list(MethodKind))
def test_non_finite_w_mid_run_stops_on_that_iterate(monkeypatch, method):
    # f overflows at x2, so W there is not finite: the guard reads max|W|
    # and stops on x2, whose d and E come from its own D
    f, x0 = known_instance([1.0, -1.0, 2.0, -2.0j], 0.05, seed=4)

    def far(x):
        x[2] = 1e300
        return x
    moved = _mid_run(monkeypatch, method, 2, far)
    r = solve(f, x0, SolveConfig(method=method, require_certificate=False))
    assert r.iterations == 2 and not r.converged
    assert r.final.tobytes() == moved[0].tobytes()
    assert all(np.isfinite(m.w).all() for m in r.trace[:-1])
    assert not np.isfinite(r.trace[-1].w).all()
    assert not math.isfinite(r.trace[-1].E)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finite_w_whose_e_overflows_does_not_stop_the_run(monkeypatch):
    # x1 has two components 1e-300 apart: W there is about 1e300, finite,
    # but |W_i|/d_i overflows; the guard reads max|W| alone, so the run
    # steps on to x2 = x1 - W1, where f overflows
    f, x0 = known_instance([1.0, -1.0, 2.0, -2.0j], 0.05, seed=4)
    _mid_run(monkeypatch, MethodKind.WEIERSTRASS, 1,
             lambda x: np.array([0.0, 1e-300, 2.0, -2.0j]))
    r = solve(f, x0, SolveConfig(method=MethodKind.WEIERSTRASS, require_certificate=False))
    assert r.iterations == 2
    assert np.isfinite(r.trace[1].w).all() and math.isinf(r.trace[1].E)
    assert not np.isfinite(r.trace[2].w).all()


@pytest.mark.parametrize("method", [MethodKind.EHRLICH, MethodKind.TANABE,
                                    MethodKind.DOCHEV_BYRNEV])
def test_one_measurement_per_iterate(method, monkeypatch):
    # each iterate costs one whole-vector evaluation of f, shared by the
    # step, the trace, the certificate and disks; separations are reduced,
    # in measures._separations, at x0 and the final iterate, and at any
    # other iterate once, the first time its d or E is read
    counts = {"evaluate": 0, "separation": 0}
    for name, attr in (("evaluate", "evaluate"), ("separation", "_separations")):
        def counted(*args, _name=name, _original=getattr(measures, attr)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(measures, attr, counted)
    f, x0 = known_instance([1.0, -1.0, 2.0, -2.0j], 0.01, seed=3)
    res = solve(f, x0, SolveConfig(method=method))
    assert res.certificate.issued and res.converged and res.disjoint
    assert res.iterations >= 2
    assert counts == {"evaluate": res.iterations + 1, "separation": 2}
    for k, m in enumerate(res.trace[1:-1], start=1):
        first, second = ("d", "E") if k % 2 else ("E", "d")
        getattr(m, first)
        assert counts["separation"] == 2 + k
        getattr(m, second)
        getattr(m, first)
        assert counts["separation"] == 2 + k
    assert counts == {"evaluate": res.iterations + 1, "separation": res.iterations + 1}


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


def _certified_solve():
    f, x0 = known_instance(well_separated_roots(6, np.random.default_rng(9500)), 0.01, 0)
    r = solve(f, x0)
    assert r.final_certificate.issued and r.iterations >= 1
    return f, x0, r


def test_issued_disks_cannot_be_edited():
    # a disk's centre is final[i] and its radius final_certificate.rho[i]
    r = _certified_solve()[2]
    disks = r.disks
    for edited in (r.final, r.final_certificate.rho):
        with pytest.raises(ValueError, match="read-only"):
            edited[0] = 5.0
    assert r.disks == disks


def test_result_is_frozen_with_a_tuple_trace():
    r = _certified_solve()[2]
    assert isinstance(r.trace, tuple)
    for fl in dataclasses.fields(SolveResult):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(r, fl.name, getattr(r, fl.name))


def test_results_compare_by_identity():
    f, x0, r = _certified_solve()
    s = solve(f, x0)
    steps = ehrlich_step_bs(f, x0), ehrlich_step_bs(f, x0)
    for a, b in ((r, s), (r.trace[0], s.trace[0]), (r.certificate, s.certificate), steps):
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2


def test_replace_builds_a_result_and_pickle_refuses():
    # the benchmark's self-check corrupts a result through
    # dataclasses.replace; the gauges are closures, so no result pickles
    r = _certified_solve()[2]
    moved = r.final + 1.0
    assert dataclasses.replace(r, final=moved).final is moved
    assert dataclasses.replace(r, converged=False).converged is False
    with pytest.raises((pickle.PicklingError, AttributeError)):
        pickle.dumps(r)


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
    assert c.at is r.trace[-1]
    for name in ("x", "w", "d", "E"):
        assert _bits(getattr(c.at, name)) == _bits(getattr(want.at, name)), name
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
    # each certificate holds the measurement it was decided at
    assert r.certificate is None or r.certificate.at is r.trace[0]
    assert r.final_certificate is None or r.final_certificate.at is r.trace[-1]


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


# reals that binary64 cannot hold, which float() and numpy reject with
# OverflowError; each must meet the typed error that inf meets in its place
BEYOND = (10**400, -10**400, Fraction(10**401, 3))
# where a value must be finite: the error and its message are the ones inf gets
MUST_BE_FINITE = {
    "Polynomial": lambda v: Polynomial([v, 1, 1]),
    "measure": lambda v: measure(F, [1, v], norm_context(2, INF)),
    "e_measure": lambda v: e_measure(F, [1, v], norm_context(2, INF)),
    "solve": lambda v: solve(F, [1, v]),
    "separation": lambda v: separation([1, v]),
}


@pytest.mark.parametrize("value", BEYOND, ids=["1e400", "-1e400", "fraction"])
@pytest.mark.parametrize("call", MUST_BE_FINITE.values(), ids=MUST_BE_FINITE)
def test_a_real_beyond_binary64_is_not_finite(call, value):
    with pytest.raises(ValueError) as at_inf:
        call(INF)
    with pytest.raises(ValueError) as beyond:
        call(value)
    assert type(beyond.value) is type(at_inf.value)
    assert str(beyond.value) == str(at_inf.value)


@pytest.mark.parametrize("value", BEYOND, ids=["1e400", "-1e400", "fraction"])
@pytest.mark.parametrize("call", [lambda v: norm_context(4, v), lambda v: p_norm([1.0, 2.0], v),
                                  lambda v: SolveConfig(p=v)],
                         ids=["norm_context", "p_norm", "SolveConfig"])
def test_an_exponent_beyond_binary64_is_a_bad_exponent(call, value):
    # a finite p is not inf, however large: p = inf fixes a = n - 1, b = 2
    with pytest.raises(BadExponent, match=r"^p must satisfy 1 <= p <= inf, "
                                          r"got a real beyond binary64$"):
        call(value)


def _issued_at_2():
    bundle = gauge_bundle(MethodKind.EHRLICH, norm_context(2, INF))
    return certify_initial(F, [1.001, -1.001], bundle)


# every integer setting passes the one rule: beyond binary64 it is named as
# such (a Fraction is no integer, so only integers are tried)
INTEGER_SETTINGS = {
    **{f"norm_context p={p}": (lambda v, p=p: norm_context(v, p)) for p in (1, 2, INF)},
    "corollary_threshold": lambda v: corollary_threshold(MethodKind.EHRLICH,
                                                         norm_context(v, INF)),
    "a_priori_bound": lambda v: a_priori_bound(_issued_at_2(), [1.0, 1.0], v),
    "w_contraction_bound": lambda v: w_contraction_bound(_issued_at_2(), [1.0, 1.0], v),
    "SolveConfig max_iter": lambda v: SolveConfig(max_iter=v),
}


@pytest.mark.parametrize("value", [10**400, -10**400], ids=["1e400", "-1e400"])
@pytest.mark.parametrize("call", INTEGER_SETTINGS.values(), ids=INTEGER_SETTINGS)
def test_an_integer_beyond_binary64_is_rejected(call, value):
    with pytest.raises(ValueError, match=r"got a real beyond binary64$"):
        call(value)


# default_init's rotation passes the one rule as a finite real: a complex,
# a bool, a string, None, a list or an array is none, and beyond binary64
# is named so
BAD_ROTATIONS = {
    "inf": (INF, "inf"), "-inf": (-INF, "-inf"), "nan": (math.nan, "nan"),
    "1j": (1j, "1j"), "True": (True, "True"), "str": ("0.4", "'0.4'"),
    "None": (None, "None"), "list": ([0.1, 0.2], r"\[0.1, 0.2\]"),
    "0-d array": (np.array(0.4), r"array\(0.4\)"),
    **{name: (v, "a real beyond binary64")
       for name, v in zip(["1e400", "-1e400", "fraction"], BEYOND)},
}


@pytest.mark.parametrize("value, shown", BAD_ROTATIONS.values(), ids=BAD_ROTATIONS)
def test_a_rotation_must_be_a_finite_real(value, shown):
    with pytest.raises(ValueError, match=f"^rotation must be a finite real, got {shown}$"):
        default_init(F, rotation=value)


@pytest.mark.parametrize("value", [Fraction(1, 3), np.float32(0.4)], ids=["fraction", "float32"])
def test_a_real_rotation_gives_the_points_of_its_float(value):
    np.testing.assert_array_equal(default_init(F, rotation=value),
                                  default_init(F, rotation=float(value)))


@pytest.mark.parametrize("value", BEYOND, ids=["1e400", "-1e400", "fraction"])
def test_a_tolerance_beyond_binary64_is_rejected(value):
    with pytest.raises(ValueError, match=r"^w_tol must be finite and > 0, "
                                         r"got a real beyond binary64$"):
        SolveConfig(w_tol=value)


# where no check rejects inf (evaluate computes with it), the message is
# still the one that rejects an entry that is not finite; viete checks its
# points, and from_roots its roots and leading as coefficients, before any
# arithmetic
NOT_FINITE = {
    "evaluate": (lambda v: evaluate(F, v), "points must be finite"),
    "evaluate vector": (lambda v: evaluate(F, [1, v]), "points must be finite"),
    "viete": (lambda v: viete([1, v]), "points must be finite"),
    "from_roots": (lambda v: from_roots([1, v]), "coefficients must be finite"),
    "from_roots leading": (lambda v: from_roots([1, 2], leading=v),
                           "coefficients must be finite"),
}


@pytest.mark.parametrize("value", BEYOND, ids=["1e400", "-1e400", "fraction"])
@pytest.mark.parametrize("call, message", NOT_FINITE.values(), ids=NOT_FINITE)
def test_a_real_beyond_binary64_meets_the_finite_check(call, message, value):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(value)


def test_from_roots_rejects_inf_with_the_same_message():
    with pytest.raises(ValueError, match=r"^coefficients must be finite$"):
        from_roots([1, INF])
    with pytest.raises(ValueError, match=r"^coefficients must be finite$"):
        from_roots([1, 2], leading=INF)


@pytest.mark.parametrize("value", BEYOND, ids=["1e400", "-1e400", "fraction"])
def test_a_norm_beyond_binary64_is_rejected(value):
    with pytest.raises(ValueError, match=r"^p_norm needs a vector of entries >= 0, "
                                         r"got a real beyond binary64$"):
        p_norm([value, 1.0], 2)
    bundle = gauge_bundle(MethodKind.EHRLICH, norm_context(2, INF))
    cert = certify_initial(F, [1.001, -1.001], bundle)
    assert cert.issued
    with pytest.raises(ValueError, match=r"^a priori bound needs norms >= 0, "
                                         r"got a real beyond binary64$"):
        a_priori_bound(cert, [value, 1.0], 2)
