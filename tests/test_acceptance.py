"""End-to-end acceptance checks.

Each test prints exactly one ``ACCEPTANCE k ...: PASS|FAIL`` line (visible
under ``pytest -s`` or on failure) and then asserts the same condition.
Equality checks use a tolerance of 1e-12 scaled by the magnitude of the
data entering the comparison, which accounts for binary64 rounding in the
length-n product and sum chains.
"""

import math

import numpy as np
import pytest

from rootcert import (
    MethodKind,
    OutsideDomain,
    a_posteriori_bound_1,
    a_posteriori_bound_2,
    a_priori_bound,
    certify_initial,
    corollary_threshold,
    e_measure,
    ehrlich_step_bs,
    estimate_order,
    gauge_bundle,
    inclusion_disks,
    norm_context,
    solve,
    solve_R,
    tanabe_step,
    weierstrass_correction,
    weierstrass_step,
    SolveConfig,
)
from conftest import random_distinct_points, random_monic, well_separated_roots
from oracle import (
    dochev_byrnev_step,
    ehrlich_step_newton,
    evaluate_with_derivatives,
    known_instance,
    match_roots,
    newton_viete_step,
    sigma_sum,
)

INF = math.inf
METHODS = (MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV)


def report(number, title, ok):
    print(f"ACCEPTANCE {number} ({title}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {number} ({title}) failed"


def family_instance(trial):
    """One instance of the shared random family: monic with coefficients in
    the unit disk, distinct points in the radius-2 disk, separation 0.05."""
    rng = np.random.default_rng(90000 + trial)
    n = int(rng.integers(2, 13))
    return random_monic(n, rng), random_distinct_points(n, rng)


def test_criterion_1_method_identity():
    ok = True
    for trial in range(500):
        f, x = family_instance(trial)
        db = dochev_byrnev_step(f, x).image
        ta = tanabe_step(f, x).image
        if np.any(np.abs(db - ta) > 1e-12 * np.maximum(1.0, np.abs(db))):
            ok = False
    report(1, "Dochev-Byrnev equals Tanabe", ok)


def test_criterion_2_ehrlich_form_identity():
    ok = True
    for trial in range(500):
        f, x = family_instance(trial)
        n = x.size
        w = weierstrass_correction(f, x)
        try:
            bs = ehrlich_step_bs(f, x).image
            nt = ehrlich_step_newton(f, x).image
        except OutsideDomain:
            continue
        for i in range(n):
            others = np.arange(n) != i
            sig = sigma_sum(w, x, i, x[i])
            _, dfx, _ = evaluate_with_derivatives(f, x[i])
            fx = f(x[i])
            den_newton = dfx - fx * np.sum(1.0 / (x[i] - x[others]))
            terms = float(np.sum(np.abs(w[others] / (x[i] - x[others]))))
            # two forms agree wherever both denominators are >= 1e-8
            if abs(1 + sig) >= 1e-8 and abs(den_newton) >= 1e-8:
                scale = max(1.0, abs(bs[i]), terms, abs(dfx))
                if abs(bs[i] - nt[i]) > 1e-12 * scale:
                    ok = False
            # the monic derivative identity holds everywhere
            prod = np.prod(x[i] - x[others])
            s_own = np.sum(w[i] / (x[i] - x[others]))
            rhs = (1 + s_own + sig) * prod
            dscale = max(1.0, abs(dfx),
                         abs(prod) * (1 + terms + abs(s_own)))
            if abs(dfx - rhs) > 1e-12 * dscale:
                ok = False
    report(2, "Ehrlich forms and derivative identity", ok)


def test_criterion_3_corollary_constants():
    ok = True
    for n in range(2, 101):
        for p in (1, 2, INF):
            ctx = norm_context(n, p)
            val = gauge_bundle(MethodKind.EHRLICH, ctx).phi(1 / (2 * ctx.a + 2))
            if n == 2 and math.isinf(p):
                ok &= abs(val - 1.0) <= 1e-12
            else:
                ok &= val < 1.0
    for n in range(2, 1001):
        ctx = norm_context(n, INF)
        ok &= gauge_bundle(MethodKind.DOCHEV_BYRNEV, ctx).phi(4 / (9 * n)) < 1
    ok &= abs(solve_R() - 0.2636) <= 5e-4
    report(3, "corollary constants", ok)


def certified_cases():
    """50 known-answer cases per method with E0 below the threshold."""
    sizes = [2, 3, 5, 8]
    cases = []
    for case in range(50):
        rng = np.random.default_rng(40000 + case)
        n = sizes[case % 4]
        roots = well_separated_roots(n, rng)
        f, x0, pert = None, None, 0.05
        ctx = norm_context(n, INF)
        thresholds = [corollary_threshold(m, ctx) for m in METHODS]
        for _ in range(40):
            f, x0 = known_instance(roots, pert, seed=41000 + case)
            if e_measure(f, x0, ctx) < min(thresholds):
                break
            pert *= 0.6
        cases.append((roots, f, x0))
    return cases


CASES = certified_cases()


def certified_runs(method):
    # tight stopping tolerance: the convergence criterion is on the raw
    # correction magnitude, not the coefficient-scaled default
    for roots, f, x0 in CASES:
        yield roots, f, solve(f, x0, SolveConfig(method=method, w_tol=1e-15))


def test_criterion_4_certified_convergence_and_order():
    ok = True
    for method in METHODS:
        for roots, f, res in certified_runs(method):
            ok &= res.certificate.issued and res.converged
            ok &= res.iterations <= 10
            ok &= float(np.max(np.abs(res.trace[-1].w))) <= 1e-12
            ok &= match_roots(res.final, roots).max_abs_error <= 1e-10
            est = estimate_order(res.trace)
            if est is not None:
                ok &= 2.7 <= est <= 3.3
    report(4, "certified convergence and cubic order", ok)


def test_criterion_5_bound_domination():
    ok = True
    for method in METHODS:
        for roots, f, res in certified_runs(method):
            bundle = gauge_bundle(method, norm_context(f.degree, INF))
            cert = res.certificate
            w0 = np.abs(res.trace[0].w)
            xs = [m.x for m in res.trace]
            for k, x in enumerate(xs):
                m = match_roots(x, roots)
                err = np.abs(np.asarray(x)[list(m.permutation)] - roots)
                ok &= bool(np.all(err <= a_priori_bound(cert, w0, k) + 1e-10))
                ok &= bool(np.all(err <= a_posteriori_bound_1(f, x, bundle)
                                  + 1e-10))
                if k >= 1:
                    b2 = a_posteriori_bound_2(f, xs[k - 1], x, bundle)
                    ok &= bool(np.all(err <= b2 + 1e-10))
    report(5, "error bound domination", ok)


def test_criterion_6_w_contraction():
    ok = True
    for method in METHODS:
        for _, f, res in certified_runs(method):
            cert = res.certificate
            scale = max(1.0, float(np.max(np.abs(f.coeffs))))
            w = [np.abs(m.w) for m in res.trace]
            for k in range(len(w) - 1):
                if float(np.max(w[k])) < 1e-14 * scale:
                    break
                factor = cert.theta * cert.lam ** (3 ** k)
                ok &= bool(np.all(w[k + 1] <= factor * w[k] + 1e-12 * scale))
    report(6, "Weierstrass-correction contraction", ok)


def test_criterion_7_disk_localization():
    ok = True
    for method in METHODS:
        bundle = None
        for roots, f, res in certified_runs(method):
            if not res.certificate.strict:
                continue
            bundle = gauge_bundle(method, norm_context(f.degree, INF))
            for x in [m.x for m in res.trace]:
                disks, disjoint = inclusion_disks(f, x, bundle)
                ok &= disjoint
                for d in disks:
                    inside = np.abs(roots - d.center) <= d.radius + 1e-12
                    ok &= int(np.sum(inside)) == 1
    report(7, "inclusion disk localization", ok)


def test_criterion_8_kerner_equivalence():
    ok = True
    for trial in range(100):
        rng = np.random.default_rng(300 + trial)
        n = int(rng.integers(2, 6))
        f = random_monic(n, rng)
        x = random_distinct_points(n, rng, radius=1.0, min_sep=0.1)
        got = newton_viete_step(f, x)
        want = weierstrass_step(f, x).image
        ok &= float(np.max(np.abs(got - want))) <= 1e-5
    report(8, "Weierstrass is Newton on the Viete system", ok)


def test_criterion_9_gauge_algebra():
    ok = True
    for method in METHODS:
        b = gauge_bundle(method, norm_context(6, INF))
        ts = np.linspace(0.0, b.tau, 1000, endpoint=False)
        prev_ratio = 0.0
        for t in ts:
            g = b.gamma(t)
            ok &= abs(b.psi(t) - (1 - b.ctx.b * t * g)) <= 1e-13 * max(1, g)
            ok &= abs(b.mu(t) - (1 - t * g)) <= 1e-13 * max(1, g)
            ok &= abs(b.phi(t) * b.psi(t) - b.beta(t)) <= 1e-13 * max(
                1.0, abs(b.phi(t)))
            ratio = b.beta(t) / t**2 if t > 0 else 0.0
            ok &= ratio >= prev_ratio - 1e-13 * max(1.0, ratio)
            prev_ratio = ratio
    report(9, "gauge-function algebra", ok)
