"""The record of W and d that solve leaves at x0 and at its final iterate.

measure reads it before it measures, and with it every public function of
a point but solve and the three steps; a hit must give the bits a fresh
measurement gives, and anything else must miss.  The record holds the
trace's own Measurements, whose x, W and d are read-only, so no write can
change a hit: at the solve's p a hit is the trace entry itself, and at
another p it shares that entry's arrays and reduces E for the caller's p.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

import rootcert.measures as measures
from rootcert import (
    Measurement,
    MethodKind,
    Polynomial,
    SolveConfig,
    a_posteriori_bound_1,
    a_posteriori_bound_2,
    certify_initial,
    e_measure,
    ehrlich_step_bs,
    gauge_bundle,
    inclusion_disks,
    measure,
    norm_context,
    solve,
    tanabe_step,
    weierstrass_correction,
    weierstrass_step,
)
from conftest import random_monic, well_separated_roots
from oracle import known_instance

METHODS = [MethodKind.EHRLICH, MethodKind.DOCHEV_BYRNEV, MethodKind.TANABE]
PS = [math.inf, 1.0, 2.0]


def _bits(v):
    """v with every float and array replaced by its exact bytes."""
    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (float, complex, np.floating, np.complexfloating)):
        return np.complex128(v).tobytes()
    if dataclasses.is_dataclass(v):
        # fields and properties, cached or not, alike; a certificate's
        # bundle is the caller's own object
        cls = type(v)
        names = [fl.name for fl in dataclasses.fields(v)] + sorted(
            name for name in dir(cls)
            if isinstance(getattr(cls, name), (property, functools.cached_property)))
        return tuple((name, _bits(getattr(v, name))) for name in names
                     if name != "bundle")
    if isinstance(v, (list, tuple)):
        return tuple(_bits(e) for e in v)
    return v


def _instance(seed=0):
    rng = np.random.default_rng(9300 + seed)
    return known_instance(well_separated_roots(6, rng), 0.01, seed=seed)


def _readers(f, res, bundle):
    """Every reader of the record at x0 and at the final iterate."""
    x0, xf = res.trace[0].x, res.final
    out = {}
    for name, x in (("x0", x0), ("final", xf)):
        out[f"W {name}"] = weierstrass_correction(f, x)
        out[f"certify_initial {name}"] = certify_initial(f, x, bundle)
        out[f"measure {name}"] = measure(f, x, bundle.ctx)
        out[f"e_measure {name}"] = e_measure(f, x, bundle.ctx)
        out[f"inclusion_disks {name}"] = inclusion_disks(f, x, bundle)
    out["bound 1"] = a_posteriori_bound_1(f, xf, bundle)
    out["bound 2"] = a_posteriori_bound_2(f, x0, res.trace[1].x, bundle)
    return out


@pytest.fixture
def counts(monkeypatch):
    """Calls of measures.evaluate and of the separation reduction
    measures._separations, as counted by test_one_measurement_per_iterate."""
    counts = {"evaluate": 0, "separation": 0}
    for name, attr in (("evaluate", "evaluate"), ("separation", "_separations")):
        def counted(*args, _name=name, _original=getattr(measures, attr)):
            counts[_name] += 1
            return _original(*args)
        monkeypatch.setattr(measures, attr, counted)
    return counts


def _solve_elsewhere():
    """A solve on another polynomial, which replaces the record."""
    g = random_monic(5, np.random.default_rng(9399))
    solve(g, np.exp(1j * np.arange(5)), SolveConfig(require_certificate=False))


@pytest.mark.parametrize("p", PS, ids=["inf", "1", "2"])
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_hits_equal_fresh_measurements_bitwise(method, p):
    f, x0 = _instance()
    bundle = gauge_bundle(method, norm_context(f.degree, p))
    res = solve(f, x0, SolveConfig(method=method, p=p))
    assert res.certificate.issued and res.iterations >= 2
    hit = _readers(f, res, bundle)
    _solve_elsewhere()
    fresh = _readers(f, res, bundle)
    assert hit.keys() == fresh.keys()
    for name in hit:
        assert _bits(hit[name]) == _bits(fresh[name]), name


@pytest.mark.parametrize("p", PS, ids=["inf", "1", "2"])
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_readers_measure_nothing_after_solve(method, p, counts):
    f, x0 = _instance(1)
    bundle = gauge_bundle(method, norm_context(f.degree, p))
    res = solve(f, x0, SolveConfig(method=method, p=p))
    assert res.certificate.issued
    first = dict(counts)
    counts.update(evaluate=0, separation=0)
    for x in (x0, res.final):
        weierstrass_correction(f, x)
        certify_initial(f, x, bundle)
        measure(f, x, bundle.ctx)
        e_measure(f, x, bundle.ctx)
        inclusion_disks(f, x, bundle)
    a_posteriori_bound_1(f, res.final, bundle)
    assert counts == {"evaluate": 0, "separation": 0}
    # solve only writes the record: the same request is measured again
    solve(f, x0, SolveConfig(method=method, p=p))
    assert counts == first


@pytest.mark.parametrize("step", [weierstrass_step, ehrlich_step_bs, tanabe_step])
def test_steps_measure_after_solve(step, counts):
    # a step needs D, which the record does not hold
    f, x0 = _instance(1)
    solve(f, x0)
    counts.update(evaluate=0)
    step(f, x0)
    assert counts["evaluate"] == 1


def test_abort_at_x0_leaves_x0(counts):
    f = Polynomial([1, 0, -1])
    x0 = np.array([0.6, -0.6], dtype=complex)
    bundle = gauge_bundle(MethodKind.EHRLICH, norm_context(2, math.inf))
    res = solve(f, x0)
    assert not res.certificate.issued
    counts.update(evaluate=0, separation=0)
    assert not certify_initial(f, x0, bundle).issued
    weierstrass_correction(f, x0)
    assert counts == {"evaluate": 0, "separation": 0}


def _negative_zero_twin(f):
    """A polynomial == f whose leading coefficient 1 + 0j has its
    imaginary zero negated, so its bytes differ."""
    c = f.coeffs.copy()
    assert c[0] == 1 and not np.signbit(c[0].imag)
    c[0] = complex(1.0, -0.0)
    g = Polynomial(c)
    assert g == f and g.coeffs.tobytes() != f.coeffs.tobytes()
    return g


def _one_ulp_away(x):
    y = x.copy()
    y[2] = complex(np.nextafter(y[2].real, np.inf), y[2].imag)
    return y


@pytest.mark.parametrize("case", ["ulp", "other polynomial", "negative zero"])
def test_misses(case, counts):
    f, x0 = _instance(2)
    bundle = gauge_bundle(MethodKind.EHRLICH, norm_context(f.degree, math.inf))
    res = solve(f, x0)
    assert res.certificate.issued
    g, x = f, x0
    if case == "ulp":
        x = _one_ulp_away(x0)
    elif case == "other polynomial":
        c = f.coeffs.copy()
        c[-1] += 1e-3
        g = Polynomial(c)
    else:
        g = _negative_zero_twin(f)
    readers = [
        lambda: weierstrass_correction(g, x),
        lambda: certify_initial(g, x, bundle),
    ]
    for read in readers:
        counts.update(evaluate=0)
        read()
        assert counts["evaluate"] == 1
    # the final iterate misses the same way
    counts.update(evaluate=0)
    xf = _one_ulp_away(res.final) if case == "ulp" else res.final
    weierstrass_correction(g, xf)
    assert counts["evaluate"] == 1


def _assert_read_only(*arrays):
    for a in arrays:
        with pytest.raises(ValueError, match="read-only"):
            a[:] = 1.0


def test_hits_share_the_trace_read_only():
    f, x0 = _instance(3)
    res = solve(f, x0)
    w0, wf = weierstrass_correction(f, x0), weierstrass_correction(f, res.final)
    assert w0 is res.trace[0].w and wf is res.trace[-1].w
    want = _bits((w0, wf))
    _assert_read_only(w0, wf)
    assert _bits((weierstrass_correction(f, x0),
                  weierstrass_correction(f, res.final))) == want


def test_trace_arrays_are_read_only():
    # the record shares W and d with the trace, so neither can change a hit
    f, x0 = _instance(4)
    bundle = gauge_bundle(MethodKind.EHRLICH, norm_context(f.degree, math.inf))
    res = solve(f, x0)
    assert res.certificate.issued and res.iterations >= 1

    def read():
        return (weierstrass_correction(f, x0),
                a_posteriori_bound_1(f, res.final, bundle),
                inclusion_disks(f, res.final, bundle))

    want = _bits(read())
    _assert_read_only(res.trace[0].w, res.trace[-1].w, res.trace[-1].d)
    assert _bits(read()) == want


def test_certificate_at_the_final_iterate_is_read_only():
    # certify_initial at solve's final iterate reads the record; neither its
    # certificate nor the final certificate can be written into
    f, x0 = _instance(4)
    bundle = gauge_bundle(MethodKind.EHRLICH, norm_context(f.degree, math.inf))
    res = solve(f, x0)
    assert res.final_certificate.issued and res.iterations >= 1
    want = _bits(a_posteriori_bound_1(f, res.final, bundle))
    for cert in (certify_initial(f, res.final, bundle), res.final_certificate):
        _assert_read_only(cert.at.x, cert.at.w, cert.at.d, cert.rho)
    assert _bits(a_posteriori_bound_1(f, res.final, bundle)) == want


def test_record_is_o_n():
    n = 256
    rng = np.random.default_rng(9310)
    roots = np.exp(2j * np.pi * (np.arange(n) + rng.uniform(-0.1, 0.1, n)) / n)
    f, x0 = known_instance(roots, 1e-9, seed=0)
    res = solve(f, x0, SolveConfig(require_certificate=False, max_iter=3))
    assert res.iterations >= 1
    arrays = []

    def walk(v):
        if isinstance(v, np.ndarray):
            arrays.append(v)
        elif isinstance(v, (tuple, list)):
            for e in v:
                walk(e)
        elif isinstance(v, dict):
            walk(list(v.values()))
        elif isinstance(v, Measurement):
            walk(vars(v))  # its fields and every value cached on it

    walk(measures._record)
    # x, W and the cached d at two points; the keys are bytes of f.coeffs
    # and the points
    assert len(arrays) == 6
    assert all(a.size <= n for a in arrays)
    assert sum(a.nbytes for a in arrays) <= 2 * (16 + 16 + 8) * n


@pytest.mark.parametrize("p", PS, ids=["inf", "1", "2"])
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_hits_at_the_solves_p_are_its_trace_entries(method, p, counts):
    f, x0 = _instance(5)
    ctx = norm_context(f.degree, p)
    bundle = gauge_bundle(method, ctx)
    res = solve(f, x0, SolveConfig(method=method, p=p))
    assert res.certificate.issued and res.iterations >= 1
    counts.update(evaluate=0, separation=0)
    # x0 is the caller's own array, a copy of which the trace holds
    assert measure(f, x0, ctx) is res.trace[0]
    assert measure(f, res.final, ctx) is res.trace[-1]
    assert certify_initial(f, x0, bundle).at is res.trace[0]
    assert certify_initial(f, res.final, bundle).at is res.trace[-1]
    assert counts == {"evaluate": 0, "separation": 0}


@pytest.mark.parametrize("solved, read", [(1.0, math.inf), (1.0, 2.0), (math.inf, 1.0)],
                         ids=["1 read at inf", "1 read at 2", "inf read at 1"])
@pytest.mark.parametrize("method", METHODS, ids=lambda m: m.value)
def test_hits_at_another_p_reduce_E_at_it(method, solved, read, counts):
    f, x0 = _instance(6)
    res = solve(f, x0, SolveConfig(method=method, p=solved))
    assert res.certificate.issued and res.iterations >= 1
    ctx = norm_context(f.degree, read)
    bundle = gauge_bundle(method, ctx)

    def readers():
        out = {}
        for name, x in (("x0", x0), ("final", res.final)):
            m = measure(f, x, ctx)
            out[f"measure {name}"] = m.d, m.E
            out[f"e_measure {name}"] = e_measure(f, x, ctx)
            out[f"certify_initial {name}"] = certify_initial(f, x, bundle)
        return out

    counts.update(evaluate=0, separation=0)
    for entry in (res.trace[0], res.trace[-1]):
        m = measure(f, entry.x, ctx)
        assert m is not entry and m._p == read
        assert m.x is entry.x and m.w is entry.w and m.d is entry.d
    hit = readers()
    assert counts == {"evaluate": 0, "separation": 0}
    _solve_elsewhere()
    fresh = readers()
    assert hit.keys() == fresh.keys()
    for name in hit:
        assert _bits(hit[name]) == _bits(fresh[name]), name
