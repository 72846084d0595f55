"""Check that two source trees of rootcert give bitwise equal public outputs.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``rootcert`` package, such as the
``src`` of a checkout.  The grid below runs once per tree, each in its own
Python process with that tree first on ``sys.path``, and every output is
compared by its exact bytes.  The names of the entries that differ, or are
missing on one side, are printed, and the exit status is 1 if there are
any, else 0; it is 2 where a tree fails to run the grid.

The grid: Kac polynomials (non-leading coefficients uniform in the unit
square, as ``tests/conftest.random_monic``) of the degrees in DEGREES for
seeds 1 and 2; between them they take every chunk width B of
``evaluate``: plain Horner (8), 4 (20), 8 (33, 64), 16 (128 to 385) and
32 (512).  On each, ``solve`` runs uncertified with every method from that
method's own ``default_init`` start, and certified with each certifiable
method from a point near the uncertified Ehrlich run's final iterate;
right after each, the corrections W at that start point and
``a_posteriori_bound_1`` at its final iterate, both of which read the
record the solve left at its p = inf, and then the record read at p = 1:
``e_measure`` at the start point and ``certify_initial`` at the final
iterate.  At 0.9 times Ehrlich's ``default_init`` it runs ``inclusion_disks`` for Ehrlich and Tanabe, the
three public steps and ``separation``, and ``evaluate`` at four of those
points, one scalar call each, and once on a 2-D array that stacks all of
them over 1.1 times ``default_init``.  ``inclusion_disks`` also runs at
the final iterate of the uncertified Ehrlich and Tanabe solves, right
after each.  A call that raises records the exception's type and message
as its output.  A dataclass is compared by its public attributes, fields
and properties, cached or not, alike, by name, so moving a value between
a field and a property is no difference.  So each trace entry's d and E,
cached properties that an intermediate iterate reduces only when read,
are compared too.

After the library grid, the command line runs in the same process, and
each entry is its (exit status, stdout) pair, stderr dropped.  For the
two smallest DEGREES and both seeds, a request file holds the Kac
coefficients and one also the near point above: ``solve --json`` from
the near point, certified, and from ``default_init`` with
``--no-certificate``, and ``certify --json`` and ``disks --json`` at the
near point, each also in text mode.  Then ``thresholds --n 5``, with
``--json`` and in text, one ``solve --batch`` over the directory of those
files, and a Tanabe request whose final iterate is (inf, -inf), so the
JSON's rule for a float that is not finite is compared too.

Then four edge points, where measuring W does not stay in range: z**2 - 1
at (1e200, -1e200), where f overflows and the products over j != i are
finite; z**128 - 1 at 1e3 times the 128th roots of unity, where the
products overflow, and at the same points with the second moved onto the
first, where components coincide; and the Kac polynomial of degree 64
drawn from ``default_rng(64)`` at 1e-7 * arange(64), where the products
underflow to 0.  At each, ``measure``, ``weierstrass_correction``,
``e_measure`` and Ehrlich's ``certify_initial`` at p = inf, the three
public steps and, last, uncertified ``solve`` are one entry each.

Last, each numeric setting and point that the library rejects is one
entry, the error it raises: ``norm_context`` at n = 1 and n = 10**400 for
p = 1, 2 and inf, and at p = 0, 0.5, nan, Fraction(1, 2) and 10**400;
``p_norm`` at p = 0; ``SolveConfig`` at max_iter = 0 and 10**400, at
w_tol = 0, -1, inf and 10**400, and at p = True; ``a_priori_bound`` at
k = -1 and 10**400; ``w_contraction_bound`` at k = 10**400;
``default_init`` at rotation = inf, -inf, nan, 1j, True, "0.4", None,
[0.1, 0.2], 10**400, -10**400, Fraction(1, 3) and np.array(0.4), and at
method = "ehrlich";
``measure``, ``solve``, ``separation`` and ``viete`` at points of shape
(2, 2), (1,), (0,) and (1, 4); ``measure`` at three points, one nan, for
degree 2; and ``from_roots`` with a leading of [1.0, 2.0, 3.0], [[2.0]]
and np.array([2.0]).

In all there are 761 entries: 638 of the library grid, 132 of them the
record read at p = 1, 36 of the command line, 32 of the edge points and 55
of the rejected settings and points.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction

DEGREES = (8, 20, 33, 64, 128, 129, 256, 257, 300, 385, 512)
SEEDS = (1, 2)


def _bits(v):
    """v with every float and array replaced by its exact bytes."""
    import numpy as np

    if isinstance(v, np.ndarray):
        return v.dtype.str, v.shape, v.tobytes()
    if isinstance(v, (float, complex, np.floating, np.complexfloating)):
        return np.complex128(v).tobytes()
    if isinstance(v, BaseException):
        return type(v).__name__, str(v)
    if isinstance(v, enum.Enum):  # unpickled where rootcert is not importable
        return type(v).__name__, v.value
    if dataclasses.is_dataclass(v):
        cls = type(v)
        names = {fl.name for fl in dataclasses.fields(v)} | {
            name for name in dir(cls)
            if isinstance(getattr(cls, name), (property, functools.cached_property))}
        # a certificate's bundle holds closures; its gauges are the inputs
        return cls.__name__, tuple(
            (name, _bits(getattr(v, name))) for name in sorted(names)
            if name != "bundle" and not name.startswith("_"))
    if isinstance(v, (list, tuple)):
        return tuple(_bits(e) for e in v)
    return v


def _kac(n: int, seed):
    """The Kac coefficients of degree n drawn from default_rng(seed), leading-first."""
    import numpy as np

    rng = np.random.default_rng(seed)
    return np.concatenate([[1.0 + 0.0j], rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)])


def _run(call):
    try:
        return call()
    except Exception as exc:  # the exception is the output compared
        return exc


def grid() -> dict:
    """Every output of the grid, by entry name, as exact bytes."""
    import numpy as np
    import rootcert as rc

    kinds = rc.MethodKind
    out = {}
    for n in DEGREES:
        for seed in SEEDS:
            f = rc.Polynomial(_kac(n, [seed, n]))
            x0 = rc.default_init(f)
            tag = f"n={n} seed={seed}"
            ctx, ctx1 = rc.norm_context(n, math.inf), rc.norm_context(n, 1)
            bundles = {m: rc.gauge_bundle(m, ctx) for m in (kinds.EHRLICH, kinds.TANABE)}
            near = x0
            for method in kinds:
                cfg = rc.SolveConfig(method=method, require_certificate=False)
                r = _run(lambda: rc.solve(f, rc.default_init(f, method=method), cfg))
                out[f"{tag} solve {method.value}"] = r
                if isinstance(r, Exception):
                    continue
                if method is kinds.EHRLICH:
                    near = r.final * (1.0 + 1e-9)
                if method in bundles:
                    # right after its solve, so the final iterate is in the record
                    out[f"{tag} inclusion_disks {method.value} at its final iterate"] = (
                        _run(lambda: rc.inclusion_disks(f, r.final, bundles[method])))
            for method in (kinds.EHRLICH, kinds.DOCHEV_BYRNEV, kinds.TANABE):
                r = _run(lambda: rc.solve(f, near, rc.SolveConfig(method=method)))
                out[f"{tag} certified solve {method.value}"] = r
                if isinstance(r, Exception):
                    continue
                # what certify-near asks right after its solve, from the record
                out[f"{tag} W at the start of certified {method.value}"] = (
                    _run(lambda: rc.weierstrass_correction(f, near)))
                out[f"{tag} bound 1 at the final iterate of certified {method.value}"] = (
                    _run(lambda: rc.a_posteriori_bound_1(
                        f, r.final, rc.gauge_bundle(method, ctx))))
                # the same record read at another exponent, whose E it reduces again
                out[f"{tag} e_measure at p=1 at the start of certified {method.value}"] = (
                    _run(lambda: rc.e_measure(f, near, ctx1)))
                out[f"{tag} certify_initial at p=1 at the final iterate of certified "
                    f"{method.value}"] = _run(lambda: rc.certify_initial(
                        f, r.final, rc.gauge_bundle(method, ctx1)))
            x = 0.9 * x0
            for method, bundle in bundles.items():
                out[f"{tag} inclusion_disks {method.value}"] = _run(
                    lambda: rc.inclusion_disks(f, x, bundle))
            for step in (rc.weierstrass_step, rc.ehrlich_step_bs, rc.tanabe_step):
                out[f"{tag} {step.__name__}"] = _run(lambda: step(f, x))
            out[f"{tag} separation"] = _run(lambda: rc.separation(x))
            out[f"{tag} evaluate at scalars"] = _run(
                lambda: [rc.evaluate(f, z) for z in x[:4].tolist()])
            out[f"{tag} evaluate on a 2-D array"] = _run(
                lambda: rc.evaluate(f, np.stack([x, 1.1 * x0])))
    return {name: _bits(v) for name, v in out.items()}


def _cli(argv) -> tuple:
    """(exit status, stdout) of the command line on argv; stderr is dropped."""
    import contextlib
    import io
    from rootcert.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        status = main(argv)
    return status, out.getvalue()


def cli_grid() -> dict:
    """What the command line prints, by entry name, as exact bytes."""
    import json
    import tempfile

    import numpy as np
    import rootcert as rc

    def entries(values):
        return [{"re": z.real, "im": z.imag} for z in np.asarray(values).tolist()]

    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for n in DEGREES[:2]:
            for seed in SEEDS:
                f = rc.Polynomial(_kac(n, [seed, n]))
                cfg = rc.SolveConfig(require_certificate=False)
                near = rc.solve(f, rc.default_init(f), cfg).final * (1.0 + 1e-9)
                tag = f"kac-{n}-{seed}"
                plain, at_near = (os.path.join(tmp, f"{tag}{end}.json")
                                  for end in ("", "-near"))
                with open(plain, "w") as fh:
                    json.dump({"coeffs": entries(f.coeffs)}, fh)
                with open(at_near, "w") as fh:
                    json.dump({"coeffs": entries(f.coeffs), "guess": entries(near)}, fh)
                for name, argv in (
                        ("solve near", ["solve", "--input", at_near]),
                        ("solve --no-certificate", ["solve", "--input", plain, "--no-certificate"]),
                        ("certify near", ["certify", "--input", at_near]),
                        ("disks near", ["disks", "--input", at_near])):
                    # each mode builds only its own output, payload or text
                    out[f"{tag} cli {name} --json"] = _cli(argv + ["--json"])
                    out[f"{tag} cli {name}"] = _cli(argv)
        for end in ([], ["--json"]):
            argv = ["thresholds", "--n", "5", *end]
            out["cli " + " ".join(argv)] = _cli(argv)
        out["cli solve --batch"] = _cli(["solve", "--batch", tmp])
    # Tanabe's step overflows to a final iterate of (inf, -inf)
    argv = ["solve", "--coeffs", "1e-300,1,1", "--guess", "1e100,-1e100",
            "--method", "tanabe", "--no-certificate", "--json"]
    out["cli " + " ".join(argv)] = _cli(argv)
    return {name: _bits(v) for name, v in out.items()}


def edge_grid() -> dict:
    """What each function of a point gives where measuring W overflows,
    underflows or meets coinciding components, by entry name, as exact bytes."""
    import numpy as np
    import rootcert as rc

    unit = rc.Polynomial(np.r_[1.0, np.zeros(127), -1.0])
    far = 1e3 * np.exp(2j * np.pi * np.arange(128) / 128)
    onto = far.copy()
    onto[1] = onto[0]
    points = {
        "z^2-1 f overflows": (rc.Polynomial([1, 0, -1]), np.array([1e200, -1e200])),
        "z^128-1 products overflow": (unit, far),
        "kac-64 products underflow": (rc.Polynomial(_kac(64, 64)), 1e-7 * np.arange(64)),
        "z^128-1 coinciding": (unit, onto),
    }
    out = {}
    for tag, (f, x) in points.items():
        ctx = rc.norm_context(f.degree, math.inf)
        calls = {
            "measure": lambda: rc.measure(f, x, ctx),
            "weierstrass_correction": lambda: rc.weierstrass_correction(f, x),
            "e_measure": lambda: rc.e_measure(f, x, ctx),
            "certify_initial": lambda: rc.certify_initial(
                f, x, rc.gauge_bundle(rc.MethodKind.EHRLICH, ctx)),
            **{step.__name__: lambda step=step: step(f, x)
               for step in (rc.weierstrass_step, rc.ehrlich_step_bs, rc.tanabe_step)},
            # last, so the calls above measure afresh rather than read its record
            "solve": lambda: rc.solve(f, x, rc.SolveConfig(require_certificate=False)),
        }
        for name, call in calls.items():
            out[f"edge {tag} {name}"] = _bits(_run(call))
    return out


def settings_grid() -> dict:
    """The error each rejected setting or point raises, by entry name, as exact bytes."""
    import numpy as np
    import rootcert as rc

    def shown(v):  # repr, but +-10**400 by name: its repr has 401 digits
        if isinstance(v, int) and abs(v) == 10**400:
            return ("-" if v < 0 else "") + "10**400"
        return repr(v)

    f = rc.Polynomial([1, 0, -1])
    bundle = rc.gauge_bundle(rc.MethodKind.EHRLICH, rc.norm_context(2, math.inf))
    cert = rc.certify_initial(f, [1.001, -1.001], bundle)
    calls = {}
    for n in (1, 10**400):
        for p in (1, 2, math.inf):
            calls[f"norm_context n={shown(n)} p={p}"] = lambda n=n, p=p: rc.norm_context(n, p)
    for p in (0, 0.5, math.nan, Fraction(1, 2), 10**400):
        calls[f"norm_context p={shown(p)}"] = lambda p=p: rc.norm_context(4, p)
    calls["p_norm p=0"] = lambda: rc.p_norm([1.0, 2.0], 0)
    for name, values in (("max_iter", (0, 10**400)), ("w_tol", (0, -1, math.inf, 10**400)),
                         ("p", (True,))):
        for v in values:
            calls[f"SolveConfig {name}={shown(v)}"] = lambda kw={name: v}: rc.SolveConfig(**kw)
    for k in (-1, 10**400):
        calls[f"a_priori_bound k={shown(k)}"] = lambda k=k: rc.a_priori_bound(cert, [1.0, 1.0], k)
    calls["w_contraction_bound k=10**400"] = (
        lambda: rc.w_contraction_bound(cert, [1.0, 1.0], 10**400))
    for r in (math.inf, -math.inf, math.nan, 1j, True, "0.4", None, [0.1, 0.2], 10**400,
              -10**400, Fraction(1, 3), np.array(0.4)):
        calls[f"default_init rotation={shown(r)}"] = lambda r=r: rc.default_init(f, rotation=r)
    calls["default_init method='ehrlich'"] = lambda: rc.default_init(f, method="ehrlich")
    ctx = rc.norm_context(2, math.inf)
    for x in ([[1.0, 2.0], [3.0, 4.0]], [1.0], [], [[1.0, -1.0, 2.0, -2.0]]):
        shape = np.shape(x)
        calls[f"measure shape={shape}"] = lambda x=x: rc.measure(f, x, ctx)
        calls[f"solve shape={shape}"] = lambda x=x: rc.solve(f, x)
        calls[f"separation shape={shape}"] = lambda x=x: rc.separation(x)
        calls[f"viete shape={shape}"] = lambda x=x: rc.viete(x)
    # a point is checked finite before its count is
    calls["measure 3 points with nan"] = lambda: rc.measure(f, [1.0, 2.0, math.nan], ctx)
    for name, leading in (("list", [1.0, 2.0, 3.0]), ("2-D", [[2.0]]),
                          ("array of one", np.array([2.0]))):
        calls[f"from_roots leading {name}"] = lambda v=leading: rc.from_roots([1, 2], v)
    return {f"setting {name}": _bits(_run(call)) for name, call in calls.items()}


def _dump() -> None:
    """Run the grid and write it, pickled, to stdout."""
    import numpy as np
    import rootcert

    src = os.path.realpath(sys.path[0])
    if not os.path.realpath(rootcert.__file__).startswith(src + os.sep):
        raise SystemExit(f"rootcert came from {rootcert.__file__}, not {src}")
    with np.errstate(all="ignore"):
        entries = {**grid(), **cli_grid(), **edge_grid(), **settings_grid()}
    sys.stdout.buffer.write(pickle.dumps(entries))


def _outputs(src: str) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import same_outputs; same_outputs._dump()")
    done = subprocess.run([sys.executable, "-c", code, os.path.abspath(src), here],
                          stdout=subprocess.PIPE, check=True)
    return pickle.loads(done.stdout)


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    try:
        parent, change = (_outputs(src) for src in argv)
    except subprocess.CalledProcessError as exc:
        # not a difference: the comparison could not be made
        print(f"a tree failed to run the grid: {exc}", file=sys.stderr)
        return 2
    differ = [name for name in sorted(parent.keys() | change.keys())
              if name not in parent or name not in change
              or pickle.dumps(parent[name]) != pickle.dumps(change[name])]
    for name in differ:
        print(name)
    print(f"{len(differ)} of {len(parent.keys() | change.keys())} entries differ",
          file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
