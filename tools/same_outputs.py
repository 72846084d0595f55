"""Check that two source trees of rootcert give bitwise equal public outputs.

Usage: python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each SRC is a directory that holds the ``rootcert`` package, such as the
``src`` of a checkout.  The grid below runs once per tree, each in its own
Python process with that tree first on ``sys.path``, and every output is
compared by its exact bytes.  The names of the entries that differ, or are
missing on one side, are printed, and the exit status is 1 if there are
any, else 0.

The grid: Kac polynomials (non-leading coefficients uniform in the unit
square, as ``tests/conftest.random_monic``) of the degrees in DEGREES for
seeds 1 and 2.  On each, ``solve`` runs uncertified with every method from
``default_init``, and certified with each certifiable method from a point
near the uncertified Ehrlich run's final iterate; right after each, the
corrections W at that start point and ``a_posteriori_bound_1`` at its
final iterate, both of which read the record the solve left.  At 0.9 times
``default_init`` it runs ``inclusion_disks`` for Ehrlich and Tanabe, the
three public steps and ``separation``, and ``evaluate`` at four of those
points, one scalar call each, and once on a 2-D array that stacks all of
them over 1.1 times ``default_init``.  ``inclusion_disks`` also runs at
the final iterate of the uncertified Ehrlich and Tanabe solves, right
after each.  A call that raises records the exception's type and message
as its output.  A dataclass is compared by its public attributes, fields
and properties alike, by name, so moving a value between a field and a
property is no difference.
"""

from __future__ import annotations

import dataclasses
import math
import os
import pickle
import subprocess
import sys

DEGREES = (8, 33, 64, 128, 129, 256, 257, 300, 385, 512)
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
    if dataclasses.is_dataclass(v):
        cls = type(v)
        names = {fl.name for fl in dataclasses.fields(v)} | {
            name for name in dir(cls) if isinstance(getattr(cls, name), property)}
        # a certificate's bundle holds closures; its gauges are the inputs
        return cls.__name__, tuple(
            (name, _bits(getattr(v, name))) for name in sorted(names)
            if name != "bundle" and not name.startswith("_"))
    if isinstance(v, (list, tuple)):
        return tuple(_bits(e) for e in v)
    return v


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
            rng = np.random.default_rng([seed, n])
            coeffs = np.concatenate([[1.0 + 0.0j],
                                     rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)])
            f = rc.Polynomial(coeffs)
            x0 = rc.default_init(f)
            tag = f"n={n} seed={seed}"
            ctx = rc.norm_context(n, math.inf)
            bundles = {m: rc.gauge_bundle(m, ctx) for m in (kinds.EHRLICH, kinds.TANABE)}
            near = x0
            for method in kinds:
                cfg = rc.SolveConfig(method=method, require_certificate=False)
                r = _run(lambda: rc.solve(f, x0, cfg))
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


def _dump() -> None:
    """Run the grid and write it, pickled, to stdout."""
    import numpy as np
    import rootcert

    src = os.path.realpath(sys.path[0])
    if not os.path.realpath(rootcert.__file__).startswith(src + os.sep):
        raise SystemExit(f"rootcert came from {rootcert.__file__}, not {src}")
    with np.errstate(all="ignore"):
        entries = grid()
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
    parent, change = (_outputs(src) for src in argv)
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
