"""Count the inclusion disks that rootcert issues and that miss their exact root.

Usage: python tools/claims.py [SRC]

SRC is a directory that holds the ``rootcert`` package, such as the ``src``
of a checkout; it defaults to the ``src`` of this one, so the counts of
another tree come from the same script.

The protocol: Kac polynomials (``bench/reference.kac_coeffs`` drawn from
``default_rng([seed, n])``) of the degrees in DEGREES for the seeds in
SEEDS.  Each runs a certified Ehrlich ``solve`` at p = inf from its exact
roots + 1e-6, and each disk it issues is checked against the matched exact
root by ``bench/reference.check_disks``.  A disk whose boundary lies within
the reference error of its root is undecided.  An input whose reference
roots cannot be established counts all of its n components as undecided,
so no input is dropped.

The families in ``families()`` (Wilkinson-10/15/20, the polynomials of the
Chebyshev points of degree 16 and 32, and z**64 - 1) run the same way, but
from the exact roots r + 1e-3 * d_i(r) / n with ``max_iter`` 400.

For each input of degree n <= EXACT_MAX_N, the final iterate is also
decided with no rounding by ``tests/oracle.exact_certificate`` (Ehrlich,
p = inf), and where that issues, its disks (centred at the final iterate,
with the exact certificate's radii) are checked the same way.  Its n
components count as exact_declined where the exact certificate does not
issue, else as exact_issued, of which exact_unsound and exact_undecided
count as above; an input whose reference roots cannot be established
counts them as exact_undecided.  No input is dropped.

It prints one JSON line: the totals of issued, unsound and undecided Kac
disks, the same counts per degree, and per family, with the exact counts
in each row of degree <= EXACT_MAX_N.  It exits 0 whatever the counts.
"""

from __future__ import annotations

import json
import math
import os
import sys

DEGREES = (16, 64, 128, 256)
SEEDS = (1, 2, 3)
SHIFT = 1e-6
FAMILY_SHIFT = 1e-3
FAMILY_MAX_ITER = 400
EXACT_MAX_N = 64
KEYS = ("issued", "unsound", "undecided")
EXACT_KEYS = ("exact_issued", "exact_unsound", "exact_undecided", "exact_declined")


def families():
    """(name, leading-first complex coefficients) of each family's input,
    expanded by numpy, so that every tree counts the same inputs."""
    import numpy as np

    for n in (10, 15, 20):
        yield f"wilkinson-{n}", np.poly(np.arange(1.0, n + 1)).astype(complex)
    for n in (16, 32):
        k = np.arange(1, n + 1)
        yield f"chebyshev-{n}", np.poly(np.cos((2 * k - 1) * np.pi / (2 * n))).astype(complex)
    yield "unity-64", np.concatenate([[1.0], np.zeros(63), [-1.0]]).astype(complex)


def _row(n: int) -> dict:
    keys = KEYS + EXACT_KEYS if n <= EXACT_MAX_N else KEYS
    return dict.fromkeys(keys, 0)


def _count(row: dict, coeffs, start, cfg) -> None:
    """Add the disks of the certified solve from start(exact roots) to row,
    and for a row with exact counts those of the exact certificate at its
    final iterate."""
    import oracle
    import reference
    import rootcert as rc

    n, exact = coeffs.size - 1, "exact_issued" in row
    try:
        ref = reference.reference_roots(coeffs)
    except reference.ReferenceFailure:
        row["undecided"] += n
        if exact:
            row["exact_undecided"] += n
        return
    f = rc.Polynomial(coeffs)
    res = rc.solve(f, start(ref.roots), cfg)
    disks = res.disks
    out = reference.check_disks(reference.Outcome(), [d.center for d in disks],
                                [d.radius for d in disks], ref)
    row["issued"] += len(disks)
    row["unsound"] += out.unsound
    row["undecided"] += out.undecided
    if not exact:
        return
    bundle = rc.gauge_bundle(rc.MethodKind.EHRLICH, rc.norm_context(n, math.inf))
    c = oracle.exact_certificate(bundle, f, res.final)
    if not c.issued:
        row["exact_declined"] += n
        return
    out = reference.check_disks(reference.Outcome(), res.final, c.rho, ref)
    row["exact_issued"] += n
    row["exact_unsound"] += out.unsound
    row["exact_undecided"] += out.undecided


def counts() -> dict:
    import numpy as np
    import reference
    import rootcert as rc

    total, by_n, by_family = dict.fromkeys(KEYS, 0), {}, {}
    for n in DEGREES:
        row = by_n[str(n)] = _row(n)
        for seed in SEEDS:
            coeffs = reference.kac_coeffs(np.random.default_rng([seed, n]), n)
            _count(row, coeffs, lambda roots: roots + SHIFT, rc.SolveConfig())
        for key in total:
            total[key] += row[key]
    for name, coeffs in families():
        n = coeffs.size - 1
        row = by_family[name] = _row(n)
        _count(row, coeffs, lambda roots: roots + FAMILY_SHIFT * rc.separation(roots) / n,
               rc.SolveConfig(max_iter=FAMILY_MAX_ITER))
    return {**total, "by_n": by_n, "by_family": by_family}


def main(argv) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0] if argv else os.path.join(here, os.pardir, "src"))
    sys.path[:0] = [src, os.path.join(here, os.pardir, "bench"),
                    os.path.join(here, os.pardir, "tests")]
    import rootcert

    if not os.path.realpath(rootcert.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rootcert came from {rootcert.__file__}, not {src}")
    print(json.dumps(counts()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
