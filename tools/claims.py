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

It prints one JSON line: the totals of issued, unsound and undecided
disks, and the same counts per degree.  It exits 0 whatever the counts.
"""

from __future__ import annotations

import json
import os
import sys

DEGREES = (16, 64, 128, 256)
SEEDS = (1, 2, 3)
SHIFT = 1e-6


def counts() -> dict:
    import numpy as np
    import reference
    import rootcert as rc

    total = {"issued": 0, "unsound": 0, "undecided": 0}
    by_n = {}
    for n in DEGREES:
        row = by_n[str(n)] = dict.fromkeys(total, 0)
        for seed in SEEDS:
            coeffs = reference.kac_coeffs(np.random.default_rng([seed, n]), n)
            try:
                ref = reference.reference_roots(coeffs)
            except reference.ReferenceFailure:
                row["undecided"] += n
                continue
            res = rc.solve(rc.Polynomial(coeffs), ref.roots + SHIFT)
            disks = res.disks
            out = reference.check_disks(reference.Outcome(), [d.center for d in disks],
                                        [d.radius for d in disks], ref)
            row["issued"] += len(disks)
            row["unsound"] += out.unsound
            row["undecided"] += out.undecided
        for key in total:
            total[key] += row[key]
    return {**total, "by_n": by_n}


def main(argv) -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    if len(argv) > 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    src = os.path.abspath(argv[0] if argv else os.path.join(here, os.pardir, "src"))
    sys.path[:0] = [src, os.path.join(here, os.pardir, "bench")]
    import rootcert

    if not os.path.realpath(rootcert.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"rootcert came from {rootcert.__file__}, not {src}")
    print(json.dumps(counts()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
