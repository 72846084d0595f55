import numpy as np
import pytest

import rootcert.measures as measures
from rootcert import Polynomial, e_measure, from_roots


@pytest.fixture(autouse=True)
def empty_record(monkeypatch):
    """Each test starts with an empty record of solve's measurements, so
    no test's call counts depend on which solve ran before it."""
    monkeypatch.setattr(measures, "_record", {})


def random_monic(n, rng):
    """Random monic polynomial with non-leading coefficients in the unit disk."""
    coeffs = np.concatenate([
        [1.0 + 0.0j],
        rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n),
    ])
    return Polynomial(coeffs)


def random_distinct_points(n, rng, radius=2.0, min_sep=0.05):
    """n points in the disk of the given radius with pairwise separation >= min_sep."""
    while True:
        x = radius * (rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n))
        diff = np.abs(x[:, None] - x[None, :])
        np.fill_diagonal(diff, np.inf)
        if diff.min() >= min_sep:
            return x


def well_separated_roots(n, rng, radius=2.0, min_sep=0.6):
    """Root sets used for constructed known-answer instances."""
    return random_distinct_points(n, rng, radius=radius, min_sep=min_sep)


def roots_of_unity_just_below_tau(n, ctx, tau):
    """(z^n - 1, (1 + s) times the n-th roots of unity), with s bisected so
    that E sits just below tau; E grows with s."""
    f = Polynomial([1.0] + [0.0] * (n - 1) + [-1.0])
    omega = np.exp(2j * np.pi * np.arange(n) / n)
    lo, hi = 0.0, 1.0
    for _ in range(60):
        s = 0.5 * (lo + hi)
        if e_measure(f, (1.0 + s) * omega, ctx) < tau:
            lo = s
        else:
            hi = s
    return f, (1.0 + lo) * omega
