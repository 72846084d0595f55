"""An iterate holds one n x n complex array: D, whose memory sigma reuses,
with |D| at half its size while d is reduced, and no second D.

The footprint is read with tracemalloc, which sees numpy's buffers, as the
peak of traced memory during one call above what was traced before it.
Page faults are not counted: how many a freed array costs depends on the
C allocator, not on this package.
"""

import tracemalloc

import numpy as np
import pytest

from rootcert import (
    MethodKind,
    SolveConfig,
    default_init,
    ehrlich_step_bs,
    solve,
    tanabe_step,
)
from conftest import random_monic

N = 256
# one D, plus |D| while d is reduced (and numpy's iterator buffer) reads
# 1.53; a second n x n complex array, 2.5 or more
LIMIT = 2 * 16 * N * N

F = random_monic(N, np.random.default_rng([1, N]))
NEAR = np.roots(F.coeffs) + 1e-9

CALLS = {
    "solve ehrlich": lambda: solve(F, NEAR),
    "solve tanabe": lambda: solve(F, NEAR, SolveConfig(method=MethodKind.TANABE)),
    "solve weierstrass": lambda: solve(F, default_init(F), SolveConfig(
        method=MethodKind.WEIERSTRASS, require_certificate=False, max_iter=3)),
    "ehrlich_step_bs": lambda: ehrlich_step_bs(F, NEAR),
    "tanabe_step": lambda: tanabe_step(F, NEAR),
}


def _peak(call):
    """(call's result, the most memory traced during it above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_an_iterate_holds_one_n_by_n_array(call):
    result, peak = _peak(call)
    assert peak <= LIMIT, f"peak {peak / (16 * N * N):.2f} x 16n^2 bytes"
    # each solve steps (a certified one only once issued at x0), so its peak
    # covers a step and the measurement of its image
    assert getattr(result, "iterations", 1) >= 1
