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
# in units of one n x n complex array, 16n^2 bytes: one D, plus |D| while d
# is reduced (and numpy's iterator buffer) reads 1.53 at n = 256 and 1.59
# at n = 128, where that buffer of 128 KB is half a unit; a second n x n
# complex array, 2.5 or more
LIMIT = 2


def _calls(n: int) -> dict:
    f = random_monic(n, np.random.default_rng([1, n]))
    near = np.roots(f.coeffs) + 1e-9
    return {
        "solve ehrlich": lambda: solve(f, near),
        "solve tanabe": lambda: solve(f, near, SolveConfig(method=MethodKind.TANABE)),
        "solve weierstrass": lambda: solve(f, default_init(f), SolveConfig(
            method=MethodKind.WEIERSTRASS, require_certificate=False, max_iter=3)),
        "ehrlich_step_bs": lambda: ehrlich_step_bs(f, near),
        "tanabe_step": lambda: tanabe_step(f, near),
    }


CALLS = _calls(N)
CALLS_128 = _calls(128)


def _peak(call):
    """(call's result, the most memory traced during it above the start)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _holds_one_n_by_n_array(call, n: int):
    result, peak = _peak(call)
    assert peak <= LIMIT * 16 * n * n, f"peak {peak / (16 * n * n):.2f} x 16n^2 bytes"
    # each solve steps (a certified one only once issued at x0), so its peak
    # covers a step and the measurement of its image
    assert getattr(result, "iterations", 1) >= 1


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_an_iterate_holds_one_n_by_n_array(call):
    _holds_one_n_by_n_array(call, N)


@pytest.mark.parametrize("call", CALLS_128.values(), ids=CALLS_128)
def test_an_iterate_holds_one_n_by_n_array_at_degree_128(call):
    _holds_one_n_by_n_array(call, 128)
