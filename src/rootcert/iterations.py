"""One iteration step of each simultaneous root-finding method.

Every production step is a map of (x, W, D) with W = W_f(x) and D the
pairwise-difference matrix of x that W was reduced from: Weierstrass,
Ehrlich in the Boersch-Supan form and Presic-Tanabe.  Dochev-Byrnev runs
through the Tanabe map, since the two methods are identical.  The public
``*_step(f, x)`` functions compute W and D by ``measure``'s formulas,
without its separations, and apply the same map; each maps an exact root
vector to itself bitwise, since W then evaluates to exactly zero.
The algebraically identical reference forms are test oracles in
``tests/oracle.py``, not part of the package.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain
from .measures import corrections, sigmas
from .polynomials import Polynomial


class MethodKind(enum.Enum):
    WEIERSTRASS = "weierstrass"
    EHRLICH = "ehrlich"
    DOCHEV_BYRNEV = "dochev-byrnev"
    TANABE = "tanabe"


@dataclass(frozen=True)
class StepResult:
    image: np.ndarray
    corrections: np.ndarray  # W_f(x) at the input point


def _weierstrass(x: np.ndarray, w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    return x - w


def _ehrlich(x: np.ndarray, w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    den = 1.0 + sigmas(w, diff)
    bad = np.abs(den) < 1e-14 * (1.0 + np.abs(x))
    if np.any(bad):
        i = int(np.argmax(bad))
        raise OutsideDomain(f"Ehrlich denominator vanishes at component {i}")
    return x - w / den


def _tanabe(x: np.ndarray, w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    return x - w * (1.0 - sigmas(w, diff))


def _step(step_map, f: Polynomial, x) -> StepResult:
    x = np.asarray(x, dtype=np.complex128)
    w, diff = corrections(f, x)
    return StepResult(image=step_map(x, w, diff), corrections=w)


def weierstrass_step(f: Polynomial, x) -> StepResult:
    """x_i - W_i(x)."""
    return _step(_weierstrass, f, x)


def ehrlich_step_bs(f: Polynomial, x) -> StepResult:
    """Boersch-Supan form: x_i - W_i(x) / (1 + sigma_i(x))."""
    return _step(_ehrlich, f, x)


def tanabe_step(f: Polynomial, x) -> StepResult:
    """Presic-Tanabe step: x_i - W_i(x) * (1 - sigma_i(x))."""
    return _step(_tanabe, f, x)


_STEP_MAPS = {
    MethodKind.WEIERSTRASS: _weierstrass,
    MethodKind.EHRLICH: _ehrlich,
    MethodKind.DOCHEV_BYRNEV: _tanabe,
    MethodKind.TANABE: _tanabe,
}


def step_function(method: MethodKind):
    """The map (x, W_f(x), differences(x)) -> next iterate used by the
    solver for a method."""
    return _STEP_MAPS[method]
