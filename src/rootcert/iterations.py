"""One iteration step of each simultaneous root-finding method.

Every production step maps a fresh ``Measurement`` m and the matrix D
that W was reduced from to the next iterate: Weierstrass, Ehrlich in the
Boersch-Supan form and Presic-Tanabe read m.x, W = m.w and D, and are D's
last readers, as sigma overwrites D.  Dochev-Byrnev runs through the
Tanabe map, since the two methods are identical.  The public
``*_step(f, x)`` functions measure x afresh and apply the same map; no
map reads d, so they reduce it only to reject coinciding components, where
a product in W is 0 or not finite.  Each maps an exact root vector to
itself bitwise, since W is then zero.
The algebraically identical reference forms are test oracles in
``tests/oracle.py``, not part of the package.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import OutsideDomain
from .measures import Measurement, _checked, _measured, norm_context, sigmas
from .polynomials import Polynomial


class MethodKind(enum.Enum):
    WEIERSTRASS = "weierstrass"
    EHRLICH = "ehrlich"
    DOCHEV_BYRNEV = "dochev-byrnev"
    TANABE = "tanabe"


@dataclass(frozen=True, eq=False)
class StepResult:
    image: np.ndarray
    corrections: np.ndarray  # W_f(x) at the input point


def _weierstrass(m: Measurement, diff: np.ndarray) -> np.ndarray:
    return m.x - m.w


def _ehrlich(m: Measurement, diff: np.ndarray) -> np.ndarray:
    den = 1.0 + sigmas(m.w, diff)
    bad = np.abs(den) < 1e-14
    if bad.any():
        i = int(np.argmax(bad))
        raise OutsideDomain(f"Ehrlich denominator vanishes at component {i}")
    return m.x - m.w / den


def _tanabe(m: Measurement, diff: np.ndarray) -> np.ndarray:
    return m.x - m.w * (1.0 - sigmas(m.w, diff))


def _step(step_map, f: Polynomial, x) -> StepResult:
    ctx = norm_context(f.degree, math.inf)
    m, diff = _measured(f, _checked(f, x, ctx), ctx)
    return StepResult(image=step_map(m, diff), corrections=m.w)


def weierstrass_step(f: Polynomial, x) -> StepResult:
    """x_i - W_i(x)."""
    return _step(_weierstrass, f, x)


def ehrlich_step_bs(f: Polynomial, x) -> StepResult:
    """Boersch-Supan form: x_i - W_i(x) / (1 + sigma_i(x))."""
    return _step(_ehrlich, f, x)


def tanabe_step(f: Polynomial, x) -> StepResult:
    """Presic-Tanabe step: x_i - W_i(x) * (1 - sigma_i(x))."""
    return _step(_tanabe, f, x)


# method -> the map from a measurement and its D to the next iterate
_STEP_MAPS = {
    MethodKind.WEIERSTRASS: _weierstrass,
    MethodKind.EHRLICH: _ehrlich,
    MethodKind.DOCHEV_BYRNEV: _tanabe,
    MethodKind.TANABE: _tanabe,
}
