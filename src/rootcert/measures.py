"""Measurement layer: separations, Weierstrass corrections and the
initial-condition measure E_f together with its p-norm machinery.

``_checked`` copies a caller's point where it enters and requires n =
f.degree finite entries; ``_measured``, the one path that computes W into
a ``Measurement`` that carries its point, trusts it.  A zero d_i, and
nothing else, decides that components coincide.  Each of d, W and sigma
is a reduction of one pairwise-difference matrix D per point, built by
``differences``, which ``_measured`` hands to its caller and keeps
nowhere.  The step map that follows reduces sigma in D's own memory, D's
last reader, and ``solve`` drops D before the next measurement: an
iterate holds one n x n complex array (and |D| while d is reduced),
where two freed together let glibc trim its heap and the next iterate
fault it back in.

``_measured`` reduces W alone.  d and E = ||W/d||_p are cached
properties; ``_with_d``, the one writer of a cached d, supplies it from
the D its caller still holds (``measure``, and ``solve`` at x0 and at the
iterate it stops on) or from the record.  Any other Measurement reduces d
from its own x when first read, once, to the same bits, and E from W and
d.  A coincidence puts an exact 0 (or NaN, beside an infinite factor)
into its product over j != i, so W is not finite there; wherever a
product is 0 or not finite, d decides before the division.

Whenever ``solve`` returns, it leaves W and d at x0 and at its final
iterate in one O(n) record, keyed by the exact bytes of f.coeffs and of
the point.  ``measure``, behind every public function of a point but
``solve`` and the steps, reads it first and on a hit returns the bits a
fresh measurement gives, sharing the trace's read-only W and d.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import BadExponent, DegreeMismatch, NonDistinctComponents
from .polynomials import Polynomial, _array, _vector, evaluate


@dataclass(frozen=True)
class NormContext:
    """The (n, p) pair with its conjugate exponent and the derived constants.

    a = (n-1)**(1/q) and b = 2**(1/q) where 1/p + 1/q = 1.  The endpoint
    conventions are hard-coded: p = 1 gives q = inf hence a = b = 1, and
    p = inf gives q = 1 hence a = n - 1, b = 2.
    """

    n: int
    p: float
    q: float
    a: float
    b: float


# shown for a real that float() rejects with OverflowError, whose repr may
# run to thousands of digits
_BEYOND = "a real beyond binary64"


def _setting(name: str, v, rule: str, ok, integer: bool = False, error=ValueError):
    """int(v) or float(v) by the one rule for a numeric setting: an Integral
    (integer) or a Real, not a bool, that float() holds and ok(float(v)) accepts;
    else error("{name} must {rule}, got ..."), _BEYOND where float() overflows."""
    kind = numbers.Integral if integer else numbers.Real
    try:
        if isinstance(v, kind) and not isinstance(v, bool) and ok(x := float(v)):
            return int(v) if integer else x
        shown = repr(v)
    except OverflowError:
        shown = _BEYOND
    raise error(f"{name} must {rule}, got {shown}")


def _integer(name: str, v, low: int) -> int:
    return _setting(name, v, f"be an integer >= {low}", lambda x: x >= low, integer=True)


def _exponent(p) -> float:
    """A finite p beyond binary64 is not inf, and fails 1 <= p <= inf."""
    return _setting("p", p, "satisfy 1 <= p <= inf", lambda x: x >= 1, error=BadExponent)


def norm_context(n: int, p: float) -> NormContext:
    """Build a NormContext for an n-point configuration and exponent p."""
    n, p = _integer("n", n, 2), _exponent(p)
    if p == 1:
        q, a, b = math.inf, 1.0, 1.0
    elif math.isinf(p):
        q, a, b = 1.0, float(n - 1), 2.0
    else:
        q = p / (p - 1)
        a = (n - 1) ** (1.0 / q)
        b = 2.0 ** (1.0 / q)
    return NormContext(n=n, p=p, q=q, a=a, b=b)


def p_norm(v, p: float) -> float:
    """p-norm of a nonnegative real vector, rescaled by the maximum to
    avoid overflow for large p; inf where an entry is inf.  Anything but a
    vector of entries >= 0 (NaN aside) raises ValueError."""
    v = _array(v, f"p_norm needs a vector of entries >= 0, got {_BEYOND}", float)
    p = _exponent(p)
    if v.shape == (0,):
        return 0.0
    if v.ndim != 1 or (v < 0.0).any():
        raise ValueError(f"p_norm needs a vector of entries >= 0, got shape {v.shape}")
    return _norm(v, p)


def _norm(v: np.ndarray, p: float) -> float:
    """p_norm of a nonempty float vector v >= 0 at a p already checked."""
    m = float(v.max())
    if m == 0.0 or math.isinf(m) or math.isinf(p):
        return m
    if p == 1:
        return float(np.sum(v))
    return m * float(np.sum((v / m) ** p)) ** (1.0 / p)


def differences(x) -> np.ndarray:
    """D[j, i] = x_i - x_j, with a unit diagonal.

    Every reduction over j runs along axis 0, where numpy combines whole
    contiguous rows; along axis 1 it reduces complex products one row at
    a time in a scalar loop, several times slower.
    """
    x = np.asarray(x, dtype=np.complex128)
    # x in every row, then each row's x_j taken off in place: broadcasting
    # both operands of one subtraction would make numpy buffer each of them
    diff = x.reshape(1, -1).repeat(x.size, axis=0)
    diff -= x[:, None]
    _diagonal(diff)[...] = 1.0
    return diff


def _diagonal(a: np.ndarray) -> np.ndarray:
    """The diagonal of a C-contiguous square array, a view of its flat memory."""
    return a.reshape(-1)[:: a.shape[0] + 1]


def _separations(diff: np.ndarray) -> np.ndarray:
    """d_i = min over j != i of |x_i - x_j|, reduced from diff = differences(x)."""
    gaps = np.abs(diff)
    _diagonal(gaps)[...] = np.inf
    return gaps.min(axis=0)


def separation(x) -> np.ndarray:
    """d_i(x) = min over j != i of |x_i - x_j| for x checked finite; a zero d_i
    (coinciding components) is left for the caller to reject."""
    return _separations(differences(_vector(x)))


def sigmas(w: np.ndarray, diff: np.ndarray) -> np.ndarray:
    """sigma_i = sum over j != i of W_j / (x_i - x_j), all i at once,
    from W and diff = differences(x), which it overwrites: its last reader."""
    np.divide(w[:, None], diff, out=diff)
    _diagonal(diff)[...] = 0.0
    return diff.sum(axis=0)


@dataclass(frozen=True, eq=False)
class Measurement:
    """A point vector x (complex128) with W_f(x), d(x) and E_f(x) =
    ||W_f(x) / d(x)||_p at p = _p; x, w and d are read-only.  d and E are
    cached properties, each reduced when first read, once, d from x unless
    _with_d supplied it, to the bits a fresh measurement gives."""

    x: np.ndarray
    w: np.ndarray
    _p: float = field(default=math.inf, repr=False, kw_only=True)

    @cached_property
    def d(self) -> np.ndarray:
        return _distinct(differences(self.x))

    @cached_property
    def E(self) -> float:
        return _norm(np.abs(self.w) / self.d, self._p)


def _checked(f: Polynomial, x, ctx: NormContext) -> np.ndarray:
    """_vector(x), a copy, where it has n = ctx.n = f.degree points."""
    x = _vector(x)
    if not x.size == ctx.n == f.degree:
        raise DegreeMismatch(f"{x.size} points and n = {ctx.n} for degree {f.degree}")
    return x


def _distinct(diff: np.ndarray) -> np.ndarray:
    """d, read-only, from diff = differences(x); a zero d_i means coinciding
    components and raises NonDistinctComponents."""
    d = _separations(diff)
    if not d.all():
        raise NonDistinctComponents(f"components coincide (index {int(np.argmin(d))})")
    d.setflags(write=False)
    return d


def _with_d(m: Measurement, diff=None, d=None) -> Measurement:
    """m with its cached d supplied where not yet known: d where given (the
    record's), else reduced from diff = differences(m.x), which the caller
    still holds."""
    if "d" not in vars(m):
        vars(m)["d"] = _distinct(diff) if d is None else d
    return m


def _measured(f: Polynomial, x, ctx: NormContext):
    """(Measurement, D) at the checked point x, measured afresh, with D =
    differences(x) for _with_d and the step map that follows.  d is
    reduced here only where a product over j != i is 0 or not finite, and
    a zero d_i raises NonDistinctComponents."""
    diff = differences(x)
    with np.errstate(over="ignore", invalid="ignore"):
        prod = diff.prod(axis=0)
    d = None
    if not (prod.all() and np.isfinite(prod).all()):
        d = _distinct(diff)
        # again, with warnings: an overflow among distinct points warns
        # here, and coinciding ones have raised before any warning
        prod = diff.prod(axis=0)
    w = evaluate(f, x) / (f.coeffs[0] * prod)
    x.setflags(write=False)
    w.setflags(write=False)
    m = Measurement(x, w, _p=ctx.p)
    return (m if d is None else _with_d(m, d=d)), diff


# {(f.coeffs bytes, point bytes): (W, d)} at x0 and the final iterate of
# the last solve, the trace's read-only arrays.  Only remember writes it,
# by one assignment, so a reader's one lookup sees one solve or another.
_record: dict = {}


def remember(f: Polynomial, *measurements: Measurement) -> None:
    """Replace the record with W and d of each m, keyed by bytes."""
    global _record
    _record = {(f.coeffs.tobytes(), m.x.tobytes()): (m.w, m.d) for m in measurements}


def measure(f: Polynomial, x, ctx: NormContext) -> Measurement:
    """The Measurement of W, d and E at x.  Where the last solve measured
    x (its x0 or its final iterate) W and d come from the record;
    elsewhere x is measured afresh and d reduced from its D.  E is reduced
    in O(n) when read.  Both give the same bits.  x passes _checked, so
    m.x is a copy of it."""
    x = _checked(f, x, ctx)
    hit = _record.get((f.coeffs.tobytes(), x.tobytes()))
    if hit is None:
        return _with_d(*_measured(f, x, ctx))
    x.setflags(write=False)
    w, d = hit
    return _with_d(Measurement(x, w, _p=ctx.p), d=d)


def weierstrass_correction(f: Polynomial, x) -> np.ndarray:
    """W_i(x) = f(x_i) / (C_0 * prod over j != i of (x_i - x_j))."""
    return measure(f, x, norm_context(f.degree, math.inf)).w


def e_measure(f: Polynomial, x, ctx: NormContext) -> float:
    """E_f(x): the p-norm of the vector |W_i(x)| / d_i(x)."""
    return measure(f, x, ctx).E
