"""The component representation the control stack runs on, and vector sums.

Each layer's arithmetic is written once, on a tuple of state components:
Python floats for one run (K = 1), contiguous 1-D float columns for several.
Inside the stack the type-specific code is the primitives sqrt, select,
clamp0 and divide, whose float versions reproduce numpy's bits. The barrier
kernel and the filter also write those float versions out inline, under one
representation check per call: each primitive checks its argument's type on
every call, and on one run's floats those checks cost more than the
arithmetic (about 70% of a two-obstacle barrier pass). Their columns still
go through sqrt, select and clamp0; the barrier divides its own offset
columns in place with numpy, under the caller's np.errstate, and calls
divide only for a float distance that is zero or not finite and for numpy
scalar components.
select and divide also take tuples of components, so a vector (or several
quantities chosen by one condition) goes through one call: select keeps
every component of a or of b together, and divide enters np.errstate once
for all of a's components. divide's float path, taken for a finite nonzero
float divisor, divides a planar (ax, ay) as (ax / b, ay / b) directly.
finite reads the four components of a state.
Arrays enter at two places, ClosedLoopLaw.evaluate and BarrierFn, which
convert with split and join; the rollout kernel splits its initial states.
Sums run 0.0 + p0 + p1 + ... left to right, the order np.sum(..., axis=-1)
uses for a trailing axis shorter than 8, so the two agree bit for bit there,
signed zeros included.
The planner, filter and tracking layers are planar: they are written on the
two components (x, y) directly, with no sum helper, and the filter's inner
product spells out vsum's order for two parts, (p0 + 0.0) + p1.
"""
from __future__ import annotations

import math

import numpy as np

with np.errstate(invalid="ignore"):
    _SQRT_NEG = float(np.sqrt(-1.0))  # numpy's NaN for the root of a negative


def split(a) -> tuple:
    """Trailing-axis components: floats for a vector (n,), else contiguous arrays."""
    a = np.asarray(a, dtype=float)
    if a.ndim == 1:
        return tuple(a.tolist())
    return tuple(np.ascontiguousarray(a[..., i]) for i in range(a.shape[-1]))


def join(v):
    """For array callers: a tuple's components on a trailing axis, or a numpy per-run value."""
    if isinstance(v, tuple):
        return np.stack(np.broadcast_arrays(*v), axis=-1)
    return np.asarray(v)[()]


def sqrt(x):
    if isinstance(x, np.ndarray):
        return np.sqrt(x)
    return math.sqrt(x) if not x < 0.0 else _SQRT_NEG


def select(cond, a, b):
    """np.where(cond, a, b); for tuples a and b, componentwise."""
    if not isinstance(cond, np.ndarray):
        return a if cond else b
    if isinstance(a, tuple):
        return tuple([np.where(cond, ai, bi) for ai, bi in zip(a, b)])
    return np.where(cond, a, b)


def clamp0(x):
    """np.maximum(x, 0.0)."""
    if isinstance(x, np.ndarray):
        return np.maximum(x, 0.0)
    return x if x > 0.0 or x != x else 0.0


def divide(a, b):
    """a / b, with numpy's result and no warning where b is zero; for a planar
    a = (ax, ay), each component divided by b. The divisor alone picks the
    path: numpy for an array, zero or non-finite b (where a column's 0/0, x/0
    or inf/inf would warn), plain division for a finite nonzero float. It
    enters np.errstate for every non-float divisor, which is why the barrier's
    column pass, whose callers already hold one, divides with numpy itself."""
    if type(b) is float and 0.0 < abs(b) < math.inf:
        if type(a) is tuple:
            ax, ay = a
            return (ax / b, ay / b)
        return a / b
    if not isinstance(a, tuple):
        return divide((a,), b)[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        out = [np.divide(p, b) for p in a]
    return tuple([o if isinstance(o, np.ndarray) else float(o) for o in out])


def vsum(parts):
    """0.0 + parts[0] + parts[1] + ..., left to right."""
    out = parts[0] + 0.0
    for p in parts[1:]:
        out = out + p
    return out


def vdot(a, b) -> np.ndarray:
    """Inner product over the trailing axis."""
    p = np.asarray(a, dtype=float) * np.asarray(b, dtype=float)
    return vsum([p[..., i] for i in range(p.shape[-1])])


def vnorm(v):
    """Euclidean norm of a tuple of components, or over an array's trailing axis."""
    if isinstance(v, tuple):
        return sqrt(vsum([c * c for c in v]))
    return np.sqrt(vdot(v, v))


def finite(x):
    """Whether each run's four state components are all finite: a bool for
    floats, else an array. 0 * c is 0 exactly when c is finite."""
    x0, x1, x2, x3 = x
    return 0.0 * x0 + 0.0 * x1 + 0.0 * x2 + 0.0 * x3 == 0.0
