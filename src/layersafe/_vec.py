"""The two component forms the control stack runs on, and vector sums.

Each layer's arithmetic is written on a tuple of state components, which
take one of two forms: Python floats for one run (K = 1), contiguous 1-D
float columns for several. Where the forms need different code (a root, a
choice between obstacles, a clamp, a division), the barrier kernel and the
filter check the form once per call and write each form once: floats as
plain float code that gives numpy's bits, columns as numpy calls. Arrays
enter at two places, ClosedLoopLaw.evaluate and BarrierFn, which convert
with split and join; the rollout kernel splits its initial states.
finite reads the four components of a state.
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
    """The root of a sum of squares, a float or a column."""
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


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
    """Euclidean norm of a tuple of components, or over an array's trailing axis.

    A tuple's squares are summed left to right without vsum's leading 0.0 +:
    a square is never -0.0 and 0.0 + s is s for every other square, NaN
    included, so the bits are vsum's with one add less per norm.
    """
    if isinstance(v, tuple):
        out = v[0] * v[0]
        for c in v[1:]:
            out += c * c
        return sqrt(out)
    return np.sqrt(vdot(v, v))


def finite(x):
    """Whether each run's four state components are all finite: a bool for
    floats, else an array. 0 * c is 0 exactly when c is finite."""
    x0, x1, x2, x3 = x
    return 0.0 * x0 + 0.0 * x1 + 0.0 * x2 + 0.0 * x3 == 0.0
