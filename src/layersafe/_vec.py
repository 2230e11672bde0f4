"""The two component forms the control stack runs on, and the one vector norm.

Each layer's arithmetic is written on a tuple of state components, which
take one of two forms: Python floats for one run (K = 1), contiguous 1-D
float columns for several. Where the forms need different code (a root, a
choice between obstacles, a clamp, a division), the barrier kernel and the
filter check the form once per call and write each form once: floats as
plain float code that gives numpy's bits, columns as numpy calls. A column
branch takes its constants as read-only 0-d float64 arrays made once (const),
at build time or once per step size, never per call: under NEP 50 numpy
converts a Python float operand on every call, about 0.4 us more per call
than a 0-d array costs. Column temporaries are written in place (out=) only
where each ufunc keeps the operand order of the float code, so NaN signs and
signed zeros keep their bits. Arrays
enter at two places, ClosedLoopLaw.evaluate and BarrierFn, which convert
with split and join; the rollout kernel splits its initial states.
finite reads the four components of a state, with no constant. The planner and tracking take
their gains as a float or, on columns, a Gain, whose negation is a prebuilt
0-d array: they are written once, as -k * (...), for both forms.
The planner, filter and tracking layers are planar: they are written on the
two components (x, y) directly. vnorm, the one Euclidean norm, is too: an
array caller splits its array first. For two parts np.sum(..., axis=-1)
adds (p0 + 0.0) + p1, which the filter's inner product spells out; a square
is never -0.0, so vnorm's x*x + y*y has np.sum's bits without the + 0.0.
"""
from __future__ import annotations

import math

import numpy as np


def const(c) -> np.ndarray:
    """c as a read-only 0-d float64 array: a column branch's constant."""
    a = np.array(c, dtype=float)
    a.flags.writeable = False
    return a


# the column branches' zero; ufuncs read it as they read 0.0
ZERO = const(0.0)


class Gain:
    """A gain k for the column form of a layer that reads it as -k: -Gain(k)
    is a prebuilt 0-d array of -k, so -k * column takes no Python float and
    makes no call to negate k."""

    __slots__ = ("_neg",)

    def __init__(self, k: float):
        self._neg = const(-k)

    def __neg__(self):
        return self._neg


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


def vnorm(v):
    """The Euclidean norm of a planar vector's components (x, y), floats or
    columns: the root of x*x + y*y, summed in place in x*x's own column."""
    x, y = v
    s = x * x
    s += y * y
    return math.sqrt(s) if type(s) is float else np.sqrt(s)


def finite(x):
    """Whether each run's four state components are all finite: a bool for
    floats, else an array. c - c is 0 exactly when c is finite, else NaN,
    so the sum s of the four is NaN unless all are finite, and s == s says
    which, on either form with no constant to convert."""
    x0, x1, x2, x3 = x
    s = (x0 - x0) + (x1 - x1) + (x2 - x2) + (x3 - x3)
    return s == s
