"""Velocity reference, closed-form safety filter, tracking law, and assembly.

The filter solves, in closed form, the one-constraint projection

    minimize ||z_dot_s - z_dot_d||  subject to  n . z_dot_s >= -alpha h(z)

against the nearest obstacle only (n the barrier gradient at z): the optimum
is z_dot_d plus max(-n . z_dot_d - alpha h, 0) along n. The tracking layer is
plain velocity-error feedback u = -k_d (z_dot - z_dot_s). Each layer takes
and returns tuples of components only (see _vec): Python floats for one
state, ndarray columns for a batch. The layers are planar: each is written
on the two components (x, y), one expression per component, and the
filter's inner product n . z_dot_d keeps np.sum's order for two parts,
(p0 + 0.0) + p1, so its signed zeros are those of np.sum. Arrays enter the
stack at two places: the law's ``evaluate`` and the barrier (BarrierFn). ``evaluate``
unpacks the state's four components (zx, zy, vx, vy) itself: the plant's
state is position x[:2], velocity x[2:4]. On columns every layer takes its
constants as 0-d arrays made when the law is assembled (see _vec): the goal,
alpha and the gains as Gain, whose negation is ready made; the filter's 0.0
is _vec.ZERO. The filter's column branch writes its temporaries in place,
each ufunc with the float code's operand order, so the bits are the same.
One evaluation returns a LawIntermediates, a
NamedTuple: it is indexable and iterable in field order, and ``_replace``
gives a copy with some fields changed.
"""
from __future__ import annotations

from dataclasses import astuple, dataclass
from typing import Callable, NamedTuple

import numpy as np

from ._vec import ZERO, Gain, const, join, split
from .barrier import BarrierFn
from .errors import ConfigurationError, require_number


@dataclass(frozen=True)
class Gains:
    """Loop gains: k_p position pull, k_d velocity feedback, alpha barrier decay
    rate, each finite and > 0; a message about one value starts with its
    scenario key, gains.kp to gains.alpha."""

    k_p: float
    k_d: float
    alpha: float

    def __post_init__(self):
        for key, val in zip(("gains.kp", "gains.kd", "gains.alpha"), astuple(self)):
            require_number(key, val)
            if not (np.isfinite(val) and val > 0):
                raise ConfigurationError(f"{key} must be strictly positive, got {val!r}")


class LawIntermediates(NamedTuple):
    """One evaluation of the layered law at a state: every layer's output.

    h is the barrier value the filter used; u is the tracking input. Fields
    take the form of the state given to evaluate:
    tuples of components for components, arrays for an array.
    """

    z_dot_d: tuple | np.ndarray
    z_dot_s: tuple | np.ndarray
    active: bool | np.ndarray
    h: float | np.ndarray
    u: tuple | np.ndarray


@dataclass(frozen=True)
class ClosedLoopLaw:
    """State feedback: evaluate(x) runs the whole stack once, returning LawIntermediates.

    The rollout kernel passes x as a tuple of components (see _vec). evaluate
    also takes a state array (4,) or (..., 4): it splits it into components,
    runs the stack and joins every field back into an array.
    """

    goal: np.ndarray | None
    gains: Gains | None
    barrier: BarrierFn | None
    evaluate: Callable


def desired_velocity(goal, k_p: float, z):
    """Proportional pull toward the goal: -k_p (z - goal)."""
    (zx, zy), (gx, gy) = z, goal
    return (-k_p * (zx - gx), -k_p * (zy - gy))


def safe_velocity(b: BarrierFn, alpha: float, z, z_dot_d):
    """Minimally corrected velocity admissible for the nearest-obstacle constraint.

    Returns (z_dot_s, active, h). When the constraint is inactive the input
    passes through unchanged; otherwise the correction is the exact distance
    to the half-space boundary, applied along the barrier gradient, which is
    the closest feasible point to z_dot_d. h is the barrier value it was
    computed from, so a caller needs no second barrier pass. Components are
    Python floats or ndarray columns, as the barrier's h says. The correction
    max(c, 0) is written in float code on one run's floats, so a K = 1 step
    makes no numpy call for it, and is np.maximum(c, 0.0) on columns, in
    place in the correction's own column. Both keep NaN and turn -0.0 into
    0.0. On columns alpha may be a float or a 0-d array (evaluate passes one).
    """
    h, (nx, ny) = b.value_and_gradient(z)
    vx, vy = z_dot_d
    if type(h) is float:
        # n . z_dot_d in np.sum's order for two parts, (p0 + 0.0) + p1, with its signed zeros
        corr = -((nx * vx + 0.0) + ny * vy) - alpha * h
        corr = corr if corr > 0.0 or corr != corr else 0.0
        return (vx + corr * nx, vy + corr * ny), corr > 0.0, h
    # the same expressions on columns, each in a temporary of this pass
    corr = np.multiply(nx, vx)
    np.add(corr, ZERO, out=corr)
    p1 = np.multiply(ny, vy)
    np.add(corr, p1, out=corr)
    np.negative(corr, out=corr)
    np.subtract(corr, np.multiply(alpha, h, out=p1), out=corr)
    np.maximum(corr, ZERO, out=corr)
    sx = np.multiply(corr, nx)
    sy = np.multiply(corr, ny)
    return (np.add(vx, sx, out=sx), np.add(vy, sy, out=sy)), np.greater(corr, ZERO), h


def tracking_control(k_d: float, z_dot, z_dot_s):
    """Velocity-error feedback: -k_d (z_dot - z_dot_s)."""
    (vx, vy), (sx, sy) = z_dot, z_dot_s
    return (-k_d * (vx - sx), -k_d * (vy - sy))


def assemble_closed_loop(b: BarrierFn, gains: Gains, goal) -> ClosedLoopLaw:
    """Compose reference, filter, and tracking into state feedback.

    The law reads the state as (position, velocity) over four components,
    x[:2] and x[2:4], and evaluate unpacks them directly. The goal is a
    planar position. The constants are held twice, as floats for one run
    and as 0-d arrays for columns (see _vec), and evaluate picks them by
    the first component's type.
    """
    goal = np.asarray(goal, dtype=float)
    if goal.shape != (2,):
        raise ConfigurationError("goal must have shape (2,)")
    goal_f = split(goal)
    k_p, k_d, alpha = float(gains.k_p), float(gains.k_d), float(gains.alpha)
    goal_c, k_p_c, alpha_c, k_d_c = tuple(map(const, goal_f)), Gain(k_p), const(alpha), Gain(k_d)
    new = tuple.__new__  # a LawIntermediates without NamedTuple.__new__'s argument handling

    def evaluate(x):
        # one run's floats take the body below with the float constants,
        # columns on_columns, an array the split below: one test on the
        # first component, the only test a float stage makes here
        try:
            first = x[0]
        except IndexError:  # an empty batch array
            first = None
        if type(first) is not float:
            if isinstance(x, tuple):
                return on_columns(x)
            with np.errstate(all="ignore"):  # the barrier's column division and overflow
                return LawIntermediates._make(map(join, evaluate(split(x))))
        zx, zy, vx, vy = x
        z_dot_d = desired_velocity(goal_f, k_p, (zx, zy))
        z_dot_s, active, h = safe_velocity(b, alpha, (zx, zy), z_dot_d)
        u = tracking_control(k_d, (vx, vy), z_dot_s)
        return new(LawIntermediates, (z_dot_d, z_dot_s, active, h, u))

    def on_columns(x):
        # evaluate's body with the column constants
        zx, zy, vx, vy = x
        z_dot_d = desired_velocity(goal_c, k_p_c, (zx, zy))
        z_dot_s, active, h = safe_velocity(b, alpha_c, (zx, zy), z_dot_d)
        u = tracking_control(k_d_c, (vx, vy), z_dot_s)
        return new(LawIntermediates, (z_dot_d, z_dot_s, active, h, u))

    return ClosedLoopLaw(goal=goal, gains=gains, barrier=b, evaluate=evaluate)
