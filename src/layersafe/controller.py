"""Velocity reference, closed-form safety filter, tracking law, and assembly.

The filter solves, in closed form, the one-constraint projection

    minimize ||z_dot_s - z_dot_d||  subject to  n . z_dot_s >= -alpha h(z)

against the nearest obstacle only (n the barrier gradient at z): the optimum
is z_dot_d plus max(-n . z_dot_d - alpha h, 0) along n. The tracking layer is
plain velocity-error feedback u = -k_d (z_dot - z_dot_s). Each layer is
written once on a tuple of components (see _vec): floats for one state,
columns for a batch; array callers get arrays back.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._vec import clamp0, join, split, vsum
from .barrier import BarrierFn
from .errors import ConfigurationError, NoCertificateError


@dataclass(frozen=True)
class Gains:
    """Loop gains: k_p position pull, k_d velocity feedback, alpha barrier decay rate."""

    k_p: float
    k_d: float
    alpha: float

    def __post_init__(self):
        for name in ("k_p", "k_d", "alpha"):
            val = getattr(self, name)
            if not (np.isfinite(val) and val > 0):
                raise ConfigurationError(f"gains.{name} must be strictly positive, got {val!r}")


@dataclass(frozen=True)
class LawIntermediates:
    """One evaluation of the layered law at a state: every layer's output.

    h and grad_h are the barrier value and gradient the filter used; u is the
    tracking input. Fields take the form of the state: arrays or components.
    """

    z_dot_d: tuple | np.ndarray
    z_dot_s: tuple | np.ndarray
    active: bool | np.ndarray
    h: float | np.ndarray
    grad_h: tuple | np.ndarray
    u: tuple | np.ndarray


@dataclass(frozen=True)
class ClosedLoopLaw:
    """State feedback: evaluate(x) runs the whole stack once, returning LawIntermediates;
    the rollout kernel passes x as a tuple of components (see _vec)."""

    goal: np.ndarray | None
    gains: Gains | None
    barrier: BarrierFn | None
    evaluate: Callable


def desired_velocity(goal, k_p: float, z):
    """Proportional pull toward the goal: -k_p (z - goal)."""
    arrays = not isinstance(z, tuple)
    if arrays:
        goal, z = split(goal), split(z)
    z_dot_d = tuple([-k_p * (zi - gi) for zi, gi in zip(z, goal)])
    return join(z_dot_d) if arrays else z_dot_d


class _Filtered(tuple):
    """The pair (z_dot_s, active), with the filter's barrier value and gradient attached."""

    def __new__(cls, z_dot_s, active, h, grad_h):
        out = tuple.__new__(cls, (z_dot_s, active))
        out.h = h
        out.grad_h = grad_h
        return out


def safe_velocity(b: BarrierFn, alpha: float, z, z_dot_d):
    """Minimally corrected velocity admissible for the nearest-obstacle constraint.

    Returns (z_dot_s, active). When the constraint is inactive the input
    passes through unchanged; otherwise the correction is the exact distance
    to the half-space boundary, applied along the barrier gradient, which is
    the closest feasible point to z_dot_d. The result also carries the
    barrier value and gradient it was computed from as ``.h`` and
    ``.grad_h``, so a caller needs no second barrier pass.
    """
    arrays = not isinstance(z, tuple)
    if arrays:
        z, z_dot_d = split(z), split(z_dot_d)
    h, n = b.value_and_gradient(z)
    corr = clamp0(-vsum([ni * vi for ni, vi in zip(n, z_dot_d)]) - alpha * h)
    z_dot_s = tuple([vi + corr * ni for vi, ni in zip(z_dot_d, n)])
    if arrays:
        return _Filtered(join(z_dot_s), join(corr > 0.0), join(h), join(n))
    return _Filtered(z_dot_s, corr > 0.0, h, n)


def tracking_control(k_d: float, z_dot, z_dot_s):
    """Velocity-error feedback: -k_d (z_dot - z_dot_s)."""
    arrays = not isinstance(z_dot, tuple)
    if arrays:
        z_dot, z_dot_s = split(z_dot), split(z_dot_s)
    u = tuple([-k_d * (vi - si) for vi, si in zip(z_dot, z_dot_s)])
    return join(u) if arrays else u


def assemble_closed_loop(pair, b: BarrierFn, gains: Gains, goal) -> ClosedLoopLaw:
    """Compose projection, reference, filter, and tracking into state feedback."""
    goal = np.asarray(goal, dtype=float)
    if goal.shape != (pair.n_reduced,):
        raise ConfigurationError(f"goal must have shape ({pair.n_reduced},)")
    goal_c = split(goal)
    k_p, k_d, alpha = float(gains.k_p), float(gains.k_d), float(gains.alpha)

    def evaluate(x):
        arrays = not isinstance(x, tuple)
        if arrays:
            x = split(x)
        z = pair.project_state(x)
        z_dot_d = desired_velocity(goal_c, k_p, z)
        filtered = safe_velocity(b, alpha, z, z_dot_d)
        z_dot_s, active = filtered
        u = tracking_control(k_d, pair.project_input(x), z_dot_s)
        out = (z_dot_d, z_dot_s, active, filtered.h, filtered.grad_h, u)
        return LawIntermediates(*(map(join, out) if arrays else out))

    return ClosedLoopLaw(goal=goal, gains=gains, barrier=b, evaluate=evaluate)


@dataclass(frozen=True)
class TrackingEnvelope:
    """Certified decay pair: ||e_dot(t)|| <= m_overshoot e^{-beta t} ||e_dot(0)||."""

    beta: float
    m_overshoot: float


def linear_tracking_constants(k_p: float, k_d: float, *, inflation: float = 1e-5) -> TrackingEnvelope:
    """Decay pair for the filter-inactive velocity-error response.

    With the filter inactive the loop is linear; starting at the goal with a
    pure velocity error e_dot(0), each axis responds as the scalar signal
    g(t) = [exp(B t)]_{22} e_dot(0) for B = [[-k_p, 1], [-k_p^2, k_p - k_d]].
    beta is the slowest decay rate among the modes that actually appear in g,
    and m_overshoot a numerically certified sup of |g(t)| e^{beta t}, inflated
    slightly so sampled rollouts sit inside the envelope. Raises
    NoCertificateError when the contributing modes do not all decay.
    """
    if not (np.isfinite(k_p) and np.isfinite(k_d)) or k_d <= 0 or k_p < 0:
        raise NoCertificateError(
            f"no decay certificate for gains k_p={k_p!r}, k_d={k_d!r}"
        )
    mat = np.array([[-k_p, 1.0], [-k_p * k_p, k_p - k_d]])
    lam1, lam2 = np.linalg.eigvals(mat)
    b22 = mat[1, 1]
    scale = max(1.0, abs(lam1), abs(lam2))

    if abs(lam1 - lam2) <= 1e-9 * scale:
        # repeated root: g(t) = (1 + (b22 - lam) t) e^{lam t}
        lam = float(np.real(lam1))
        if lam >= 0:
            raise NoCertificateError("closed-loop error response does not decay")
        beta = 0.995 * (-lam)
        eps = -lam - beta
        c = b22 - lam
        tgrid = np.linspace(0.0, 20.0 / eps, 200_001)
        phi = np.abs(1.0 + c * tgrid) * np.exp(-eps * tgrid)
        m = float(phi.max())
    else:
        c1 = (b22 - lam2) / (lam1 - lam2)
        c2 = (b22 - lam1) / (lam2 - lam1)
        modes = [(lam, c) for lam, c in ((lam1, c1), (lam2, c2)) if abs(c) > 1e-12 * scale]
        rates = [-float(np.real(lam)) for lam, _ in modes]
        if min(rates) <= 0:
            raise NoCertificateError("closed-loop error response does not decay")
        beta = min(rates)
        omega = max(abs(float(np.imag(lam))) for lam, _ in modes)
        span = 60.0 / beta
        if omega > 0:
            span = max(span, 8.0 * np.pi / omega)
        tgrid = np.linspace(0.0, span, 200_001)
        g = np.zeros_like(tgrid, dtype=complex)
        for lam, c in modes:
            g += c * np.exp(lam * tgrid)
        phi = np.abs(g) * np.exp(beta * tgrid)
        m = float(phi.max())
    m = max(m, 1.0) * (1.0 + inflation)
    return TrackingEnvelope(beta=float(beta), m_overshoot=float(m))
