"""Obstacle worlds and the min-distance barrier.

The built-in barrier is h(z) = min_i(||z - o_i|| - r_i) over circular
obstacles. Away from obstacle centers and equidistance loci its gradient is
the unit vector pointing from the nearest center to z, so the gradient bound
is exactly 1. One kernel serves a single state and a batch alike: it walks
the obstacles in order, elementwise over all states, and takes an obstacle
only when its margin is strictly smaller, so ties between equally near
obstacles resolve to the lowest obstacle index.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._vec import vnorm
from .errors import ConfigurationError, SingularGradientError


@dataclass(frozen=True)
class ObstacleField:
    """Circular obstacles in the plane: centers (P, 2) and radii (P,)."""

    centers: np.ndarray
    radii: np.ndarray

    def __post_init__(self):
        centers = np.atleast_2d(np.array(self.centers, dtype=float))
        radii = np.atleast_1d(np.array(self.radii, dtype=float))
        if centers.ndim != 2 or centers.shape[1] != 2:
            raise ConfigurationError("obstacle centers must have shape (P, 2)")
        if centers.shape[0] < 1:
            raise ConfigurationError("at least one obstacle is required")
        if radii.shape != (centers.shape[0],):
            raise ConfigurationError("radii must match the number of obstacle centers")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(radii))):
            raise ConfigurationError("obstacle geometry must be finite")
        if not np.all(radii > 0):
            raise ConfigurationError("all obstacle radii must be positive")
        centers.flags.writeable = False
        radii.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "radii", radii)

    @property
    def count(self) -> int:
        return self.centers.shape[0]

    def center_distances(self, z) -> np.ndarray:
        """Distances from z (..., 2) to every center, shape (..., P)."""
        z = np.asarray(z, dtype=float)
        return vnorm(z[..., None, :] - self.centers)

    def signed_margins(self, z) -> np.ndarray:
        """Distance-to-center minus radius per obstacle, shape (..., P)."""
        return self.center_distances(z) - self.radii

    def nearest(self, z) -> np.ndarray:
        """Index of the nearest obstacle by signed margin; ties take the lowest index."""
        return np.asarray(np.argmin(self.signed_margins(z), axis=-1))


@dataclass(frozen=True)
class BarrierFn:
    """A scalar safety function with its gradient map and gradient bound.

    ``value`` and ``gradient`` accept a single state (2,) or a batch (..., 2).
    ``grad_bound`` is the constant that turns tracking-error size into a bound
    on the barrier's rate of change.
    """

    value_fn: Callable
    gradient_fn: Callable
    grad_bound: float
    field: ObstacleField | None = None
    vg_fn: Callable | None = None

    def value(self, z):
        return self.value_fn(z)

    def gradient(self, z):
        return self.gradient_fn(z)

    def value_and_gradient(self, z):
        """Single-pass (value, gradient); falls back to the two separate maps."""
        if self.vg_fn is not None:
            return self.vg_fn(z)
        return self.value_fn(z), self.gradient_fn(z)


def min_distance_barrier(field: ObstacleField) -> BarrierFn:
    """Barrier h(z) = min over obstacles of (||z - center|| - radius).

    The gradient is the unit vector from the nearest center toward z, hence
    grad_bound = 1 exactly. In batch mode a state exactly at a center yields
    non-finite gradient entries for that row; the scalar path raises
    SingularGradientError instead.
    """
    obstacles = [
        (float(cx), float(cy), float(r)) for (cx, cy), r in zip(field.centers, field.radii)
    ]

    def nearest(z):
        # margin, center distance and offset z - center of the nearest
        # obstacle, elementwise over all states with Python-float geometry, so
        # no operand broadcasts along the short trailing axis; strict < keeps
        # the lowest index on ties, as argmin does
        if z.shape[-1:] != (2,):
            raise ConfigurationError(f"states must have shape (..., 2), got {z.shape}")
        zx, zy = z[..., 0], z[..., 1]
        for i, (cx, cy, r) in enumerate(obstacles):
            dx_i = zx - cx
            dy_i = zy - cy
            # vnorm's sum of squares, 0.0 + dx^2 + dy^2, term by term
            dist_i = np.sqrt(dx_i * dx_i + dy_i * dy_i)
            h_i = dist_i - r
            if i == 0:
                h, dist, dx, dy = h_i, dist_i, dx_i, dy_i
            else:
                nearer = h_i < h
                h = np.where(nearer, h_i, h)
                dist = np.where(nearer, dist_i, dist)
                dx = np.where(nearer, dx_i, dx)
                dy = np.where(nearer, dy_i, dy)
        return h, dist, dx, dy

    def unit_offset(dist, dx, dy):
        # offset / distance; non-finite where the distance is 0 or non-finite
        grad = np.empty(np.shape(dist) + (2,))
        with np.errstate(divide="ignore", invalid="ignore"):
            np.divide(dx, dist, out=grad[..., 0])
            np.divide(dy, dist, out=grad[..., 1])
        return grad

    def value(z):
        return nearest(np.asarray(z, dtype=float))[0]

    def value_and_gradient(z):
        h, dist, dx, dy = nearest(np.asarray(z, dtype=float))
        return h, unit_offset(dist, dx, dy)

    def gradient(z):
        z = np.asarray(z, dtype=float)
        _h, dist, dx, dy = nearest(z)
        if z.ndim == 1 and dist == 0.0:
            center = field.centers[int(field.nearest(z))]
            raise SingularGradientError(f"gradient undefined at obstacle center {center}")
        return unit_offset(dist, dx, dy)

    return BarrierFn(
        value_fn=value,
        gradient_fn=gradient,
        grad_bound=1.0,
        field=field,
        vg_fn=value_and_gradient,
    )

