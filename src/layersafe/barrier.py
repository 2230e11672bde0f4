"""Obstacle worlds and the min-distance barrier.

The built-in barrier is h(z) = min_i(||z - o_i|| - r_i) over circular
obstacles. Away from obstacle centers and equidistance loci its gradient is
the unit vector pointing from the nearest center to z, so the gradient bound
is exactly 1. One kernel serves a single state and a batch alike: it walks
the obstacles in order, elementwise over all states, and takes an obstacle
only when its margin is strictly smaller, so ties between equally near
obstacles resolve to the lowest obstacle index. It runs on the state's
components (see _vec): Python floats for one state, ndarray columns for a
batch, and it checks which once per pass. Floats take straight-line float
code; columns take numpy calls that write into the pass's own columns
(np.sqrt, np.minimum, np.copyto and np.divide with out= or where=), never
into the caller's, with the same bits either way. The column branch reads
each center and radius as a 0-d array made when the barrier is built, never
a Python float (see _vec), and keeps the float code's operand order. Array
callers go through BarrierFn, which splits a state array into components,
holds np.errstate around the pass and joins the results.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._vec import const, join, split, vnorm
from .errors import ConfigurationError

_NDARRAY = np.ndarray  # bound once: a pass reads no attribute of np for its form test


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
        return vnorm(split(z[..., None, :] - self.centers))

    def nearest(self, z) -> np.ndarray:
        """Index of the nearest obstacle by signed margin; ties take the lowest index."""
        return np.asarray(np.argmin(self.center_distances(z) - self.radii, axis=-1))


@dataclass(frozen=True)
class BarrierFn:
    """A scalar safety function with its gradient bound: one of the two places
    where arrays enter the control stack (the other is ClosedLoopLaw.evaluate).

    ``vg_fn`` maps a state's components (zx, zy) to (h, (gx, gy)), on floats
    or on columns (see _vec). ``value`` and ``value_and_gradient`` pass
    components straight to it, and also accept a single state (2,) or a batch
    (..., 2), which they split and whose results they join into arrays.
    An array's pass runs under np.errstate(all="ignore"). A caller that passes
    columns as components holds its own, as integrate_batch and certify do,
    or the kernel's column arithmetic warns at a center and on overflow.
    ``grad_bound`` is the constant that turns tracking-error size into a bound
    on the barrier's rate of change.
    """

    vg_fn: Callable
    grad_bound: float
    field: ObstacleField | None = None

    def _vg(self, z):
        if isinstance(z, tuple):
            return self.vg_fn(z)
        z = np.asarray(z, dtype=float)
        if z.shape[-1:] != (2,):
            raise ConfigurationError(f"states must have shape (..., 2), got {z.shape}")
        with np.errstate(all="ignore"):
            h, grad = self.vg_fn(split(z))
        return join(h), join(grad)

    def value(self, z):
        return self._vg(z)[0]

    def value_and_gradient(self, z):
        if isinstance(z, tuple):  # components, as the law passes them
            return self.vg_fn(z)
        return self._vg(z)


def min_distance_barrier(field: ObstacleField) -> BarrierFn:
    """Barrier h(z) = min over obstacles of (||z - center|| - radius).

    The gradient is the unit vector from the nearest center toward z, hence
    grad_bound = 1 exactly. At a center the gradient is 0/0, non-finite.
    Components are Python floats (one run) or ndarray columns (a batch).
    Floats are scanned in plain float arithmetic: a K = 1 rollout makes
    four passes per step, and a numpy call per operation would cost more
    than the arithmetic. They divide directly where the distance is finite
    and nonzero, else with np.divide, for numpy's inf and NaN. Columns reuse
    the pass's own temporaries: each sum of squares is built and rooted in
    place, the running margin is kept with np.minimum(m, h, out=h), the
    nearest obstacle's distance and offset are taken with
    np.copyto(..., where=m < h), and the offset columns are divided in
    place, under the caller's np.errstate. np.minimum gives the strict-<
    select's bits: the centers are finite, so a row's margins are either
    all NaN (a NaN component) or none is.
    """
    (cx0, cy0, r0), *rest = [
        (float(cx), float(cy), float(r)) for (cx, cy), r in zip(field.centers, field.radii)
    ]
    # the same constants as 0-d arrays, for the column branch
    (cx0_c, cy0_c, r0_c), *rest_c = [
        tuple(map(const, obstacle)) for obstacle in [(cx0, cy0, r0), *rest]
    ]

    def value_and_gradient(z):
        # the nearest obstacle's margin and unit offset, on the components
        # (zx, zy); strict < keeps the lowest index on ties, as argmin does
        zx, zy = z
        if type(zx) is float and type(zy) is float:
            # one state: a sum of squares is never negative, so math.sqrt
            # gives np.sqrt's bits
            dx = zx - cx0
            dy = zy - cy0
            dist = math.sqrt(dx * dx + dy * dy)
            h = dist - r0
            for cx, cy, r in rest:
                ex = zx - cx
                ey = zy - cy
                d = math.sqrt(ex * ex + ey * ey)
                m = d - r
                if m < h:
                    h, dist, dx, dy = m, d, ex, ey
            if 0.0 < dist < math.inf:
                return h, (dx / dist, dy / dist)
            with np.errstate(divide="ignore", invalid="ignore"):  # numpy's inf and NaN signs
                return h, (float(np.divide(dx, dist)), float(np.divide(dy, dist)))
        dx = zx - cx0_c
        dy = zy - cy0_c
        if not (isinstance(dx, _NDARRAY) and isinstance(dy, _NDARRAY)):  # 0-d arrays give scalars
            raise ConfigurationError(
                "barrier components must be two Python floats or two ndarray columns, "
                f"got {type(zx).__name__} and {type(zy).__name__}"
            )
        # vnorm's sum of squares, built and rooted in the pass's own columns
        dist = dx * dx
        dist += dy * dy
        h = np.subtract(np.sqrt(dist, out=dist), r0_c)
        for cx, cy, r in rest_c:
            ex = zx - cx
            ey = zy - cy
            d = ex * ex
            d += ey * ey
            m = np.subtract(np.sqrt(d, out=d), r)
            near = m < h
            np.minimum(m, h, out=h)  # the strict-< select's bits (see the docstring)
            np.copyto(dist, d, where=near)
            np.copyto(dx, ex, where=near)
            np.copyto(dy, ey, where=near)
        # offset / distance in place; non-finite where the distance is 0 or non-finite
        return h, (np.divide(dx, dist, out=dx), np.divide(dy, dist, out=dy))

    return BarrierFn(vg_fn=value_and_gradient, grad_bound=1.0, field=field)
