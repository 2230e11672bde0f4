"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared host the same op can take twice as long for seconds or minutes
at a time, because other tenants load the same cores and caches. The
benchmark times this kernel between ops and reports op times scaled to the
kernel's nominal time: the time an op would have taken at the speed the
machine had when ``NOMINAL_S`` was measured.

The kernel re-implements, in plain numpy, the kind of work the workloads do:
a two-disk closed loop (planner, nearest-obstacle filter, tracking) stepped
by RK4 for one state and for a certify-sized batch, and a CSV formatting
pass. It must never import layersafe: a change to the program under test
must not change the yardstick it is measured with.
"""
from __future__ import annotations

import io
import time

import numpy as np

# kernel time on an unloaded 2-vCPU Intel Xeon (KVM), Python 3.11.7, numpy 2.4.6
NOMINAL_S = 0.035

_CENTERS = np.array([[-0.1, 0.3], [1.3, -0.3]])
_RADII = np.array([0.5, 0.5])
_GOAL = np.array([2.0, 0.0])
_ONE = np.array([[-1.2, 0.3, 0.5, 0.0]])
_BATCH = _ONE + np.linspace(0.0, 0.1, 1024)[:, None]


def _field(x):
    z, v = x[..., :2], x[..., 2:4]
    diff = z[..., None, :] - _CENTERS
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    idx = np.expand_dims(np.argmin(dist - _RADII, axis=-1), -1)
    h = np.take_along_axis(dist - _RADII, idx, axis=-1)[..., 0]
    n = (z - _CENTERS[idx[..., 0]]) / np.take_along_axis(dist, idx, axis=-1)
    z_dot_d = -1.8 * (z - _GOAL)
    corr = np.maximum(-np.sum(n * z_dot_d, axis=-1) - 0.5 * h, 0.0)
    u = -8.0 * (v - (z_dot_d + np.expand_dims(corr, -1) * n))
    return np.concatenate([v, u], axis=-1)


def _rollout(x, steps, dt=1e-3):
    rows = []
    for _ in range(steps):
        k1 = _field(x)
        k2 = _field(x + 0.5 * dt * k1)
        k3 = _field(x + 0.5 * dt * k2)
        k4 = _field(x + dt * k3)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rows.append(x[0])
    return np.array(rows)


def _kernel() -> int:
    rows = _rollout(_ONE, 40)
    _rollout(_BATCH, 15)
    buf = io.StringIO()
    np.savetxt(buf, np.tile(rows, (5, 1)), fmt="%.17g", delimiter=",")
    return len(buf.getvalue())


def seconds() -> float:
    """Wall time of one run of the kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
