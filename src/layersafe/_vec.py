"""Small shared vector helpers, broadcast friendly over the trailing axis.

Every module routes Euclidean norms and inner products through these so the
scalar and batched code paths perform bit-identical arithmetic. The trailing
axis is summed by elementwise adds, one per component, rather than by a
reduction call: over a length-2 axis a reduction costs several times the
adds themselves.
"""
from __future__ import annotations

import numpy as np


def _sum_last(p) -> np.ndarray:
    """Sum over the trailing axis: 0.0 + p0 + p1 + ..., left to right.

    That is the order np.sum(p, axis=-1) uses for a trailing axis shorter
    than 8, so the two agree bit for bit there, signed zeros included (the
    0.0 start turns an all -0.0 sum into +0.0). Longer axes keep the same
    left-to-right order for a single vector and for every row of a batch.
    """
    out = p[..., 0] + 0.0
    for i in range(1, p.shape[-1]):
        out = out + p[..., i]
    return out


def vnorm(v) -> np.ndarray:
    """Euclidean norm over the trailing axis."""
    v = np.asarray(v, dtype=float)
    return np.sqrt(_sum_last(v * v))


def vdot(a, b) -> np.ndarray:
    """Inner product over the trailing axis."""
    return _sum_last(np.asarray(a, dtype=float) * np.asarray(b, dtype=float))
