"""Grid certification of initial sets and the fine-step containment oracle.

certify_initial_set classifies every point of a planar lattice of start
positions by rolling out the closed loop through the shared rollout kernel and
folding blocks of its samples with recurrence.scan, without materializing
whole trajectories: each point reports what a run command reports from the
same start. Verdicts:

  certified_safe   started inside the certified region, and no violation (a
                   sample with h below scan's tolerance) was observed
  unsafe_witness   a violation was observed (before any blowup)
  outside_S_V      started outside the certified region (or inside an
                   obstacle) and no violation was observed
  indeterminate    the rollout's state or h lost finiteness before any
                   violation

Rolled points go through the kernel in chunks of _CHUNK starts, a module
constant. Points are elementwise-independent throughout (states never mix
across grid rows), so verdicts do not depend on the chunk size or on which
other points share the grid. Each point's record is a PointRecord tuple,
and the report and point cloud writers format their point tables with one
'%' over every row's fields. The module also houses the fine-step
containment oracle used to validate coarse containment times.
"""
from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isnan
from typing import NamedTuple

import numpy as np

from ._io import atomic_write_text
from ._vec import finite, split
from .dynamics import IntegratorConfig, _rollout, _tracking_error, integrate
from .errors import ConfigurationError
from .recurrence import containment_times, scan
from .scenario import Scenario, build_loop, initial_states

# samples folded at once: each buffered sample holds its h, V, h_V and
# finiteness columns, so the buffers grow with the block at large K
_BLOCK = 16
# grid points rolled out together; a chunk of 1 rolls each start on Python floats
_CHUNK = 2048

VERDICTS = ("certified_safe", "unsafe_witness", "outside_S_V", "indeterminate")


@dataclass(frozen=True)
class Grid:
    """A planar lattice of start positions: bounds (2,) and two integer sample
    counts, each at least 2; a bool, float or string count is refused."""

    lower: np.ndarray
    upper: np.ndarray
    counts: tuple

    def __post_init__(self):
        lower = np.array(self.lower, dtype=float)
        upper = np.array(self.upper, dtype=float)
        counts = tuple(np.atleast_1d(np.asarray(self.counts, dtype=object)).tolist())
        if lower.shape != (2,) or upper.shape != (2,) or len(counts) != 2:
            raise ConfigurationError("a grid takes bounds of shape (2,) and two counts")
        if any(isinstance(c, bool) or not isinstance(c, (int, np.integer)) for c in counts):
            raise ConfigurationError(f"grid counts must be integers, got {self.counts!r}")
        counts = tuple(int(c) for c in counts)  # held as plain integers
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ConfigurationError("grid bounds must be finite")
        if not np.all(lower < upper):
            raise ConfigurationError("grid needs lower < upper on every axis")
        if any(c < 2 for c in counts):
            raise ConfigurationError("grid needs at least 2 samples per axis")
        lower.flags.writeable = False
        upper.flags.writeable = False
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "counts", counts)

    @property
    def points(self) -> np.ndarray:
        """The full lattice, shape (nx * ny, 2), the second axis varying fastest."""
        axes = [np.linspace(self.lower[i], self.upper[i], self.counts[i]) for i in range(2)]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)

    def describe(self) -> str:
        lo = ", ".join(repr(float(v)) for v in self.lower)
        hi = ", ".join(repr(float(v)) for v in self.upper)
        ct = "x".join(str(c) for c in self.counts)
        return f"[{lo}] .. [{hi}] @ {ct}"


class PointRecord(NamedTuple):
    """Classification of one lattice point, as a NamedTuple in field order.

    point is a read-only view of the point's row of the lattice. in_s_v
    records initial membership in the certified region (h_V(0) >= 0)
    regardless of the verdict; rtf_margin is the observed one-shot recurrence
    margin over the window (0, tau] to half a step, clipped to the horizon,
    recorded and never used to classify.
    """

    point: np.ndarray
    verdict: str
    min_h: float
    min_h_v: float
    first_violation_t: float | None
    rtf_margin: float
    in_s_v: bool
    note: str = ""


@dataclass(frozen=True)
class CertificateReport:
    """Per-point verdicts over a grid plus the configuration that produced them."""

    scenario_hash: str
    alpha: float
    velocity_mode: str
    horizon: float
    grid: Grid
    per_point: tuple
    summary: dict
    config_lines: tuple

    def records(self, verdict: str | None = None) -> list:
        if verdict is None:
            return list(self.per_point)
        if verdict not in VERDICTS:
            raise ConfigurationError(f"unknown verdict {verdict!r}")
        return [r for r in self.per_point if r.verdict == verdict]

    def to_text(self) -> str:
        head = [
            "initial-set certification report",
            f"scenario digest: {self.scenario_hash}",
            f"alpha = {self.alpha!r}",
            f"velocity mode = {self.velocity_mode}",
            f"horizon = {self.horizon!r}",
            f"grid = {self.grid.describe()}",
            "",
            "configuration:",
            *(f"  {ln}" for ln in self.config_lines),
            "",
            "points:",
            "",
        ]
        # the point table: one row format, one '%' over every row's fields
        row = (
            "  (%.10g, %.10g)  %s  min_h=%.10g"
            "  min_h_v=%.10g  first_violation_t=%s  rtf_margin=%.10g  in_s_v=%d%s\n"
        )
        fields = []
        for point, verdict, min_h, min_h_v, viol, margin, in_s_v, note in self.per_point:
            fields += point.tolist()
            fields += (
                verdict, min_h, min_h_v, "none" if viol is None else "%.10g" % viol, margin,
                in_s_v, "  # " + note if note else "",
            )
        counts = [self.summary.get(v, 0) for v in VERDICTS]
        tail = [
            "",
            "summary:",
            *(f"  {v}: {n}" for v, n in zip(VERDICTS, counts)),
            f"  total: {sum(counts)}",
            "",
        ]
        table = (row * len(self.per_point)) % tuple(fields)
        return "\n".join(head) + table + "\n".join(tail)

    def write(self, path) -> None:
        atomic_write_text(path, self.to_text())

    def point_cloud_csv(self, path, verdict: str | None = None) -> None:
        """Flat CSV of point coordinates and verdicts, for external plotting."""
        rows = self.records(verdict)
        header = "x1,x2,verdict,min_h,min_h_v,first_violation_t,in_s_v"
        # one row format, one '%' over every row's fields
        row = "%.17g,%.17g,%s,%.17g,%.17g,%s,%d\n"
        fields = []
        for point, verdict, min_h, min_h_v, viol, _margin, in_s_v, _note in rows:
            fields += point.tolist()
            fields += (verdict, min_h, min_h_v, "" if viol is None else "%.17g" % viol, in_s_v)
        table = (row * len(rows)) % tuple(fields)
        atomic_write_text(path, f"# scenario digest: {self.scenario_hash}\n{header}\n{table}")


def _scan_chunk(plant, law, rcbf, x0s, dt, n_steps, d_sig):
    """The recurrence Scan of the rollout from each row of x0s, one scan per
    block of samples, under the caller's np.errstate. Each sample's t, h, V,
    h_V and finiteness go into rows of buffers allocated once per chunk,
    (_BLOCK,) and (_BLOCK, K), and each scan reads views of the filled rows;
    one run's floats (K = 1) fill rows of one column."""
    rows = (_BLOCK, x0s.shape[0])
    t, (h, v, h_v), ok = np.empty(_BLOCK), (np.empty(rows) for _ in range(3)), np.empty(rows, bool)
    rec = None
    for i, (t_i, x, _u, inter) in enumerate(_rollout(plant, law, x0s, dt, n_steps, d_sig)):
        j = i % _BLOCK
        v_j = _tracking_error(x[2:], inter.z_dot_s)[1]
        t[j], h[j], v[j], h_v[j], ok[j] = t_i, inter.h, v_j, rcbf.combine(v_j, inter.h), finite(x)
        if j == _BLOCK - 1 or i == n_steps:  # a full block, or the last sample
            b = slice(j + 1)
            rec = scan(t[b], h[b], v[b], h_v[b], ok[b], rcbf.rtf, dt, rec)
    return rec


def certify_initial_set(
    scn: Scenario,
    grid: Grid,
    horizon: float | None = None,
    velocity_mode: str = "desired",
) -> CertificateReport:
    """Classify every grid point per the module verdicts.

    The grid samples initial positions, with the initial velocity fixed by
    ``velocity_mode`` ("desired" reproduces the unfiltered goal pull; "safe"
    zeroes the initial tracking error; "zero" starts at rest). Points
    starting inside an obstacle (h < 0) are recorded as outside_S_V without
    a rollout. The others are rolled out _CHUNK at a time; verdicts and
    every record are the same for any chunk size. A scenario with no
    certified region, or a horizon that is not a whole number of steps, is
    refused before any rollout.
    """
    plant, law, rcbf, dist = build_loop(scn, needs_region="certify")
    d_sig = dist.signal if dist.kind != "none" else None

    pts = grid.points
    try:
        x0s = initial_states(scn, law, pts, mode=velocity_mode)
    except ConfigurationError as exc:  # the scenario key's refusal: name the caller's
        msg = str(exc).replace("sim.initial_velocity", "velocity_mode", 1)
        raise ConfigurationError(msg) from None
    n_pts = x0s.shape[0]

    dt = scn.integrator.dt
    horizon = scn.integrator.horizon if horizon is None else float(horizon)
    try:
        n_steps = IntegratorConfig(dt=dt, horizon=horizon).n_steps
    except ConfigurationError as exc:  # the scenario's horizon passed: name the caller's
        raise ConfigurationError(str(exc).replace("sim.horizon", "horizon", 1)) from None

    with np.errstate(all="ignore"):
        # initial diagnostics for every point, including the skipped ones
        x0 = split(x0s)
        inter0 = law.evaluate(x0)
        h0, v0 = inter0.h, _tracking_error(x0[2:], inter0.z_dot_s)[1]
        h_v0 = rcbf.combine(v0, h0)
        in_s_v, rolled = h_v0 >= 0.0, h0 >= 0.0
        roll_idx = np.flatnonzero(rolled)
        # the t = 0 sample stands for the points that are not rolled, whose
        # recurrence margin and finiteness time stay NaN
        rec = scan(np.zeros(1), h0[None], v0[None], h_v0[None], True, rcbf.rtf, dt)
        rec = rec._replace(window=np.full(n_pts, np.nan), diverged_t=np.full(n_pts, np.nan))
        for i in range(0, roll_idx.size, _CHUNK):
            idx = roll_idx[i : i + _CHUNK]
            for field, part in zip(rec, _scan_chunk(plant, law, rcbf, x0s[idx], dt, n_steps, d_sig)):
                field[idx] = part

    pts.flags.writeable = False  # each record's point is a view of its row
    summary = dict.fromkeys(VERDICTS, 0)
    records = []
    for point, is_rolled, viol_t, div_t, in_set, mh, mhv, margin in zip(
        pts, rolled.tolist(), rec.first_violation_t.tolist(), rec.diverged_t.tolist(),
        in_s_v.tolist(), rec.min_h.tolist(), rec.min_h_v.tolist(), rec.rtf_margin.tolist(),
    ):
        note = ""
        if isnan(viol_t):  # no violation observed
            viol_t = None
        if not is_rolled:
            verdict = "outside_S_V"
            note = "initial position violates h >= 0; not rolled out"
        elif viol_t is not None and not viol_t > div_t:  # NaN: finiteness never lost
            verdict = "unsafe_witness"
        elif not isnan(div_t):
            verdict = "indeterminate"
            note = f"rollout lost finiteness at t={div_t:.6g}"
        elif in_set:
            verdict = "certified_safe"
        else:
            verdict = "outside_S_V"
        summary[verdict] += 1
        records.append(PointRecord(point, verdict, mh, mhv, viol_t, margin, in_set, note))

    return CertificateReport(
        scenario_hash=scn.digest(),
        alpha=scn.gains.alpha,
        velocity_mode=velocity_mode,
        horizon=horizon,
        grid=grid,
        per_point=tuple(records),
        summary=summary,
        config_lines=tuple(scn.resolved_lines()),
    )


def brute_force_containment_oracle(
    scn: Scenario,
    x0,
    predicate,
    tau: float,
    dt_fine: float,
) -> np.ndarray:
    """Containment times recomputed at a fine step, scanning every fine sample.

    Independent reference for coarse containment_times results: re-integrates
    the same closed loop at dt_fine (at most a tenth of the scenario step),
    for the least whole number of fine steps that reaches tau (to 1e-9
    relative; at least one), and applies the predicate on the dense grid
    over (0, tau].
    """
    dt = scn.integrator.dt
    if not dt_fine > 0:
        raise ConfigurationError("dt_fine must be positive")
    if dt_fine > dt / 10 * (1 + 1e-12):
        raise ConfigurationError(
            f"dt_fine must be at most a tenth of the scenario step ({dt / 10:g}), got {dt_fine:g}"
        )
    plant, law, rcbf, dist = build_loop(scn)
    n_fine = max(1, ceil(float(tau) / dt_fine * (1 - 1e-9)))
    cfg = IntegratorConfig(dt=dt_fine, horizon=n_fine * dt_fine)
    traj = integrate(plant, law, x0, cfg, rcbf=rcbf, disturbance=dist)
    return containment_times(traj, predicate, (0.0, float(tau)))


def containment_gap(coarse_times, fine_times) -> float:
    """Largest distance from a coarse containment time to the nearest fine one.

    0 when there are no coarse times; +inf when coarse times exist but fine
    ones do not. Agreement means the gap is at most one coarse step.
    """
    coarse = np.atleast_1d(np.asarray(coarse_times, dtype=float))
    fine = np.atleast_1d(np.asarray(fine_times, dtype=float))
    if coarse.size == 0:
        return 0.0
    if fine.size == 0:
        return float("inf")
    fine = np.sort(fine)
    idx = np.searchsorted(fine, coarse)
    left = fine[np.clip(idx - 1, 0, fine.size - 1)]
    right = fine[np.clip(idx, 0, fine.size - 1)]
    return float(np.max(np.minimum(np.abs(coarse - left), np.abs(coarse - right))))

