"""Model pairs, a fixed-step RK4 integrator, the closed-loop rollout kernel, and trajectories.

A ModelPair couples a full-order vector field F(x, u) with a reduced-order
field f(z, v) through a state projection and an input projection, consistent
in the sense that d/dt project_state(x) = f(project_state(x), project_input(x))
along full-model solutions.

Rollouts are deterministic: fixed step, no adaptive logic, no threading, so a
repeated run reproduces every float bit for bit. One kernel steps every
closed-loop rollout. The law is state feedback, so it is evaluated once per
RK4 stage, wherever the stage state lands. Stage 1 sits at the sample state,
so its evaluation is also the recorded sample, and one extra evaluation
records the last sample: 4 n_steps + 1 law evaluations per rollout.
"""
from __future__ import annotations

import io
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from ._io import atomic_write_text
from ._vec import vnorm
from .errors import ConfigurationError, DivergenceError

@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 integration settings."""

    dt: float = 1e-3
    horizon: float = 10.0

    def __post_init__(self):
        if not self.dt > 0:
            raise ConfigurationError("dt must be positive")
        if self.horizon < self.dt:
            raise ConfigurationError("horizon must cover at least one step")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass(frozen=True)
class ModelPair:
    """A full-order model, a reduced-order model, and the projections linking them."""

    n_full: int
    n_reduced: int
    m_full: int
    fom_field: Callable
    rom_field: Callable
    project_state: Callable
    project_input: Callable


def double_integrator_pair(scenario=None) -> ModelPair:
    """Planar double integrator over a single-integrator reduced model.

    Full state x = (position, velocity) in R^4 with x_dot = (velocity, u);
    reduced state z = position with z_dot = v. The input projection reads the
    velocity, which is exactly the quantity the reduced model commands.
    """
    if scenario is not None:
        start = np.asarray(scenario.start, dtype=float)
        goal = np.asarray(scenario.goal, dtype=float)
        if start.shape != (2,) or goal.shape != (2,):
            raise ConfigurationError(
                "the double-integrator pair needs a planar scenario: start and goal in R^2"
            )

    def fom_field(x, u):
        x = np.asarray(x, dtype=float)
        x_dot = np.empty_like(x)
        x_dot[..., :2] = x[..., 2:4]
        x_dot[..., 2:] = u
        return x_dot

    def rom_field(z, v):
        return np.asarray(v, dtype=float)

    def project_state(x):
        return np.asarray(x, dtype=float)[..., :2]

    def project_input(x):
        return np.asarray(x, dtype=float)[..., 2:4]

    return ModelPair(
        n_full=4,
        n_reduced=2,
        m_full=2,
        fom_field=fom_field,
        rom_field=rom_field,
        project_state=project_state,
        project_input=project_input,
    )


@dataclass(frozen=True)
class _Samples:
    """The recorded fields of a rollout, declared once for Trajectory and BatchRollout.

    e is the integral of e_dot from zero (the tracked reference starts on the
    trajectory), so e = z - z_s holds by construction with z_s := z - e.
    v is the tracking certificate value and h_v the recurrent barrier value;
    h_v is NaN when no recurrent barrier was supplied to the integrator.
    Arrays are read-only after construction.
    """

    dt: float
    t: np.ndarray
    x: np.ndarray
    z: np.ndarray
    z_dot: np.ndarray
    z_s_dot: np.ndarray
    e: np.ndarray
    e_dot: np.ndarray
    u: np.ndarray
    h: np.ndarray
    grad_h: np.ndarray
    v: np.ndarray
    h_v: np.ndarray

    def __post_init__(self):
        for name in _FIELDS:
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr.flags.writeable = False


# every recorded per-sample field, in declaration order, which is also the
# CSV column order
_FIELDS = tuple(f.name for f in fields(_Samples) if f.name != "dt")

_CSV_RENAMES = {"z_dot": "zdot", "z_s_dot": "zsdot", "e_dot": "edot", "v": "V", "h_v": "hV"}
# CSV column stem of each written field; grad_h is not written
_CSV_STEMS = {name: _CSV_RENAMES.get(name, name) for name in _FIELDS if name != "grad_h"}


@dataclass(frozen=True)
class Trajectory(_Samples):
    """A uniformly sampled rollout with derived safety fields per sample, shape (T, ...)."""

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    def min_h(self) -> float:
        return float(np.min(self.h))

    def csv_header(self) -> str:
        names = []
        for name, stem in _CSV_STEMS.items():
            arr = getattr(self, name)
            if arr.ndim == 1:
                names.append(stem)
            else:
                names += [f"{stem}{i}" for i in range(1, arr.shape[1] + 1)]
        return ",".join(names)

    def to_csv(self, path, preamble=()) -> None:
        """Write the flat sample table at full round-trip precision, atomically.

        ``preamble`` lines are emitted as leading '#' comments so an artifact
        can carry its own provenance.
        """
        data = np.hstack([getattr(self, name).reshape(self.n_samples, -1) for name in _CSV_STEMS])
        # np.savetxt leaves its writer, which holds buf, in a reference cycle
        # that lives until the cyclic collector runs; closing buf frees the
        # text now, so repeated writes do not pile up dead copies
        with io.StringIO() as buf:
            for line in preamble:
                buf.write(f"# {line}\n")
            buf.write(self.csv_header() + "\n")
            np.savetxt(buf, data, fmt="%.17g", delimiter=",")
            text = buf.getvalue()
        atomic_write_text(path, text)


@dataclass(frozen=True)
class BatchRollout(_Samples):
    """Column-stacked rollouts from several initial states, one time grid.

    t is (T,); the other arrays are shaped (T, K, d) with K the number of
    runs, and scalar fields are (T, K). trajectory(k) materializes run k as a
    standalone Trajectory.
    """

    @property
    def n_runs(self) -> int:
        return self.x.shape[1]

    def trajectory(self, k: int) -> Trajectory:
        runs = {
            name: np.ascontiguousarray(getattr(self, name)[:, k]) for name in _FIELDS if name != "t"
        }
        return Trajectory(dt=self.dt, t=self.t, **runs)


def rk4_step(f, t, x, dt):
    """One classical Runge-Kutta step of x_dot = f(t, x)."""
    k1 = f(t, x)
    k2 = f(t + 0.5 * dt, x + (0.5 * dt) * k1)
    k3 = f(t + 0.5 * dt, x + (0.5 * dt) * k2)
    k4 = f(t + dt, x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _rollout(pair: ModelPair, law, x0s, dt: float, n_steps: int, d_sig, rcbf):
    """The closed-loop stepping kernel: yield every field but e at each sample.

    Rows of x0s roll out independently. Each RK4 stage evaluates the law
    once; the stage-1 evaluation at the sample state is the one yielded, and
    one extra evaluation covers the last sample. ``d_sig(t)``, unless None,
    is added to the law's input at every stage time. With ``rcbf`` None, v is
    ||e_dot|| and h_V is NaN; otherwise h_V is built from the stage's barrier
    value. Non-finite states propagate: run under np.errstate and check x.
    """
    ts = np.arange(n_steps + 1) * dt
    stages = []

    def f_cl(t, x):
        inter = law.evaluate(x)
        u = inter.u if d_sig is None else inter.u + d_sig(t)
        stages.append((inter, u))
        return pair.fom_field(x, u)

    x = x0s.copy()
    for k in range(n_steps + 1):
        t = float(ts[k])
        if k < n_steps:
            x_next = rk4_step(f_cl, t, x, dt)
        else:
            f_cl(t, x)
        inter, u = stages[0]
        stages.clear()
        z = pair.project_state(x)
        z_dot = pair.rom_field(z, pair.project_input(x))
        z_s_dot = np.broadcast_to(np.asarray(inter.z_dot_s, dtype=float), z.shape)
        e_dot = z_dot - z_s_dot
        if rcbf is not None:
            v = rcbf.rtf.value(z, e_dot)
            h_v = rcbf.combine(v, inter.h)
        else:
            v = vnorm(e_dot)
            h_v = np.full(x.shape[0], np.nan)
        yield {
            "t": t, "x": x, "z": z, "z_dot": z_dot, "z_s_dot": z_s_dot, "e_dot": e_dot,
            "u": u, "h": inter.h, "grad_h": inter.grad_h, "v": v, "h_v": h_v,
        }
        if k < n_steps:
            x = x_next


def integrate_batch(
    pair: ModelPair,
    law,
    x0s,
    cfg: IntegratorConfig,
    rcbf=None,
    disturbance=None,
) -> BatchRollout:
    """Roll the closed loop from each row of x0s and record every derived field.

    The disturbance, when given, enters additively on the full-model input
    channel: x_dot = F(x, u(x) + d(t)), with d evaluated at each substage time.
    ``disturbance.signal(t)`` returns one input (m,) shared by every run, or
    one row per run, shape (K, m).
    h_V reuses the law's barrier passes, so ``rcbf`` must be built on the
    law's barrier. Raises DivergenceError at the first non-finite sample.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != pair.n_full:
        raise ConfigurationError(f"initial states must have shape (K, {pair.n_full})")
    if rcbf is not None and rcbf.barrier is not law.barrier:
        raise ConfigurationError("the recurrent barrier must be built on the law's barrier")
    n_steps = cfg.n_steps
    dt = cfg.dt
    d_sig = disturbance.signal if disturbance is not None else None

    rec = {}
    with np.errstate(all="ignore"):
        for k, sample in enumerate(_rollout(pair, law, x0s, dt, n_steps, d_sig, rcbf)):
            x = sample["x"]
            if not np.all(np.isfinite(x)):
                bad = int(np.flatnonzero(~np.isfinite(x).all(axis=-1))[0])
                raise DivergenceError(
                    f"non-finite state at step {k} (t={sample['t']:.6g}), run {bad}"
                )
            for name, val in sample.items():
                if k == 0:
                    rec[name] = np.empty((n_steps + 1,) + np.shape(val))
                rec[name][k] = val

    # e(t) = integral of e_dot, trapezoid rule; the reference starts on the run
    edots = rec["e_dot"]
    es = np.empty_like(edots)
    es[0] = 0.0
    np.cumsum((edots[:-1] + edots[1:]) * (dt / 2.0), axis=0, out=es[1:])
    return BatchRollout(dt=dt, e=es, **rec)


def integrate(
    pair: ModelPair,
    law,
    x0,
    cfg: IntegratorConfig,
    rcbf=None,
    disturbance=None,
) -> Trajectory:
    """Roll the closed loop from one initial state; see integrate_batch."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (pair.n_full,):
        raise ConfigurationError(f"initial state must have shape ({pair.n_full},)")
    batch = integrate_batch(pair, law, x0[None, :], cfg, rcbf=rcbf, disturbance=disturbance)
    return batch.trajectory(0)
