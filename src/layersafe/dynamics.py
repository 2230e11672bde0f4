"""The plant's vector field, a fixed-step RK4 integrator, the closed-loop rollout kernel, and trajectories.

The plant is the planar double integrator: x = (position, velocity) in R^4
with x_dot = (velocity, u). The control layers plan on its position
z = x[:2], whose velocity z_dot = x[2:4] is read from the state.

Rollouts are deterministic: fixed step, no adaptive logic, no threading, so a
repeated run reproduces every float bit for bit. One kernel steps every
closed-loop rollout. The law is state feedback, so it is evaluated once per
RK4 stage, wherever the stage state lands. Stage 1 sits at the sample state,
so its evaluation is also the recorded sample (h, z_dot_s and the filter's
active flag), and one extra evaluation records the last sample:
4 n_steps + 1 law evaluations per rollout, and none after it.
A disturbance depends on time only, so it is evaluated once per rollout,
on three stage-time grids (t, t + dt/2 and t + dt over every step), each
entry the same float rk4_step forms as that stage's time. Its one shape is
(T, 2): a planar input per time, shared by every run.
The kernel's state is a tuple of four components, position then velocity
(zx, zy, vx, vy; see _vec): floats for one run, contiguous columns for
several. The plant, double_integrator, is one function on tuples of
components, and rk4_step unpacks the four components of the state and of
each stage slope. rk4_step checks the form once per step: floats take plain
float code, columns the same expressions with dt/2, dt, dt/6 and 2.0 as 0-d
arrays made once per step size (a Python float operand costs numpy a
conversion on every call; see _vec), each stage state and the update built
in place in a temporary of the step, every ufunc with the float code's
operand order, so both give the same bits. The kernel splits the initial states. integrate_batch
records the samples into batch arrays one row block (_ROW_BLOCK samples)
at a time, so it holds the Python objects of at most one block at once,
and returns one Trajectory per start, the one rollout record, whose fields
are read-only views of that run's column; z and z_dot are views of its x,
so the record holds one copy of each. V = ||e_dot|| and the divergence
message each have one builder, _tracking_error and _divergence, which
certify and the gain calibration call too. Trajectory.to_csv writes its
table as '%.17g' of every field, byte for byte, each formatting chunk of
rows (about 2560 values) written as soon as it is formatted (see
_io.format_chunks).
"""
from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from itertools import chain

import numpy as np

from ._io import atomic_write_text, format_chunks
from ._vec import const, finite, join, split, vnorm
from .errors import ConfigurationError, DivergenceError, require_number

# samples recorded per block
_ROW_BLOCK = 512


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4 integration settings: a run takes horizon / dt steps,
    which must be a whole number to 1e-9 relative, so it ends at the horizon.
    A message about one value starts with its scenario key, sim.dt or sim.horizon."""

    dt: float = 1e-3
    horizon: float = 10.0

    def __post_init__(self):
        for key, val in (("sim.dt", self.dt), ("sim.horizon", self.horizon)):
            require_number(key, val)
            if not np.isfinite(val):
                raise ConfigurationError(f"{key} must be finite, got {val!r}")
        if not self.dt > 0:
            raise ConfigurationError(f"sim.dt must be positive, got {self.dt!r}")
        if self.horizon < self.dt:
            raise ConfigurationError(
                f"sim.horizon = {self.horizon!r} must cover at least one sim.dt = {self.dt!r} step"
            )
        steps = self.horizon / self.dt
        if abs(steps - round(steps)) > 1e-9 * steps:
            raise ConfigurationError(
                f"sim.horizon = {self.horizon!r} must be a whole number of "
                f"sim.dt = {self.dt!r} steps, got {steps!r} steps"
            )

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.dt))


def double_integrator(x, u) -> tuple:
    """The plant's vector field F(x, u) on tuples of state components (see
    _vec): x = (position, velocity) in R^4, x_dot = (velocity, u)."""
    return x[2:4] + u  # (velocity, u), concatenated


@dataclass(frozen=True)
class Trajectory:
    """A uniformly sampled rollout with derived safety fields per sample, shape (T, ...).

    e is the integral of e_dot from zero (the tracked reference starts on the
    trajectory), so e = z - z_s holds by construction with z_s := z - e.
    v is the tracking certificate ||e_dot||, which every post-hoc check reads,
    h_v the recurrent barrier value, NaN without a recurrent barrier, and
    active the filter's flag, one bool per sample, true where it corrected
    the desired velocity. Arrays are read-only after construction.
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
    active: np.ndarray
    v: np.ndarray
    h_v: np.ndarray

    def __post_init__(self):
        for name in _FIELDS:
            arr = getattr(self, name)
            if arr.flags.writeable:
                arr.flags.writeable = False

    @property
    def n_samples(self) -> int:
        return self.t.shape[0]

    @property
    def horizon(self) -> float:
        return float(self.t[-1])

    def min_h(self) -> float:
        """The least h, skipping NaN samples (NaN if every sample is NaN),
        the rule of recurrence.fold_min."""
        return float(np.fmin.reduce(self.h))

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
        can carry its own provenance. Rows take np.savetxt's format: every
        field is the text of '%.17g' % x, byte for byte, which
        _io.format_chunks computes with numpy (exact significands, a digit
        table, the %g layout) and a per-value '%.17g' fallback for the few
        values outside its exact path. Each chunk of rows (about 2560
        values) is read from row slices of the fields and its text written
        before the next is formatted, so one chunk's text and temporaries
        are alive at a time, whatever the run's length.
        """
        atomic_write_text(path, self._csv_parts(preamble))

    def _csv_parts(self, preamble):
        yield "".join([f"# {line}\n" for line in preamble] + [self.csv_header() + "\n"])
        yield from format_chunks(
            [getattr(self, name).reshape(self.n_samples, -1) for name in _CSV_STEMS]
        )


# every recorded per-sample field, in declaration order, which is also the
# CSV column order
_FIELDS = tuple(f.name for f in fields(Trajectory) if f.name != "dt")

_CSV_RENAMES = {"z_dot": "zdot", "z_s_dot": "zsdot", "e_dot": "edot", "v": "V", "h_v": "hV"}
# CSV column stem of each written field; active is not written
_CSV_STEMS = {name: _CSV_RENAMES.get(name, name) for name in _FIELDS if name != "active"}


def rk4_step(f, t, x, dt):
    """One classical Runge-Kutta step of x_dot = f(t, x), for x and f(t, x)
    the four state components (x0, x1, x2, x3): floats or columns. Floats
    take the float code below; columns take the same expressions with 0-d
    constants, in temporaries of the step (see _column_step)."""
    half, t_half, sixth = 0.5 * dt, t + 0.5 * dt, dt / 6.0
    x0, x1, x2, x3 = x
    if type(x0) is not float:
        return _column_step(f, t, x, dt, t_half, _step_constants(dt))
    a0, a1, a2, a3 = f(t, x)
    b0, b1, b2, b3 = f(t_half, (x0 + half * a0, x1 + half * a1, x2 + half * a2, x3 + half * a3))
    c0, c1, c2, c3 = f(t_half, (x0 + half * b0, x1 + half * b1, x2 + half * b2, x3 + half * b3))
    d0, d1, d2, d3 = f(t + dt, (x0 + dt * c0, x1 + dt * c1, x2 + dt * c2, x3 + dt * c3))
    return (
        x0 + sixth * (a0 + 2.0 * b0 + 2.0 * c0 + d0),
        x1 + sixth * (a1 + 2.0 * b1 + 2.0 * c1 + d1),
        x2 + sixth * (a2 + 2.0 * b2 + 2.0 * c2 + d2),
        x3 + sixth * (a3 + 2.0 * b3 + 2.0 * c3 + d3),
    )


@lru_cache(maxsize=8)
def _step_constants(dt: float) -> tuple:
    """The column step's constants dt/2, dt, dt/6 and 2.0 as 0-d arrays,
    made once per step size: the floats rk4_step forms from dt."""
    return const(0.5 * dt), const(dt), const(dt / 6.0), const(2.0)


def _column_step(f, t, x, dt, t_half, constants):
    """rk4_step on columns. Each stage state x + h k and the update
    x + dt/6 (k1 + 2 k2 + 2 k3 + k4) is built in the temporary of its first
    product, every ufunc taking its operands in the float code's order."""
    half, dt_c, sixth, two = constants
    a = f(t, x)
    b = f(t_half, _stage(x, half, a))
    c = f(t_half, _stage(x, half, b))
    d = f(t + dt, _stage(x, dt_c, c))
    out = []
    for xi, ai, bi, ci, di in zip(x, a, b, c, d):
        s = np.multiply(two, bi)
        np.add(ai, s, out=s)
        np.add(s, np.multiply(two, ci), out=s)
        np.add(s, di, out=s)
        np.multiply(sixth, s, out=s)
        out.append(np.add(xi, s, out=s))
    return tuple(out)


def _stage(x, h, k) -> tuple:
    """The stage state x + h k on columns, each sum in its product's column."""
    out = []
    for xi, ki in zip(x, k):
        s = np.multiply(h, ki)
        out.append(np.add(xi, s, out=s))
    return tuple(out)


def _stage_table(d, n_times: int) -> tuple:
    """A planar signal's values on one stage-time grid, (T, 2), as two float
    lists indexed by step and shared by every run."""
    d = np.asarray(d, dtype=float)
    if d.shape != (n_times, 2):
        raise ConfigurationError(
            f"a disturbance signal must return shape ({n_times}, 2) on {n_times} "
            f"stage times, got {d.shape}"
        )
    return tuple(d.T.tolist())


def _rollout(plant, law, x0s, dt: float, n_steps: int, d_sig):
    """The closed-loop stepping kernel: yield (t, x, u, inter) at each sample.

    x holds the K rows of x0s as floats when K == 1, else as columns; inter
    is the law's stage-1 evaluation at x and u its input plus the disturbance,
    unless ``d_sig`` is None, added at every stage. The disturbance depends on
    time only, so ``d_sig`` is called once per stage-time grid, on the times
    rk4_step forms: t for stage 1, t + dt/2 for stages 2 and 3, t + dt for
    stage 4. Non-finite states propagate.
    """
    x = split(x0s[0] if x0s.shape[0] == 1 else x0s)
    times = np.arange(n_steps + 1) * dt
    if d_sig is not None:
        stage_times = (times, times + 0.5 * dt, times + dt)
        d1, d_half, d4 = (_stage_table(d_sig(s), n_steps + 1) for s in stage_times)
        d_tables = (d1, d_half, d_half, d4)  # by RK4 stage
    stages = []
    evaluate = law.evaluate

    def f_cl(t, x):
        inter = evaluate(x)
        u = inter.u
        if d_sig is not None:  # k is the step the loop below is on
            (ux, uy), (dx, dy) = u, d_tables[len(stages)]
            u = (ux + dx[k], uy + dy[k])
        stages.append((inter, u))
        return plant(x, u)

    for k, t in enumerate(times.tolist()):
        if k < n_steps:
            x_next = rk4_step(f_cl, t, x, dt)
        else:
            f_cl(t, x)
        inter, u = stages[0]
        stages.clear()
        yield t, x, u, inter
        if k < n_steps:
            x = x_next


def _record(samples, runs: int) -> tuple:
    """One block of per-sample (x, u, (h,), z_dot_s, active) tuples as the
    arrays x, u, z_dot_s (B, K, d), h and active (B, K)."""
    *floats, active = zip(*samples)
    x, u, h, z_s_dot = (_per_sample(vals, runs) for vals in floats)
    h = h[..., 0]  # recorded as 1-tuples
    return x, u, h, z_s_dot, np.array(active, dtype=bool).reshape(h.shape)


def _per_sample(vals, runs: int) -> np.ndarray:
    """Per-sample tuples of components as (T, K, d): for one run, tuples of
    floats read in one flat pass, which costs less than np.array's walk over
    nested tuples."""
    if runs == 1:
        flat = np.fromiter(chain.from_iterable(vals), dtype=float, count=len(vals) * len(vals[0]))
        return flat.reshape(len(vals), 1, -1)
    a = np.array(vals, dtype=float)
    return np.ascontiguousarray(a.transpose(0, 2, 1))


def _tracking_error(z_dot, z_s_dot) -> tuple:
    """e_dot = z_dot - z_dot_s and V = ||e_dot||, on planar components (see _vec)."""
    (vx, vy), (sx, sy) = z_dot, z_s_dot
    e_dot = (vx - sx, vy - sy)
    return e_dot, vnorm(e_dot)


def _divergence(k: int, t: float, run: int) -> DivergenceError:
    """The error for run ``run``'s non-finite state at step k, time t."""
    return DivergenceError(f"non-finite state at step {k} (t={t:.6g}), run {run}")


def integrate_batch(
    plant,
    law,
    x0s,
    cfg: IntegratorConfig,
    rcbf=None,
    disturbance=None,
) -> tuple[Trajectory, ...]:
    """Roll the closed loop from each row of x0s: one Trajectory per row.

    ``plant`` is the plant F(x, u) on state components, called at every RK4
    stage (see double_integrator). The disturbance, when given, enters
    additively on the full-model input channel: x_dot = F(x, u(x) + d(t)),
    with d at each RK4 stage time.
    ``disturbance.signal`` is called three times per rollout, each time on a
    1-D array of T = n_steps + 1 stage times, and must return (T, 2), one
    planar input per time shared by every run; any other shape is a
    ConfigurationError.
    The samples become arrays one block of _ROW_BLOCK samples at a time
    while the rollout runs, and the blocks are concatenated once at the end;
    e_dot, e, v and h_V are then derived elementwise, under the loop's
    np.errstate: an overflow there gives inf or NaN, not a warning.
    Each Trajectory's fields are read-only views of its run's column of
    these batch arrays, z and z_dot of x's, so no run is copied; t is
    shared. h_V reuses the law's barrier passes, so ``rcbf`` must be built
    on the law's barrier.
    Raises DivergenceError at the first non-finite sample.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != 4:
        raise ConfigurationError("initial states must have shape (K, 4)")
    if rcbf is not None and rcbf.barrier is not law.barrier:
        raise ConfigurationError("the recurrent barrier must be built on the law's barrier")
    runs = x0s.shape[0]
    if runs == 0:  # no run to roll: the kernel would step empty columns to the horizon
        return ()
    dt = cfg.dt
    d_sig = disturbance.signal if disturbance is not None else None

    blocks, samples = [], []
    with np.errstate(all="ignore"):
        for k, (t, x, u, inter) in enumerate(_rollout(plant, law, x0s, dt, cfg.n_steps, d_sig)):
            ok = finite(x)
            if not (ok if runs == 1 else ok.all()):
                raise _divergence(k, t, int(np.argmin(ok)))
            samples.append((x, u, (inter.h,), inter.z_dot_s, inter.active))
            if len(samples) == _ROW_BLOCK:
                blocks.append(_record(samples, runs))
                samples.clear()
        if samples:
            blocks.append(_record(samples, runs))

        x, u, h, z_s_dot, active = (np.concatenate(parts) for parts in zip(*blocks))
        e_dot, v = _tracking_error(split(x[..., 2:]), split(z_s_dot))
        h_v = np.full(h.shape, np.nan) if rcbf is None else rcbf.combine(v, h)
        e_dot = join(e_dot)
        # e(t) = integral of e_dot, trapezoid rule; the reference starts on the run
        e = np.empty_like(e_dot)
        e[0] = 0.0
        np.cumsum((e_dot[:-1] + e_dot[1:]) * (dt / 2.0), axis=0, out=e[1:])
    t = np.arange(x.shape[0]) * dt
    z, z_dot = x[..., :2], x[..., 2:]  # views: the record holds one copy of x
    batch = (x, z, z_dot, z_s_dot, e, e_dot, u, h, active, v, h_v)  # in _FIELDS order, after t
    return tuple(Trajectory(dt, t, *[a[:, k] for a in batch]) for k in range(runs))


def integrate(
    plant,
    law,
    x0,
    cfg: IntegratorConfig,
    rcbf=None,
    disturbance=None,
) -> Trajectory:
    """Roll the closed loop from one initial state; see integrate_batch."""
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (4,):
        raise ConfigurationError("initial state must have shape (4,)")
    return integrate_batch(plant, law, x0[None, :], cfg, rcbf=rcbf, disturbance=disturbance)[0]
