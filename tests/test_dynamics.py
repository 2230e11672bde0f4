"""The plant, RK4 integration, trajectory recording, and batch rollouts."""
import dataclasses
import io
import re
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

import layersafe as ls
from layersafe.dynamics import double_integrator
from conftest import synthetic_trajectory


def test_integrator_config_validation():
    with pytest.raises(ls.ConfigurationError):
        ls.IntegratorConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ls.ConfigurationError):
        ls.IntegratorConfig(dt=0.1, horizon=0.0)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ls.ConfigurationError, match="must be finite"):
            ls.IntegratorConfig(dt=0.1, horizon=bad)
        with pytest.raises(ls.ConfigurationError, match="must be finite"):
            ls.IntegratorConfig(dt=bad, horizon=1.0)
    with pytest.raises(TypeError):
        ls.IntegratorConfig(dt=0.1, horizon=1.0, method="euler")
    cfg = ls.IntegratorConfig(dt=0.1, horizon=1.0)
    assert cfg.n_steps == 10
    assert ls.IntegratorConfig(dt=0.001, horizon=0.3).n_steps == 300  # 299.99999999999994


def test_horizon_must_be_whole_steps():
    # such a horizon was rounded to a step count: 3 steps of 0.3 end at 0.9,
    # and 2 steps of 0.001 at 0.002, past the declared 0.0015
    for dt, horizon, steps in ((0.3, 1.0, "3.3333333333333335"), (0.001, 0.0015, "1.5")):
        with pytest.raises(
            ls.ConfigurationError,
            match=f"sim.horizon = {horizon!r} must be a whole number of sim.dt = {dt!r} "
            f"steps, got {steps} steps",
        ):
            ls.IntegratorConfig(dt=dt, horizon=horizon)
    text = ls.bundled_scenario_path("two_disks.scn").read_text()
    assert "sim.horizon = 10.0\n" in text
    with pytest.raises(ls.ScenarioError, match="sim.horizon = 10.0005 must be a whole number"):
        ls.parse_scenario(text.replace("sim.horizon = 10.0\n", "sim.horizon = 10.0005\n"))


def test_double_integrator_structure():
    x = tuple(np.array([1.0, 2.0, 3.0, 4.0]).tolist())
    u = tuple(np.array([5.0, 6.0]).tolist())
    assert np.array_equal(np.stack(double_integrator(x, u), axis=-1), [3.0, 4.0, 5.0, 6.0])


def test_rk4_is_fourth_order():
    # global error on z'' = -z over [0, 1] from z = (1, 0), z' = (0, 1),
    # exactly z = (cos t, sin t), shrinks ~16x when dt halves
    def f(t, x):
        zx, zy, vx, vy = x
        return (vx, vy, -zx, -zy)

    def roll(dt):
        x = (1.0, 0.0, 0.0, 1.0)
        n = int(round(1.0 / dt))
        for k in range(n):
            x = ls.rk4_step(f, k * dt, x, dt)
        return float(np.hypot(x[0] - np.cos(1.0), x[1] - np.sin(1.0)))

    e1, e2 = roll(0.01), roll(0.005)
    assert e1 / e2 == pytest.approx(16.0, rel=0.05)


def test_single_run_matches_batch_row(td):
    scn, plant, law, rcbf = td["scn"], td["plant"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.5)
    x0 = ls.initial_state(scn, law)
    x1 = ls.initial_states(scn, law, np.array([[-1.0, -0.5]]))[0]
    single = ls.integrate(plant, law, x0, cfg, rcbf=rcbf)
    batch = ls.integrate_batch(plant, law, np.stack([x0, x1]), cfg, rcbf=rcbf)
    other = batch[0]
    for name in ("t", "x", "z", "z_dot", "z_s_dot", "e", "e_dot", "u", "h",
                 "active", "v", "h_v"):
        assert np.array_equal(getattr(single, name), getattr(other, name)), name
    # row independence: the same start alone gives bit-identical results
    alone = ls.integrate_batch(plant, law, x1[None, :], cfg, rcbf=rcbf)
    assert np.array_equal(batch[1].x, alone[0].x)
    # h_V reuses the law's barrier passes, so a recurrent barrier built on
    # another barrier is refused
    with pytest.raises(ls.ConfigurationError, match="law's barrier"):
        ls.integrate(plant, law, x0, cfg, rcbf=ls.build_scenario_rcbf(scn))


def test_trajectory_recording_semantics(td):
    scn, plant, law, rcbf = td["scn"], td["plant"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.2)
    traj = ls.integrate(plant, law, ls.initial_state(scn, law), cfg, rcbf=rcbf)
    assert traj.n_samples == cfg.n_steps + 1
    assert traj.horizon == pytest.approx(0.2, abs=1e-12)
    # recorded series satisfy their defining relations
    inter = law.evaluate(traj.x)
    assert np.array_equal(traj.z, traj.x[:, :2])
    assert np.array_equal(traj.z_dot, traj.x[:, 2:4])
    assert np.array_equal(traj.z_s_dot, np.asarray(inter.z_dot_s))
    assert np.array_equal(traj.e_dot, traj.z_dot - traj.z_s_dot)
    # e integrates e_dot by trapezoid from zero
    assert np.array_equal(traj.e[0], [0.0, 0.0])
    steps = (traj.e_dot[:-1] + traj.e_dot[1:]) * (traj.dt / 2.0)
    assert np.allclose(np.diff(traj.e, axis=0), steps, atol=1e-12)
    assert np.array_equal(traj.h, np.asarray(td["barrier"].value(traj.z)))
    assert np.array_equal(traj.v, np.sqrt(np.sum(traj.e_dot * traj.e_dot, axis=-1)))
    hv = np.asarray(rcbf.value(traj.z, traj.e_dot))
    assert np.array_equal(traj.h_v, hv)
    assert traj.min_h() == float(np.min(traj.h))


def test_record_holds_one_copy_of_x(td):
    # z and z_dot are read-only views of the run's x, one run or several
    scn, plant, law, rcbf = td["scn"], td["plant"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.05)
    x0s = ls.initial_states(scn, law, np.array([[-1.2, 0.3], [-1.0, -0.5], [0.5, 1.0]]))
    runs = (ls.integrate(plant, law, x0s[0], cfg, rcbf=rcbf),
            *ls.integrate_batch(plant, law, x0s, cfg, rcbf=rcbf))
    for traj in runs:
        for name in ("z", "z_dot"):
            arr = getattr(traj, name)
            assert np.shares_memory(arr, traj.x), name
            assert not arr.flags.writeable, name
        assert np.array_equal(traj.z, traj.x[:, :2]) and np.array_equal(traj.z_dot, traj.x[:, 2:])


def test_recorded_active_is_the_filter_flag(td):
    # the rollout records the stage-1 filter flag, so evaluating the law at
    # the recorded states gives the same flag at every sample, one run or
    # several, with or without a disturbance
    scn, plant, law = td["scn"], td["plant"], td["law"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=2.0)
    z0s = np.array([scn.start, [-1.0, -0.5], [0.5, 1.2]])
    x0s = ls.initial_states(scn, law, z0s, mode="desired")
    sine = ls.make_disturbance("sine", amplitude=0.3, frequency=2.0)
    for dist in (None, sine):
        alone = ls.integrate(plant, law, x0s[0], cfg, disturbance=dist)
        batch = ls.integrate_batch(plant, law, x0s, cfg, disturbance=dist)
        assert len(batch) == 3
        for rec in (alone, *batch):
            assert rec.active.dtype == bool and rec.active.shape == rec.h.shape == (cfg.n_steps + 1,)
            assert np.array_equal(rec.active, law.evaluate(rec.x).active)
        # the transit both engages and releases the filter
        assert alone.active.any() and not alone.active.all()


def test_trajectory_csv_round_trip(tmp_path, td):
    scn, plant, law, rcbf = td["scn"], td["plant"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.01, horizon=0.1)
    traj = ls.integrate(plant, law, ls.initial_state(scn, law), cfg, rcbf=rcbf)
    path = tmp_path / "run.csv"
    traj.to_csv(path, preamble=["alpha = 0.5"])
    text = path.read_text()
    assert text.startswith("# alpha = 0.5\n")
    header = traj.csv_header()
    assert header in text
    data = np.loadtxt(path, delimiter=",", skiprows=2)
    assert data.shape == (traj.n_samples, len(header.split(",")))
    cols = header.split(",")
    assert np.array_equal(data[:, 0], traj.t)  # %.17g survives a round trip
    assert np.array_equal(data[:, cols.index("u2")], traj.u[:, 1])
    assert np.array_equal(data[:, cols.index("h")], traj.h)


def test_empty_batch_rolls_nothing(td, monkeypatch):
    # K = 0 has no run to roll: no RK4 step is taken over empty columns
    calls = []
    step = ls.dynamics.rk4_step
    monkeypatch.setattr(ls.dynamics, "rk4_step", lambda *a: calls.append(1) or step(*a))
    cfg = ls.IntegratorConfig(dt=td["scn"].integrator.dt, horizon=0.05)
    runs = ls.integrate_batch(td["plant"], td["law"], np.empty((0, 4)), cfg, rcbf=td["rcbf"])
    assert runs == () and calls == []
    with pytest.raises(ls.ConfigurationError, match="shape"):
        ls.integrate_batch(td["plant"], td["law"], np.empty((0, 3)), cfg)


def test_divergence_reports_step_and_run():
    def evaluate(x):
        # one run: x is a tuple of floats
        zeros = (0.0, 0.0)
        return ls.LawIntermediates(
            z_dot_d=zeros, z_dot_s=zeros, active=False,
            h=np.nan,
            u=tuple([1e4 * v for v in x[2:4]]),
        )

    law = ls.ClosedLoopLaw(goal=None, gains=None, barrier=None, evaluate=evaluate)
    cfg = ls.IntegratorConfig(dt=0.1, horizon=20.0)
    with pytest.raises(ls.DivergenceError, match="non-finite state at step"):
        ls.integrate(double_integrator, law, np.array([0.0, 0.0, 1.0, 0.0]), cfg)


def test_constant_disturbance_equals_shifted_input(linear):
    # additive d on the input channel: u(x) + d with constant d must match a
    # law whose feedback is shifted by the same constant, bit for bit
    scn, plant, law = linear["scn"], linear["plant"], linear["law"]
    d0 = np.array([0.3, -0.2])
    d = ls.Disturbance(
        kind="constant",
        signal=lambda t: np.broadcast_to(d0, np.shape(t) + (2,)).copy(),
        sup_norm=float(np.hypot(*d0)),
    )

    def shifted_evaluate(x):
        inter = law.evaluate(x)
        return inter._replace(u=tuple([ui + di for ui, di in zip(inter.u, d0.tolist())]))

    shifted = dataclasses.replace(law, evaluate=shifted_evaluate)
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.5)
    x0 = np.array([0.1, -0.2, 0.3, 0.4])
    a = ls.integrate(plant, law, x0, cfg, disturbance=d)
    b = ls.integrate(plant, shifted, x0, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.e_dot, b.e_dot)


def test_disturbance_signal_of_another_shape_is_refused(linear):
    # the kernel takes one planar input per stage time, (T, 2), shared by
    # every run; a signal of any other shape is refused by name, not broadcast
    plant, law = linear["plant"], linear["law"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.01)
    x0 = np.array([0.1, -0.2, 0.3, 0.4])
    sine = ls.make_disturbance("sine", amplitude=0.4, frequency=1.5)
    for shape_of, got in (
        (lambda t: np.stack([sine.signal(t)] * 3, axis=-2), "(11, 3, 2)"),  # one row per run
        (lambda t: sine.signal(t)[:, :1], "(11, 1)"),
        (lambda t: np.zeros(3), "(3,)"),
    ):
        d = dataclasses.replace(sine, signal=shape_of)
        for x0s in (x0[None, :], np.stack([x0, -x0, 0.5 * x0])):
            want = f"must return shape (11, 2) on 11 stage times, got {got}"
            with pytest.raises(ls.ConfigurationError, match=re.escape(want)):
                ls.integrate_batch(plant, law, x0s, cfg, disturbance=d)


def _reference_states(plant, law, x0, cfg, signal):
    """rk4_step on f(t, x) = F(x, u(x) + signal(t)), the signal read at each
    scalar stage time rk4_step forms, on Python floats."""

    def f(t, x):
        d = np.asarray(signal(t), dtype=float).tolist()
        return plant(x, tuple([ui + di for ui, di in zip(law.evaluate(x).u, d)]))

    x = tuple(np.asarray(x0, dtype=float).tolist())
    states = [x]
    for t in (np.arange(cfg.n_steps) * cfg.dt).tolist():
        x = ls.rk4_step(f, t, x, cfg.dt)
        states.append(x)
    return np.array(states)


def test_stage_time_grids_match_scalar_stage_times(of):
    # the kernel reads the disturbance off three stage-time grids built once
    # per rollout; each entry must be the signal at rk4_step's scalar stage
    # time, bit for bit. At segment 0.0125 = 12.5 dt, t + dt/2 lands on
    # segment boundaries, where floor_divide on an array must round as on a scalar.
    plant, law = of["plant"], of["law"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.3)
    x0s = np.array([[2.0, 0.0, 0.0, 0.0], [1.5, -0.4, 0.3, -0.2], [-0.7, 0.9, -0.5, 0.6]])
    for dist in (
        ls.make_disturbance("sine", amplitude=0.1, frequency=7.3),
        ls.make_disturbance("random", amplitude=0.1, seed=7, segment=0.0125),
    ):
        batch = ls.integrate_batch(plant, law, x0s, cfg, disturbance=dist)
        for k, x0 in enumerate(x0s):
            want = _reference_states(plant, law, x0, cfg, dist.signal)
            alone = ls.integrate(plant, law, x0, cfg, disturbance=dist)
            assert _same_bits(alone.x, want), (dist.kind, k)
            assert _same_bits(batch[k].x, want), (dist.kind, k)


def test_disturbance_evaluated_three_times_per_rollout(of):
    # once per stage-time grid, whatever the horizon and the number of runs
    plant, law = of["plant"], of["law"]
    sine = ls.make_disturbance("sine", amplitude=0.1, frequency=0.37)
    calls = []

    def signal(t):
        calls.append(np.shape(t))
        return sine.signal(t)

    spy = dataclasses.replace(sine, signal=signal)
    x0 = np.array([2.0, 0.0, 0.1, -0.1])
    for horizon in (0.1, 2.0):
        cfg = ls.IntegratorConfig(dt=0.001, horizon=horizon)
        for x0s in (x0[None, :], np.stack([x0, -x0, 0.5 * x0])):
            calls.clear()
            ls.integrate_batch(plant, law, x0s, cfg, disturbance=spy)
            assert calls == [(cfg.n_steps + 1,)] * 3, (horizon, len(x0s))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _same_bits_but_nan_sign(a, b):
    """_same_bits, except that NaNs need only sit at the same positions.

    CPython's float multiply may give a product of two NaNs of opposite sign
    either sign: its specialized and generic paths keep different operands,
    and a trace function (sys.settrace) switches between them.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.dtype.kind != "f" or a.shape != b.shape:
        return _same_bits(a, b)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and _same_bits(a[~nan], b[~nan])


_RECORDED = ("t", "x", "z", "z_dot", "z_s_dot", "e", "e_dot", "u", "h", "active", "v", "h_v")
_CSV_COLUMNS = tuple(name for name in _RECORDED if name != "active")


def _crafted_world():
    """Two mirror-image disks, so states on x = 0 tie exactly, and a goal
    on the right disk's boundary line x = 1.5."""
    plant = double_integrator
    b = ls.min_distance_barrier(ls.ObstacleField(centers=[[-1.0, 0.0], [1.0, 0.0]], radii=[0.5, 0.5]))
    law = ls.assemble_closed_loop(b, ls.Gains(k_p=1.8, k_d=8.0, alpha=0.5), [1.5, 2.0])
    return plant, law, ls.build_rcbf(ls.Rtf(), b, alpha=0.5)


_CRAFTED_STARTS = [
    [0.0, 0.7, 0.3, -0.2],  # both disks at exactly the same distance
    [-0.0, 1.0, -0.0, 0.0],  # the same tie, with signed-zero position and velocity
    # on the right disk's boundary (h = 0) with z_dot_d = (-0.0, ...)
    # perpendicular to grad h = (1, 0): the correction is max(-0.0, 0.0)
    [1.5, 0.0, 0.0, -0.0],
    [1.5, 0.0, -0.0, 0.4],
    [1.5, 2.0, 0.0, 0.0],  # at the goal: z_dot_d = (-0.0, -0.0)
    [0.2, -1.3, -0.0, 0.0],
]
_DIVERGING_STARTS = [
    [1.0, 0.0, 0.0, 0.0],  # at a disk center: the gradient is 0/0
    [0.0, 3.0, 1e308, -1e308],  # the velocity overflows
]


def test_float_path_matches_column_path(td):
    # one run rolls on Python floats and several on contiguous columns; the
    # two must agree in every recorded field, bit for bit, NaN payloads included
    rng = np.random.default_rng(11)
    scn = td["scn"]
    lo, hi = scn.certify_lower, scn.certify_upper
    random_starts = np.concatenate(
        [lo + (hi - lo) * rng.uniform(size=(6, 2)), rng.normal(0.0, 2.0, (6, 2))], axis=1
    )
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.3)
    sine = ls.make_disturbance("sine", amplitude=0.3, frequency=2.0)
    worlds = [
        (td["plant"], td["law"], td["rcbf"], random_starts, None),
        (td["plant"], td["law"], None, random_starts[:3], sine),
        (*_crafted_world(), np.array(_CRAFTED_STARTS), None),
    ]
    for plant, law, rcbf, x0s, dist in worlds:
        seen = []

        def evaluate(x, law=law, seen=seen):
            seen.append(x[0])
            return law.evaluate(x)

        spy = dataclasses.replace(law, evaluate=evaluate)
        batch = ls.integrate_batch(plant, spy, x0s, cfg, rcbf=rcbf, disturbance=dist)
        assert isinstance(seen[0], np.ndarray) and seen[0].flags.c_contiguous
        for k, x0 in enumerate(x0s):
            seen.clear()
            alone = ls.integrate(plant, spy, x0, cfg, rcbf=rcbf, disturbance=dist)
            assert type(seen[0]) is float
            row = batch[k]
            for name in _RECORDED:
                assert _same_bits(getattr(alone, name), getattr(row, name)), (k, name)

    # a diverging start raises at the same step and time on either path
    plant, law, rcbf = _crafted_world()
    for x0 in _DIVERGING_STARTS:
        with pytest.raises(ls.DivergenceError) as alone:
            ls.integrate(plant, law, np.array(x0), cfg, rcbf=rcbf)
        with pytest.raises(ls.DivergenceError) as batch:
            ls.integrate_batch(plant, law, np.array([x0, _CRAFTED_STARTS[0]]), cfg, rcbf=rcbf)
        assert str(alone.value) == str(batch.value)
        assert "run 0" in str(alone.value)


def _python_scalars(v) -> bool:
    """Whether v is a Python float or bool, or a tuple of them."""
    if isinstance(v, tuple):
        return all(_python_scalars(c) for c in v)
    return type(v) in (float, bool)


@pytest.mark.parametrize("world", ["td", "of"])
def test_one_run_stays_on_python_scalars(world, request):
    # a numpy scalar that leaks into the K=1 path keeps every bit but costs a
    # numpy dispatch per operation from then on: every field of the law and
    # every component of rk4_step's output stays a Python float or bool
    w = request.getfixturevalue(world)
    plant, law, field = w["plant"], w["law"], w["barrier"].field
    zs = [tuple(c) for c in field.centers.tolist()]  # 0/0 in the gradient
    if field.count == 2:
        # equidistant from both disks: the two margins tie exactly
        tie = (0.39, -0.49)
        margins = field.center_distances(np.array(tie)) - field.radii
        assert margins[0] == margins[1]
        zs.append(tie)
    xs = [tuple(ls.initial_state(w["scn"], law).tolist())]
    xs += [z + v for z in zs for v in [(0.0, 0.0), (0.3, -0.2)]]

    def f(t, x):
        return plant(x, law.evaluate(x).u)

    for x in xs:
        inter = law.evaluate(x)
        for name in inter._fields:
            assert _python_scalars(getattr(inter, name)), (x, name)
        assert _python_scalars(ls.rk4_step(f, 0.0, x, 0.001)), x
    assert not all(np.isfinite(law.barrier.value_and_gradient(zs[0])[1]))  # 0/0 at a center


def test_one_run_makes_no_primitive_calls(td, monkeypatch):
    # a K = 1 rollout runs the barrier kernel and the filter as plain float
    # code, with no numpy call per pass; on columns the kernel makes, per
    # pass, two in-place np.sqrt, two np.subtract of a radius, for the one
    # extra obstacle one in-place np.minimum and three np.copyto (distance,
    # dx, dy), and two in-place np.divide; the filter makes its five
    # products, four sums, the negation, the subtraction of alpha h, the
    # in-place np.maximum clamp and the np.greater flag as np calls
    plant, law, rcbf, scn = td["plant"], td["law"], td["rcbf"], td["scn"]
    cfg = ls.IntegratorConfig(dt=scn.integrator.dt, horizon=0.05)
    x0 = ls.initial_state(scn, law)
    calls = Counter()

    class CountingNumpy:
        def __getattr__(self, name):
            fn = getattr(np, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted

    for module in (ls.barrier, ls.controller):
        monkeypatch.setattr(module, "np", CountingNumpy())
    ls.integrate(plant, law, x0, cfg, rcbf=rcbf)
    assert calls == {}
    ls.integrate_batch(plant, law, np.stack([x0, x0 + [0.1, -0.2, 0.0, 0.0]]), cfg, rcbf=rcbf)
    passes = 4 * cfg.n_steps + 1
    assert calls == {"sqrt": 2 * passes, "subtract": 3 * passes, "minimum": passes,
                     "copyto": 3 * passes, "divide": 2 * passes, "multiply": 5 * passes,
                     "add": 4 * passes, "negative": passes, "maximum": passes,
                     "greater": passes}


def test_array_entry_points_hold_their_own_errstate(two_disks):
    # the barrier's column pass divides with no np.errstate of its own; the
    # array entry points hold one, so at a disk center (0/0) and on the
    # exact tie no warning escapes, and every row keeps the bits of one
    # run's float pass
    _plant, law, _rcbf = _crafted_world()
    b = law.barrier
    zs = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 0.7], [-0.0, 1.0], [0.5, 0.5]])
    xs = np.concatenate([zs, np.zeros_like(zs)], axis=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h, grad = b.value_and_gradient(zs)
        value, gradient = b.value(zs), b.value_and_gradient(zs)[1]
        inter = law.evaluate(xs)
        starts = ls.initial_states(two_disks, law, zs, mode="safe")
        rows = [b.value_and_gradient(z) for z in zs]
        evals = [law.evaluate(x) for x in xs]
    assert _same_bits(h, np.stack([r[0] for r in rows])) and _same_bits(value, h)
    assert _same_bits(grad, np.stack([r[1] for r in rows])) and _same_bits(gradient, grad)
    assert np.isnan(grad[:2]).all() and np.isfinite(grad[2:]).all()
    assert grad[2, 0] > 0.0 and grad[3, 0] > 0.0  # the tie goes to the left disk
    for i, field in enumerate(inter):  # a 0/0 gradient's NaN reaches z_dot_s and u
        assert _same_bits_but_nan_sign(field, np.stack([e[i] for e in evals])), inter._fields[i]
    assert _same_bits(starts, np.concatenate([zs, inter.z_dot_s], axis=1))
    # nor does an overflow: a far state's squared offset, in the barrier and
    # in the safe starts certify builds before its own np.errstate
    grid = ls.Grid([1e306, -1], [1e307, 1], (3, 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = ls.build_barrier(two_disks).value([[1e200, 0.0]])
        ls.certify_initial_set(two_disks.with_horizon(0.05), grid, velocity_mode="safe")
    assert np.isposinf(far).all()
    # components straight to the kernel get no errstate: a column caller holds its own
    with pytest.warns(RuntimeWarning):
        b.value_and_gradient((zs[:, 0].copy(), zs[:, 1].copy()))


def test_min_h_skips_nan_samples():
    # fold_min's rule: NaN samples are skipped, an all-NaN series stays NaN
    t, v = [0.0, 0.1, 0.2], [0.0, 0.0, 0.0]
    assert synthetic_trajectory(t, v, h=[0.3, np.nan, -0.1]).min_h() == -0.1
    assert np.isnan(synthetic_trajectory(t, v, h=[np.nan] * 3).min_h())


def test_array_entry_points_match_batch_rows():
    # the two array entry points, BarrierFn and ClosedLoopLaw.evaluate, run a
    # single state (2,) or (4,) on floats and a batch (K, .) on columns; every
    # layer behind them takes float tuples or columns, and the two agree
    plant, law, _rcbf = _crafted_world()
    b, gains, dt = law.barrier, law.gains, 0.001
    goal = tuple(law.goal.tolist())
    rng = np.random.default_rng(3)
    xs = np.concatenate([
        np.array(_CRAFTED_STARTS + _DIVERGING_STARTS),
        [[np.nan, 0.0, 0.1, 0.2], [0.3, np.inf, -0.0, 1.0], [0.5, 0.5, np.nan, 0.0]],
        rng.normal(0.0, 2.0, (8, 4)),
    ])
    zs, vs = xs[:, :2], xs[:, 2:]

    def f(t, x):
        return plant(x, law.evaluate(x).u)

    def cols(a):
        return tuple(np.ascontiguousarray(a.T))

    def stacked(v):
        return np.stack(v, axis=-1) if isinstance(v, tuple) else np.asarray(v)

    with np.errstate(all="ignore"):
        batch = {
            "value": b.value(zs),
            "vg": b.value_and_gradient(zs),
            "desired": ls.desired_velocity(goal, gains.k_p, cols(zs)),
            "safe": ls.safe_velocity(b, gains.alpha, cols(zs), cols(vs)),
            "tracking": ls.tracking_control(gains.k_d, cols(vs), cols(zs)),
            "law": law.evaluate(xs),
            "fom": plant(cols(xs), cols(vs)),
            "rk4": ls.rk4_step(f, 0.0, cols(xs), dt),
        }
        for k, (x, z, v) in enumerate(zip(xs, zs, vs)):
            xc, zc, vc = tuple(x.tolist()), tuple(z.tolist()), tuple(v.tolist())
            single = {
                "value": b.value(z),
                "vg": b.value_and_gradient(z),
                "desired": ls.desired_velocity(goal, gains.k_p, zc),
                "safe": ls.safe_velocity(b, gains.alpha, zc, vc),
                "tracking": ls.tracking_control(gains.k_d, vc, zc),
                "law": law.evaluate(x),
                "fom": plant(xc, vc),
                "rk4": ls.rk4_step(f, 0.0, xc, dt),
            }
            for name, got in single.items():
                want = batch[name]
                if name == "law":
                    got = [getattr(got, name) for name in got._fields]
                    want = [getattr(want, name) for name in want._fields]
                elif name not in ("vg", "safe"):
                    got, want = [got], [want]
                for g, w in zip(got, want):
                    assert _same_bits_but_nan_sign(stacked(g), stacked(w)[k]), (k, name)


def test_csv_matches_savetxt(tmp_path, td):
    # the block-wise '%' writer gives np.savetxt's text byte for byte, NaN,
    # infinities, -0.0 and subnormals included, across its 512-row blocks
    traj = ls.integrate(
        td["plant"], td["law"], ls.initial_state(td["scn"], td["law"]),
        ls.IntegratorConfig(dt=0.001, horizon=1.0), rcbf=td["rcbf"],
    )
    rng = np.random.default_rng(4)
    special = [np.nan, -np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -1.5e300]
    fields = {}
    for name in ("x", "e_dot", "u", "h", "h_v"):
        a = np.array(getattr(traj, name)) * 10.0 ** rng.integers(-30, 30, getattr(traj, name).shape)
        a.flat[rng.choice(a.size, len(special), replace=False)] = special
        fields[name] = a
    crafted = dataclasses.replace(traj, **fields)
    path = tmp_path / "run.csv"
    crafted.to_csv(path, preamble=["alpha = 0.5", "label: x"])
    data = np.hstack([getattr(crafted, name).reshape(traj.n_samples, -1) for name in _CSV_COLUMNS])
    assert data.shape == (1001, len(crafted.csv_header().split(",")))
    ref = io.StringIO()
    ref.write("# alpha = 0.5\n# label: x\n" + crafted.csv_header() + "\n")
    np.savetxt(ref, data, fmt="%.17g", delimiter=",")
    assert path.read_text() == ref.getvalue()


def _whole_table_csv(traj, preamble):
    """The writer as one '%' over the whole table: the streamed writer's reference."""
    data = np.hstack([getattr(traj, name).reshape(traj.n_samples, -1) for name in _CSV_COLUMNS])
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    lines = [f"# {line}\n" for line in preamble] + [traj.csv_header() + "\n"]
    lines.append((row * data.shape[0]) % tuple(data.ravel().tolist()))
    return "".join(lines)


@pytest.mark.parametrize("n_steps", [510, 511, 512, 513, 1023, 1025])
def test_recording_blocks_are_seamless(n_steps, td, tmp_path, monkeypatch):
    # the rollout is recorded in blocks of _ROW_BLOCK samples; around every
    # block edge the record must be the one-block record bit for bit (value,
    # dtype and shape), its states rk4_step's, and its CSV, written a
    # formatting chunk at a time, the whole-table text
    assert ls.dynamics._ROW_BLOCK == 512
    plant, law, rcbf, scn = td["plant"], td["law"], td["rcbf"], td["scn"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=n_steps * 0.001)
    assert cfg.n_steps == n_steps
    dist = ls.make_disturbance("random", amplitude=0.2, seed=7, segment=0.0125)
    z0s = np.array([scn.start, [-1.0, -0.5], [0.5, 1.2]])
    x0s = ls.initial_states(scn, law, z0s, mode="desired")

    def records():
        return [ls.integrate_batch(plant, law, x0s[:k], cfg, rcbf=rcbf, disturbance=dist)
                for k in (1, 3)]

    blocked = records()
    with monkeypatch.context() as m:
        m.setattr(ls.dynamics, "_ROW_BLOCK", n_steps + 1)
        whole = records()
    for got, want in zip(blocked, whole):
        assert len(got) == len(want)
        for k, (run, one) in enumerate(zip(got, want)):
            assert run.x.shape == (n_steps + 1, 4)
            for name in _RECORDED:
                assert _same_bits(getattr(run, name), getattr(one, name)), (len(want), k, name)
    alone = ls.integrate(plant, law, x0s[0], cfg, rcbf=rcbf, disturbance=dist)
    for k, x0 in enumerate(x0s):
        states = _reference_states(plant, law, x0, cfg, dist.signal)
        assert _same_bits(blocked[1][k].x, states), k
    assert _same_bits(alone.x, _reference_states(plant, law, x0s[0], cfg, dist.signal))
    preamble = ["alpha = 0.5"]
    for k, traj in enumerate([alone, blocked[1][2]]):
        path = tmp_path / f"run{k}.csv"
        traj.to_csv(path, preamble=preamble)
        assert path.read_text() == _whole_table_csv(traj, preamble), k


def test_to_csv_memory_budget(td, td_transit, tmp_path):
    # the CSV of a two_disks run is written one formatting chunk of rows at a
    # time: no whole-table or row-block array, float tuple or string is held,
    # so a 1 s (1001-row) and a 10 s (10001-row) run peak alike (joined
    # 512-row blocks peaked at 0.87 MiB on the 1 s run)
    short = ls.integrate(
        td["plant"], td["law"], ls.initial_state(td["scn"], td["law"]),
        ls.IntegratorConfig(dt=0.001, horizon=1.0), rcbf=td["rcbf"],
    )
    for traj in (short, td_transit):
        tracemalloc.start()
        try:
            traj.to_csv(tmp_path / "run.csv", preamble=["alpha = 0.5"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.65 * 2**20, (traj.n_samples, peak)
    assert (short.n_samples, td_transit.n_samples) == (1001, 10001)


def test_to_csv_fallback_share(td_transit):
    # the CSV of a 10 s two_disks run formats at most 1% of its values one
    # at a time: 12% of them lie below 1e-6, on the two-step exact path
    table = np.hstack([getattr(td_transit, name).reshape(10001, -1) for name in _CSV_COLUMNS])
    ax = np.abs(table.ravel())
    fallback = ls._io._significands(ax)[2] & (ax > 0) & (ax < np.inf)
    assert np.count_nonzero((ax > 0) & (ax < 1e-6)) > 0.1 * ax.size
    assert np.count_nonzero(fallback) <= 0.01 * ax.size


def test_integrate_memory_budget(td):
    # a 10 s two_disks rollout as the run commands make it, with the
    # scenario's disturbance: the samples become arrays one row block at a
    # time, so no Python tuple per sample outlives its block
    scn = td["scn"]
    x0 = ls.initial_state(scn, td["law"])
    tracemalloc.start()
    try:
        traj = ls.integrate(
            td["plant"], td["law"], x0, scn.integrator, rcbf=td["rcbf"], disturbance=td["dist"]
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.n_samples == 10001
    assert peak < 4.5e6, peak


def _rk4_by_operators(f, t, x, dt):
    """rk4_step's float code, operator for operator, on any form."""
    half, t_half, sixth = 0.5 * dt, t + 0.5 * dt, dt / 6.0
    a = f(t, x)
    b = f(t_half, tuple([xi + half * ki for xi, ki in zip(x, a)]))
    c = f(t_half, tuple([xi + half * ki for xi, ki in zip(x, b)]))
    d = f(t + dt, tuple([xi + dt * ki for xi, ki in zip(x, c)]))
    return tuple([
        xi + sixth * (ai + 2.0 * bi + 2.0 * ci + di) for xi, ai, bi, ci, di in zip(x, a, b, c, d)
    ])


def test_column_branches_keep_the_float_code_bits():
    # the barrier, the filter and rk4_step on columns, compared as int64 bit
    # patterns on rows of signed zeros, infinities and NaNs of either sign,
    # at a disk center and on the bisector x = 0 where both disks tie: the
    # barrier against one run's float pass, row by row; the filter and
    # rk4_step against their float code's expressions evaluated by numpy
    # operators on the same columns, which keep every operand's place (a
    # CPython float product of two NaNs may take either sign, see
    # _same_bits_but_nan_sign, so the float pass pins those rows only up to
    # NaN signs). A column branch that takes an operand in another order
    # gives another NaN sign here wherever these rows can show it, as in
    # x + h k with a NaN position and a NaN velocity of the other sign
    plant, law, _rcbf = _crafted_world()
    b, alpha = law.barrier, law.gains.alpha
    nan, inf = np.nan, np.inf
    special = [0.0, -0.0, inf, -inf, nan, -nan]
    zs = [(-1.0, 0.0), (1.0, 0.0), (0.0, 0.7), (-0.0, 1.0), (1.5, 2.0), (0.2, -1.3)]
    zs += [(c, 0.4) for c in special] + [(0.3, c) for c in special]
    vs = [(0.3, -0.2), (-0.0, 0.0), (0.0, -0.0)] + [(c, 0.1) for c in special]
    xs = np.array([z + v for z in zs for v in vs])
    z_c, v_c, x_c = (tuple(np.ascontiguousarray(a.T)) for a in (xs[:, :2], xs[:, 2:], xs))

    def f(t, x):
        return plant(x, law.evaluate(x).u)

    def rows(v):
        return np.asarray(np.stack(v, axis=-1) if isinstance(v, tuple) else v, dtype=float)

    def bits(v):
        return rows(v).view(np.int64)

    with np.errstate(all="ignore"):
        h, n = b.value_and_gradient(z_c)
        for k, z in enumerate(xs[:, :2].tolist()):
            want_h, want_n = b.value_and_gradient(tuple(z))
            assert bits(h)[k] == bits(want_h) and np.array_equal(bits(n)[k], bits(want_n)), z

        (sx, sy), active, h_f = ls.safe_velocity(b, alpha, z_c, v_c)
        (nx, ny), (vx, vy) = n, v_c
        corr = np.maximum(-((nx * vx + 0.0) + ny * vy) - alpha * h, 0.0)
        want = (vx + corr * nx, vy + corr * ny)
        assert np.array_equal(bits((sx, sy)), bits(want)) and np.array_equal(bits(h_f), bits(h))
        assert np.array_equal(active, corr > 0.0)

        step = ls.rk4_step(f, 0.0, x_c, 0.001)
        assert np.array_equal(bits(step), bits(_rk4_by_operators(f, 0.0, x_c, 0.001)))
        for k, x in enumerate(xs.tolist()):
            want_s = ls.safe_velocity(b, alpha, tuple(x[:2]), tuple(x[2:]))[0]
            assert _same_bits_but_nan_sign(rows((sx, sy))[k], rows(want_s)), x
            want_x = ls.rk4_step(f, 0.0, tuple(x), 0.001)
            assert _same_bits_but_nan_sign(rows(step)[k], rows(want_x)), x
