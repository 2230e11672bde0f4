"""Model pair, RK4 integration, trajectory recording, and batch rollouts."""
import dataclasses

import numpy as np
import pytest

import layersafe as ls


def test_integrator_config_validation():
    with pytest.raises(ls.ConfigurationError):
        ls.IntegratorConfig(dt=0.0, horizon=1.0)
    with pytest.raises(ls.ConfigurationError):
        ls.IntegratorConfig(dt=0.1, horizon=0.0)
    with pytest.raises(TypeError):
        ls.IntegratorConfig(dt=0.1, horizon=1.0, method="euler")
    cfg = ls.IntegratorConfig(dt=0.1, horizon=1.0)
    assert cfg.n_steps == 10


def test_double_integrator_structure():
    pair = ls.double_integrator_pair()
    x = np.array([1.0, 2.0, 3.0, 4.0])
    u = np.array([5.0, 6.0])
    assert np.array_equal(pair.fom_field(x, u), [3.0, 4.0, 5.0, 6.0])
    assert np.array_equal(pair.project_state(x), [1.0, 2.0])
    assert np.array_equal(pair.project_input(x), [3.0, 4.0])
    # reduced model is a single integrator: z_dot equals the input
    assert np.array_equal(pair.rom_field(x[:2], u), u)


def test_rk4_is_fourth_order():
    # global error on x_dot = -x over [0, 1] shrinks ~16x when dt halves
    def f(t, x):
        return -x

    def roll(dt):
        x = np.array([1.0])
        n = int(round(1.0 / dt))
        for k in range(n):
            x = ls.rk4_step(f, k * dt, x, dt)
        return abs(float(x[0]) - np.exp(-1.0))

    e1, e2 = roll(0.01), roll(0.005)
    assert e1 / e2 == pytest.approx(16.0, rel=0.05)


def test_single_run_matches_batch_row(td):
    scn, pair, law, rcbf = td["scn"], td["pair"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.5)
    x0 = ls.initial_state(scn, law)
    x1 = ls.initial_state(scn, law, z0=np.array([-1.0, -0.5]))
    single = ls.integrate(pair, law, x0, cfg, rcbf=rcbf)
    batch = ls.integrate_batch(pair, law, np.stack([x0, x1]), cfg, rcbf=rcbf)
    other = batch.trajectory(0)
    for name in ("t", "x", "z", "z_dot", "z_s_dot", "e", "e_dot", "u", "h",
                 "grad_h", "v", "h_v"):
        assert np.array_equal(getattr(single, name), getattr(other, name)), name
    # row independence: the same start alone gives bit-identical results
    alone = ls.integrate_batch(pair, law, x1[None, :], cfg, rcbf=rcbf)
    assert np.array_equal(batch.x[:, 1], alone.x[:, 0])
    # h_V reuses the law's barrier passes, so a recurrent barrier built on
    # another barrier is refused
    with pytest.raises(ls.ConfigurationError, match="law's barrier"):
        ls.integrate(pair, law, x0, cfg, rcbf=ls.build_scenario_rcbf(scn))


def test_trajectory_recording_semantics(td):
    scn, pair, law, rcbf = td["scn"], td["pair"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.2)
    traj = ls.integrate(pair, law, ls.initial_state(scn, law), cfg, rcbf=rcbf)
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


def test_trajectory_csv_round_trip(tmp_path, td):
    scn, pair, law, rcbf = td["scn"], td["pair"], td["law"], td["rcbf"]
    cfg = ls.IntegratorConfig(dt=0.01, horizon=0.1)
    traj = ls.integrate(pair, law, ls.initial_state(scn, law), cfg, rcbf=rcbf)
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


def test_divergence_reports_step_and_run():
    pair = ls.double_integrator_pair()

    def evaluate(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        zeros = np.zeros((x.shape[0], 2))
        return ls.LawIntermediates(
            z_dot_d=zeros, z_dot_s=zeros, active=np.zeros(x.shape[0], dtype=bool),
            h=np.full(x.shape[0], np.nan), grad_h=np.full((x.shape[0], 2), np.nan),
            u=1e4 * x[..., 2:4],
        )

    law = ls.ClosedLoopLaw(goal=None, gains=None, barrier=None, evaluate=evaluate)
    cfg = ls.IntegratorConfig(dt=0.1, horizon=20.0)
    with pytest.raises(ls.DivergenceError, match="non-finite state at step"):
        ls.integrate(pair, law, np.array([0.0, 0.0, 1.0, 0.0]), cfg)


def test_constant_disturbance_equals_shifted_input(linear):
    # additive d on the input channel: u(x) + d with constant d must match a
    # law whose feedback is shifted by the same constant, bit for bit
    scn, pair, law = linear["scn"], linear["pair"], linear["law"]
    d0 = np.array([0.3, -0.2])
    d = ls.Disturbance(
        kind="constant",
        signal=lambda t: np.broadcast_to(d0, np.shape(t) + (2,)).copy(),
        sup_norm=float(np.hypot(*d0)),
    )

    def shifted_evaluate(x):
        inter = law.evaluate(x)
        return dataclasses.replace(inter, u=inter.u + d0)

    shifted = dataclasses.replace(law, evaluate=shifted_evaluate)
    cfg = ls.IntegratorConfig(dt=0.001, horizon=0.5)
    x0 = np.array([0.1, -0.2, 0.3, 0.4])
    a = ls.integrate(pair, law, x0, cfg, disturbance=d)
    b = ls.integrate(pair, shifted, x0, cfg)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.e_dot, b.e_dot)

    # a signal with one row per run, shape (K, m): each batch row is bit for
    # bit the K=1 run driven by that row's own signal
    rcbf = linear["rcbf"]
    own = [
        d,
        ls.make_disturbance("sine", amplitude=0.4, frequency=1.5),
        ls.make_disturbance("random", amplitude=0.5, seed=3, segment=0.05),
    ]
    rows = dataclasses.replace(d, signal=lambda t: np.stack([di.signal(t) for di in own]))
    x0s = np.stack([x0, -x0, np.array([0.0, 0.0, -0.5, 0.2])])
    batch = ls.integrate_batch(pair, law, x0s, cfg, rcbf=rcbf, disturbance=rows)
    for k, dk in enumerate(own):
        alone = ls.integrate(pair, law, x0s[k], cfg, rcbf=rcbf, disturbance=dk)
        row = batch.trajectory(k)
        for name in ("t", "x", "z", "z_dot", "z_s_dot", "e", "e_dot", "u", "h",
                     "grad_h", "v", "h_v"):
            assert np.array_equal(getattr(alone, name), getattr(row, name), equal_nan=True), name

