"""Disturbance signals, the ISS envelope, and the shrunken robust set."""
import dataclasses
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import layersafe as ls
from layersafe import dynamics, robustness
from layersafe._vec import vnorm
from conftest import MU_GAIN, synthetic_trajectory


@pytest.fixture(scope="module")
def far_rcbf():
    b = ls.min_distance_barrier(
        ls.ObstacleField(centers=[[50.0, 50.0]], radii=[0.5])
    )
    return ls.build_rcbf(ls.Rtf(beta=2.45, tau=1.5), b, alpha=0.5)


def test_disturbance_none_and_zero_amplitude():
    for d in (ls.make_disturbance("none"), ls.make_disturbance("sine", amplitude=0.0)):
        assert d.kind == "none"
        assert d.sup_norm == 0.0
        out = d.signal(np.linspace(0, 5, 7))
        assert out.shape == (7, 2)
        assert np.all(out == 0.0)
    assert ls.make_disturbance("none").signal(3.0).shape == (2,)


def test_disturbance_constant():
    d = ls.make_disturbance("constant", amplitude=0.3)
    out = d.signal(np.zeros(4))
    assert out.shape == (4, 2)
    assert np.all(out == [0.3, 0.0])
    assert d.sup_norm == 0.3
    out[0, 0] = 99.0  # caller mutation must not leak into later calls
    assert d.signal(0.0)[0] == 0.3


def test_disturbance_sine_norm_is_exact():
    d = ls.make_disturbance("sine", amplitude=0.25, frequency=0.7)
    t = np.linspace(0.0, 9.0, 1201)
    norms = np.sqrt(np.sum(d.signal(t) ** 2, axis=-1))
    assert np.max(np.abs(norms - 0.25)) < 1e-14 * 0.25
    assert d.sup_norm == 0.25
    with pytest.raises(ls.ConfigurationError):
        ls.make_disturbance("sine", amplitude=0.1, frequency=0.0)


def test_disturbance_random_ball_and_declared_sup():
    amp = 0.4
    d = ls.make_disturbance("random", amplitude=amp, seed=7, segment=0.1)
    t = np.arange(20000) * 0.05 + 0.013  # spans 10000 segments
    norms = np.sqrt(np.sum(d.signal(t) ** 2, axis=-1))
    assert np.max(norms) <= d.sup_norm
    assert d.sup_norm <= amp * (1 + 1e-12)
    assert d.sup_norm > 0.9 * amp  # the ball is actually filled out


def test_disturbance_random_periodicity_and_seeding():
    seg = 0.1
    d = ls.make_disturbance("random", amplitude=0.2, seed=3, segment=seg)
    t = np.arange(50) * seg + 0.05  # mid-segment, away from boundaries
    assert np.array_equal(d.signal(t + seg * 65536), d.signal(t))
    d_same = ls.make_disturbance("random", amplitude=0.2, seed=3, segment=seg)
    assert np.array_equal(d_same.signal(t), d.signal(t))
    d_other = ls.make_disturbance("random", amplitude=0.2, seed=4, segment=seg)
    assert not np.array_equal(d_other.signal(t), d.signal(t))
    with pytest.raises(ls.ConfigurationError):
        ls.make_disturbance("random", amplitude=0.2, segment=0.0)


def _reference_random(amp, seed, seg):
    """The random kind as whole-table draws and vnorm's sup norm: make_disturbance's
    reference, which builds the table a block of rows at a time."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=65536)
    radius = amp * np.sqrt(rng.uniform(0.0, 1.0, size=65536))
    table = np.stack([np.cos(theta), np.sin(theta)], axis=-1) * radius[:, None]

    def signal(t):
        return table[np.floor_divide(np.asarray(t, dtype=float), seg).astype(np.int64) % 65536]

    return signal, float(np.max(vnorm((table[:, 0], table[:, 1]))))


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_disturbance_random_matches_whole_table_reference():
    # every table row, segment boundary and the 65536-row wrap, and the sup
    # norm's bits where the squares are normal
    for seg in (0.1, 0.0125):
        t = np.concatenate([
            np.arange(70000) * seg + 0.5 * seg,  # every row, then past the wrap
            np.arange(-20, 20) * seg,  # on boundaries, negative times included
            np.array([65535.5, 65536.0, 131072.25, 1e6 + 0.3]) * seg,
        ])
        for amp in (0.1, 3.7, 1e-300, 1e150):
            for seed in (0, 7, 20260818):
                d = ls.make_disturbance("random", amplitude=amp, seed=seed, segment=seg)
                signal, sup = _reference_random(amp, seed, seg)
                assert np.array_equal(_bits(d.signal(t)), _bits(signal(t))), (seg, amp, seed)
                if amp > 1e-150:
                    assert _bits(d.sup_norm) == _bits(sup), (seg, amp, seed)
                else:  # every square underflows, and vnorm's largest value is 0.0
                    assert sup == 0.0 < d.sup_norm, (seg, amp, seed)
                assert d.signal(t[0]).shape == (2,)
    # a block whose largest sum of squares is subnormal or zero is scaled up
    # by a power of two: the norm is positive, within 1 ulp of np.hypot's
    for amp in (1e-154, 1e-160, 1e-300, 1e-310, 5e-324):
        d = ls.make_disturbance("random", amplitude=amp, seed=7, segment=1.0)
        rows = d.signal(np.arange(65536) + 0.5)
        want = float(np.max(np.hypot(rows[:, 0], rows[:, 1])))
        assert 0.0 < d.sup_norm and abs(d.sup_norm - want) <= np.spacing(want), amp


def test_disturbance_random_sup_norm_does_not_overflow():
    # past amplitude ~1.34e154 a row's sum of squares overflows although the
    # row is finite: the sup norm was inf, with an overflow warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for amp in (1.3e154, 1.4e154, 1e200, 1e308, float(np.finfo(float).max)):
            d = ls.make_disturbance("random", amplitude=amp, seed=7)
            rows = d.signal(np.arange(65536) * 0.1 + 0.05)
            # the same rows scaled by another power of two, where nothing overflows
            scaled = rows * 2.0**-600
            want = float(np.max(vnorm((scaled[:, 0], scaled[:, 1])))) * 2.0**600
            assert d.sup_norm == want, amp
            assert 0.99 * amp < d.sup_norm <= amp * (1 + 1e-12), amp


def test_disturbance_random_memory_budget():
    # no table is built: the sup norm is measured one block of rows at a
    # time (the in-place 1 MiB table peaked at 1.2 MiB, the whole-table
    # build at 3.0 MiB), and nothing of a table's size stays alive after
    ls.make_disturbance("random", amplitude=0.1, seed=7)  # numpy's lazy imports
    tracemalloc.start()
    try:
        d = ls.make_disturbance("random", amplitude=0.1, seed=7)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert d.sup_norm > 0.0
    assert peak <= 0.25 * 2**20, peak
    assert kept < 64 * 2**10, kept


def test_disturbance_random_draws_only_the_rows_it_reads():
    # a call draws the rows of the segments its times span past the
    # generator's first draws; each window matches the whole table's rows,
    # bit for bit
    seg = 0.1
    d = ls.make_disturbance("random", amplitude=0.3, seed=11, segment=seg)
    signal, _ = _reference_random(0.3, 11, seg)
    for lo, n in ((0, 1), (1, 21), (4095, 2), (4096, 4097), (30001, 3), (65535, 1)):
        t = (np.arange(lo, lo + n) + 0.5) * seg
        assert np.array_equal(_bits(d.signal(t)), _bits(signal(t))), (lo, n)
        assert np.array_equal(_bits(d.signal(t[::-1])), _bits(signal(t[::-1]))), (lo, n)
    # the table lookup's shapes: t.shape + (2,) for an empty array,
    # a 0-d time and a 2-D array, and an index range that wraps past row 65535
    for t, shape in (
        (np.array([]), (0, 2)),
        (np.zeros((3, 0)), (3, 0, 2)),
        (np.float64(0.25), (2,)),
        (np.array(7.0), (2,)),
        (np.arange(6.0).reshape(2, 3), (2, 3, 2)),
    ):
        out = d.signal(t)
        assert out.shape == shape and out.dtype == np.float64, (t, out.shape)
        assert np.array_equal(_bits(out), _bits(signal(t)))
    wrap = (np.array([65534.5, 65535.5, 65536.5, 65537.5, -0.5]) * seg)[:, None]
    out = d.signal(wrap)
    assert out.shape == (5, 1, 2)
    assert np.array_equal(_bits(out), _bits(signal(wrap)))
    assert np.array_equal(out[2:4], d.signal(wrap[2:4] - 65536 * seg))
    # segments 65534-65537 wrap past the last row: two pieces are drawn, not
    # the whole table
    tracemalloc.start()
    try:
        d.signal(wrap[:4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10, peak


def test_disturbance_random_refuses_segment_too_short_to_count():
    # t / segment at or past 2**53 no longer counts whole segments, and past
    # 2**63 its int64 cast read table row 0 at every time: the signal was a
    # silent constant. Such times are refused, naming the scenario key.
    d = ls.make_disturbance("random", amplitude=0.1, seed=7, segment=1e-300)
    with pytest.raises(ls.ConfigurationError, match="disturbance.segment = 1e-300 is too short"):
        d.signal(np.arange(2001) * 1e-3)
    assert d.signal(0.0).shape == (2,)
    # with a unit segment the count is t itself: 2**53 - 1 is taken, 2**53 is not
    d = ls.make_disturbance("random", amplitude=0.1, seed=7, segment=1.0)
    last = 2.0**53 - 1.0
    assert np.array_equal(d.signal(last), d.signal(last % 65536))
    with pytest.raises(ls.ConfigurationError, match="for t = 9007199254740992.0"):
        d.signal(np.array([0.0, last, 2.0**53]))


def test_disturbance_sine_refuses_times_past_its_rate():
    # 2*pi*1e307 is finite, but 2*pi*1e307*t overflows past t ~ 2.86: sin(inf)
    # is NaN, and the run used to die on a non-finite state; such times are
    # refused, naming the scenario key and the first time that fails
    d = ls.make_disturbance("sine", amplitude=0.1, frequency=1e307)
    w = 2.0 * np.pi * 1e307
    last = float(np.nextafter(np.finfo(float).max / w, 0.0))
    assert np.isfinite(d.signal(np.array([0.0, 1.0, last]))).all()
    t = np.array([0.0, 1.0, 2.0 * last, 3.0 * last])
    with pytest.raises(
        ls.ConfigurationError,
        match=f"disturbance.frequency = 1e\\+307 is too large for t = {2.0 * last!r}",
    ):
        d.signal(t)
    with pytest.raises(ls.ConfigurationError, match="2\\*pi\\*frequency\\*t must be finite"):
        d.signal(-3.0)
    assert d.signal(1.0).shape == (2,)


def test_spec_seed_must_be_an_integer():
    # a float or bool seed used to load and echo a line the parser refuses,
    # and make_disturbance raised a bare numpy TypeError on it
    for bad in (1.5, 2.0, True, np.float64(3.0), "3", None):
        with pytest.raises(ls.ConfigurationError, match="disturbance.seed must be an integer, got"):
            ls.DisturbanceSpec(kind="random", amplitude=0.1, seed=bad)
        with pytest.raises(ls.ConfigurationError, match="disturbance.seed must be an integer"):
            ls.make_disturbance("random", amplitude=0.1, seed=bad)
    # a numpy integer is taken, held as a plain int, and echoes a line that re-parses
    spec = ls.DisturbanceSpec(kind="random", amplitude=0.1, seed=np.int64(7))
    assert type(spec.seed) is int and spec == ls.DisturbanceSpec(kind="random", amplitude=0.1, seed=7)
    scn = ls.load_scenario(ls.bundled_scenario_path("open_field.scn")).with_disturbance(spec)
    again = ls.parse_scenario("\n".join(scn.resolved_lines()) + "\n")
    assert again.disturbance == spec and again.digest() == scn.digest()
    assert np.array_equal(
        ls.make_disturbance("random", amplitude=0.1, seed=np.int64(7)).signal(np.arange(5.0)),
        ls.make_disturbance("random", amplitude=0.1, seed=7).signal(np.arange(5.0)),
    )


def test_disturbance_validation():
    with pytest.raises(ls.ConfigurationError):
        ls.make_disturbance("gusts")
    with pytest.raises(ls.ConfigurationError):
        ls.make_disturbance("constant", amplitude=-0.1)
    with pytest.raises(ls.ConfigurationError):
        ls.make_disturbance("constant", amplitude=float("nan"))


def test_spec_and_make_disturbance_refuse_the_same_values():
    # make_disturbance checks its fields by building a DisturbanceSpec, so a
    # value one refuses the other refuses too, naming the same key
    for bad, key in (
        (dict(kind="random", amplitude=0.1, segment=float("inf")), "segment"),
        (dict(kind="random", amplitude=0.1, seed=-1), "seed"),
        (dict(kind="none", amplitude=-1.0), "amplitude"),
        (dict(kind="sine", amplitude=0.1, frequency=1e308), "frequency"),
    ):
        with pytest.raises(ls.ConfigurationError, match=f"disturbance.{key} ") as spec:
            ls.DisturbanceSpec(**bad)
        with pytest.raises(ls.ConfigurationError) as made:
            ls.make_disturbance(**bad)
        assert str(made.value) == str(spec.value), bad
    with pytest.raises(ls.ConfigurationError, match="2\\*pi\\*frequency must be finite"):
        ls.DisturbanceSpec(kind="sine", amplitude=0.1, frequency=1e308)
    # the largest frequency whose rate is finite still builds a signal
    top = np.nextafter(np.finfo(float).max / (2.0 * np.pi), 0.0)
    assert ls.make_disturbance("sine", amplitude=0.1, frequency=float(top)).sup_norm == 0.1


def test_iss_envelope_constants(far_rcbf):
    env = ls.build_iss_envelope(far_rcbf, 0.5, d_sup=0.2)
    rtf = far_rcbf.rtf
    assert env.rtf is rtf
    assert env.d_sup == 0.2
    assert env.mu_at_d == 0.1
    iota = rtf.a2 * float(np.exp(rtf.beta * rtf.tau)) * env.mu_at_d / rtf.m_overshoot
    assert env.iota == iota
    assert env.gamma_margin == iota / far_rcbf.alpha_e
    assert env.mu_gain == 0.5
    zero = ls.build_iss_envelope(far_rcbf, 0.5, d_sup=0.0)
    assert zero.mu_at_d == 0.0
    assert zero.iota == 0.0
    assert zero.gamma_margin == 0.0


def test_iss_envelope_validation(far_rcbf):
    for gain in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ls.ConfigurationError, match="mu gain must be finite and positive"):
            ls.build_iss_envelope(far_rcbf, gain, d_sup=0.1)
    with pytest.raises(ls.ConfigurationError):
        ls.build_iss_envelope(far_rcbf, 1.0, d_sup=-0.1)
    with pytest.raises(ls.ConfigurationError):
        ls.build_iss_envelope(far_rcbf, 1.0, d_sup=float("inf"))


def test_iss_envelope_refuses_a_non_finite_offset(far_rcbf):
    # a finite gain and sup norm whose offset overflows: the product itself,
    # iota = a2 e^{beta tau} mu / M (about 12.2 mu here) or only
    # gamma_margin = iota / alpha_e (alpha_e is about 0.6)
    assert far_rcbf.alpha_e < 1.0
    for d_sup in (1e10, 1.5e7, 1e7):
        with pytest.raises(
            ls.ConfigurationError,
            match=f"^mu gain 1e\\+300 at disturbance sup norm {d_sup!r} gives a "
            "non-finite envelope offset$",
        ):
            ls.build_iss_envelope(far_rcbf, 1e300, d_sup=d_sup)
    env = ls.build_iss_envelope(far_rcbf, 1e300, d_sup=1e6)
    assert np.isfinite(env.gamma_margin) and env.gamma_margin > env.iota > 1e307


def test_check_iss_envelope_offset_bound(far_rcbf):
    env = ls.build_iss_envelope(far_rcbf, 0.5, d_sup=0.2)
    t = np.arange(0, 3001) * 0.001
    # fast decay stays under the overshoot term alone
    good = synthetic_trajectory(t, 0.1 * np.exp(-3.0 * t))
    verdict = ls.check_iss_envelope(good, env)
    assert verdict.holds
    assert verdict.worst_excess < 0
    # a constant error above the offset floor eventually violates the bound
    bad = synthetic_trajectory(t, np.full(t.size, 0.2))
    verdict = ls.check_iss_envelope(bad, env)
    assert not verdict.holds
    en = np.full(t.size, 0.2)
    bound = env.rtf.m_overshoot * en[0] * np.exp(-env.rtf.beta * t) + env.mu_at_d
    assert verdict.worst_excess == float(np.max(en - bound))
    assert verdict.worst_excess == pytest.approx(0.1, rel=1e-2)


def test_check_iss_envelope_zero_offset_delegates(far_rcbf):
    env0 = ls.build_iss_envelope(far_rcbf, 0.5, d_sup=0.0)
    t = np.arange(0, 2001) * 0.001
    spike = np.zeros(t.size)
    spike[900] = 1e-6
    traj = synthetic_trajectory(t, spike)
    # a naive "excess below zero bound" reading would pass this; the nominal
    # degenerate rule (zero start must stay zero) correctly rejects it
    verdict = ls.check_iss_envelope(traj, env0)
    assert not verdict.holds
    assert verdict.worst_excess > 0
    quiet = synthetic_trajectory(t, np.zeros(t.size))
    assert ls.check_iss_envelope(quiet, env0).holds
    decay = synthetic_trajectory(t, 0.7 * np.exp(-2.5 * t))
    assert (
        ls.check_iss_envelope(decay, env0).holds
        == ls.check_exponential_envelope(decay, env0.rtf.beta, env0.rtf.m_overshoot).holds
    )


def test_practical_rtf_shares_the_nominal_path(far_rcbf):
    rtf = far_rcbf.rtf
    env = ls.build_iss_envelope(far_rcbf, 0.05, d_sup=0.1)
    t = np.arange(0, 1601) * 0.001
    traj = synthetic_trajectory(t, env.iota + 0.6 * np.exp(-rtf.beta * t))
    assert ls.check_practical_rtf(traj, env) == ls.check_rtf_recurrence(
        rtf, traj, shift=env.iota
    )
    assert ls.check_practical_rtf(traj, env).satisfied
    env0 = ls.build_iss_envelope(far_rcbf, 0.05, d_sup=0.0)
    assert ls.check_practical_rtf(traj, env0) == ls.check_rtf_recurrence(rtf, traj)


def test_in_robust_set_shrinks_by_gamma(far_rcbf):
    env = ls.build_iss_envelope(far_rcbf, 0.5, d_sup=0.2)
    assert env.gamma_margin > 0
    z = np.array([0.0, 0.0])
    h0 = float(far_rcbf.barrier.value(z))
    v_b = far_rcbf.alpha_e * h0 - env.gamma_margin
    assert bool(ls.in_robust_set(far_rcbf, env, z, np.array([v_b - 1e-9, 0.0])))
    assert not bool(ls.in_robust_set(far_rcbf, env, z, np.array([v_b + 1e-9, 0.0])))
    # the nominal set still admits the point the robust set rejects
    assert bool(ls.in_recurrent_set(far_rcbf, z, np.array([v_b + 1e-9, 0.0])))


def test_in_robust_set_zero_gamma_delegates(far_rcbf):
    env0 = ls.build_iss_envelope(far_rcbf, 0.5, d_sup=0.0)
    rng = np.random.default_rng(11)
    Z = rng.uniform(-3, 3, size=(64, 2))
    E = rng.uniform(-50, 50, size=(64, 2))
    robust = ls.in_robust_set(far_rcbf, env0, Z, E)
    nominal = ls.in_recurrent_set(far_rcbf, Z, E)
    assert np.array_equal(robust, nominal)
    assert np.any(robust) and not np.all(robust)
    # exact boundary membership is preserved through the delegation
    h0 = float(far_rcbf.barrier.value(np.array([0.0, 0.0])))
    eb = np.array([far_rcbf.alpha_e * h0, 0.0])
    assert bool(ls.in_robust_set(far_rcbf, env0, np.array([0.0, 0.0]), eb))


def test_mu_gain_is_amplitude_free(linear):
    # the filter never engages on quiet starts here, so the loop is linear
    # and the transient ratio must not depend on the probe amplitude
    plant, law = linear["plant"], linear["law"]
    cfg = ls.IntegratorConfig(dt=1e-3, horizon=3.0)
    x0 = np.concatenate([law.goal, np.zeros(2)])
    ratios = []
    for amp in (0.05, 0.2):
        d = ls.make_disturbance("sine", amplitude=amp, frequency=0.5)
        traj = ls.integrate(plant, law, x0, cfg, disturbance=d)
        assert not traj.active.any()
        ratios.append(float(np.max(traj.v)) / amp)
    assert ratios[0] == pytest.approx(ratios[1], rel=1e-9)
    assert 0.1 < ratios[0] < 0.2


def _reference_mu_gain(plant, law, cfg):
    # the recorded gain: per probe, the largest V of its Trajectory over the
    # amplitude, maxed over the probes
    x0 = np.concatenate([law.goal, np.zeros(2)])
    c = 0.0
    for d in (
        ls.make_disturbance("constant", amplitude=0.1),
        ls.make_disturbance("sine", amplitude=0.1, frequency=0.5),
        ls.make_disturbance("sine", amplitude=0.1, frequency=1.0),
    ):
        c = max(c, float(np.max(ls.integrate(plant, law, x0, cfg, disturbance=d).v)) / 0.1)
    return c


@pytest.mark.parametrize("world, horizon", [("of", 2.0), ("of", 6.0), ("td", 2.0)])
def test_mu_gain_folds_the_recorded_maximum(world, horizon, request):
    # each probe folds its largest ||e_dot|| as the kernel runs, with the
    # bits of the recorded Trajectory.v's maximum
    w = request.getfixturevalue(world)
    cfg = ls.IntegratorConfig(dt=1e-3, horizon=horizon)
    c = ls.estimate_mu_gain(w["plant"], w["law"], cfg)
    assert _bits(c) == _bits(_reference_mu_gain(w["plant"], w["law"], cfg))
    if world == "of" and horizon == 2.0:  # the benchmark's calibration
        assert c == MU_GAIN


def test_mu_gain_records_nothing(of, monkeypatch):
    # the probes run the kernel alone: no integrate_batch, one rk4_step per
    # step and 3 signal calls per probe
    calls = {"integrate_batch": 0, "rk4_step": 0, "signal": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in ("integrate_batch", "rk4_step"):
        monkeypatch.setattr(dynamics, name, counted(name, getattr(dynamics, name)))
    make = robustness.make_disturbance

    def counted_make(kind, **fields):
        d = make(kind, **fields)
        return dataclasses.replace(d, signal=counted("signal", d.signal))

    monkeypatch.setattr(robustness, "make_disturbance", counted_make)
    cfg = ls.IntegratorConfig(dt=1e-3, horizon=2.0)
    assert ls.estimate_mu_gain(of["plant"], of["law"], cfg) == MU_GAIN
    assert calls == {"integrate_batch": 0, "rk4_step": 3 * cfg.n_steps, "signal": 9}


def test_mu_gain_probe_divergence_matches_integrate(of):
    # a plant that blows up: the first probe raises the DivergenceError the
    # same rollout raises through integrate, at the same step and time
    plant = lambda x, u: (x[2], x[3], u[0] + 1000.0 * x[2], u[1])
    law, cfg = of["law"], ls.IntegratorConfig(dt=1e-3, horizon=2.0)
    x0 = np.concatenate([law.goal, np.zeros(2)])
    with pytest.raises(ls.DivergenceError) as recorded:
        ls.integrate(plant, law, x0, cfg, disturbance=ls.make_disturbance("constant", amplitude=0.1))
    with pytest.raises(ls.DivergenceError) as folded:
        ls.estimate_mu_gain(plant, law, cfg)
    assert str(folded.value) == str(recorded.value)
    assert re.fullmatch(r"non-finite state at step \d+ \(t=\S+\), run 0", str(folded.value))


def test_mu_gain_frozen_regression(of):
    # default schedule: constant plus two sine probes at amplitude 0.1; the
    # 0.5 Hz probe sits near the loop's peak gain and sets the value
    c = ls.estimate_mu_gain(of["plant"], of["law"], ls.IntegratorConfig(dt=1e-3, horizon=6.0))
    assert c == MU_GAIN
    # the sweep must exceed the DC gain 1/k_d = 0.125 of this loop
    assert c > 0.125
