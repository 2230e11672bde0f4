"""Disturbance signals, the ISS envelope, and the shrunken robust set."""
import numpy as np
import pytest

import layersafe as ls
from conftest import MU_GAIN, synthetic_trajectory


@pytest.fixture(scope="module")
def far_rcbf():
    b = ls.min_distance_barrier(
        ls.ObstacleField(centers=[[50.0, 50.0]], radii=[0.5])
    )
    return ls.build_rcbf(ls.Rtf(beta=2.45, tau=1.5), b, alpha=0.5)


def test_disturbance_none_and_zero_amplitude():
    for d in (ls.make_disturbance("none"), ls.make_disturbance("sine", 0.0)):
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


def test_mu_gain_validation(linear):
    with pytest.raises(ls.ConfigurationError):
        ls.estimate_mu_gain(linear["pair"], linear["law"], amplitudes=())
    with pytest.raises(ls.ConfigurationError):
        ls.estimate_mu_gain(linear["pair"], linear["law"], amplitudes=(-0.1,))
    with pytest.raises(ls.ConfigurationError):
        ls.estimate_mu_gain(linear["pair"], linear["law"], frequencies=())
    with pytest.raises(ls.ConfigurationError):
        ls.estimate_mu_gain(linear["pair"], linear["law"], frequencies=(-1.0,))


def test_mu_gain_is_amplitude_free(linear):
    # the filter never engages on quiet starts here, so the loop is linear
    # and the transient ratio must not depend on the probe amplitude
    cfg = ls.IntegratorConfig(dt=1e-3, horizon=3.0)
    c_small = ls.estimate_mu_gain(
        linear["pair"], linear["law"], cfg, amplitudes=(0.05,), frequencies=(0.5,)
    )
    c_large = ls.estimate_mu_gain(
        linear["pair"], linear["law"], cfg, amplitudes=(0.2,), frequencies=(0.5,)
    )
    assert c_small == pytest.approx(c_large, rel=1e-9)
    assert 0.1 < c_small < 0.2


def test_mu_gain_frozen_regression(of):
    # default schedule: constant plus two sine probes at amplitude 0.1; the
    # 0.5 Hz probe sits near the loop's peak gain and sets the value
    c = ls.estimate_mu_gain(of["pair"], of["law"])
    assert c == MU_GAIN
    # the sweep must exceed the DC gain 1/k_d = 0.125 of this loop
    assert c > 0.125
