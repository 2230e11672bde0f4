"""Tracking certificates, recurrence checks, and the recurrent barrier."""
import math

import numpy as np
import pytest

import layersafe as ls
from conftest import synthetic_trajectory
from layersafe.recurrence import fold_first, fold_min, fold_window, scan


def far_barrier():
    return ls.min_distance_barrier(
        ls.ObstacleField(centers=[[50.0, 50.0]], radii=[0.5])
    )


def test_rtf_validation():
    for bad in (
        dict(a1=0.0),
        dict(a1=2.0, a2=1.0),
        dict(beta=0.0),
        dict(tau=-1.0),
        dict(m_overshoot=0.0),
    ):
        with pytest.raises(ls.ConfigurationError):
            ls.Rtf(**bad)


def test_containment_times_window_semantics():
    t = np.arange(11) * 0.1
    traj = synthetic_trajectory(t, np.zeros(11), h=np.where(t < 0.35, 1.0, -1.0))
    ct = ls.containment_times(traj, lambda tr: tr.h > 0, (0.0, 1.0))
    # window excludes t = 0 and includes the endpoint
    assert np.allclose(ct, [0.1, 0.2, 0.3])
    full = ls.containment_times(traj, lambda tr: tr.h > -2, (0.0, 1.0))
    assert full.size == 10
    assert full[-1] == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ls.ConfigurationError):
        ls.containment_times(traj, lambda tr: tr.h > 0, (0.5, 0.5))
    with pytest.raises(ls.ConfigurationError):
        ls.containment_times(traj, lambda tr: tr.h > 0, (0.0, 2.0))
    # a mask without one boolean per sample is refused, not broadcast
    for bad in (np.array([True]), True):
        with pytest.raises(ls.ConfigurationError, match="one boolean per sample"):
            ls.containment_times(traj, lambda tr: bad, (0.0, 1.0))


def test_rtf_recurrence_on_pure_decay():
    # V(t) = V0 e^{-beta t} makes e^{beta t} V(t) constant: margin ~ 0
    beta = 2.45
    t = np.arange(0, 1201) * 0.001
    for v0 in (1.0, 0.3, 7.5):
        traj = synthetic_trajectory(t, v0 * np.exp(-beta * t))
        verdict = ls.check_rtf_recurrence(ls.Rtf(beta=beta, tau=1.0), traj)
        assert verdict.satisfied
        assert abs(verdict.margin) <= 1e-12 * max(1.0, v0)


def test_rtf_recurrence_rejects_slow_decay():
    # decay slower than beta: e^{beta t} V grows, no contained time works
    t = np.arange(0, 1201) * 0.001
    traj = synthetic_trajectory(t, np.exp(-1.0 * t))
    verdict = ls.check_rtf_recurrence(ls.Rtf(beta=2.45, tau=1.0), traj)
    assert not verdict.satisfied
    assert verdict.margin < 0


def test_rtf_recurrence_accepts_late_recovery():
    # V rises inside the window but dips below the scaled start near the end
    t = np.arange(0, 1201) * 0.001
    v = 1.0 + 0.5 * np.sin(8 * t)
    v[1100:] = 1e-4
    traj = synthetic_trajectory(t, v)
    verdict = ls.check_rtf_recurrence(ls.Rtf(beta=2.45, tau=1.2), traj)
    assert verdict.satisfied


def test_rtf_recurrence_shift_and_empty_window():
    beta, shift = 2.0, 0.25
    t = np.arange(0, 1101) * 0.001
    traj = synthetic_trajectory(t, shift + 0.6 * np.exp(-beta * t))
    rtf = ls.Rtf(beta=beta, tau=1.0)
    shifted = ls.check_rtf_recurrence(rtf, traj, shift=shift)
    assert shifted.satisfied
    assert abs(shifted.margin) <= 1e-12
    # without the shift the same series decays too slowly
    assert not ls.check_rtf_recurrence(rtf, traj).satisfied
    # a window shorter than half a step holds no sample: conservative failure
    coarse = synthetic_trajectory(np.arange(3) * 1.0, np.ones(3))
    empty = ls.check_rtf_recurrence(ls.Rtf(beta=beta, tau=0.25), coarse)
    assert empty == ls.RecurrenceVerdict(satisfied=False, margin=float("-inf"))


def _crafted_series():
    """40 samples, dt = 0.05, of three runs: finite throughout, NaN from
    t = 0.6 on, and NaN throughout."""
    t = np.arange(40) * 0.05
    v = np.random.default_rng(7).uniform(-1.0, 2.0, size=(40, 3))
    v[12:, 1] = np.nan
    v[:, 2] = np.nan
    return t, v


def _folded(t, v, size, beta=1.3, tau=1.0, dt=0.05):
    """The three folds of the samples, taken in blocks of ``size``."""
    m = f = None
    w = np.inf
    for i in range(0, t.size, size):
        tb, vb = t[i : i + size], v[i : i + size]
        m, w, f = fold_min(vb, m), fold_window(tb, vb, beta, tau, dt, w), fold_first(tb, vb < 0, f)
    return m, w, f


def _crafted_scan_columns():
    """h, h_V and finiteness next to _crafted_series' V. Run 0: h exactly
    -1e-6 at t = 0.15 (no violation), the next float below at t = 0.45 (a
    violation) and +inf with a finite state at t = 1.5. Run 1: a violation
    at t = 0.7 and a non-finite state at t = 1.05, each the first sample of
    a block of 7. Run 2: a violation at t = 0, +inf at t = 0.35 (first of a
    block of 7) and an all-NaN h_V."""
    rng = np.random.default_rng(11)
    h = rng.uniform(0.1, 1.0, size=(40, 3))
    h[3, 0], h[9, 0], h[30, 0] = -1e-6, np.nextafter(-1e-6, -np.inf), np.inf
    h[14, 1], h[0, 2], h[7, 2] = -0.5, -2.0, np.inf
    h_v = rng.uniform(-1.0, 1.0, size=(40, 3))
    h_v[:, 2] = np.nan
    ok = np.ones((40, 3), dtype=bool)
    ok[21, 1] = False
    return h, h_v, ok


def _scanned(t, h, v, h_v, ok, size, dt=0.05):
    """The scan of the samples, taken in blocks of ``size``."""
    rec = None
    for i in range(0, t.size, size):
        b = slice(i, i + size)
        rec = scan(t[b], h[b], v[b], h_v[b], ok[b], ls.Rtf(beta=1.3, tau=1.0), dt, rec)
    return rec


def test_folds_do_not_depend_on_the_block_size():
    t, v = _crafted_series()
    for series in (v, v[:, 0]):
        want = [np.asarray(r).tobytes() for r in _folded(t, series, t.size)]
        for size in (1, 7):
            assert [np.asarray(r).tobytes() for r in _folded(t, series, size)] == want
    # the scan too, over (B, K) and each run's (B,) column
    h, h_v, ok = _crafted_scan_columns()
    whole = _scanned(t, h, v, h_v, ok, t.size)
    assert whole.first_violation_t.tolist() == [t[9], t[14], t[0]]
    assert whole.diverged_t.tolist() == [t[30], t[21], t[7]]
    assert np.isnan(whole.min_h_v[2]) and whole.window[2] == np.inf
    for cols in ((h, v, h_v, ok), *zip(h.T, v.T, h_v.T, ok.T)):
        want = [np.asarray(f).tobytes() for f in _scanned(t, *cols, t.size)]
        for size in (1, 7):
            assert [np.asarray(f).tobytes() for f in _scanned(t, *cols, size)] == want


def test_fold_nan_rules():
    t, v = _crafted_series()
    m, w, f = _folded(t, v, 7)
    # a run that goes NaN keeps the minima it had; an all-NaN run stays NaN
    # (h_V of a run with no recurrent barrier), and its window counts as empty
    assert m[0] == np.min(v[:, 0]) and m[1] == np.min(v[:12, 1])
    assert np.isnan(m[2])
    inside = (t > 0) & (t <= 1.025)
    assert w[0] == np.min(np.exp(1.3 * t[inside]) * v[inside, 0])
    assert w[1] == np.min(np.exp(1.3 * t[1:12]) * v[1:12, 1])
    assert w[2] == np.inf
    assert np.isnan(f[2])


def test_fold_window_empty_and_first_time_earliest():
    # a window shorter than half a step holds no sample: inf, so the check
    # reports margin -inf and fails
    t = np.arange(3) * 1.0
    assert fold_window(t, np.ones(3), 2.0, 0.25, 1.0) == np.inf
    verdict = ls.check_rtf_recurrence(ls.Rtf(tau=0.25), synthetic_trajectory(t, np.ones(3)))
    assert (verdict.satisfied, verdict.margin) == (False, float("-inf"))
    # hits in two blocks keep the earlier; a run with none yet takes the later
    first = fold_first(t[:2], np.array([[False, False], [True, False]]))
    first = fold_first(t[2:] + 2.0, np.array([[True, True]]), first)
    assert first.tolist() == [1.0, 4.0]


def test_fold_window_zero_v_weighs_zero_where_the_weight_overflows():
    # e^{800 t} overflows past t ~ 0.887: a zero V there weighs 0 (V itself,
    # signed zeros kept), not inf * 0 = NaN, and no warning is raised; a
    # positive V weighs inf and a NaN V is skipped, as at any weight
    t = np.arange(11) * 0.1
    v = np.array([[1.0, 0.0], [2.0, 1.0], [0.5, 0.5], [1.0, 2.0], [1.0, 0.3], [1.0, 0.1],
                  [1.0, 0.2], [1.0, 0.2], [1.0, 0.2], [0.0, -0.0], [np.nan, 0.0]])
    got = fold_window(t, v, 800.0, 1.0, 0.1)
    assert _same_bits(got, np.array([0.0, -0.0]))
    got = fold_window(t[9:], v[9:, 0], 800.0, 1.0, 0.1, prev=np.float64(3.0))
    assert _same_bits(got, np.float64(0.0))
    assert fold_window(t[9:], np.array([1.0, 2.0]), 800.0, 1.0, 0.1) == np.inf


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _mask_fold_window(t, v, beta, tau, dt, prev=None):
    """fold_window by a boolean window mask and a transpose, for any t."""
    sel = (t > 0.0) & (t <= tau + dt / 2)
    m = np.fmin.reduce((np.exp(beta * t[sel]) * v[sel].T).T, axis=0, initial=np.inf)
    return m if prev is None else np.fmin(prev, m)


def _where_fold_first(t, hit, prev=None):
    """fold_first with no shortcut for a block that holds no hit."""
    first = np.where(np.any(hit, axis=0), t[np.argmax(hit, axis=0)], np.nan)
    return first if prev is None else np.where(np.isnan(prev), first, prev)


def test_folds_match_mask_formulas_bit_for_bit():
    # the window is a slice of the increasing sample times, and a block with
    # no hit returns prev itself; blocks start before, inside and after the
    # window (0, 0.525], so windows start, end or vanish mid-block
    rng = np.random.default_rng(19)
    beta, tau, dt = 1.3, 0.5, 0.05
    for start in (0, 3, 8, 10, 11, 20):
        for size in (1, 4, 16):
            t = (start + np.arange(size)) * dt
            for shape in ((size,), (size, 5)):
                v = rng.uniform(-1.0, 2.0, shape)
                v[rng.random(shape) < 0.3] = np.nan
                prev_w = rng.uniform(-1.0, 2.0, shape[1:])
                prev_f = np.where(rng.random(shape[1:]) < 0.5, np.nan, rng.uniform(0, 9, shape[1:]))
                for prev in (None, prev_w, np.full(shape[1:], np.nan)):
                    got = fold_window(t, v, beta, tau, dt, prev)
                    want = _mask_fold_window(t, v, beta, tau, dt, prev)
                    assert _same_bits(got, want), (start, size, shape)
                for p_hit in (0.0, 0.2):
                    hit = rng.random(shape) < p_hit
                    for prev in (None, prev_f):
                        got = fold_first(t, hit, prev)
                        assert _same_bits(got, _where_fold_first(t, hit, prev)), (start, size)
                        if prev is not None and not hit.any():
                            assert got is prev


def test_rtf_recurrence_needs_full_window():
    t = np.arange(0, 500) * 0.001
    traj = synthetic_trajectory(t, np.exp(-3 * t))
    with pytest.raises(ls.ConfigurationError, match="shorter than the window"):
        ls.check_rtf_recurrence(ls.Rtf(beta=2.45, tau=1.0), traj)


def test_exponential_envelope_checks():
    t = np.arange(0, 1001) * 0.001
    inside = synthetic_trajectory(t, 2.0 * np.exp(-2.5 * t))
    assert ls.check_exponential_envelope(inside, beta=2.45, m=1.1).holds
    outside = synthetic_trajectory(t, 2.0 * np.exp(-2.0 * t))
    verdict = ls.check_exponential_envelope(outside, beta=2.45, m=1.1)
    assert not verdict.holds
    assert verdict.worst_ratio > 1.0
    # a zero-error start is degenerate: it holds only if the error stays zero
    assert ls.check_exponential_envelope(
        synthetic_trajectory(t, np.zeros_like(t)), beta=2.45, m=1.1
    ).holds
    v = np.zeros_like(t)
    v[500] = 1.0
    assert not ls.check_exponential_envelope(
        synthetic_trajectory(t, v), beta=2.45, m=1.1
    ).holds


def test_build_rcbf_scaling_constant():
    rtf = ls.Rtf(beta=2.45, tau=1.5)
    rcbf = ls.build_rcbf(rtf, far_barrier(), alpha=0.5)
    assert rcbf.alpha_e == pytest.approx(1.95 / 3.24, rel=1e-12)
    assert rcbf.alpha == 0.5
    # h_V = -V + alpha_e h
    z = np.array([0.0, 0.0])
    e = np.array([0.3, 0.4])
    h0 = float(rcbf.barrier.value(z))
    assert float(rcbf.value(z, e)) == pytest.approx(
        -0.5 + rcbf.alpha_e * h0, rel=1e-12
    )


def test_build_rcbf_requires_rate_ordering():
    rtf = ls.Rtf(beta=2.45, tau=1.5)
    with pytest.raises(ls.HypothesisViolationError, match="must exceed"):
        ls.build_rcbf(rtf, far_barrier(), alpha=2.45)
    with pytest.raises(ls.HypothesisViolationError, match="beta=2.45 <= alpha=5"):
        ls.build_rcbf(rtf, far_barrier(), alpha=5.0)
    with pytest.raises(ls.ConfigurationError):
        ls.build_rcbf(rtf, far_barrier(), alpha=-1.0)


def test_in_recurrent_set_boundary():
    rtf = ls.Rtf(beta=2.45, tau=1.5)
    rcbf = ls.build_rcbf(rtf, far_barrier(), alpha=0.5)
    z = np.array([0.0, 0.0])
    h0 = float(rcbf.barrier.value(z))
    boundary_v = rcbf.alpha_e * h0
    assert bool(ls.in_recurrent_set(rcbf, z, np.array([boundary_v, 0.0])))
    assert not bool(
        ls.in_recurrent_set(rcbf, z, np.array([boundary_v + 1e-9, 0.0]))
    )


def test_safety_chain_matches_analytic_integral():
    # design h to sit exactly on the bound: constant error norm E gives the
    # integral E (1 - e^{-alpha t}) / alpha, so the audited slack is pure
    # quadrature error
    alpha, e_const, h0 = 0.5, 0.8, 2.0
    rtf = ls.Rtf(beta=2.45, tau=1.5)
    rcbf = ls.build_rcbf(rtf, far_barrier(), alpha=alpha)
    t = np.arange(0, 2001) * 0.001
    integral = e_const * (1 - np.exp(-alpha * t)) / alpha
    h = np.exp(-alpha * t) * h0 - integral
    assert np.min(h) > -0.4  # stays above -r so the radial embedding works
    # the chain reads the recorded h; the positions realize the same profile
    # on a radial line toward the obstacle, h(z) = ||z - c|| - r, so the
    # trajectory is consistent with its barrier
    c = np.array([50.0, 50.0])
    z = c + np.stack([-(h + 0.5), np.zeros_like(h)], axis=1)
    n = t.size
    traj = ls.Trajectory(
        dt=0.001,
        t=t,
        x=np.zeros((n, 4)),
        z=z,
        z_dot=np.zeros((n, 2)),
        z_s_dot=np.zeros((n, 2)),
        e=np.zeros((n, 2)),
        e_dot=np.column_stack([np.full(n, e_const), np.zeros(n)]),
        u=np.zeros((n, 2)),
        h=h,
        active=np.zeros(n, dtype=bool),
        v=np.full(n, e_const),
        h_v=np.zeros(n),
    )
    chain = ls.check_safety_chain(traj, rcbf)
    assert np.max(np.abs(chain.slack)) < 5e-7
    # the bound is exact at t = 0 and the trapezoid overestimates the convex
    # integrand, so the minimum slack sits at the start
    assert chain.slack[0] == 0.0
    assert chain.min_slack == 0.0
    assert chain.min_slack_t == 0.0


@pytest.mark.parametrize("alpha, n", [(0.5, 2001), (5.0, 14161), (5.0, 15001), (2e5, 51)])
def test_safety_chain_matches_a_float_loop_past_the_exp_range(alpha, n):
    # I_k = e^{-alpha dt} I_{k-1} + dt/2 (e^{-alpha dt} V_{k-1} + V_k) never
    # forms e^{alpha t}; with h = 0 the slack is I itself, which the audit
    # matches to 1e-9 relative below and past alpha t = log(DBL_MAX) ~ 709.8
    # (alpha t ends at 10, 708, 750 and 1e5), with no warning (warnings are
    # errors in this suite). At 708 each weight e^{alpha t} fits a double but
    # its product with V and their cumsum do not; alpha dt = 2000 puts every
    # sample in a span of its own
    dt = 0.01
    t = np.arange(n) * dt
    v = np.random.default_rng(5).uniform(0.1, 2.0, n)
    rcbf = ls.build_rcbf(ls.Rtf(beta=2.0 * alpha, tau=1.5), far_barrier(), alpha=alpha)
    chain = ls.check_safety_chain(synthetic_trajectory(t, v, h=np.zeros(n)), rcbf)
    decay, integral = math.exp(-alpha * dt), [0.0]
    for k in range(1, n):
        integral.append(decay * integral[-1] + dt / 2 * (decay * v[k - 1] + v[k]))
    np.testing.assert_allclose(chain.slack, integral, rtol=1e-9, atol=0.0)


def test_safety_chain_on_bundled_transit(td, td_transit):
    chain = ls.check_safety_chain(td_transit, td["rcbf"])
    assert chain.slack[0] == 0.0
    assert -1e-4 <= chain.min_slack <= 0.0
