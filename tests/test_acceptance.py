"""End-to-end acceptance checks, one test per shipped guarantee.

Each test prints a single PASS line with its measured values and the
tolerance it was held to; run with -s (or -rP) to see the lines. A failed
assertion is the corresponding FAIL line.
"""
import dataclasses
import math
import time

import numpy as np

import layersafe as ls
from conftest import MU_GAIN, error_starts, synthetic_trajectory

BETA = 2.45
M_OVERSHOOT = 3.24


def _flat_barrier(grad_bound):
    """Constant-value barrier carrying an arbitrary declared gradient bound."""
    return ls.BarrierFn(vg_fn=lambda z: (10.0, (1.0, 0.0)), grad_bound=float(grad_bound))


def test_criterion_01_tracking_envelope_bound(linear):
    rng = np.random.default_rng(7)
    e0 = rng.normal(0.0, 1.0, (100, 2))
    e0 *= (rng.uniform(0.1, 3.0, 100) / np.linalg.norm(e0, axis=1))[:, None]

    t0 = time.perf_counter()
    batch = ls.integrate_batch(
        linear["pair"], linear["law"], error_starts(linear["law"], e0),
        linear["scn"].integrator,
    )
    worst_ratio = 0.0
    min_h = np.inf
    for k in range(100):
        tr = batch.trajectory(k)
        en = np.linalg.norm(tr.e_dot, axis=1)
        bound = M_OVERSHOOT * np.exp(-BETA * tr.t) * en[0]
        worst_ratio = max(worst_ratio, float(np.max(en / bound)))
        min_h = min(min_h, tr.min_h())
        assert ls.check_exponential_envelope(tr, beta=BETA, m=M_OVERSHOOT).holds
    elapsed = time.perf_counter() - t0

    assert worst_ratio <= 1.0 + 1e-9
    assert min_h > 40.0  # the safety filter never engaged on these runs
    assert elapsed < 5.0
    print(
        f"PASS criterion 1: 100 rollouts, worst ||edot||/bound ratio "
        f"{worst_ratio:.6f} <= 1 + 1e-9, {elapsed:.2f}s < 5s"
    )


def test_criterion_02_certified_rate_formula():
    rtf = ls.Rtf(beta=BETA, tau=1.0, m_overshoot=M_OVERSHOOT)
    rc = ls.build_rcbf(rtf, _flat_barrier(1.0), alpha=0.5)
    pinned = 1.95 / 3.24
    rel_pinned = abs(rc.alpha_e - pinned) / pinned
    assert rel_pinned <= 1e-14

    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(1000):
        a1 = rng.uniform(0.1, 2.0)
        a2 = a1 * rng.uniform(1.0, 3.0)
        beta = rng.uniform(0.2, 5.0)
        alpha = beta * rng.uniform(0.05, 0.95)
        c_h = rng.uniform(0.1, 3.0)
        m = rng.uniform(1.0, 5.0)
        rc = ls.build_rcbf(
            ls.Rtf(a1=a1, a2=a2, beta=beta, tau=1.0, m_overshoot=m),
            _flat_barrier(c_h),
            alpha=alpha,
        )
        lhs = rc.alpha_e * a2 * c_h * m / (a1 * a1)
        worst = max(worst, abs(lhs - (beta - alpha)) / (beta - alpha))
    assert worst <= 1e-12
    print(
        f"PASS criterion 2: alpha_e == 1.95/3.24 (rel err {rel_pinned:.2e}), "
        f"identity rel err {worst:.2e} <= 1e-12 on 1000 tuples"
    )


def test_criterion_03_alpha_sign_reproduction(two_disks):
    t0 = time.perf_counter()
    pair = ls.build_pair(two_disks)
    b = ls.build_barrier(two_disks)

    law = ls.build_law(two_disks, b)
    rcbf = ls.build_scenario_rcbf(two_disks, b)
    x0 = ls.initial_state(two_disks, law)
    tr_lo = ls.integrate(pair, law, x0, two_disks.integrator, rcbf=rcbf)
    assert tr_lo.h_v[0] >= 0.0  # the start lies in the certified region
    min_h_lo = tr_lo.min_h()
    assert min_h_lo >= -1e-6

    s_hi = two_disks.with_alpha(5.0)
    law_hi = ls.build_law(s_hi, b)
    tr_hi = ls.integrate(pair, law_hi, ls.initial_state(s_hi, law_hi), s_hi.integrator)
    min_h_hi = tr_hi.min_h()
    assert min_h_hi < 0.0

    s_mid = two_disks.with_alpha(1.0)
    grid = ls.Grid(lower=s_mid.certify_lower, upper=s_mid.certify_upper, counts=(40, 40))
    report = ls.certify_initial_set(s_mid, grid, velocity_mode="desired")
    witnesses = [
        r
        for r in report.records("unsafe_witness")
        if not r.in_s_v and r.min_h < 0.0 and r.first_violation_t > 0.0
    ]
    assert witnesses
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    print(
        f"PASS criterion 3: alpha=0.5 min_h {min_h_lo:.4f} >= -1e-6, "
        f"alpha=5 min_h {min_h_hi:.4f} < 0, alpha=1 grid found "
        f"{len(witnesses)} violating starts outside the certified region, "
        f"{elapsed:.1f}s < 60s"
    )


def test_criterion_04_recurrence_dip_safety(two_disks, tmp_path):
    tau = two_disks.rtf.tau
    art = ls.run_recurrence_demo(two_disks.with_horizon(4.0), out_dir=tmp_path)
    s = art.summary
    assert s["dip_count"] >= 1.0
    assert math.isfinite(s["max_dip_duration"])
    assert s["max_dip_duration"] < tau
    assert s["min_h"] >= -1e-6
    print(
        f"PASS criterion 4: {s['dip_count']:g} certificate dips, longest "
        f"{s['max_dip_duration']:.3f}s < tau {tau:g}s, min_h "
        f"{s['min_h']:.4f} >= -1e-6"
    )


def test_criterion_05_decay_chain_bound(td, td_transit, of, of_run):
    s1 = td["scn"].with_alpha(1.0)
    law1 = ls.build_law(s1, td["barrier"])
    rcbf1 = ls.build_scenario_rcbf(s1, td["barrier"])
    tr1 = ls.integrate(
        td["pair"], law1, ls.initial_state(s1, law1), s1.integrator, rcbf=rcbf1
    )

    runs = [
        ("two-disk transit alpha=0.5", td_transit, td["rcbf"]),
        ("two-disk transit alpha=1", tr1, rcbf1),
        ("disturbed station keeping", of_run, of["rcbf"]),
    ]
    slacks = {}
    for label, tr, rcbf in runs:
        assert tr.h_v[0] >= 0.0 and tr.min_h() >= -1e-6  # certified-safe run
        chain = ls.check_safety_chain(tr, rcbf)
        assert chain.min_slack >= -1e-4
        slacks[label] = chain.min_slack
    worst = min(slacks.values())
    print(
        f"PASS criterion 5: decay-chain slack >= -1e-4 on "
        f"{len(runs)} certified-safe runs (worst {worst:.2e})"
    )


def test_criterion_06_recurrence_window(linear):
    rtf = ls.Rtf(beta=BETA, tau=1.0)
    rng = np.random.default_rng(11)
    e0 = rng.normal(0.0, 1.0, (50, 2))
    e0 *= (rng.uniform(0.05, 2.5, 50) / np.linalg.norm(e0, axis=1))[:, None]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=1.2)
    batch = ls.integrate_batch(
        linear["pair"], linear["law"], error_starts(linear["law"], e0), cfg
    )
    verdicts = [ls.check_rtf_recurrence(rtf, batch.trajectory(k)) for k in range(50)]
    assert all(v.satisfied for v in verdicts)

    t = np.arange(0, 1.2 + 1e-12, 0.001)
    analytic = ls.check_rtf_recurrence(rtf, synthetic_trajectory(t, np.exp(-BETA * t)))
    assert analytic.satisfied
    assert abs(analytic.margin) <= 1e-12
    print(
        f"PASS criterion 6: recurrence satisfied on 50/50 rollouts, analytic "
        f"pure-decay margin {analytic.margin:.2e} within 1e-12"
    )


COARSE_TWO_DISKS = """\
start = -1.2, 0.3
goal = 2.0, 0.0
obstacle.1.center = -0.1, 0.3
obstacle.1.radius = 0.5
obstacle.2.center = 1.3, -0.3
obstacle.2.radius = 0.5
gains.kp = 1.8
gains.kd = 8.0
gains.alpha = 0.5
rtf.tau = 1.5
sim.dt = 0.01
sim.horizon = 0.8
"""


def test_criterion_07_containment_oracle():
    scn = ls.parse_scenario(COARSE_TWO_DISKS, name="coarse_two_disks")
    pair = ls.build_pair(scn)
    b = ls.build_barrier(scn)
    law = ls.build_law(scn, b)
    rcbf = ls.build_scenario_rcbf(scn, b)
    dt = scn.integrator.dt
    tau = 0.6

    rng = np.random.default_rng(20260818)
    worst = 0.0
    n_nonempty = 0
    for i in range(50):
        z0 = rng.uniform([-1.5, -1.2], [2.2, 1.2])
        v0 = rng.uniform(-1.0, 1.0, 2)
        x0 = np.concatenate([z0, v0])
        if i % 2 == 0:
            c = rng.uniform(0.0, 1.0)
            pred = lambda tr, c=c: tr.h >= c
        else:
            c = rng.uniform(-0.5, 0.3)
            pred = lambda tr, c=c: tr.h_v >= c
        coarse_traj = ls.integrate(pair, law, x0, scn.integrator, rcbf=rcbf)
        coarse = ls.containment_times(coarse_traj, pred, (0.0, tau))
        fine = ls.brute_force_containment_oracle(scn, x0, pred, tau, dt_fine=dt / 10)
        gap = ls.containment_gap(coarse, fine)
        worst = max(worst, gap)
        n_nonempty += 1 if coarse.size else 0
    assert worst <= dt * (1.0 + 1e-9)
    assert n_nonempty >= 20  # the predicates actually bite on many runs
    print(
        f"PASS criterion 7: 50 runs, worst coarse-vs-fine containment gap "
        f"{worst:.4f} <= dt {dt:g} ({n_nonempty} runs with nonempty coarse sets)"
    )


def test_criterion_08_disturbance_reduction_and_robustness(linear, td, of, of_run):
    # zero disturbance: the disturbed path reduces to the nominal one exactly
    x0 = error_starts(linear["law"], [[1.0, 0.5]])[0]
    cfg = ls.IntegratorConfig(dt=0.001, horizon=1.5)
    tr = ls.integrate(linear["pair"], linear["law"], x0, cfg)
    tr_d0 = ls.integrate(
        linear["pair"], linear["law"], x0, cfg,
        disturbance=ls.make_disturbance("none"),
    )
    for a, b in ((tr.x, tr_d0.x), (tr.u, tr_d0.u), (tr.h, tr_d0.h)):
        assert np.array_equal(a, b)

    env0 = ls.build_iss_envelope(linear["rcbf"], MU_GAIN, 0.0)
    iss0 = ls.check_iss_envelope(tr, env0)
    nom = ls.check_exponential_envelope(tr, beta=BETA, m=M_OVERSHOOT)
    assert iss0.holds == nom.holds
    assert ls.check_practical_rtf(tr, env0) == ls.check_rtf_recurrence(
        linear["rtf"], tr
    )
    rng = np.random.default_rng(3)
    z_pts = rng.uniform(td["scn"].certify_lower, td["scn"].certify_upper, (1000, 2))
    e_pts = rng.uniform(-2.0, 2.0, (1000, 2))
    env0_td = ls.build_iss_envelope(td["rcbf"], MU_GAIN, 0.0)
    robust0 = ls.in_robust_set(td["rcbf"], env0_td, z_pts, e_pts)
    nominal = ls.in_recurrent_set(td["rcbf"], z_pts, e_pts)
    assert np.array_equal(robust0, nominal)
    assert robust0.any() and not robust0.all()

    # sinusoidal amplitude 0.1 from a start inside the shrunken region
    env = ls.build_iss_envelope(of["rcbf"], MU_GAIN, 0.1)
    assert ls.in_robust_set(of["rcbf"], env, of_run.z[0], of_run.e_dot[0])
    assert of_run.min_h() >= -1e-6
    prtf = ls.check_practical_rtf(of_run, env)
    assert prtf.satisfied

    # the shrunken certified region is contained in the nominal one
    rng = np.random.default_rng(5)
    z_grid = rng.uniform(-6.0, 6.0, (10_000, 2))
    e_grid = rng.uniform(-4.0, 4.0, (10_000, 2))
    in_d = ls.in_robust_set(of["rcbf"], env, z_grid, e_grid)
    in_n = ls.in_recurrent_set(of["rcbf"], z_grid, e_grid)
    assert np.all(in_n[in_d])
    assert in_d.any() and (in_n & ~in_d).any() and not in_n.all()
    print(
        f"PASS criterion 8: zero-disturbance checks match nominal bit-for-bit, "
        f"disturbed run min_h {of_run.min_h():.3f} >= -1e-6 with shifted "
        f"recurrence margin {prtf.margin:.3f}, shrunken region contained in "
        f"nominal on 10000 points ({int(in_d.sum())} robust, {int(in_n.sum())} nominal)"
    )


def test_criterion_09_velocity_filter_projection(td):
    b = td["barrier"]
    rng = np.random.default_rng(99)
    n_total = 10_000
    z = rng.uniform([-2.5, -2.0], [3.0, 2.0], (n_total, 2))
    zd = rng.uniform(-3.0, 3.0, (n_total, 2))
    alphas = np.repeat([0.3, 0.5, 1.0, 2.0], n_total // 4)
    h, n = b.value_and_gradient(z)

    def oracle_block(zb, zdb, hb, nb, alpha):
        # dense search over the constraint boundary plus the unconstrained point
        k = zb.shape[0]
        tvec = np.stack([-nb[:, 1], nb[:, 0]], axis=1)
        p = (-alpha * hb)[:, None] * nb
        feas = np.einsum("ij,ij->i", nb, zdb) + alpha * hb >= 0.0
        s_lo = np.full(k, -10.0)
        s_hi = np.full(k, 10.0)
        best = np.zeros(k)
        for _stage in range(3):
            s = np.linspace(0.0, 1.0, 1001)[None, :] * (s_hi - s_lo)[:, None]
            s += s_lo[:, None]
            cand = p[:, None, :] + s[:, :, None] * tvec[:, None, :]
            dist = np.linalg.norm(cand - zdb[:, None, :], axis=2)
            j = np.argmin(dist, axis=1)
            best = s[np.arange(k), j]
            step = (s_hi - s_lo) / 1000.0
            s_lo = best - step
            s_hi = best + step
        v = p + best[:, None] * tvec
        v[feas] = zdb[feas]
        return v

    worst = 0.0
    n_active = 0
    for lo in range(0, n_total, 2500):
        hi = lo + 2500
        a = float(alphas[lo])
        v_oracle = oracle_block(z[lo:hi], zd[lo:hi], h[lo:hi], n[lo:hi], a)
        comps = [tuple(np.ascontiguousarray(v[lo:hi].T)) for v in (z, zd)]
        v_closed, active, _h, _n = ls.safe_velocity(b, a, *comps)
        v_closed = np.stack(v_closed, axis=-1)
        worst = max(worst, float(np.max(np.linalg.norm(v_closed - v_oracle, axis=1))))
        n_active += int(active.sum())
    assert worst <= 1e-6
    assert 1000 < n_active < 9000  # both branches exercised heavily
    print(
        f"PASS criterion 9: closed form within {worst:.2e} <= 1e-6 of the "
        f"projection oracle on 10000 instances ({n_active} constraint-active)"
    )


def test_criterion_10_deterministic_artifacts(two_disks, tmp_path):
    scn = dataclasses.replace(two_disks.with_horizon(3.0), expectations=())
    arts_a, sum_a = ls.run_case_study(scn, alphas=(0.5, 1.0, 5.0), out_dir=tmp_path / "a")
    arts_b, sum_b = ls.run_case_study(scn, alphas=(0.5, 1.0, 5.0), out_dir=tmp_path / "b")
    n_bytes = 0
    for art_a, art_b in zip(arts_a, arts_b):
        csv_a = art_a.trajectory_csv.read_bytes()
        assert csv_a == art_b.trajectory_csv.read_bytes()
        assert art_a.report_path.read_bytes() == art_b.report_path.read_bytes()
        n_bytes += len(csv_a)
    assert sum_a.read_bytes() == sum_b.read_bytes()

    s_mid = two_disks.with_alpha(1.0)
    grid = ls.Grid(lower=s_mid.certify_lower, upper=s_mid.certify_upper, counts=(12, 12))
    rep1 = ls.certify_initial_set(s_mid, grid, horizon=1.5, velocity_mode="desired", chunk=17)
    rep3 = ls.certify_initial_set(s_mid, grid, horizon=1.5, velocity_mode="desired", chunk=64)
    assert rep1.to_text() == rep3.to_text()
    rep1.point_cloud_csv(tmp_path / "w1.csv")
    rep3.point_cloud_csv(tmp_path / "w3.csv")
    assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w3.csv").read_bytes()
    print(
        f"PASS criterion 10: repeated alpha sweeps byte-identical "
        f"({n_bytes} CSV bytes x 3 runs), grid verdicts identical across "
        f"chunk sizes 17 and 64"
    )
