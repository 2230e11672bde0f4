"""Experiment presets: artifacts, reports, the alpha sweep, demo, and ISS run."""
import dataclasses
import math

import numpy as np
import pytest

import layersafe as ls
from conftest import MU_GAIN, counting_barrier
from layersafe.cli import main
from layersafe.scenario import EXPECT_METRICS

QUIET_WORLD = """\
start = 0.4, 0.0
goal = 0.0, 0.0
obstacle.1.center = 40.0, 0.0
obstacle.1.radius = 0.5
gains.kp = 1.8
gains.kd = 8.0
gains.alpha = 0.5
rtf.tau = 1.0
sim.horizon = 2.0
expect.min_h >= 1000.0
expect.max_edot <= 1000.0
"""


def test_default_out_dir(monkeypatch, tmp_path):
    monkeypatch.setenv("LAYERSAFE_OUT", str(tmp_path / "elsewhere"))
    assert ls.default_out_dir() == tmp_path / "elsewhere"
    monkeypatch.delenv("LAYERSAFE_OUT")
    assert str(ls.default_out_dir()) == "runs"


def test_negative_intervals():
    assert ls.negative_intervals(np.ones(6)) == []
    assert ls.negative_intervals(np.array([-1.0, -2.0, 1, 1, 1, 1])) == [(0, 1)]
    assert ls.negative_intervals(np.array([1, 1, 1, 1, -1.0, -1.0])) == [(4, 5)]
    vals = np.array([1, -1.0, 1, -1.0, -1.0, 1])
    assert ls.negative_intervals(vals) == [(1, 1), (3, 4)]
    with_nan = np.array([np.nan, -1.0, np.nan, 2.0, -3.0, np.nan])
    assert ls.negative_intervals(with_nan) == [(1, 1), (4, 4)]


def test_evaluate_expectations():
    summary = {"min_h": 0.5}
    exps = (
        ls.Expectation(metric="min_h", op=">=", value=0.25),
        ls.Expectation(metric="min_h", op="<", value=0.25),
        ls.Expectation(metric="max_edot", op="<=", value=1.0),  # absent: NaN
    )
    results = ls.evaluate_expectations(summary, exps)
    assert [ok for _e, _a, ok in results] == [True, False, False]
    assert results[0][1] == 0.5
    assert math.isnan(results[2][1])


def test_run_simulate_artifacts(tmp_path):
    scn = ls.parse_scenario(QUIET_WORLD)
    art = ls.run_simulate(scn, out_dir=tmp_path)
    assert art.trajectory_csv == tmp_path / "simulate.csv"
    assert art.report_path == tmp_path / "simulate_report.txt"

    report = art.report_path.read_text()
    assert f"scenario digest: {scn.digest()}" in report
    assert "PASS expect.max_edot <= 1000.0" in report
    assert "FAIL expect.min_h >= 1000.0" in report
    assert len(art.failed_expectations) == 1
    assert art.failed_expectations[0].metric == "min_h"

    text = art.trajectory_csv.read_text()
    assert text.startswith(f"# scenario digest: {scn.digest()}")
    n_pre = 3 + len(scn.resolved_lines())
    data = np.loadtxt(art.trajectory_csv, delimiter=",", skiprows=n_pre + 1)
    assert data.shape == (2001, 20)
    assert np.array_equal(data[:, 0], np.arange(2001) * scn.integrator.dt)
    # every expect.* metric is a summary key, so no expectation reads NaN
    # for want of one; case-study, demo and ISS runs are checked below
    assert set(EXPECT_METRICS) <= art.summary.keys()
    # expected summary metrics for a clean convergent run
    assert art.summary["min_h"] > 30.0
    assert art.summary["final_goal_distance"] < 0.01
    # a quiet start has V(0) = 0, so the one-shot margin is negative data
    assert art.summary["rtf_margin"] <= 0.0
    assert art.summary["chain_min_slack"] <= 0.0


def test_run_simulate_is_reproducible(tmp_path):
    scn = ls.parse_scenario(QUIET_WORLD)
    a = ls.run_simulate(scn, out_dir=tmp_path / "a")
    b = ls.run_simulate(scn, out_dir=tmp_path / "b")
    assert a.trajectory_csv.read_bytes() == b.trajectory_csv.read_bytes()
    assert a.report_path.read_bytes() == b.report_path.read_bytes()


def test_run_whose_barrier_overflows_is_refused(two_disks, tmp_path):
    # a finite start whose squared offset overflows has h = +inf from t = 0;
    # the run is refused, as certify calls such a start indeterminate,
    # rather than reported safe with min_h = inf, and no warning escapes
    far = dataclasses.replace(two_disks.with_horizon(0.05), start=np.array([1e306, 0.0]))
    with pytest.raises(ls.DivergenceError, match=r"non-finite barrier value h at t=0$"):
        ls.run_simulate(far, out_dir=tmp_path / "api")
    text = ls.bundled_scenario_path("two_disks.scn").read_text()
    path = tmp_path / "far.scn"
    text = text.replace("start = -1.2, 0.3", "start = 1e306, 0.0")
    path.write_text(text.replace("sim.horizon = 10.0", "sim.horizon = 0.05"))
    assert main(["simulate", str(path), "--out", str(tmp_path / "cli")]) == 1
    assert not (tmp_path / "api").exists() and not (tmp_path / "cli").exists()


def test_recurrence_verdict_is_checked_only_where_it_is_printed(tmp_path, monkeypatch):
    # case-study prints the recurrence verdict, once per alpha whose run
    # spans tau (1.5 s here), with or without a certified region; the other
    # commands print only the margin their one scan folds
    calls = []
    check = ls.harness.check_rtf_recurrence

    def counted(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(ls.harness, "check_rtf_recurrence", counted)

    def world(name, horizon):
        path = tmp_path / f"{name}_{horizon}.scn"
        text = ls.bundled_scenario_path(f"{name}.scn").read_text()
        path.write_text(text.replace("sim.horizon = 10.0\n", f"sim.horizon = {horizon}\n"))
        return str(path)

    # two_disks misses its declared goal distance in so short a run: exit 1
    out = str(tmp_path / "out")
    for argv, code in (
        (["simulate", world("two_disks", 1.5)], 1),
        (["recurrence-demo", world("two_disks", 1.5)], 1),
        (["iss", world("open_field", 1.5), "--mu-gain", repr(MU_GAIN)], 0),
    ):
        assert main([*argv, "--out", out]) == code
        assert calls == [], argv[0]
    for horizon, n_calls in ((1.5, 2), (1.0, 0)):
        assert main(["case-study", world("two_disks", horizon), "--alphas", "0.5,5", "--out", out]) == 1
        assert len(calls) == n_calls
        calls.clear()


def test_case_study_sweep(two_disks, tmp_path):
    scn = two_disks.with_horizon(2.0)
    arts, summary_path = ls.run_case_study(scn, alphas=(0.5, 1.0, 5.0), out_dir=tmp_path)
    assert [a.label for a in arts] == [
        "case_study_alpha_0.5",
        "case_study_alpha_1",
        "case_study_alpha_5",
    ]
    # declared expectations are judged only at the scenario's own alpha
    assert len(arts[0].expectation_results) == len(two_disks.expectations) > 0
    assert arts[1].expectation_results == ()
    assert arts[2].expectation_results == ()

    # above the recurrence rate there is no certified region: h_V is NaN
    assert math.isnan(arts[2].summary["min_h_v"])
    assert math.isnan(arts[2].summary["chain_min_slack"])
    assert not math.isnan(arts[0].summary["min_h_v"])
    assert "no certified region" in arts[2].report_path.read_text()

    # quiet start: the pure-decay envelope has no meaningful ratio
    for a in arts:
        assert set(EXPECT_METRICS) <= a.summary.keys()
        assert math.isnan(a.summary["envelope_worst_ratio"])
        assert "not applicable (zero initial error)" in a.report_path.read_text()

    text = summary_path.read_text()
    assert "alpha sweep summary" in text
    # the digest echoes the scenario actually swept (horizon differs from bundled)
    assert f"scenario digest: {scn.digest()}" in text
    assert scn.digest() != two_disks.digest()
    for token in ("alpha=0.5", "alpha=1", "alpha=5", "envelope_holds=n/a"):
        assert token in text


def test_recurrence_demo_dips(two_disks, tmp_path):
    art = ls.run_recurrence_demo(two_disks.with_horizon(4.0), out_dir=tmp_path)
    s = art.summary
    assert set(EXPECT_METRICS) <= s.keys()
    # two completed h_V dips on this transit, both shorter than the window
    assert s["dip_count"] == 2.0
    assert s["max_dip_duration"] == pytest.approx(1.221, abs=0.05)
    assert s["max_dip_duration"] < two_disks.rtf.tau
    assert s["first_dip_t"] == pytest.approx(0.312, abs=0.02)
    assert s["first_return_t"] == pytest.approx(1.356, abs=0.05)
    assert s["v_increase_found"] == 1.0
    assert s["min_h"] > 0.25  # safety held throughout the dips
    report = art.report_path.read_text()
    assert "h_V dip intervals:" in report
    assert "V non-monotone: yes" in report
    assert "(safety held)" in report


def test_recurrence_demo_needs_hypothesis(two_disks, tmp_path):
    # beta = 2.45 <= alpha = 5: refused, and nothing is written
    out = tmp_path / "demo"
    with pytest.raises(
        ls.HypothesisViolationError,
        match="^the demo needs a certified region: the recurrence rate must exceed alpha$",
    ):
        ls.run_recurrence_demo(two_disks.with_alpha(5.0).with_horizon(0.05), out_dir=out)
    assert not out.exists()


def test_run_iss_summary(open_field, tmp_path):
    scn = open_field.with_horizon(2.0)
    art = ls.run_iss(scn, out_dir=tmp_path, mu_gain=MU_GAIN)
    s = art.summary
    assert set(EXPECT_METRICS) <= s.keys()
    assert s["mu_gain"] == MU_GAIN
    assert s["d_sup"] == 0.1
    rc = scn.rtf
    iota = rc.a2 * float(np.exp(rc.beta * rc.tau)) * (MU_GAIN * 0.1) / rc.m_overshoot
    assert s["iota"] == iota
    rcbf = ls.build_scenario_rcbf(scn)
    assert s["gamma_margin"] == iota / rcbf.alpha_e
    assert s["iss_holds"] == 1.0
    assert s["iss_worst_excess"] < 0
    assert s["practical_rtf_margin"] > 5.0
    assert s["in_robust_set_initially"] == 1.0
    # station keeping far from the obstacle: the filter never activates
    assert s["effective_d_inf"] == 0.0
    report = art.report_path.read_text()
    assert "ISS envelope: holds" in report
    assert "initial state in shrunken certified region: yes" in report
    assert "shifted recurrence: satisfied" in report


def test_run_iss_calibrates_on_whole_steps(open_field, tmp_path):
    # a step that does not divide the 6 s calibration horizon calibrates over
    # the whole number of steps nearest it (857 of 0.007 s), as the rounded
    # step count did before such horizons were refused
    sim = ls.IntegratorConfig(dt=0.007, horizon=1.75)
    scn = dataclasses.replace(open_field, integrator=sim)
    art = ls.run_iss(scn, out_dir=tmp_path)
    law = ls.build_law(scn)
    cal = ls.IntegratorConfig(dt=0.007, horizon=857 * 0.007)
    assert art.summary["mu_gain"] == ls.estimate_mu_gain(ls.build_pair(scn), law, cal)


def test_run_iss_needs_hypothesis(two_disks, tmp_path):
    # beta = 2.45 <= alpha = 5: refused, and nothing is written
    out = tmp_path / "iss"
    with pytest.raises(
        ls.HypothesisViolationError,
        match="^the ISS run needs a certified region: the recurrence rate must exceed alpha$",
    ):
        ls.run_iss(two_disks.with_alpha(5.0).with_horizon(0.05), out_dir=out)
    assert not out.exists()


def test_presets_without_certified_region(two_disks, tmp_path):
    # beta = 2.45 <= alpha = 5: simulate and case-study roll with no recurrent
    # barrier and say so
    scn = two_disks.with_alpha(5.0).with_horizon(0.05)
    arts = [
        ls.run_simulate(scn, out_dir=tmp_path / "simulate"),
        *ls.run_case_study(scn, alphas=(5.0,), out_dir=tmp_path / "case_study")[0],
    ]
    line = "  no certified region for this alpha: the recurrence rate does not exceed it\n"
    for art in arts:
        assert art.report_path.read_text().count(line) == 1
        rows = [r for r in art.trajectory_csv.read_text().splitlines() if not r.startswith("#")]
        col = rows[0].split(",").index("hV")
        assert len(rows) == scn.integrator.n_steps + 2
        assert all(math.isnan(float(r.split(",")[col])) for r in rows[1:])


def _reevaluated_disturbance_bound(traj, law):
    """effective_disturbance_bound as it was before the rollout recorded the
    filter flag: the law evaluated again at every recorded state."""
    acc = (traj.z_s_dot[2:] - traj.z_s_dot[:-2]) / (2.0 * traj.dt)
    active = np.asarray(law.evaluate(traj.x).active, dtype=bool)
    ok = active[:-2] & active[1:-1] & active[2:]
    near = law.barrier.field.nearest(traj.z)
    ok = ok & (near[:-2] == near[1:-1]) & (near[1:-1] == near[2:])
    if not np.any(ok):
        return 0.0
    return float(np.max(np.sqrt(np.sum(acc[ok] * acc[ok], axis=-1))))


def test_effective_disturbance_bound(of, of_run, td, td_transit):
    assert ls.effective_disturbance_bound(of_run, of["law"]) == 0.0
    # the recorded flag gives the re-evaluated bound bit for bit
    val = ls.effective_disturbance_bound(td_transit, td["law"])
    assert val > 0.0
    assert val == _reevaluated_disturbance_bound(td_transit, td["law"])


def test_run_iss_makes_one_barrier_pass_per_rk4_stage(open_field, monkeypatch, tmp_path):
    # the rollout's 4 n_steps + 1 passes are all: the report reads the
    # recorded filter flag and the recorded h_V(0) instead of evaluating
    # the law or the barrier again
    scn = dataclasses.replace(open_field.with_horizon(0.05), velocity_mode="zero")
    b, calls = counting_barrier(scn.field, monkeypatch)
    monkeypatch.setattr(ls.scenario, "build_barrier", lambda _scn: b)
    ls.run_iss(scn, out_dir=tmp_path, mu_gain=MU_GAIN)
    assert (calls["vg"], calls["value"]) == (4 * scn.integrator.n_steps + 1, 0)
