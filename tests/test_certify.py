"""Grid certification verdicts, invariances, and the fine-step oracle."""
import dataclasses
import math
from collections import Counter

import numpy as np
import pytest

import layersafe as ls
from conftest import counting_barrier
from layersafe import cli, harness


def test_grid_validation_and_points():
    g = ls.Grid(lower=[0.0, 0.0], upper=[1.0, 2.0], counts=(2, 3))
    want = [[0, 0], [0, 1], [0, 2], [1, 0], [1, 1], [1, 2]]
    assert np.array_equal(g.points, np.array(want, dtype=float))
    assert g.describe() == "[0.0, 0.0] .. [1.0, 2.0] @ 2x3"
    with pytest.raises(ls.ConfigurationError):
        ls.Grid(lower=[0.0], upper=[1.0, 2.0], counts=(2, 2))
    with pytest.raises(ls.ConfigurationError, match=r"shape \(2,\) and two counts"):
        ls.Grid(lower=[0, 0, 0], upper=[1, 1, 1], counts=(2, 2, 2))
    with pytest.raises(ls.ConfigurationError):
        ls.Grid(lower=[0.0, 0.0], upper=[1.0, 2.0], counts=(2,))
    with pytest.raises(ls.ConfigurationError):
        ls.Grid(lower=[0.0, 3.0], upper=[1.0, 2.0], counts=(2, 2))
    with pytest.raises(ls.ConfigurationError):
        ls.Grid(lower=[0.0, 0.0], upper=[1.0, float("inf")], counts=(2, 2))
    with pytest.raises(ls.ConfigurationError):
        ls.Grid(lower=[0.0, 0.0], upper=[1.0, 2.0], counts=(2, 1))
    # a count that is not an integer was truncated ((2.7, 3) made a 2x3 grid)
    # or parsed ("4"); it is refused, as a non-integer disturbance seed is
    for bad in (
        (2.7, 3), (2.0, 3), ("4", 3), (True, 3), (4, np.float64(3.0)), np.array([4.0, 5.0]),
    ):
        with pytest.raises(ls.ConfigurationError, match="grid counts must be integers, got"):
            ls.Grid(lower=[0, 0], upper=[1, 1], counts=bad)
    # numpy integers are taken and held as plain integers
    for good in ((np.int64(4), 3), np.array([4, 3]), [4, 3]):
        counts = ls.Grid(lower=[0, 0], upper=[1, 1], counts=good).counts
        assert counts == (4, 3) and all(type(c) is int for c in counts)


@pytest.fixture(scope="module")
def small_report(two_disks):
    scn = two_disks.with_horizon(2.0)
    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=(6, 6))
    return scn, ls.certify_initial_set(scn, grid, velocity_mode="desired")


def test_certify_verdict_invariants(small_report):
    scn, report = small_report
    assert report.scenario_hash == scn.digest()
    assert report.alpha == scn.gains.alpha
    assert report.velocity_mode == "desired"
    assert len(report.per_point) == 36
    got = Counter(r.verdict for r in report.per_point)
    assert report.summary == {v: got.get(v, 0) for v in ls.VERDICTS}
    for r in report.per_point:
        assert r.verdict in ls.VERDICTS
        if r.verdict == "unsafe_witness":
            assert r.min_h < -1e-6
            assert r.first_violation_t is not None and r.first_violation_t > 0
        if r.verdict == "certified_safe":
            assert r.in_s_v
            assert r.min_h >= -1e-6
            assert r.first_violation_t is None
        if "not rolled" in r.note:
            assert r.verdict == "outside_S_V"
            assert r.min_h < 0
            assert math.isnan(r.rtf_margin)
            assert (r.first_violation_t == 0.0) == (r.min_h < -1e-6)
        elif r.verdict == "outside_S_V":
            assert not r.in_s_v
    # this box straddles both disks, so every outcome class that matters
    # for the original claim is populated
    assert report.summary["outside_S_V"] > 0
    assert report.summary["certified_safe"] > 0


def test_certify_report_rendering(small_report, tmp_path):
    scn, report = small_report
    text = report.to_text()
    assert f"scenario digest: {scn.digest()}" in text
    assert "velocity mode = desired" in text
    assert "points:" in text and "summary:" in text
    assert f"total: {len(report.per_point)}" in text
    out = tmp_path / "report.txt"
    report.write(out)
    assert out.read_text() == text

    csv = tmp_path / "cloud.csv"
    report.point_cloud_csv(csv)
    lines = csv.read_text().splitlines()
    assert lines[0] == f"# scenario digest: {scn.digest()}"
    assert lines[1] == "x1,x2,verdict,min_h,min_h_v,first_violation_t,in_s_v"
    assert len(lines) == 2 + len(report.per_point)
    assert all(ln.split(",")[-1] in ("0", "1") for ln in lines[2:])

    only = tmp_path / "unsafe.csv"
    report.point_cloud_csv(only, verdict="unsafe_witness")
    n_unsafe = report.summary["unsafe_witness"]
    assert len(only.read_text().splitlines()) == 2 + n_unsafe
    with pytest.raises(ls.ConfigurationError, match="unknown verdict"):
        report.records("bogus")


def _certify_at_chunk(monkeypatch, chunk, *args, **kwargs):
    monkeypatch.setattr(ls.certify, "_CHUNK", chunk)
    return ls.certify_initial_set(*args, **kwargs)


def test_certify_is_chunk_invariant(two_disks, monkeypatch):
    scn = two_disks.with_horizon(1.0)
    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=(5, 5))
    a = _certify_at_chunk(monkeypatch, 7, scn, grid)
    b = _certify_at_chunk(monkeypatch, 5, scn, grid)
    assert a.to_text() == b.to_text()
    for ra, rb in zip(a.per_point, b.per_point):
        assert np.array_equal(ra.point, rb.point)
        assert ra.verdict == rb.verdict
        assert ra.min_h == rb.min_h or (math.isnan(ra.min_h) and math.isnan(rb.min_h))
    # chunk 1 rolls every point alone, on Python floats: the same records,
    # floats compared by their round-trip repr
    short = scn.with_horizon(0.2)
    one, many = (_certify_at_chunk(monkeypatch, c, short, grid) for c in (1, 2048))
    assert repr(one) == repr(many)


def test_certify_is_block_invariant(two_disks, monkeypatch):
    # the folds read the filled rows of buffers reused from block to block:
    # any block size, with the last block full or partial, gives the same
    # records, for a chunk of one point (floats) and of several (columns)
    scn = two_disks.with_horizon(0.05)  # 51 samples
    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=(3, 3))
    seen = set()
    for block in (1, 7, 17, 51, 64):
        monkeypatch.setattr(ls.certify, "_BLOCK", block)
        for chunk in (1, 4):
            seen.add(repr(_certify_at_chunk(monkeypatch, chunk, scn, grid).per_point))
    assert len(seen) == 1


def test_certify_overflowing_starts_are_indeterminate(two_disks, monkeypatch):
    # positions near the float limit overflow h and V in the initial
    # diagnostics, so h_V(0) is NaN, and under -W error a leaked numpy
    # warning would raise. Every start is rolled and h is +inf from the
    # first sample, so none is certified_safe: a start whose state stays
    # finite (x = 1e306, and in safe mode every start) is indeterminate on
    # its barrier value, as are those at x = 5.5e306 and 1e307, whose state
    # loses finiteness in the first step in zero mode; on the float path
    # (chunk 1) and the column path alike
    scn = two_disks.with_horizon(0.05)
    grid = ls.Grid(lower=[1e306, -1], upper=[1e307, 1], counts=(3, 3))
    for mode in ("zero", "safe"):
        reports = [
            _certify_at_chunk(monkeypatch, c, scn, grid, velocity_mode=mode) for c in (1, 3, 2048)
        ]
        got = Counter(r.verdict for r in reports[0].per_point)
        assert got == {"indeterminate": 9}, mode
        for r in reports[0].records("indeterminate"):
            assert r.note == "rollout lost finiteness at t=0" and r.min_h == np.inf
        assert reports[0].to_text() == reports[1].to_text() == reports[2].to_text()


@pytest.mark.parametrize(
    "name, mode, counts",
    [("two_disks", "desired", (6, 6)), ("two_disks", "safe", (6, 6)), ("open_field", "safe", (2, 2))],
)
def test_certify_minima_match_single_rollouts(name, mode, counts, request):
    # certify's streaming minima equal those of a K=1 integrate bit for bit;
    # open_field carries its declared sine disturbance into both
    scn = request.getfixturevalue(name).with_horizon(0.1)
    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=counts)
    report = ls.certify_initial_set(scn, grid, velocity_mode=mode)
    plant, law, rcbf, dist = ls.build_loop(scn)
    x0s = ls.initial_states(scn, law, grid.points, mode=mode)
    rolled = [i for i, r in enumerate(report.per_point) if "not rolled" not in r.note]
    assert len(rolled) >= 4
    for i in rolled:
        traj = ls.integrate(
            plant, law, x0s[i], scn.integrator, rcbf=rcbf,
            disturbance=dist if dist.kind != "none" else None,
        )
        rec = report.per_point[i]
        assert (rec.min_h, rec.min_h_v) == (float(np.min(traj.h)), float(np.min(traj.h_v))), i


def _single_run_mismatches(scn, report):
    """Rolled points whose (min_h, min_h_v, rtf_margin) differ in any bit from
    the summary of a K=1 run of the run commands from the same start."""
    bad = []
    for r in report.per_point:
        if "not rolled" in r.note:
            continue
        start = dataclasses.replace(scn, start=r.point, velocity_mode=report.velocity_mode)
        s = harness._roll(start, ls.build_loop(start)).summary
        want = (s["min_h"], s["min_h_v"], s["rtf_margin"])
        if (r.min_h, r.min_h_v, r.rtf_margin) != want:
            bad.append((tuple(r.point.tolist()), (r.min_h, r.min_h_v, r.rtf_margin), want))
    return bad


@pytest.mark.parametrize("mode", ["safe", "desired"])
def test_certify_verdict_quantities_match_run_summaries(two_disks, mode):
    # certify and the run commands report the same minima and RTF margin from
    # every rolled start; a 1.6 s horizon covers the 1.5 s window
    scn = two_disks.with_horizon(1.6)
    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=(10, 10))
    report = ls.certify_initial_set(scn, grid, velocity_mode=mode)
    assert sum("not rolled" not in r.note for r in report.per_point) >= 80
    assert _single_run_mismatches(scn, report) == []


def test_certify_window_ends_half_a_step_past_tau(two_disks):
    # tau / dt = 2.5: the window (0, tau] to half a step holds the samples at
    # t = 0.02, 0.04 and 0.06 in certify as in the run commands
    scn = dataclasses.replace(
        two_disks,
        integrator=ls.IntegratorConfig(dt=0.02, horizon=2.0),
        rtf=dataclasses.replace(two_disks.rtf, tau=0.05),
    )
    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=(3, 3))
    report = ls.certify_initial_set(scn, grid, velocity_mode="desired")
    assert sum("not rolled" not in r.note for r in report.per_point) >= 7
    assert _single_run_mismatches(scn, report) == []


def test_certify_needs_a_certified_region(two_disks, tmp_path, capsys):
    # beta = 2.45 <= alpha = 5: refused by build_loop's one rule, in the
    # library and on the command line, and nothing is written
    grid = ls.Grid(lower=two_disks.certify_lower, upper=two_disks.certify_upper, counts=(3, 3))
    with pytest.raises(
        ls.HypothesisViolationError,
        match="^certify needs a certified region: the recurrence rate must exceed alpha$",
    ):
        ls.certify_initial_set(two_disks.with_alpha(5.0), grid, horizon=0.05)
    out = tmp_path / "out"
    argv = ["certify", "two_disks", "--alpha", "5", "--grid", "pos:3x3", "--out", str(out)]
    assert cli.main(argv) == 2
    assert "error: certify needs a certified region" in capsys.readouterr().err
    assert not out.exists()


def test_certify_names_the_velocity_mode_it_was_passed(two_disks):
    # the caller wrote velocity_mode, not the scenario key sim.initial_velocity
    grid = ls.Grid(lower=two_disks.certify_lower, upper=two_disks.certify_upper, counts=(2, 2))
    with pytest.raises(
        ls.ConfigurationError,
        match=r"^velocity_mode must be one of \('safe', 'desired', 'zero'\), got 'bogus'$",
    ):
        ls.certify_initial_set(two_disks.with_horizon(0.05), grid, velocity_mode="bogus")


def test_one_barrier_pass_per_rk4_stage(two_disks, monkeypatch):
    # the law runs once per RK4 stage, stage 1 doubles as the recorded sample
    # and one more pass records the last: 4 n_steps + 1 per rollout, with h
    # and h_V taken from those passes
    scn = two_disks.with_horizon(0.05)
    n_steps = scn.integrator.n_steps
    b, calls = counting_barrier(scn.field, monkeypatch)
    monkeypatch.setattr(ls.scenario, "build_barrier", lambda _scn: b)
    plant, law, rcbf, _ = ls.build_loop(scn)
    x0 = ls.initial_state(scn, law)
    calls.clear()
    ls.integrate(plant, law, x0, scn.integrator, rcbf=rcbf)
    assert (calls["vg"], calls["value"]) == (4 * n_steps + 1, 0)

    grid = ls.Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=(3, 3))
    calls.clear()
    report = _certify_at_chunk(monkeypatch, 2, scn, grid, velocity_mode="desired")
    rolled = sum("not rolled" not in r.note for r in report.per_point)
    n_chunks = -(-rolled // 2)
    assert n_chunks >= 2
    # one pass over every start for the initial diagnostics, then per chunk
    assert (calls["vg"] - 1, calls["value"]) == (n_chunks * (4 * n_steps + 1), 0)


def test_fine_step_oracle_agrees_with_coarse(two_disks, td):
    scn = two_disks
    tau = 0.5
    x0 = ls.initial_state(scn, td["law"])
    cfg = ls.IntegratorConfig(dt=scn.integrator.dt, horizon=tau)
    coarse_traj = ls.integrate(td["plant"], td["law"], x0, cfg, rcbf=td["rcbf"])
    # h decays from 0.6 through 0.52 inside this window, so the containment
    # set is a proper prefix with a genuine boundary crossing
    predicate = lambda tr: tr.h >= 0.52
    coarse = ls.containment_times(coarse_traj, predicate, (0.0, tau))
    assert 0 < coarse.size < coarse_traj.t.size - 1
    fine = ls.brute_force_containment_oracle(scn, x0, predicate, tau, dt_fine=1e-4)
    assert fine.size > 0
    gap = ls.containment_gap(coarse, fine)
    assert gap <= scn.integrator.dt * (1 + 1e-9)


def test_fine_step_oracle_validation(two_disks):
    x0 = np.array([0.0, 2.0, 0.0, 0.0])
    with pytest.raises(ls.ConfigurationError, match="dt_fine must be positive"):
        ls.brute_force_containment_oracle(two_disks, x0, lambda tr: tr.h > 0, 0.5, 0.0)
    with pytest.raises(ls.ConfigurationError, match="at most a tenth"):
        ls.brute_force_containment_oracle(two_disks, x0, lambda tr: tr.h > 0, 0.5, 2e-4)
    # the dense grid reaches tau in the least whole number of fine steps, to
    # 1e-9 relative: 715 of 7e-5 s for 0.05 s, where the 714 nearest it
    # ended at 0.04998, and 1000 for 0.07 s (0.07 / 7e-5 = 1000.0000000000002);
    # the window (0, tau] holds the first n_in fine samples, where h > 0
    for tau, n_fine, n_in in ((0.05, 715, 714), (0.07, 1000, 1000)):
        runs = []
        times = ls.brute_force_containment_oracle(
            two_disks, x0, lambda tr: runs.append(tr) or tr.h > 0, tau, 7e-5
        )
        t = runs[0].t
        assert t.size == n_fine + 1 and t[-1] >= tau * (1 - 1e-9) and t[-2] < tau
        assert np.array_equal(times, t[1 : n_in + 1])


def test_containment_gap_edge_cases():
    assert ls.containment_gap([], [0.1, 0.2]) == 0.0
    assert ls.containment_gap([], []) == 0.0
    assert ls.containment_gap([0.1], []) == float("inf")
    gap = ls.containment_gap([0.1, 0.25], [0.09, 0.3])
    assert gap == pytest.approx(0.05, abs=1e-15)
    assert ls.containment_gap([0.5], [0.5]) == 0.0



def _reference_text(report):
    """CertificateReport.to_text as per-line f-strings, the reference the
    one-table writer must reproduce byte for byte."""
    lines = [
        "initial-set certification report",
        f"scenario digest: {report.scenario_hash}",
        f"alpha = {report.alpha!r}",
        f"velocity mode = {report.velocity_mode}",
        f"horizon = {report.horizon!r}",
        f"grid = {report.grid.describe()}",
        "",
        "configuration:",
    ]
    lines += [f"  {ln}" for ln in report.config_lines]
    lines += ["", "points:"]
    for r in report.per_point:
        pt = ", ".join(f"{float(v):.10g}" for v in r.point)
        viol = "none" if r.first_violation_t is None else f"{r.first_violation_t:.10g}"
        extra = f"  # {r.note}" if r.note else ""
        lines.append(
            f"  ({pt})  {r.verdict}  min_h={r.min_h:.10g}  min_h_v={r.min_h_v:.10g}"
            f"  first_violation_t={viol}  rtf_margin={r.rtf_margin:.10g}"
            f"  in_s_v={int(r.in_s_v)}{extra}"
        )
    lines += ["", "summary:"]
    total = 0
    for v in ls.VERDICTS:
        n = report.summary.get(v, 0)
        total += n
        lines.append(f"  {v}: {n}")
    lines += [f"  total: {total}", ""]
    return "\n".join(lines)


def _reference_csv(report, verdict=None):
    """CertificateReport.point_cloud_csv's file as per-line f-strings."""
    header = "x1,x2,verdict,min_h,min_h_v,first_violation_t,in_s_v"
    out = [f"# scenario digest: {report.scenario_hash}", header]
    for r in report.records(verdict):
        coords = ",".join(f"{float(v):.17g}" for v in r.point)
        viol = "" if r.first_violation_t is None else f"{r.first_violation_t:.17g}"
        out.append(
            f"{coords},{r.verdict},{r.min_h:.17g},{r.min_h_v:.17g},{viol},{int(r.in_s_v)}"
        )
    return "\n".join(out) + "\n"


def _crafted_report(grid, rows):
    """A report over ``grid`` whose records take their fields from ``rows``,
    one per grid point in order."""
    records = tuple(
        ls.PointRecord(
            point=p, verdict=verdict, min_h=min_h, min_h_v=min_h_v,
            first_violation_t=viol, rtf_margin=margin, in_s_v=in_s_v, note=note,
        )
        for p, (verdict, min_h, min_h_v, viol, margin, in_s_v, note) in zip(grid.points, rows)
    )
    got = Counter(r.verdict for r in records)
    return ls.CertificateReport(
        scenario_hash="0" * 64, alpha=0.5, velocity_mode="desired", horizon=2.0, grid=grid,
        per_point=records, summary={v: got.get(v, 0) for v in ls.VERDICTS},
        config_lines=("gains.alpha = 0.5", "sim.dt = 0.001"),
    )


def test_report_writers_match_per_line_reference(small_report, tmp_path):
    # the report and point cloud writers format their tables in one pass;
    # every byte equals the per-line f-string writers above, for all four
    # verdicts and both notes, NaN, +-inf and -0.0, no violation time and a
    # selection that holds no point
    inf, nan = float("inf"), float("nan")
    lost = "rollout lost finiteness at t=0.123"
    not_rolled = "initial position violates h >= 0; not rolled out"
    two_axis = _crafted_report(ls.Grid(lower=[-1.0, -0.5], upper=[1.0, 2.0], counts=(2, 3)), [
        ("certified_safe", 0.5, -0.0, None, 0.12345678901234567, True, ""),
        ("unsafe_witness", -inf, nan, 1.25, inf, True, ""),
        ("outside_S_V", -0.25, -1e-300, 0.0, nan, False, not_rolled),
        ("indeterminate", nan, -inf, None, -inf, False, lost),
        ("outside_S_V", 1 / 3, -2.5e17, None, -0.0, False, ""),
        ("unsafe_witness", -1e-5, 0.0, 0.001, 123456789.123, True, ""),
    ])
    for report in (two_axis, small_report[1]):
        assert report.to_text() == _reference_text(report)
        for verdict in (None, *ls.VERDICTS):
            path = tmp_path / "cloud.csv"
            report.point_cloud_csv(path, verdict=verdict)
            assert path.read_text() == _reference_csv(report, verdict), verdict


class _CountingColumn(np.ndarray):
    """A column that records each ufunc call it takes part in: the ufunc's
    name and its operands' types. Results stay counting columns."""

    calls = []

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        _CountingColumn.calls.append((ufunc.__name__, tuple(type(i) for i in inputs)))
        inputs = [i.view(np.ndarray) if isinstance(i, _CountingColumn) else i for i in inputs]
        if out is not None:
            kwargs["out"] = tuple(o.view(np.ndarray) for o in out)
        result = getattr(ufunc, method)(*inputs, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(_CountingColumn) if isinstance(result, np.ndarray) else result


def test_column_step_takes_no_python_scalar_operand(td, monkeypatch):
    # a certify step on columns: four law evaluations, the RK4 update and the
    # scan's finiteness, V and h_V for its sample. Every ufunc it calls on
    # the state's columns takes its constants as 0-d arrays, never a Python
    # float or int, which numpy converts on every call (NEP 50). The columns
    # are wrapped after split, as np.ascontiguousarray would drop the subclass
    split = ls.dynamics.split
    monkeypatch.setattr(
        ls.dynamics, "split", lambda a: tuple(c.view(_CountingColumn) for c in split(a))
    )
    plant, law, rcbf, scn = td["plant"], td["law"], td["rcbf"], td["scn"]
    x0s = ls.initial_states(scn, law, np.array([[0.0, -1.5], [0.3, -1.2], [-0.2, -1.4]]))
    calls = _CountingColumn.calls
    counts = []
    for n_steps in (2, 4):
        calls.clear()
        with np.errstate(all="ignore"):
            ls.certify._scan_chunk(plant, law, rcbf, x0s, scn.integrator.dt, n_steps, None)
        counts.append(len(calls))
        scalars = [c for c in calls if any(issubclass(t, (float, int)) for t in c[1])]
        assert scalars == []
    assert (counts[1] - counts[0]) / 2 == 225  # ufunc calls per step
