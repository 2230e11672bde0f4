"""Experiment presets: single runs, the alpha sweep, the recurrence demo, and
disturbed ISS runs, each emitting provenance-stamped CSV and report artifacts.

Every artifact embeds the scenario digest and the fully resolved
configuration, so re-running from identical config reproduces byte-identical
files (no timestamps, full-precision floats, atomic writes).
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._io import atomic_write_text
from ._vec import split, vnorm
from .controller import ClosedLoopLaw
from .dynamics import IntegratorConfig, Trajectory, integrate
from .errors import ConfigurationError, DivergenceError
from .recurrence import (
    _covers_window,
    check_exponential_envelope,
    check_rtf_recurrence,
    check_safety_chain,
    scan,
)
from .robustness import (
    build_iss_envelope,
    check_iss_envelope,
    check_practical_rtf,
    estimate_mu_gain,
)
from .scenario import Loop, Scenario, build_loop, initial_state

OUT_DIR_ENV = "LAYERSAFE_OUT"


def default_out_dir() -> Path:
    """Artifact directory: $LAYERSAFE_OUT if set, else ./runs."""
    return Path(os.environ.get(OUT_DIR_ENV, "runs"))


@dataclass(frozen=True)
class RunArtifacts:
    """Paths and in-memory results of one rollout experiment."""

    label: str
    trajectory_csv: Path
    report_path: Path
    summary: dict
    expectation_results: tuple

    @property
    def failed_expectations(self) -> list:
        return [e for e, _a, ok in self.expectation_results if not ok]


def evaluate_expectations(summary: dict, expectations) -> tuple:
    """Judge each declared expectation against a run summary."""
    out = []
    for e in expectations:
        actual = float(summary.get(e.metric, float("nan")))
        out.append((e, actual, e.check(actual)))
    return tuple(out)


def _preamble(scn: Scenario, label: str) -> list:
    return [
        f"scenario digest: {scn.digest()}",
        f"label: {label}",
        "resolved configuration:",
        *scn.resolved_lines(),
    ]


def _result_lines(summary: dict, results) -> tuple[list, list]:
    """Summary lines and expectation verdict lines, as reports and the CLI print them."""
    return (
        [f"  {k} = {summary[k]!r}" for k in sorted(summary)],
        [f"  {'PASS' if ok else 'FAIL'} {e.render()}  (actual = {a!r})" for e, a, ok in results],
    )


def _report_text(scn: Scenario, label: str, summary: dict, checks: list, exp_results) -> str:
    summary_lines, verdicts = _result_lines(summary, exp_results)
    lines = [
        f"run report: {label}",
        f"scenario digest: {scn.digest()}",
        "",
        "configuration:",
        *(f"  {ln}" for ln in scn.resolved_lines()),
        "",
        "summary:",
        *summary_lines,
    ]
    if checks:
        lines += ["", "checks:", *(f"  {c}" for c in checks)]
    lines += ["", "expectations:", *(verdicts or ["  (none declared)"]), ""]
    return "\n".join(lines)


def _emit(scn, label, traj, summary, checks, out_dir) -> RunArtifacts:
    out_dir = default_out_dir() if out_dir is None else Path(out_dir)
    exp_results = evaluate_expectations(summary, scn.expectations)
    csv_path = out_dir / f"{label}.csv"
    report_path = out_dir / f"{label}_report.txt"
    traj.to_csv(csv_path, preamble=_preamble(scn, label))
    atomic_write_text(report_path, _report_text(scn, label, summary, checks, exp_results))
    return RunArtifacts(
        label=label,
        trajectory_csv=csv_path,
        report_path=report_path,
        summary=summary,
        expectation_results=exp_results,
    )


class _Run(NamedTuple):
    """A scenario rolled out from its start: the record, and the summary and
    check lines every run reports."""

    traj: Trajectory
    summary: dict
    checks: list


def _roll(scn: Scenario, loop: Loop) -> _Run:
    """Roll ``loop``, the scenario's built closed loop, out from its start.

    A loop with no recurrent barrier (no certified region) rolls with h_V
    NaN and says so. A run whose h is not finite somewhere (it overflowed)
    is refused with a DivergenceError naming the first such time, before any
    check runs. Its recurrence margin is NaN when it is shorter than the window.
    """
    plant, law, rcbf, dist = loop
    checks = []
    if rcbf is None:
        checks.append("no certified region for this alpha: the recurrence rate does not exceed it")
    x0 = initial_state(scn, law)
    traj = integrate(plant, law, x0, scn.integrator, rcbf=rcbf, disturbance=dist)
    # one scan of the whole record; integrate refused a non-finite state, so
    # a finiteness time is h's own overflow, which no check can judge
    rec = scan(traj.t, traj.h, traj.v, traj.h_v, True, scn.rtf, traj.dt)
    if not np.isnan(rec.diverged_t):
        raise DivergenceError(f"non-finite barrier value h at t={float(rec.diverged_t):.6g}")
    summary = {
        "min_h": float(rec.min_h),
        "min_h_v": float(rec.min_h_v),
        "max_edot": float(np.max(traj.v)),
        "final_goal_distance": vnorm(split(traj.z[-1] - law.goal)),
        "rtf_margin": float(rec.rtf_margin) if _covers_window(traj, scn.rtf) else float("nan"),
        "chain_min_slack": (
            check_safety_chain(traj, rcbf).min_slack if rcbf is not None else float("nan")
        ),
    }
    return _Run(traj, summary, checks)


def run_simulate(scn: Scenario, out_dir=None) -> RunArtifacts:
    """One rollout from the scenario start; CSV, report, declared expectations."""
    run = _roll(scn, build_loop(scn))
    return _emit(scn, "simulate", run.traj, run.summary, run.checks, out_dir)


def run_case_study(scn: Scenario, alphas, out_dir=None):
    """One rollout per alpha, all else shared; returns (artifacts list, summary path).

    Declared expectations are judged only on runs at the scenario's own alpha;
    sweep values exist to show sign changes, not to satisfy the declared
    config's checks. Alphas at or above the recurrence rate roll out with no
    recurrent-barrier column (h_V is NaN) and say so in their report.
    Every alpha is validated, and alphas whose labels coincide (f"{alpha:g}")
    are refused, before any run, so a bad sweep writes nothing; colliding
    labels would make one run's artifacts overwrite the other's.
    """
    runs = {}
    for alpha in alphas:
        tag = f"{alpha:g}"
        if tag in runs:
            raise ConfigurationError(
                f"alphas {runs[tag].gains.alpha!r} and {alpha!r} share the artifact label"
                f" case_study_alpha_{tag}"
            )
        scn_a = scn.with_alpha(float(alpha))
        if float(alpha) != scn.gains.alpha:
            # sweep runs at non-declared alphas carry no expectations of their own
            scn_a = dataclasses.replace(scn_a, expectations=())
        runs[tag] = scn_a
    out_dir = default_out_dir() if out_dir is None else Path(out_dir)
    artifacts = []
    rows = []
    for tag, scn_a in runs.items():
        traj, summary, run_checks = _roll(scn_a, build_loop(scn_a))
        e0, rtf = float(traj.v[0]), scn_a.rtf
        rtf_v = check_rtf_recurrence(rtf, traj) if _covers_window(traj, rtf) else None
        # the exponential envelope constrains error-only starts; a quiet start
        # (zero initial tracking error) has no meaningful ratio to report
        env_v = check_exponential_envelope(traj, rtf.beta, rtf.m_overshoot) if e0 > 0 else None
        summary["envelope_worst_ratio"] = (
            env_v.worst_ratio if env_v is not None else float("nan")
        )
        checks = []
        if rtf_v is not None:
            checks.append(
                f"recurrence within tau: {'satisfied' if rtf_v.satisfied else 'not satisfied'}"
                f" (margin = {rtf_v.margin!r})"
            )
        if env_v is not None:
            checks.append(
                f"exponential envelope: {'holds' if env_v.holds else 'violated'}"
                f" (worst ratio = {env_v.worst_ratio!r})"
            )
        else:
            checks.append("exponential envelope: not applicable (zero initial error)")
        checks += run_checks
        label = f"case_study_alpha_{tag}"
        art = _emit(scn_a, label, traj, summary, checks, out_dir)
        artifacts.append(art)
        env_word = "n/a" if env_v is None else ("yes" if env_v.holds else "no")
        rows.append(
            f"alpha={tag}  min_h={summary['min_h']!r}  min_h_v={summary['min_h_v']!r}"
            f"  rtf_satisfied={'yes' if rtf_v is not None and rtf_v.satisfied else 'no'}"
            f"  envelope_holds={env_word}"
        )
    summary_path = out_dir / "case_study_summary.txt"
    text = "\n".join(
        [
            "alpha sweep summary",
            f"scenario digest: {scn.digest()}",
            f"alphas: {', '.join(runs)}",
            "",
            *rows,
            "",
        ]
    )
    atomic_write_text(summary_path, text)
    return artifacts, summary_path


def negative_intervals(values: np.ndarray) -> list:
    """Inclusive index ranges [i0, i1] of contiguous values < 0 (NaN excluded).
    With the mask padded by False at both ends, its edges alternate: each
    run starts at a rising edge and ends one sample before the next fall."""
    edges = np.flatnonzero(np.diff(np.concatenate(([False], np.less(values, 0.0), [False]))))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def run_recurrence_demo(scn: Scenario, out_dir=None) -> RunArtifacts:
    """A rollout highlighting recurrent (non-monotone) V with h kept nonnegative.

    Records every interval where h_V < 0, its duration, and the return time;
    requires the recurrence rate to exceed alpha.
    """
    run = _roll(scn, build_loop(scn, needs_region="the demo"))
    traj, summary = run.traj, run.summary

    dips = negative_intervals(traj.h_v)
    durations = []
    for i0, i1 in dips:
        if i1 == traj.n_samples - 1:
            durations.append(float("inf"))  # never returned within the horizon
        else:
            durations.append(float(traj.t[i1 + 1] - traj.t[i0]))
    v_increase = bool(np.any(np.diff(traj.v) > 0.0))
    summary["dip_count"] = float(len(dips))
    summary["max_dip_duration"] = max(durations) if durations else 0.0
    summary["first_dip_t"] = float(traj.t[dips[0][0]]) if dips else float("nan")
    summary["first_return_t"] = (
        float(traj.t[dips[0][1] + 1])
        if dips and dips[0][1] + 1 < traj.n_samples
        else float("nan")
    )
    summary["v_increase_found"] = 1.0 if v_increase else 0.0

    checks = []
    if dips:
        spans = ", ".join(
            f"[{traj.t[i0]:.6g}, {traj.t[i1]:.6g}]" for i0, i1 in dips
        )
        checks.append(f"h_V dip intervals: {spans}")
        checks.append(f"max dip duration = {summary['max_dip_duration']!r} (window tau = {scn.rtf.tau!r})")
    else:
        checks.append("no h_V dip occurred for this scenario")
    checks.append(
        "V non-monotone: " + ("yes (recurrent behavior observed)" if v_increase else "no")
    )
    checks.append(f"min_h = {summary['min_h']!r} (safety held)" if summary["min_h"] >= 0 else f"min_h = {summary['min_h']!r} (SAFETY VIOLATED)")
    return _emit(scn, "recurrence_demo", traj, summary, checks, out_dir)


def effective_disturbance_bound(traj: Trajectory, law: ClosedLoopLaw) -> float:
    """Max ||d2/dt2 of the filtered velocity|| while the filter stays active.

    Central differences of the recorded filtered velocity, restricted to
    interior samples whose neighbors are also filter-active, as recorded,
    with the same nearest obstacle (the filtered field is smooth there;
    switching samples would differentiate across a kink).
    """
    if traj.n_samples < 3:
        return 0.0
    dt = traj.dt
    acc = (traj.z_s_dot[2:] - traj.z_s_dot[:-2]) / (2.0 * dt)
    active = traj.active
    ok = active[:-2] & active[1:-1] & active[2:]
    field = getattr(law.barrier, "field", None)
    if field is not None:
        near = field.nearest(traj.z)
        ok = ok & (near[:-2] == near[1:-1]) & (near[1:-1] == near[2:])
    if not np.any(ok):
        return 0.0
    return float(np.max(vnorm(split(acc[ok]))))


def run_iss(scn: Scenario, out_dir=None, mu_gain: float | None = None) -> RunArtifacts:
    """Disturbed rollout with the ISS envelope, shifted recurrence, and set margin.

    The class-K offset is linear, mu(r) = c r; unless supplied, c is calibrated
    by estimate_mu_gain from quiet-start runs under a constant disturbance and
    sines at 0.5 and 1 Hz (amplitude 0.1, each the whole number of steps
    nearest 6 s); a supplied c must be finite and > 0. The envelope is built,
    and a gain it refuses is refused, before the disturbed run rolls.
    """
    loop = build_loop(scn, needs_region="the ISS run")
    plant, law, rcbf, dist = loop
    if mu_gain is None:
        dt = scn.integrator.dt
        cal_cfg = IntegratorConfig(dt=dt, horizon=round(6.0 / dt) * dt)
        mu_gain = estimate_mu_gain(plant, law, cal_cfg)
    env = build_iss_envelope(rcbf, mu_gain, dist.sup_norm)
    traj, summary, _ = _roll(scn, loop)
    iss_v = check_iss_envelope(traj, env)
    in0 = bool(traj.h_v[0] - env.gamma_margin >= 0.0)  # h_V(0) as the rollout recorded it
    prtf = check_practical_rtf(traj, env) if _covers_window(traj, scn.rtf) else None
    summary["iss_holds"] = 1.0 if iss_v.holds else 0.0
    summary["iss_worst_excess"] = iss_v.worst_excess
    summary["practical_rtf_margin"] = prtf.margin if prtf is not None else float("nan")
    summary["in_robust_set_initially"] = 1.0 if in0 else 0.0
    summary["iota"] = env.iota
    summary["gamma_margin"] = env.gamma_margin
    summary["mu_gain"] = float(mu_gain)
    summary["d_sup"] = dist.sup_norm
    summary["effective_d_inf"] = effective_disturbance_bound(traj, law)

    checks = [
        f"disturbance: kind={dist.kind} sup_norm={dist.sup_norm!r}",
        f"ISS envelope: {'holds' if iss_v.holds else 'violated'} (worst excess = {iss_v.worst_excess!r})",
        f"initial state in shrunken certified region: {'yes' if in0 else 'no'}",
    ]
    if prtf is not None:
        checks.append(
            f"shifted recurrence: {'satisfied' if prtf.satisfied else 'not satisfied'}"
            f" (margin = {prtf.margin!r})"
        )
    return _emit(scn, "iss", traj, summary, checks, out_dir)
