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

import numpy as np

from ._io import atomic_write_text
from ._vec import vnorm
from .controller import ClosedLoopLaw
from .dynamics import IntegratorConfig, Trajectory, integrate
from .errors import ConfigurationError, HypothesisViolationError
from .recurrence import (
    RecurrentCbf,
    Rtf,
    check_exponential_envelope,
    check_rtf_recurrence,
    check_safety_chain,
)
from .robustness import (
    build_iss_envelope,
    check_iss_envelope,
    check_practical_rtf,
    estimate_mu_gain,
    in_robust_set,
)
from .scenario import (
    Expectation,
    Scenario,
    build_barrier,
    build_disturbance,
    build_law,
    build_pair,
    build_rtf,
    build_scenario_rcbf,
    initial_state,
)

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
    series: dict
    expectation_results: tuple
    digest: str

    @property
    def failed_expectations(self) -> list:
        return [e for e, _a, ok in self.expectation_results if not ok]


def _series(traj: Trajectory, law: ClosedLoopLaw) -> dict:
    """Named per-sample series used by reports and plots."""
    inter = law.evaluate(traj.x)
    return {
        "t": traj.t,
        "h": traj.h,
        "V": traj.v,
        "h_V": traj.h_v,
        "zdot_d_norm": vnorm(np.asarray(inter.z_dot_d, dtype=float)),
        "zdot_s_norm": vnorm(traj.z_s_dot),
        "zdot_norm": vnorm(traj.z_dot),
        "edot_norm": vnorm(traj.e_dot),
    }


def evaluate_expectations(summary: dict, expectations) -> tuple:
    """Judge each declared expectation against a run summary."""
    out = []
    for e in expectations:
        actual = float(summary.get(e.metric, float("nan")))
        out.append((e, actual, e.check(actual)))
    return tuple(out)


def _run_summary(scn: Scenario, traj: Trajectory, law: ClosedLoopLaw, rtf: Rtf, rcbf) -> dict:
    summary = {
        "min_h": float(np.min(traj.h)),
        "min_h_v": float(np.min(traj.h_v)),
        "max_edot": float(np.max(vnorm(traj.e_dot))),
        "final_goal_distance": float(vnorm(traj.z[-1] - law.goal)),
        "rtf_margin": float("nan"),
        "chain_min_slack": float("nan"),
    }
    if traj.horizon + traj.dt / 2 >= rtf.tau:
        summary["rtf_margin"] = check_rtf_recurrence(rtf, traj).margin
    if rcbf is not None:
        summary["chain_min_slack"] = check_safety_chain(traj, rcbf).min_slack
    return summary


def _preamble(scn: Scenario, label: str) -> list:
    return [
        f"scenario digest: {scn.digest()}",
        f"label: {label}",
        "resolved configuration:",
        *scn.resolved_lines(),
    ]


def _report_text(scn: Scenario, label: str, summary: dict, checks: list, exp_results) -> str:
    lines = [
        f"run report: {label}",
        f"scenario digest: {scn.digest()}",
        "",
        "configuration:",
        *(f"  {ln}" for ln in scn.resolved_lines()),
        "",
        "summary:",
        *(f"  {k} = {summary[k]!r}" for k in sorted(summary)),
    ]
    if checks:
        lines += ["", "checks:"]
        lines += [f"  {c}" for c in checks]
    lines += ["", "expectations:"]
    if not exp_results:
        lines.append("  (none declared)")
    for e, actual, ok in exp_results:
        lines.append(f"  {'PASS' if ok else 'FAIL'} {e.render()}  (actual = {actual!r})")
    lines.append("")
    return "\n".join(lines)


def _emit(scn, label, traj, law, summary, checks, out_dir) -> RunArtifacts:
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
        series=_series(traj, law),
        expectation_results=exp_results,
        digest=scn.digest(),
    )


def _build_run(scn: Scenario):
    pair = build_pair(scn)
    b = build_barrier(scn)
    law = build_law(scn, b)
    rtf = build_rtf(scn)
    try:
        rcbf = build_scenario_rcbf(scn, b)
    except HypothesisViolationError:
        rcbf = None
    dist = build_disturbance(scn)
    return pair, b, law, rtf, rcbf, dist


def run_simulate(scn: Scenario, out_dir=None, label: str = "simulate") -> RunArtifacts:
    """One rollout from the scenario start; CSV, report, declared expectations."""
    pair, _b, law, rtf, rcbf, dist = _build_run(scn)
    x0 = initial_state(scn, law)
    traj = integrate(pair, law, x0, scn.integrator, rcbf=rcbf, disturbance=dist)
    summary = _run_summary(scn, traj, law, rtf, rcbf)
    checks = []
    if rcbf is None:
        checks.append(
            "no certified region for this alpha: the recurrence rate does not exceed it"
        )
    return _emit(scn, label, traj, law, summary, checks, out_dir)


def run_case_study(scn: Scenario, alphas, out_dir=None):
    """One rollout per alpha, all else shared; returns (artifacts list, summary path).

    Declared expectations are judged only on runs at the scenario's own alpha;
    sweep values exist to show sign changes, not to satisfy the declared
    config's checks. Alphas at or above the recurrence rate roll out with no
    recurrent-barrier column (h_V is NaN) and say so in their report.
    Alphas whose labels coincide (f"{alpha:g}") are refused before any run,
    since one run's artifacts would overwrite the other's.
    """
    labels = {}
    for alpha in alphas:
        tag = f"{alpha:g}"
        if tag in labels:
            raise ConfigurationError(
                f"alphas {labels[tag]!r} and {alpha!r} share the artifact label"
                f" case_study_alpha_{tag}"
            )
        labels[tag] = alpha
    out_dir = default_out_dir() if out_dir is None else Path(out_dir)
    artifacts = []
    rows = []
    for alpha in alphas:
        scn_a = scn.with_alpha(float(alpha))
        if float(alpha) != scn.gains.alpha:
            # sweep runs at non-declared alphas carry no expectations of their own
            scn_a = dataclasses.replace(scn_a, expectations=())
        pair, _b, law, rtf, rcbf, dist = _build_run(scn_a)
        x0 = initial_state(scn_a, law)
        traj = integrate(pair, law, x0, scn_a.integrator, rcbf=rcbf, disturbance=dist)
        summary = _run_summary(scn_a, traj, law, rtf, rcbf)
        rtf_v = (
            check_rtf_recurrence(rtf, traj)
            if traj.horizon + traj.dt / 2 >= rtf.tau
            else None
        )
        # the exponential envelope constrains error-only starts; a quiet start
        # (zero initial tracking error) has no meaningful ratio to report
        e0 = float(np.hypot(traj.e_dot[0, 0], traj.e_dot[0, 1]))
        env_v = (
            check_exponential_envelope(traj, rtf.beta, scn_a.rtf_constants.m_overshoot)
            if e0 > 0
            else None
        )
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
        if rcbf is None:
            checks.append(
                "no certified region for this alpha: the recurrence rate does not exceed it"
            )
        label = f"case_study_alpha_{alpha:g}"
        art = _emit(scn_a, label, traj, law, summary, checks, out_dir)
        artifacts.append(art)
        env_word = "n/a" if env_v is None else ("yes" if env_v.holds else "no")
        rows.append(
            f"alpha={alpha:g}  min_h={summary['min_h']!r}  min_h_v={summary['min_h_v']!r}"
            f"  rtf_satisfied={'yes' if rtf_v is not None and rtf_v.satisfied else 'no'}"
            f"  envelope_holds={env_word}"
        )
    summary_path = out_dir / "case_study_summary.txt"
    text = "\n".join(
        [
            "alpha sweep summary",
            f"scenario digest: {scn.digest()}",
            f"alphas: {', '.join(f'{a:g}' for a in alphas)}",
            "",
            *rows,
            "",
        ]
    )
    atomic_write_text(summary_path, text)
    return artifacts, summary_path


def negative_intervals(t: np.ndarray, values: np.ndarray) -> list:
    """Inclusive index ranges [i0, i1] of contiguous values < 0 (NaN excluded)."""
    with np.errstate(invalid="ignore"):
        neg = np.asarray(values < 0.0)
    if not np.any(neg):
        return []
    edges = np.diff(neg.astype(np.int8))
    starts = list(np.flatnonzero(edges == 1) + 1)
    ends = list(np.flatnonzero(edges == -1))
    if neg[0]:
        starts.insert(0, 0)
    if neg[-1]:
        ends.append(neg.size - 1)
    return list(zip(starts, ends))


def run_recurrence_demo(scn: Scenario, out_dir=None) -> RunArtifacts:
    """A rollout highlighting recurrent (non-monotone) V with h kept nonnegative.

    Records every interval where h_V < 0, its duration, and the return time;
    requires the recurrence rate to exceed alpha.
    """
    pair, b, law, rtf, rcbf, dist = _build_run(scn)
    if rcbf is None:
        raise HypothesisViolationError(
            "the demo needs a certified region: the recurrence rate must exceed alpha"
        )
    x0 = initial_state(scn, law)
    traj = integrate(pair, law, x0, scn.integrator, rcbf=rcbf, disturbance=dist)
    summary = _run_summary(scn, traj, law, rtf, rcbf)

    dips = negative_intervals(traj.t, traj.h_v)
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
        checks.append(f"max dip duration = {summary['max_dip_duration']!r} (window tau = {rtf.tau!r})")
    else:
        checks.append("no h_V dip occurred for this scenario")
    checks.append(
        "V non-monotone: " + ("yes (recurrent behavior observed)" if v_increase else "no")
    )
    checks.append(f"min_h = {summary['min_h']!r} (safety held)" if summary["min_h"] >= 0 else f"min_h = {summary['min_h']!r} (SAFETY VIOLATED)")
    return _emit(scn, "recurrence_demo", traj, law, summary, checks, out_dir)


def effective_disturbance_bound(traj: Trajectory, law: ClosedLoopLaw) -> float:
    """Max ||d2/dt2 of the filtered velocity|| while the filter stays active.

    Central differences of the recorded filtered velocity, restricted to
    interior samples whose neighbors are also filter-active with the same
    nearest obstacle (the filtered field is smooth there; switching samples
    would differentiate across a kink).
    """
    if traj.n_samples < 3:
        return 0.0
    dt = traj.dt
    acc = (traj.z_s_dot[2:] - traj.z_s_dot[:-2]) / (2.0 * dt)
    active = np.asarray(law.evaluate(traj.x).active, dtype=bool)
    ok = active[:-2] & active[1:-1] & active[2:]
    field = getattr(law.barrier, "field", None)
    if field is not None:
        near = field.nearest(traj.z)
        ok = ok & (near[:-2] == near[1:-1]) & (near[1:-1] == near[2:])
    if not np.any(ok):
        return 0.0
    return float(np.max(vnorm(acc[ok])))


def run_iss(scn: Scenario, out_dir=None, mu_gain: float | None = None) -> RunArtifacts:
    """Disturbed rollout with the ISS envelope, shifted recurrence, and set margin.

    The class-K offset is linear, mu(r) = c r; c is calibrated from constant-
    disturbance quiet-start runs unless supplied.
    """
    pair, b, law, rtf, rcbf, dist = _build_run(scn)
    if rcbf is None:
        raise HypothesisViolationError(
            "the ISS run needs a certified region: the recurrence rate must exceed alpha"
        )
    if mu_gain is None:
        cal_cfg = IntegratorConfig(dt=scn.integrator.dt, horizon=6.0)
        mu_gain = estimate_mu_gain(pair, law, cal_cfg)
    env = build_iss_envelope(rcbf, lambda r: mu_gain * r, dist.sup_norm)

    x0 = initial_state(scn, law)
    traj = integrate(pair, law, x0, scn.integrator, rcbf=rcbf, disturbance=dist)
    summary = _run_summary(scn, traj, law, rtf, rcbf)

    iss_v = check_iss_envelope(traj, env)
    in0 = bool(in_robust_set(rcbf, env, traj.z[0], traj.e_dot[0]))
    prtf = (
        check_practical_rtf(rtf, traj, env)
        if traj.horizon + traj.dt / 2 >= rtf.tau
        else None
    )
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
    return _emit(scn, "iss", traj, law, summary, checks, out_dir)


_PLOT_SCRIPT = '''#!/usr/bin/env python3
"""Plot run CSVs emitted by the layersafe harness.

Usage: python plot_runs.py RUN.csv [RUN2.csv ...]
Writes RUN.png next to each CSV. Requires matplotlib.
"""
import sys
from pathlib import Path

import numpy as np
import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt


def main(paths):
    if not paths:
        print(__doc__)
        return 2
    for p in map(Path, paths):
        with open(p) as fh:
            header = None
            for line in fh:
                if not line.startswith("#"):
                    header = line.strip().split(",")
                    break
        data = np.genfromtxt(p, delimiter=",", comments="#", skip_header=0, names=None)
        data = data[1:] if np.isnan(data[0]).all() else data
        col = {name: i for i, name in enumerate(header)}
        t = data[:, col["t"]]
        fig, axes = plt.subplots(2, 2, figsize=(11, 8))
        axes[0, 0].plot(data[:, col["z1"]], data[:, col["z2"]])
        axes[0, 0].set_title("position path")
        axes[0, 0].set_aspect("equal", adjustable="datalim")
        axes[0, 1].plot(t, data[:, col["h"]])
        axes[0, 1].axhline(0.0, color="k", lw=0.5)
        axes[0, 1].set_title("barrier h(t)")
        axes[1, 0].plot(t, data[:, col["V"]], label="V")
        if not np.isnan(data[:, col["hV"]]).all():
            axes[1, 0].plot(t, data[:, col["hV"]], label="h_V")
            axes[1, 0].axhline(0.0, color="k", lw=0.5)
        axes[1, 0].legend()
        axes[1, 0].set_title("certificate and recurrent barrier")
        speeds = {
            "||zdot||": np.hypot(data[:, col["zdot1"]], data[:, col["zdot2"]]),
            "||zdot_s||": np.hypot(data[:, col["zsdot1"]], data[:, col["zsdot2"]]),
            "||edot||": np.hypot(data[:, col["edot1"]], data[:, col["edot2"]]),
        }
        for name, s in speeds.items():
            axes[1, 1].plot(t, s, label=name)
        axes[1, 1].legend()
        axes[1, 1].set_title("speeds")
        for ax in axes.flat:
            ax.grid(True, alpha=0.3)
        fig.tight_layout()
        out = p.with_suffix(".png")
        fig.savefig(out, dpi=130)
        plt.close(fig)
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
'''


def write_plot_script(out_dir=None) -> Path:
    """Drop a standalone plotting helper next to the artifacts."""
    out_dir = default_out_dir() if out_dir is None else Path(out_dir)
    path = out_dir / "plot_runs.py"
    atomic_write_text(path, _PLOT_SCRIPT)
    return path
