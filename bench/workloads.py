"""The three closed-loop workloads: inputs from a seed, one op, its check.

Every op's inputs are a function of (seed, op index) only. ``prepare`` builds
them outside the timed region, ``run`` is the timed user call, and ``check``
verifies the op's outputs afterwards. A check returns a list of problems;
an empty list means the op was correct.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
from pathlib import Path

import numpy as np

from layersafe import cli, harness, robustness, scenario
from layersafe.certify import Grid
from layersafe.dynamics import IntegratorConfig, integrate
from layersafe.scenario import (
    DisturbanceSpec,
    build_barrier,
    build_law,
    build_pair,
    build_scenario_rcbf,
    initial_states,
)

MU_GAIN = 0.14257784711889365  # frozen calibrated gain of the bundled open_field law
DEFAULT_SEED = 0


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _rng(seed: int, i: int, stream: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, i, stream])


def _load(name: str):
    # looked up on the module so a traced run sees the call
    return scenario.load_scenario(scenario.bundled_scenario_path(name))


@dataclasses.dataclass
class Op:
    """What a timed call did: run-steps completed and the artifacts it wrote."""

    steps: int
    artifacts: dict
    summary: dict = dataclasses.field(default_factory=dict)


class CertifyGrid:
    """``layersafe certify`` on two_disks: 40x40 lattice, alpha 1, desired velocity.

    The seed shifts the certify box by up to half a lattice cell per axis; the
    shifted scenario is written as a file the CLI loads, as a user would.
    """

    name = "certify_grid"
    counts = (40, 40)
    alpha = 1.0
    horizon = 0.5
    samples_per_op = 2  # rolled points re-integrated at K=1 by each check
    artifact_names = ("certify_report.txt", "certify_points.csv", "unsafe_points.csv")

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        self.nproc = nproc
        scn = _load("two_disks.scn").with_alpha(self.alpha)
        self.scn = scn
        self.pair = build_pair(scn)
        self.barrier = build_barrier(scn)
        self.law = build_law(scn, self.barrier)
        self.rcbf = build_scenario_rcbf(scn, self.barrier)
        self.cfg = IntegratorConfig(dt=scn.integrator.dt, horizon=self.horizon)
        self.cell = (scn.certify_upper - scn.certify_lower) / (np.array(self.counts) - 1)

    def prepare(self, i: int):
        offset = (_rng(self.seed, i).uniform(-0.5, 0.5, size=2)) * self.cell
        scn = dataclasses.replace(
            self.scn,
            certify_lower=self.scn.certify_lower + offset,
            certify_upper=self.scn.certify_upper + offset,
        )
        path = self.work / "scenario.scn"
        path.write_text("\n".join(scn.resolved_lines()) + "\n")
        grid = Grid(lower=scn.certify_lower, upper=scn.certify_upper, counts=self.counts)
        rolled = int(np.count_nonzero(np.asarray(self.barrier.value(grid.points)) >= 0.0))
        out = self.work / "out"
        argv = [
            "certify", str(path),
            "--grid", f"pos:{self.counts[0]}x{self.counts[1]}",
            "--alpha", repr(self.alpha),
            "--velocity", "desired",
            "--horizon", repr(self.horizon),
            "--workers", str(self.nproc),
            "--out", str(out),
        ]
        return argv, out, rolled

    def run(self, inputs) -> Op:
        argv, out, rolled = inputs
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"layersafe certify exited {code}")
        return Op(
            steps=rolled * self.cfg.n_steps,
            artifacts={n: out / n for n in self.artifact_names},
        )

    def check(self, i: int, op: Op) -> list:
        problems = []
        lattice = self.counts[0] * self.counts[1]
        report = op.artifacts["certify_report.txt"].read_text()
        summary = report.split("\nsummary:\n", 1)[1].split()
        counts = dict(zip(summary[0::2], summary[1::2]))
        verdict_sum = sum(int(v) for k, v in counts.items() if k != "total:")
        if verdict_sum != lattice or int(counts.get("total:", -1)) != lattice:
            problems.append(f"verdict counts sum to {verdict_sum}, lattice has {lattice}")
        rows = op.artifacts["certify_points.csv"].read_text().splitlines()[2:]
        if len(rows) != lattice:
            problems.append(f"point CSV has {len(rows)} rows, lattice has {lattice}")
            return problems
        fields = [r.split(",") for r in rows]
        pts = np.array([[float(f[0]), float(f[1])] for f in fields])
        rolled = np.flatnonzero(np.asarray(self.barrier.value(pts)) >= 0.0)
        pick = _rng(self.seed, i, 1).choice(rolled, size=self.samples_per_op, replace=False)
        x0s = initial_states(self.scn, self.law, pts[pick], mode="desired")
        for row, x0 in zip(pick, x0s):
            traj = integrate(self.pair, self.law, x0, self.cfg, rcbf=self.rcbf)
            got = (float(fields[row][3]), float(fields[row][4]))
            want = (float(np.min(traj.h)), float(np.min(traj.h_v)))
            if got != want:
                problems.append(f"point {row}: certify (min_h, min_h_v) {got} != K=1 {want}")
        return problems


class SingleRollout:
    """``harness.run_simulate`` on two_disks from a seeded free-space start.

    Initial-velocity modes alternate between safe and desired. Declared
    expectations (written for the full 10 s transit) are data here, not
    failures.
    """

    name = "single_rollout"
    horizon = 1.0
    artifact_names = ("simulate.csv", "simulate_report.txt")

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        scn = _load("two_disks.scn").with_horizon(self.horizon)
        self.scn = scn
        self.barrier = build_barrier(scn)

    def prepare(self, i: int):
        rng = _rng(self.seed, i)
        lo, hi = self.scn.certify_lower, self.scn.certify_upper
        while True:
            z0 = lo + (hi - lo) * rng.uniform(size=2)
            if float(self.barrier.value(z0)) >= 0.0:
                break
        mode = ("safe", "desired")[i % 2]
        return dataclasses.replace(self.scn, start=z0, velocity_mode=mode)

    def run(self, scn) -> Op:
        art = harness.run_simulate(scn, out_dir=self.work)
        return Op(
            steps=scn.integrator.n_steps,
            artifacts={"simulate.csv": art.trajectory_csv, "simulate_report.txt": art.report_path},
            summary=art.summary,
        )

    def check(self, i: int, op: Op) -> list:
        lines = [
            ln for ln in op.artifacts["simulate.csv"].read_text().splitlines()
            if not ln.startswith("#")
        ]
        col = lines[0].split(",").index("h")
        min_h = min(float(ln.split(",")[col]) for ln in lines[1:])
        if min_h != op.summary["min_h"]:
            return [f"CSV min h {min_h!r} != summary min_h {op.summary['min_h']!r}"]
        return []


class IssCalibrate:
    """``estimate_mu_gain`` on open_field, then ``run_iss`` with that gain.

    Calibration uses the library's schedule (amplitude 0.1; frequencies 0,
    0.5 and 1 Hz) over a 2 s horizon, which reproduces the frozen gain bit
    for bit (a 1.5 s horizon does not). The disturbed run uses a seeded random
    disturbance of amplitude 0.1.
    """

    name = "iss_calibrate"
    calibration_horizon = 2.0
    horizon = 2.0  # at least the recurrence window tau = 1.5 s
    artifact_names = ("iss.csv", "iss_report.txt")

    def __init__(self, seed: int, work: Path, nproc: int):
        self.seed = seed
        self.work = work
        scn = _load("open_field.scn").with_horizon(self.horizon)
        self.scn = scn
        self.pair = build_pair(scn)
        self.law = build_law(scn)
        self.cal_cfg = IntegratorConfig(dt=scn.integrator.dt, horizon=self.calibration_horizon)
        self.cal_steps = 3 * self.cal_cfg.n_steps

    def prepare(self, i: int):
        d_seed = int(_rng(self.seed, i).integers(0, 2**31))
        spec = DisturbanceSpec(kind="random", amplitude=0.1, seed=d_seed)
        return self.scn.with_disturbance(spec)

    def run(self, scn) -> Op:
        gain = robustness.estimate_mu_gain(self.pair, self.law, self.cal_cfg)
        art = harness.run_iss(scn, out_dir=self.work, mu_gain=gain)
        return Op(
            steps=self.cal_steps + scn.integrator.n_steps,
            artifacts={"iss.csv": art.trajectory_csv, "iss_report.txt": art.report_path},
            summary={"mu_gain": gain, **art.summary},
        )

    def check(self, i: int, op: Op) -> list:
        if op.summary["mu_gain"] != MU_GAIN:
            return [f"calibrated gain {op.summary['mu_gain']!r} != {MU_GAIN!r}"]
        return []


WORKLOADS = {w.name: w for w in (CertifyGrid, SingleRollout, IssCalibrate)}
