"""Scenario files: a flat key=value format describing one navigation problem.

A scenario pins the obstacle field, start and goal, loop gains, certificate
constants, integrator settings, an optional disturbance, and declared
expectations on run metrics. Example:

    # two disks between start and goal
    start = -1.2, 0.3
    goal = 2.0, 0.0
    obstacle.1.center = -0.1, 0.3
    obstacle.1.radius = 0.5
    gains.kp = 1.8
    gains.kd = 8.0
    gains.alpha = 0.5
    expect.min_h >= 0.0

Every loaded scenario can echo itself as a canonical resolved-key listing
(defaults filled in, floats at full precision) whose SHA-256 digest stamps
all emitted artifacts; re-parsing the echoed listing reproduces the scenario
exactly.
"""
from __future__ import annotations

import dataclasses
import hashlib
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ._vec import join, split
from .barrier import BarrierFn, ObstacleField, min_distance_barrier
from .controller import ClosedLoopLaw, Gains, assemble_closed_loop, desired_velocity
from .dynamics import IntegratorConfig, ModelPair, double_integrator_pair
from .errors import ConfigurationError, ScenarioError
from .recurrence import RecurrentCbf, Rtf, build_rcbf, norm_rtf
from .robustness import Disturbance, make_disturbance

_OPS = {
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
}

# metrics a run summary may be tested against via expect.* lines
EXPECT_METRICS = (
    "min_h",
    "min_h_v",
    "max_edot",
    "final_goal_distance",
    "rtf_margin",
    "chain_min_slack",
)

_VELOCITY_MODES = ("safe", "desired", "zero")
_OBSTACLE_KEY = re.compile(r"^obstacle\.(\d+)\.(center|radius)$")


@dataclass(frozen=True)
class DisturbanceSpec:
    """Declarative disturbance parameters as they appear in a scenario file."""

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 1.0
    seed: int = 0
    segment: float = 0.1


@dataclass(frozen=True)
class RtfConstants:
    """Certificate constants: sandwich a1 <= 1 <= a2, rate beta, window tau, overshoot M."""

    a1: float = 1.0
    a2: float = 1.0
    beta: float = 2.45
    tau: float = 1.0
    m_overshoot: float = 3.24


@dataclass(frozen=True)
class Expectation:
    """One declared check: <metric> <op> <value>. NaN metrics never pass."""

    metric: str
    op: str
    value: float

    def check(self, actual: float) -> bool:
        if not np.isfinite(actual) and np.isnan(actual):
            return False
        return bool(_OPS[self.op](actual, self.value))

    def render(self) -> str:
        return f"expect.{self.metric} {self.op} {self.value!r}"


def _pair_text(v: np.ndarray) -> str:
    return f"{float(v[0])!r}, {float(v[1])!r}"


@dataclass(frozen=True)
class Scenario:
    """A fully validated navigation problem.

    beta > gains.alpha is not required to load; constructions that need the
    recurrent barrier raise HypothesisViolationError when it fails, and
    rcbf_hypothesis_ok exposes the gate.
    """

    field: ObstacleField
    start: np.ndarray
    goal: np.ndarray
    gains: Gains
    rtf_constants: RtfConstants
    integrator: IntegratorConfig
    disturbance: DisturbanceSpec
    velocity_mode: str
    expectations: tuple
    certify_lower: np.ndarray
    certify_upper: np.ndarray
    name: str = "<scenario>"

    def __post_init__(self):
        for attr in ("start", "goal", "certify_lower", "certify_upper"):
            arr = np.array(getattr(self, attr), dtype=float)
            if arr.shape != (2,) or not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{attr} must be a finite point in R^2")
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)
        if not np.all(self.certify_lower < self.certify_upper):
            raise ConfigurationError("certify.lower must be strictly below certify.upper")
        if self.velocity_mode not in _VELOCITY_MODES:
            raise ConfigurationError(
                f"sim.initial_velocity must be one of {_VELOCITY_MODES}, got {self.velocity_mode!r}"
            )
        rc = self.rtf_constants
        if not (0 < rc.a1 <= 1.0 <= rc.a2):  # the sandwich must hold for V = ||e_dot||
            raise ConfigurationError(
                f"rtf constants need 0 < a1 <= 1 <= a2, got a1={rc.a1!r}, a2={rc.a2!r}"
            )
        if not (rc.beta > 0 and rc.tau > 0 and rc.m_overshoot > 0):
            raise ConfigurationError("rtf.beta, rtf.tau, rtf.M must be positive")

    @property
    def rcbf_hypothesis_ok(self) -> bool:
        return self.rtf_constants.beta > self.gains.alpha

    def resolved_lines(self) -> list[str]:
        """Canonical key=value echo of the full configuration, defaults included."""
        lines = [
            f"start = {_pair_text(self.start)}",
            f"goal = {_pair_text(self.goal)}",
        ]
        for i in range(self.field.count):
            lines.append(f"obstacle.{i + 1}.center = {_pair_text(self.field.centers[i])}")
            lines.append(f"obstacle.{i + 1}.radius = {float(self.field.radii[i])!r}")
        g, rc, sim, d = self.gains, self.rtf_constants, self.integrator, self.disturbance
        lines += [
            f"gains.kp = {g.k_p!r}",
            f"gains.kd = {g.k_d!r}",
            f"gains.alpha = {g.alpha!r}",
            f"rtf.a1 = {rc.a1!r}",
            f"rtf.a2 = {rc.a2!r}",
            f"rtf.beta = {rc.beta!r}",
            f"rtf.tau = {rc.tau!r}",
            f"rtf.M = {rc.m_overshoot!r}",
            f"sim.dt = {sim.dt!r}",
            f"sim.horizon = {sim.horizon!r}",
            f"sim.initial_velocity = {self.velocity_mode}",
            f"disturbance.kind = {d.kind}",
        ]
        if d.kind != "none":
            lines.append(f"disturbance.amplitude = {d.amplitude!r}")
            if d.kind == "sine":
                lines.append(f"disturbance.frequency = {d.frequency!r}")
            if d.kind == "random":
                lines.append(f"disturbance.seed = {d.seed!r}")
                lines.append(f"disturbance.segment = {d.segment!r}")
        lines.append(f"certify.lower = {_pair_text(self.certify_lower)}")
        lines.append(f"certify.upper = {_pair_text(self.certify_upper)}")
        lines += [e.render() for e in self.expectations]
        return lines

    def digest(self) -> str:
        text = "\n".join(self.resolved_lines()) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def with_alpha(self, alpha: float) -> "Scenario":
        g = self.gains
        return dataclasses.replace(self, gains=Gains(k_p=g.k_p, k_d=g.k_d, alpha=float(alpha)))

    def with_disturbance(self, spec: DisturbanceSpec) -> "Scenario":
        return dataclasses.replace(self, disturbance=spec)

    def with_velocity_mode(self, mode: str) -> "Scenario":
        return dataclasses.replace(self, velocity_mode=mode)

    def with_horizon(self, horizon: float) -> "Scenario":
        sim = self.integrator
        return dataclasses.replace(
            self, integrator=IntegratorConfig(dt=sim.dt, horizon=float(horizon))
        )


def _parse_float(val: str, key: str, ln: int) -> float:
    try:
        out = float(val)
    except ValueError:
        raise ScenarioError(f"{key}: expected a number, got {val!r}", line=ln) from None
    if not np.isfinite(out):
        raise ScenarioError(f"{key}: value must be finite, got {val!r}", line=ln)
    return out


def _parse_int(val: str, key: str, ln: int) -> int:
    try:
        return int(val)
    except ValueError:
        raise ScenarioError(f"{key}: expected an integer, got {val!r}", line=ln) from None


def _parse_pair(val: str, key: str, ln: int) -> tuple[float, float]:
    parts = val.strip("()[] \t").split(",")
    if len(parts) != 2:
        raise ScenarioError(f"{key}: expected two comma-separated numbers, got {val!r}", line=ln)
    return (_parse_float(parts[0], key, ln), _parse_float(parts[1], key, ln))


_SCALAR_KEYS = {
    "gains.kp", "gains.kd", "gains.alpha",
    "rtf.a1", "rtf.a2", "rtf.beta", "rtf.tau", "rtf.M",
    "sim.dt", "sim.horizon",
    "disturbance.amplitude", "disturbance.frequency", "disturbance.segment",
}
_PAIR_KEYS = {"start", "goal", "certify.lower", "certify.upper"}
_STR_KEYS = {"sim.initial_velocity", "disturbance.kind"}
_INT_KEYS = {"disturbance.seed"}


def parse_scenario(text: str, name: str = "<scenario>") -> Scenario:
    """Parse scenario text; raises ScenarioError with the offending line number."""
    values: dict[str, object] = {}
    obstacles: dict[int, dict[str, object]] = {}
    expectations: list[Expectation] = []

    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("expect."):
            parts = line.split()
            if len(parts) != 3:
                raise ScenarioError(
                    "expectation must read 'expect.<metric> <op> <value>'", line=ln
                )
            metric = parts[0][len("expect."):]
            if metric not in EXPECT_METRICS:
                raise ScenarioError(
                    f"unknown expectation metric {metric!r}; known: {', '.join(EXPECT_METRICS)}",
                    line=ln,
                )
            if parts[1] not in _OPS:
                raise ScenarioError(
                    f"unknown comparison {parts[1]!r}; known: {', '.join(_OPS)}", line=ln
                )
            expectations.append(
                Expectation(metric=metric, op=parts[1], value=_parse_float(parts[2], parts[0], ln))
            )
            continue
        if "=" not in line:
            raise ScenarioError(f"expected 'key = value', got {line!r}", line=ln)
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not val:
            raise ScenarioError(f"{key}: empty value", line=ln)

        m = _OBSTACLE_KEY.match(key)
        if m:
            idx, part = int(m.group(1)), m.group(2)
            slot = obstacles.setdefault(idx, {})
            if part in slot:
                raise ScenarioError(f"duplicate key {key!r}", line=ln)
            slot[part] = _parse_pair(val, key, ln) if part == "center" else _parse_float(val, key, ln)
            continue
        if key in values:
            raise ScenarioError(f"duplicate key {key!r}", line=ln)
        if key in _PAIR_KEYS:
            values[key] = _parse_pair(val, key, ln)
        elif key in _SCALAR_KEYS:
            values[key] = _parse_float(val, key, ln)
        elif key in _INT_KEYS:
            values[key] = _parse_int(val, key, ln)
        elif key in _STR_KEYS:
            values[key] = val
        else:
            raise ScenarioError(f"unknown key {key!r}", line=ln)

    for req in ("start", "goal", "gains.kp", "gains.kd", "gains.alpha"):
        if req not in values:
            raise ScenarioError(f"missing required key {req!r}")
    if not obstacles:
        raise ScenarioError("at least one obstacle.N.center/radius pair is required")
    for idx in sorted(obstacles):
        for part in ("center", "radius"):
            if part not in obstacles[idx]:
                raise ScenarioError(f"obstacle.{idx}.{part} is missing")

    order = sorted(obstacles)
    centers = np.array([obstacles[i]["center"] for i in order], dtype=float)
    radii = np.array([obstacles[i]["radius"] for i in order], dtype=float)

    try:
        field = ObstacleField(centers=centers, radii=radii)
        gains = Gains(
            k_p=values["gains.kp"], k_d=values["gains.kd"], alpha=values["gains.alpha"]
        )
        rtf_constants = RtfConstants(
            a1=values.get("rtf.a1", 1.0),
            a2=values.get("rtf.a2", 1.0),
            beta=values.get("rtf.beta", 2.45),
            tau=values.get("rtf.tau", 1.0),
            m_overshoot=values.get("rtf.M", 3.24),
        )
        integrator = IntegratorConfig(
            dt=values.get("sim.dt", 1e-3), horizon=values.get("sim.horizon", 10.0)
        )
        disturbance = DisturbanceSpec(
            kind=values.get("disturbance.kind", "none"),
            amplitude=values.get("disturbance.amplitude", 0.0),
            frequency=values.get("disturbance.frequency", 1.0),
            seed=values.get("disturbance.seed", 0),
            segment=values.get("disturbance.segment", 0.1),
        )
        if disturbance.kind not in ("none", "constant", "sine", "random"):
            raise ConfigurationError(
                f"disturbance.kind must be none, constant, sine, or random; got {disturbance.kind!r}"
            )
        start = np.array(values["start"], dtype=float)
        goal = np.array(values["goal"], dtype=float)
        lo_default, hi_default = _default_certify_box(field, start, goal)
        return Scenario(
            field=field,
            start=start,
            goal=goal,
            gains=gains,
            rtf_constants=rtf_constants,
            integrator=integrator,
            disturbance=disturbance,
            velocity_mode=values.get("sim.initial_velocity", "safe"),
            expectations=tuple(expectations),
            certify_lower=np.array(values.get("certify.lower", lo_default), dtype=float),
            certify_upper=np.array(values.get("certify.upper", hi_default), dtype=float),
            name=name,
        )
    except ScenarioError:
        raise
    except ConfigurationError as exc:
        raise ScenarioError(str(exc)) from exc


def _default_certify_box(field: ObstacleField, start, goal):
    pad = field.radii[:, None] + 0.5
    pts = np.vstack([start, goal, field.centers - pad, field.centers + pad])
    return np.min(pts, axis=0), np.max(pts, axis=0)


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"no such scenario file: {p}")
    return parse_scenario(p.read_text(), name=p.name)


def bundled_scenario_path(name: str = "two_disks.scn") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    p = Path(__file__).resolve().parent / "scenarios" / name
    if not p.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return p


# -- builders ---------------------------------------------------------------

def build_pair(scn: Scenario) -> ModelPair:
    return double_integrator_pair(scn)


def build_barrier(scn: Scenario) -> BarrierFn:
    return min_distance_barrier(scn.field)


def build_law(scn: Scenario, b: BarrierFn | None = None) -> ClosedLoopLaw:
    if b is None:
        b = build_barrier(scn)
    return assemble_closed_loop(build_pair(scn), b, scn.gains, scn.goal)


def build_rtf(scn: Scenario) -> Rtf:
    rc = scn.rtf_constants
    return norm_rtf(a1=rc.a1, a2=rc.a2, beta=rc.beta, tau=rc.tau)


def build_scenario_rcbf(scn: Scenario, b: BarrierFn | None = None) -> RecurrentCbf:
    if b is None:
        b = build_barrier(scn)
    return build_rcbf(build_rtf(scn), b, scn.gains.alpha, scn.rtf_constants.m_overshoot)


def build_disturbance(scn: Scenario) -> Disturbance:
    d = scn.disturbance
    return make_disturbance(
        d.kind,
        amplitude=d.amplitude,
        frequency=d.frequency,
        seed=d.seed,
        segment=d.segment,
        dim=2,
    )


def initial_states(scn: Scenario, law: ClosedLoopLaw, z0s, mode: str | None = None) -> np.ndarray:
    """Full-model initial states (K, 4) for reduced starts z0s of shape (K, 2).

    Modes fix the initial velocity: "safe" uses the filtered velocity (zero
    initial tracking error), "desired" the unfiltered pull toward the goal,
    and "zero" a standstill.
    """
    mode = scn.velocity_mode if mode is None else mode
    z0s = np.atleast_2d(np.asarray(z0s, dtype=float))
    if z0s.ndim != 2 or z0s.shape[1] != 2:
        raise ConfigurationError("initial reduced states must have shape (K, 2)")
    if mode == "zero":
        vel = np.zeros_like(z0s)
    elif mode == "desired":
        vel = join(desired_velocity(split(law.goal), law.gains.k_p, split(z0s)))
    elif mode == "safe":
        vel = law.evaluate(np.concatenate([z0s, np.zeros_like(z0s)], axis=1)).z_dot_s
    else:
        raise ConfigurationError(
            f"sim.initial_velocity must be one of {_VELOCITY_MODES}, got {mode!r}"
        )
    return np.concatenate([z0s, vel], axis=1)


def initial_state(scn: Scenario, law: ClosedLoopLaw, z0=None, mode: str | None = None) -> np.ndarray:
    """Single full-model initial state; z0 defaults to the scenario start."""
    z0 = scn.start if z0 is None else np.asarray(z0, dtype=float)
    return initial_states(scn, law, z0[None, :], mode=mode)[0]
