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

One table, ``_KEYS``, declares the format: each key's type and the record
field it fills. Parsing, the echo and the CLI's ``--disturbance`` read it;
defaults live on the records, and a key whose field has none is required.

Every loaded scenario can echo itself as a canonical resolved-key listing
(defaults filled in, floats at full precision) whose SHA-256 digest stamps
all emitted artifacts; re-parsing the echoed listing reproduces the scenario
exactly.
"""
from __future__ import annotations

import dataclasses
import hashlib
import re
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import numpy as np

from ._vec import join, split
from .barrier import BarrierFn, ObstacleField, min_distance_barrier
from .controller import ClosedLoopLaw, Gains, assemble_closed_loop, desired_velocity
from .dynamics import IntegratorConfig, double_integrator
from .errors import ConfigurationError, HypothesisViolationError, ScenarioError, require_number
from .recurrence import RecurrentCbf, Rtf, build_rcbf
from .robustness import DISTURBANCE_FIELDS, Disturbance, DisturbanceSpec, make_disturbance

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
class Expectation:
    """One declared check: <metric> <op> <value>. NaN metrics never pass.

    A known metric, a known comparison and a finite value, so the echo
    re-parses; each message starts with the expect.<metric> key it names.
    """

    metric: str
    op: str
    value: float

    def __post_init__(self):
        key = f"expect.{self.metric}"
        for what, got, known in (
            ("expectation metric", self.metric, EXPECT_METRICS),
            ("comparison", self.op, _OPS),
        ):
            if got not in known:
                raise ConfigurationError(f"{key}: unknown {what} {got!r}; known: {', '.join(known)}")
        require_number(f"{key}: value", self.value)
        if not np.isfinite(self.value):
            raise ConfigurationError(f"{key}: value must be finite, got {self.value!r}")

    def check(self, actual: float) -> bool:
        return bool(_OPS[self.op](actual, self.value))  # every comparison with NaN is False

    def render(self) -> str:
        return f"expect.{self.metric} {self.op} {float(self.value)!r}"


def _pair_text(v: np.ndarray) -> str:
    return f"{float(v[0])!r}, {float(v[1])!r}"


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """A fully validated navigation problem.

    Left out, the certify box hulls start, goal and the obstacles padded by
    0.5. The certificate constants must bracket 1, a1 <= 1 <= a2, as
    V = ||e_dot|| needs (the refusal starts with the key whose bound fails);
    Rtf alone allows any 0 < a1 <= a2. beta > gains.alpha is not required
    to load; build_loop applies that gate, and rcbf_hypothesis_ok exposes it.
    """

    field: ObstacleField
    start: np.ndarray
    goal: np.ndarray
    gains: Gains
    rtf: Rtf
    integrator: IntegratorConfig
    disturbance: DisturbanceSpec
    velocity_mode: str = "safe"
    expectations: tuple
    certify_lower: np.ndarray | None = None
    certify_upper: np.ndarray | None = None

    def __post_init__(self):
        for attr in ("start", "goal", "certify_lower", "certify_upper"):
            value = getattr(self, attr)
            if value is None and attr.startswith("certify"):  # start and goal are checked by now
                value = _default_certify_box(self.field, self.start, self.goal)[attr]
            arr = np.array(value, dtype=float)
            if arr.shape != (2,) or not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{attr} must be a finite point in R^2")
            arr.flags.writeable = False
            object.__setattr__(self, attr, arr)
        if not np.all(self.certify_lower < self.certify_upper):
            raise ConfigurationError("certify.lower must be strictly below certify.upper")
        a1, a2 = self.rtf.a1, self.rtf.a2
        if not a1 <= 1.0 <= a2:  # the sandwich must hold for V = ||e_dot||
            key = "rtf.a1" if a1 > 1.0 else "rtf.a2"  # the one whose bound fails
            raise ConfigurationError(
                f"{key} is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= 1 <= a2, "
                f"got a1={a1!r}, a2={a2!r}"
            )
        if self.velocity_mode not in _VELOCITY_MODES:
            raise ConfigurationError(
                f"sim.initial_velocity must be one of {_VELOCITY_MODES}, got {self.velocity_mode!r}"
            )

    @property
    def rcbf_hypothesis_ok(self) -> bool:
        return self.rtf.beta > self.gains.alpha

    def resolved_lines(self) -> list[str]:
        """Canonical key=value echo of the full configuration, defaults included:
        table order, obstacles after goal, expectations last."""
        used = DISTURBANCE_FIELDS[self.disturbance.kind]
        lines = []
        for key, (record, attr, vtype) in _KEYS.items():
            if record == "disturbance" and attr != "kind" and attr not in used:
                continue
            owner = self if record is None else getattr(self, record)
            lines.append(f"{key} = {vtype.render(getattr(owner, attr))}")
            if key == "goal":
                for i in range(self.field.count):
                    lines.append(f"obstacle.{i + 1}.center = {_pair_text(self.field.centers[i])}")
                    lines.append(f"obstacle.{i + 1}.radius = {float(self.field.radii[i])!r}")
        return lines + [e.render() for e in self.expectations]

    def digest(self) -> str:
        text = "\n".join(self.resolved_lines()) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def with_alpha(self, alpha: float) -> "Scenario":
        return dataclasses.replace(self, gains=dataclasses.replace(self.gains, alpha=float(alpha)))

    def with_disturbance(self, spec: DisturbanceSpec) -> "Scenario":
        return dataclasses.replace(self, disturbance=spec)

    def with_horizon(self, horizon: float) -> "Scenario":
        sim = dataclasses.replace(self.integrator, horizon=float(horizon))
        return dataclasses.replace(self, integrator=sim)


def _default_certify_box(field: ObstacleField, start, goal) -> dict:
    pad = field.radii[:, None] + 0.5
    pts = np.vstack([start, goal, field.centers - pad, field.centers + pad])
    return {"certify_lower": np.min(pts, axis=0), "certify_upper": np.max(pts, axis=0)}


# value parsers name the fault but not the key; parse_scenario adds key and line
def _parse_float(text: str) -> float:
    try:
        out = float(text)
    except ValueError:
        raise ValueError(f"expected a number, got {text!r}") from None
    if not np.isfinite(out):
        raise ValueError(f"value must be finite, got {text!r}")
    return out


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"expected an integer, got {text!r}") from None


def _parse_pair(text: str) -> tuple[float, float]:
    parts = text.strip("()[] \t").split(",")
    if len(parts) != 2:
        raise ValueError(f"expected two comma-separated numbers, got {text!r}")
    return (_parse_float(parts[0]), _parse_float(parts[1]))


class _Type(NamedTuple):  # how a value is read, and how the echo writes it back
    parse: Callable[[str], object]
    render: Callable[[object], str]


_PAIR = _Type(_parse_pair, _pair_text)
# a numpy float echoes as the plain number it holds, e.g. 0.1, not np.float64(0.1)
_FLOAT = _Type(_parse_float, lambda v: repr(float(v)))
_INT = _Type(_parse_int, lambda v: repr(int(v)))
_WORD = _Type(str, str)

# Every key but the obstacles and the expectations: the record it fills (None
# for Scenario itself), that record's field, and the value's type. Table
# order is the echo order.
_KEYS = {
    "start": (None, "start", _PAIR),
    "goal": (None, "goal", _PAIR),
    "gains.kp": ("gains", "k_p", _FLOAT),
    "gains.kd": ("gains", "k_d", _FLOAT),
    "gains.alpha": ("gains", "alpha", _FLOAT),
    "rtf.a1": ("rtf", "a1", _FLOAT),
    "rtf.a2": ("rtf", "a2", _FLOAT),
    "rtf.beta": ("rtf", "beta", _FLOAT),
    "rtf.tau": ("rtf", "tau", _FLOAT),
    "rtf.M": ("rtf", "m_overshoot", _FLOAT),
    "sim.dt": ("integrator", "dt", _FLOAT),
    "sim.horizon": ("integrator", "horizon", _FLOAT),
    "sim.initial_velocity": (None, "velocity_mode", _WORD),
    "disturbance.kind": ("disturbance", "kind", _WORD),
    "disturbance.amplitude": ("disturbance", "amplitude", _FLOAT),
    "disturbance.frequency": ("disturbance", "frequency", _FLOAT),
    "disturbance.seed": ("disturbance", "seed", _INT),
    "disturbance.segment": ("disturbance", "segment", _FLOAT),
    "certify.lower": (None, "certify_lower", _PAIR),
    "certify.upper": (None, "certify_upper", _PAIR),
}

_RECORDS = {
    None: Scenario,
    "gains": Gains,
    "rtf": Rtf,
    "integrator": IntegratorConfig,
    "disturbance": DisturbanceSpec,
}


def parse_value(key: str, text: str):
    """The value of one scenario key from its text: KeyError for a key the
    table does not declare, ValueError naming the fault for a malformed value."""
    return _KEYS[key][2].parse(text)


def _parsed(parse, key: str, text: str, ln: int):
    try:
        return parse(text)
    except ValueError as exc:
        raise ScenarioError(f"{key}: {exc}", line=ln) from None


def parse_scenario(text: str) -> Scenario:
    """Parse scenario text; raises ScenarioError with the offending line number."""
    fields: dict = {record: {} for record in _RECORDS}
    lines: dict[str, int] = {}  # the line of each table key
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
            value = _parsed(_parse_float, parts[0], parts[2], ln)
            try:
                expectations.append(Expectation(parts[0][len("expect."):], parts[1], value))
            except ConfigurationError as exc:
                raise ScenarioError(str(exc), line=ln) from None
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
            slot[part] = _parsed(_parse_pair if part == "center" else _parse_float, key, val, ln)
            if part == "radius" and not slot[part] > 0:  # as ObstacleField refuses it, with the line
                raise ScenarioError(f"{key} must be positive, got {slot[part]!r}", line=ln)
            continue
        if key not in _KEYS:
            raise ScenarioError(f"unknown key {key!r}", line=ln)
        record, attr, vtype = _KEYS[key]
        if attr in fields[record]:
            raise ScenarioError(f"duplicate key {key!r}", line=ln)
        fields[record][attr] = _parsed(vtype.parse, key, val, ln)
        lines[key] = ln

    for key, (record, attr, _) in _KEYS.items():
        default = _RECORDS[record].__dataclass_fields__[attr].default
        if attr not in fields[record] and default is dataclasses.MISSING:
            raise ScenarioError(f"missing required key {key!r}")
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
        records = {r: cls(**fields[r]) for r, cls in _RECORDS.items() if r is not None}
        return Scenario(field=field, expectations=tuple(expectations), **records, **fields[None])
    except ConfigurationError as exc:
        # a record's check that names a key in its message's first word gets that key's line
        msg = str(exc)
        line = next((ln for key, ln in lines.items() if msg.startswith(f"{key} ")), None)
        raise ScenarioError(msg, line=line) from exc


def load_scenario(path) -> Scenario:
    """Load and validate a scenario file."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"no such scenario file: {p}")
    return parse_scenario(p.read_text())


def bundled_scenario_path(name: str = "two_disks.scn") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    p = Path(__file__).resolve().parent / "scenarios" / name
    if not p.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return p


# -- builders ---------------------------------------------------------------

def build_pair(scn: Scenario):
    # one plant serves every scenario: the rollout kernel calls it as plant(x, u)
    return double_integrator


def build_barrier(scn: Scenario) -> BarrierFn:
    return min_distance_barrier(scn.field)


def build_law(scn: Scenario, b: BarrierFn | None = None) -> ClosedLoopLaw:
    if b is None:
        b = build_barrier(scn)
    return assemble_closed_loop(b, scn.gains, scn.goal)


def build_scenario_rcbf(scn: Scenario, b: BarrierFn | None = None) -> RecurrentCbf:
    if b is None:
        b = build_barrier(scn)
    return build_rcbf(scn.rtf, b, scn.gains.alpha)


class Loop(NamedTuple):
    """One scenario's closed loop: the plant F(x, u) on state components,
    the law, the recurrent barrier, which shares the law's barrier and is
    None where no certified region exists, and the disturbance."""

    plant: Callable
    law: ClosedLoopLaw
    rcbf: RecurrentCbf | None
    dist: Disturbance


def build_loop(scn: Scenario, needs_region: str = "") -> Loop:
    """Build the scenario's closed loop around one barrier.

    A certified region exists exactly when the recurrence rate exceeds
    alpha. Without one, a caller named by ``needs_region`` is refused with
    HypothesisViolationError before anything is built; any other gets rcbf
    None.
    """
    if not scn.rcbf_hypothesis_ok and needs_region:
        raise HypothesisViolationError(
            f"{needs_region} needs a certified region: the recurrence rate must exceed alpha"
        )
    b = build_barrier(scn)
    rcbf = build_scenario_rcbf(scn, b) if scn.rcbf_hypothesis_ok else None
    dist = make_disturbance(**dataclasses.asdict(scn.disturbance))
    return Loop(build_pair(scn), build_law(scn, b), rcbf, dist)


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


def initial_state(scn: Scenario, law: ClosedLoopLaw) -> np.ndarray:
    """The full-model initial state (4,) at the scenario start, in its velocity mode."""
    return initial_states(scn, law, scn.start[None, :])[0]
