"""Bounded disturbances, the ISS tracking envelope, and the enlarged robust set.

Under a bounded input disturbance the tracking error no longer vanishes; it
obeys an ISS envelope ||e_dot(t)|| <= M ||e_dot(0)|| e^{-beta t} + mu(||d||_inf)
with a linear offset mu(r) = c r, the gain form of Kolathaya and Ames
("Input-to-State Safety With Control Barrier Functions", L-CSS 2019). The
recurrence condition picks up a floor iota = a2 e^{beta tau} c ||d||_inf / M,
and the certified region shrinks by gamma = iota / alpha_e; a2, beta, tau
and M are read from the recurrent barrier's Rtf. Every check here reduces
bit-for-bit to its nominal counterpart when d is identically zero: the
zero-offset branches delegate to the same code paths the nominal checks use,
on the recorded V = Trajectory.v. The shifted recurrence takes its margin
from the nominal one's window fold.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._vec import vnorm
from .dynamics import IntegratorConfig, ModelPair, Trajectory, integrate
from .errors import ConfigurationError, require_number
from .recurrence import (
    RecurrenceVerdict,
    RecurrentCbf,
    Rtf,
    check_exponential_envelope,
    check_rtf_recurrence,
)

_RANDOM_TABLE = 1 << 16  # piecewise-constant pattern repeats after this many segments
_MAX_SEGMENTS = 2.0**53  # floor(t / segment) counts whole segments exactly below this

# the stock disturbance kinds and the DisturbanceSpec fields each one reads
DISTURBANCE_FIELDS = {
    "none": (),
    "constant": ("amplitude",),
    "sine": ("amplitude", "frequency"),
    "random": ("amplitude", "seed", "segment"),
}


@dataclass(frozen=True)
class DisturbanceSpec:
    """One stock disturbance as a scenario file declares it, range-checked.

    Every field is checked whatever the kind: an out-of-range value is a
    fault in the file even where the kind ignores it. Each message starts
    with the scenario key it names.
    """

    kind: str = "none"
    amplitude: float = 0.0
    frequency: float = 1.0
    seed: int = 0
    segment: float = 0.1

    def __post_init__(self):
        if self.kind not in DISTURBANCE_FIELDS:
            *head, last = DISTURBANCE_FIELDS
            raise ConfigurationError(
                f"disturbance.kind must be {', '.join(head)}, or {last}; got {self.kind!r}"
            )
        for name in ("amplitude", "frequency", "segment"):
            require_number(f"disturbance.{name}", getattr(self, name))
        for name, ok, bound in (
            ("amplitude", self.amplitude >= 0, ">= 0"),
            ("frequency", self.frequency > 0, "> 0"),
            ("segment", self.segment > 0, "> 0"),
        ):
            value = getattr(self, name)
            if not (ok and np.isfinite(value)):
                raise ConfigurationError(
                    f"disturbance.{name} must be finite and {bound}, got {value!r}"
                )
        if not math.isfinite(2.0 * math.pi * float(self.frequency)):  # the sine's rate
            raise ConfigurationError(
                f"disturbance.frequency = {self.frequency!r} is too large: "
                "2*pi*frequency must be finite"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"disturbance.seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))  # echoed as a plain integer
        if self.seed < 0:  # numpy's generator takes no negative seed
            raise ConfigurationError(f"disturbance.seed must be >= 0, got {self.seed!r}")


@dataclass(frozen=True)
class Disturbance:
    """A deterministic planar input-channel signal with a declared sup norm.

    signal(t) accepts a scalar or an array of times and returns values of
    shape t.shape + (2,), one input per time, shared by every run;
    ||signal(t)|| <= sup_norm everywhere. A rollout calls it three times,
    each on a 1-D array of its T stage times (see dynamics.integrate_batch),
    and needs (T, 2) back, so a signal must give at each array entry the
    value it gives at that time alone.
    """

    kind: str
    signal: Callable
    sup_norm: float


def make_disturbance(
    kind: str,
    amplitude: float = 0.0,
    frequency: float = 1.0,
    seed: int = 0,
    segment: float = 0.1,
) -> Disturbance:
    """Build one of the stock disturbance signals; DisturbanceSpec checks the fields.

    kinds: "none" (zero), "constant" (amplitude along the first axis),
    "sine" (rotating, ||d(t)|| = amplitude exactly), "random" (seeded
    piecewise-constant on segments, values in the closed amplitude disk,
    read from a table of 2**16 values that is filled in place).
    A random signal raises ConfigurationError at a time t with
    t / segment >= 2**53, where floats no longer count whole segments, and a
    sine at a time t where 2*pi*frequency*t is not finite.
    """
    DisturbanceSpec(kind=kind, amplitude=amplitude, frequency=frequency, seed=seed, segment=segment)
    amp = float(amplitude)
    if kind == "none" or amp == 0.0:
        kind, amp = "none", 0.0

    if kind in ("none", "constant"):
        vec = np.array([amp, 0.0])

        def signal(t):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(vec, t.shape + (2,)).copy()

        return Disturbance(kind=kind, signal=signal, sup_norm=amp)

    if kind == "sine":
        w = 2.0 * np.pi * float(frequency)

        def signal(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(over="ignore"):
                wt = w * t
            bad = ~np.isfinite(wt)
            if bad.any():
                t_bad = float(np.min(np.abs(t[bad])))  # the first time it fails at
                raise ConfigurationError(
                    f"disturbance.frequency = {float(frequency)!r} is too large for "
                    f"t = {t_bad!r}: 2*pi*frequency*t must be finite"
                )
            return np.stack([amp * np.sin(wt), amp * np.cos(wt)], axis=-1)

        return Disturbance(kind=kind, signal=signal, sup_norm=amp)

    # random: one table value per segment, the table repeating after _RANDOM_TABLE
    table = _random_table(amp, seed)
    seg = float(segment)

    def signal(t):
        t = np.asarray(t, dtype=float)
        n = np.floor_divide(t, seg)
        if np.any(np.abs(n) >= _MAX_SEGMENTS):
            t_max = float(np.max(np.abs(t)))
            raise ConfigurationError(
                f"disturbance.segment = {seg!r} is too short for t = {t_max!r}: "
                "t / segment must stay below 2**53 to count whole segments"
            )
        return table[n.astype(np.int64) % _RANDOM_TABLE]

    # the norm of the two columns: vnorm(table)'s bits without its product table
    sup = float(np.max(vnorm((table[:, 0], table[:, 1]))))
    return Disturbance(kind=kind, signal=signal, sup_norm=sup)


def _random_table(amp: float, seed: int) -> np.ndarray:
    """The random kind's (_RANDOM_TABLE, 2) values, drawn from the closed
    disk of radius amp as radius * (cos theta, sin theta) with radius =
    amp * sqrt(uniform), filled in place: each product is the same float in
    either operand order, and no (_RANDOM_TABLE, 2) temporary is made."""
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=_RANDOM_TABLE)
    radius = rng.uniform(0.0, 1.0, size=_RANDOM_TABLE)
    np.sqrt(radius, out=radius)
    radius *= amp
    table = np.empty((_RANDOM_TABLE, 2))
    np.cos(theta, out=table[:, 0])
    np.sin(theta, out=table[:, 1])
    table *= radius[:, None]
    return table


@dataclass(frozen=True)
class IssEnvelope:
    """ISS tracking-envelope constants for a given disturbance level.

    The offset is mu(r) = mu_gain r; mu_at_d = mu(d_sup) is its value at the
    declared sup norm; iota = a2 e^{beta tau} mu_at_d / M is the recurrence
    floor and gamma_margin = iota / alpha_e the set-shrinkage margin, with
    a2, beta, tau and M read from rtf.
    """

    rtf: Rtf
    mu_gain: float
    d_sup: float
    mu_at_d: float
    iota: float
    gamma_margin: float


def _check_gain(mu_gain: float) -> None:
    if not (np.isfinite(mu_gain) and mu_gain > 0):
        raise ConfigurationError(f"mu gain must be finite and positive, got {mu_gain!r}")


def build_iss_envelope(rcbf: RecurrentCbf, mu_gain: float, d_sup: float) -> IssEnvelope:
    """Assemble the envelope constants from a recurrent barrier and a linear
    offset gain, finite and > 0, at the disturbance sup norm d_sup."""
    _check_gain(mu_gain)
    if not (np.isfinite(d_sup) and d_sup >= 0):
        raise ConfigurationError("disturbance sup norm must be finite and >= 0")
    mu_at_d = float(mu_gain * d_sup)
    rtf = rcbf.rtf
    iota = rtf.a2 * float(np.exp(rtf.beta * rtf.tau)) * mu_at_d / rtf.m_overshoot
    return IssEnvelope(
        rtf=rtf,
        mu_gain=float(mu_gain),
        d_sup=float(d_sup),
        mu_at_d=mu_at_d,
        iota=float(iota),
        gamma_margin=float(iota / rcbf.alpha_e),
    )


@dataclass(frozen=True)
class IssVerdict:
    holds: bool
    worst_excess: float


def check_iss_envelope(traj: Trajectory, env: IssEnvelope) -> IssVerdict:
    """Pointwise ||e_dot(t)|| <= M ||e_dot(0)|| e^{-beta t} + mu(d_sup).

    worst_excess is the largest violation of the bound (negative when the
    envelope holds with room). With a zero offset the verdict delegates to
    the nominal exponential-envelope check so the reduction is exact.
    """
    m, beta = env.rtf.m_overshoot, env.rtf.beta
    en = traj.v
    e0 = float(en[0])
    bound = m * e0 * np.exp(-beta * traj.t) + env.mu_at_d
    worst = float(np.max(en - bound))
    if env.mu_at_d == 0.0:
        nominal = check_exponential_envelope(traj, beta, m)
        return IssVerdict(holds=nominal.holds, worst_excess=worst)
    holds = worst <= 1e-9 * max(1.0, m * e0 + env.mu_at_d)
    return IssVerdict(holds=bool(holds), worst_excess=worst)


def check_practical_rtf(traj: Trajectory, env: IssEnvelope) -> RecurrenceVerdict:
    """Disturbance-shifted recurrence: min e^{beta t}(V(t) - iota) <= V(0) - iota.

    Shares the nominal check's code path with shift = iota, so iota = 0 gives
    an identical verdict.
    """
    return check_rtf_recurrence(env.rtf, traj, shift=env.iota)


def in_robust_set(rcbf: RecurrentCbf, env: IssEnvelope, z, e_dot):
    """Membership in {h_V - gamma_margin >= 0}; a zero margin gives in_recurrent_set."""
    return rcbf.value(z, e_dot) - env.gamma_margin >= 0.0


def estimate_mu_gain(
    pair: ModelPair,
    law,
    cfg: IntegratorConfig | None = None,
    amplitudes=(0.1,),
    frequencies=(0.0, 0.5, 1.0),
) -> float:
    """Empirical linear gain c so that mu(r) = c r bounds the error offset.

    Runs quiet starts (at the goal, zero velocity) under constant and
    sinusoidal disturbances (frequency 0 means constant), one run per
    schedule entry, and takes the worst transient-inclusive ratio
    max_t ||e_dot(t)|| / amplitude. The error loop is linear while the filter
    is inactive, so the ratio is amplitude-free; the frequency sweep matters
    because the loop's peak gain sits at a nonzero frequency.
    """
    if cfg is None:
        cfg = IntegratorConfig(dt=1e-3, horizon=6.0)
    amps = [float(a) for a in amplitudes]
    if not amps or any(a <= 0 for a in amps):
        raise ConfigurationError("amplitudes must be positive")
    freqs = [float(f) for f in frequencies]
    if not freqs or any(f < 0 for f in freqs):
        raise ConfigurationError("frequencies must be >= 0")
    # each entry rolls out alone from a quiet start, on the single-run path
    x0 = np.concatenate([np.asarray(law.goal, dtype=float), np.zeros(2)])
    c = 0.0
    for amp in amps:
        for freq in freqs:
            if freq == 0.0:
                d = make_disturbance("constant", amplitude=amp)
            else:
                d = make_disturbance("sine", amplitude=amp, frequency=freq)
            traj = integrate(pair, law, x0, cfg, disturbance=d)
            c = max(c, float(np.max(traj.v)) / amp)
    if not c > 0:
        raise ConfigurationError("calibration produced a zero gain; disturbance has no effect")
    return c
