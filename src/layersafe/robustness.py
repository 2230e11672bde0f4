"""Bounded disturbances, the ISS tracking envelope, and the enlarged robust set.

Under a bounded input disturbance the tracking error no longer vanishes; it
obeys an ISS envelope ||e_dot(t)|| <= M ||e_dot(0)|| e^{-beta t} + mu(||d||_inf)
with a class-K offset mu. The recurrence condition picks up a floor
iota = a2 e^{beta tau} mu(||d||_inf) / M, and the certified region shrinks by
gamma = iota / alpha_e. Every check here reduces bit-for-bit to its nominal
counterpart when d is identically zero: the zero-offset branches delegate to
the same code paths the nominal checks use.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

from ._vec import vnorm
from .dynamics import IntegratorConfig, ModelPair, Trajectory, integrate_batch
from .errors import ConfigurationError
from .recurrence import (
    RecurrenceVerdict,
    RecurrentCbf,
    Rtf,
    check_exponential_envelope,
    check_rtf_recurrence,
    in_recurrent_set,
)

_RANDOM_TABLE = 1 << 16  # piecewise-constant pattern repeats after this many segments


@dataclass(frozen=True)
class Disturbance:
    """A deterministic input-channel signal with a declared sup norm.

    signal(t) accepts a scalar or an array of times and returns values of
    shape t.shape + (dim,); ||signal(t)|| <= sup_norm everywhere.
    """

    kind: str
    signal: Callable
    sup_norm: float
    dim: int

    def __call__(self, t):
        return self.signal(t)


def make_disturbance(
    kind: str,
    amplitude: float = 0.0,
    frequency: float = 1.0,
    seed: int = 0,
    segment: float = 0.1,
    dim: int = 2,
) -> Disturbance:
    """Build one of the stock disturbance signals.

    kinds: "none" (zero), "constant" (amplitude along the first axis),
    "sine" (rotating, ||d(t)|| = amplitude exactly), "random" (seeded
    piecewise-constant on segments, values in the closed amplitude ball).
    """
    if kind not in ("none", "constant", "sine", "random"):
        raise ConfigurationError(f"unknown disturbance kind {kind!r}")
    if kind != "none" and not (np.isfinite(amplitude) and amplitude >= 0):
        raise ConfigurationError("disturbance amplitude must be finite and >= 0")
    if dim < 1:
        raise ConfigurationError("disturbance dimension must be >= 1")
    amp = float(amplitude)

    if kind == "none" or amp == 0.0:
        def signal(t):
            t = np.asarray(t, dtype=float)
            return np.zeros(t.shape + (dim,))

        return Disturbance(kind="none", signal=signal, sup_norm=0.0, dim=dim)

    if kind == "constant":
        vec = np.zeros(dim)
        vec[0] = amp

        def signal(t):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(vec, t.shape + (dim,)).copy()

        return Disturbance(kind=kind, signal=signal, sup_norm=amp, dim=dim)

    if kind == "sine":
        if dim < 2:
            raise ConfigurationError("sine disturbance needs dimension >= 2")
        if not (np.isfinite(frequency) and frequency > 0):
            raise ConfigurationError("sine frequency must be positive")
        w = 2.0 * np.pi * float(frequency)

        def signal(t):
            t = np.asarray(t, dtype=float)
            out = np.zeros(t.shape + (dim,))
            out[..., 0] = amp * np.sin(w * t)
            out[..., 1] = amp * np.cos(w * t)
            return out

        return Disturbance(kind=kind, signal=signal, sup_norm=amp, dim=dim)

    # random: values drawn once per segment from the closed ball of radius amp
    if not segment > 0:
        raise ConfigurationError("random disturbance segment length must be positive")
    rng = np.random.default_rng(seed)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=_RANDOM_TABLE)
    radius = amp * np.sqrt(rng.uniform(0.0, 1.0, size=_RANDOM_TABLE))
    table = np.zeros((_RANDOM_TABLE, dim))
    table[:, 0] = radius * np.cos(theta)
    if dim >= 2:
        table[:, 1] = radius * np.sin(theta)
    else:
        table[:, 0] = radius * np.where(np.cos(theta) >= 0, 1.0, -1.0)
    seg = float(segment)

    def signal(t):
        t = np.asarray(t, dtype=float)
        idx = np.floor_divide(t, seg).astype(np.int64) % _RANDOM_TABLE
        return table[idx]

    sup = float(np.max(vnorm(table)))
    return Disturbance(kind=kind, signal=signal, sup_norm=sup, dim=dim)


@dataclass(frozen=True)
class IssEnvelope:
    """ISS tracking-envelope constants for a given disturbance level.

    mu is the class-K offset; mu_at_d = mu(d_sup) is its value at the declared
    sup norm; iota = a2 e^{beta tau} mu_at_d / M is the recurrence floor and
    gamma_margin = iota / alpha_e the set-shrinkage margin.
    """

    m_overshoot: float
    beta: float
    mu: Callable
    d_sup: float
    mu_at_d: float
    iota: float
    gamma_margin: float


def build_iss_envelope(rcbf: RecurrentCbf, mu: Callable, d_sup: float) -> IssEnvelope:
    """Assemble the envelope constants from a recurrent barrier and an offset map.

    mu must be class-K on the sampled arguments: mu(0) = 0 and mu(d_sup) > 0
    whenever d_sup > 0.
    """
    if not (np.isfinite(d_sup) and d_sup >= 0):
        raise ConfigurationError("disturbance sup norm must be finite and >= 0")
    mu0 = float(mu(0.0))
    if mu0 != 0.0:
        raise ConfigurationError(f"mu(0) must be 0, got {mu0!r}")
    mu_at_d = float(mu(d_sup))
    if d_sup > 0 and not mu_at_d > 0:
        raise ConfigurationError("mu must be strictly increasing: mu(d_sup) <= 0")
    if mu_at_d < 0:
        raise ConfigurationError("mu must be nonnegative")
    rtf = rcbf.rtf
    iota = rtf.a2 * float(np.exp(rtf.beta * rtf.tau)) * mu_at_d / rcbf.m_overshoot
    gamma = iota / rcbf.alpha_e
    return IssEnvelope(
        m_overshoot=rcbf.m_overshoot,
        beta=rtf.beta,
        mu=mu,
        d_sup=float(d_sup),
        mu_at_d=mu_at_d,
        iota=float(iota),
        gamma_margin=float(gamma),
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
    en = vnorm(traj.e_dot)
    e0 = float(en[0])
    bound = env.m_overshoot * e0 * np.exp(-env.beta * traj.t) + env.mu_at_d
    worst = float(np.max(en - bound))
    if env.mu_at_d == 0.0:
        nominal = check_exponential_envelope(traj, env.beta, env.m_overshoot)
        return IssVerdict(holds=nominal.holds, worst_excess=worst)
    holds = worst <= 1e-9 * max(1.0, env.m_overshoot * e0 + env.mu_at_d)
    return IssVerdict(holds=bool(holds), worst_excess=worst)


def check_practical_rtf(
    rtf: Rtf,
    traj: Trajectory,
    env: IssEnvelope,
    s_predicate=None,
) -> RecurrenceVerdict:
    """Disturbance-shifted recurrence: min e^{beta t}(V(t) - iota) <= V(0) - iota.

    Shares the nominal check's code path with shift = iota, so iota = 0 gives
    an identical verdict. An empty containment set is not satisfied.
    """
    return check_rtf_recurrence(rtf, traj, s_predicate=s_predicate, shift=env.iota)


def in_robust_set(rcbf: RecurrentCbf, env: IssEnvelope, z, e_dot):
    """Membership in the shrunken region {h_V - gamma_margin >= 0}."""
    if env.gamma_margin == 0.0:
        return in_recurrent_set(rcbf, z, e_dot)
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
    sinusoidal disturbances (frequency 0 means constant), the whole schedule
    as one batch, and takes the worst transient-inclusive ratio
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
    schedule = []
    for amp in amps:
        for freq in freqs:
            if freq == 0.0:
                d = make_disturbance("constant", amplitude=amp, dim=pair.m_full)
            else:
                d = make_disturbance("sine", amplitude=amp, frequency=freq, dim=pair.m_full)
            schedule.append((amp, d))
    # the whole schedule rolls out as one batch: a quiet start and a
    # disturbance row per run (integrate_batch reads only .signal); rows are
    # independent, so each run is bit for bit the run it would be alone
    rows = SimpleNamespace(signal=lambda t: np.stack([d.signal(t) for _amp, d in schedule]))
    x0 = np.concatenate([np.asarray(law.goal, dtype=float), np.zeros(pair.n_reduced)])
    batch = integrate_batch(pair, law, np.tile(x0, (len(schedule), 1)), cfg, disturbance=rows)
    c = 0.0
    for k, (amp, _d) in enumerate(schedule):
        c = max(c, float(np.max(vnorm(batch.e_dot[:, k]))) / amp)
    if not c > 0:
        raise ConfigurationError("calibration produced a zero gain; disturbance has no effect")
    return c
