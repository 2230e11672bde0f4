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

from ._vec import finite
from .dynamics import IntegratorConfig, Trajectory, _rollout
from .errors import ConfigurationError, DivergenceError, require_number
from .recurrence import (
    RecurrenceVerdict,
    RecurrentCbf,
    Rtf,
    check_exponential_envelope,
    check_rtf_recurrence,
)

_RANDOM_TABLE = 1 << 16  # piecewise-constant pattern repeats after this many segments
_TABLE_BLOCK = 1 << 12  # random-table rows measured per block; divides _RANDOM_TABLE
# a block whose largest sum of squares overflows is scaled down by _SCALE,
# one whose largest is subnormal or zero up by it: the largest nonzero
# component then has 2**-474 <= |c| < 2**424, where the squares are normal
# and sum finite, and a power of two scales exactly
_SCALE = 2.0**600
_TINY = float(np.finfo(float).tiny)  # the least normal float, 2**-1022
_MAX_SEGMENTS = 2.0**53  # floor(t / segment) counts whole segments exactly below this
# estimate_mu_gain's probe schedule: one amplitude, a constant and two sines (Hz)
_PROBE_AMPLITUDE = 0.1
_PROBE_FREQUENCIES = (0.0, 0.5, 1.0)

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


def make_disturbance(kind: str, **fields) -> Disturbance:
    """Build one of the stock disturbance signals; DisturbanceSpec(kind, **fields)
    holds the defaults, checks the fields and gives every value read here.

    kinds: "none" (zero), "constant" (amplitude along the first axis),
    "sine" (rotating, ||d(t)|| = amplitude exactly), "random" (seeded
    piecewise-constant on segments, values in the closed amplitude disk,
    one row of a table of 2**16 rows per segment; no table is held: a call
    draws the rows of the segments its times span, at most one period, see
    _random_rows, and sup_norm, the largest row norm, is measured once a
    block of rows at a time, finite for every finite amplitude and
    positive for every positive one).
    A random signal raises ConfigurationError at a time t with
    t / segment >= 2**53, where floats no longer count whole segments, and a
    sine at a time t where 2*pi*frequency*t is not finite.
    """
    spec = DisturbanceSpec(kind=kind, **fields)
    kind, amp = spec.kind, float(spec.amplitude)
    if kind == "none" or amp == 0.0:
        kind, amp = "none", 0.0

    if kind in ("none", "constant"):
        vec = np.array([amp, 0.0])

        def signal(t):
            t = np.asarray(t, dtype=float)
            return np.broadcast_to(vec, t.shape + (2,)).copy()

        return Disturbance(kind=kind, signal=signal, sup_norm=amp)

    if kind == "sine":
        w = 2.0 * np.pi * float(spec.frequency)

        def signal(t):
            t = np.asarray(t, dtype=float)
            with np.errstate(over="ignore"):
                wt = w * t
            bad = ~np.isfinite(wt)
            if bad.any():
                t_bad = float(np.min(np.abs(t[bad])))  # the first time it fails at
                raise ConfigurationError(
                    f"disturbance.frequency = {float(spec.frequency)!r} is too large for "
                    f"t = {t_bad!r}: 2*pi*frequency*t must be finite"
                )
            return np.stack([amp * np.sin(wt), amp * np.cos(wt)], axis=-1)

        return Disturbance(kind=kind, signal=signal, sup_norm=amp)

    # random: one table row per segment, the table repeating after _RANDOM_TABLE
    seed, seg = spec.seed, float(spec.segment)

    def signal(t):
        t = np.asarray(t, dtype=float)
        n = np.floor_divide(t, seg)
        if np.any(np.abs(n) >= _MAX_SEGMENTS):
            t_max = float(np.max(np.abs(t)))
            raise ConfigurationError(
                f"disturbance.segment = {seg!r} is too short for t = {t_max!r}: "
                "t / segment must stay below 2**53 to count whole segments"
            )
        m = n.astype(np.int64)
        if m.size == 0:
            return np.empty(t.shape + (2,))
        # the rows of segments lo .. max(m), at most one period, drawn from
        # table row lo % _RANDOM_TABLE on; a window past the last row wraps
        lo = int(m.min())
        start, count = lo % _RANDOM_TABLE, min(int(m.max()) - lo + 1, _RANDOM_TABLE)
        head = min(count, _RANDOM_TABLE - start)
        rows = _random_rows(amp, seed, start, head)
        if head < count:
            rows = np.concatenate([rows, _random_rows(amp, seed, 0, count - head)])
        return rows[(m - lo) % _RANDOM_TABLE]

    # the sup norm streams both draw sequences through the table a block at a time
    angles, radii = _draws(seed, 0), _draws(seed, _RANDOM_TABLE)
    sup = 0.0
    for _ in range(_RANDOM_TABLE // _TABLE_BLOCK):
        block = _disk(amp, angles.random(_TABLE_BLOCK), radii.random(_TABLE_BLOCK))
        sup = max(sup, _largest_norm(*block))
    return Disturbance(kind=kind, signal=signal, sup_norm=sup)


def _draws(seed: int, skip: int) -> np.random.Generator:
    """default_rng(seed) past its first ``skip`` draws: random() takes one
    64-bit output of PCG64 per draw, and PCG64.advance skips outputs."""
    return np.random.Generator(np.random.PCG64(seed).advance(skip))


def _random_rows(amp: float, seed: int, lo: int, n: int) -> np.ndarray:
    """Rows lo .. lo + n - 1 of the random kind's table, (n, 2), for
    lo + n <= _RANDOM_TABLE.

    The table is default_rng(seed)'s first _RANDOM_TABLE draws as angles and
    its next _RANDOM_TABLE draws as radii, row i taking angle draw i and
    radius draw _RANDOM_TABLE + i; see _disk. Only the n rows asked for are
    drawn.
    """
    angles, radii = _draws(seed, lo).random(n), _draws(seed, _RANDOM_TABLE + lo).random(n)
    return np.stack(_disk(amp, angles, radii), axis=-1)


def _disk(amp: float, angles: np.ndarray, radii: np.ndarray) -> tuple:
    """The columns (c0, c1) = radius * (cos theta, sin theta) of rows in the
    closed disk of radius amp, from raw random() draws, computed in the
    draws' buffers.

    theta = uniform(0, 2 pi) and radius = amp * sqrt(uniform(0, 1)), where
    uniform(0, hi) is 0.0 + hi * random(), the same float as hi * random().
    The table's sup norm is sqrt(max(c0*c0 + c1*c1)) over its blocks of
    rows (_largest_norm), the bits of vnorm's largest value: 0.0 + c0*c0 is
    c0*c0, and a correctly rounded sqrt is monotone.
    """
    theta = np.multiply(angles, 2.0 * np.pi, out=angles)
    radius = np.sqrt(radii, out=radii)
    radius *= amp
    c0 = np.cos(theta)
    c0 *= radius
    c1 = np.sin(theta, out=theta)
    c1 *= radius
    return c0, c1


def _largest_norm(c0, c1) -> float:
    """max(sqrt(c0*c0 + c1*c1)) over two columns, with no overflow where the
    rows are finite and no underflow where one is not zero: a block whose
    largest sum of squares overflows, or is subnormal or zero, is summed
    again scaled by a power of two, which is exact for its largest row."""
    with np.errstate(over="ignore"):
        sq = float(np.max(c0 * c0 + c1 * c1))
    if _TINY <= sq < math.inf:
        return math.sqrt(sq)
    scale = 1.0 / _SCALE if sq == math.inf else _SCALE
    c0, c1 = c0 * scale, c1 * scale
    return math.sqrt(float(np.max(c0 * c0 + c1 * c1))) / scale


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
    offset gain, finite and > 0, at the disturbance sup norm d_sup. A gain
    and sup norm, each finite, whose iota or iota / alpha_e is not finite
    are refused: no envelope check can judge an infinite offset."""
    _check_gain(mu_gain)
    if not (np.isfinite(d_sup) and d_sup >= 0):
        raise ConfigurationError("disturbance sup norm must be finite and >= 0")
    mu_gain, d_sup = float(mu_gain), float(d_sup)
    mu_at_d = mu_gain * d_sup
    rtf = rcbf.rtf
    iota = float(rtf.a2 * float(np.exp(rtf.beta * rtf.tau)) * mu_at_d / rtf.m_overshoot)
    gamma_margin = float(iota / rcbf.alpha_e)
    if not (math.isfinite(iota) and math.isfinite(gamma_margin)):
        raise ConfigurationError(
            f"mu gain {mu_gain!r} at disturbance sup norm {d_sup!r} gives a "
            "non-finite envelope offset"
        )
    return IssEnvelope(rtf, mu_gain, d_sup, mu_at_d, iota, gamma_margin)


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


def estimate_mu_gain(plant, law, cfg: IntegratorConfig) -> float:
    """Empirical linear gain c so that mu(r) = c r bounds the error offset.

    Rolls ``plant``, the plant F(x, u) on state components, with ``law``
    from quiet starts (at the goal, zero velocity) over cfg under the _PROBE_*
    schedule, a constant and two sinusoidal disturbances, and takes the worst
    transient-inclusive ratio max_t ||e_dot(t)|| / amplitude. The error loop
    is linear while the filter is inactive, so the ratio is amplitude-free;
    the frequency sweep matters because the loop's peak gain sits at a
    nonzero frequency. Each probe is one rollout on the single-run path
    whose largest ||e_dot|| is folded as the kernel runs (see _largest_v):
    the gain is the float np.max(integrate(...).v) / amplitude gives, maxed
    over the probes, with no Trajectory recorded.
    """
    x0s = np.concatenate([np.asarray(law.goal, dtype=float), np.zeros(2)])[None, :]
    amp, c = _PROBE_AMPLITUDE, 0.0
    for freq in _PROBE_FREQUENCIES:
        if freq == 0.0:
            d = make_disturbance("constant", amplitude=amp)
        else:
            d = make_disturbance("sine", amplitude=amp, frequency=freq)
        c = max(c, _largest_v(plant, law, x0s, cfg, d.signal) / amp)
    if not c > 0:
        raise ConfigurationError("calibration produced a zero gain; disturbance has no effect")
    return c


def _largest_v(plant, law, x0s, cfg: IntegratorConfig, d_sig) -> float:
    """The largest V = ||e_dot|| over the samples of the rollout from x0s,
    (1, 4), folded as the kernel yields them.

    V is _derived's vnorm in float code, vsum's order for two parts (vnorm
    leaves out the + 0.0, which never changes a square), so it has the bits
    integrate records in Trajectory.v; a NaN V sticks, as in
    np.max. A non-finite state raises the DivergenceError integrate raises.
    """
    v_max = -math.inf
    with np.errstate(all="ignore"):  # integrate_batch's, around the same kernel
        samples = _rollout(plant, law, x0s, cfg.dt, cfg.n_steps, d_sig)
        for k, (t, x, _u, inter) in enumerate(samples):
            if not finite(x):
                raise DivergenceError(f"non-finite state at step {k} (t={t:.6g}), run 0")
            (_, _, vx, vy), (sx, sy) = x, inter.z_dot_s
            ex, ey = vx - sx, vy - sy
            v = math.sqrt((ex * ex + 0.0) + ey * ey)
            if v > v_max or v != v:
                v_max = v
    return v_max
