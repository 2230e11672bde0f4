"""Tracking certificates, containment times, the recurrent barrier, and trajectory checks.

The tracking certificate V = ||e_dot|| is recorded by every rollout as
Trajectory.v, and the checks here read it (and the recorded h) from there;
its constants (a1, a2, beta, tau, M) live in one record, Rtf. Its recurrence
property over windows of length tau asks for some sample time t in (0, tau]
with e^{beta t} V(t) <= V(0): V need not decay monotonically, it must merely
keep returning below an exponentially shrinking level.

The recurrent barrier combines the certificate with a state barrier h:
h_V(z, e_dot) = -V(z, e_dot) + alpha_e h(z), with
alpha_e = a1^2 (beta - alpha) / (a2 C_h M). Its zero-superlevel set is the
certified region: trajectories started there keep h nonnegative even while
h_V itself dips below zero, provided beta > alpha. The recurrence of h_V is
what that result concludes from the certificate's recurrence, so a run
checks the certificate's recurrence and h >= 0, not h_V's recurrence.

Every verdict quantity comes from one scan (see there): certify scans blocks
of samples, the run commands the whole record.
"""
from __future__ import annotations

import math
import sys
from dataclasses import astuple, dataclass
from typing import NamedTuple

import numpy as np

from ._vec import const, split, vnorm
from .barrier import BarrierFn
from .dynamics import Trajectory
from .errors import ConfigurationError, HypothesisViolationError, require_number

_H_TOL = 1e-6  # a sample counts as a violation only below -_H_TOL
# the largest x whose np.exp is finite: log of the largest double
_EXP_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class Rtf:
    """The constants of the tracking certificate V = ||e_dot||, in one record.

    V itself is recorded by every rollout as Trajectory.v. The constants
    promise a1 ||e_dot|| <= V <= a2 ||e_dot||; beta is the recurrence rate,
    tau the window length and m_overshoot the certified tracking overshoot
    M. Each must be a finite number, with 0 < a1 <= a2 and beta, tau, M > 0;
    a message about one value starts with its scenario key, rtf.a1 to rtf.M,
    and the one about the pair a1, a2 with the key out of place: rtf.a2
    when 0 < a1 and a2 lies below both a1 and 1 (a scenario also needs
    a2 >= 1; see Scenario), else rtf.a1.
    """

    a1: float = 1.0
    a2: float = 1.0
    beta: float = 2.45
    tau: float = 1.0
    m_overshoot: float = 3.24

    def __post_init__(self):
        for key, val in zip(("rtf.a1", "rtf.a2", "rtf.beta", "rtf.tau", "rtf.M"), astuple(self)):
            require_number(key, val)
            if not np.isfinite(val):  # the echo could not write it back
                raise ConfigurationError(f"{key} must be finite, got {val!r}")
        a1, a2 = self.a1, self.a2
        if not 0 < a1 <= a2:
            key = "rtf.a2" if 0 < a1 and a2 < 1.0 else "rtf.a1"
            raise ConfigurationError(
                f"{key} is out of range: rtf.a1 and rtf.a2 need 0 < a1 <= a2, "
                f"got a1={a1!r}, a2={a2!r}"
            )
        for key, val in zip(("rtf.beta", "rtf.tau", "rtf.M"), astuple(self)[2:]):
            if not val > 0:
                raise ConfigurationError(f"{key} must be positive, got {val!r}")


def _predicate_mask(traj: Trajectory, predicate) -> np.ndarray:
    mask = np.asarray(predicate(traj), dtype=bool)
    if mask.shape != traj.t.shape:
        raise ConfigurationError("predicate must produce one boolean per sample")
    return mask


def _covers_window(traj: Trajectory, rtf: Rtf) -> bool:
    """Whether the rollout spans the certificate's recurrence window, to half a step."""
    return traj.horizon + traj.dt / 2 >= rtf.tau


def _window(t, dt: float, a: float, b_end: float) -> slice:
    # (a, b] resolved at sample resolution: strictly after a, within half a
    # step of b so the endpoint sample always counts; t is increasing, so
    # the window is one slice of the samples
    return slice(*np.searchsorted(t, (a, b_end + dt / 2), side="right").tolist())


def fold_min(x, prev=None):
    """NaN-skipping minimum of the samples x, folded into ``prev``."""
    m = np.fmin.reduce(x, axis=0)
    return m if prev is None else np.fmin(prev, m)


def fold_window(t, v, beta: float, tau: float, dt: float, prev=None):
    """NaN-skipping minimum of e^{beta t} v over the samples in (0, tau] to
    half a step, folded into ``prev``; inf while the window holds none.
    t increases, so the window's last weight is its largest; when it
    overflows to inf, a sample with V = 0 weighs 0 (V itself, as a finite
    weight gives), not inf * 0 = NaN, and no warning is raised."""
    win = _window(t, dt, 0.0, tau)
    bt, vw = beta * t[win], v[win]
    if win.stop > win.start and bt[-1] > _EXP_MAX:  # the last weight overflows
        with np.errstate(over="ignore", invalid="ignore"):
            wv = np.where(vw == 0.0, vw, _weighted(bt, vw))
    else:
        wv = _weighted(bt, vw)
    m = np.fmin.reduce(wv, axis=0, initial=np.inf)
    return m if prev is None else np.fmin(prev, m)


def _weighted(bt, v):
    """e^{bt} v, one weight per sample (axis 0)."""
    w = np.exp(bt)
    return (w[:, None] if v.ndim > 1 else w) * v


def fold_first(t, hit, prev=None):
    """The first time t at which ``hit`` holds (NaN if none), unless ``prev``
    already holds an earlier one; ``prev`` itself when no sample hits."""
    if prev is not None and not hit.any():
        return prev
    first = np.where(np.any(hit, axis=0), t[np.argmax(hit, axis=0)], np.nan)
    return first if prev is None else np.where(np.isnan(prev), first, prev)


class Scan(NamedTuple):
    """The verdict quantities of one run or of K runs, as scan folds them."""

    v0: np.ndarray
    min_h: np.ndarray
    min_h_v: np.ndarray
    window: np.ndarray
    first_violation_t: np.ndarray
    diverged_t: np.ndarray

    @property
    def rtf_margin(self):
        """The recurrence margin V(0) - min e^{beta t} V(t) over the window;
        NaN, with no warning, where both are inf."""
        with np.errstate(invalid="ignore"):
            return self.v0 - self.window


def scan(t, h, v, h_v, ok, rtf: Rtf, dt: float, prev: Scan | None = None) -> Scan:
    """Fold one block of samples, time on axis 0, (B,) for one run or (B, K)
    for K runs, into ``prev``, the Scan of the blocks before; ``ok`` says
    whether each state was finite. V(0) is copied from the first block, as a
    caller may reuse its buffers. fold_min gives min h and min h_V, skipping
    NaN: a run that goes NaN keeps the minima it had, an all-NaN series stays
    NaN. fold_window gives the least e^{beta t} V over 0 < t <= tau + dt/2,
    inf while that window is empty. fold_first gives the first violation,
    h < -1e-6, and the first time the state or h was not finite. Blocks of
    any size give the same bits as one block of the whole record.
    """
    if prev is None:
        prev = Scan(v[0].copy(), None, None, None, None, None)
    return Scan(
        prev.v0,
        fold_min(h, prev.min_h),
        fold_min(h_v, prev.min_h_v),
        fold_window(t, v, rtf.beta, rtf.tau, dt, prev.window),
        fold_first(t, h < -_H_TOL, prev.first_violation_t),
        fold_first(t, ~(ok & np.isfinite(h)), prev.diverged_t),
    )


def containment_times(traj: Trajectory, predicate, window) -> np.ndarray:
    """Sample times in the half-open window (a, b] where the predicate holds.

    ``predicate`` maps the trajectory to a boolean mask over samples.
    """
    a, b_end = float(window[0]), float(window[1])
    if not b_end > a:
        raise ConfigurationError("window must have positive length")
    if b_end > traj.horizon + traj.dt / 2:
        raise ConfigurationError(
            f"window end {b_end:g} exceeds the trajectory horizon {traj.horizon:g}"
        )
    win = _window(traj.t, traj.dt, a, b_end)
    return traj.t[win][_predicate_mask(traj, predicate)[win]]


@dataclass(frozen=True)
class RecurrenceVerdict:
    """Outcome of a recurrence check: the margin V(0) - min e^{beta t} V(t)
    over the window, shifted alike, and whether it is nonnegative up to
    1e-12 relative slack; an empty window gives margin -inf, not satisfied."""

    satisfied: bool
    margin: float


def check_rtf_recurrence(rtf: Rtf, traj: Trajectory, shift: float = 0.0) -> RecurrenceVerdict:
    """Recurrence of the certificate V as recorded, by fold_window (see
    RecurrenceVerdict); the disturbed variant subtracts ``shift`` from V."""
    if not _covers_window(traj, rtf):
        raise ConfigurationError(
            f"trajectory horizon {traj.horizon:g} is shorter than the window {rtf.tau:g}"
        )
    v0 = float(traj.v[0]) - shift
    margin = v0 - float(fold_window(traj.t, traj.v - shift, rtf.beta, rtf.tau, traj.dt))
    return RecurrenceVerdict(satisfied=margin >= -1e-12 * max(1.0, abs(v0)), margin=margin)


@dataclass(frozen=True)
class EnvelopeVerdict:
    holds: bool
    worst_ratio: float


def check_exponential_envelope(traj: Trajectory, beta: float, m: float) -> EnvelopeVerdict:
    """Pointwise V(t) <= m e^{-beta t} V(0), 1e-9 relative tolerance, V = ||e_dot|| as recorded.

    A zero initial error is degenerate: the verdict is true only if the error
    stays identically zero. Where the bound underflows (beta t past about
    745), a zero V has ratio 0 and a positive one ratio inf, with no warning.
    """
    en = traj.v
    e0 = float(en[0])
    if e0 == 0.0:
        if np.all(en == 0.0):
            return EnvelopeVerdict(holds=True, worst_ratio=0.0)
        return EnvelopeVerdict(holds=False, worst_ratio=float("inf"))
    bound = m * e0 * np.exp(-beta * traj.t)
    with np.errstate(divide="ignore", over="ignore"):  # an underflowed bound, 0 or subnormal
        ratios = np.divide(en, bound, out=np.zeros_like(en), where=en != 0.0)
    worst = float(np.max(ratios))
    return EnvelopeVerdict(holds=worst <= 1.0 + 1e-9, worst_ratio=worst)


@dataclass(frozen=True)
class RecurrentCbf:
    """Barrier-minus-certificate function h_V(z, e_dot) = -V + alpha_e h."""

    rtf: Rtf
    barrier: BarrierFn
    alpha: float
    alpha_e: float

    def __post_init__(self):
        object.__setattr__(self, "_alpha_e", const(self.alpha_e))  # combine's operand

    def value(self, z, e_dot):
        """h_V at sampled states; a rollout records it through combine."""
        return self.combine(vnorm(split(e_dot)), self.barrier.value(z))

    def combine(self, v, h):
        """h_V from a certificate value V and a barrier value h already at
        hand, floats or arrays (kept as they are, columns included); alpha_e
        enters as a 0-d array (see _vec)."""
        return -np.asanyarray(v, dtype=float) + self._alpha_e * np.asanyarray(h, dtype=float)


def build_rcbf(rtf: Rtf, b: BarrierFn, alpha: float) -> RecurrentCbf:
    """Construct the recurrent barrier; requires beta > alpha.

    alpha_e = a1^2 (beta - alpha) / (a2 C_h M) with C_h the barrier's gradient
    bound and M = rtf.m_overshoot the certified tracking overshoot.
    """
    if not alpha > 0:
        raise ConfigurationError("alpha must be positive")
    if not b.grad_bound > 0:
        raise ConfigurationError("barrier gradient bound must be positive")
    if not rtf.beta > alpha:
        raise HypothesisViolationError(
            "the recurrence rate must exceed the barrier decay rate "
            f"(beta={rtf.beta:g} <= alpha={alpha:g}); no recurrent barrier exists here"
        )
    alpha_e = rtf.a1 * rtf.a1 * (rtf.beta - alpha) / (rtf.a2 * b.grad_bound * rtf.m_overshoot)
    return RecurrentCbf(rtf=rtf, barrier=b, alpha=float(alpha), alpha_e=float(alpha_e))


def in_recurrent_set(rcbf: RecurrentCbf, z, e_dot):
    """Membership in the certified region {h_V >= 0}."""
    return rcbf.value(z, e_dot) >= 0.0


@dataclass(frozen=True)
class ChainReport:
    """Pointwise audit of the barrier lower bound along a rollout.

    slack(t) = h(t) - [e^{-alpha t} h(0) - C_h * I(t)] with I the
    exponentially weighted integral of ||e_dot||, evaluated by trapezoid
    quadrature.
    """

    t: np.ndarray
    slack: np.ndarray
    min_slack: float
    min_slack_t: float


def check_safety_chain(traj: Trajectory, rcbf: RecurrentCbf) -> ChainReport:
    """Audit h(t) >= e^{-alpha t} h(0) - C_h int_0^t e^{-alpha (t-s)} V(s) ds, h and V
    as recorded."""
    alpha = rcbf.alpha
    c_h = rcbf.barrier.grad_bound
    t = traj.t
    h = traj.h
    integral = _chain_integral(alpha, t, traj.v, traj.dt)
    lower = np.exp(-alpha * t) * h[0] - c_h * integral
    slack = h - lower
    i = int(np.argmin(slack))
    return ChainReport(t=t, slack=slack, min_slack=float(slack[i]), min_slack_t=float(t[i]))


def _chain_integral(alpha: float, t, v, dt: float):
    """I_k = e^{-alpha t_k} * trapezoid of e^{alpha s} V(s) over [t_0, t_k], O(T)
    via cumsum, over spans of alpha t-length _EXP_MAX / 2 so that no weight
    e^{alpha (t - t_a)} from a span's start t_a overflows; the running sum
    (less half the first sample) is carried scaled to each span's start. With
    t_0 = 0 and alpha t_end within _EXP_MAX / 2 this is one span, the single
    cumsum (csum - c/2) - c_0/2 bit for bit."""
    integral = np.empty_like(v)
    carry, a = -0.5 * v[0], 0
    while a < t.size:
        b = max(a + 1, int(np.searchsorted(t, t[a] + _EXP_MAX / (2.0 * alpha), side="right")))
        at = alpha * (t[a:b] - t[a])
        c = np.exp(at) * v[a:b]
        s = np.cumsum(c)
        integral[a:b] = np.exp(-at) * dt * ((s - 0.5 * c) + carry)
        if b < t.size:
            carry = np.exp(-alpha * (t[b] - t[a])) * (s[-1] + carry)
        a = b
    return integral
