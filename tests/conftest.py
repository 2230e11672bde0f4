"""Shared fixtures and helpers: bundled scenarios, built worlds, cached rollouts,
synthetic trajectories and a barrier that counts its passes."""
from collections import Counter

import numpy as np
import pytest

import layersafe as ls

# calibrated linear mu gain for the (k_p=1.8, k_d=8.0) loop, frozen from
# estimate_mu_gain's constant + sine schedule (regression in test_robustness)
MU_GAIN = 0.14257784711889365

# obstacle far enough that the safety filter never engages: the tracking
# loop runs in its linear regime from any start used in the tests
LINEAR_WORLD = """\
start = 0.0, 0.0
goal = 0.0, 0.0
obstacle.1.center = 50.0, 50.0
obstacle.1.radius = 0.5
gains.kp = 1.8
gains.kd = 8.0
gains.alpha = 0.5
rtf.a1 = 1.0
rtf.a2 = 1.0
rtf.beta = 2.45
rtf.tau = 1.0
rtf.M = 3.24
sim.dt = 0.001
sim.horizon = 3.0
"""


def build_world(scn):
    """All derived objects for one scenario, keyed by role."""
    loop = ls.build_loop(scn)
    return {"scn": scn, "barrier": loop.law.barrier, "rtf": scn.rtf, **loop._asdict()}


def error_starts(law, e_dot0):
    """Full states at the goal carrying the given velocity errors (rows)."""
    e_dot0 = np.atleast_2d(np.asarray(e_dot0, dtype=float))
    goal = np.asarray(law.goal, dtype=float)
    return np.concatenate(
        [np.broadcast_to(goal, e_dot0.shape).copy(), e_dot0], axis=1
    )


def synthetic_trajectory(t, v_norms, h=None):
    """A minimal trajectory whose error-norm series equals v_norms.

    Positions sit at the origin; only the fields the certificate checks read
    (t, e_dot, v, h) carry signal.
    """
    t = np.asarray(t, dtype=float)
    n = t.size
    v_norms = np.asarray(v_norms, dtype=float)
    e_dot = np.zeros((n, 2))
    e_dot[:, 0] = v_norms
    zeros2 = np.zeros((n, 2))
    h = np.zeros(n) if h is None else np.asarray(h, dtype=float)
    return ls.Trajectory(
        dt=float(t[1] - t[0]),
        t=t,
        x=np.zeros((n, 4)),
        z=zeros2.copy(),
        z_dot=e_dot.copy(),
        z_s_dot=zeros2.copy(),
        e=zeros2.copy(),
        e_dot=e_dot,
        u=zeros2.copy(),
        h=h,
        active=np.zeros(n, dtype=bool),
        v=np.abs(v_norms).astype(float),
        h_v=np.zeros(n),
    )


def counting_barrier(field, monkeypatch):
    """A min-distance barrier whose value and value_and_gradient passes are counted."""
    b = ls.min_distance_barrier(field)
    calls = Counter()

    def counted(name, method):
        def call(self, z):
            if self is b:
                calls[name] += 1
            return method(self, z)
        return call

    monkeypatch.setattr(ls.BarrierFn, "value", counted("value", ls.BarrierFn.value))
    monkeypatch.setattr(
        ls.BarrierFn, "value_and_gradient", counted("vg", ls.BarrierFn.value_and_gradient)
    )
    return b, calls


@pytest.fixture(scope="session")
def two_disks():
    return ls.load_scenario(ls.bundled_scenario_path("two_disks.scn"))


@pytest.fixture(scope="session")
def open_field():
    return ls.load_scenario(ls.bundled_scenario_path("open_field.scn"))


@pytest.fixture(scope="session")
def td(two_disks):
    return build_world(two_disks)


@pytest.fixture(scope="session")
def of(open_field):
    return build_world(open_field)


@pytest.fixture(scope="session")
def linear():
    return build_world(ls.parse_scenario(LINEAR_WORLD, name="linear_world"))


@pytest.fixture(scope="session")
def td_transit(td):
    """Bundled two-disk rollout at the declared alpha (0.5), full horizon."""
    scn = td["scn"]
    x0 = ls.initial_state(scn, td["law"])
    return ls.integrate(td["pair"], td["law"], x0, scn.integrator, rcbf=td["rcbf"])


@pytest.fixture(scope="session")
def of_run(of):
    """Open-field station keeping under the declared sine disturbance."""
    scn = of["scn"]
    x0 = ls.initial_state(scn, of["law"])
    return ls.integrate(
        of["pair"], of["law"], x0, scn.integrator,
        rcbf=of["rcbf"], disturbance=of["dist"],
    )
