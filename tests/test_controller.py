"""Layered velocity pipeline: goal pull, safety filter, tracking feedback."""

import numpy as np
import pytest

import layersafe as ls
from conftest import error_starts
from test_dynamics import _CRAFTED_STARTS, _crafted_world


def comps(a):
    """A state array as the layers take it: floats for one state, columns for a batch."""
    a = np.asarray(a, dtype=float)
    return tuple(a.tolist()) if a.ndim == 1 else tuple(np.ascontiguousarray(a.T))


def stacked(v):
    """A tuple of components back on a trailing axis."""
    return np.stack(v, axis=-1)


def single_disk():
    return ls.min_distance_barrier(
        ls.ObstacleField(centers=[[-0.1, 0.3]], radii=[0.5])
    )


def test_gains_validation():
    with pytest.raises(ls.ConfigurationError, match="gains.kp must be strictly positive"):
        ls.Gains(k_p=0.0, k_d=8.0, alpha=0.5)
    with pytest.raises(ls.ConfigurationError, match="gains.kd must be strictly positive"):
        ls.Gains(k_p=1.8, k_d=-1.0, alpha=0.5)
    with pytest.raises(ls.ConfigurationError, match="gains.alpha"):
        ls.Gains(k_p=1.8, k_d=8.0, alpha=float("nan"))


def test_desired_velocity_formula():
    goal = np.array([2.0, 0.0])
    z = np.array([0.9, 0.3])
    zd = stacked(ls.desired_velocity(comps(goal), 1.8, comps(z)))
    assert np.allclose(zd, [1.98, -0.54], atol=1e-15)
    zs = np.array([[0.9, 0.3], [2.0, 0.0]])
    zds = stacked(ls.desired_velocity(comps(goal), 1.8, comps(zs)))
    assert np.allclose(zds, [[1.98, -0.54], [0.0, 0.0]], atol=1e-15)


def test_safe_velocity_known_correction():
    # z with h = 0.5 and outward normal (1, 0): pushing straight at the disk
    # with speed 1 exceeds the budget alpha*h = 0.25, so the filter adds 0.75
    b = single_disk()
    z = np.array([0.9, 0.3])
    z_dot_d = np.array([-1.0, 0.0])
    z_s, active, _h = ls.safe_velocity(b, 0.5, comps(z), comps(z_dot_d))
    assert np.allclose(stacked(z_s), [-0.25, 0.0], atol=1e-14)
    assert bool(active)


def test_safe_velocity_inactive_is_identity():
    b = single_disk()
    rng = np.random.default_rng(0)
    z = rng.uniform(-3, 3, size=(2000, 2))
    z = z[b.field.center_distances(z)[:, 0] > 0.05]
    zd = rng.uniform(-4, 4, size=(z.shape[0], 2))
    zs, active, _h = ls.safe_velocity(b, 0.5, comps(z), comps(zd))
    zs = stacked(zs)
    h = b.value(z)
    n = b.value_and_gradient(z)[1]
    feasible = np.einsum("ij,ij->i", n, zd) + 0.5 * h >= 0
    assert np.array_equal(np.asarray(active), ~feasible)
    assert np.array_equal(zs[feasible], zd[feasible])


def test_safe_velocity_residual_nonnegative():
    # the defining half-space constraint holds after filtering, everywhere
    b = single_disk()
    rng = np.random.default_rng(1)
    z = rng.uniform(-3, 3, size=(100_000, 2))
    z = z[b.field.center_distances(z)[:, 0] > 0.05]
    zd = rng.uniform(-4, 4, size=(z.shape[0], 2))
    for alpha in (0.5, 1.0, 5.0):
        zs = stacked(ls.safe_velocity(b, alpha, comps(z), comps(zd))[0])
        res = np.einsum("ij,ij->i", b.value_and_gradient(z)[1], zs) + alpha * b.value(z)
        assert float(np.min(res)) >= -1e-9


def test_safe_velocity_is_minimal_change():
    # the correction is along the constraint normal only: tangential
    # components pass through untouched
    b = single_disk()
    rng = np.random.default_rng(2)
    z = rng.uniform(-3, 3, size=(500, 2))
    z = z[b.field.center_distances(z)[:, 0] > 0.05]
    zd = rng.uniform(-4, 4, size=(z.shape[0], 2))
    zs, active, _h = ls.safe_velocity(b, 0.7, comps(z), comps(zd))
    zs = stacked(zs)
    n = b.value_and_gradient(z)[1]
    tang = np.stack([-n[:, 1], n[:, 0]], axis=1)
    assert np.allclose(
        np.einsum("ij,ij->i", tang, zs), np.einsum("ij,ij->i", tang, zd), atol=1e-12
    )
    # active rows land exactly on the constraint boundary
    res = np.einsum("ij,ij->i", n, zs) + 0.7 * b.value(z)
    assert np.allclose(res[np.asarray(active)], 0.0, atol=1e-12)


def test_tracking_control_formula():
    u = stacked(ls.tracking_control(8.0, (1.0, 2.0), (0.5, -1.0)))
    assert np.allclose(u, [-4.0, -24.0], atol=1e-15)


def _bits(a):
    a = np.asarray(a)
    return a.dtype, a.shape, a.tobytes()


def test_layers_match_numpy_reference_bitwise():
    # each layer against an independent numpy formula, bit for bit with
    # signed zeros, on floats (one state at a time) and on columns: the
    # float-vs-column rollout test cannot see a slip both paths share.
    # The filter is fed both the planner's output and an arbitrary velocity.
    _plant, law = _crafted_world()[:2]
    b, goal = law.barrier, law.goal
    k_p, k_d, alpha = law.gains.k_p, law.gains.k_d, law.gains.alpha
    rng = np.random.default_rng(17)
    x = rng.uniform(-3.0, 3.0, size=(400, 4))
    zeros = rng.random(x.shape) < 0.25
    x[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    x[:20, :2] = goal  # z - goal = 0: the planner gives -0.0
    x = np.concatenate([np.array(_CRAFTED_STARTS), x])
    z, z_dot = x[:, :2], x[:, 2:4]

    zd_ref = -k_p * (z - goal)
    h, n = b.value_and_gradient(z)
    refs = []
    for v in (zd_ref, z_dot):
        corr = np.maximum(-np.sum(n * v, axis=-1) - alpha * h, 0.0)
        zs_ref = v + corr[:, None] * n
        refs.append((v, zs_ref, corr > 0.0, -k_d * (z_dot - zs_ref)))
    assert np.any(refs[0][2]) and not np.all(refs[0][2])  # both filter branches are hit

    def check(rows, as_comps):
        zd = ls.desired_velocity(comps(goal), k_p, as_comps(z[rows]))
        assert _bits(stacked(zd)) == _bits(zd_ref[rows])
        for v, zs_ref, active_ref, u_ref in refs:
            zs, active, h_out = ls.safe_velocity(b, alpha, as_comps(z[rows]), as_comps(v[rows]))
            assert _bits(stacked(zs)) == _bits(zs_ref[rows])
            assert np.array_equal(active, active_ref[rows])
            assert _bits(h_out) == _bits(h[rows])
            u = ls.tracking_control(k_d, as_comps(z_dot[rows]), zs)
            assert _bits(stacked(u)) == _bits(u_ref[rows])

    check(slice(None), comps)  # columns
    for k in range(x.shape[0]):  # floats
        check(k, lambda a: tuple(float(c) for c in a))

    # corrections of exactly -0.0, 0.0 and NaN (inf - inf in n . z_dot_d),
    # against one disk at the origin: on its boundary at (0.5, 0) h = 0 and
    # n = (1, 0), so a velocity with a zero x-component gives -0.0 - 0.0
    disk = ls.min_distance_barrier(ls.ObstacleField(centers=[[0.0, 0.0]], radii=[0.5]))
    z = np.array([[0.5, 0.0], [1.5, 0.0], [0.6, 0.8]])
    v = np.array([[0.0, 0.7], [-0.5, 0.3], [np.inf, -np.inf]])
    h, n = disk.value_and_gradient(z)
    with np.errstate(invalid="ignore"):
        corr = -np.sum(n * v, axis=-1) - alpha * h
        assert _bits(corr[:2]) == _bits(np.array([-0.0, 0.0])) and np.isnan(corr[2])
        corr = np.maximum(corr, 0.0)
        zs_ref = v + corr[:, None] * n
        for rows in (slice(None), 0, 1, 2):  # columns, then floats
            zs, active, _h = ls.safe_velocity(disk, alpha, comps(z[rows]), comps(v[rows]))
            assert _bits(stacked(zs)) == _bits(zs_ref[rows]), rows
            assert np.array_equal(active, corr[rows] > 0.0)


def test_law_refuses_non_planar_goal():
    # the layers are written on the two planar components
    b = ls.min_distance_barrier(ls.ObstacleField(centers=[[5.0, 5.0]], radii=[0.5]))
    gains = ls.Gains(k_p=1.8, k_d=8.0, alpha=0.5)
    for shape in ((1,), (3,), (2, 2)):
        with pytest.raises(ls.ConfigurationError, match=r"^goal must have shape \(2,\)$"):
            ls.assemble_closed_loop(b, gains, np.zeros(shape))
    assert ls.assemble_closed_loop(b, gains, [1.0, 0.0]).barrier is b


def test_law_evaluate_returns_law_intermediates():
    # evaluate on components builds its result without NamedTuple.__new__;
    # it is still that NamedTuple, with its fields, attributes and _replace
    scn = ls.load_scenario(ls.bundled_scenario_path("two_disks.scn"))
    law = ls.build_law(scn, ls.build_barrier(scn))
    inter = law.evaluate(tuple(ls.initial_state(scn, law).tolist()))
    assert type(inter) is ls.LawIntermediates
    assert inter._fields == ("z_dot_d", "z_dot_s", "active", "h", "u")
    assert list(inter) == [getattr(inter, name) for name in inter._fields]
    assert ls.LawIntermediates(*inter) == inter
    changed = inter._replace(h=-1.0)
    assert type(changed) is ls.LawIntermediates and changed.h == -1.0
    assert changed._replace(h=inter.h) == inter


def test_assembled_law_consistency():
    scn = ls.load_scenario(ls.bundled_scenario_path("two_disks.scn"))
    b = ls.build_barrier(scn)
    law = ls.build_law(scn, b)
    rng = np.random.default_rng(3)
    x = rng.uniform(-2, 2, size=(300, 4))
    keep = np.min(b.field.center_distances(x[:, :2]), axis=-1) > 0.05
    x = x[keep]
    inter = law.evaluate(x)
    zd_direct = ls.desired_velocity(comps(law.goal), law.gains.k_p, comps(x[:, :2]))
    assert np.array_equal(np.asarray(inter.z_dot_d), stacked(zd_direct))
    zs_direct, act_direct, _h = ls.safe_velocity(b, law.gains.alpha, comps(x[:, :2]), zd_direct)
    assert np.array_equal(np.asarray(inter.z_dot_s), stacked(zs_direct))
    assert np.array_equal(np.asarray(inter.active), np.asarray(act_direct))
    assert np.array_equal(inter.h, b.value(x[:, :2]))
    u_direct = ls.tracking_control(law.gains.k_d, comps(x[:, 2:4]), zs_direct)
    assert np.array_equal(np.asarray(inter.u), stacked(u_direct))


def test_certified_envelope_holds_on_rollout(linear):
    scn, plant, law = linear["scn"], linear["plant"], linear["law"]
    rng = np.random.default_rng(4)
    angles = rng.uniform(0, 2 * np.pi, size=16)
    mags = rng.uniform(0.1, 2.0, size=16)
    e0 = np.stack([mags * np.cos(angles), mags * np.sin(angles)], axis=1)
    batch = ls.integrate_batch(plant, law, error_starts(law, e0), scn.integrator)
    for traj in batch:
        # the pair declared by the bundled scenario is an envelope
        assert ls.check_exponential_envelope(traj, 2.45, 3.24).holds
