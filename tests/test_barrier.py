"""Obstacle field and min-distance barrier behavior."""
import numpy as np
import pytest

import layersafe as ls


def single_disk():
    return ls.min_distance_barrier(
        ls.ObstacleField(centers=[[-0.1, 0.3]], radii=[0.5])
    )


def two_disks_field():
    return ls.ObstacleField(
        centers=[[-0.1, 0.3], [1.3, -0.3]], radii=[0.5, 0.5]
    )


def test_field_validation():
    with pytest.raises(ls.ConfigurationError):
        ls.ObstacleField(centers=[[0.0, 0.0]], radii=[0.5, 0.5])
    with pytest.raises(ls.ConfigurationError):
        ls.ObstacleField(centers=[[0.0, 0.0]], radii=[0.0])
    with pytest.raises(ls.ConfigurationError):
        ls.ObstacleField(centers=[[0.0, 0.0]], radii=[-1.0])
    with pytest.raises(ls.ConfigurationError):
        ls.ObstacleField(centers=[[0.0, np.inf]], radii=[0.5])
    # the barrier takes planar states only
    b = single_disk()
    for z in ([0.1, 0.2, 0.3], [[0.1]], 0.5):
        with pytest.raises(ls.ConfigurationError, match=r"shape \(\.\.\., 2\)"):
            b.value_and_gradient(z)


def test_value_at_known_point():
    b = single_disk()
    assert float(b.value(np.array([0.9, 0.3]))) == pytest.approx(0.5, abs=1e-15)
    n = b.gradient(np.array([0.9, 0.3]))
    assert np.allclose(n, [1.0, 0.0], atol=1e-15)


def test_min_over_obstacles():
    b = ls.min_distance_barrier(two_disks_field())
    z = np.array([0.9, 0.3])
    # nearer disk is the second one here: distance 0.7211 - 0.5 < 0.5
    expected = np.hypot(0.4, 0.6) - 0.5
    assert float(b.value(z)) == pytest.approx(expected, rel=1e-14)
    # sign flips inside an obstacle
    assert float(b.value(np.array([-0.1, 0.35]))) < 0


def _reference_value_and_gradient(field, z):
    """The argmin/take_along_axis formula the per-obstacle kernel replaced."""
    z = np.asarray(z, dtype=float)
    diff = z[..., None, :] - field.centers
    dists = np.sqrt(np.sum(diff * diff, axis=-1))
    margins = dists - field.radii
    idx = np.asarray(np.argmin(margins, axis=-1))
    val = np.take_along_axis(margins, np.expand_dims(idx, -1), axis=-1)[..., 0]
    dist = np.take_along_axis(dists, np.expand_dims(idx, -1), axis=-1)[..., 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = (z - field.centers[idx]) / np.expand_dims(dist, -1)
    return np.min(margins, axis=-1), val, grad


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# symmetric worlds whose equidistance loci tie exactly in floating point
_FIELDS = {
    1: ls.ObstacleField(centers=[[-0.1, 0.3]], radii=[0.5]),
    2: ls.ObstacleField(centers=[[-1.0, 0.0], [1.0, 0.0]], radii=[0.5, 0.5]),
    3: ls.ObstacleField(centers=[[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]], radii=[0.5, 0.5, 0.5]),
}


def _probe_states(field, rng):
    special = [
        [0.0, 0.0],  # ties obstacles 0 and 1 (all three when P = 3)
        [0.0, -2.5],  # ties obstacles 0 and 1 only
        [0.5, 0.5],  # ties obstacles 1 and 2 only (P = 3)
        [np.inf, 0.0],
        [-np.inf, 1.0],
        [np.inf, -np.inf],
        [np.nan, 0.0],
        [0.0, np.nan],
        [1e-200, 0.0],
    ]
    centers = [list(c) for c in field.centers]
    states = np.array(special + centers + list(rng.uniform(-3, 3, size=(40, 2))))
    return states[rng.permutation(states.shape[0])]


def test_batch_matches_scalar_bitwise():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2, 2, size=(200, 2))
    hv = b.value(zs)
    gv = b.gradient(zs)
    h2, g2 = b.value_and_gradient(zs)
    assert np.array_equal(hv, h2)
    assert np.array_equal(gv, g2)
    for i in range(0, 200, 17):
        assert float(b.value(zs[i])) == hv[i]
        assert np.array_equal(np.asarray(b.gradient(zs[i])), gv[i])

    # the per-obstacle kernel reproduces the argmin formula bit for bit, NaN
    # and non-finite gradients included, over every leading shape
    for p, field in [*_FIELDS.items(), (2, two_disks_field())]:
        b = ls.min_distance_barrier(field)
        zs = _probe_states(field, np.random.default_rng(p))
        batches = [zs, zs[: 4 * (zs.shape[0] // 4)].reshape(4, -1, 2)]
        for z in [*zs, *batches]:
            ref_value, ref_h, ref_grad = _reference_value_and_gradient(field, z)
            h, grad = b.value_and_gradient(z)
            assert _same_bits(b.value(z), ref_value)
            assert _same_bits(h, ref_h)
            assert _same_bits(grad, ref_grad)
            if z.ndim == 1 and np.any(np.all(z == field.centers, axis=-1)):
                with pytest.raises(ls.SingularGradientError):
                    b.gradient(z)
            else:
                assert _same_bits(b.gradient(z), ref_grad)
        # a center row has a non-finite gradient; no other row is affected
        at_center = np.all(zs[:, None, :] == field.centers, axis=-1).any(axis=-1)
        _h, grad = b.value_and_gradient(zs)
        assert not np.any(np.isfinite(grad[at_center]))
        finite = np.all(np.isfinite(zs), axis=-1) & ~at_center
        assert np.all(np.isfinite(grad[finite]))


def test_vec_sums_match_numpy_bitwise():
    """vnorm and vdot sum a short trailing axis exactly as np.sum does."""
    rng = np.random.default_rng(7)
    for n in range(1, 5):
        for shape in [(n,), (1, n), (9, n), (3, 4, n)]:
            a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
            c = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
            a.flat[::5] = -0.0
            c.flat[::3] = 0.0
            a.flat[1::7] = np.inf
            c.flat[2::11] = np.nan
            with np.errstate(all="ignore"):
                assert _same_bits(ls._vec.vdot(a, c), np.sum(a * c, axis=-1))
                assert _same_bits(ls._vec.vnorm(a), np.sqrt(np.sum(a * a, axis=-1)))
            # an all -0.0 sum is +0.0, as numpy's reduction gives
            neg = np.full(shape, -0.0)
            assert _same_bits(ls._vec.vdot(neg, np.ones(shape)), np.sum(neg, axis=-1))


def test_gradient_is_unit_norm():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(1)
    zs = rng.uniform(-3, 3, size=(500, 2))
    keep = np.min(b.field.center_distances(zs), axis=-1) > 1e-6
    g = b.gradient(zs[keep])
    assert np.allclose(np.hypot(g[:, 0], g[:, 1]), 1.0, atol=1e-12)


def test_gradient_matches_finite_difference():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(2)
    zs = rng.uniform(-2, 2, size=(100, 2))
    # stay away from the tie locus and the centers so h is smooth
    d = b.field.center_distances(zs)
    keep = (np.abs(d[:, 0] - d[:, 1]) > 1e-2) & (np.min(d, axis=-1) > 1e-2)
    zs = zs[keep]
    eps = 1e-7
    g = b.gradient(zs)
    for k in range(2):
        step = np.zeros(2)
        step[k] = eps
        fd = (b.value(zs + step) - b.value(zs - step)) / (2 * eps)
        assert np.allclose(g[:, k], fd, atol=1e-6)


def test_tie_uses_one_consistent_obstacle():
    field = two_disks_field()
    b = ls.min_distance_barrier(field)
    # midpoint of the two centers is equidistant from both
    z = np.array([0.6, 0.0])
    h, g = b.value_and_gradient(z)
    i = int(field.nearest(z))
    diff = z - field.centers[i]
    expected = diff / np.hypot(*diff)
    assert np.array_equal(np.asarray(g), expected)
    assert float(h) == float(b.value(z))


def test_singular_gradient():
    b = single_disk()
    with pytest.raises(ls.SingularGradientError):
        b.gradient(np.array([-0.1, 0.3]))
    # batch path keeps other rows finite instead of raising
    g = b.gradient(np.array([[-0.1, 0.3], [0.9, 0.3]]))
    assert not np.all(np.isfinite(g[0]))
    assert np.allclose(g[1], [1.0, 0.0])


def test_estimate_grad_bound_is_one():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(3)
    pts = rng.uniform(-3, 3, size=(2000, 2))
    pts = pts[np.min(b.field.center_distances(pts), axis=-1) > 1e-3]
    est = ls.estimate_grad_bound(b, pts)
    assert est == pytest.approx(1.0, rel=1e-12)
    assert b.grad_bound == 1.0


def test_cbf_condition_with_strong_inputs():
    b = ls.min_distance_barrier(two_disks_field())
    pair = ls.double_integrator_pair()
    rng = np.random.default_rng(4)
    grid = rng.uniform(-2, 2, size=(300, 2))
    grid = grid[b.value(grid) > 0.0]
    # candidate velocities include strong pushes along every axis direction
    vs = 3.0 * np.array(
        [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [-1, -1]], dtype=float
    )
    rep = ls.check_cbf_condition(b, pair, alpha=1.0, grid=grid, v_candidates=vs)
    assert rep.all_valid
    assert rep.n_points == grid.shape[0]
    assert np.all(rep.margins >= 0)
    assert rep.fail_indices.size == 0


def test_cbf_condition_detects_failures():
    b = single_disk()
    pair = ls.double_integrator_pair()
    grid = np.array([[0.9, 0.3]])  # h = 0.5 here
    # only a strong inward push is available: margin = -3 + alpha * 0.5 < 0
    vs = np.array([[-3.0, 0.0]])
    rep = ls.check_cbf_condition(b, pair, alpha=1.0, grid=grid, v_candidates=vs)
    assert not rep.all_valid
    assert rep.n_valid == 0
    assert np.allclose(rep.margins, [-3.0 + 0.5], atol=1e-12)
    with pytest.raises(ls.ConfigurationError):
        ls.check_cbf_condition(b, pair, alpha=0.0, grid=grid, v_candidates=vs)
