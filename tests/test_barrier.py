"""Obstacle field and min-distance barrier behavior."""

from types import SimpleNamespace

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
    n = b.value_and_gradient(np.array([0.9, 0.3]))[1]
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
    with np.errstate(all="ignore"):
        diff = z[..., None, :] - field.centers
        dists = np.sqrt(np.sum(diff * diff, axis=-1))
        margins = dists - field.radii
        idx = np.asarray(np.argmin(margins, axis=-1))
        val = np.take_along_axis(margins, np.expand_dims(idx, -1), axis=-1)[..., 0]
        dist = np.take_along_axis(dists, np.expand_dims(idx, -1), axis=-1)[..., 0]
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
    5: ls.ObstacleField(
        centers=[[-4.0, 4.0], [-1.0, 0.0], [1.0, 0.0], [0.0, 2.0], [0.0, -2.0]],
        radii=[0.3, 0.5, 0.5, 0.5, 0.5],
    ),
}


def _probe_states(field, rng):
    special = [
        [0.0, 0.0],  # ties obstacles 0 and 1 (all three when P = 3; 1 and 2 when P = 5)
        [0.0, -2.5],  # ties obstacles 0 and 1 only
        [0.5, 0.5],  # ties obstacles 1 and 2 only (P = 3)
        [-0.5, 1.0],  # ties obstacles 1 and 3 (P = 5)
        [0.5, -1.0],  # ties obstacles 2 and 4 (P = 5)
        [np.inf, 0.0],
        [-np.inf, 1.0],
        [np.inf, -np.inf],
        [-np.inf, -np.inf],
        [0.5, np.inf],
        [np.nan, 0.0],
        [0.0, np.nan],
        [np.nan, np.nan],
        [np.inf, np.nan],
        # squares overflow to inf on every obstacle
        [1e200, 0.0],
        [-1e200, 1e200],
        [3e199, -1e-200],
        [1e-200, 0.0],
        # next to the P = 3 center (0, 1): dx * dx underflows, so the
        # distance is 0.0 while dx is not, and the float path falls back to
        # np.divide for (inf, NaN)
        [1e-200, 1.0],
    ]
    centers = [list(c) for c in field.centers]
    states = np.array(special + centers + list(rng.uniform(-3, 3, size=(40, 2))))
    return states[rng.permutation(states.shape[0])]


def test_batch_matches_scalar_bitwise():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(0)
    zs = rng.uniform(-2, 2, size=(200, 2))
    hv = b.value(zs)
    gv = b.value_and_gradient(zs)[1]
    h2, g2 = b.value_and_gradient(zs)
    assert np.array_equal(hv, h2)
    assert np.array_equal(gv, g2)
    for i in range(0, 200, 17):
        assert float(b.value(zs[i])) == hv[i]
        assert np.array_equal(np.asarray(b.value_and_gradient(zs[i])[1]), gv[i])

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
        # a row at distance 0.0 from a center (on it, or within underflow)
        # has a non-finite gradient; no other row is affected
        with np.errstate(over="ignore"):
            at_center = np.any(field.center_distances(zs) == 0.0, axis=-1)
        _h, grad = b.value_and_gradient(zs)
        assert not np.any(np.isfinite(grad[at_center]))
        finite = np.all(np.isfinite(zs), axis=-1) & ~at_center
        assert np.all(np.isfinite(grad[finite]))


def test_vec_sums_match_numpy_bitwise():
    """vnorm on a planar vector's components gives np.sum's root bit for bit."""
    rng = np.random.default_rng(7)
    for shape in [(2,), (1, 2), (9, 2), (3, 4, 2)]:
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        a.flat[::5] = -0.0
        a.flat[1::7] = np.inf
        with np.errstate(all="ignore"):
            # as components: floats for a vector, columns otherwise
            parts = ls._vec.split(a)
            assert isinstance(parts[0], float) == (a.ndim == 1)
            assert _same_bits(ls._vec.vnorm(parts), np.sqrt(np.sum(a * a, axis=-1)))


def test_split_callers_match_numpy_norm_bitwise():
    # the callers that split an array before vnorm: the field's center
    # distances, the recurrent barrier's V and effective_disturbance_bound's
    # norm, each against np.sum's root on the probe rows (inf, NaN, 1e200)
    field = two_disks_field()
    b = ls.min_distance_barrier(field)
    rcbf = ls.build_rcbf(ls.Rtf(), b, alpha=0.5)
    zs = _probe_states(field, np.random.default_rng(3))
    no_field = SimpleNamespace(barrier=SimpleNamespace())
    with np.errstate(all="ignore"):
        diff = zs[:, None, :] - field.centers
        assert _same_bits(field.center_distances(zs), np.sqrt(np.sum(diff * diff, axis=-1)))
        norms = np.sqrt(np.sum(zs * zs, axis=-1))
        assert _same_bits(rcbf.value(zs, zs), -norms + rcbf.alpha_e * b.value(zs))
        for row, norm in zip(zs, norms):
            # three samples whose one central difference, over 2 dt = 1.0, is row
            traj = SimpleNamespace(
                n_samples=3, dt=0.5, z_s_dot=np.array([[0.0, 0.0], [0.0, 0.0], row]),
                active=np.ones(3, dtype=bool),
            )
            assert _same_bits(ls.effective_disturbance_bound(traj, no_field), norm)


def test_gradient_is_unit_norm():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(1)
    zs = rng.uniform(-3, 3, size=(500, 2))
    keep = np.min(b.field.center_distances(zs), axis=-1) > 1e-6
    g = b.value_and_gradient(zs[keep])[1]
    assert np.allclose(np.hypot(g[:, 0], g[:, 1]), 1.0, atol=1e-12)
    assert b.grad_bound == 1.0


def test_gradient_matches_finite_difference():
    b = ls.min_distance_barrier(two_disks_field())
    rng = np.random.default_rng(2)
    zs = rng.uniform(-2, 2, size=(100, 2))
    # stay away from the tie locus and the centers so h is smooth
    d = b.field.center_distances(zs)
    keep = (np.abs(d[:, 0] - d[:, 1]) > 1e-2) & (np.min(d, axis=-1) > 1e-2)
    zs = zs[keep]
    eps = 1e-7
    g = b.value_and_gradient(zs)[1]
    for k in range(2):
        step = np.zeros(2)
        step[k] = eps
        fd = (b.value(zs + step) - b.value(zs - step)) / (2 * eps)
        assert np.allclose(g[:, k], fd, atol=1e-6)


@pytest.mark.parametrize("p", sorted(_FIELDS))
def test_column_pass_matches_float_pass_bitwise(p):
    # each row of a column pass has the bits of one state's float pass, the
    # in-place loop over extra obstacles included, and the pass leaves the
    # caller's columns as they were
    field = _FIELDS[p]
    vg = ls.min_distance_barrier(field).vg_fn
    zs = _probe_states(field, np.random.default_rng(p))
    zx, zy = np.ascontiguousarray(zs[:, 0]), np.ascontiguousarray(zs[:, 1])
    before = zx.tobytes(), zy.tobytes()
    with np.errstate(all="ignore"):
        h, (gx, gy) = vg((zx, zy))
    assert (zx.tobytes(), zy.tobytes()) == before
    rows = [vg((x, y)) for x, y in zs.tolist()]
    assert _same_bits(h, np.array([r[0] for r in rows]))
    assert _same_bits(gx, np.array([r[1][0] for r in rows]))
    assert _same_bits(gy, np.array([r[1][1] for r in rows]))
    if p >= 3:  # the probes tie two obstacles after the first, where m < h is false
        with np.errstate(over="ignore"):
            margins = field.center_distances(zs) - field.radii
        ties = (margins == margins.min(axis=-1, keepdims=True)).sum(axis=-1) >= 2
        assert np.any(ties & (np.argmin(margins, axis=-1) >= 1))


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


@pytest.mark.parametrize("world", ["td", "of"])
def test_numpy_scalar_components_are_refused(world, request):
    # components are two Python floats or two ndarray columns; numpy scalars
    # and 0-d arrays are neither, and the barrier kernel names both forms
    w = request.getfixturevalue(world)
    for z in (tuple(np.array([1.0, 1.0])), (np.array(1.0), np.array(1.0))):
        with pytest.raises(ls.ConfigurationError, match="Python floats or two ndarray columns"):
            w["barrier"].value_and_gradient(z)
    with pytest.raises(ls.ConfigurationError, match="Python floats or two ndarray columns"):
        w["law"].evaluate(tuple(np.array([1.0, 1.0, 0.0, 0.0])))
