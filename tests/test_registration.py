import dataclasses
import math
import multiprocessing
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from logmatch import correspondence, registration
from logmatch.correspondence import _CACHE_NEIGHBOURS, _SCAN_MAX
from logmatch.registration import (
    _Stack,
    _align_pairs,
    _alignment_matrices,
    _columns,
    _cross_covariances,
    _max_eigenpairs,
)

from logmatch import (
    quaternion_to_rotation,
    CorrespondenceSet,
    IcpConfig,
    IcpIteration,
    IcpTrace,
    InvalidInputError,
    NumericalError,
    PointCloud,
    RegistrationResult,
    RigidTransform,
    TerminalReason,
    UnitQuaternion,
    apply_transform,
    build_index,
    compute_registration,
    icp_align,
    icp_distance,
    match_correspondences,
    max_eigenvector,
)
from synthdata import box_cloud, jittered_copy, log_like_cloud, random_axis, random_transform, rotation_angle


def identity_pairs(n):
    return CorrespondenceSet(np.arange(n), np.zeros(n))


def cross_covariance(moving, model, pairs):
    """The cross-covariance that compute_registration fits,
    (1/n) sum (p - mu_p)(x - mu_x)^T over the paired points."""
    sigma, _ = _cross_covariances(_Stack([moving.xyz]), _columns([model.xyz[pairs.target_indices]]))
    return sigma[0]


def quaternion_alignment_matrix(sigma):
    """The 4x4 matrix whose top eigenvector is the rotation fitted to sigma."""
    return _alignment_matrices(np.asarray(sigma, dtype=np.float64)[None])[0]


class TestCrossCovariance:
    def test_self_pairing_gives_ordinary_covariance(self):
        cloud = box_cloud(np.random.default_rng(0), 200)
        sigma = cross_covariance(cloud, cloud, identity_pairs(200))
        centered = cloud.xyz - cloud.xyz.mean(axis=0)
        np.testing.assert_allclose(sigma, centered.T @ centered / 200, atol=1e-12)
        np.testing.assert_allclose(sigma, sigma.T, atol=1e-12)

    def test_two_point_hand_value(self):
        # centroids vanish; (1/2)(p1 x1^T + p2 x2^T) has a single entry 1 at (0, 1)
        moving = PointCloud([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
        model = PointCloud([[0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        sigma = cross_covariance(moving, model, identity_pairs(2))
        expected = np.zeros((3, 3))
        expected[0, 1] = 1.0
        np.testing.assert_array_equal(sigma, expected)

    def test_matches_second_algebraic_form(self):
        # oracle: (1/n) sum p x^T - mu_p mu_x^T
        rng = np.random.default_rng(1)
        moving = box_cloud(rng, 300, size=1.0)
        model = box_cloud(rng, 400, size=1.0)
        pairs = match_correspondences(build_index(model), moving)
        sigma = cross_covariance(moving, model, pairs)
        matched = model.xyz[pairs.target_indices]
        outer = moving.xyz.T @ matched / len(moving)
        expected = outer - np.outer(moving.xyz.mean(axis=0), matched.mean(axis=0))
        np.testing.assert_allclose(sigma, expected, atol=1e-12)

    def test_rejects_partial_pairing(self):
        cloud = box_cloud(np.random.default_rng(2), 10)
        with pytest.raises(InvalidInputError):
            compute_registration(cloud, cloud, identity_pairs(5))

    @pytest.mark.parametrize("target", [-1, 10, 11])
    @pytest.mark.parametrize("fit", [compute_registration])
    def test_rejects_target_index_out_of_range(self, fit, target):
        cloud = box_cloud(np.random.default_rng(2), 10)
        idx = np.arange(10)
        idx[3] = target
        with pytest.raises(InvalidInputError, match="target index out of range"):
            fit(cloud, cloud, CorrespondenceSet(idx, np.zeros(10)))


class TestQuaternionAlignmentMatrix:
    def test_identity_sigma(self):
        np.testing.assert_array_equal(
            quaternion_alignment_matrix(np.eye(3)), np.diag([3.0, -1.0, -1.0, -1.0])
        )

    def test_zero_sigma(self):
        np.testing.assert_array_equal(quaternion_alignment_matrix(np.zeros((3, 3))), np.zeros((4, 4)))

    def test_single_off_diagonal_entry(self):
        sigma = np.zeros((3, 3))
        sigma[0, 1] = 1.0
        q = quaternion_alignment_matrix(sigma)
        expected = np.zeros((4, 4))
        expected[0, 3] = expected[3, 0] = 1.0
        expected[1, 2] = expected[2, 1] = 1.0
        np.testing.assert_array_equal(q, expected)

    def test_always_symmetric(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = quaternion_alignment_matrix(rng.normal(size=(3, 3)))
            np.testing.assert_array_equal(q, q.T)


class TestMaxEigenvector:
    def test_diagonal_matrix(self):
        value, vector = max_eigenvector(np.diag([3.0, 1.0, 2.0, 0.0]))
        assert value == 3.0
        np.testing.assert_array_equal(vector, [1.0, 0.0, 0.0, 0.0])

    def test_degenerate_spectrum_still_an_eigenvector(self):
        value, vector = max_eigenvector(np.eye(4))
        assert value == pytest.approx(1.0)
        np.testing.assert_allclose(np.eye(4) @ vector, vector, atol=1e-12)

    def test_random_matrices_residual_and_rayleigh(self):
        # oracle: residual plus Rayleigh quotients of random unit probes
        rng = np.random.default_rng(4)
        for _ in range(1000):
            a = rng.normal(size=(4, 4))
            m = (a + a.T) / 2.0
            value, vector = max_eigenvector(m)
            assert np.linalg.norm(m @ vector - value * vector) <= 1e-9
            probes = rng.normal(size=(100, 4))
            probes /= np.linalg.norm(probes, axis=1, keepdims=True)
            rayleigh = np.einsum("ij,jk,ik->i", probes, m, probes)
            assert value >= rayleigh.max() - 1e-12

    def test_scaled_matrices_keep_relative_accuracy(self):
        rng = np.random.default_rng(5)
        for scale in (1e-6, 1e3, 1e6):
            a = rng.normal(size=(4, 4)) * scale
            m = (a + a.T) / 2.0
            value, vector = max_eigenvector(m)
            assert np.linalg.norm(m @ vector - value * vector) <= 1e-9 * scale

    def test_rejects_asymmetric(self):
        m = np.zeros((4, 4))
        m[0, 1] = 1.0
        with pytest.raises(InvalidInputError):
            max_eigenvector(m)

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            max_eigenvector(np.eye(3))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        m = np.eye(4)
        m[2, 2] = bad
        with pytest.raises(InvalidInputError, match="non-finite"):
            max_eigenvector(m)


class TestComputeRegistration:
    def test_self_registration_is_identity(self):
        cloud = box_cloud(np.random.default_rng(6), 100)
        reg = compute_registration(cloud, cloud, identity_pairs(100))
        np.testing.assert_allclose(reg.transform.rotation.as_array(), [1, 0, 0, 0], atol=1e-9)
        np.testing.assert_allclose(reg.transform.translation, 0.0, atol=1e-9)
        assert reg.mse <= 1e-24

    def test_pure_translation_recovered(self):
        cloud = box_cloud(np.random.default_rng(7), 100)
        model = PointCloud(cloud.xyz + np.array([1.0, 2.0, 3.0]))
        reg = compute_registration(cloud, model, identity_pairs(100))
        np.testing.assert_allclose(reg.transform.rotation.as_array(), [1, 0, 0, 0], atol=1e-9)
        np.testing.assert_allclose(reg.transform.translation, [1.0, 2.0, 3.0], atol=1e-9)
        assert reg.mse <= 1e-18

    def test_tetrahedron_quarter_turn(self):
        moving = PointCloud([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0], [0.0, 0, 1]])
        quarter = UnitQuaternion.from_axis_angle([0, 0, 1], math.pi / 2)
        model = apply_transform(RigidTransform(quarter), moving)
        reg = compute_registration(moving, model, identity_pairs(4))
        half = math.sqrt(2.0) / 2.0
        np.testing.assert_allclose(reg.transform.rotation.as_array(), [half, 0, 0, half], atol=1e-9)
        assert reg.mse <= 1e-18

    def test_optimality_against_perturbations(self):
        # the closed form is a global minimum for fixed correspondences
        rng = np.random.default_rng(8)
        for _ in range(10):
            moving = box_cloud(rng, 60)
            model = box_cloud(rng, 80)
            pairs = match_correspondences(build_index(model), moving)
            reg = compute_registration(moving, model, pairs)
            matched = model.xyz[pairs.target_indices]
            diameter = float(np.linalg.norm(moving.xyz.max(0) - moving.xyz.min(0)))
            r0 = reg.transform.matrix()
            t0 = reg.transform.translation
            for _ in range(200):
                wiggle = quaternion_to_rotation(
                    UnitQuaternion.from_axis_angle(random_axis(rng), rng.uniform(0, math.radians(10)))
                )
                rp = wiggle @ r0
                tp = wiggle @ t0 + rng.uniform(-0.1 * diameter, 0.1 * diameter, 3)
                diff = matched - (moving.xyz @ rp.T + tp)
                assert reg.mse <= (diff * diff).sum(axis=1).mean()

    def test_result_validates_mse(self):
        with pytest.raises(InvalidInputError):
            RegistrationResult(RigidTransform.identity(), -1.0)


class TestMse:
    """The mse a registration reports is the residual of its own fit."""

    @pytest.mark.parametrize("size,translation,tolerance", [
        (1000.0, 50.0, {"rel": 1e-12}),   # mm-scale residuals
        (1.0, 0.05, {"abs": 1e-12}),      # unit-scale residuals
    ])
    def test_matches_scalar_loop_oracle(self, size, translation, tolerance):
        rng = np.random.default_rng(10)
        moving = box_cloud(rng, 120, size=size)
        model = apply_transform(random_transform(rng, 1.0, translation), box_cloud(rng, 150, size=size))
        pairs = match_correspondences(build_index(model), moving)
        reg = compute_registration(moving, model, pairs)
        value, t = reg.mse, reg.transform
        r = t.matrix()
        total = 0.0
        for src, tgt in enumerate(pairs.target_indices):
            p = r @ moving.xyz[src] + t.translation
            x = model.xyz[tgt]
            total += float((x - p) @ (x - p))
        assert value == pytest.approx(total / len(moving), **tolerance)


class TestIcpAlign:
    def test_identical_clouds_converge_immediately(self):
        cloud = box_cloud(np.random.default_rng(11), 150)
        result, trace = icp_align(cloud, cloud)
        assert trace.terminal_reason is TerminalReason.CONVERGED
        assert len(trace.iterations) == 2  # first convergence check
        assert result.mse <= 1e-24
        np.testing.assert_allclose(result.transform.rotation.as_array(), [1, 0, 0, 0], atol=1e-9)

    def test_recovers_known_transform(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            cloud = box_cloud(rng, 400)
            diameter = float(np.linalg.norm(cloud.xyz.max(0) - cloud.xyz.min(0)))
            truth = random_transform(rng, math.radians(20), 0.05 * diameter)
            model = apply_transform(truth, cloud)
            result, trace = icp_align(cloud, model)
            assert result.mse <= 1e-12
            assert rotation_angle(result.transform.matrix(), truth.matrix()) <= 1e-6
            assert np.linalg.norm(result.transform.translation - truth.translation) <= 1e-6

    def test_unrelated_clouds_monotone_and_terminate(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            a = box_cloud(rng, 150)
            b = box_cloud(rng, 200)
            result, trace = icp_align(a, b)
            assert trace.terminal_reason in (TerminalReason.CONVERGED, TerminalReason.MAX_ITERATIONS)
            errors = trace.errors()
            assert (np.diff(errors) <= 0.0).all()
            assert result.mse == errors[-1]

    def test_registration_equivariance(self):
        # pre-transforming both clouds by the same motion keeps the distance
        rng = np.random.default_rng(14)
        a = box_cloud(rng, 120)
        b = box_cloud(rng, 150)
        base = icp_distance(a, b)
        for _ in range(5):
            g = random_transform(rng, 2.0, 300.0)
            moved = icp_distance(apply_transform(g, a), apply_transform(g, b))
            assert moved == pytest.approx(base, rel=1e-9, abs=1e-9)

    def test_stride_subsampling_still_aligns(self):
        rng = np.random.default_rng(17)
        cloud = box_cloud(rng, 400)
        truth = random_transform(rng, math.radians(15), 50.0)
        model = apply_transform(truth, cloud)
        result, _ = icp_align(cloud, model, IcpConfig(stride=4))
        assert result.mse <= 1e-12

    def test_pre_align_handles_large_offset(self):
        rng = np.random.default_rng(18)
        cloud = box_cloud(rng, 300)
        model = PointCloud(cloud.xyz + np.array([5000.0, -3000.0, 800.0]))
        result, _ = icp_align(cloud, model, IcpConfig(pre_align=True))
        assert result.mse <= 1e-12

    def test_max_iterations_respected(self):
        rng = np.random.default_rng(19)
        a = box_cloud(rng, 100)
        b = box_cloud(rng, 100)
        result, trace = icp_align(a, b, IcpConfig(tau=1e-300, max_iterations=5))
        assert trace.terminal_reason is TerminalReason.MAX_ITERATIONS
        assert len(trace.iterations) == 5


class TestIcpDistance:
    def test_zero_for_equal_clouds(self):
        cloud = box_cloud(np.random.default_rng(20), 80)
        assert icp_distance(cloud, cloud) == 0.0

    def test_small_for_rigid_copy(self):
        rng = np.random.default_rng(21)
        cloud = box_cloud(rng, 300)
        model = apply_transform(random_transform(rng, math.radians(25), 80.0), cloud)
        assert icp_distance(cloud, model) <= 1e-12

    def test_positive_for_scaled_copy(self):
        # rigid alignment cannot absorb scale
        rng = np.random.default_rng(22)
        direction = rng.normal(size=(500, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        sphere = PointCloud(100.0 * direction)
        doubled = PointCloud(2.0 * sphere.xyz)
        assert icp_distance(sphere, doubled) > 1.0


class TestDegenerateGeometry:
    def test_single_point_clouds_register_by_translation(self):
        moving = PointCloud([[1.0, 2.0, 3.0]])
        model = PointCloud([[5.0, 5.0, 5.0]])
        result, _ = icp_align(moving, model)
        assert result.mse == 0.0
        np.testing.assert_allclose(result.transform.translation, [4.0, 3.0, 2.0], atol=1e-9)

    def test_collinear_cloud_is_not_an_error(self):
        line = PointCloud(np.column_stack([np.arange(10.0), np.zeros(10), np.zeros(10)]))
        result, _ = icp_align(line, line)
        assert result.mse == 0.0

    def test_stride_beyond_cloud_size_keeps_first_point(self):
        rng = np.random.default_rng(23)
        a = box_cloud(rng, 5)
        b = box_cloud(rng, 7)
        result, trace = icp_align(a, b, IcpConfig(stride=50))
        assert result.mse >= 0.0
        assert trace.terminal_reason is TerminalReason.CONVERGED


class TestConfigAndTrace:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tau": 0.0},
            {"tau": -1e-9},
            {"max_iterations": 0},
            {"stride": 0},
            {"max_iterations": 2.5},
            {"stride": 1.5},
            {"max_iterations": 3.0},
            {"stride": np.float64(2.0)},
            {"max_iterations": True},
            {"stride": np.True_},
            {"max_iterations": "3"},
            {"stride": np.int64(0)},
        ],
    )
    def test_config_validation(self, kwargs):
        with pytest.raises(InvalidInputError):
            IcpConfig(**kwargs)

    def test_config_accepts_numpy_integers(self):
        cfg = IcpConfig(max_iterations=np.int32(7), stride=np.uint8(2))
        assert type(cfg.max_iterations) is int and cfg.max_iterations == 7
        assert type(cfg.stride) is int and cfg.stride == 2

    def test_trace_rejects_increasing_errors(self):
        identity = RigidTransform.identity()
        # Any increase, down to one unit in the last place.
        for later in (2.0, np.nextafter(1.0, 2.0)):
            entries = (
                IcpIteration(0, 1.0, identity),
                IcpIteration(1, later, identity),
            )
            with pytest.raises(NumericalError):
                IcpTrace(entries, TerminalReason.MAX_ITERATIONS)

    def test_trace_requires_entries(self):
        with pytest.raises(InvalidInputError):
            IcpTrace((), TerminalReason.CONVERGED)


def eigen_stack():
    """Symmetric 4x4 matrices at scales 1e-6 to 1e6, then the identity, a
    diagonal, a 2x2 block and the zero matrix: (stack, scale of each)."""
    rng = np.random.default_rng(30)
    stack, scales = [], []
    for scale in (1e-6, 1.0, 1e3, 1e6):
        for _ in range(50):
            a = rng.normal(size=(4, 4)) * scale
            stack.append((a + a.T) / 2.0)
            scales.append(scale)
    block = np.zeros((4, 4))
    block[:2, :2] = [[2.0, 1.0], [1.0, 3.0]]
    block[2, 2], block[3, 3] = -1.0, 5.0
    stack += [np.eye(4), np.diag([3.0, 1.0, 2.0, 0.0]), block, np.zeros((4, 4))]
    scales += [1.0] * 4
    return np.array(stack), scales


class TestMaxEigenpairs:
    def test_stack_rows_match_each_matrix_alone(self):
        stack, _ = eigen_stack()
        values, vectors = _max_eigenpairs(stack)
        for i, m in enumerate(stack):
            value, vector = _max_eigenpairs(m[None])
            assert values[i:i + 1].tobytes() == value.tobytes()
            assert vectors[i:i + 1].tobytes() == vector.tobytes()

    def test_residuals_scale_with_the_matrix(self):
        stack, scales = eigen_stack()
        values, vectors = _max_eigenpairs(stack)
        for m, value, vector, scale in zip(stack, values, vectors, scales):
            assert np.linalg.norm(m @ vector - value * vector) <= 1e-9 * scale
            assert abs(np.linalg.norm(vector) - 1.0) <= 1e-12

    def test_zero_and_identity_give_the_identity_quaternion(self):
        _, vectors = _max_eigenpairs(np.array([np.zeros((4, 4)), np.eye(4)]))
        np.testing.assert_array_equal(vectors, [[1.0, 0.0, 0.0, 0.0]] * 2)

    def test_input_is_not_modified(self):
        m = np.array([[2.0, 1.0, 0.0, 0.0], [1.0, 2.0, 0.0, 0.0], [0.0, 0.0, 1.0, 0.5], [0.0, 0.0, 0.5, 1.0]])
        before = m.copy()
        _max_eigenpairs(m[None])
        np.testing.assert_array_equal(m, before)

    def test_solver_failure_raises_numerical_error(self, monkeypatch):
        def fail(matrices):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        with pytest.raises(NumericalError, match="did not converge"):
            _max_eigenpairs(np.eye(4)[None])


def engine_case(rng):
    """Scans and the pairs that align moving clouds of 1 to 120 points onto
    models of 1 to 300 points, including rigid copies that converge and
    unrelated pairs that do not."""
    models = [box_cloud(rng, n) for n in (1, 40, 90, 300)]
    moving = [box_cloud(rng, n) for n in (1, 7, 60, 120)]
    moving.append(apply_transform(random_transform(rng, math.radians(20), 50.0), models[2]))
    moving.append(PointCloud(models[3].xyz[::3] + rng.normal(0.0, 1.0, (100, 3))))
    return with_pairs(models, moving)


def with_pairs(models, moving):
    """One scan list, the models first, and every (moving, model) pair of it."""
    m = len(models)
    return models + moving, [(m + i, j) for i in range(len(moving)) for j in range(m)]


def outcome(run, k):
    """A pair's record and its history, transforms included, from a run
    with record=True."""
    return (run.mse[k].tobytes(), int(run.iterations[k]), bool(run.converged[k]), int(run.queried[k]),
            [(e, q.tobytes(), t.tobytes()) for e, q, t in run.history[k]])


ENGINE_CONFIGS = [
    IcpConfig(),
    IcpConfig(max_iterations=3),
    IcpConfig(pre_align=True, stride=2),
    IcpConfig(tau=1e-3),
]


class TestLockstepEngine:
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_pair_results_do_not_depend_on_the_batch(self, cfg, monkeypatch):
        scans, pairs = engine_case(np.random.default_rng(32))
        alone = [outcome(_align_pairs(scans, [pair], cfg, record=True), 0) for pair in pairs]
        together = _align_pairs(scans, pairs, cfg, record=True)
        backwards = _align_pairs(scans, pairs[::-1], cfg, record=True)
        # a cap below most pair sizes cuts the stack into many batches
        monkeypatch.setattr(registration, "_BATCH_POINTS", 64)
        chunked = _align_pairs(scans, pairs, cfg, record=True)
        n = len(pairs)
        assert len({int(it) for it in together.iterations}) > 1
        for k in range(n):
            assert outcome(together, k) == alone[k]
            assert outcome(backwards, n - 1 - k) == alone[k]
            assert outcome(chunked, k) == alone[k]

    def test_icp_align_is_a_batch_of_one(self):
        scans, pairs = engine_case(np.random.default_rng(33))
        run = _align_pairs(scans, pairs, IcpConfig(), record=True)
        for k, (i, j) in enumerate(pairs):
            result, trace = icp_align(scans[i], scans[j])
            _, quat, trans = run.history[k][-1]
            assert result.mse == run.mse[k]
            np.testing.assert_array_equal(result.transform.rotation.as_array(), UnitQuaternion(*quat).as_array())
            np.testing.assert_array_equal(result.transform.translation, trans)
            assert len(trace.iterations) == run.iterations[k]
            assert (trace.terminal_reason is TerminalReason.CONVERGED) == run.converged[k]

    @pytest.mark.parametrize("method", ["fork", "spawn"])
    def test_a_pool_worker_returns_the_in_process_record(self, method):
        # The record crosses the process boundary unchanged, under fork
        # (inherited imports) and spawn (a fresh interpreter).
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"this platform cannot {method}")
        scans, pairs = engine_case(np.random.default_rng(32))
        here = _align_pairs(scans, pairs, IcpConfig())
        context = multiprocessing.get_context(method)
        with ProcessPoolExecutor(max_workers=1, mp_context=context) as pool:
            there = pool.submit(_align_pairs, scans, pairs, IcpConfig()).result()
        for name in ("mse", "iterations", "converged", "queried"):
            assert getattr(there, name).dtype == getattr(here, name).dtype
            assert getattr(there, name).tobytes() == getattr(here, name).tobytes()
        assert there.history is None


def recorded(run, k):
    """A pair's outcome without its count of points sent to the index."""
    mse, iterations, converged, _, history = outcome(run, k)
    return mse, iterations, converged, history


def arrangements(scans, pairs, cfg, monkeypatch):
    """Per-pair recorded results of the engine run on each pair alone, on
    all pairs in one batch, in reverse order, and cut into 64-point batches."""
    alone = [recorded(_align_pairs(scans, [pair], cfg, record=True), 0) for pair in pairs]
    together = _align_pairs(scans, pairs, cfg, record=True)
    backwards = _align_pairs(scans, pairs[::-1], cfg, record=True)
    with monkeypatch.context() as patch:
        patch.setattr(registration, "_BATCH_POINTS", 64)
        chunked = _align_pairs(scans, pairs, cfg, record=True)
    n = len(pairs)
    return (alone, [recorded(together, k) for k in range(n)],
            [recorded(backwards, n - 1 - k) for k in range(n)], [recorded(chunked, k) for k in range(n)])


def far_engine_case(rng, sizes, offset, ulps, cfg):
    """Scans of engine_case's kinds moved offset mm from the origin along
    every axis: models of the given sizes in a box ulps ulps of offset wide,
    so points lie a few hundred ulps apart at the smallest box, a jittered
    copy of each and an unrelated cloud, with every (moving, model) pair;
    and cfg with tau scaled as the squared box size is to engine_case's."""
    size = ulps * float(np.spacing(offset))

    def far(cloud):
        return PointCloud(cloud.xyz + offset)

    models = [box_cloud(rng, n, size) for n in sizes]
    moving = [jittered_copy(rng, model, math.radians(5.0), 0.05 * size, 0.002 * size) for model in models]
    moving.append(box_cloud(rng, 40, size))
    scans, pairs = with_pairs([far(model) for model in models], [far(cloud) for cloud in moving])
    return scans, pairs, dataclasses.replace(cfg, tau=cfg.tau * (size / 1000.0) ** 2)


FAR = [pytest.param(offset, ulps, id=f"{offset:.0e}-{ulps:.0e}ulps") for offset in (1e6, 1e9, 1e12)
       for ulps in (1e3, 1e6)]


class TestNeighbourCertificates:
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_certificates_change_no_result(self, cfg, monkeypatch):
        scans, pairs = engine_case(np.random.default_rng(32))
        cached = arrangements(scans, pairs, cfg, monkeypatch)
        monkeypatch.setattr(correspondence, "_CERTIFY", False)
        uncached = arrangements(scans, pairs, cfg, monkeypatch)
        reference = uncached[0]
        for results in cached + uncached:
            assert results == reference
        # Exactly, with no slack: the matcher's distances and the fit's
        # residuals are one evaluation, averaged one way.
        for *_, history in reference:
            errors = [e for e, _, _ in history]
            assert all(later <= earlier for earlier, later in zip(errors, errors[1:]))

    @pytest.mark.parametrize("offset, ulps", FAR)
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_certificates_change_no_result_far_from_the_origin(self, cfg, offset, ulps, monkeypatch):
        # _ABS_MARGIN widens with the coordinates; every result stays bit-identical.
        scans, pairs, cfg = far_engine_case(
            np.random.default_rng(36), (1, _CACHE_NEIGHBOURS, 40, 90, 300), offset, ulps, cfg)
        cached = arrangements(scans, pairs, cfg, monkeypatch)
        monkeypatch.setattr(correspondence, "_CERTIFY", False)
        uncached = arrangements(scans, pairs, cfg, monkeypatch)
        reference = uncached[0]
        for results in cached + uncached:
            assert results == reference

    def test_icp_align_traces_do_not_change(self, monkeypatch):
        scans, pairs = engine_case(np.random.default_rng(34))

        def traces():
            for i, j in pairs:
                result, trace = icp_align(scans[i], scans[j])
                yield result.mse, trace.terminal_reason, [
                    (entry.index, entry.mse, entry.transform.rotation.as_array().tobytes(),
                     entry.transform.translation.tobytes()) for entry in trace.iterations]

        cached = list(traces())
        monkeypatch.setattr(correspondence, "_CERTIFY", False)
        assert list(traces()) == cached

    def test_most_points_skip_the_tree(self, monkeypatch):
        scans, pairs = engine_case(np.random.default_rng(32))
        cached = _align_pairs(scans, pairs, IcpConfig())
        monkeypatch.setattr(correspondence, "_CERTIFY", False)
        uncached = _align_pairs(scans, pairs, IcpConfig())
        every_point = [run * len(scans[i]) for run, (i, _) in zip(uncached.iterations, pairs)]
        np.testing.assert_array_equal(uncached.queried, every_point)
        assert cached.queried.sum() <= 0.6 * uncached.queried.sum()


def small_engine_case(rng):
    """Scans and the pairs that align moving clouds of 1 to 120 points onto
    models of 1 to _SCAN_MAX points, including rigid copies that converge
    and unrelated pairs."""
    models = [box_cloud(rng, n) for n in (1, _CACHE_NEIGHBOURS, 40, _SCAN_MAX)]
    moving = [box_cloud(rng, n) for n in (1, 7, 60, 120)]
    moving.append(apply_transform(random_transform(rng, math.radians(20), 50.0), models[2]))
    moving.append(PointCloud(models[3].xyz + rng.normal(0.0, 1.0, models[3].xyz.shape)))
    return with_pairs(models, moving)


class TestScanKernel:
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_trees_change_no_result(self, cfg, monkeypatch):
        # The scan matches these models; with _SCAN_MAX at 0 k-d trees do.
        # Only the points each pair sends to its index may differ.
        scans, pairs = small_engine_case(np.random.default_rng(35))
        built = []

        def spy(model):
            built.append(build_index(model))
            return built[-1]

        monkeypatch.setattr(registration, "build_index", spy)
        scan_run = _align_pairs(scans, pairs, cfg, record=True)
        with monkeypatch.context() as patch:
            patch.setattr(correspondence, "_SCAN_MAX", 0)
            tree_run = _align_pairs(scans, pairs, cfg, record=True)
        models = len({j for _, j in pairs})
        assert all(index._tree is None for index in built[:models])
        assert all(index._tree is not None for index in built[models:])
        assert len(built) == 2 * models
        assert len({int(it) for it in scan_run.iterations}) > 1
        for k in range(len(pairs)):
            assert recorded(scan_run, k) == recorded(tree_run, k)

    @pytest.mark.parametrize("offset, ulps", FAR)
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_trees_change_no_result_far_from_the_origin(self, cfg, offset, ulps, monkeypatch):
        scans, pairs, cfg = far_engine_case(
            np.random.default_rng(37), (1, _CACHE_NEIGHBOURS, 40, _SCAN_MAX), offset, ulps, cfg)
        scan_run = _align_pairs(scans, pairs, cfg, record=True)
        with monkeypatch.context() as patch:
            patch.setattr(correspondence, "_SCAN_MAX", 0)
            tree_run = _align_pairs(scans, pairs, cfg, record=True)
        for k in range(len(pairs)):
            assert recorded(scan_run, k) == recorded(tree_run, k)


def grid_engine_case(rng, sizes, grid):
    """Scans rounded to a grid of the given spacing (mm), so that matches
    tie at the identity: log-like models of the given sizes, a rounded noisy
    copy of each and an unrelated log, with every (copy or log, model) pair."""
    def snap(cloud):
        return PointCloud(np.round(cloud.xyz / grid) * grid)

    models = [snap(log_like_cloud(rng, n)) for n in sizes]
    moving = [snap(jittered_copy(rng, model, math.radians(5.0), 10.0, 2.0)) for model in models]
    return with_pairs(models, moving + [snap(log_like_cloud(rng, 40))])


@pytest.fixture()
def tree_ties(monkeypatch):
    """Counts, over the engine's tree queries (k = K + 1), of the rows whose
    two nearest distances lie within the tie slack, and of the rows whose
    nearest point the re-rank moved off the tree's first neighbour."""
    counts = {"ties": 0, "reranked": 0}
    nearest = correspondence.SpatialIndex._nearest

    def spy(index, pts, k):
        idx, dist, nbr = nearest(index, pts, k)
        if index._tree is not None and k == _CACHE_NEIGHBOURS + 1:
            counts["ties"] += int((dist[:, 1] <= dist[:, 0] * (1.0 + correspondence._TIE_SLACK)).sum())
            counts["reranked"] += int((idx != nbr[:, 0]).sum())
        return idx, dist, nbr

    monkeypatch.setattr(correspondence.SpatialIndex, "_nearest", spy)
    return counts


class TestTiesInTheEngine:
    """Grid-rounded scans put near-ties into the engine's own queries, where
    the tree's tie re-rank must give the scan's lowest-index match."""

    @pytest.mark.parametrize("grid", [5.0, 20.0])
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_small_models_match_alike_on_the_scan_and_the_tree(self, grid, cfg, tree_ties, monkeypatch):
        scans, pairs = grid_engine_case(np.random.default_rng(51), (1, _CACHE_NEIGHBOURS, 20, 40, _SCAN_MAX), grid)
        scan_run = _align_pairs(scans, pairs, cfg, record=True)
        assert tree_ties == {"ties": 0, "reranked": 0}
        with monkeypatch.context() as patch:
            patch.setattr(correspondence, "_SCAN_MAX", 0)
            tree_run = _align_pairs(scans, pairs, cfg, record=True)
        if not cfg.pre_align:  # pre-aligned placements leave the grid
            assert tree_ties["ties"] > 0 and tree_ties["reranked"] > 0
        for k in range(len(pairs)):
            assert recorded(scan_run, k) == recorded(tree_run, k)

    @pytest.mark.parametrize("grid", [5.0, 20.0])
    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_certificates_change_no_result_on_large_models(self, grid, cfg, tree_ties, monkeypatch):
        scans, pairs = grid_engine_case(np.random.default_rng(52), (_SCAN_MAX + 1, 120, 300), grid)
        cached = arrangements(scans, pairs, cfg, monkeypatch)
        if not cfg.pre_align:  # pre-aligned placements leave the grid
            assert tree_ties["ties"] > 0 and tree_ties["reranked"] > 0
        monkeypatch.setattr(correspondence, "_CERTIFY", False)
        uncached = arrangements(scans, pairs, cfg, monkeypatch)
        reference = uncached[0]
        for results in cached + uncached:
            assert results == reference


class TestWorkingSet:
    """The matcher queries its index in blocks of rows, and the engine keeps
    one copy of each per-point array, so its memory is linear in the moving
    points with a small constant."""

    @pytest.mark.parametrize("cfg", ENGINE_CONFIGS)
    def test_query_blocks_change_no_result(self, cfg, monkeypatch):
        scans, pairs = engine_case(np.random.default_rng(32))
        whole = _align_pairs(scans, pairs, cfg, record=True)
        sizes = []
        query = correspondence._NeighbourCache._query

        def spy(cache, j, rows, xyz):
            sizes.append(len(rows))
            return query(cache, j, rows, xyz)

        monkeypatch.setattr(correspondence._NeighbourCache, "_query", spy)
        monkeypatch.setattr(correspondence, "_QUERY_ROWS", 3)
        blocked = _align_pairs(scans, pairs, cfg, record=True)
        # Some blocks are full and some are a model's partial last one.
        assert max(sizes) == 3 and min(sizes) < 3
        for k in range(len(pairs)):
            assert outcome(blocked, k) == outcome(whole, k)

    @pytest.mark.parametrize("model_size", [48, 3000])
    def test_peak_memory_per_moving_point(self, model_size):
        # One moving cloud far larger than a batch: the first iteration sends
        # every point to the index, a scan of 48 points or a tree of 3,000.
        rng = np.random.default_rng(38)
        model = box_cloud(rng, model_size)
        points = 200_000
        moving = box_cloud(rng, points)
        cfg = IcpConfig(max_iterations=3)
        _align_pairs([box_cloud(rng, 10), model], [(0, 1)], cfg)  # imports load outside the trace
        tracemalloc.start()
        try:
            run = _align_pairs([moving, model], [(0, 1)], cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert run.iterations[0] == 3
        assert peak <= 200 * points
