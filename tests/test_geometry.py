import itertools
import math

import numpy as np
import pytest

from logmatch import (
    InvalidInputError,
    PointCloud,
    RigidTransform,
    UnitQuaternion,
    apply_transform,
    quaternion_to_rotation,
)
from logmatch import geometry
from logmatch.geometry import B
from synthdata import box_cloud, random_transform


class TestPointCloud:
    def test_preserves_order(self):
        cloud = PointCloud([[3.0, 0, 0], [1.0, 0, 0], [2.0, 0, 0]])
        assert cloud.xyz[:, 0].tolist() == [3.0, 1.0, 2.0]
        assert len(cloud) == 3

    def test_rejects_empty(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((0, 3)))

    def test_rejects_nan(self):
        with pytest.raises(InvalidInputError):
            PointCloud([[0.0, float("nan"), 0.0]])

    @pytest.mark.parametrize("value", [B, -B])
    def test_accepts_coordinates_at_the_bound(self, value):
        assert PointCloud([[0.0, value, 1.0]]).xyz[0, 1] == value

    @pytest.mark.parametrize("value", [np.nextafter(B, np.inf), -np.nextafter(B, np.inf), np.inf, -np.inf])
    def test_rejects_coordinates_beyond_the_bound(self, value):
        with pytest.raises(InvalidInputError, match="beyond"):
            PointCloud([[0.0, value, 1.0]])

    def test_a_transform_past_the_bound_is_refused(self):
        shift = RigidTransform(UnitQuaternion.identity(), [B, 0.0, 0.0])
        assert apply_transform(shift, PointCloud([[0.0, 1.0, 2.0]])).xyz[0, 0] == B
        with pytest.raises(InvalidInputError, match="beyond"):
            apply_transform(shift, PointCloud([[1e33, 1.0, 2.0]]))

    def test_rejects_bad_shape(self):
        with pytest.raises(InvalidInputError):
            PointCloud([[1.0, 2.0]])

    def test_array_is_read_only(self):
        cloud = PointCloud([[1.0, 2.0, 3.0]])
        with pytest.raises(ValueError):
            cloud.xyz[0, 0] = 9.0


class TestUnitQuaternion:
    def test_identity_to_rotation(self):
        np.testing.assert_array_equal(
            quaternion_to_rotation(UnitQuaternion.identity()), np.eye(3)
        )

    def test_z_quarter_turn_maps_x_to_y(self):
        q = UnitQuaternion(math.cos(math.pi / 4), 0.0, 0.0, math.sin(math.pi / 4))
        rotated = quaternion_to_rotation(q) @ np.array([1.0, 0.0, 0.0])
        np.testing.assert_allclose(rotated, [0.0, 1.0, 0.0], atol=1e-15)

    def test_random_quaternions_give_proper_rotations(self):
        # orthonormality and unit determinant over 1000 random rotations
        rng = np.random.default_rng(11)
        for _ in range(1000):
            vec = rng.normal(size=4)
            q = UnitQuaternion(*(vec / np.linalg.norm(vec)))
            r = quaternion_to_rotation(q)
            assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9
            assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    def test_double_cover(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            vec = rng.normal(size=4)
            vec /= np.linalg.norm(vec)
            plus = UnitQuaternion(*vec)
            minus = UnitQuaternion(*-vec)
            assert plus == minus
            np.testing.assert_array_equal(
                quaternion_to_rotation(plus), quaternion_to_rotation(minus)
            )

    def test_canonical_sign_flips_negative_q0(self):
        q = UnitQuaternion(-math.cos(0.3), 0.0, 0.0, -math.sin(0.3))
        assert q.q0 > 0

    def test_canonical_sign_when_q0_zero(self):
        q = UnitQuaternion(0.0, 0.0, -1.0, 0.0)
        assert q.q0 == 0.0
        assert q.q2 == 1.0

    @pytest.mark.parametrize("q, want", [
        ((-0.0, -0.0, -0.5, 0.5), (0.0, 0.0, 0.5, -0.5)),
        ((0.0, -0.0, 0.0, -0.5), (-0.0, 0.0, -0.0, 0.5)),
        ((-0.0, 0.5, -0.0, -0.5), (-0.0, 0.5, -0.0, -0.5)),
        ((-0.0, -0.0, -0.0, -0.0), (-0.0, -0.0, -0.0, -0.0)),
        ((-0.5, 0.0, -0.0, 0.5), (0.5, -0.0, 0.0, -0.5)),
    ])
    def test_canonical_sign_skips_signed_zeros(self, q, want):
        # A zero of either sign is not the first nonzero component, and a
        # flip negates every component, zeros included.
        assert repr(geometry._canonical_sign(*q)) == repr(want)

    def test_canonical_sign_matches_the_case_analysis(self):
        def by_cases(q0, q1, q2, q3):
            # q0 decides when nonzero; else the first nonzero of q1..q3.
            if q0 != 0.0:
                flip = q0 < 0.0
            else:
                flip = False
                for c in (q1, q2, q3):
                    if c != 0.0:
                        flip = c < 0.0
                        break
            return (-q0, -q1, -q2, -q3) if flip else (q0, q1, q2, q3)

        for q in itertools.product([0.0, -0.0, 0.5, -0.5], repeat=4):
            assert repr(geometry._canonical_sign(*q)) == repr(by_cases(*q))

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            UnitQuaternion(1.0, 1.0, 0.0, 0.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(InvalidInputError, match="q2 must be finite"):
            UnitQuaternion(1.0, 0.0, bad, 0.0)

    def test_from_axis_angle_rejects_zero_axis(self):
        with pytest.raises(InvalidInputError, match="rotation axis must be nonzero"):
            UnitQuaternion.from_axis_angle([0.0, 0.0, 0.0], 1.0)
        assert UnitQuaternion.from_axis_angle([0.0, 0.0, 2.0], 0.0) == UnitQuaternion.identity()

    def test_rotation_guard_on_bad_norm(self):
        q = UnitQuaternion.identity()
        object.__setattr__(q, "q0", 1.01)
        with pytest.raises(InvalidInputError):
            quaternion_to_rotation(q)


class TestApplyTransform:
    def test_identity_is_noop(self):
        cloud = box_cloud(np.random.default_rng(1), 100)
        moved = apply_transform(RigidTransform.identity(), cloud)
        np.testing.assert_array_equal(moved.xyz, cloud.xyz)

    def test_pure_translation(self):
        moved = apply_transform(
            RigidTransform(UnitQuaternion.identity(), [1.0, 2.0, 3.0]),
            PointCloud([[0.0, 0.0, 0.0]]),
        )
        np.testing.assert_array_equal(moved.xyz, [[1.0, 2.0, 3.0]])

    def test_inverse_round_trip(self):
        # inverse computed as (R^T, -R^T t)
        rng = np.random.default_rng(2)
        cloud = box_cloud(rng, 200)
        for _ in range(20):
            t = random_transform(rng, math.pi, 500.0)
            rt = t.matrix().T
            back = apply_transform(t, cloud).xyz @ rt.T - rt @ t.translation
            np.testing.assert_allclose(back, cloud.xyz, atol=1e-9)

    def test_preserves_pairwise_distances(self):
        rng = np.random.default_rng(3)
        cloud = box_cloud(rng, 60)
        t = random_transform(rng, math.pi, 300.0)
        moved = apply_transform(t, cloud)

        def pairwise(c):
            d = c.xyz[:, None, :] - c.xyz[None, :, :]
            return np.sqrt((d * d).sum(axis=2))

        np.testing.assert_allclose(pairwise(moved), pairwise(cloud), rtol=1e-9, atol=1e-9)

    def test_keeps_length_and_order(self):
        rng = np.random.default_rng(4)
        cloud = box_cloud(rng, 50)
        t = random_transform(rng, 1.0, 10.0)
        moved = apply_transform(t, cloud)
        assert len(moved) == len(cloud)
        expected = cloud.xyz @ t.matrix().T + t.translation
        np.testing.assert_array_equal(moved.xyz, expected)


class TestCentroid:
    def test_commutes_with_transform(self):
        rng = np.random.default_rng(6)
        cloud = box_cloud(rng, 500)
        t = random_transform(rng, 2.0, 200.0)
        lhs = apply_transform(t, cloud).xyz.mean(axis=0)
        rhs = t.matrix() @ cloud.xyz.mean(axis=0) + t.translation
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


class TestRigidTransform:
    def test_rotation_matrix_invariants(self):
        rng = np.random.default_rng(7)
        t = random_transform(rng, 3.0, 100.0)
        r = t.matrix()
        assert np.abs(r.T @ r - np.eye(3)).max() <= 1e-9
        assert abs(np.linalg.det(r) - 1.0) <= 1e-9

    def test_rejects_bad_translation(self):
        with pytest.raises(InvalidInputError):
            RigidTransform(UnitQuaternion.identity(), [1.0, 2.0])
        with pytest.raises(InvalidInputError):
            RigidTransform(UnitQuaternion.identity(), [1.0, float("nan"), 0.0])

    def test_rejects_a_rotation_that_is_not_a_quaternion(self):
        with pytest.raises(InvalidInputError, match="rotation must be a UnitQuaternion"):
            RigidTransform(np.eye(3))
