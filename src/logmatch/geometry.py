"""Core 3D value types and their algebra.

Everything here is an immutable value: points, point clouds, unit
quaternions and rigid (rotation + translation) transforms. Coordinates are
double-precision millimetres. All operations are pure functions, so values
can be shared freely between concurrent tasks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError

# Constructor tolerance on the quaternion sum of squares.
_UNIT_SUMSQ_TOL = 1e-9
# Looser guard applied when a quaternion is turned into a matrix.
_ROTATION_NORM_TOL = 1e-6


@dataclass(frozen=True)
class Point3:
    """A single 3D point in millimetres. All coordinates must be finite."""

    x: float
    y: float
    z: float

    def __post_init__(self) -> None:
        for name in ("x", "y", "z"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise InvalidInputError(f"coordinate {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z], dtype=np.float64)


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered, non-empty sequence of finite 3D points.

    The order of points is preserved exactly as loaded: the index of a point
    is its identity within the cloud. Clouds of different sizes are fine;
    nothing here assumes equal cardinality.
    """

    xyz: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.xyz, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[1] != 3:
            raise InvalidInputError(f"point cloud must have shape (n, 3), got {arr.shape}")
        if arr.shape[0] < 1:
            raise InvalidInputError("point cloud must contain at least one point")
        if not np.isfinite(arr).all():
            raise InvalidInputError("point cloud contains non-finite coordinates")
        arr.setflags(write=False)
        object.__setattr__(self, "xyz", arr)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def _canonical_sign(q0: float, q1: float, q2: float, q3: float) -> tuple[float, float, float, float]:
    """Pick the canonical representative of {q, -q}.

    q0 > 0 wins; when q0 == 0 the first nonzero of (q1, q2, q3) must be
    positive so that every rotation has exactly one stored representation.
    """
    if q0 != 0.0:
        flip = q0 < 0.0
    else:
        flip = False
        for c in (q1, q2, q3):
            if c != 0.0:
                flip = c < 0.0
                break
    if flip:
        return (-q0, -q1, -q2, -q3)
    return (q0, q1, q2, q3)


@dataclass(frozen=True)
class UnitQuaternion:
    """A rotation stored as a unit quaternion (q0, q1, q2, q3), q0 >= 0.

    The constructor validates the unit norm (sum of squares within 1e-9 of
    one) and canonicalizes the sign; the two antipodal quaternions encode
    the same rotation, so flipping is semantics-preserving.
    """

    q0: float
    q1: float
    q2: float
    q3: float

    def __post_init__(self) -> None:
        comps = tuple(float(getattr(self, name)) for name in ("q0", "q1", "q2", "q3"))
        if not all(math.isfinite(c) for c in comps):
            raise InvalidInputError(f"quaternion components must be finite, got {comps}")
        sumsq = sum(c * c for c in comps)
        if abs(sumsq - 1.0) > _UNIT_SUMSQ_TOL:
            raise InvalidInputError(f"quaternion is not unit length: sum of squares {sumsq!r}")
        q0, q1, q2, q3 = _canonical_sign(*comps)
        object.__setattr__(self, "q0", q0)
        object.__setattr__(self, "q1", q1)
        object.__setattr__(self, "q2", q2)
        object.__setattr__(self, "q3", q3)

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_vector(cls, vec) -> "UnitQuaternion":
        """Normalize an arbitrary 4-vector into a unit quaternion."""
        arr = np.asarray(vec, dtype=np.float64).reshape(-1)
        if arr.shape != (4,):
            raise InvalidInputError(f"expected a 4-vector, got shape {arr.shape}")
        norm = float(np.linalg.norm(arr))
        if not math.isfinite(norm) or norm < 1e-12:
            raise InvalidInputError("cannot normalize a zero or non-finite 4-vector")
        return cls(*(arr / norm))

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "UnitQuaternion":
        """Rotation of `angle` radians about `axis` (need not be unit length)."""
        ax = np.asarray(axis, dtype=np.float64).reshape(3)
        norm = float(np.linalg.norm(ax))
        if norm < 1e-12:
            raise InvalidInputError("rotation axis must be nonzero")
        ax = ax / norm
        half = 0.5 * float(angle)
        s = math.sin(half)
        return cls(math.cos(half), s * ax[0], s * ax[1], s * ax[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3], dtype=np.float64)

    def conjugate(self) -> "UnitQuaternion":
        """The inverse rotation."""
        return UnitQuaternion(self.q0, -self.q1, -self.q2, -self.q3)


def _rotation_matrix(q0, q1, q2, q3) -> np.ndarray:
    # Elementwise: components given as length-B arrays yield a (3, 3, B) stack.
    return np.array(
        [
            [q0 * q0 + q1 * q1 - q2 * q2 - q3 * q3, 2.0 * (q1 * q2 - q0 * q3), 2.0 * (q1 * q3 + q0 * q2)],
            [2.0 * (q1 * q2 + q0 * q3), q0 * q0 + q2 * q2 - q1 * q1 - q3 * q3, 2.0 * (q2 * q3 - q0 * q1)],
            [2.0 * (q1 * q3 - q0 * q2), 2.0 * (q2 * q3 + q0 * q1), q0 * q0 + q3 * q3 - q1 * q1 - q2 * q2],
        ],
        dtype=np.float64,
    )


def quaternion_to_rotation(q: UnitQuaternion) -> np.ndarray:
    """3x3 rotation matrix of a unit quaternion.

    The result is orthonormal with determinant +1. Raises if the quaternion
    norm deviates from one by more than 1e-6.
    """
    q0, q1, q2, q3 = q.q0, q.q1, q.q2, q.q3
    norm = math.sqrt(q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3)
    if abs(norm - 1.0) > _ROTATION_NORM_TOL:
        raise InvalidInputError(f"quaternion is not unit length: norm {norm!r}")
    return _rotation_matrix(q0, q1, q2, q3)


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """A rigid motion: rotate by a unit quaternion, then translate (mm)."""

    rotation: UnitQuaternion
    translation: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self) -> None:
        if not isinstance(self.rotation, UnitQuaternion):
            raise InvalidInputError("rotation must be a UnitQuaternion")
        t = np.array(self.translation, dtype=np.float64).reshape(-1)
        if t.shape != (3,):
            raise InvalidInputError(f"translation must be a 3-vector, got shape {t.shape}")
        if not np.isfinite(t).all():
            raise InvalidInputError("translation contains non-finite components")
        t.setflags(write=False)
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(UnitQuaternion.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix of this transform."""
        return quaternion_to_rotation(self.rotation)

    def inverse(self) -> "RigidTransform":
        """The transform undoing this one: (R^T, -R^T t)."""
        rt = self.matrix().T
        return RigidTransform(self.rotation.conjugate(), -(rt @ self.translation))


def _apply_arrays(rotation_matrix: np.ndarray, translation: np.ndarray, xyz: np.ndarray) -> np.ndarray:
    return xyz @ rotation_matrix.T + translation


def apply_transform(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Map every point p of the cloud to R p + T, preserving length and order."""
    return PointCloud(_apply_arrays(t.matrix(), t.translation, cloud.xyz))


def centroid(cloud: PointCloud) -> np.ndarray:
    """Arithmetic mean of all points, as a 3-vector."""
    return cloud.xyz.mean(axis=0)
