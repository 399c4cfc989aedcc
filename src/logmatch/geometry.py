"""Core 3D value types and their algebra.

Everything here is an immutable value: point clouds, unit quaternions and
rigid (rotation + translation) transforms. Coordinates are double-precision
millimetres. All operations are pure functions, so values can be shared
freely between concurrent tasks.

It also owns the one squared-distance evaluation, _squared_distances, of
the exact matcher's distances and the ICP fit's residuals alike, so the
errors that the engine compares are sums of the same rounded terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, _array, _instance, _real

# Constructor tolerance on the quaternion sum of squares.
_UNIT_SUMSQ_TOL = 1e-9
# Looser guard applied when a quaternion is turned into a matrix.
_ROTATION_NORM_TOL = 1e-6
# The largest |coordinate| (mm) a PointCloud accepts, chosen so that no ICP
# quantity or knn feature computed from clouds within it overflows, and no
# kernel has to check.
# - ICP places p at R(p - mu_p) + mu_x, within 3*sqrt(3)*B of the origin, so
#   a squared distance or residual is at most 48*B**2, and a per-pair sum
#   of N of them at most 48*N*B**2; cross-covariance terms (at most 4*B**2)
#   and slice turn determinants (at most 48*B**2) stay as far inside.
# - A knn volume is at most 24*sqrt(3)*pi*B**3, about 131*B**3 (a length of
#   at most 2*sqrt(3)*B times a disc of radius 2*sqrt(3)*B), so a volume
#   deviates from the training mean by at most about 262*B**3. The
#   z-score's std sums the squares of one such deviation per training log:
#   6.9e292 per log at B = 1e48, below the float maximum 1.8e308 for up to
#   2.6e15 training logs. This is the tightest limit; ICP alone would allow
#   about 1e140. No data set that fits in memory comes near either.
B = 1e48


@dataclass(frozen=True, eq=False)
class PointCloud:
    """An ordered, non-empty sequence of 3D points, each coordinate within
    [-B, B].

    The order of points is preserved exactly as loaded: the index of a point
    is its identity within the cloud. Clouds of different sizes are fine;
    nothing here assumes equal cardinality.
    """

    xyz: np.ndarray

    def __post_init__(self) -> None:
        arr = _array("point cloud", self.xyz, np.float64, None, 3)
        if arr.shape[0] < 1:
            raise InvalidInputError("point cloud must contain at least one point")
        # NaN fails this test too: the extremes of an array holding one are NaN.
        if not (-B <= arr.min() and arr.max() <= B):
            raise InvalidInputError(f"point cloud has coordinates that are not finite or beyond ±{B:g}")
        object.__setattr__(self, "xyz", arr)

    def __len__(self) -> int:
        return self.xyz.shape[0]


def _canonical_sign(q0: float, q1: float, q2: float, q3: float) -> tuple[float, float, float, float]:
    """Pick the canonical representative of {q, -q}: the one whose first
    nonzero component is positive, so that every rotation has exactly one
    stored representation."""
    if next((c for c in (q0, q1, q2, q3) if c != 0.0), 0.0) < 0.0:
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
        names = ("q0", "q1", "q2", "q3")
        comps = tuple(_real(name, getattr(self, name)) for name in names)
        sumsq = sum(c * c for c in comps)
        if abs(sumsq - 1.0) > _UNIT_SUMSQ_TOL:
            raise InvalidInputError(f"quaternion is not unit length: sum of squares {sumsq!r}")
        for name, c in zip(names, _canonical_sign(*comps)):
            object.__setattr__(self, name, c)

    @classmethod
    def identity(cls) -> "UnitQuaternion":
        return cls(1.0, 0.0, 0.0, 0.0)

    @classmethod
    def from_axis_angle(cls, axis, angle: float) -> "UnitQuaternion":
        """Rotation of `angle` radians about `axis`: finite, not all zero,
        of any length."""
        ax = _array("axis", axis, np.float64, 3)
        if not np.isfinite(ax).all():
            raise InvalidInputError(f"axis must be finite, got {ax.tolist()}")
        if not ax.any():
            raise InvalidInputError("rotation axis must be nonzero")
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(ax))
        if not 1e-12 <= norm < math.inf:
            # The squares overflow, or the axis is too short for its norm to
            # be trusted: scale it by its largest component first.
            ax = ax / np.abs(ax).max()
            norm = float(np.linalg.norm(ax))
        ax = ax / norm
        half = 0.5 * _real("angle", angle)
        s = math.sin(half)
        return cls(math.cos(half), s * ax[0], s * ax[1], s * ax[2])

    def as_array(self) -> np.ndarray:
        return np.array([self.q0, self.q1, self.q2, self.q3], dtype=np.float64)


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
    _instance("q", q, UnitQuaternion)
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
        _instance("rotation", self.rotation, UnitQuaternion)
        t = _array("translation", self.translation, np.float64, 3)
        if not np.isfinite(t).all():
            raise InvalidInputError("translation contains non-finite components")
        object.__setattr__(self, "translation", t)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(UnitQuaternion.identity(), np.zeros(3))

    def matrix(self) -> np.ndarray:
        """The 3x3 rotation matrix of this transform."""
        return quaternion_to_rotation(self.rotation)


def _squared_distances(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Squared distance between each column of a (3, m) array and the same
    column of b, summed axis by axis in order, into out (m,) when given.
    Every squared distance of a match or a residual is this evaluation."""
    out = np.subtract(a[0], b[0], out=out)
    out *= out
    gap = np.empty_like(out)
    for axis in (1, 2):
        np.subtract(a[axis], b[axis], out=gap)
        gap *= gap
        out += gap
    return out


def apply_transform(t: RigidTransform, cloud: PointCloud) -> PointCloud:
    """Map every point p of the cloud to R p + T, preserving length and order.

    The result is a PointCloud, so a transform that moves a coordinate
    beyond B raises InvalidInputError.
    """
    _instance("t", t, RigidTransform)
    return PointCloud(_instance("cloud", cloud, PointCloud).xyz @ t.matrix().T + t.translation)
