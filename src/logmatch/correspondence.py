"""Exact closest-point queries from a moving cloud into a fixed model cloud.

The index is exact, never approximate: for every query it returns the same
(point, squared distance) as an exhaustive linear scan, with ties at equal
distance resolved to the lowest model index. That determinism is what makes
distance rankings reproducible bit-for-bit across runs and platforms.

Every model, from a single point up, is served by one k-d tree. The tree
evaluates distances in its own operation order, so a query whose two
nearest tree candidates lie within a relative 1e-9 of each other is re-ranked
over every model point in a slightly inflated ball by the squared distances
a linear scan computes.

The ICP engine (registration._NeighbourCache) reuses queries across
iterations. It asks the index for each point's few nearest tree neighbours
through the same exact query, and sends a point back only when the
triangle inequality cannot prove that its match is unchanged. Its matches
and squared distances come from the same evaluation as query_batch's.

Matching is directional (each moving point gets its closest model point) and
many-to-one matches are allowed, which is how two clouds of different sizes
can be compared at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .geometry import PointCloud

# Relative gap between the two nearest tree distances under which a query
# is re-ranked exactly. The tree's distances differ from the linear scan's
# by a few units in the last place, far inside this slack.
_TIE_SLACK = 1e-9


@dataclass(frozen=True, eq=False)
class CorrespondenceSet:
    """One matched model point per moving point, in moving-cloud order.

    Entry i pairs moving point i with model point target_indices[i] at the
    exact squared Euclidean distance squared_distances[i] (mm^2).
    """

    target_indices: np.ndarray
    squared_distances: np.ndarray

    def __post_init__(self) -> None:
        idx = np.ascontiguousarray(self.target_indices, dtype=np.int64)
        sq = np.ascontiguousarray(self.squared_distances, dtype=np.float64)
        if idx.ndim != 1 or sq.shape != idx.shape:
            raise InvalidInputError("target_indices and squared_distances must be equal-length 1-D arrays")
        if idx.shape[0] < 1:
            raise InvalidInputError("correspondence set must not be empty")
        if (sq < 0).any() or not np.isfinite(sq).all():
            raise InvalidInputError("squared distances must be finite and non-negative")
        idx.setflags(write=False)
        sq.setflags(write=False)
        object.__setattr__(self, "target_indices", idx)
        object.__setattr__(self, "squared_distances", sq)

    def __len__(self) -> int:
        return self.target_indices.shape[0]


class SpatialIndex:
    """Immutable exact nearest-neighbour structure over a model cloud.

    Safe for concurrent queries once built. Use :func:`build_index`.
    """

    __slots__ = ("_points", "_tree")

    def __init__(self, model: PointCloud):
        # Imported here: a process that builds no index never loads the tree.
        from scipy.spatial import cKDTree

        pts = np.array(model.xyz, dtype=np.float64)
        pts.setflags(write=False)
        self._points = pts
        self._tree = cKDTree(pts)

    def __len__(self) -> int:
        return self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        """The indexed model points, read-only, in original order."""
        return self._points

    def query_batch(self, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact nearest model point for each row of an (m, 3) array.

        Returns (target_indices, squared_distances). Ties go to the lowest
        model index; squared distances are recomputed from the matched pair
        so they are bit-identical to a direct evaluation.
        """
        pts = np.asarray(xyz, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"queries must have shape (m, 3), got {pts.shape}")
        idx, _, _ = self._nearest(pts, 2)
        return idx, _squared_distances(pts, self._points[idx])

    def _nearest(self, pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact nearest model index of each row of a float64 (m, 3) array,
        with the tree's k >= 2 nearest neighbours of each row: (indices (m,),
        tree distances (m, k), neighbour indices (m, k)).

        The tree orders neighbours at equal distance as it likes, and reports
        a missing neighbour of a model with fewer than k points at an
        infinite distance with index len(self).
        """
        dist, nbr = self._tree.query(pts, k=k)
        idx = nbr[:, 0].astype(np.int64)
        # A one-point model reports an infinite second distance: never a tie.
        close = np.flatnonzero(dist[:, 1] <= dist[:, 0] * (1.0 + _TIE_SLACK))
        if close.size:
            radii = dist[close, 0] * (1.0 + _TIE_SLACK)
            found = self._tree.query_ball_point(pts[close], radii)
            rows = np.repeat(close, [len(c) for c in found])
            cand = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=rows.size)
            diffs = self._points[cand] - pts[rows]
            sq = (diffs * diffs).sum(axis=1)
            # Per row, the candidate of least (squared distance, index).
            order = np.lexsort((cand, sq, rows))
            _, first = np.unique(rows[order], return_index=True)
            best = order[first]
            idx[rows[best]] = cand[best]
        return idx, dist, nbr


def _squared_distances(queries: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Squared distance of each row of queries (m, 3) to the same row of
    targets, a fresh (m, 3) array that is overwritten. Every exact match
    reports its squared distance through this one evaluation."""
    np.subtract(queries, targets, out=targets)
    np.multiply(targets, targets, out=targets)
    return targets.sum(axis=1)


def build_index(model: PointCloud) -> SpatialIndex:
    """Build an exact nearest-neighbour index over the model cloud."""
    if not isinstance(model, PointCloud):
        raise InvalidInputError("model must be a PointCloud")
    return SpatialIndex(model)


def match_correspondences(index: SpatialIndex, moving: PointCloud) -> CorrespondenceSet:
    """Closest model point for every moving point, in moving-cloud order.

    The result always has exactly one pair per moving point; several moving
    points may share a model point.
    """
    idx, sq = index.query_batch(moving.xyz)
    return CorrespondenceSet(idx, sq)
