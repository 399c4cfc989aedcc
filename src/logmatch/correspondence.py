"""Exact closest-point matching of moving clouds against fixed model clouds.

The index is exact, never approximate: for every query it returns the same
(point, squared distance) as an exhaustive linear scan, with ties at equal
distance resolved to the lowest model index. That determinism is what makes
distance rankings reproducible bit-for-bit across runs and platforms.

Every model, from a single point up, is served by one k-d tree. The tree
evaluates distances in its own operation order, so a query whose two
nearest tree candidates lie within a relative 1e-9 of each other is re-ranked
over every model point in a slightly inflated ball by the squared distances
a linear scan computes.

This module also owns the ICP engine's matcher (_NeighbourCache), so the
tie slack, the way the tree reports a missing neighbour and the rounding
margins that depend on how the tree computes distances all sit beside the
tree. The matcher reuses queries across iterations: each moving point keeps
its few nearest tree neighbours, and goes back to the tree only when the
triangle inequality cannot prove that its match is unchanged. Fresh
matches, certified matches and query_batch all report squared distances
through geometry._squared_distances, as the ICP fit's residuals do.

When the tree's nearest distance, or the matcher's K-th kept distance,
overflows to infinity, the tie re-rank or the certificate built on it
cannot be trusted, and the query raises NumericalError.

Matching is directional (each moving point gets its closest model point) and
many-to-one matches are allowed, which is how two clouds of different sizes
can be compared at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalError
from .geometry import PointCloud, _squared_distances

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
        return idx, _squared_distances(self._points[idx].T, pts.T)

    def _nearest(self, pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact nearest model index of each row of a float64 (m, 3) array,
        with the tree's k >= 2 nearest neighbours of each row: (indices (m,),
        tree distances (m, k), neighbour indices (m, k)).

        The tree orders neighbours at equal distance as it likes, and reports
        a missing neighbour of a model with fewer than k points at an
        infinite distance with index len(self). Raises NumericalError when
        the nearest distance, or the tie ball around it, overflows.
        """
        dist, nbr = self._tree.query(pts, k=k)
        reach = dist[:, 0] * (1.0 + _TIE_SLACK)
        if np.isinf(reach).any():
            raise NumericalError("a nearest-neighbour distance overflows the float range")
        idx = nbr[:, 0].astype(np.int64)
        # A one-point model reports an infinite second distance: never a tie.
        close = np.flatnonzero(dist[:, 1] <= reach)
        if close.size:
            found = self._tree.query_ball_point(pts[close], reach[close])
            rows = np.repeat(close, [len(c) for c in found])
            cand = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=rows.size)
            sq = _squared_distances(self._points[cand].T, pts[rows].T)
            # Per row, the candidate of least (squared distance, index).
            order = np.lexsort((cand, sq, rows))
            _, first = np.unique(rows[order], return_index=True)
            best = order[first]
            idx[rows[best]] = cand[best]
        return idx, dist, nbr


# Model points each stacked point keeps from its last k-d tree query. With 4,
# 72% of predict-mixed's point-queries are certified; 2 certifies about half
# and runs slower, while 5 to 8 certify up to 83% and run no faster.
_CACHE_NEIGHBOURS = 4
# False sends every stacked point to the tree at every round; tests use it
# to compare the engine with and without certificates.
_CERTIFY = True
# Rounding margins of the certificate, derived in _NeighbourCache.
_REL_MARGIN = 1e-12
_ABS_MARGIN = 1e-13
_UNIQUE = (1.0 + _TIE_SLACK) ** 2


class _NeighbourCache:
    """Exact nearest-model-point matcher of the ICP engine: each stacked
    point's last exact k-d tree query, and the certificate that tells when
    that query still holds at the point's new placement.

    After a tree query at placement p0, a point keeps p0, the pool ids of
    its K = _CACHE_NEIGHBOURS nearest model points, and a lower bound L on
    the distance from p0 to every model point it does not keep: the K-th
    tree distance dK less the rounding margins below. At a later placement
    p, let m = |p - p0| and u the least distance from p to a kept point.
    Every other model point lies at least L - m from p (triangle
    inequality). So if u + m < L, and no other kept point is within the tie
    slack of u, the kept point at u is the exact, unique nearest model
    point: the one a fresh query returns, with no tie for the lowest-index
    rule to break. Elkan (ICML 2003) bounds moving k-means centres the same
    way. The stacked points are columns of (3, N) arrays, as in the engine,
    and follow its stack when it drops pairs (keep).

    Rounding margins. u, m and every tree distance are distances between
    two stored points: a correctly rounded difference per axis, squared,
    summed and square-rooted, so within about 4 units of 2**-53 of the
    exact distance, relative. The tree's pruning adds a few such units per
    level, relative to the squared distances on its search path. All of
    these, and the rounding of the sum u + m, are relative to at most dK,
    so L = dK (1 - _REL_MARGIN) - ... absorbs them with about 4,500 units
    to spare; what is left over keeps the kept point at u ahead of every
    other model point by far more than the rounding of a fresh query. But
    a value that the tree derives from a coordinate c rather than from a
    difference, such as a node's split plane (a rounded midpoint), is
    resolved only to an ulp of c, about 2.2e-16 c, however small the
    distance. At c = 1e4 and a distance of 1e-3 that is already 2e-9 of
    the distance, beyond a relative margin of 1e-12. So L also gives up
    _ABS_MARGIN (about 450 ulps) per unit of the largest coordinate
    magnitude of p0 and of the model. A model of K points or fewer is kept
    whole, and its L is infinite.
    """

    def __init__(self, models: Sequence[SpatialIndex], used: list[int], points: int):
        self.models = models
        sizes = [len(models[j]) for j in used]
        self.offsets = dict(zip(used, np.cumsum([0] + sizes).tolist()))
        self.scales = {j: float(np.abs(models[j].points).max()) for j in used}
        # The used models' points end to end, as the columns of a (3, M + 1)
        # pool. The last column, at infinity, stands in for the missing
        # neighbours of a model of fewer than K points.
        rows = np.concatenate([models[j].points for j in used] + [np.full((1, 3), np.inf)])
        self.pool = np.ascontiguousarray(rows.T)
        self.anchors = np.empty((3, points))
        # The narrowest integer type that holds every pool id.
        self.ids = np.empty((_CACHE_NEIGHBOURS, points), dtype=np.min_scalar_type(self.pool.shape[1]))
        self.limits = np.empty(points)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the entries of the stacked point rows that the stack kept."""
        self.anchors = np.compress(rows, self.anchors, axis=1)
        self.ids = np.compress(rows, self.ids, axis=1)
        self.limits = self.limits[rows]

    def match(
        self, placed: np.ndarray, starts: np.ndarray, model_of: np.ndarray, certify: bool, matched: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fill matched (3, N) with the exact nearest model point of every
        stacked point placed at placed (3, N), pairs starting at starts and
        sorted by model_of. Uncertified points, or all of them unless
        certify and _CERTIFY, go to their model's tree, one query per model.
        Returns the squared distances (N,) and the points each pair sent to
        a tree (B,).
        """
        points = placed.shape[1]
        if certify and _CERTIFY:
            certified, nearest = self._certify(placed, matched)
            miss = np.flatnonzero(~certified)
        else:
            nearest, miss = np.empty(points, dtype=self.ids.dtype), np.arange(points)
        cuts = np.searchsorted(miss, np.append(starts, points)).tolist()
        firsts = np.flatnonzero(np.diff(model_of, prepend=-1)).tolist()
        for first, end in zip(firsts, firsts[1:] + [len(model_of)]):
            rows = miss[cuts[first]:cuts[end]]
            if rows.size:
                # The tree is the one consumer of row-major points.
                nearest[rows] = self._query(int(model_of[first]), rows, placed.T[rows])
        return self._gather(nearest, placed, matched), np.diff(cuts)

    def _gather(
        self, ids: np.ndarray, placed: np.ndarray, gathered: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """Gather the pool columns ids into gathered (3, N) and return their
        squared distances to the placements (3, N), into out when given."""
        np.take(self.pool, ids, axis=1, out=gathered, mode="clip")
        return _squared_distances(gathered, placed, out)

    def _certify(self, placed: np.ndarray, gathered: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The certified mask (N,) of the placements (3, N) and the pool id
        of each certified point's nearest model point (arbitrary elsewhere).
        One pass over the stack, one kept candidate at a time, gathered into
        the (3, N) buffer gathered, with (N,) temporaries."""
        best = self._gather(self.ids[0], placed, gathered)
        best_id = self.ids[0].copy()
        second = np.full(len(best), np.inf)
        candidate = np.empty(len(best))
        for c in range(1, _CACHE_NEIGHBOURS):
            self._gather(self.ids[c], placed, gathered, candidate)
            closer = candidate < best
            np.minimum(second, candidate, out=second)
            np.copyto(second, best, where=closer)
            np.copyto(best, candidate, where=closer)
            np.copyto(best_id, self.ids[c], where=closer)
        unique = second > best * _UNIQUE
        moved = _squared_distances(placed, self.anchors, candidate)
        np.sqrt(best, out=best)
        best += np.sqrt(moved, out=moved)
        certified = best < self.limits
        certified &= unique
        return certified, best_id

    def _query(self, j: int, rows: np.ndarray, xyz: np.ndarray) -> np.ndarray:
        """Send the stacked points at rows, placed at the rows of xyz (m, 3),
        to the tree of models[j], keep each row's query, and return the pool
        id of each row's nearest model point."""
        index, k, offset = self.models[j], _CACHE_NEIGHBOURS, self.offsets[j]
        nearest, dist, nbr = index._nearest(xyz, k)
        self.anchors[:, rows] = xyz.T
        if len(index) <= k:
            self.ids[:, rows] = np.where(nbr < len(index), nbr + offset, self.pool.shape[1] - 1).T
            self.limits[rows] = np.inf
        else:
            # An infinite K-th distance would certify any later match.
            if np.isinf(dist[:, k - 1]).any():
                raise NumericalError("a kept neighbour's distance overflows the float range")
            self.ids[:, rows] = (nbr + offset).T
            scale = np.abs(xyz).max(axis=1) + self.scales[j]
            self.limits[rows] = dist[:, k - 1] * (1.0 - _REL_MARGIN) - _ABS_MARGIN * scale
        return nearest + offset


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
