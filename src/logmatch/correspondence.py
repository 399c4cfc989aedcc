"""Exact closest-point matching of moving clouds against fixed model clouds.

The index is exact, never approximate: for every query it returns the same
(point, squared distance) as an exhaustive linear scan, with ties at equal
distance resolved to the lowest model index. That determinism is what makes
distance rankings reproducible bit-for-bit across runs and platforms.

The index has two kernels, chosen by the model's size. A model of at most
_SCAN_MAX points is answered by that linear scan itself: every squared
distance is geometry._squared_distances, and successive argmin passes take
the nearest points in order, the lowest index first among equal distances.
So the scan needs no tie slack and no tree, and a process that matches only
such models never imports scipy. A larger model gets a k-d tree, which
costs less per query point there. The tree evaluates distances in its own
operation order, so a query whose two nearest tree candidates lie within a
relative 1e-9 of each other is re-ranked over every model point in a
slightly inflated ball by the squared distances a linear scan computes.
_SCAN_MAX is the largest model size, on a sweep of recorded engine query
streams, at which the scan's cost per query point stayed within 1.1 times
the tree's.

This module also owns the ICP engine's matcher (_NeighbourCache), so the
tie slack, the way the kernels report a missing neighbour and the rounding
margins that depend on how they compute distances all sit beside them. The
matcher reuses queries across iterations: each moving point keeps its few
nearest model points, and goes back to the index only when the triangle
inequality cannot prove that its match is unchanged. Fresh matches,
certified matches and query_batch all report squared distances through
geometry._squared_distances, as the ICP fit's residuals do.

Matching is directional (each moving point gets its closest model point) and
many-to-one matches are allowed, which is how two clouds of different sizes
can be compared at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import InvalidInputError, _instance
from .geometry import B, PointCloud, _squared_distances

# Models of at most this many points are matched by the linear scan, larger
# ones by a k-d tree (see the module docstring for the sweep behind it).
_SCAN_MAX = 64
# Squared distances per block of the scan: rows of queries times model points.
_SCAN_CELLS = 1 << 14
# Relative gap between the two nearest tree distances under which a query
# is re-ranked exactly. The tree's distances differ from the linear scan's
# by a few units in the last place, far inside this slack.
_TIE_SLACK = 1e-9
_REACH = 3.0 * 3.0**0.5 * B


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
    """Immutable exact nearest-neighbour structure over a model cloud: a
    linear scan for a model of at most _SCAN_MAX points, else a k-d tree.

    Safe for concurrent queries once built. Use :func:`build_index`.
    """

    __slots__ = ("_points", "_columns", "_tree")

    def __init__(self, model: PointCloud):
        # The cloud's own read-only, C-ordered float64 array, not a copy.
        pts = self._points = _instance("model", model, PointCloud).xyz
        if len(pts) <= _SCAN_MAX:
            self._columns = np.ascontiguousarray(pts.T)
            self._tree = None
        else:
            # Imported here: a process that builds no tree never loads scipy.
            from scipy.spatial import cKDTree

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
        so they are bit-identical to a direct evaluation. A row with a NaN
        or infinite coordinate, or one beyond _REACH = 3*sqrt(3)*geometry.B,
        within which every distance is finite, raises InvalidInputError.
        """
        pts = np.asarray(xyz, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise InvalidInputError(f"queries must have shape (m, 3), got {pts.shape}")
        if not (np.abs(pts) <= _REACH).all():
            raise InvalidInputError(f"query coordinates must be finite and within ±{_REACH:g}")
        idx, _, _ = self._nearest(pts, 2)
        return idx, _squared_distances(self._points[idx].T, pts.T)

    def _nearest(self, pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Exact nearest model index of each row of a float64 (m, 3) array,
        with the k >= 2 nearest neighbours of each row: (indices (m,),
        distances (m, k), neighbour indices (m, k)).

        The tree orders neighbours at equal distance as it likes; the scan
        lists them by index. A neighbour that a model of fewer than k points
        lacks is reported at an infinite distance with index len(self).
        Every other distance is finite for the rows ICP places from clouds
        within geometry.B, as that bound's derivation shows.
        """
        if self._tree is None:
            return self._scan(pts, k)
        dist, nbr = self._tree.query(pts, k=k)
        reach = dist[:, 0] * (1.0 + _TIE_SLACK)
        idx = nbr[:, 0].astype(np.int64)
        # A one-point model reports an infinite second distance: never a tie.
        close = np.flatnonzero(dist[:, 1] <= reach)
        if close.size:
            found = self._tree.query_ball_point(pts[close], reach[close])
            rows = np.repeat(close, [len(c) for c in found])
            cand = np.fromiter(itertools.chain.from_iterable(found), dtype=np.int64, count=rows.size)
            sq = _squared_distances(self._points[cand].T, pts[rows].T)
            # Per row, the candidate of least (squared distance, index): the
            # first of the row's run in the lexsorted order.
            order = np.lexsort((cand, sq, rows))
            best = order[np.flatnonzero(np.diff(rows[order], prepend=-1))]
            idx[rows[best]] = cand[best]
        return idx, dist, nbr

    def _scan(self, pts: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """_nearest by a linear scan over blocks of rows: each block's squared
        distances to every model point, then k argmin passes, each taking
        the first (lowest-index) least distance of a row and striking it
        out."""
        n, m = len(self), len(pts)
        sq = np.empty((k, m))
        sq[n:] = np.inf
        nbr = np.empty((k, m), dtype=np.int64)
        nbr[n:] = n
        rows = max(1, _SCAN_CELLS // n)
        block = np.empty((min(rows, m), n))
        for lo in range(0, m, rows):
            hi = min(lo + rows, m)
            dist = block[:hi - lo]
            _squared_distances(self._columns[:, None, :], pts[lo:hi].T[:, :, None], dist)
            flat = dist.reshape(-1)
            starts = np.arange(0, flat.size, n)
            for c in range(min(k, n)):
                near = dist.argmin(axis=1, out=nbr[c, lo:hi])
                at = np.add(near, starts)
                flat.take(at, out=sq[c, lo:hi])
                flat[at] = np.inf
        return nbr[0], np.sqrt(sq.T), nbr.T


# Model points each stacked point keeps from its last index query; the
# distance of the next one bounds all the others. With 4, 73% of
# predict-mixed's point-queries at seed 0 are certified. When the 4th
# distance was the bound, 2 certified about half and ran slower, while 5 to
# 8 certified up to 83% and ran no faster.
_CACHE_NEIGHBOURS = 4
# Rows per index query of the matcher. Each row costs the index about 150
# bytes of temporaries (its row-major copy, K + 1 distances and indices, the
# kept ids), so a block holds about 5 MB whatever the stack's size. It is the
# engine's batch size, so only a pair larger than a batch is cut.
_QUERY_ROWS = 1 << 15
# False sends every stacked point to the index at every round; tests use it
# to compare the engine with and without certificates.
_CERTIFY = True
# Rounding margins of the certificate, derived in _NeighbourCache.
_REL_MARGIN = 1e-12
_ABS_MARGIN = 1e-13
_UNIQUE = (1.0 + _TIE_SLACK) ** 2


class _NeighbourCache:
    """Exact nearest-model-point matcher of the ICP engine: each stacked
    point's last exact index query, and the certificate that tells when
    that query still holds at the point's new placement.

    An index query at placement p0 asks for the K + 1 nearest model points,
    K = _CACHE_NEIGHBOURS. The point keeps p0, the pool ids of the K
    nearest, and a lower bound L on the distance from p0 to every model
    point it does not keep: the distance d of the (K + 1)-th, the nearest
    point not kept, less the rounding margins below. At a later placement
    p, let m = |p - p0| and u the least distance from p to a kept point.
    Every other model point lies at least L - m from p (triangle
    inequality). So if u + m < L, and no other kept point is within the tie
    slack of u, the kept point at u is the exact, unique nearest model
    point: the one a fresh query returns, with no tie for the lowest-index
    rule to break. Elkan (ICML 2003) bounds moving k-means centres the same
    way. The stacked points are columns of (3, N) arrays, as in the engine,
    and follow its stack when it drops pairs (keep).

    Rounding margins. u, m and every index distance are distances between
    two stored points: a correctly rounded difference per axis, squared,
    summed and square-rooted, so within about 4 units of 2**-53 of the
    exact distance, relative. The scan adds nothing to that; the tree's
    pruning adds a few such units per level, relative to the squared
    distances on its search path. All of these, and the rounding of the
    sum u + m, are relative to at most d, so L = d (1 - _REL_MARGIN) - ...
    absorbs them with about 4,500 units to spare; what is left over keeps
    the kept point at u ahead of every other model point by far more than
    the rounding of a fresh query. But a value that the tree derives from a
    coordinate c rather than from a difference, such as a node's split
    plane (a rounded midpoint), is resolved only to an ulp of c, about
    2.2e-16 c, however small the distance. At c = 1e4 and a distance of
    1e-3 that is already 2e-9 of the distance, beyond a relative margin of
    1e-12. So L also gives up _ABS_MARGIN (about 450 ulps) per unit of the
    largest coordinate magnitude of p0 and of the model. A model of K points
    or fewer is kept whole: the neighbours it lacks are kept as its own
    column at infinity, and its (K + 1)-th distance, so L, is infinite.
    """

    def __init__(self, models: Mapping[int, SpatialIndex], used: list[int], points: int):
        self.models = models
        sizes = [len(models[j]) + 1 for j in used]
        self.offsets = dict(zip(used, np.cumsum([0] + sizes).tolist()))
        self.scales = {j: float(np.abs(models[j].points).max()) for j in used}
        # The columns of the pool: each used model's n points, then its own
        # column at infinity, where an index's missing neighbour (index n) lands.
        infinity = np.full((1, 3), np.inf)
        self.pool = np.concatenate([c for j in used for c in (models[j].points, infinity)]).T.copy()
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
        certify and _CERTIFY, go to their model's index in blocks of at most
        _QUERY_ROWS rows; each row's answer depends on that row alone.
        Returns the squared distances (N,) and the points each pair sent to
        an index (B,).
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
            j = int(model_of[first])
            for lo in range(cuts[first], cuts[end], _QUERY_ROWS):
                rows = miss[lo:min(lo + _QUERY_ROWS, cuts[end])]
                # The index is the one consumer of row-major points.
                nearest[rows] = self._query(j, rows, placed.T[rows])
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
        to the index models[j], keep each row's query, and return the pool
        id of each row's nearest model point."""
        k, offset = _CACHE_NEIGHBOURS, self.offsets[j]
        nearest, dist, nbr = self.models[j]._nearest(xyz, k + 1)
        self.anchors[:, rows] = xyz.T
        self.ids[:, rows] = (nbr[:, :k] + offset).T
        scale = np.abs(xyz).max(axis=1) + self.scales[j]
        self.limits[rows] = dist[:, k] * (1.0 - _REL_MARGIN) - _ABS_MARGIN * scale
        return nearest + offset


def build_index(model: PointCloud) -> SpatialIndex:
    """Build an exact nearest-neighbour index over the model cloud."""
    return SpatialIndex(model)


def match_correspondences(index: SpatialIndex, moving: PointCloud) -> CorrespondenceSet:
    """Closest model point for every moving point, in moving-cloud order.

    The result always has exactly one pair per moving point; several moving
    points may share a model point.
    """
    _instance("index", index, SpatialIndex)
    idx, sq = index.query_batch(_instance("moving", moving, PointCloud).xyz)
    return CorrespondenceSet(idx, sq)
