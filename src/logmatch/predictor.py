"""Product-basket prediction for unseen log scans.

The primary predictor is nearest-neighbour under the ICP distance: align
the query scan onto every training scan, and return the basket of the
training log with the smallest converged mean-square error. Two baselines
are included: the constant rounded-mean basket, and k-nearest-neighbour in
a small standardized feature space derived from the scan geometry.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, _array, _instance, _integer, _items, _real
from .geometry import PointCloud
from .registration import IcpConfig, icp_distance_matrix

_FEATURE_MIN_POINTS = 10
_END_SLAB_FRACTION = 0.05
_VOLUME_SLICES = 100
# The sign of a float turn determinant l - r is exact when its magnitude
# exceeds _TURN_BOUND * (|l| + |r|) (Shewchuk's orient2d error bound A);
# the smallest normal float added to that covers products that underflow.
_TURN_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_TURN_FLOOR = sys.float_info.min
# A knn query z-score within _Z_REACH differs from a training one (at most
# sqrt(n - 1) for n logs) by under 2 * _Z_REACH: five squares sum under a
# quarter of the float maximum. Within geometry.B, _Z_REACH * sd is finite.
_Z_REACH = math.sqrt(sys.float_info.max / 5) / 4


@dataclass(frozen=True)
class ProductBasket:
    """Quantities of each lumber product produced from one log.

    A fixed-length vector of non-negative integers; all baskets within one
    dataset share the same length.
    """

    quantities: tuple[int, ...]

    def __post_init__(self) -> None:
        quantities = _items("basket quantities", self.quantities, lambda q: _integer("basket quantities", q, 0))
        object.__setattr__(self, "quantities", quantities)

    def __len__(self) -> int:
        return len(self.quantities)

    def is_empty(self) -> bool:
        """True when every product quantity is zero."""
        return all(q == 0 for q in self.quantities)

    def as_array(self) -> np.ndarray:
        return np.array(self.quantities, dtype=np.int64)


@dataclass(frozen=True)
class LogFeatures:
    """Scalar shape descriptors of a log scan.

    volume mm^3, length mm, end diameters mm (wide >= narrow), and taper,
    the dimensionless shrink (wide - narrow) / length.
    """

    volume: float
    length: float
    wide_end_diameter: float
    narrow_end_diameter: float
    taper: float

    def __post_init__(self) -> None:
        for name in ("volume", "wide_end_diameter", "narrow_end_diameter", "taper"):
            object.__setattr__(self, name, _real(name, getattr(self, name)))
        object.__setattr__(self, "length", _real("length", self.length, 0.0, strict=True))
        if not self.wide_end_diameter >= self.narrow_end_diameter >= 0.0:
            raise InvalidInputError("end diameters must satisfy wide >= narrow >= 0")

    def as_array(self) -> np.ndarray:
        return np.array(
            [self.volume, self.length, self.wide_end_diameter, self.narrow_end_diameter, self.taper],
            dtype=np.float64,
        )


@dataclass(frozen=True, eq=False)
class LogRecord:
    """One dataset row, as its files give it: an id, a scan and the scan's
    product basket. Values measured from the scan, such as knn features or
    ICP distances, are kept beside the records by their callers."""

    id: str
    scan: PointCloud
    basket: ProductBasket

    def __post_init__(self) -> None:
        if not _instance("log id", self.id, str):
            raise InvalidInputError("log id must be a non-empty string")
        _instance("scan", self.scan, PointCloud)
        _instance("basket", self.basket, ProductBasket)


@dataclass(frozen=True)
class PredictionOutcome:
    """A predicted basket, plus the chosen neighbour for neighbour-based
    predictors (absent for the constant-mean baseline)."""

    predicted: ProductBasket
    neighbor_id: str | None = None
    distance: float | None = None

    def __post_init__(self) -> None:
        _instance("predicted", self.predicted, ProductBasket)
        if (self.neighbor_id is None) != (self.distance is None):
            raise InvalidInputError("neighbor_id and distance must be present together")
        if self.distance is not None:
            if not _instance("neighbor_id", self.neighbor_id, str):
                raise InvalidInputError("neighbor_id must be a non-empty string")
            object.__setattr__(self, "distance", _real("distance", self.distance, 0.0))


def _round_half_up(values: np.ndarray) -> np.ndarray:
    # Ordinary half-up rounding for non-negative means; banker's rounding
    # would bias counts like 0.5 downwards.
    return np.floor(values + 0.5).astype(np.int64)


def _check_train(train: Sequence[LogRecord]) -> tuple[LogRecord, ...]:
    """train as a tuple of records, refused when empty or when its baskets differ in length."""
    train = _items("train", train, LogRecord)
    if not train:
        raise InvalidInputError("training set must not be empty")
    if len({len(rec.basket) for rec in train}) > 1:
        raise InvalidInputError("training baskets must all have the same length")
    return train


def mean_predict(train: Sequence[LogRecord]) -> ProductBasket:
    """Componentwise mean of the training baskets, rounded half-up.

    The same constant basket answers every query.
    """
    train = _check_train(train)
    return _mean_basket(np.stack([rec.basket.as_array() for rec in train]))


def _mean_basket(baskets: np.ndarray) -> ProductBasket:
    """The half-up-rounded mean of the rows of a (logs, products) array."""
    return ProductBasket(tuple(_round_half_up(baskets.mean(axis=0)).tolist()))


def icp_nn_predict_batch(
    train: Sequence[LogRecord],
    queries: Sequence[PointCloud],
    cfg: IcpConfig | None = None,
    jobs: int = 1,
) -> list[PredictionOutcome]:
    """ICP nearest-neighbour prediction for many queries.

    Aligns every query onto every training scan with icp_distance_matrix,
    which shares the alignments among up to jobs worker processes, and
    picks each query's neighbour from its row of the (queries, len(train))
    table with nn_predict_from_distances, under the tie rule that
    knn_feature_predict shares. Results do not depend on the worker count.
    """
    train = _check_train(train)
    n = len(train)
    queries = _items("queries", queries, PointCloud)
    scans = [rec.scan for rec in train] + list(queries)
    pairs = [(n + q, t) for q in range(len(queries)) for t in range(n)]
    distances = icp_distance_matrix(scans, pairs, cfg, jobs)
    return nn_predict_from_distances(train, distances.reshape(len(queries), n))


def nn_predict_from_distances(
    train: Sequence[LogRecord], distances: np.ndarray
) -> list[PredictionOutcome]:
    """Nearest-neighbour outcome for each row of a (queries, len(train))
    distance array whose columns follow the order of train.

    Each row picks the basket of its smallest distance; ties resolve to the
    lowest column, that is the lowest training index, as in
    knn_feature_predict, which picks from its table the same way.
    """
    train = _check_train(train)
    distances = _array("distances", distances, np.float64, None, len(train))
    if np.isnan(distances).any():
        raise InvalidInputError("distances must not be NaN")
    return _pick_neighbours(train, distances, 1)


def _pick_neighbours(train: Sequence[LogRecord], distances: np.ndarray, k: int) -> list[PredictionOutcome]:
    """Outcome of each row of a (queries, len(train)) distance table: the
    half-up-rounded mean of its k nearest baskets, with the nearest record
    and its distance. A stable sort orders each row, so ties keep the
    lowest training index."""
    baskets = np.stack([rec.basket.as_array() for rec in train])
    orders = np.argsort(distances, axis=1, kind="stable").tolist()
    return [PredictionOutcome(_mean_basket(baskets[order[:k]]), train[order[0]].id, float(row[order[0]]))
            for row, order in zip(distances, orders)]


def extract_features(scan: PointCloud) -> LogFeatures:
    """Measure shape descriptors of a scan, independent of its pose.

    The log axis is the principal direction of the point distribution.
    Length is the extent along the axis; each end diameter is twice the
    largest radial offset within the 5%-length slab at that end; volume is
    accumulated over 100 axial slices from the convex-hull area of the
    points projected across the axis. The exact hulls of all slices are
    found in one batched pass (_slice_hulls). A slice of fewer than 3
    distinct points gets the circle of its largest radial offset instead,
    and a slice of collinear points the area 0, so a planar scan has a
    volume near 0 in every pose. Every feature of a scan within geometry.B
    is finite, as that bound's derivation shows.
    """
    if len(_instance("scan", scan, PointCloud)) < _FEATURE_MIN_POINTS:
        raise InvalidInputError(f"need at least {_FEATURE_MIN_POINTS} points, got {len(scan)}")
    pts = scan.xyz
    centered = pts - pts.mean(axis=0)
    cov = centered.T @ centered / len(scan)
    _, vectors = np.linalg.eigh(cov)
    axis = vectors[:, 2]
    along = centered @ axis
    s_min = float(along.min())
    s_max = float(along.max())
    length = s_max - s_min
    if length <= 0.0:
        raise InvalidInputError("scan has zero extent along its principal axis")

    radial = np.linalg.norm(centered - np.outer(along, axis), axis=1)
    slab = _END_SLAB_FRACTION * length
    d_low = 2.0 * float(radial[along <= s_min + slab].max())
    d_high = 2.0 * float(radial[along >= s_max - slab].max())
    wide, narrow = max(d_low, d_high), min(d_low, d_high)

    plane = np.column_stack([centered @ vectors[:, 0], centered @ vectors[:, 1]])
    thickness = length / _VOLUME_SLICES
    bins = np.clip(((along - s_min) / thickness).astype(np.int64), 0, _VOLUME_SLICES - 1)
    areas = _slice_areas(plane, bins, radial, _VOLUME_SLICES)
    volume = 0.0
    for area in areas.tolist():
        volume += area * thickness  # slice by slice, in axial order

    return LogFeatures(volume, length, wide, narrow, (wide - narrow) / length)


def _slice_areas(plane: np.ndarray, bins: np.ndarray, radial: np.ndarray, slices: int) -> np.ndarray:
    """Convex-hull area of each slice's points: plane[k] lies in slice
    bins[k] at radial offset radial[k]. An empty slice has area 0.

    A slice of fewer than 3 distinct points gets the circle of its largest
    radial offset. Any other slice gets the area of its exact hull
    (_slice_hulls): the shoelace sum over its corners in centroid-relative
    coordinates, which is 0 when all its points are collinear.
    """
    hull, distinct = _slice_hulls(plane, bins, slices)
    at = bins[hull]
    div = np.maximum(np.bincount(bins, minlength=slices), 1)
    dx = plane[hull, 0] - (np.bincount(bins, weights=plane[:, 0], minlength=slices) / div)[at]
    dy = plane[hull, 1] - (np.bincount(bins, weights=plane[:, 1], minlength=slices) / div)[at]
    # Each corner's successor within its slice, cyclically.
    corners = np.bincount(at, minlength=slices)
    head = (np.cumsum(corners) - corners)[at]
    pos = np.arange(len(hull))
    succ = np.where(pos == head + corners[at] - 1, head, pos + 1)
    areas = 0.5 * np.bincount(at, weights=dx * dy[succ] - dx[succ] * dy, minlength=slices)
    largest = np.zeros(slices)
    np.maximum.at(largest, bins, radial)
    return np.where(distinct < 3, math.pi * largest * largest, areas)


def _slice_hulls(plane: np.ndarray, bins: np.ndarray, slices: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact convex hulls of the points of every slice in one pass, after
    Andrew's monotone chain. Returns the corner indices into plane, grouped
    by slice and counter-clockwise within it from the slice's
    lexicographically smallest point, and each slice's count of distinct
    points. A point on an edge is not a corner, so collinear or coincident
    points give at most 2; of equal points the lowest index stands for all.

    The distinct points of a slice, in lexicographic order, run from its
    first point F to its last L. Those strictly left of the chord from F to
    L make the upper chain, run back from L to F, and the rest the lower
    chain, run forward from F to L. Every vertex but a chain's ends, which
    are hull corners, is dropped, all at once, while its turn is not
    strictly left. Each chain then turns left at every vertex, and every
    point dropped from it lies on its outer side: it is that side's half
    of the hull. Every turn and chord side is decided exactly (_turn_signs).
    """
    x, y = plane[:, 0], plane[:, 1]
    order = np.lexsort((y, x, bins))
    group, xs, ys = bins[order], x[order], y[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (group[1:] != group[:-1]) | (xs[1:] != xs[:-1]) | (ys[1:] != ys[:-1])
    order, group = order[new], group[new]
    distinct = np.bincount(group, minlength=slices)
    head = (np.cumsum(distinct) - distinct)[group]
    tail = head + distinct[group] - 1
    pos = np.arange(len(order))
    inner = (pos > head) & (pos < tail)
    upper = np.zeros(len(order), dtype=bool)
    upper[inner] = _turn_signs(x, y, order[head[inner]], order[tail[inner]], order[inner]) > 0
    # All lower chains forward, then all upper chains back; F and L bound both.
    in_upper = ~inner | upper
    chains = np.concatenate([order[~upper], order[in_upper][::-1]])
    ends = np.concatenate([~inner[~upper], ~inner[in_upper][::-1]])
    split = len(order) - int(upper.sum())
    test = np.flatnonzero(~ends)
    while len(test):
        drop = test[_turn_signs(x, y, chains[test - 1], chains[test], chains[test + 1]) <= 0]
        # Only the vertices beside a dropped one have new turns.
        kept = np.ones(len(chains), dtype=bool)
        kept[drop] = False
        beside = np.zeros(len(chains), dtype=bool)
        beside[drop - 1] = beside[drop + 1] = True
        beside &= kept & ~ends
        chains, ends, split = chains[kept], ends[kept], split - int((drop < split).sum())
        test = np.flatnonzero(beside[kept])
    # Each slice's lower chain, then the inner corners of its upper chain.
    hull = np.concatenate([chains[:split], chains[split:][~ends[split:]]])
    return hull[np.argsort(bins[hull], kind="stable")], distinct


def _turn_signs(x: np.ndarray, y: np.ndarray, o: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact sign (1, 0 or -1) of the turn from o through a to b for each
    triple of point indices, positive when b lies left of the line from o
    through a. The float determinant decides when it clears _TURN_BOUND;
    the rest are decided in integers (_as_integers)."""
    left = (x[a] - x[o]) * (y[b] - y[o])
    right = (y[a] - y[o]) * (x[b] - x[o])
    turn = left - right
    bound = _TURN_BOUND * (np.abs(left) + np.abs(right)) + _TURN_FLOOR
    sign = np.where(turn > bound, 1, np.where(turn < -bound, -1, 0))
    for k in np.flatnonzero(sign == 0).tolist():  # too close to call in floats
        triple = [o[k], a[k], b[k]]
        (xo, xa, xb), (yo, ya, yb) = _as_integers(x[triple].tolist()), _as_integers(y[triple].tolist())
        det = (xa - xo) * (yb - yo) - (ya - yo) * (xb - xo)
        sign[k] = (det > 0) - (det < 0)
    return sign


def _as_integers(values: list[float]) -> list[int]:
    """The floats times one common power of two, as exact integers. Turn
    determinants are bilinear in x and y differences, so scaling each axis
    keeps their signs."""
    ratios = [value.as_integer_ratio() for value in values]
    shift = max(den.bit_length() for _, den in ratios)
    return [num << (shift - den.bit_length()) for num, den in ratios]


def knn_feature_predict(
    train: Sequence[LogRecord],
    train_features: Sequence[LogFeatures],
    query_features: Sequence[LogFeatures],
    k: int,
    query_ids: Sequence[str] | None = None,
) -> list[PredictionOutcome]:
    """k-nearest-neighbour basket predictions in standardized feature space,
    one per query, in query order.

    train_features[i] holds the features of train[i], as the columns of a
    distance array follow train in nn_predict_from_distances. Features are
    z-scored with statistics from the training features (constant features
    are ignored); each prediction is the half-up-rounded mean of the k
    nearest baskets. Ties at the k-th distance keep the lowest training
    index, the tie rule of nn_predict_from_distances. The reported
    neighbour is the single nearest record and its distance is in
    standardized feature space, not mm^2. A query with a z-score beyond
    _Z_REACH (1.5e153) is refused first, named by query_ids.
    """
    train = _check_train(train)
    train_features = _items("train_features", train_features, LogFeatures)
    query_features = _items("query_features", query_features, LogFeatures)
    query_ids = None if query_ids is None else _items("query_ids", query_ids, str)
    if len(train_features) != len(train):
        raise InvalidInputError(f"{len(train_features)} train_features for {len(train)} training records")
    if query_ids is not None and len(query_ids) != len(query_features):
        raise InvalidInputError(f"{len(query_ids)} query_ids for {len(query_features)} query_features")
    if _integer("k", k, 1) > len(train):
        raise InvalidInputError(f"k must be in [1, {len(train)}], got {k}")

    table = np.stack([features.as_array() for features in train_features])
    queries = np.array([features.as_array() for features in query_features]).reshape(-1, table.shape[1])
    mu = table.mean(axis=0)
    sd = table.std(axis=0)
    active = sd > 0.0
    mu, sd = mu[active], sd[active]
    far = np.flatnonzero((np.abs(queries[:, active] - mu) > _Z_REACH * sd).any(axis=1))
    if far.size:
        name = f"log {query_ids[far[0]]!r}" if query_ids is not None else f"query {far[0]}"
        raise InvalidInputError(f"{name}: knn features lie beyond {_Z_REACH:.2g} training standard deviations")
    z_train = (table[:, active] - mu) / sd
    distances = [np.sqrt(((z_train - (row[active] - mu) / sd) ** 2).sum(axis=1)) for row in queries]
    return _pick_neighbours(train, np.reshape(distances, (len(queries), len(train))), k)
