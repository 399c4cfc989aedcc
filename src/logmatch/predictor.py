"""Product-basket prediction for unseen log scans.

The primary predictor is nearest-neighbour under the ICP distance: align
the query scan onto every training scan, and return the basket of the
training log with the smallest converged mean-square error. Two baselines
are included: the constant rounded-mean basket, and k-nearest-neighbour in
a small standardized feature space derived from the scan geometry.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .correspondence import build_index
from .errors import InvalidInputError
from .geometry import PointCloud
from .registration import IcpConfig, _align_pairs

_FEATURE_MIN_POINTS = 10
_END_SLAB_FRACTION = 0.05
_VOLUME_SLICES = 100
# A batched slice hull is certified only above this area, relative to the
# slice's largest squared centroid distance, and with no point outside it
# by more than _HULL_SLACK of its area (see _slice_hulls). The rounding
# error of a hull's area grows with its length over its width, so thinner
# slices take the exact per-slice path (_hull_corners); on log scans almost
# none is this thin.
_FLAT_HULL = 1e-3
_HULL_SLACK = 1e-13
# The sign of a float turn determinant l - r is exact when its magnitude
# exceeds _TURN_BOUND * (|l| + |r|) (Shewchuk's orient2d error bound A);
# the smallest normal float added to that covers products that underflow.
_TURN_BOUND = (3.0 + 16.0 * 2.0**-53) * 2.0**-53
_TURN_FLOOR = sys.float_info.min
# Pool workers are forked where the platform can fork, so that they inherit
# the parent's imports (the k-d tree's among them); elsewhere they are
# spawned and import what they use.
_START_METHOD = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


@dataclass(frozen=True)
class ProductBasket:
    """Quantities of each lumber product produced from one log.

    A fixed-length vector of non-negative integers; all baskets within one
    dataset share the same length.
    """

    quantities: tuple[int, ...]

    def __post_init__(self) -> None:
        cleaned = []
        for q in self.quantities:
            if isinstance(q, (bool, float, np.floating)) or not isinstance(q, (int, np.integer)):
                raise InvalidInputError(f"basket quantities must be integers, got {q!r}")
            if q < 0:
                raise InvalidInputError(f"basket quantities must be non-negative, got {q!r}")
            cleaned.append(int(q))
        object.__setattr__(self, "quantities", tuple(cleaned))

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
        values = {name: float(getattr(self, name)) for name in
                  ("volume", "length", "wide_end_diameter", "narrow_end_diameter", "taper")}
        if not all(math.isfinite(v) for v in values.values()):
            raise InvalidInputError(f"features must be finite, got {values}")
        if values["length"] <= 0.0:
            raise InvalidInputError(f"length must be positive, got {values['length']!r}")
        if not values["wide_end_diameter"] >= values["narrow_end_diameter"] >= 0.0:
            raise InvalidInputError("end diameters must satisfy wide >= narrow >= 0")
        for name, value in values.items():
            object.__setattr__(self, name, value)

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
        if not self.id:
            raise InvalidInputError("log id must be a non-empty string")


@dataclass(frozen=True)
class PredictionOutcome:
    """A predicted basket, plus the chosen neighbour for neighbour-based
    predictors (absent for the constant-mean baseline)."""

    predicted: ProductBasket
    neighbor_id: str | None = None
    distance: float | None = None

    def __post_init__(self) -> None:
        if (self.neighbor_id is None) != (self.distance is None):
            raise InvalidInputError("neighbor_id and distance must be present together")


def _round_half_up(values: np.ndarray) -> np.ndarray:
    # Ordinary half-up rounding for non-negative means; banker's rounding
    # would bias counts like 0.5 downwards.
    return np.floor(values + 0.5).astype(np.int64)


def _check_train(train: Sequence[LogRecord]) -> None:
    if len(train) == 0:
        raise InvalidInputError("training set must not be empty")


def mean_predict(train: Sequence[LogRecord]) -> ProductBasket:
    """Componentwise mean of the training baskets, rounded half-up.

    The same constant basket answers every query.
    """
    _check_train(train)
    stacked = np.stack([rec.basket.as_array() for rec in train])
    return ProductBasket(tuple(_round_half_up(stacked.mean(axis=0)).tolist()))


def icp_nn_predict_batch(
    train: Sequence[LogRecord],
    queries: Sequence[PointCloud],
    cfg: IcpConfig | None = None,
    jobs: int = 1,
) -> list[PredictionOutcome]:
    """ICP nearest-neighbour prediction for many queries.

    Aligns every query onto every training scan with icp_distance_matrix,
    whose jobs workers each take a round-robin share of the training scans,
    and picks each query's neighbour with nn_predict_from_distances. Results
    do not depend on the worker count.
    """
    _check_train(train)
    n = len(train)
    scans = [rec.scan for rec in train] + list(queries)
    pairs = [(n + q, t) for q in range(len(queries)) for t in range(n)]
    distances = icp_distance_matrix(scans, pairs, cfg, jobs)
    return nn_predict_from_distances(train, distances[n:, :n])


def icp_distance_matrix(
    scans: Sequence[PointCloud],
    pairs: Iterable[tuple[int, int]],
    cfg: IcpConfig | None = None,
    jobs: int = 1,
) -> np.ndarray:
    """ICP distance of scans[i] aligned onto scans[j] for every (i, j) in pairs.

    Returns a dense (n, n) array over the n scans with each requested
    distance at [i, j] and NaN everywhere else; a pair listed twice is
    aligned once. The model scans (the j's) are dealt round-robin, in index
    order, to up to jobs worker processes of one pool, forked where the
    platform can fork and spawned elsewhere. Each worker receives only its
    models and the moving scans paired with them, and aligns all of its
    pairs in one pass of the lockstep engine. A pair's distance does not
    depend on the batch or worker that computes it, so neither does the
    array.
    """
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs!r}")
    if cfg is None:
        cfg = IcpConfig()
    n = len(scans)
    wanted = sorted({(int(i), int(j)) for i, j in pairs})
    for i, j in wanted:
        if not (0 <= i < n and 0 <= j < n):
            raise InvalidInputError(f"pair {(i, j)} is out of range for {n} scans")
    distances = np.full((n, n), np.nan)
    models = sorted({j for _, j in wanted})
    if not models:
        return distances
    workers = min(jobs, len(models))
    worker_of = {j: k % workers for k, j in enumerate(models)}
    shares: list[list[tuple[int, int]]] = [[] for _ in range(workers)]
    for i, j in wanted:
        shares[worker_of[j]].append((i, j))
    tasks = [_share_task(scans, share, cfg) for share in shares]
    if workers > 1:
        if _START_METHOD == "fork":
            import scipy.spatial  # noqa: F401  (imported once, before the workers fork)
        context = multiprocessing.get_context(_START_METHOD)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = [pool.submit(_align_share, *task) for task in tasks]
            results = [future.result() for future in futures]
    else:
        results = [_align_share(*tasks[0])]
    for share, mse in zip(shares, results):
        rows, cols = np.array(share).T
        distances[rows, cols] = mse
    return distances


def _share_task(
    scans: Sequence[PointCloud], share: list[tuple[int, int]], cfg: IcpConfig
) -> tuple[list[PointCloud], list[PointCloud], list[tuple[int, int]], IcpConfig]:
    """The arguments of _align_share for one worker's pairs: its moving and
    model scans, and the pairs renumbered into those two lists."""
    moving = {i: k for k, i in enumerate(sorted({i for i, _ in share}))}
    models = {j: k for k, j in enumerate(sorted({j for _, j in share}))}
    local = [(moving[i], models[j]) for i, j in share]
    return [scans[i] for i in moving], [scans[j] for j in models], local, cfg


def _align_share(
    moving: Sequence[PointCloud],
    models: Sequence[PointCloud],
    pairs: Sequence[tuple[int, int]],
    cfg: IcpConfig,
) -> np.ndarray:
    """ICP distance of moving[i] onto models[j] for each (i, j) in pairs."""
    indices = [build_index(model) for model in models]
    return _align_pairs([scan.xyz for scan in moving], indices, pairs, cfg).mse


def nn_predict_from_distances(
    train: Sequence[LogRecord], distances: np.ndarray
) -> list[PredictionOutcome]:
    """Nearest-neighbour outcome for each row of a (queries, len(train))
    distance array whose columns follow the order of train.

    Each row picks the basket of its smallest distance; ties resolve to the
    lowest column, that is the lowest training index.
    """
    _check_train(train)
    distances = np.asarray(distances, dtype=np.float64)
    if distances.ndim != 2 or distances.shape[1] != len(train):
        raise InvalidInputError(
            f"distances must have shape (queries, {len(train)}), got {distances.shape}"
        )
    if np.isnan(distances).any():
        raise InvalidInputError("distances hold pairs that were not aligned")
    # argmin keeps the first, lowest-index minimum of each row.
    nearest = distances.argmin(axis=1)
    return [
        PredictionOutcome(train[i].basket, train[i].id, float(distances[qi, i]))
        for qi, i in enumerate(nearest.tolist())
    ]


def extract_features(scan: PointCloud) -> LogFeatures:
    """Measure shape descriptors of a scan, independent of its pose.

    The log axis is the principal direction of the point distribution.
    Length is the extent along the axis; each end diameter is twice the
    largest radial offset within the 5%-length slab at that end; volume is
    accumulated over 100 axial slices from the convex-hull area of the
    points projected across the axis. The hulls of all slices are found in
    one batched pass (_slice_hulls). A slice that pass cannot certify, such
    as a sliver-thin one, gets the area of its exact hull (_hull_corners),
    or the circle of the slice's largest radial offset when that hull has
    fewer than 3 corners.
    """
    if len(scan) < _FEATURE_MIN_POINTS:
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

    _slice_hulls solves all slices at once. A slice it does not certify
    gets its exact hull from _hull_corners, and that hull's shoelace area
    in centroid-relative coordinates; a slice whose exact hull has fewer
    than 3 corners (all its points collinear or coincident, or fewer than
    3 of them) gets the circle of its largest radial offset instead.
    """
    counts = np.bincount(bins, minlength=slices)
    _, areas, certified = _slice_hulls(plane, bins, slices)
    largest = np.zeros(slices)
    np.maximum.at(largest, bins, radial)
    for i in np.flatnonzero((counts > 0) & ~certified).tolist():
        points = plane[bins == i]
        corners = _hull_corners(points)
        if len(corners) < 3:
            areas[i] = math.pi * float(largest[i]) ** 2
            continue
        dx, dy = (points[corners] - points.mean(axis=0)).T
        dx_next, dy_next = np.roll(dx, -1), np.roll(dy, -1)
        areas[i] = 0.5 * math.fsum((dx * dy_next - dx_next * dy).tolist())
    return areas


def _hull_corners(points: np.ndarray) -> np.ndarray:
    """Row indices of the corners of the convex hull of an (m, 2) array,
    counter-clockwise from its lexicographically smallest point. A point on
    an edge is not a corner, so collinear or coincident points give at most 2.

    Andrew's monotone chain over the unique points in lexicographic order.
    The lower chain skips the points surely above the chord from the first
    point to the last, and the upper chain those surely below it. Every turn
    is decided exactly: by its float determinant when that clears
    _TURN_BOUND, else in integers (_as_integers).
    """
    order = np.lexsort((points[:, 1], points[:, 0]))
    ordered = points[order]
    unique = np.ones(len(order), dtype=bool)
    unique[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    order = order[unique]
    m = len(order)
    if m < 3:
        return order
    x, y = points[order, 0], points[order, 1]
    # Each point's turn from the chord, positive above it, and its bound.
    chord_left = (x[-1] - x[0]) * (y - y[0])
    chord_right = (y[-1] - y[0]) * (x - x[0])
    side = (chord_left - chord_right)[1:-1]
    slack = (_TURN_BOUND * (np.abs(chord_left) + np.abs(chord_right)) + _TURN_FLOOR)[1:-1]
    inner = np.arange(1, m - 1)
    lower = [0, *inner[~(side > slack)].tolist(), m - 1]
    upper = [m - 1, *inner[~(side < -slack)][::-1].tolist(), 0]
    xs, ys = x.tolist(), y.tolist()
    exact: list[list[int]] = []  # integer xs and ys, made at the first close call

    def chain(seq: list[int]) -> list[int]:
        # Keep only strict left turns; the chain's last point starts the next.
        out: list[int] = []
        for b in seq:
            bx, by = xs[b], ys[b]
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                ox, oy = xs[o], ys[o]
                left = (xs[a] - ox) * (by - oy)
                right = (ys[a] - oy) * (bx - ox)
                turn = left - right
                bound = _TURN_BOUND * (abs(left) + abs(right)) + _TURN_FLOOR
                if turn > bound:
                    break
                if not turn < -bound:  # too close to call in floats (or not finite)
                    if not exact:
                        exact.extend((_as_integers(xs), _as_integers(ys)))
                    ix, iy = exact
                    if (ix[a] - ix[o]) * (iy[b] - iy[o]) - (iy[a] - iy[o]) * (ix[b] - ix[o]) > 0:
                        break
                out.pop()
            out.append(b)
        return out[:-1]

    return order[chain(lower) + chain(upper)]


def _as_integers(values: list[float]) -> list[int]:
    """The floats times one common power of two, as exact integers. Turn
    determinants are bilinear in x and y differences, so scaling each axis
    keeps their signs."""
    ratios = [value.as_integer_ratio() for value in values]
    shift = max(den.bit_length() for _, den in ratios)
    return [num << (shift - den.bit_length()) for num, den in ratios]


def _slice_hulls(
    plane: np.ndarray, bins: np.ndarray, slices: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Convex hulls of the points of every slice in one pass, after Graham's
    angular-sort scan. Returns the corner indices into plane, grouped by
    slice and counter-clockwise within it; each slice's area; and whether
    each slice's hull is certified.

    The points of each slice are sorted by angle around the slice centroid,
    and only the farthest point at each exact angle is kept. Then every kept
    point whose turn from its predecessor to its successor (cyclically,
    within its slice) is not strictly left is dropped, all at once, until
    none is. The centroid of a slice of positive area is interior to its
    hull, so with exact angles what remains is the hull's corners, in
    order; the area is their shoelace sum in centroid-relative coordinates.

    Rounded angles can misorder points that share a ray from the centroid,
    so the result is checked, not trusted. A slice is certified when it
    keeps at least 3 corners, its area exceeds _FLAT_HULL times its largest
    squared centroid distance, the centroid lies strictly inside every
    edge, and no point lies outside the edge of its angular sector by more
    than _HULL_SLACK of the slice's area (in twice-triangle-area units). A
    convex polygon of the slice's own points that contains them all is
    their hull.
    """
    counts = np.bincount(bins, minlength=slices)
    x, y = plane[:, 0], plane[:, 1]
    div = np.maximum(counts, 1)
    dx = x - (np.bincount(bins, weights=x, minlength=slices) / div)[bins]
    dy = y - (np.bincount(bins, weights=y, minlength=slices) / div)[bins]
    angle = np.arctan2(dy, dx)
    angle[angle == -np.pi] = np.pi  # one angle for the direction (-1, 0)
    dist2 = dx * dx + dy * dy
    order = np.lexsort((-dist2, angle, bins))
    kept = np.ones(len(order), dtype=bool)
    kept[1:] = (bins[order[1:]] != bins[order[:-1]]) | (angle[order[1:]] != angle[order[:-1]])
    while True:
        hull = order[kept]
        corners = np.bincount(bins[hull], minlength=slices)
        head = (np.cumsum(corners) - corners)[bins[hull]]
        tail = head + corners[bins[hull]] - 1
        pos = np.arange(len(hull))
        prev = hull[np.where(pos == head, tail, pos - 1)]
        succ = hull[np.where(pos == tail, head, pos + 1)]
        # Turns in the plane's own coordinates, where exact collinearity
        # (lattice data) stays exact.
        turn = (x[hull] - x[prev]) * (y[succ] - y[hull]) - (y[hull] - y[prev]) * (x[succ] - x[hull])
        if (turn > 0.0).all():
            break
        kept[np.flatnonzero(kept)[turn <= 0.0]] = False

    fan = dx[hull] * dy[succ] - dx[succ] * dy[hull]
    areas = 0.5 * np.bincount(bins[hull], weights=fan, minlength=slices)
    reach = np.zeros(slices)
    np.maximum.at(reach, bins, dist2)
    certified = (corners >= 3) & (areas > _FLAT_HULL * reach)
    certified &= np.bincount(bins[hull], weights=fan <= 0.0, minlength=slices) == 0
    # The sector edge of each point in sorted order starts at the last
    # corner at or before it in its slice, else at the slice's last corner.
    in_order = bins[order]
    first = (np.cumsum(corners) - corners)[in_order]
    edge = np.cumsum(kept) - 1
    edge = np.where(edge < first, first + corners[in_order] - 1, edge)
    has_edge = corners[in_order] > 0
    p, a, b = order[has_edge], hull[edge[has_edge]], succ[edge[has_edge]]
    side = (x[b] - x[a]) * (y[p] - y[a]) - (y[b] - y[a]) * (x[p] - x[a])
    outside = side < -_HULL_SLACK * areas[bins[p]]
    certified &= np.bincount(bins[p], weights=outside, minlength=slices) == 0
    return hull, areas, certified


def knn_feature_predict(
    train: Sequence[LogRecord],
    train_features: Sequence[LogFeatures],
    query_features: Sequence[LogFeatures],
    k: int,
) -> list[PredictionOutcome]:
    """k-nearest-neighbour basket predictions in standardized feature space,
    one per query, in query order.

    train_features[i] holds the features of train[i], as the columns of a
    distance array follow train in nn_predict_from_distances. Features are
    z-scored with statistics from the training features (constant features
    are ignored); each prediction is the half-up-rounded mean of the k
    nearest baskets. Ties at the k-th distance keep the lowest training
    index. The reported neighbour is the single nearest record and its
    distance is in standardized feature space, not mm^2.
    """
    _check_train(train)
    for name, features in (("train_features", train_features), ("query_features", query_features)):
        if isinstance(features, LogFeatures) or not all(isinstance(f, LogFeatures) for f in features):
            raise InvalidInputError(f"{name} must be a sequence of LogFeatures")
    if len(train_features) != len(train):
        raise InvalidInputError(f"{len(train_features)} train_features for {len(train)} training records")
    if k < 1 or k > len(train):
        raise InvalidInputError(f"k must be in [1, {len(train)}], got {k}")

    table = np.stack([features.as_array() for features in train_features])
    mu = table.mean(axis=0)
    sd = table.std(axis=0)
    active = sd > 0.0
    mu, sd = mu[active], sd[active]
    z_train = (table[:, active] - mu) / sd
    outcomes = []
    for features in query_features:
        z_query = (features.as_array()[active] - mu) / sd
        dist = np.sqrt(((z_train - z_query) ** 2).sum(axis=1))
        order = np.argsort(dist, kind="stable")
        stacked = np.stack([train[i].basket.as_array() for i in order[:k]])
        predicted = ProductBasket(tuple(_round_half_up(stacked.mean(axis=0)).tolist()))
        nearest = int(order[0])
        outcomes.append(PredictionOutcome(predicted, train[nearest].id, float(dist[nearest])))
    return outcomes
