"""Product-basket prediction for unseen log scans.

The primary predictor is nearest-neighbour under the ICP distance: align
the query scan onto every training scan, and return the basket of the
training log with the smallest converged mean-square error. Two baselines
are included: the constant rounded-mean basket, and k-nearest-neighbour in
a small standardized feature space derived from the scan geometry.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .correspondence import build_index
from .errors import InvalidInputError
from .geometry import PointCloud
from .registration import IcpConfig, _align_pairs

_FEATURE_MIN_POINTS = 10
_END_SLAB_FRACTION = 0.05
_VOLUME_SLICES = 100


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
    """One dataset row: a scan, its product basket, optional features."""

    id: str
    scan: PointCloud
    basket: ProductBasket
    features: LogFeatures | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise InvalidInputError("log id must be a non-empty string")

    def with_features(self, features: LogFeatures) -> "LogRecord":
        return LogRecord(self.id, self.scan, self.basket, features)


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


def icp_nn_predict(
    train: Sequence[LogRecord], query: PointCloud, cfg: IcpConfig | None = None
) -> PredictionOutcome:
    """Basket of the training log closest to the query under the ICP distance.

    The query is always the moving cloud and each training scan the model.
    Ties at equal distance resolve to the lowest training index.
    """
    return icp_nn_predict_batch(train, [query], cfg)[0]


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
    order, to up to jobs worker processes of one pool. Each worker receives
    only its models and the moving scans paired with them, and aligns all of
    its pairs in one pass of the lockstep engine. A pair's distance does not
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
        with ProcessPoolExecutor(max_workers=workers) as pool:
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
    points projected across the axis (a circle of the slab's largest radius
    when the hull is degenerate).
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
    volume = 0.0
    for i in range(_VOLUME_SLICES):
        mask = bins == i
        count = int(mask.sum())
        if count == 0:
            continue
        area = None
        if count >= 3:
            try:
                area = float(ConvexHull(plane[mask]).volume)
            except QhullError:
                area = None
        if area is None:
            area = math.pi * float(radial[mask].max()) ** 2
        volume += area * thickness

    return LogFeatures(volume, length, wide, narrow, (wide - narrow) / length)


def knn_feature_predict(
    train: Sequence[LogRecord], query_features: LogFeatures, k: int
) -> PredictionOutcome:
    """k-nearest-neighbour basket prediction in standardized feature space.

    Features are z-scored with statistics from the training set (constant
    features are ignored); the prediction is the half-up-rounded mean of
    the k nearest baskets. Ties at the k-th distance keep the lowest
    training index. The reported neighbour is the single nearest record and
    its distance is in standardized feature space, not mm^2.
    """
    _check_train(train)
    if not isinstance(query_features, LogFeatures):
        raise InvalidInputError("query_features must be a LogFeatures")
    if k < 1 or k > len(train):
        raise InvalidInputError(f"k must be in [1, {len(train)}], got {k}")
    missing = [rec.id for rec in train if rec.features is None]
    if missing:
        raise InvalidInputError(f"training records lack features: {missing[:5]}")

    table = np.stack([rec.features.as_array() for rec in train])
    mu = table.mean(axis=0)
    sd = table.std(axis=0)
    active = sd > 0.0
    z_train = (table[:, active] - mu[active]) / sd[active]
    z_query = (query_features.as_array()[active] - mu[active]) / sd[active]
    dist = np.sqrt(((z_train - z_query) ** 2).sum(axis=1))

    order = np.argsort(dist, kind="stable")
    chosen = order[:k]
    stacked = np.stack([train[i].basket.as_array() for i in chosen])
    predicted = ProductBasket(tuple(_round_half_up(stacked.mean(axis=0)).tolist()))
    nearest = int(order[0])
    return PredictionOutcome(predicted, train[nearest].id, float(dist[nearest]))
