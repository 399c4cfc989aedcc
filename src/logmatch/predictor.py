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
from typing import Sequence

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

    Every (query, training scan) alignment runs in the lockstep engine, with
    one nearest-neighbour index per training scan shared by all queries.
    With jobs > 1 the training scans are dealt round-robin to up to jobs
    worker processes, each aligning every query onto its share. A pair's
    distance does not depend on the batch it runs in, and the per-query
    reduction is a lexicographic (distance, index) minimum, so results do
    not depend on the worker count.
    """
    _check_train(train)
    if jobs < 1:
        raise InvalidInputError(f"jobs must be >= 1, got {jobs!r}")
    if cfg is None:
        cfg = IcpConfig()
    if not queries:
        return []
    models = [rec.scan for rec in train]
    workers = min(jobs, len(models))

    if workers > 1:
        shares = [list(range(w, len(models), workers)) for w in range(workers)]
        distances = np.empty((len(queries), len(models)))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_share_distances, [models[i] for i in share], list(queries), cfg)
                for share in shares
            ]
            for share, future in zip(shares, futures):
                distances[:, share] = future.result()
    else:
        distances = _share_distances(models, queries, cfg)

    # argmin keeps the first, lowest-index minimum of each row.
    nearest = distances.argmin(axis=1)
    return [
        PredictionOutcome(train[i].basket, train[i].id, float(distances[qi, i]))
        for qi, i in enumerate(nearest.tolist())
    ]


def _share_distances(
    models: Sequence[PointCloud], queries: Sequence[PointCloud], cfg: IcpConfig
) -> np.ndarray:
    """ICP distance of every query onto every model: (queries, models)."""
    indices = [build_index(model) for model in models]
    pairs = [(qi, mi) for mi in range(len(models)) for qi in range(len(queries))]
    run = _align_pairs([query.xyz for query in queries], indices, pairs, cfg)
    return run.mse.reshape(len(models), len(queries)).T


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
