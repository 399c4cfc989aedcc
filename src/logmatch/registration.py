"""Closed-form rigid registration from correspondences and the ICP loop.

Given fixed correspondences, the least-squares rotation is recovered in
closed form: build the cross-covariance of the paired (centered) points,
assemble a symmetric 4x4 matrix from it, and take the unit eigenvector of
the largest eigenvalue as the rotation quaternion. The translation then
maps the moving centroid onto the matched-model centroid. Iterating
matching and registration yields ICP, whose mean-square error is
non-increasing and converges to a local minimum.

Conventions: the moving cloud P is aligned onto the model cloud X; every
registration is an absolute transform of the original moving points, not an
increment on the previous iteration.

One engine runs every alignment. It moves a batch of (moving, model) pairs
forward in lockstep. Each iteration first checks every stacked point's
neighbour certificate: the point keeps the nearest model points of its last
tree query, and the triangle inequality can prove that the nearest of them
is still the exact, unique nearest model point. The points without a
certificate go to one exact nearest-neighbour query per model. Either way a
point gets the match, and the squared distance, that a fresh query gives.
The iteration then forms every pair's centroids and cross-covariance as
segment sums over its own points, and solves all 4x4 eigenproblems with one
call of LAPACK's symmetric eigensolver (numpy.linalg.eigh) over the stack,
which factors each matrix on its own. Nothing a pair computes reads another
pair's data, so its result is bit-identical alone or in any batch. The
single-pair functions are batches of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .correspondence import _TIE_SLACK, CorrespondenceSet, SpatialIndex, _squared_distances, build_index
from .errors import InvalidInputError, NumericalError
from .geometry import PointCloud, RigidTransform, UnitQuaternion, _rotation_matrix

_SYMMETRY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    """A fitted transform and the mean-square error (mm^2) it achieves."""

    transform: RigidTransform
    mse: float

    def __post_init__(self) -> None:
        value = float(self.mse)
        if not (math.isfinite(value) and value >= 0.0):
            raise InvalidInputError(f"mse must be finite and non-negative, got {value!r}")
        object.__setattr__(self, "mse", value)


@dataclass(frozen=True, eq=False)
class IcpConfig:
    """Knobs of the iterative alignment.

    tau is the convergence threshold on the drop in mean-square error
    between consecutive iterations (mm^2). Every alignment starts from the
    identity. pre_align optionally translates the moving cloud so both
    centroids coincide before iterating; it is off by default, so the plain
    algorithm runs from the clouds as given and is sensitive to their
    placement. stride > 1 subsamples the moving cloud (every stride-th
    point) as a performance escape hatch.
    """

    tau: float = 1e-8
    max_iterations: int = 50
    pre_align: bool = False
    stride: int = 1

    def __post_init__(self) -> None:
        if not (math.isfinite(self.tau) and self.tau > 0.0):
            raise InvalidInputError(f"tau must be positive, got {self.tau!r}")
        if self.max_iterations < 1:
            raise InvalidInputError(f"max_iterations must be >= 1, got {self.max_iterations!r}")
        if self.stride < 1:
            raise InvalidInputError(f"stride must be >= 1, got {self.stride!r}")


class TerminalReason(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True, eq=False)
class IcpIteration:
    """One iteration of the trace: index k, the error d_k, the transform."""

    index: int
    mse: float
    transform: RigidTransform


@dataclass(frozen=True, eq=False)
class IcpTrace:
    """Full per-iteration history. The error sequence never increases."""

    iterations: tuple[IcpIteration, ...]
    terminal_reason: TerminalReason

    def __post_init__(self) -> None:
        if not self.iterations:
            raise InvalidInputError("trace must contain at least one iteration")
        previous = None
        for entry in self.iterations:
            if previous is not None and entry.mse > previous + 1e-12:
                raise NumericalError(
                    f"mean-square error increased at iteration {entry.index}: {previous!r} -> {entry.mse!r}"
                )
            previous = entry.mse

    def errors(self) -> np.ndarray:
        return np.array([entry.mse for entry in self.iterations], dtype=np.float64)


def cross_covariance(moving: PointCloud, model: PointCloud, pairs: CorrespondenceSet) -> np.ndarray:
    """Cross-covariance of the paired points, (1/n) sum (p - mu_p)(x - mu_x)^T.

    mu_p is the centroid of the moving points, mu_x the centroid of their
    matched model points counted with multiplicity.
    """
    _check_pairs(moving, model, pairs)
    stack = _Stack([moving.xyz])
    sigma, _ = _cross_covariances(stack, _columns([model.xyz[pairs.target_indices]]))
    return sigma[0]


def _check_pairs(moving: PointCloud, model: PointCloud, pairs: CorrespondenceSet) -> None:
    if len(pairs) != len(moving):
        raise InvalidInputError(
            f"correspondences must cover the moving cloud: {len(pairs)} pairs for {len(moving)} points"
        )
    if pairs.target_indices.max() >= len(model) or pairs.target_indices.min() < 0:
        raise InvalidInputError("correspondence target index out of range for the model cloud")


def quaternion_alignment_matrix(sigma: np.ndarray) -> np.ndarray:
    """Symmetric 4x4 matrix whose top eigenvector is the optimal rotation.

    Layout: top-left scalar trace(sigma); first row and column completed by
    the vector (A12, A20, A01) of the antisymmetric part A = sigma - sigma^T
    (0-based indices); lower-right 3x3 block sigma + sigma^T - trace(sigma) I.
    """
    s = np.asarray(sigma, dtype=np.float64)
    if s.shape != (3, 3):
        raise InvalidInputError(f"expected a 3x3 matrix, got shape {s.shape}")
    if not np.isfinite(s).all():
        raise InvalidInputError("cross-covariance contains non-finite entries")
    return _alignment_matrices(s[None])[0]


def _alignment_matrices(sigma: np.ndarray) -> np.ndarray:
    """quaternion_alignment_matrix over a (B, 3, 3) stack: (B, 4, 4)."""
    trace = sigma[:, 0, 0] + sigma[:, 1, 1] + sigma[:, 2, 2]
    delta = np.stack(
        [sigma[:, 1, 2] - sigma[:, 2, 1], sigma[:, 2, 0] - sigma[:, 0, 2], sigma[:, 0, 1] - sigma[:, 1, 0]],
        axis=1,
    )
    q = np.empty((sigma.shape[0], 4, 4), dtype=np.float64)
    q[:, 0, 0] = trace
    q[:, 0, 1:] = delta
    q[:, 1:, 0] = delta
    q[:, 1:, 1:] = sigma + sigma.transpose(0, 2, 1) - trace[:, None, None] * np.eye(3)
    return q


def _max_eigenpairs(matrices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue and unit eigenvector of each matrix of a (B, 4, 4)
    stack, from one eigh call; equal maxima keep the lowest-index one."""
    try:
        values, vectors = np.linalg.eigh(matrices)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"4x4 eigensolve failed: {exc}") from exc
    best = values.argmax(axis=1)
    rows = np.arange(values.shape[0])
    return values[rows, best], vectors[rows, :, best]


def max_eigenvector(matrix: np.ndarray) -> tuple[float, np.ndarray]:
    """Largest eigenvalue of a symmetric 4x4 matrix and a unit eigenvector.

    The input must be symmetric within 1e-9 (scaled by its magnitude).
    Degenerate spectra are fine; any maximizing eigenvector is returned.
    """
    m = np.asarray(matrix, dtype=np.float64)
    if m.shape != (4, 4):
        raise InvalidInputError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix contains non-finite entries")
    magnitude = float(np.abs(m).max())
    if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * max(1.0, magnitude):
        raise InvalidInputError("matrix is not symmetric within tolerance")
    values, vectors = _max_eigenpairs(m[None])
    return float(values[0]), vectors[0]


# Stacked moving points per lockstep batch. The engine holds about 230 bytes
# per stacked point, so this bounds its working set near 7.5 MB; a pair with
# more points runs in a batch of its own.
_BATCH_POINTS = 1 << 15


def _columns(clouds: Sequence[np.ndarray]) -> np.ndarray:
    """Stack (n_i, 3) clouds end to end as a (3, sum n_i) array of columns."""
    return np.concatenate([np.asarray(c, dtype=np.float64).T for c in clouds], axis=1)


class _Stack:
    """Moving clouds stacked end to end, one consecutive run per pair.

    Per-pair sums are segment sums over those runs (np.add.reduceat), whose
    value depends only on the run's own points, never on its neighbours.
    """

    def __init__(self, clouds: Sequence[np.ndarray]):
        self.points = _columns(clouds)
        self.counts = np.array([len(c) for c in clouds], dtype=np.intp)
        self._update_starts()
        self.centroids = _segment_means(self.points, self.starts, self.counts)
        self.centred = self.points - np.repeat(self.centroids, self.counts, axis=1)

    def _update_starts(self) -> None:
        self.starts = np.concatenate([[0], np.cumsum(self.counts)[:-1]]).astype(np.intp)

    def keep(self, mask: np.ndarray) -> np.ndarray:
        """Drop the pairs where mask is False; returns the kept point rows."""
        rows = np.repeat(mask, self.counts)
        self.points = self.points[:, rows]
        self.centred = self.centred[:, rows]
        self.centroids = self.centroids[:, mask]
        self.counts = self.counts[mask]
        self._update_starts()
        return rows


def _segment_means(columns: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-pair means of every row of a (k, N) array: (k, B)."""
    return np.add.reduceat(columns, starts, axis=1) / counts


# Model points each stacked point keeps from its last k-d tree query. With 4,
# 72% of predict-mixed's point-queries are certified; 2 certifies about half
# and runs slower, while 5 to 8 certify up to 83% and run no faster.
_CACHE_NEIGHBOURS = 4
# False sends every stacked point to the tree at every iteration; tests use
# it to compare the engine with and without certificates.
_CERTIFY = True
# Rounding margins of the certificate, derived in _NeighbourCache.
_REL_MARGIN = 1e-12
_ABS_MARGIN = 1e-13
_UNIQUE = (1.0 + _TIE_SLACK) ** 2


class _NeighbourCache:
    """Each stacked point's last exact k-d tree query, and the certificate
    that tells when that query still holds at the point's new placement.

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
    way. The rows follow _Stack.keep.

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
        # The used models' points end to end. The last row, at infinity,
        # stands in for the missing neighbours of a model of fewer than K.
        self.rows = np.concatenate([models[j].points for j in used] + [np.full((1, 3), np.inf)])
        self.columns = np.ascontiguousarray(self.rows.T)
        self.anchors = np.empty((3, points))
        # The narrowest integer type that holds every pool id.
        self.ids = np.empty((_CACHE_NEIGHBOURS, points), dtype=np.min_scalar_type(len(self.rows)))
        self.limits = np.empty(points)

    def keep(self, rows: np.ndarray) -> None:
        """Keep the entries of the stacked point rows that _Stack.keep kept."""
        self.anchors = self.anchors[:, rows]
        self.ids = self.ids[:, rows]
        self.limits = self.limits[rows]

    def match(
        self, placed: np.ndarray, starts: np.ndarray, model_of: np.ndarray, certify: bool, matched: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Fill matched (3, N) with the exact nearest model point of every
        stacked point placed at placed (N, 3), pairs starting at starts and
        sorted by model_of. Uncertified points, or all of them unless
        certify, go to their model's tree, one query per model. Returns the
        squared distances (N,) and the points each pair sent to a tree (B,).
        """
        points = len(placed)
        if certify:
            certified, nearest = self._certify(placed)
            miss = np.flatnonzero(~certified)
        else:
            nearest, miss = np.empty(points, dtype=self.ids.dtype), np.arange(points)
        cuts = np.searchsorted(miss, np.append(starts, points)).tolist()
        firsts = np.flatnonzero(np.diff(model_of, prepend=-1)).tolist()
        for first, end in zip(firsts, firsts[1:] + [len(model_of)]):
            rows = miss[cuts[first]:cuts[end]]
            if rows.size:
                nearest[rows] = self._query(int(model_of[first]), rows, placed[rows])
        targets = self.rows[nearest]
        np.copyto(matched, targets.T)
        return _squared_distances(placed, targets), np.diff(cuts)

    def _certify(self, placed: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The certified mask (N,) of the placements (N, 3) and the pool id
        of each certified point's nearest model point (arbitrary elsewhere).
        One pass over the stack, one kept candidate at a time, with (N,)
        temporaries."""
        axes = [placed[:, a] for a in range(3)]
        gap = np.empty(len(placed))
        best = self._squared_gaps(self.ids[0], axes, np.empty(len(placed)), gap)
        best_id = self.ids[0].copy()
        second = np.full(len(placed), np.inf)
        candidate = np.empty(len(placed))
        for c in range(1, _CACHE_NEIGHBOURS):
            self._squared_gaps(self.ids[c], axes, candidate, gap)
            closer = candidate < best
            np.minimum(second, candidate, out=second)
            np.copyto(second, best, where=closer)
            np.copyto(best, candidate, where=closer)
            np.copyto(best_id, self.ids[c], where=closer)
        unique = second > best * _UNIQUE
        moved = candidate
        np.subtract(axes[0], self.anchors[0], out=moved)
        moved *= moved
        for a in (1, 2):
            np.subtract(axes[a], self.anchors[a], out=gap)
            gap *= gap
            moved += gap
        np.sqrt(best, out=best)
        best += np.sqrt(moved, out=moved)
        certified = best < self.limits
        certified &= unique
        return certified, best_id

    def _squared_gaps(
        self, candidates: np.ndarray, axes: list[np.ndarray], out: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """Squared distance from each placement, given as its three axis
        columns, to its candidate pool row, written into out."""
        np.take(self.columns[0], candidates, out=out, mode="clip")
        out -= axes[0]
        out *= out
        for a in (1, 2):
            np.take(self.columns[a], candidates, out=scratch, mode="clip")
            scratch -= axes[a]
            scratch *= scratch
            out += scratch
        return out

    def _query(self, j: int, rows: np.ndarray, placed: np.ndarray) -> np.ndarray:
        """Send the stacked points at rows, placed at placed (m, 3), to the
        tree of models[j], keep each row's query, and return the pool id of
        each row's nearest model point."""
        index, k, offset = self.models[j], _CACHE_NEIGHBOURS, self.offsets[j]
        nearest, dist, nbr = index._nearest(placed, k)
        self.anchors[:, rows] = placed.T
        if len(index) <= k:
            self.ids[:, rows] = np.where(nbr < len(index), nbr + offset, len(self.rows) - 1).T
            self.limits[rows] = np.inf
        else:
            self.ids[:, rows] = (nbr + offset).T
            scale = np.abs(placed).max(axis=1) + self.scales[j]
            self.limits[rows] = dist[:, k - 1] * (1.0 - _REL_MARGIN) - _ABS_MARGIN * scale
        return nearest + offset


def _cross_covariances(stack: _Stack, matched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair cross-covariances (B, 3, 3) of the stacked moving points
    against their matched model columns (3, N), and the matched centroids
    (3, B). Builds one (N,) temporary at a time."""
    starts, counts = stack.starts, stack.counts
    mu_x = _segment_means(matched, starts, counts)
    sigma = np.empty((starts.shape[0], 3, 3), dtype=np.float64)
    for b in range(3):
        xc = matched[b] - np.repeat(mu_x[b], counts)
        for a in range(3):
            sigma[:, a, b] = np.add.reduceat(stack.centred[a] * xc, starts)
    return sigma / counts[:, None, None], mu_x


def _fit(stack: _Stack, matched: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form least-squares rigid fit of every pair of the stack onto
    its matched model columns: (unit quaternions (B, 4), rotations
    (B, 3, 3), translations (B, 3))."""
    sigma, mu_x = _cross_covariances(stack, matched)
    _, quats = _max_eigenpairs(_alignment_matrices(sigma))
    rot = _rotation_matrix(*quats.T).transpose(2, 0, 1)
    mu_p = stack.centroids
    trans = (mu_x - (rot[:, :, 0].T * mu_p[0] + rot[:, :, 1].T * mu_p[1] + rot[:, :, 2].T * mu_p[2])).T
    return quats, rot, trans


def _place(stack: _Stack, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """R p + T for every stacked point under its pair's transform: (N, 3)."""
    p, counts = stack.points, stack.counts
    placed = np.empty((p.shape[1], 3), dtype=np.float64)
    for a in range(3):
        col = p[0] * np.repeat(rot[:, a, 0], counts)
        col += p[1] * np.repeat(rot[:, a, 1], counts)
        col += p[2] * np.repeat(rot[:, a, 2], counts)
        col += np.repeat(trans[:, a], counts)
        placed[:, a] = col
    return placed


def _mean_residuals(stack: _Stack, matched: np.ndarray, placed: np.ndarray) -> np.ndarray:
    """Per-pair mean of ||x - placed||^2 over the stacked points: (B,)."""
    d = matched[0] - placed[:, 0]
    sq = d * d
    for a in (1, 2):
        d = matched[a] - placed[:, a]
        sq += d * d
    return np.add.reduceat(sq, stack.starts) / stack.counts


def compute_registration(
    moving: PointCloud, model: PointCloud, pairs: CorrespondenceSet
) -> RegistrationResult:
    """Least-squares rigid transform for fixed correspondences.

    Rotation comes from the largest eigenvector of the quaternion alignment
    matrix; translation maps the moving centroid onto the matched-model
    centroid. The reported mse is the residual of the given pairs at the
    fitted transform. Degenerate geometry (single point, collinear cloud)
    leaves the rotation underdetermined; whichever maximizing eigenvector
    the solver finds is accepted.
    """
    _check_pairs(moving, model, pairs)
    stack = _Stack([moving.xyz])
    matched = _columns([model.xyz[pairs.target_indices]])
    quats, rot, trans = _fit(stack, matched)
    error = _mean_residuals(stack, matched, _place(stack, rot, trans))
    return RegistrationResult(RigidTransform(UnitQuaternion(*quats[0]), trans[0]), float(error[0]))


@dataclass(frozen=True, eq=False)
class _Alignments:
    """Per-pair outcome of the engine, in the order the pairs were given.

    queried counts the moving points each pair sent to the k-d tree, over
    all its iterations. history, when recorded, holds for each pair its
    (mse, quaternion, translation) after every iteration.
    """

    mse: np.ndarray
    quaternions: np.ndarray
    translations: np.ndarray
    iterations: np.ndarray
    converged: np.ndarray
    queried: np.ndarray
    history: list[list[tuple[float, np.ndarray, np.ndarray]]] | None


def _align_pairs(
    moving: Sequence[np.ndarray],
    models: Sequence[SpatialIndex],
    pairs: Sequence[tuple[int, int]],
    cfg: IcpConfig,
    record: bool = False,
) -> _Alignments:
    """Align moving[i] onto models[j] for every (i, j) in pairs, in lockstep.

    Pairs are grouped by model and cut into batches of at most
    _BATCH_POINTS stacked points. Within a batch, every iteration checks
    each stacked point's neighbour certificate (_NeighbourCache), makes one
    query per model over the placements of its uncertified points, fits
    all pairs at once, and retires each pair as soon as it converges or
    reaches cfg.max_iterations. Every per-pair quantity is computed from
    that pair's own points, so each result is bit-identical to aligning the
    pair alone, whatever batch or order it runs in.
    """
    n = len(pairs)
    out = _Alignments(
        mse=np.empty(n),
        quaternions=np.empty((n, 4)),
        translations=np.empty((n, 3)),
        iterations=np.empty(n, dtype=np.int64),
        converged=np.empty(n, dtype=bool),
        queried=np.empty(n, dtype=np.int64),
        history=[[] for _ in range(n)] if record else None,
    )
    strided = [np.asarray(cloud, dtype=np.float64)[:: cfg.stride] for cloud in moving]
    order = sorted(range(n), key=lambda k: pairs[k][1])
    batch: list[int] = []
    size = 0
    for k in order:
        points = len(strided[pairs[k][0]])
        if batch and size + points > _BATCH_POINTS:
            _lockstep(strided, models, pairs, batch, cfg, out)
            batch, size = [], 0
        batch.append(k)
        size += points
    if batch:
        _lockstep(strided, models, pairs, batch, cfg, out)
    return out


def _lockstep(
    strided: Sequence[np.ndarray],
    models: Sequence[SpatialIndex],
    pairs: Sequence[tuple[int, int]],
    batch: list[int],
    cfg: IcpConfig,
    out: _Alignments,
) -> None:
    """Run one batch of pairs, sorted by model, to completion into out."""
    ids = np.array(batch, dtype=np.intp)
    model_of = np.array([pairs[k][1] for k in batch], dtype=np.intp)
    stack = _Stack([strided[pairs[k][0]] for k in batch])

    rot0 = np.broadcast_to(np.eye(3), (len(batch), 3, 3))
    trans = np.zeros((len(batch), 3))
    current = _place(stack, rot0, trans)
    if cfg.pre_align:
        centres = np.array([models[j].points.mean(axis=0) for j in model_of.tolist()])
        placed_centres = _segment_means(np.ascontiguousarray(current.T), stack.starts, stack.counts)
        trans = trans + (centres - placed_centres.T)
        current = _place(stack, rot0, trans)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (len(batch), 1))
    previous = np.full(len(batch), np.inf)
    queried = np.zeros(len(batch), dtype=np.int64)
    matched = np.empty_like(stack.points)
    cache = _NeighbourCache(models, np.unique(model_of).tolist(), stack.points.shape[1])

    for iteration in range(1, cfg.max_iterations + 1):
        squared, sent = cache.match(current, stack.starts, model_of, _CERTIFY and iteration > 1, matched)
        queried += sent
        incumbent_error = np.add.reduceat(squared, stack.starts) / stack.counts

        fit_quats, rot, fit_trans = _fit(stack, matched)
        placed = _place(stack, rot, fit_trans)
        fitted_error = _mean_residuals(stack, matched, placed)
        # The closed form cannot worsen the objective; keep the incumbent
        # transform when rounding at the convergence plateau says otherwise.
        accept = fitted_error <= incumbent_error
        error = np.where(accept, fitted_error, incumbent_error)
        quats[accept] = fit_quats[accept]
        trans[accept] = fit_trans[accept]
        if accept.all():
            current = placed
        else:
            rows = np.repeat(accept, stack.counts)
            current[rows] = placed[rows]
        if out.history is not None:
            for k, e, q, t in zip(ids.tolist(), error.tolist(), quats, trans):
                out.history[k].append((e, q.copy(), t.copy()))

        converged = previous - error < cfg.tau
        done = converged | (iteration == cfg.max_iterations)
        previous = error
        if not done.any():
            continue
        finished = ids[done]
        out.mse[finished] = error[done]
        out.quaternions[finished] = quats[done]
        out.translations[finished] = trans[done]
        out.iterations[finished] = iteration
        out.converged[finished] = converged[done]
        out.queried[finished] = queried[done]
        keep = ~done
        if not keep.any():
            return
        rows = stack.keep(keep)
        cache.keep(rows)
        current = current[rows]
        matched = np.empty_like(stack.points)
        ids, model_of = ids[keep], model_of[keep]
        quats, trans, previous, queried = quats[keep], trans[keep], previous[keep], queried[keep]


def icp_align(
    moving: PointCloud,
    model: PointCloud,
    cfg: IcpConfig | None = None,
) -> tuple[RegistrationResult, IcpTrace]:
    """Iteratively align the moving cloud onto the model cloud.

    Each iteration matches the currently-placed moving points to their
    closest model points, refits the transform of the *original* moving
    cloud against those matches in closed form, and re-places the cloud.
    Iteration stops when the drop in mean-square error falls strictly below
    cfg.tau, or after cfg.max_iterations registrations. The first error has
    no predecessor, so convergence is checked from the second iteration on.
    This is the lockstep engine on a batch of one pair.
    """
    if cfg is None:
        cfg = IcpConfig()
    run = _align_pairs([moving.xyz], [build_index(model)], [(0, 0)], cfg, record=True)
    entries = tuple(
        IcpIteration(k, e, RigidTransform(UnitQuaternion(*q), t))
        for k, (e, q, t) in enumerate(run.history[0])
    )
    reason = TerminalReason.CONVERGED if run.converged[0] else TerminalReason.MAX_ITERATIONS
    trace = IcpTrace(entries, reason)
    final = entries[-1]
    return RegistrationResult(final.transform, final.mse), trace


def icp_distance(a: PointCloud, b: PointCloud, cfg: IcpConfig | None = None) -> float:
    """Converged mean-square error (mm^2) of aligning a onto b.

    Directional: a is the moving cloud. Rigid only, so shapes differing by
    scale keep a strictly positive distance.
    """
    result, _ = icp_align(a, b, cfg)
    return result.mse
