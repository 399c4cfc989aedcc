"""Closed-form rigid registration from correspondences and the ICP loop.

Given fixed correspondences, the least-squares rotation is recovered in
closed form: build the cross-covariance of the paired (centered) points,
assemble a symmetric 4x4 matrix from it, and take the unit eigenvector of
the largest eigenvalue as the rotation quaternion. The translation then
maps the moving centroid onto the matched-model centroid. Conventions: the
moving cloud P is aligned onto the model cloud X; every registration is an
absolute transform of the original moving points, not an increment on the
previous iteration.

One engine runs every alignment. It moves a batch of (moving, model) pairs
forward in lockstep, each stacked moving point a column of (3, N) arrays.
Each iteration takes every stacked point's exact nearest model point and
squared distance from the matcher of the correspondence module, which
skips most index queries but returns what a fresh query gives. One fit
step (_fit), shared with compute_registration, then fits every pair from
segment sums over its own points, with one call of LAPACK's symmetric
eigensolver (numpy.linalg.eigh) that factors each 4x4 matrix on its own,
places the pair's points and returns its mean squared residual. Nothing a
pair computes reads another pair's data, so its result is bit-identical
alone or in any batch; the single-pair functions are batches of one. The
batch API, icp_distance_matrix, can share its pairs among worker processes
of one pool: their models are dealt round-robin to the workers, each of
which runs the engine on its share. The pool modules load only then.

Iterating matching and fitting yields ICP, whose recorded mean-square error
never increases, exactly and not within a tolerance, until it converges to
a local minimum. Residuals and the matcher's distances are one evaluation
(geometry._squared_distances), averaged per pair by one segment mean. So
at the placement an iteration ends with, the next iteration's exact
matches are each no farther than the ones its error was measured with, a
sum of no larger terms in the same order is no larger, and each iteration
keeps the smaller of the fitted and the incumbent error.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Sequence

import numpy as np

from .correspondence import CorrespondenceSet, SpatialIndex, _NeighbourCache, _SCAN_MAX, build_index
from .errors import InvalidInputError, NumericalError, _array, _config, _flag, _instance, _integer, _items, _real
from .geometry import PointCloud, RigidTransform, UnitQuaternion, _rotation_matrix, _squared_distances

_SYMMETRY_TOL = 1e-9
# Pool workers are forked where the platform can fork, so that they inherit
# the parent's imports (scipy's k-d tree among them, when a model is too
# large for the linear scan); elsewhere they are spawned and import what
# they use. os.fork tells which without importing multiprocessing, whose
# modules load only when a pool starts.
_START_METHOD = "fork" if hasattr(os, "fork") else "spawn"


@dataclass(frozen=True, eq=False)
class RegistrationResult:
    """A fitted transform and the mean-square error (mm^2) it achieves."""

    transform: RigidTransform
    mse: float

    def __post_init__(self) -> None:
        _instance("transform", self.transform, RigidTransform)
        object.__setattr__(self, "mse", _real("mse", self.mse, 0.0))


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
        object.__setattr__(self, "tau", _real("tau", self.tau, 0.0, strict=True))
        object.__setattr__(self, "pre_align", _flag("pre_align", self.pre_align))
        for name in ("max_iterations", "stride"):
            object.__setattr__(self, name, _integer(name, getattr(self, name), 1))


class TerminalReason(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max_iterations"


@dataclass(frozen=True, eq=False)
class IcpIteration:
    """One iteration of the trace: index k, the error d_k, the transform."""

    index: int
    mse: float
    transform: RigidTransform

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _integer("index", self.index, 0))
        object.__setattr__(self, "mse", _real("mse", self.mse, 0.0))
        _instance("transform", self.transform, RigidTransform)


@dataclass(frozen=True, eq=False)
class IcpTrace:
    """Full per-iteration history. The error sequence never increases."""

    iterations: tuple[IcpIteration, ...]
    terminal_reason: TerminalReason

    def __post_init__(self) -> None:
        iterations = _items("iterations", self.iterations, IcpIteration)
        if not iterations:
            raise InvalidInputError("trace must contain at least one iteration")
        _instance("terminal_reason", self.terminal_reason, TerminalReason)
        for previous, entry in zip(iterations, iterations[1:]):
            if entry.mse > previous.mse:
                raise NumericalError(
                    f"mean-square error increased at iteration {entry.index}: {previous.mse!r} -> {entry.mse!r}"
                )
        object.__setattr__(self, "iterations", iterations)

    def errors(self) -> np.ndarray:
        return np.array([entry.mse for entry in self.iterations], dtype=np.float64)


def _alignment_matrices(sigma: np.ndarray) -> np.ndarray:
    """Symmetric 4x4 matrices whose top eigenvectors are the optimal
    rotations, one per cross-covariance of a (B, 3, 3) stack: (B, 4, 4).

    Layout: top-left scalar trace(sigma); first row and column completed by
    the vector (A12, A20, A01) of the antisymmetric part A = sigma - sigma^T
    (0-based indices); lower-right 3x3 block sigma + sigma^T - trace(sigma) I.
    """
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
    m = _array("matrix", matrix, np.float64, 4, 4)
    if not np.isfinite(m).all():
        raise InvalidInputError("matrix contains non-finite entries")
    magnitude = float(np.abs(m).max())
    if float(np.abs(m - m.T).max()) > _SYMMETRY_TOL * max(1.0, magnitude):
        raise InvalidInputError("matrix is not symmetric within tolerance")
    values, vectors = _max_eigenpairs(m[None])
    return float(values[0]), vectors[0]


# Stacked moving points per lockstep batch. Each stacked point keeps four
# (3, N) float arrays (points, matches, the matcher's anchors and the
# placement: 96 bytes) and the matcher's kept ids and bound (16 to 24). The
# engine peaks in the fit, beside the three centred moving axes and a new
# placement, or in the first iteration, whose index queries the matcher cuts
# into blocks of correspondence._QUERY_ROWS rows. tracemalloc peaks of 167
# and 183 bytes per stacked point (full batches of 48-point clouds onto
# 48-point models, matched by scans, and onto 3,000-point ones, by trees)
# bound the working set near 6 MB, plus the matcher's one copy of the used
# model points. A pair with more points runs in a batch of its own, at about
# 160 bytes per point (156 and 161 for 200,000 points onto those models).
_BATCH_POINTS = 1 << 15


def _columns(clouds: Sequence[np.ndarray]) -> np.ndarray:
    """Stack (n_i, 3) clouds end to end as a C-ordered (3, sum n_i) array of
    columns, so each axis is one contiguous row."""
    return np.concatenate([np.asarray(c, dtype=np.float64) for c in clouds]).T.copy()


class _Stack:
    """Moving clouds stacked end to end, one consecutive run per pair.

    Per-pair sums are segment sums over those runs (np.add.reduceat), whose
    value depends only on the run's own points, never on its neighbours.
    """

    def __init__(self, clouds: Sequence[np.ndarray]):
        self.points = _columns(clouds)
        self.counts = np.array([len(c) for c in clouds], dtype=np.intp)
        self.starts = np.cumsum(self.counts) - self.counts
        self.centroids = _segment_means(self.points, self.starts, self.counts)

    def keep(self, mask: np.ndarray) -> np.ndarray:
        """Drop the pairs where mask is False; returns the kept point rows."""
        rows = np.repeat(mask, self.counts)
        # np.compress keeps each axis a contiguous row; indexing the columns
        # with a mask would return the rows interleaved (Fortran order).
        self.points = np.compress(rows, self.points, axis=1)
        self.centroids = self.centroids[:, mask]
        self.counts = self.counts[mask]
        self.starts = np.cumsum(self.counts) - self.counts
        return rows


def _segment_means(columns: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-pair means of the rows of a (k, N) array, (k, B), or of an (N,) row, (B,)."""
    return np.add.reduceat(columns, starts, axis=-1) / counts


def _cross_covariances(stack: _Stack, matched: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-pair cross-covariances (B, 3, 3) of the stacked moving points
    against their matched model columns (3, N), and the matched centroids
    (3, B). Holds the three centred moving axes and one other (N,)
    temporary at a time."""
    starts, counts = stack.starts, stack.counts
    mu_x = _segment_means(matched, starts, counts)
    centred = [p - np.repeat(mu_p, counts) for p, mu_p in zip(stack.points, stack.centroids)]
    sigma = np.empty((starts.shape[0], 3, 3), dtype=np.float64)
    for b in range(3):
        xc = matched[b] - np.repeat(mu_x[b], counts)
        for a in range(3):
            sigma[:, a, b] = _segment_means(centred[a] * xc, starts, counts)
    return sigma, mu_x


def _fit(stack: _Stack, matched: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form least-squares rigid fit of every pair of the stack onto
    its matched model columns (3, N): (unit quaternions (B, 4), translations
    (B, 3), placed points (3, N), mean squared residuals (B,))."""
    sigma, mu_x = _cross_covariances(stack, matched)
    _, quats = _max_eigenpairs(_alignment_matrices(sigma))
    rot = _rotation_matrix(*quats.T).transpose(2, 0, 1)
    mu_p = stack.centroids
    trans = (mu_x - (rot[:, :, 0].T * mu_p[0] + rot[:, :, 1].T * mu_p[1] + rot[:, :, 2].T * mu_p[2])).T
    placed = _place(stack, rot, trans)
    error = _segment_means(_squared_distances(matched, placed), stack.starts, stack.counts)
    return quats, trans, placed, error


def _place(stack: _Stack, rot: np.ndarray, trans: np.ndarray) -> np.ndarray:
    """R p + T for every stacked point under its pair's transform: (3, N)."""
    p, counts = stack.points, stack.counts
    placed = np.empty_like(p)
    for a, col in enumerate(placed):
        np.multiply(p[0], np.repeat(rot[:, a, 0], counts), out=col)
        col += p[1] * np.repeat(rot[:, a, 1], counts)
        col += p[2] * np.repeat(rot[:, a, 2], counts)
        col += np.repeat(trans[:, a], counts)
    return placed


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
    _instance("moving", moving, PointCloud)
    _instance("model", model, PointCloud)
    if len(_instance("pairs", pairs, CorrespondenceSet)) != len(moving):
        raise InvalidInputError(
            f"correspondences must cover the moving cloud: {len(pairs)} pairs for {len(moving)} points"
        )
    if pairs.target_indices.max() >= len(model) or pairs.target_indices.min() < 0:
        raise InvalidInputError("correspondence target index out of range for the model cloud")
    matched = _columns([model.xyz[pairs.target_indices]])
    quats, trans, _, error = _fit(_Stack([moving.xyz]), matched)
    return RegistrationResult(RigidTransform(UnitQuaternion(*quats[0]), trans[0]), float(error[0]))


# The engine's per-pair record, in pair order, as a pool worker returns it:
# final mse, iterations run, converged (else cfg.max_iterations was reached)
# and queried, the moving points sent to the index.
_PAIR_RECORD = np.dtype([("mse", np.float64), ("iterations", np.int64), ("converged", bool), ("queried", np.int64)])


def _align_pairs(
    scans: Sequence[PointCloud] | Mapping[int, PointCloud],
    pairs: Sequence[tuple[int, int]],
    cfg: IcpConfig,
    record: bool = False,
    jobs: int = 1,
) -> tuple[np.ndarray, list[list[tuple[float, np.ndarray, np.ndarray]]] | None]:
    """Align scans[i] onto scans[j] for every (i, j) in pairs, in lockstep;
    scans is icp_distance_matrix's, or a slice of it keyed by the same ids.
    Every alignment of the package runs here. Returns the _PAIR_RECORD of
    every pair and, if record, each pair's (mse, quaternion, translation)
    per iteration, else None.

    With jobs > 1, the models (the j's) are dealt round-robin, in index
    order, to up to jobs worker processes of one pool, forked where the
    platform can fork and spawned elsewhere. Each worker runs _align_pairs
    with jobs=1 on the pairs of its models and the slice of scans they
    name, and its record and histories are copied back into pair order.

    Otherwise pairs are grouped by model, whose exact index is built here,
    and cut into batches of at most _BATCH_POINTS stacked points. Within a
    batch, every iteration matches each stacked point exactly
    (_NeighbourCache), fits all pairs at once, and retires each pair as soon
    as it converges or reaches cfg.max_iterations. Every per-pair quantity
    is computed from that pair's own points, so each result is bit-identical
    to aligning the pair alone, whatever batch, order or worker it runs in.
    """
    n = len(pairs)
    models = sorted({j for _, j in pairs})
    out = np.empty(n, _PAIR_RECORD)
    history = [[] for _ in range(n)] if record else None
    workers = min(jobs, len(models))
    if workers > 1:
        shares: list[list[int]] = [[] for _ in range(workers)]
        worker_of = {j: k % workers for k, j in enumerate(models)}
        for k, (_, j) in enumerate(pairs):
            shares[worker_of[j]].append(k)
        # The pool modules load here only, so a --jobs 1 process never pays for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        if _START_METHOD == "fork" and any(len(scans[j]) > _SCAN_MAX for j in models):
            import scipy.spatial  # noqa: F401  (imported once, before the workers fork)
        context = multiprocessing.get_context(_START_METHOD)
        with ProcessPoolExecutor(max_workers=workers, mp_context=context) as pool:
            futures = []
            for share in shares:
                task = [pairs[k] for k in share]
                futures.append(pool.submit(_align_pairs, {i: scans[i] for pair in task for i in pair},
                                           task, cfg, record))
            for share, future in zip(shares, futures):
                part, part_history = future.result()
                out[share] = part
                for k, steps in zip(share, part_history or ()):
                    history[k] = steps
        return out, history
    indices = {j: build_index(scans[j]) for j in models}
    strided = {i: scans[i].xyz[:: cfg.stride] for i in {i for i, _ in pairs}}
    order = sorted(range(n), key=lambda k: pairs[k][1])
    batch: list[int] = []
    size = 0
    for k in order:
        points = len(strided[pairs[k][0]])
        if batch and size + points > _BATCH_POINTS:
            _lockstep(strided, indices, pairs, batch, cfg, out, history)
            batch, size = [], 0
        batch.append(k)
        size += points
    if batch:
        _lockstep(strided, indices, pairs, batch, cfg, out, history)
    return out, history


def _lockstep(
    strided: Mapping[int, np.ndarray],
    models: Mapping[int, SpatialIndex],
    pairs: Sequence[tuple[int, int]],
    batch: list[int],
    cfg: IcpConfig,
    out: np.ndarray,
    history: list[list[tuple[float, np.ndarray, np.ndarray]]] | None,
) -> None:
    """Run one batch of pairs, sorted by model, to completion into out and,
    unless it is None, history."""
    ids = np.array(batch, dtype=np.intp)
    model_of = np.array([pairs[k][1] for k in batch], dtype=np.intp)
    stack = _Stack([strided[pairs[k][0]] for k in batch])

    trans = np.zeros((len(batch), 3))
    if cfg.pre_align:
        centres = np.array([models[j].points.mean(axis=0) for j in model_of.tolist()])
        trans += centres - stack.centroids.T
    current = _place(stack, np.broadcast_to(np.eye(3), (len(batch), 3, 3)), trans)
    quats = np.tile([1.0, 0.0, 0.0, 0.0], (len(batch), 1))
    previous = np.full(len(batch), np.inf)
    queried = np.zeros(len(batch), dtype=np.int64)
    matched = np.empty_like(stack.points)
    # model_of is sorted, so its distinct models come in order.
    cache = _NeighbourCache(models, list(dict.fromkeys(model_of.tolist())), stack.points.shape[1])

    for iteration in range(1, cfg.max_iterations + 1):
        squared, sent = cache.match(current, stack.starts, model_of, iteration > 1, matched)
        queried += sent
        incumbent_error = _segment_means(squared, stack.starts, stack.counts)
        # Dropped once used, as placed is below: the fit and the next match
        # then hold no stale per-point array.
        del squared

        fit_quats, fit_trans, placed, fitted_error = _fit(stack, matched)
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
            current[:, rows] = placed[:, rows]
        del placed
        if history is not None:
            for k, e, q, t in zip(ids.tolist(), error.tolist(), quats, trans):
                history[k].append((e, q.copy(), t.copy()))

        converged = previous - error < cfg.tau
        done = converged | (iteration == cfg.max_iterations)
        previous = error
        if not done.any():
            continue
        finished = ids[done]
        out["mse"][finished] = error[done]
        out["iterations"][finished] = iteration
        out["converged"][finished] = converged[done]
        out["queried"][finished] = queried[done]
        keep = ~done
        if not keep.any():
            return
        rows = stack.keep(keep)
        cache.keep(rows)
        current = np.compress(rows, current, axis=1)
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
    clouds = [_instance("moving", moving, PointCloud), _instance("model", model, PointCloud)]
    record, history = _align_pairs(clouds, [(0, 1)], _config(cfg, IcpConfig), record=True)
    entries = tuple(
        IcpIteration(k, e, RigidTransform(UnitQuaternion(*q), t))
        for k, (e, q, t) in enumerate(history[0])
    )
    reason = TerminalReason.CONVERGED if record["converged"][0] else TerminalReason.MAX_ITERATIONS
    trace = IcpTrace(entries, reason)
    return RegistrationResult(entries[-1].transform, entries[-1].mse), trace


def icp_distance(a: PointCloud, b: PointCloud, cfg: IcpConfig | None = None) -> float:
    """Converged mean-square error (mm^2) of aligning a onto b.

    Directional: a is the moving cloud. Rigid only, so shapes differing by
    scale keep a strictly positive distance. It is icp_align's mse, from
    the engine run without a history.
    """
    clouds = [_instance("moving", a, PointCloud), _instance("model", b, PointCloud)]
    return float(_align_pairs(clouds, [(0, 1)], _config(cfg, IcpConfig))[0]["mse"][0])


def icp_distance_matrix(
    scans: Sequence[PointCloud],
    pairs: Iterable[tuple[int, int]],
    cfg: IcpConfig | None = None,
    jobs: int = 1,
) -> np.ndarray:
    """ICP distance of scans[i] aligned onto scans[j] for every (i, j) in pairs.

    Returns the listed entries of the scans' distance matrix, and no other:
    a float array with one distance per listed pair, in the order listed. A
    pair listed more than once is aligned once. The distinct pairs run, in
    sorted order, through _align_pairs with up to jobs worker processes, so
    the distances do not depend on jobs.
    """
    jobs = _integer("jobs", jobs, 1)
    cfg = _config(cfg, IcpConfig)
    scans = _items("scans", scans, PointCloud)
    n = len(scans)

    def ids(pair):
        i, j = pair
        return _integer("pair id", i, 0, n), _integer("pair id", j, 0, n)

    listed = _items("pairs", pairs, ids)
    wanted = sorted(set(listed))
    at = {pair: k for k, pair in enumerate(wanted)}
    return _align_pairs(scans, wanted, cfg, jobs=jobs)[0]["mse"][[at[pair] for pair in listed]]
