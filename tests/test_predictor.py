import math
import multiprocessing
import os
import subprocess
import sys
import tracemalloc
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from logmatch import (
    InvalidInputError,
    LogFeatures,
    LogRecord,
    PointCloud,
    PredictionOutcome,
    ProductBasket,
    UnitQuaternion,
    apply_transform,
    extract_features,
    icp_distance,
    icp_distance_matrix,
    icp_nn_predict_batch,
    knn_feature_predict,
    mean_predict,
    nn_predict_from_distances,
)
from logmatch import IcpConfig, predictor, registration
from logmatch.correspondence import _SCAN_MAX
from logmatch.geometry import B, RigidTransform
from logmatch.registration import _align_pairs
from synthdata import box_cloud, cone_cloud, cylinder_cloud, log_like_cloud, random_transform

SPAWN_CALLER = """\
import sys
from pathlib import Path

import numpy as np

from logmatch import PointCloud, icp_distance_matrix, registration


def main(root):
    registration._START_METHOD = "spawn"
    scans = [PointCloud(xyz) for xyz in np.load(root / "scans.npy")]
    pairs = [(i, j) for i in range(len(scans)) for j in range(len(scans)) if i != j]
    distances = icp_distance_matrix(scans, pairs, jobs=2)
    (root / "distances.bin").write_bytes(distances.tobytes())


if __name__ == "__main__":
    main(Path(sys.argv[1]))
"""


def record(log_id, cloud, quantities):
    return LogRecord(log_id, cloud, ProductBasket(tuple(quantities)))


class TestProductBasket:
    def test_rejects_negative(self):
        with pytest.raises(InvalidInputError):
            ProductBasket((1, -1))

    def test_rejects_floats(self):
        with pytest.raises(InvalidInputError):
            ProductBasket((1.5, 2))

    def test_is_empty(self):
        assert ProductBasket((0, 0)).is_empty()
        assert not ProductBasket((0, 1)).is_empty()


class TestLogRecord:
    def test_rejects_empty_id(self):
        with pytest.raises(InvalidInputError, match="log id must be a non-empty string"):
            record("", box_cloud(np.random.default_rng(0), 5), (1,))


class TestPredictionOutcome:
    def test_neighbor_fields_travel_together(self):
        with pytest.raises(InvalidInputError):
            PredictionOutcome(ProductBasket((1,)), neighbor_id="a", distance=None)
        with pytest.raises(InvalidInputError):
            PredictionOutcome(ProductBasket((1,)), neighbor_id=None, distance=1.0)


class TestMeanPredict:
    def test_hand_mean(self):
        train = [record("a", box_cloud(np.random.default_rng(0), 5), (2, 0)),
                 record("b", box_cloud(np.random.default_rng(1), 5), (4, 0))]
        assert mean_predict(train).quantities == (3, 0)

    def test_singleton(self):
        train = [record("a", box_cloud(np.random.default_rng(2), 5), (1, 1))]
        assert mean_predict(train).quantities == (1, 1)

    def test_half_rounds_up(self):
        train = [record("a", box_cloud(np.random.default_rng(3), 5), (0, 1)),
                 record("b", box_cloud(np.random.default_rng(4), 5), (1, 0))]
        assert mean_predict(train).quantities == (1, 1)

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidInputError):
            mean_predict([])


class TestIcpNnPredict:
    def test_identical_query_returns_own_basket(self):
        rng = np.random.default_rng(5)
        train = [record(f"t{i}", log_like_cloud(rng), (i, 19 - i)) for i in range(4)]
        outcome = icp_nn_predict_batch(train, [train[2].scan])[0]
        assert outcome.predicted.quantities == (2, 17)
        assert outcome.neighbor_id == "t2"
        assert outcome.distance == 0.0

    def test_jittered_query_stays_with_its_log(self):
        rng = np.random.default_rng(6)
        a = log_like_cloud(rng)
        b = log_like_cloud(rng)
        train = [record("a", a, (1, 0)), record("b", b, (0, 1))]
        diameter = float(np.linalg.norm(a.xyz.max(0) - a.xyz.min(0)))
        query = PointCloud(a.xyz + rng.uniform(-1e-3, 1e-3, a.xyz.shape) * diameter)
        outcome = icp_nn_predict_batch(train, [query])[0]
        assert outcome.predicted.quantities == (1, 0)
        # oracle: the reported neighbour really is the argmin of the distances
        d_a = icp_distance(query, a)
        d_b = icp_distance(query, b)
        assert d_a < d_b
        assert outcome.distance == d_a

    def test_tie_goes_to_lowest_index(self):
        rng = np.random.default_rng(7)
        cloud = log_like_cloud(rng)
        same = PointCloud(cloud.xyz.copy())
        train = [record("first", cloud, (1, 0)), record("second", same, (0, 1))]
        outcome = icp_nn_predict_batch(train, [cloud])[0]
        assert outcome.neighbor_id == "first"
        assert outcome.predicted.quantities == (1, 0)

    def test_empty_train_rejected(self):
        with pytest.raises(InvalidInputError):
            icp_nn_predict_batch([], [box_cloud(np.random.default_rng(8), 5)])[0]

    def test_training_queries_return_their_own_baskets(self):
        rng = np.random.default_rng(9)
        train = [record(f"t{i}", log_like_cloud(rng), (i + 1, 0)) for i in range(5)]
        for rec in train:
            outcome = icp_nn_predict_batch(train, [rec.scan])[0]
            assert outcome.neighbor_id == rec.id
            assert outcome.predicted == rec.basket

    def test_order_invariance_up_to_tie_rule(self):
        rng = np.random.default_rng(10)
        train = [record(f"t{i}", log_like_cloud(rng), (i, 1)) for i in range(4)]
        query = PointCloud(train[1].scan.xyz + 0.5)
        baseline = icp_nn_predict_batch(train, [query])[0]
        shuffled = [train[2], train[0], train[3], train[1]]
        assert icp_nn_predict_batch(shuffled, [query])[0].predicted == baseline.predicted

    def test_rigid_motion_of_query_keeps_prediction(self):
        rng = np.random.default_rng(11)
        train = [record(f"t{i}", log_like_cloud(rng), (i, 2)) for i in range(3)]
        query = PointCloud(train[0].scan.xyz + rng.normal(0, 0.3, train[0].scan.xyz.shape))
        baseline = icp_nn_predict_batch(train, [query])[0]
        moved = apply_transform(random_transform(rng, math.radians(10), 30.0), query)
        assert icp_nn_predict_batch(train, [moved])[0].predicted == baseline.predicted

    def test_batch_matches_sequential_and_jobs(self):
        rng = np.random.default_rng(12)
        train = [record(f"t{i}", log_like_cloud(rng, 32), (i, 0)) for i in range(3)]
        queries = [PointCloud(train[i % 3].scan.xyz + rng.normal(0, 0.2, (32, 3))) for i in range(4)]
        seq = icp_nn_predict_batch(train, queries, jobs=1)
        par = icp_nn_predict_batch(train, queries, jobs=2)
        assert [o.predicted for o in seq] == [o.predicted for o in par]
        assert [o.distance for o in seq] == [o.distance for o in par]
        assert [o.neighbor_id for o in seq] == [o.neighbor_id for o in par]

    def test_distances_equal_single_alignments_at_any_jobs(self):
        # each worker aligns every query onto its share of the training scans
        rng = np.random.default_rng(15)
        train = [record(f"t{i}", log_like_cloud(rng, 20 + 7 * i), (i, 0)) for i in range(5)]
        queries = [PointCloud(train[i].scan.xyz + rng.normal(0, 0.5, train[i].scan.xyz.shape))
                   for i in (4, 1, 2)]
        for jobs in (1, 2, 3, 8):
            outcomes = icp_nn_predict_batch(train, queries, jobs=jobs)
            assert [o.neighbor_id for o in outcomes] == ["t4", "t1", "t2"]
            for query, outcome in zip(queries, outcomes):
                model = train[int(outcome.neighbor_id[1:])].scan
                assert outcome.distance == icp_distance(query, model)

    def test_jobs_below_one_rejected(self):
        rng = np.random.default_rng(16)
        train = [record("a", box_cloud(rng, 5), (1,))]
        with pytest.raises(InvalidInputError):
            icp_nn_predict_batch(train, [box_cloud(rng, 5)], jobs=0)

    def test_memory_grows_with_the_pairs_not_the_square_of_the_scans(self):
        # 2,000 training scans and one query: a (T + Q)^2 float array over
        # all the scans alone would take 32 MB for 2,000 distances.
        rng = np.random.default_rng(25)
        train = [record(f"t{i}", box_cloud(rng, 4), (i % 3,)) for i in range(2000)]
        square = (len(train) + 1) ** 2 * 8
        tracemalloc.start()
        try:
            icp_nn_predict_batch(train, [box_cloud(rng, 4)], IcpConfig(max_iterations=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < square / 4


class TestDistanceMatrix:
    def test_requested_entries_only_at_any_jobs(self, monkeypatch):
        # One distance per listed pair, in the order listed, repeats included;
        # the distinct pairs are aligned once each, in sorted order.
        rng = np.random.default_rng(17)
        scans = [log_like_cloud(rng, 16 + 5 * i) for i in range(5)]
        pairs = [(0, 1), (0, 3), (2, 1), (4, 3), (1, 1), (3, 0), (0, 1)]
        aligned = []

        def spy(scans, pairs, cfg, jobs):
            aligned.append(list(pairs))
            return _align_pairs(scans, pairs, cfg, jobs=jobs)

        with monkeypatch.context() as patch:
            patch.setattr(registration, "_align_pairs", spy)
            serial = icp_distance_matrix(scans, pairs, jobs=1)
        assert aligned == [sorted(set(pairs))]
        assert serial.dtype == np.float64 and serial.shape == (len(pairs),)
        assert serial.tolist() == [icp_distance(scans[i], scans[j]) for i, j in pairs]
        for jobs in (2, 3, 8):
            assert icp_distance_matrix(scans, pairs, jobs=jobs).tobytes() == serial.tobytes(), f"jobs {jobs}"
        monkeypatch.setattr(registration, "_START_METHOD", "spawn")
        assert icp_distance_matrix(scans, pairs, jobs=2).tobytes() == serial.tobytes()

    def test_huge_jobs_ask_for_one_worker_per_model(self, monkeypatch):
        rng = np.random.default_rng(20)
        scans = [log_like_cloud(rng, 16 + 5 * i) for i in range(5)]
        pairs = [(i, j) for i in range(5) for j in (0, 2, 4) if i != j]
        serial = icp_distance_matrix(scans, pairs, jobs=1)
        built = []

        class InlinePool:
            """Records the pool size and start method it is asked for and
            runs each share here."""

            def __init__(self, max_workers, mp_context):
                built.append((max_workers, mp_context.get_start_method()))

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        # registration imports the pool from concurrent.futures when it starts one.
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InlinePool)
        assert icp_distance_matrix(scans, pairs, jobs=10_000).tobytes() == serial.tobytes()
        assert built == [(3, registration._START_METHOD)]

    def test_workers_fork_where_the_platform_can(self):
        methods = multiprocessing.get_all_start_methods()
        assert registration._START_METHOD == ("fork" if "fork" in methods else "spawn")

    @pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
    def test_same_bytes_under_every_start_method(self, monkeypatch, method):
        rng = np.random.default_rng(21)
        scans = [log_like_cloud(rng, 16 + 5 * i) for i in range(4)]
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        serial = icp_distance_matrix(scans, pairs, jobs=1)
        monkeypatch.setattr(registration, "_START_METHOD", method)
        assert icp_distance_matrix(scans, pairs, jobs=2).tobytes() == serial.tobytes()

    def test_library_caller_under_spawn(self, tmp_path):
        """A script that calls icp_distance_matrix from its guarded main, with
        workers spawned, as on a platform that cannot fork: the spawned
        workers re-import the script as a module and skip its main."""
        rng = np.random.default_rng(22)
        scans = [log_like_cloud(rng, 24) for _ in range(4)]
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        np.save(tmp_path / "scans.npy", np.stack([scan.xyz for scan in scans]))
        script = tmp_path / "caller.py"
        script.write_text(SPAWN_CALLER, encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(predictor.__file__))}
        subprocess.run([sys.executable, "-X", "dev", "-W", "error", str(script), str(tmp_path)],
                       env=env, check=True, timeout=300)
        want = icp_distance_matrix(scans, pairs, jobs=1)
        assert (tmp_path / "distances.bin").read_bytes() == want.tobytes()

    def test_outcomes_in_pair_order_at_any_jobs_and_under_spawn(self, monkeypatch):
        # One model is too large for the linear scan; the iteration cap
        # stops some pairs before they converge.
        rng = np.random.default_rng(23)
        scans = [log_like_cloud(rng, n) for n in (16, 24, 40, _SCAN_MAX + 16, 30)]
        pairs = [(i, j) for i in range(5) for j in range(5) if i != j] + [(2, 1)]
        cfg = IcpConfig(max_iterations=8)
        fields = ("mse", "iterations", "converged", "queried")
        wanted = sorted(set(pairs))
        distances = icp_distance_matrix(scans, pairs, cfg, jobs=1)
        run, history = _align_pairs(scans, wanted, cfg, jobs=1)
        assert distances.tolist() == [run["mse"][wanted.index(pair)] for pair in pairs]
        assert run["converged"].any() and not run["converged"].all()
        assert history is None
        for k, (i, j) in enumerate(wanted):
            alone, _ = _align_pairs(scans, [(i, j)], cfg)
            assert [run[name][k] for name in fields] == [alone[name][0] for name in fields]

        def as_bytes(record):
            return [(record[name].dtype, record[name].tobytes()) for name in fields]

        serial = as_bytes(run)
        for jobs in (2, 3):
            assert as_bytes(_align_pairs(scans, wanted, cfg, jobs=jobs)[0]) == serial, f"jobs {jobs}"
        monkeypatch.setattr(registration, "_START_METHOD", "spawn")
        assert as_bytes(_align_pairs(scans, wanted, cfg, jobs=2)[0]) == serial

    def test_histories_through_the_pool(self):
        rng = np.random.default_rng(24)
        scans = [log_like_cloud(rng, n) for n in (16, 24, 40, _SCAN_MAX + 16)]
        pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
        cfg = IcpConfig(max_iterations=8)

        def histories(history):
            return [[(e, q.tobytes(), t.tobytes()) for e, q, t in steps] for steps in history]

        _, serial = _align_pairs(scans, pairs, cfg, record=True, jobs=1)
        pooled, pooled_history = _align_pairs(scans, pairs, cfg, record=True, jobs=2)
        assert all(serial) and histories(pooled_history) == histories(serial)
        assert [len(steps) for steps in pooled_history] == pooled["iterations"].tolist()

    def test_no_pairs_give_an_empty_array(self):
        scans = [box_cloud(np.random.default_rng(18), 5)]
        distances = icp_distance_matrix(scans, [], jobs=2)
        assert distances.dtype == np.float64 and distances.shape == (0,)

    def test_rejects_bad_pairs_and_jobs(self):
        scans = [box_cloud(np.random.default_rng(19), 5) for _ in range(2)]
        with pytest.raises(InvalidInputError):
            icp_distance_matrix(scans, [(0, 2)])
        with pytest.raises(InvalidInputError):
            icp_distance_matrix(scans, [(-1, 0)])
        with pytest.raises(InvalidInputError):
            icp_distance_matrix(scans, [(0, 1)], jobs=0)


class TestNnPredictFromDistances:
    def test_first_minimum_in_column_order(self):
        rng = np.random.default_rng(20)
        train = [record(f"t{i}", box_cloud(rng, 5), (i,)) for i in range(3)]
        outcomes = nn_predict_from_distances(train, np.array([[2.0, 1.0, 1.0], [0.5, 3.0, 0.5]]))
        assert [(o.neighbor_id, o.distance) for o in outcomes] == [("t1", 1.0), ("t0", 0.5)]
        assert [o.predicted.quantities for o in outcomes] == [(1,), (0,)]

    def test_rejects_unaligned_entries_and_wrong_width(self):
        rng = np.random.default_rng(21)
        train = [record(f"t{i}", box_cloud(rng, 5), (i,)) for i in range(2)]
        with pytest.raises(InvalidInputError):
            nn_predict_from_distances(train, np.array([[1.0, np.nan]]))
        with pytest.raises(InvalidInputError):
            nn_predict_from_distances(train, np.zeros((1, 3)))

    def test_every_predictor_rejects_baskets_of_different_lengths(self):
        rng = np.random.default_rng(22)
        train = [record("a", box_cloud(rng, 12), (1,)), record("b", box_cloud(rng, 12), (1, 2))]
        features = [extract_features(rec.scan) for rec in train]
        for predict in (lambda: mean_predict(train),
                        lambda: nn_predict_from_distances(train, np.zeros((1, 2))),
                        lambda: icp_nn_predict_batch(train, [train[0].scan]),
                        lambda: knn_feature_predict(train, features, features[:1], k=1)):
            with pytest.raises(InvalidInputError, match="training baskets must all have the same length"):
                predict()


class TestExtractFeatures:
    def test_cylinder_oracle(self):
        rng = np.random.default_rng(13)
        cloud = cylinder(rng)
        feats = extract_features(cloud)
        assert feats.length == pytest.approx(1000.0, rel=0.01)
        assert feats.wide_end_diameter == pytest.approx(200.0, rel=0.02)
        assert feats.narrow_end_diameter == pytest.approx(200.0, rel=0.02)
        assert abs(feats.taper) <= 0.01
        assert feats.volume == pytest.approx(math.pi * 100.0**2 * 1000.0, rel=0.05)

    def test_rotated_cylinder_matches(self):
        rng = np.random.default_rng(14)
        cloud = cylinder(rng)
        base = extract_features(cloud)
        turned = apply_transform(
            RigidTransform(UnitQuaternion.from_axis_angle([1.0, 2.0, 0.5], 1.1), [300.0, -100.0, 50.0]),
            cloud,
        )
        feats = extract_features(turned)
        assert feats.length == pytest.approx(base.length, rel=0.01)
        assert feats.wide_end_diameter == pytest.approx(base.wide_end_diameter, rel=0.02)
        assert feats.volume == pytest.approx(base.volume, rel=0.05)

    def test_cone_taper(self):
        rng = np.random.default_rng(15)
        cloud = cone_cloud(rng, 20000, length=1000.0, r_wide=100.0, r_narrow=50.0)
        feats = extract_features(cloud)
        assert feats.taper == pytest.approx(0.1, rel=0.10)
        assert feats.wide_end_diameter > feats.narrow_end_diameter

    def test_too_few_points_rejected(self):
        with pytest.raises(InvalidInputError):
            extract_features(box_cloud(np.random.default_rng(16), 9))

    def test_feature_invariants_enforced(self):
        with pytest.raises(InvalidInputError):
            LogFeatures(1.0, 0.0, 2.0, 1.0, 0.1)
        with pytest.raises(InvalidInputError):
            LogFeatures(1.0, 10.0, 1.0, 2.0, 0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_feature_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="taper must be finite"):
            LogFeatures(1.0, 10.0, 2.0, 1.0, bad)

    @staticmethod
    def log_at(top):
        """A stretched normal cloud whose largest |coordinate| is exactly top."""
        xyz = np.random.default_rng(23).standard_normal((60, 3)) * np.array([10.0, 1.0, 1.0])
        return xyz / np.abs(xyz).max() * top

    def test_scan_at_the_bound_has_finite_features(self):
        assert np.isfinite(extract_features(PointCloud(self.log_at(B))).as_array()).all()

    @pytest.mark.parametrize("scale", [np.nextafter(B, np.inf), 1e150, 1e160, 1e300])
    def test_huge_scan_rejected_without_warnings(self, scale):
        # Unbounded, the volume would overflow from 1e150 on, the covariance from 1e160.
        with pytest.raises(InvalidInputError, match="beyond"):
            extract_features(PointCloud(self.log_at(scale)))

    def test_identical_points_have_zero_extent(self):
        with pytest.raises(InvalidInputError, match="scan has zero extent along its principal axis"):
            extract_features(PointCloud(np.tile([1.0, 2.0, 3.0], (10, 1))))


def cylinder(rng):
    return cylinder_cloud(rng, 20000, length=1000.0, radius=100.0)


# ---------------------------------------------------------------------------
# slice hulls against the per-slice Qhull loop they replace, and against the
# exact rational hull


def oracle_slice_area(points, radial):
    """One slice as extract_features measured it slice by slice: Qhull's
    hull area, or the circle of the largest radius when there are fewer than
    3 points or Qhull finds them degenerate. Returns (area, circled)."""
    if len(points) >= 3:
        try:
            return float(ConvexHull(points).volume), False
        except QhullError:
            pass
    return math.pi * float(radial.max()) ** 2, True


def oracle_features(scan):
    """extract_features with its per-slice loop, as it was before the batched hull."""
    pts = scan.xyz
    centered = pts - pts.mean(axis=0)
    _, vectors = np.linalg.eigh(centered.T @ centered / len(scan))
    axis = vectors[:, 2]
    along = centered @ axis
    s_min, s_max = float(along.min()), float(along.max())
    length = s_max - s_min
    radial = np.linalg.norm(centered - np.outer(along, axis), axis=1)
    slab = 0.05 * length
    d_low = 2.0 * float(radial[along <= s_min + slab].max())
    d_high = 2.0 * float(radial[along >= s_max - slab].max())
    wide, narrow = max(d_low, d_high), min(d_low, d_high)
    plane = np.column_stack([centered @ vectors[:, 0], centered @ vectors[:, 1]])
    thickness = length / 100
    bins = np.clip(((along - s_min) / thickness).astype(np.int64), 0, 99)
    volume = 0.0
    for i in range(100):
        mask = bins == i
        if mask.any():
            volume += oracle_slice_area(plane[mask], radial[mask])[0] * thickness
    return LogFeatures(volume, length, wide, narrow, (wide - narrow) / length)


def exact_hull(points):
    """Corners and area of the convex hull of float points, in exact
    rational arithmetic (monotone chain; collinear points are not corners).
    The corners run counter-clockwise from the lexicographically smallest."""
    pts = sorted({(Fraction(x), Fraction(y)) for x, y in points.tolist()})

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out[:-1]

    corners = chain(pts) + chain(reversed(pts)) if len(pts) > 2 else pts
    twice = sum(a[0] * b[1] - b[0] * a[1] for a, b in zip(corners[-1:] + corners[:-1], corners))
    return [(float(x), float(y)) for x, y in corners], float(twice / 2)


def single_slice_hull(points):
    """_slice_hulls of points as one slice: the corner indices into points."""
    hull, _ = predictor._slice_hulls(points, np.zeros(len(points), dtype=np.int64), 1)
    return hull


SLICE_KINDS = ("lattice", "run", "collinear", "coincident", "duplicates", "floats")


@st.composite
def slices(draw):
    """One slice of 3-200 points: integer lattices (exact angle ties and
    duplicates), collinear runs with a few points beside them, all-collinear
    and all-coincident slices, duplicated float points and plain floats;
    then offset by up to 1e4 lattice spacings and scaled by 1e-3 to 1e4."""
    kind = draw(st.sampled_from(SLICE_KINDS))
    n = draw(st.integers(3, 200))
    span = draw(st.sampled_from([1, 2, 3, 5, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    direction = rng.integers(-3, 4, 2)
    if not direction.any():
        direction[0] = 1
    if kind == "lattice":
        pts = rng.integers(-span, span + 1, (n, 2))
    elif kind == "run":
        pts = rng.integers(-5 * span, 5 * span + 1, n)[:, None] * direction
        beside = int(rng.integers(1, 4))
        pts[:beside] += rng.integers(-1, 2, (beside, 2))
    elif kind == "collinear":
        pts = rng.integers(-span, span + 1, n)[:, None] * direction
    elif kind == "coincident":
        pts = np.repeat(rng.integers(-span, span + 1, (1, 2)), n, axis=0)
    elif kind == "duplicates":
        base = rng.normal(size=(int(rng.integers(3, 12)), 2))
        pts = base[rng.integers(0, len(base), n)]
    else:
        pts = rng.normal(size=(n, 2))
    offset = np.array([draw(st.sampled_from([0, 1, -7, 1000, -10000, 10000])) for _ in range(2)])
    scale = draw(st.sampled_from([1e-3, 0.37, 1.0, 3.0, 1e4]))
    return kind, (pts + offset) * scale, not offset.any()


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(slices(), min_size=1, max_size=4), data=st.data())
def test_batched_slice_areas_match_the_oracle(parts, data):
    """Every slice of a batch has exactly the exact hull's corners, in its
    order, and the same corners and area, to the bit, when it runs alone.
    A slice of fewer than 3 distinct points gets the circle, and one of 3 or
    more exactly collinear points the area 0. A slice whose area exceeds
    1e-3 of its largest squared centroid distance (its reach) has the exact
    hull's area within 1e-12 relative (and Qhull's when centred); a thinner
    one has it within 4 ulps of its reach, and where Qhull measures it,
    within 1e-10 relative of the exact hull's (and of Qhull's when centred:
    off centre, Qhull's own rounding grows with the distance from the
    origin and alone can exceed 1e-10 of a thin slice's area)."""
    plane = np.concatenate([pts for _, pts, _ in parts])
    bins = np.concatenate([np.full(len(pts), i) for i, (_, pts, _) in enumerate(parts)])
    shuffle = np.array(data.draw(st.permutations(range(len(bins)))), dtype=np.int64)
    plane, bins = plane[shuffle], bins[shuffle]
    radial = np.random.default_rng(len(bins)).uniform(0.5, 2.0, len(bins))
    slices_total = len(parts) + 1  # the last slice stays empty
    areas = predictor._slice_areas(plane, bins, radial, slices_total)
    corners, distinct = predictor._slice_hulls(plane, bins, slices_total)
    assert areas[-1] == 0.0 and distinct[-1] == 0
    for i, (_, _, centred) in enumerate(parts):
        mask = bins == i
        points = plane[mask]
        hull, area = exact_hull(points)
        got = [tuple(p) for p in plane[corners[bins[corners] == i]].tolist()]
        assert got == hull
        assert distinct[i] == len({tuple(p) for p in points.tolist()})
        alone = predictor._slice_areas(points, np.zeros(len(points), dtype=np.int64), radial[mask], 1)
        assert [tuple(p) for p in points[single_slice_hull(points)].tolist()] == got
        assert alone.tobytes() == areas[i:i + 1].tobytes()
        if distinct[i] < 3:
            r = float(radial[mask].max())
            assert areas[i] == math.pi * r * r
            continue
        if len(hull) < 3:  # 3 or more distinct points, all collinear
            assert areas[i] == 0.0
            continue
        oracle, circled = oracle_slice_area(points, radial[mask])
        reach = float((((points - points.mean(axis=0)) ** 2).sum(axis=1)).max())
        if area > 1e-3 * reach:
            assert not circled
            assert abs(areas[i] - area) <= 1e-12 * area
            if centred:
                assert abs(areas[i] - oracle) <= 1e-12 * oracle
        else:
            assert abs(areas[i] - area) <= 4 * math.ulp(reach)
            if not circled:
                assert abs(areas[i] - area) <= 1e-10 * area
            if centred and not circled:
                assert abs(areas[i] - oracle) <= 1e-10 * oracle


def test_hull_corners_decide_near_collinear_turns_exactly():
    """Points a few ulps off the line y = x, where float turns can take the
    wrong sign, give exactly the rational hull's corners, in counter-clockwise
    order from the lexicographically smallest."""
    ulp = 2.0**-53
    grid = [(0.5 + i * ulp, 0.5 + j * ulp) for i in range(0, 64, 3) for j in range(0, 64, 5)]
    points = np.array(grid + [(12.0, 12.0), (24.0, 24.0), (24.0, 24.0 + 32 * ulp)])
    ordered = [tuple(p) for p in points[single_slice_hull(points)].tolist()]
    hull, area = exact_hull(points)
    assert area > 0.0
    assert ordered == hull
    assert ordered[0] == min(ordered)
    turns = [
        (Fraction(b[0]) - Fraction(a[0])) * (Fraction(c[1]) - Fraction(a[1]))
        - (Fraction(b[1]) - Fraction(a[1])) * (Fraction(c[0]) - Fraction(a[0]))
        for a, b, c in zip(ordered, ordered[1:] + ordered[:1], ordered[2:] + ordered[:2])
    ]
    assert all(turn > 0 for turn in turns)


def test_hull_corners_of_degenerate_points():
    """Coincident points give one corner, collinear points their two ends;
    of equal points the lowest index stands for all."""
    assert single_slice_hull(np.array([[1.0, 2.0]] * 5)).tolist() == [0]
    line = np.array([[3.0, 3.0], [1.0, 1.0], [2.0, 2.0], [1.0, 1.0], [0.0, 0.0]])
    assert single_slice_hull(line).tolist() == [4, 0]
    assert single_slice_hull(np.array([[0.0, 1.0], [0.0, -1.0], [0.0, 0.5]])).tolist() == [1, 0]


def board(rng, n, thickness):
    """A planar board scan: n points filling a 1000 x 200 x thickness box."""
    return PointCloud(np.column_stack([
        rng.uniform(-500.0, 500.0, n), rng.uniform(-100.0, 100.0, n), rng.uniform(0.0, thickness, n)]))


def test_planar_board_takes_the_exact_path_in_every_slice():
    """A board thin enough that every slice is a sliver: the features are
    finite and match the per-slice Qhull loop."""
    scan = board(np.random.default_rng(41), 20000, 0.02)
    got, want = extract_features(scan), oracle_features(scan)
    assert np.isfinite(got.as_array()).all()
    assert got.as_array()[1:].tobytes() == want.as_array()[1:].tobytes()
    assert abs(got.volume - want.volume) <= 1e-10 * want.volume


@pytest.mark.parametrize("turned", [False, True], ids=["flat", "rotated"])
def test_planar_sheet_has_no_volume_in_any_pose(turned):
    """Points on a flat 1000 x 200 mm sheet: every slice is collinear, or a
    rounding sliver once the sheet is turned, so the volume is near 0 either
    way instead of summing circles in one pose only."""
    scan = board(np.random.default_rng(43), 20000, 0.0)
    if turned:
        scan = apply_transform(random_transform(np.random.default_rng(44), math.pi, 100.0), scan)
    features = extract_features(scan)
    assert 0.0 <= features.volume < 1e-3
    assert features.length == pytest.approx(1000.0, rel=0.01)


def test_duplicated_float_slices_are_certified():
    """Exact duplicates are kept once, so random slices full of them have
    the exact hull's area."""
    rng = np.random.default_rng(31)
    plane, bins = [], []
    for i in range(200):
        base = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(1e-3, 1e4)
        plane.append(base[rng.integers(0, len(base), int(rng.integers(3, 200)))])
        bins.append(np.full(len(plane[-1]), i))
    plane, bins = np.concatenate(plane), np.concatenate(bins)
    areas = predictor._slice_areas(plane, bins, np.zeros(len(bins)), 200)
    for i in range(200):
        _, area = exact_hull(plane[bins == i])
        assert abs(areas[i] - area) <= 1e-12 * area


@pytest.mark.parametrize("make", [
    lambda rng: cylinder(rng),
    lambda rng: cone_cloud(rng, 20000, length=1000.0, r_wide=100.0, r_narrow=50.0),
    lambda rng: log_like_cloud(rng, 3000),
    lambda rng: log_like_cloud(rng, 300),
    lambda rng: log_like_cloud(rng, 24),
    lambda rng: box_cloud(rng, 40),
], ids=["cylinder", "cone", "log3000", "log300", "log24", "box40"])
@pytest.mark.parametrize("seed", [13, 14, 15])
def test_features_match_the_per_slice_loop(make, seed):
    scan = make(np.random.default_rng(seed))
    got, want = extract_features(scan), oracle_features(scan)
    assert got.as_array()[1:].tobytes() == want.as_array()[1:].tobytes()
    assert abs(got.volume - want.volume) <= 1e-12 * want.volume


def oracle_knn(train, train_features, query_features, k):
    """The per-query knn predictor: the training table is z-scored again
    for every query."""
    table = np.stack([features.as_array() for features in train_features])
    mu = table.mean(axis=0)
    sd = table.std(axis=0)
    active = sd > 0.0
    z_train = (table[:, active] - mu[active]) / sd[active]
    z_query = (query_features.as_array()[active] - mu[active]) / sd[active]
    dist = np.sqrt(((z_train - z_query) ** 2).sum(axis=1))

    order = np.argsort(dist, kind="stable")
    chosen = order[:k]
    stacked = np.stack([train[i].basket.as_array() for i in chosen])
    predicted = ProductBasket(tuple(predictor._round_half_up(stacked.mean(axis=0)).tolist()))
    nearest = int(order[0])
    return PredictionOutcome(predicted, train[nearest].id, float(dist[nearest]))


class TestKnnFeaturePredict:
    @staticmethod
    def featured_train(rng, baskets, spread=0.01):
        """Training records and their features, one per basket."""
        train, features = [], []
        for i, basket in enumerate(baskets):
            features.append(LogFeatures(
                volume=1e6 * (1 + i * spread),
                length=1000.0 + i,
                wide_end_diameter=200.0 + i,
                narrow_end_diameter=100.0 + i,
                taper=0.1 + i * spread,
            ))
            train.append(record(f"t{i}", box_cloud(rng, 12), basket))
        return train, features

    def test_exact_feature_copy_with_k1(self):
        rng = np.random.default_rng(17)
        train, features = self.featured_train(rng, [(1, 0), (0, 1), (2, 2)])
        outcome = knn_feature_predict(train, features, [features[1]], k=1)[0]
        assert outcome.predicted.quantities == (0, 1)
        assert outcome.neighbor_id == "t1"
        assert outcome.distance == 0.0

    def test_k_equal_train_size_reduces_to_mean(self):
        rng = np.random.default_rng(18)
        train, features = self.featured_train(rng, [(2, 0), (4, 0), (0, 3)])
        outcome = knn_feature_predict(train, features, [features[0]], k=3)[0]
        assert outcome.predicted == mean_predict(train)

    def test_two_cluster_construction(self):
        rng = np.random.default_rng(19)
        train, features = [], []
        for i in range(3):  # cluster 1: small logs
            features.append(LogFeatures(1e5 + i, 500.0, 120.0, 80.0, 0.08))
            train.append(record(f"s{i}", box_cloud(rng, 12), (5, 0)))
        for i in range(3):  # cluster 2: large logs
            features.append(LogFeatures(9e6 + i, 2000.0, 500.0, 400.0, 0.05))
            train.append(record(f"l{i}", box_cloud(rng, 12), (0, 7)))
        query = LogFeatures(1.1e5, 510.0, 121.0, 81.0, 0.081)
        outcome = knn_feature_predict(train, features, [query], k=3)[0]
        assert outcome.predicted.quantities == (5, 0)

    def test_k_bounds(self):
        rng = np.random.default_rng(20)
        train, features = self.featured_train(rng, [(1, 0), (0, 1)])
        with pytest.raises(InvalidInputError):
            knn_feature_predict(train, features, [features[0]], k=0)[0]
        with pytest.raises(InvalidInputError):
            knn_feature_predict(train, features, [features[0]], k=3)[0]

    def test_train_features_length_must_match_train(self):
        rng = np.random.default_rng(21)
        train, features = self.featured_train(rng, [(1, 0), (0, 1), (2, 2)])
        for wrong in (features[:2], features + [features[0]], []):
            with pytest.raises(InvalidInputError, match=f"{len(wrong)} train_features for 3"):
                knn_feature_predict(train, wrong, [features[0]], k=1)

    def test_bare_features_rejected(self):
        rng = np.random.default_rng(22)
        train, features = self.featured_train(rng, [(1, 0), (0, 1)])
        with pytest.raises(InvalidInputError, match="query_features must be a sequence of LogFeatures"):
            knn_feature_predict(train, features, features[0], k=1)
        with pytest.raises(InvalidInputError, match="train_features must be a sequence of LogFeatures"):
            knn_feature_predict(train, features[0], features, k=1)

    def test_queries_beyond_the_z_reach_are_refused(self):
        # Two training logs put every feature's mean at mu and its standard
        # deviation at 1, so a query's z-scores are its offsets from mu.
        rng = np.random.default_rng(23)
        mu = np.array([2.0, 2.0, 4.0, 2.0, 2.0])
        train, features = [], []
        for i, offset in enumerate((-1.0, 1.0)):
            features.append(LogFeatures(*(mu + offset)))
            train.append(record(f"t{i}", box_cloud(rng, 12), (i,)))
        signs = np.array([1.0, 1.0, 1.0, 1.0, -1.0])
        reach = predictor._Z_REACH
        at = LogFeatures(*(mu + signs * reach))
        beyond = LogFeatures(*(mu + signs * np.nextafter(reach, np.inf)))
        # All five z-scores at the reach: every distance is finite, and
        # pytest turns an overflow warning into an error.
        outcome = knn_feature_predict(train, features, [at], k=1)[0]
        assert math.isfinite(outcome.distance) and outcome.distance > 2.0 * reach
        with pytest.raises(InvalidInputError, match=r"^query 1: knn features lie beyond 1.5e\+153 "):
            knn_feature_predict(train, features, [at, beyond], k=1)
        with pytest.raises(InvalidInputError, match=r"^log 'b': knn features lie beyond "):
            knn_feature_predict(train, features, [at, beyond], k=1, query_ids=["a", "b"])
        with pytest.raises(InvalidInputError, match="^1 query_ids for 2 query_features$"):
            knn_feature_predict(train, features, [at, beyond], k=1, query_ids=["a"])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_the_per_query_oracle(self, seed):
        """Bit-identical to the per-query oracle, with exact ties at the
        k-th distance (duplicated training features), a constant feature,
        and queries both on and off the training points."""
        rng = np.random.default_rng(seed)
        train, features = [], []
        for i in range(12):
            base = i // 3  # each feature vector appears three times
            narrow = 80.0 + 10.0 * base
            # length is constant over the training set
            features.append(
                LogFeatures(1e6 * (1 + base), 1000.0, narrow + 40.0 + base, narrow, 0.04 + 0.01 * base))
            basket = tuple(int(q) for q in rng.integers(0, 6, size=3))
            train.append(record(f"t{i}", box_cloud(rng, 8), basket))
        queries = features + [
            LogFeatures(float(rng.uniform(5e5, 5e6)), float(rng.uniform(500, 1500)), 200.0,
                        float(rng.uniform(50, 150)), float(rng.uniform(0.0, 0.2)))
            for _ in range(6)
        ]
        for k in (1, 2, 3, 4, 12):
            got = knn_feature_predict(train, features, queries, k)
            want = [oracle_knn(train, features, query, k) for query in queries]
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.predicted == b.predicted
                assert a.neighbor_id == b.neighbor_id
                assert a.distance.hex() == b.distance.hex()
