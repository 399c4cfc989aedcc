import math
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
from logmatch import predictor
from logmatch.geometry import RigidTransform
from synthdata import box_cloud, cone_cloud, cylinder_cloud, log_like_cloud, random_transform


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


class TestDistanceMatrix:
    def test_requested_entries_only_at_any_jobs(self):
        rng = np.random.default_rng(17)
        scans = [log_like_cloud(rng, 16 + 5 * i) for i in range(5)]
        pairs = [(0, 1), (0, 3), (2, 1), (4, 3), (1, 1), (3, 0), (0, 1)]
        for jobs in (1, 2, 3, 8):
            distances = icp_distance_matrix(scans, pairs, jobs=jobs)
            assert distances.shape == (5, 5)
            for i in range(5):
                for j in range(5):
                    if (i, j) in pairs:
                        assert distances[i, j] == icp_distance(scans[i], scans[j])
                    else:
                        assert np.isnan(distances[i, j])

    def test_huge_jobs_ask_for_one_worker_per_model(self, monkeypatch):
        rng = np.random.default_rng(20)
        scans = [log_like_cloud(rng, 16 + 5 * i) for i in range(5)]
        pairs = [(i, j) for i in range(5) for j in (0, 2, 4) if i != j]
        serial = icp_distance_matrix(scans, pairs, jobs=1)
        built = []

        class InlinePool:
            """Records the pool size it is asked for and runs each share here."""

            def __init__(self, max_workers):
                built.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                future.set_result(fn(*args))
                return future

        monkeypatch.setattr(predictor, "ProcessPoolExecutor", InlinePool)
        assert icp_distance_matrix(scans, pairs, jobs=10_000).tobytes() == serial.tobytes()
        assert built == [3]

    def test_no_pairs_give_all_nan(self):
        scans = [box_cloud(np.random.default_rng(18), 5)]
        assert np.isnan(icp_distance_matrix(scans, [], jobs=2)).all()

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
        with pytest.raises(InvalidInputError, match="features must be finite"):
            LogFeatures(1.0, 10.0, 2.0, 1.0, bad)

    def test_identical_points_have_zero_extent(self):
        with pytest.raises(InvalidInputError, match="scan has zero extent along its principal axis"):
            extract_features(PointCloud(np.tile([1.0, 2.0, 3.0], (10, 1))))


def cylinder(rng):
    return cylinder_cloud(rng, 20000, length=1000.0, radius=100.0)


# ---------------------------------------------------------------------------
# batched slice hulls against the per-slice Qhull loop they replace


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
    rational arithmetic (monotone chain; collinear points are not corners)."""
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
    return {(float(x), float(y)) for x, y in corners}, float(twice / 2)


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
    exact = kind not in ("duplicates", "floats") and scale == 1.0
    return kind, (pts + offset) * scale, exact, not offset.any()


@settings(max_examples=200, deadline=None)
@given(parts=st.lists(slices(), min_size=1, max_size=4), data=st.data())
def test_batched_slice_areas_match_the_oracle(parts, data):
    """Every slice of a batch: a certified slice has the exact hull's area
    within 1e-12 relative (and Qhull's when centred), and on exact lattice
    data exactly the hull's corners; any other slice, including every
    degenerate one, has the per-slice oracle's area bit for bit."""
    plane = np.concatenate([pts for _, pts, _, _ in parts])
    bins = np.concatenate([np.full(len(pts), i) for i, (_, pts, _, _) in enumerate(parts)])
    shuffle = np.array(data.draw(st.permutations(range(len(bins)))), dtype=np.int64)
    plane, bins = plane[shuffle], bins[shuffle]
    radial = np.random.default_rng(len(bins)).uniform(0.5, 2.0, len(bins))
    slices_total = len(parts) + 1  # the last slice stays empty
    areas = predictor._slice_areas(plane, bins, radial, slices_total)
    corners, batched, certified = predictor._slice_hulls(plane, bins, slices_total)
    assert areas[-1] == 0.0 and not certified[-1]
    for i, (kind, _, exact, centred) in enumerate(parts):
        mask = bins == i
        oracle, circled = oracle_slice_area(plane[mask], radial[mask])
        if kind in ("collinear", "coincident"):
            assert not certified[i]
        if not certified[i]:
            assert areas[i] == oracle
            continue
        assert not circled
        assert areas[i] == batched[i]
        hull, area = exact_hull(plane[mask])
        assert abs(areas[i] - area) <= 1e-12 * area
        if centred:
            assert abs(areas[i] - oracle) <= 1e-12 * oracle
        if exact:
            assert {tuple(p) for p in plane[corners[bins[corners] == i]].tolist()} == hull


def test_duplicated_float_slices_are_certified():
    """Exact duplicates share an angle and are kept once, so random slices
    full of them never need the Qhull path."""
    rng = np.random.default_rng(31)
    plane, bins = [], []
    for i in range(200):
        base = rng.normal(size=(int(rng.integers(3, 30)), 2)) * rng.uniform(1e-3, 1e4)
        plane.append(base[rng.integers(0, len(base), int(rng.integers(3, 200)))])
        bins.append(np.full(len(plane[-1]), i))
    plane, bins = np.concatenate(plane), np.concatenate(bins)
    _, areas, certified = predictor._slice_hulls(plane, bins, 200)
    assert certified.all()
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
