import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from logmatch import (
    CorrespondenceSet,
    InvalidInputError,
    NumericalError,
    PointCloud,
    UnitQuaternion,
    build_index,
    match_correspondences,
    quaternion_to_rotation,
)
from logmatch.correspondence import _CACHE_NEIGHBOURS, _NeighbourCache
from synthdata import box_cloud


def linear_scan(model_xyz, query_xyz):
    """Oracle: exhaustive first-occurrence argmin over exact squared distances."""
    indices = []
    squared = []
    for p in query_xyz:
        diffs = model_xyz - p
        d2 = (diffs * diffs).sum(axis=1)
        j = int(d2.argmin())
        indices.append(j)
        squared.append(d2[j])
    return np.array(indices), np.array(squared)


def nearest(index, q):
    """One query through SpatialIndex.query_batch: (target_index, squared_distance)."""
    idx, sq = index.query_batch(np.array([q], dtype=np.float64))
    return int(idx[0]), float(sq[0])


class TestNearestPoint:
    def test_single_point_model_answers_everything(self):
        index = build_index(PointCloud([[1.0, 2.0, 3.0]]))
        for q in [(0.0, 0.0, 0.0), (100.0, -5.0, 3.0), (1.0, 2.0, 3.0)]:
            target, _ = nearest(index, q)
            assert target == 0

    def test_basic_query(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        target, sq = nearest(index, (1.0, 0.0, 0.0))
        assert (target, sq) == (0, 1.0)

    def test_exact_hit_has_zero_distance(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        assert nearest(index, (10.0, 0.0, 0.0)) == (1, 0.0)

    def test_tie_breaks_to_lowest_index(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0], [10.0, 0.0, 0.0]]))
        target, sq = nearest(index, (5.0, 0.0, 0.0))
        assert (target, sq) == (0, 25.0)

    def test_duplicate_points_query_on_duplicate(self):
        index = build_index(PointCloud([[5.0, 5.0, 5.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]))
        assert nearest(index, (1.0, 1.0, 1.0)) == (1, 0.0)


class TestMatchCorrespondences:
    def test_same_cloud_matches_identically(self):
        rng = np.random.default_rng(0)
        cloud = box_cloud(rng, 100)
        pairs = match_correspondences(build_index(cloud), cloud)
        np.testing.assert_array_equal(pairs.target_indices, np.arange(100))
        np.testing.assert_array_equal(pairs.squared_distances, np.zeros(100))

    def test_many_to_one(self):
        model = PointCloud([[0.0, 0.0, 0.0]])
        moving = PointCloud([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 3.0]])
        pairs = match_correspondences(build_index(model), moving)
        np.testing.assert_array_equal(pairs.target_indices, [0, 0, 0])
        np.testing.assert_array_equal(pairs.squared_distances, [1.0, 4.0, 9.0])

    def test_covers_every_moving_point(self):
        rng = np.random.default_rng(1)
        model = box_cloud(rng, 700)
        moving = box_cloud(rng, 500)
        pairs = match_correspondences(build_index(model), moving)
        assert len(pairs) == len(moving)
        assert pairs.target_indices.shape == pairs.squared_distances.shape == (500,)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(2)
        model = box_cloud(rng, 700)
        moving = box_cloud(rng, 500)
        pairs = match_correspondences(build_index(model), moving)
        idx, sq = linear_scan(model.xyz, moving.xyz)
        np.testing.assert_array_equal(pairs.target_indices, idx)
        np.testing.assert_array_equal(pairs.squared_distances, sq)


class TestExactness:
    @pytest.mark.parametrize("n_model", [50, 256, 257, 2000])
    def test_identical_to_linear_scan(self, n_model):
        rng = np.random.default_rng(3)
        model = box_cloud(rng, n_model)
        queries = box_cloud(rng, 300)
        index = build_index(model)
        idx, sq = index.query_batch(queries.xyz)
        oracle_idx, oracle_sq = linear_scan(model.xyz, queries.xyz)
        np.testing.assert_array_equal(idx, oracle_idx)
        np.testing.assert_array_equal(sq, oracle_sq)

    def test_engineered_ties_on_tree_path(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1000, (400, 3))
        # exact duplicates and a symmetric pair around an integer midpoint
        pts[50] = pts[10]
        pts[300] = pts[10]
        pts[60] = [0.0, 0.0, 0.0]
        pts[70] = [10.0, 0.0, 0.0]
        model = PointCloud(pts)
        index = build_index(model)
        assert index._tree is not None  # must exercise the tree path
        queries = np.vstack([pts[10][None, :], [[5.0, 0.0, 0.0]], rng.uniform(0, 1000, (200, 3))])
        idx, sq = index.query_batch(queries)
        oracle_idx, oracle_sq = linear_scan(pts, queries)
        np.testing.assert_array_equal(idx, oracle_idx)
        np.testing.assert_array_equal(sq, oracle_sq)
        assert idx[0] == 10 and sq[0] == 0.0
        assert idx[1] == 60

    def test_grid_ties_on_tree_path(self):
        # integer lattice: every interior midpoint is a multi-way exact tie
        axis = np.arange(8, dtype=np.float64) * 2.0
        gx, gy, gz = np.meshgrid(axis, axis, axis, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel(), gz.ravel()])
        index = build_index(PointCloud(pts))
        assert index._tree is not None
        rng = np.random.default_rng(5)
        queries = np.vstack([
            pts[:64] + 1.0,  # centre of a lattice cell: 8-way tie
            rng.uniform(0.0, 14.0, (100, 3)),
        ])
        idx, sq = index.query_batch(queries)
        oracle_idx, oracle_sq = linear_scan(pts, queries)
        np.testing.assert_array_equal(idx, oracle_idx)
        np.testing.assert_array_equal(sq, oracle_sq)


@st.composite
def lattice_case(draw):
    """A model on an integer lattice and queries on the half-integer lattice
    around it, scaled and offset; cell centres and edge midpoints are
    multi-way exact ties before scaling and near-ties after it."""
    extent = draw(st.integers(1, 4))
    n_model = draw(st.integers(1, 300))
    n_query = draw(st.integers(1, 40))
    model = draw(arrays(np.int64, (n_model, 3), elements=st.integers(-extent, extent)))
    halves = draw(arrays(np.int64, (n_query, 3), elements=st.integers(-2 * extent - 2, 2 * extent + 2)))
    scale = draw(st.floats(1e-3, 1e4))
    offset = np.array(draw(st.tuples(*[st.floats(-1e4, 1e4)] * 3)))
    return model * scale + offset, (halves / 2.0) * scale + offset


class TestExactnessProperty:
    @settings(max_examples=300, deadline=None)
    @given(lattice_case())
    def test_tree_equals_linear_scan_on_tie_lattices(self, case):
        model, queries = case
        idx, sq = build_index(PointCloud(model)).query_batch(queries)
        oracle_idx, oracle_sq = linear_scan(model, queries)
        # first-occurrence argmin: equal distances go to the lowest index
        np.testing.assert_array_equal(idx, oracle_idx)
        assert sq.tobytes() == oracle_sq.tobytes()


class TestValidation:
    def test_empty_model_rejected(self):
        with pytest.raises(InvalidInputError):
            PointCloud(np.zeros((0, 3)))

    def test_build_index_requires_cloud(self):
        with pytest.raises(InvalidInputError):
            build_index(np.zeros((3, 3)))

    def test_correspondence_set_validation(self):
        with pytest.raises(InvalidInputError):
            CorrespondenceSet(np.array([0, 1]), np.array([1.0]))
        with pytest.raises(InvalidInputError):
            CorrespondenceSet(np.array([], dtype=np.int64), np.array([]))
        with pytest.raises(InvalidInputError):
            CorrespondenceSet(np.array([0]), np.array([-1.0]))

    def test_query_batch_shape_check(self):
        index = build_index(PointCloud([[0.0, 0.0, 0.0]]))
        with pytest.raises(InvalidInputError):
            index.query_batch(np.zeros((3, 2)))


class TestNeighbourCertificates:
    def test_a_tie_among_kept_points_is_not_certified(self):
        # From (0.5, 0, 0) the model points 0 and 1 tie, and the tree lists
        # point 1 first; the lowest-index rule wants point 0.
        model = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 3.0, 0.0], [0.5, -3.0, 0.0],
                          [0.5, 0.0, 3.0], [0.5, 0.0, -3.0]])
        index = build_index(PointCloud(model))
        placed = np.array([[0.5, 0.0, 0.0]])
        cache = _NeighbourCache([index], [0], 1)
        tree_round(cache, placed, certify=False)
        certified, _ = certificate(cache, placed)
        assert not certified[0]
        matched, _, sent = tree_round(cache, placed, certify=True)
        assert sent == 1
        np.testing.assert_array_equal(matched[:, 0], model[0])


class TestOverflow:
    # Five model points, four within 1.4e154 of the origin: the fourth
    # nearest distance from the origin squares past the float range.
    BIG = 1.4e154
    MODEL = np.array([[0.0, 0.0, 0.0], [0.0, BIG, 0.0], [0.0, -BIG, 0.0], [0.0, 0.0, BIG], [1.5e154, 0.0, 0.0]])

    def test_an_overflowing_kept_distance_raises(self):
        # An infinite kept distance would certify any later match, such as
        # the kept origin from (1e154, 0, 0), where point 4 is nearer.
        cache = _NeighbourCache([build_index(PointCloud(self.MODEL))], [0], 1)
        with pytest.raises(NumericalError, match="overflows"):
            tree_round(cache, np.zeros((1, 3)), certify=False)

    def test_an_overflowing_second_distance_keeps_the_exact_match(self):
        index = build_index(PointCloud(self.MODEL[[0, 4]]))
        idx, sq = index.query_batch(np.zeros((1, 3)))
        assert idx[0] == 0 and sq[0] == 0.0
        pairs = match_correspondences(index, PointCloud(np.zeros((1, 3))))
        assert pairs.target_indices[0] == 0 and pairs.squared_distances[0] == 0.0

    def test_an_overflowing_nearest_distance_raises(self):
        # No finite ball around the origin holds a candidate for the re-rank.
        index = build_index(PointCloud(self.MODEL[[1, 4]]))
        with pytest.raises(NumericalError, match="overflows"):
            index.query_batch(np.zeros((1, 3)))

    @pytest.mark.parametrize("size", [1, _CACHE_NEIGHBOURS - 1, _CACHE_NEIGHBOURS])
    def test_missing_neighbours_of_a_small_model_are_no_overflow(self, size):
        # The tree reports the neighbours a model lacks at an infinite distance.
        index = build_index(PointCloud(self.MODEL[:size] / self.BIG))
        cache = _NeighbourCache([index], [0], 1)
        placed = np.array([[0.5, 0.0, 0.0]])
        _, squared, sent = tree_round(cache, placed, certify=False)
        assert sent == 1 and squared[0] == 0.25
        assert np.isinf(cache.limits[0])
        idx, sq = index.query_batch(placed)
        assert idx[0] == 0 and sq[0] == 0.25


def tree_round(cache, placed, certify):
    """One matching round of a single-model cache over the placements (m, 3)."""
    matched = np.empty((3, len(placed)))
    squared, sent = cache.match(np.ascontiguousarray(placed.T), np.array([0]), np.array([0]), certify, matched)
    return matched, squared, int(sent[0])


def certificate(cache, placed):
    """The cache's certificate at the placements (m, 3): (certified mask,
    pool id of each certified point's nearest model point)."""
    return cache._certify(np.ascontiguousarray(placed.T), np.empty((3, len(placed))))


@st.composite
def certificate_case(draw):
    """A model on an integer lattice, first placements on the half-integer
    lattice around it, and a rigid step of the placements: a rotation and a
    translation along a lattice direction, from none through 1e-9 up to
    several lattice spacings. Half-integer steps keep the exact ties of the
    lattice; everything is then scaled and offset."""
    k = _CACHE_NEIGHBOURS
    n_model = draw(st.one_of(st.sampled_from([1, 2, k - 1, k, k + 1]), st.integers(1, 300)))
    extent = draw(st.integers(1, 4))
    n_query = draw(st.integers(1, 40))
    model = draw(arrays(np.int64, (n_model, 3), elements=st.integers(-extent, extent)))
    halves = draw(arrays(np.int64, (n_query, 3), elements=st.integers(-2 * extent - 2, 2 * extent + 2)))
    direction = np.array(draw(st.tuples(*[st.integers(-2, 2)] * 3)), dtype=np.float64)
    step = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
                          st.floats(-9.0, 0.5).map(lambda e: 10.0 ** e)))
    angle = draw(st.one_of(st.just(0.0), st.floats(-9.0, -0.5).map(lambda e: 10.0 ** e)))
    axis = np.array(draw(st.tuples(*[st.integers(-3, 3)] * 3)), dtype=np.float64)
    scale = draw(st.floats(1e-3, 1e4))
    offset = np.array(draw(st.tuples(*[st.floats(-1e4, 1e4)] * 3)))
    first = halves / 2.0
    if angle and axis.any():
        rot = quaternion_to_rotation(UnitQuaternion.from_axis_angle(axis, angle))
        moved = first @ rot.T + step * direction
    else:
        moved = first + step * direction
    return model * scale + offset, first * scale + offset, moved * scale + offset


class TestCertificateProperty:
    @settings(max_examples=300, deadline=None)
    @given(certificate_case())
    def test_certified_matches_equal_a_fresh_query(self, case):
        model, first, moved = case
        index = build_index(PointCloud(model))
        cache = _NeighbourCache([index], [0], len(first))
        tree_round(cache, first, certify=False)
        # Every model point that is not kept lies beyond the kept bound, by
        # more than the rounding of a float distance (about 4e-16, relative).
        for r, p0 in enumerate(first):
            d = model - p0
            distance = np.sqrt((d * d).sum(axis=1))
            outside = np.setdiff1d(np.arange(len(model)), cache.ids[:, r])
            assert (distance[outside] * (1.0 - 1e-15) >= cache.limits[r]).all()
        certified, nearest = certificate(cache, moved)
        idx, sq = index.query_batch(moved)
        np.testing.assert_array_equal(nearest[certified], idx[certified])
        matched, squared, sent = tree_round(cache, moved, certify=True)
        assert squared.tobytes() == sq.tobytes()
        assert matched.tobytes() == np.ascontiguousarray(model[idx].T).tobytes()
        assert sent == len(moved) - certified.sum()


class TestMultiModelMatcher:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_point_matches_its_own_model(self, seed):
        rng = np.random.default_rng(40 + seed)
        clouds = [box_cloud(rng, n) for n in (1, 60, _CACHE_NEIGHBOURS, 300)]
        models = [build_index(c) for c in clouds]
        # Model 1 is not used, so the pool offsets of models 2 and 3 skip it.
        used = [0, 2, 3]
        model_of = np.array([0, 0, 2, 3, 3])
        sizes = np.array([5, 1, 17, 40, 23])
        starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])
        owner = np.repeat(model_of, sizes)
        first = rng.uniform(0.0, 1000.0, (sizes.sum(), 3))
        step = quaternion_to_rotation(UnitQuaternion.from_axis_angle(rng.normal(size=3), 1e-3))
        moved = first @ step.T + rng.uniform(-0.5, 0.5, 3)
        cache = _NeighbourCache(models, used, len(first))
        certified = np.zeros(len(first), dtype=bool)
        for placed, again in ((first, False), (moved, True)):
            if again:
                certified, _ = certificate(cache, placed)
            matched = np.empty((3, len(placed)))
            squared, sent = cache.match(np.ascontiguousarray(placed.T), starts, model_of, again, matched)
            for j in used:
                rows = owner == j
                idx, sq = models[j].query_batch(placed[rows])
                assert matched[:, rows].tobytes() == np.ascontiguousarray(clouds[j].xyz[idx].T).tobytes()
                assert squared[rows].tobytes() == sq.tobytes()
            np.testing.assert_array_equal(sent, np.add.reduceat((~certified).astype(np.int64), starts))
        # The certified round reached every model, and the 1-point model's
        # missing neighbours point at the sentinel column at infinity.
        assert all(certified[owner == j].any() for j in used)
        assert (cache.ids[1:, owner == 0] == cache.pool.shape[1] - 1).all()
        assert np.isinf(cache.pool[:, -1]).all()
