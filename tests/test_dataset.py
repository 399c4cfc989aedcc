import numpy as np
import pytest

from logmatch import (
    Dataset,
    InvalidInputError,
    LogRecord,
    ProductBasket,
    SplitSpec,
    drop_empty,
    split,
    split_indices,
)
from synthdata import box_cloud


def make_dataset(n, width=2, empties=()):
    rng = np.random.default_rng(100 + n)
    records = []
    for i in range(n):
        quantities = (0,) * width if i in empties else (i + 1, 0) + (0,) * (width - 2)
        records.append(LogRecord(f"log{i}", box_cloud(rng, 5), ProductBasket(quantities)))
    return Dataset(tuple(records), tuple(f"p{j}" for j in range(width)))


def ids(ds):
    return tuple(rec.id for rec in ds.records)


class TestDataset:
    def test_rejects_duplicate_ids(self):
        rng = np.random.default_rng(0)
        rec = LogRecord("a", box_cloud(rng, 5), ProductBasket((1,)))
        with pytest.raises(InvalidInputError):
            Dataset((rec, rec), ("p1",))

    def test_rejects_ragged_baskets(self):
        rng = np.random.default_rng(1)
        records = (
            LogRecord("a", box_cloud(rng, 5), ProductBasket((1,))),
            LogRecord("b", box_cloud(rng, 5), ProductBasket((1, 2))),
        )
        with pytest.raises(InvalidInputError):
            Dataset(records, ("p1",))

    def test_product_names_required(self):
        rng = np.random.default_rng(2)
        rec = LogRecord("a", box_cloud(rng, 5), ProductBasket((1, 2)))
        with pytest.raises(InvalidInputError, match="at least one product name"):
            Dataset((rec,), ())
        with pytest.raises(InvalidInputError, match="at least one product name"):
            Dataset((), ())


class TestSplit:
    def test_sixty_forty_sizes(self):
        ds = make_dataset(10)
        train, test = split(ds, SplitSpec(train_fraction=0.6, seed=1, runs=1), 0)
        assert (len(train), len(test)) == (6, 4)

    def test_exact_fraction_floor(self):
        # 5 x 0.6 must floor to 3 despite 0.6 being inexact in binary
        ds = make_dataset(5)
        train, test = split(ds, SplitSpec(train_fraction=0.6, seed=1, runs=1), 0)
        assert (len(train), len(test)) == (3, 2)

    def test_deterministic_for_fixed_seed(self):
        ds = make_dataset(50)
        spec = SplitSpec(seed=7, runs=3)
        first = split(ds, spec, 2)
        second = split(ds, spec, 2)
        assert ids(first[0]) == ids(second[0])
        assert ids(first[1]) == ids(second[1])

    def test_fixed_seed_regression(self):
        # frozen at first run: PCG64 seeded with (42, run)
        spec = SplitSpec(train_fraction=0.6, seed=42, runs=10)
        train0, test0 = split_indices(10, spec, 0)
        assert train0.tolist() == [5, 6, 0, 7, 3, 2]
        assert test0.tolist() == [4, 9, 1, 8]
        train1, _ = split_indices(10, spec, 1)
        assert train1.tolist() == [0, 8, 7, 4, 3, 1]

    def test_runs_differ(self):
        spec = SplitSpec(seed=42, runs=10)
        train0, _ = split_indices(100, spec, 0)
        train1, _ = split_indices(100, spec, 1)
        assert train0.tolist() != train1.tolist()

    def test_partition_property(self):
        ds = make_dataset(37)
        for run in range(5):
            train, test = split(ds, SplitSpec(train_fraction=0.31, seed=9, runs=5), run)
            train_ids = set(ids(train))
            test_ids = set(ids(test))
            assert not train_ids & test_ids
            assert train_ids | test_ids == set(ids(ds))

    def test_run_index_bounds(self):
        ds = make_dataset(10)
        with pytest.raises(InvalidInputError):
            split(ds, SplitSpec(runs=3), 3)

    def test_too_small_dataset(self):
        ds = make_dataset(1)
        with pytest.raises(InvalidInputError):
            split(ds, SplitSpec(), 0)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(InvalidInputError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(InvalidInputError):
            SplitSpec(runs=0)
        with pytest.raises(InvalidInputError):
            SplitSpec(seed=-1)


class TestDropEmpty:
    def test_removes_all_zero_baskets(self):
        ds = make_dataset(6, empties={1, 4})
        kept = drop_empty(ds)
        assert len(kept) == 4
        assert all(not rec.basket.is_empty() for rec in kept.records)

    def test_no_empties_unchanged(self):
        ds = make_dataset(6)
        assert ids(drop_empty(ds)) == ids(ds)

    def test_idempotent(self):
        ds = make_dataset(9, empties={0, 2, 5})
        once = drop_empty(ds)
        twice = drop_empty(once)
        assert ids(once) == ids(twice)

    def test_synthetic_mimic_counts(self):
        # 1207-record mimic with 736 known empties leaves 471
        rng = np.random.default_rng(3)
        empties = set(rng.choice(1207, 736, replace=False).tolist())
        records = []
        cloud = box_cloud(rng, 5)
        for i in range(1207):
            quantities = (0, 0) if i in empties else (1 + int(rng.integers(0, 4)), 0)
            records.append(LogRecord(f"log{i}", cloud, ProductBasket(quantities)))
        ds = Dataset(tuple(records), ("p1", "p2"))
        assert len(drop_empty(ds)) == 471
