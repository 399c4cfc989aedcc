import numpy as np
import pytest

from logmatch import (
    Dataset,
    InvalidInputError,
    LogRecord,
    ProductBasket,
    SplitSpec,
    drop_empty,
    split_indices,
)
from logmatch import dataset
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

    @pytest.mark.parametrize("names", [("p1", "p1"), ("p1", ""), ("", "p2"), (" ", "p2")])
    def test_product_names_distinct_and_non_empty(self, names):
        rng = np.random.default_rng(3)
        rec = LogRecord("a", box_cloud(rng, 5), ProductBasket((1, 2)))
        with pytest.raises(InvalidInputError, match="product names must be distinct and non-empty"):
            Dataset((rec,), names)


class TestSplit:
    def test_sixty_forty_sizes(self):
        train, test = split_indices(10, SplitSpec(train_fraction=0.6, seed=1, runs=1), 0)
        assert (len(train), len(test)) == (6, 4)

    def test_exact_fraction_floor(self):
        # 5 x 0.6 must floor to 3 despite 0.6 being inexact in binary
        train, test = split_indices(5, SplitSpec(train_fraction=0.6, seed=1, runs=1), 0)
        assert (len(train), len(test)) == (3, 2)

    def test_deterministic_for_fixed_seed(self):
        spec = SplitSpec(seed=7, runs=3)
        first = split_indices(50, spec, 2)
        second = split_indices(50, spec, 2)
        assert first[0].tolist() == second[0].tolist()
        assert first[1].tolist() == second[1].tolist()

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
        for run in range(5):
            train, test = split_indices(37, SplitSpec(train_fraction=0.31, seed=9, runs=5), run)
            train_ids = set(train.tolist())
            test_ids = set(test.tolist())
            assert len(train_ids) == len(train) and len(test_ids) == len(test)
            assert not train_ids & test_ids
            assert train_ids | test_ids == set(range(37))

    def test_run_index_bounds(self):
        with pytest.raises(InvalidInputError):
            split_indices(10, SplitSpec(runs=3), 3)

    def test_too_small_dataset(self):
        with pytest.raises(InvalidInputError):
            split_indices(1, SplitSpec(), 0)

    def test_spec_validation(self):
        with pytest.raises(InvalidInputError):
            SplitSpec(train_fraction=0.0)
        with pytest.raises(InvalidInputError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(InvalidInputError):
            SplitSpec(runs=0)
        with pytest.raises(InvalidInputError):
            SplitSpec(seed=-1)
        for kwargs in ({"seed": 1.7}, {"seed": 1.0}, {"seed": True}, {"seed": np.float64(2.0)}, {"seed": "1"},
                       {"seed": 2**64}, {"runs": 2.5}, {"runs": 2.0}, {"runs": np.True_}, {"runs": np.int64(0)}):
            with pytest.raises(InvalidInputError):
                SplitSpec(**kwargs)

    def test_spec_accepts_numpy_integers(self):
        spec = SplitSpec(seed=np.uint64(2**64 - 1), runs=np.int16(3))
        assert type(spec.seed) is int and spec.seed == 2**64 - 1
        assert type(spec.runs) is int and spec.runs == 3
        reference = SplitSpec(seed=2**64 - 1, runs=3)
        assert spec == reference
        for run in range(3):
            for got, want in zip(split_indices(20, spec, run), split_indices(20, reference, run)):
                np.testing.assert_array_equal(got, want)


def shuffled(n, seed, run):
    """The whole permutation behind run's split: its train then test indices."""
    return np.concatenate(split_indices(n, SplitSpec(seed=seed, runs=run + 1), run))


class TestSplitStream:
    """Splits come from logmatch's own PCG64, pinned to the stream of numpy
    2.4's np.random.default_rng([seed, run]).permutation(n)."""

    @pytest.mark.parametrize("seed, run, want", [
        (2**64 - 1, 0, [0, 1]),
        (2**64 - 1, 1, [1, 0]),
        (3, 0, [1, 0]),
        (0, 0, [2, 0, 1]),
        (7, 4, [6, 7, 3, 10, 5, 1, 8, 11, 4, 2, 9, 0]),
        (2**64 - 1, 9, [7, 13, 21, 5, 2, 22, 9, 4, 10, 3, 11, 17, 12, 0, 1, 8, 15, 19, 16, 20, 14, 6, 18]),
        (2**32, 1, [12, 31, 24, 9, 4, 15, 23, 33, 20, 34, 19, 6, 39, 14, 22, 29, 37, 41, 40, 10, 28,
                    27, 26, 32, 2, 38, 11, 30, 7, 18, 16, 5, 13, 0, 36, 25, 8, 1, 17, 35, 3, 21]),
    ])
    def test_golden_permutations(self, seed, run, want):
        # Written out, so the stream holds whatever numpy is installed.
        assert shuffled(len(want), seed, run).tolist() == want

    @pytest.mark.parametrize("n", [2, 3, 37, 42, 60, 210, 1_000, 65_537, 100_000])
    def test_matches_numpy(self, n):
        for seed in (0, 1, 42, 2**32 - 1, 2**32, 2**64 - 1):
            for run in (0, 1, 9):
                want = np.random.default_rng([seed, run]).permutation(n)
                np.testing.assert_array_equal(shuffled(n, seed, run), want)

    def test_matches_numpy_past_the_seed_pool(self):
        # Five or more 32-bit entropy words overflow SeedSequence's pool of
        # four, which then mixes in the rest word by word.
        for seed in (3, 2**64 - 1):
            for run in (2**32, 2**64 + 5, 2**69):
                want = np.random.default_rng([seed, run]).permutation(60)
                got = np.concatenate(split_indices(60, SplitSpec(seed=seed, runs=2**70), run))
                np.testing.assert_array_equal(got, want)

    def test_indices_are_int64(self):
        for part in split_indices(7, SplitSpec(seed=5, runs=2), 1):
            assert part.dtype == np.int64

    @pytest.mark.parametrize("seed", [0, 42, 2**64 - 1])
    def test_bounded_draws_above_32_bits(self, seed):
        # A permutation reaches 64-bit draws only past 2**32 entries, so the
        # draws are checked directly against numpy's masked bounded ints,
        # mixed with 32-bit ones that must keep a pending high half.
        tops = [2**40, 2**33 + 1, 7, 2**35, 3, 2**32 - 1, 2**32, 2**64 - 1, 2**63 + 1, 1, 2**32 - 2] * 5
        legacy = np.random.RandomState(np.random.PCG64([seed, 1]))
        want = [int(legacy.randint(0, top + 1, dtype=np.uint64)) for top in tops]
        assert list(dataset._intervals(*dataset._pcg64_seed((seed, 1)), tops)) == want


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
