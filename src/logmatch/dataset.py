"""Dataset assembly, empty-basket filtering and repeatable train/test splits.

Partitions are drawn with an explicitly seeded, portable generator (PCG64
behind numpy's default Generator, seeded from (seed, run_index)) so that a
split can be reproduced bit-for-bit on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError
from .predictor import LogRecord


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable collection of log records with a uniform basket width."""

    records: tuple[LogRecord, ...]
    product_count: int
    product_names: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        records = tuple(self.records)
        object.__setattr__(self, "records", records)
        seen = set()
        for rec in records:
            if rec.id in seen:
                raise InvalidInputError(f"duplicate log id {rec.id!r}")
            seen.add(rec.id)
            if len(rec.basket) != self.product_count:
                raise InvalidInputError(
                    f"log {rec.id!r} has basket length {len(rec.basket)}, expected {self.product_count}"
                )
        if self.product_count < 1:
            raise InvalidInputError(f"product_count must be >= 1, got {self.product_count!r}")
        if self.product_names is not None:
            names = tuple(self.product_names)
            if len(names) != self.product_count:
                raise InvalidInputError(
                    f"{len(names)} product names for {self.product_count} products"
                )
            object.__setattr__(self, "product_names", names)

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class SplitSpec:
    """How to partition a dataset into train and test sets, repeatedly."""

    train_fraction: float = 0.6
    seed: int = 0
    runs: int = 10

    def __post_init__(self) -> None:
        if not (0.0 < self.train_fraction < 1.0):
            raise InvalidInputError(f"train_fraction must be in (0, 1), got {self.train_fraction!r}")
        if not (0 <= int(self.seed) < 2**64):
            raise InvalidInputError(f"seed must be an unsigned 64-bit integer, got {self.seed!r}")
        if self.runs < 1:
            raise InvalidInputError(f"runs must be >= 1, got {self.runs!r}")


def split_indices(n: int, spec: SplitSpec, run_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Record indices of the (train, test) partition for one run.

    The permutation comes from a generator seeded with (spec.seed,
    run_index), so the same pair always yields the same partition; the
    first floor(n * train_fraction) shuffled indices are the training set.
    """
    if not (0 <= run_index < spec.runs):
        raise InvalidInputError(f"run_index must be in [0, {spec.runs}), got {run_index!r}")
    if n < 2:
        raise InvalidInputError(f"need at least 2 records to split, got {n}")
    rng = np.random.default_rng([int(spec.seed), int(run_index)])
    order = rng.permutation(n)
    # Guard the floor against representation error of fractions like 0.6.
    n_train = int(math.floor(n * spec.train_fraction + 1e-9))
    return order[:n_train], order[n_train:]


def split(ds: Dataset, spec: SplitSpec, run_index: int) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled partition for one run.

    The two parts are disjoint and jointly exhaustive; records appear in
    shuffled order within each part.
    """
    train_idx, test_idx = split_indices(len(ds), spec, run_index)
    train = tuple(ds.records[i] for i in train_idx)
    test = tuple(ds.records[i] for i in test_idx)
    return (
        Dataset(train, ds.product_count, ds.product_names),
        Dataset(test, ds.product_count, ds.product_names),
    )


def drop_empty(ds: Dataset) -> Dataset:
    """Remove records whose basket is all-zero (logs yielding only chips)."""
    kept = tuple(rec for rec in ds.records if not rec.basket.is_empty())
    return Dataset(kept, ds.product_count, ds.product_names)
