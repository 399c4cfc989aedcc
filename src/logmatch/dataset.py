"""Dataset assembly, empty-basket filtering and repeatable train/test splits.

Partitions are drawn with an explicitly seeded, portable generator (PCG64
behind numpy's default Generator, seeded from (seed, run_index)) so that a
split can be reproduced bit-for-bit on any machine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _integer
from .predictor import LogRecord


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable collection of log records whose baskets each hold one
    quantity per product name, in the order of product_names."""

    records: tuple[LogRecord, ...]
    product_names: tuple[str, ...]

    def __post_init__(self) -> None:
        records = tuple(self.records)
        names = tuple(self.product_names)
        object.__setattr__(self, "records", records)
        object.__setattr__(self, "product_names", names)
        if not names:
            raise InvalidInputError("a dataset needs at least one product name")
        seen = set()
        for rec in records:
            if rec.id in seen:
                raise InvalidInputError(f"duplicate log id {rec.id!r}")
            seen.add(rec.id)
            if len(rec.basket) != len(names):
                raise InvalidInputError(
                    f"log {rec.id!r} has basket length {len(rec.basket)}, expected {len(names)}"
                )

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
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, 2**64))
        object.__setattr__(self, "runs", _integer("runs", self.runs, 1))


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
    rng = np.random.default_rng([spec.seed, int(run_index)])
    order = rng.permutation(n)
    # Guard the floor against representation error of fractions like 0.6.
    n_train = int(math.floor(n * spec.train_fraction + 1e-9))
    return order[:n_train], order[n_train:]


def drop_empty(ds: Dataset) -> Dataset:
    """Remove records whose basket is all-zero (logs yielding only chips)."""
    kept = tuple(rec for rec in ds.records if not rec.basket.is_empty())
    return Dataset(kept, ds.product_names)
