"""Dataset assembly, empty-basket filtering and repeatable train/test splits.

Partitions are drawn from PCG64, implemented here in pure Python and seeded
from (seed, run_index), so that a split can be reproduced bit-for-bit on any
machine and with any numpy release. The stream is pinned to the one that
numpy 2.4's default_rng([seed, run_index]).permutation(n) gives: SeedSequence
pool mixing, PCG64's XSL-RR output, 32-bit draws taken low half first,
numpy's masked-rejection bounded draw and a Fisher-Yates shuffle. So no
logmatch module imports numpy's random package, and `experiment` and `split`
never load it, nor the secrets, hashlib and _hashlib modules it brings in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, _instance, _integer, _items, _real
from .predictor import LogRecord


@dataclass(frozen=True, eq=False)
class Dataset:
    """An immutable collection of log records whose baskets each hold one
    quantity per product name, in the order of product_names."""

    records: tuple[LogRecord, ...]
    product_names: tuple[str, ...]

    def __post_init__(self) -> None:
        records = _items("records", self.records, LogRecord)
        names = _items("product_names", self.product_names, str)
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
        fraction = _real("train_fraction", self.train_fraction, 0.0, 1.0, strict=True)
        object.__setattr__(self, "train_fraction", fraction)
        object.__setattr__(self, "seed", _integer("seed", self.seed, 0, 2**64))
        object.__setattr__(self, "runs", _integer("runs", self.runs, 1))


def split_indices(n: int, spec: SplitSpec, run_index: int) -> tuple[np.ndarray, np.ndarray]:
    """Record indices of the (train, test) partition for one run.

    The permutation comes from a generator seeded with (spec.seed,
    run_index), so the same pair always yields the same partition; the
    first floor(n * train_fraction) shuffled indices are the training set.
    """
    run_index = _integer("run_index", run_index, 0, _instance("spec", spec, SplitSpec).runs)
    n = _integer("n", n, 2)
    order = _permutation(n, (spec.seed, run_index))
    # Guard the floor against representation error of fractions like 0.6.
    n_train = int(math.floor(n * spec.train_fraction + 1e-9))
    return order[:n_train], order[n_train:]


_M32 = 0xFFFFFFFF
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1
_PCG_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645


def _pcg64_seed(entropy: tuple[int, ...]) -> tuple[int, int]:
    """The (state, increment) of numpy's PCG64 seeded with
    SeedSequence(entropy), for non-negative ints: each int enters the pool
    as its little-endian 32-bit words, 0 as one zero word."""
    words = []
    for value in entropy:
        words.append(value & _M32)
        while value := value >> 32:
            words.append(value & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return result ^ result >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    # generate_state(4, uint64): eight 32-bit words, paired low word first.
    hash_const = 0x8B51F9DD
    state = []
    for k in range(8):
        value = pool[k % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    seed = [state[k] | state[k + 1] << 32 for k in range(0, 8, 2)]
    init_state, init_seq = seed[0] << 64 | seed[1], seed[2] << 64 | seed[3]

    # PCG's set-sequence seeding: step, add the initial state, step again.
    increment = (init_seq << 1 | 1) & _M128
    pcg = (increment + init_state) & _M128
    return (pcg * _PCG_MULTIPLIER + increment) & _M128, increment


def _intervals(state: int, increment: int, tops):
    """numpy's random_interval draw from PCG64 for each top >= 1 in turn: a
    uniform int in [0, top] by masked rejection, from 32-bit draws when top
    fits in 32 bits and 64-bit draws otherwise. Each 64-bit output (XSL-RR
    of the advanced 128-bit state) serves two 32-bit draws, low half first;
    a 64-bit draw leaves a pending high half in place."""
    spare = None
    for top in tops:
        mask = (1 << top.bit_length()) - 1
        while True:
            if top <= _M32 and spare is not None:
                value, spare = spare, None
            else:
                state = (state * _PCG_MULTIPLIER + increment) & _M128
                folded = (state >> 64 ^ state) & _M64
                turn = state >> 122
                value = (folded >> turn | folded << (64 - turn)) & _M64
                if top <= _M32:
                    value, spare = value & _M32, value >> 32
            value &= mask
            if value <= top:
                break
        yield value


def _permutation(n: int, entropy: tuple[int, ...]) -> np.ndarray:
    """numpy 2.4's default_rng(list(entropy)).permutation(n), bit for bit:
    a Fisher-Yates shuffle of range(n) from the last index down to 1, as an
    int64 array."""
    order = list(range(n))
    tops = range(n - 1, 0, -1)
    for i, j in zip(tops, _intervals(*_pcg64_seed(entropy), tops)):
        order[i], order[j] = order[j], order[i]
    return np.array(order, dtype=np.int64)


def drop_empty(ds: Dataset) -> Dataset:
    """Remove records whose basket is all-zero (logs yielding only chips)."""
    kept = tuple(rec for rec in _instance("ds", ds, Dataset).records if not rec.basket.is_empty())
    return Dataset(kept, ds.product_names)
