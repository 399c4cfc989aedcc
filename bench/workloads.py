"""Seeded input generators and the command line of each benchmark workload.

Every workload writes scans, manifests and basket tables into a fresh
directory, so the program under test receives only files. The fixed-size
clustered data reuses the generators in ``tests/synthdata.py``; this module
adds only the variable-size, mixed-format variant.

Variable scan sizes follow a fixed layout: they are spread log-uniformly
over the stated range and dealt to the clusters the same way for every
seed, which decides only shapes, poses and the sampled points. Which pairs
of sizes meet within a cluster drives how long ICP iterates, so a shuffled
layout would make the work per command, and its timing, swing with the
seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from logmatch import PointCloud
from logmatch.io import write_scan
from synthdata import distinct_baskets, jittered_copy, prototype_dataset, write_dataset_files

# Inputs are drawn from a pool of data seeds; the recorded reference
# predictions cover every member of the pool.
DATA_SEEDS = 16
BASKET_WIDTH = 19
FORMATS = ("xyz", "csv", "ply")


@dataclass(frozen=True)
class Inputs:
    """Files of one generated workload."""

    manifest: Path  # full dataset (experiment) or training set (predict)
    test_manifest: Path | None  # predict only
    test_logs: int  # test logs predicted per run


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str  # logmatch sub-command: experiment or predict
    predictor: str  # primary predictor, whose s_z is reported
    runs: int  # experiment runs; 1 for predict
    train_frac: str  # experiment --train-frac
    scales_jobs: bool  # timed at --jobs nproc instead of --jobs 1
    tag: int  # keeps the workloads' random streams apart
    icp_flags: tuple[str, ...] = ()  # alignment flags of every command

    def argv(self, inputs: Inputs, output: Path, jobs: int) -> list[str]:
        """The logmatch arguments that run this workload."""
        if self.command == "predict":
            return ["predict", str(inputs.manifest), str(inputs.test_manifest),
                    "--predictor", self.predictor, *self.icp_flags, "--jobs", str(jobs), "--output", str(output)]
        return ["experiment", str(inputs.manifest), "--predictor", f"{self.predictor},mean",
                *self.split_flags(), *self.icp_flags, "--jobs", str(jobs), "--output", str(output)]

    def split_flags(self) -> list[str]:
        return ["--runs", str(self.runs), "--train-frac", self.train_frac, "--seed", str(SPLIT_SEED)]

    def generate(self, root: Path, seed: int) -> Inputs:
        """Write this workload's inputs for a seed under root."""
        rng = np.random.default_rng([STREAM_TAG, self.tag, seed % DATA_SEEDS])
        return _GENERATORS[self.name](root, rng)


STREAM_TAG = 20171022
SPLIT_SEED = 7

WORKLOADS = {
    w.name: w
    for w in (
        Workload("experiment-icp48",
                 "many cheap ICP alignments of 48-point clouds; pairs repeat across runs",
                 "experiment", "icp", runs=5, train_frac=str(5 / 7), scales_jobs=False, tag=1),
        Workload("predict-mixed",
                 "ICP at realistic, variable scan sizes through the process pool",
                 "predict", "icp", runs=1, train_frac="", scales_jobs=True, tag=2,
                 # Large scans aligned onto the smallest models dominate the
                 # time; capped, they end at the same iteration for every
                 # seed instead of at a seed-dependent convergence point.
                 icp_flags=("--max-iters", "20")),
        Workload("experiment-knn",
                 "no ICP: scan parsing in three formats and feature extraction",
                 "experiment", "knn", runs=10, train_frac="0.6", scales_jobs=False, tag=3),
    )
}


def spread_sizes(count: int, low: int, high: int) -> list[int]:
    """count sizes spread log-uniformly over [low, high], ascending."""
    return [int(n) for n in np.rint(np.exp(np.linspace(math.log(low), math.log(high), count)))]


def cluster_sizes(prototypes: int, copies: int, low: int, high: int) -> list[int]:
    """One size per log, prototype-major: prototype p gets the p-th,
    (p + prototypes)-th, ... smallest spread size, so every cluster spans
    the whole range."""
    sizes = spread_sizes(prototypes * copies, low, high)
    return [sizes[p + c * prototypes] for p in range(prototypes) for c in range(copies)]


def sample_log_surface(rng: np.random.Generator, shape: tuple[float, ...], n: int) -> PointCloud:
    """n points on a wobbly tube; shape = (length, radius, frequency, phase).

    Copies of one shape sampled at different sizes model repeated scans of
    the same log at different scanner densities.
    """
    length, radius, frequency, phase = shape
    s = rng.uniform(-length / 2.0, length / 2.0, n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    r = radius * (1.0 + 0.3 * np.sin(s / length * frequency + phase))
    return PointCloud(np.column_stack([s, r * np.cos(theta), r * np.sin(theta)]))


def stratified_shapes(rng: np.random.Generator, count: int) -> list[tuple[float, ...]]:
    """count log shapes whose lengths and radii are spread evenly over the
    ranges of synthdata.log_like_cloud and paired at random."""
    lengths = rng.permutation(np.linspace(600.0, 1400.0, count))
    radii = rng.permutation(np.linspace(60.0, 160.0, count))
    return [(float(length), float(radius), rng.uniform(2.0, 6.0), rng.uniform(0.0, 2.0 * np.pi))
            for length, radius in zip(lengths, radii)]


def variable_size_dataset(
    rng: np.random.Generator,
    n_prototypes: int,
    copies: int,
    sizes: list[int],
) -> list[tuple[str, PointCloud, object]]:
    """Clustered dataset whose copies differ in size as well as in pose.

    Per prototype, `copies` jittered rigid copies share one distinct basket;
    the k-th log overall gets sizes[k] points. Entries are (id, scan, basket).
    """
    if len(sizes) != n_prototypes * copies:
        raise ValueError("one size per log is required")
    baskets = distinct_baskets(rng, n_prototypes, BASKET_WIDTH)
    entries = []
    for pi, shape in enumerate(stratified_shapes(rng, n_prototypes)):
        for ci in range(copies):
            n = sizes[pi * copies + ci]
            entries.append((f"log{pi:02d}_{ci}", jittered_copy(rng, sample_log_surface(rng, shape, n)),
                            baskets[pi]))
    return entries


def write_mixed_dataset_files(root: Path, entries, name: str) -> Path:
    """As synthdata.write_dataset_files, but scan formats cycle xyz, csv, ply."""
    scans = root / f"{name}_scans"
    scans.mkdir(parents=True, exist_ok=True)
    names = [f"p{i + 1}" for i in range(len(entries[0][2]))]
    manifest_lines = ["id,scan_path"]
    basket_lines = ["id," + ",".join(names)]
    for k, (log_id, cloud, basket) in enumerate(entries):
        scan_path = scans / f"{log_id}.{FORMATS[k % len(FORMATS)]}"
        write_scan(cloud, scan_path)
        manifest_lines.append(f"{log_id},{scan_path.relative_to(root).as_posix()}")
        basket_lines.append(log_id + "," + ",".join(str(q) for q in basket.quantities))
    manifest = root / f"{name}.csv"
    manifest.write_text("\n".join(manifest_lines) + "\n", encoding="utf-8")
    (root / f"{name}.baskets.csv").write_text("\n".join(basket_lines) + "\n", encoding="utf-8")
    return manifest


def _icp48(root: Path, rng: np.random.Generator) -> Inputs:
    entries = prototype_dataset(rng, n_prototypes=6, train_copies=5, test_copies=2,
                                points=48, width=BASKET_WIDTH)
    return Inputs(write_dataset_files(root, entries), None, _test_count(len(entries), 5 / 7))


def _predict_mixed(root: Path, rng: np.random.Generator) -> Inputs:
    prototypes, train_copies = 5, 3
    train_sizes = cluster_sizes(prototypes, train_copies, 200, 3000)
    test_sizes = spread_sizes(prototypes, 200, 3000)
    sizes = []
    for pi in range(prototypes):
        sizes += train_sizes[pi * train_copies:(pi + 1) * train_copies] + [test_sizes[pi]]
    entries = variable_size_dataset(rng, prototypes, train_copies + 1, sizes)
    train = [e for k, e in enumerate(entries) if k % (train_copies + 1) < train_copies]
    test = [e for k, e in enumerate(entries) if k % (train_copies + 1) == train_copies]
    return Inputs(write_mixed_dataset_files(root, train, "train"),
                  write_mixed_dataset_files(root, test, "test"), len(test))


def _knn(root: Path, rng: np.random.Generator) -> Inputs:
    prototypes, copies = 5, 12
    entries = variable_size_dataset(rng, prototypes, copies,
                                    cluster_sizes(prototypes, copies, 300, 3000))
    return Inputs(write_mixed_dataset_files(root, entries, "data"), None, _test_count(len(entries), 0.6))


def _test_count(n: int, train_frac: float) -> int:
    """Test logs per run, as logmatch.dataset.split_indices sizes them."""
    return n - int(math.floor(n * train_frac + 1e-9))


_GENERATORS = {"experiment-icp48": _icp48, "predict-mixed": _predict_mixed, "experiment-knn": _knn}
