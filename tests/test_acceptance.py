"""Acceptance suite: one test per criterion, each printing a pass line.

Every criterion runs at its stated tolerance. The per-iteration error trace
type additionally enforces non-increase at construction time, so criterion 2
is checked on every trace produced anywhere in this suite, not only here.
"""

import math
import time

import numpy as np
import pytest

from logmatch import (
    IcpConfig,
    MetricConfig,
    PointCloud,
    ProductBasket,
    ScoredPair,
    TerminalReason,
    UnitQuaternion,
    apply_transform,
    area_score,
    augmented_hamming_distance,
    build_index,
    compute_registration,
    filter_pairs,
    hamming_distance,
    icp_align,
    match_correspondences,
    max_eigenvector,
    prediction_score,
    production_score,
    quaternion_to_rotation,
    zero_one,
)
from logmatch.cli import main
from synthdata import (
    box_cloud,
    prototype_dataset,
    random_axis,
    random_transform,
    rotation_angle,
    write_dataset_files,
)


def passed(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


def test_criterion_1_rigid_recovery():
    rng = np.random.default_rng(12345)
    started = time.perf_counter()
    for _ in range(100):
        cloud = box_cloud(rng, 500, size=1000.0)
        truth = random_transform(rng, math.radians(30), 100.0)
        model = apply_transform(truth, cloud)
        result, trace = icp_align(cloud, model, IcpConfig(max_iterations=50))
        assert result.mse <= 1e-12
        assert rotation_angle(result.transform.matrix(), truth.matrix()) <= 1e-6
        assert np.linalg.norm(result.transform.translation - truth.translation) <= 1e-6
        assert len(trace.iterations) <= 50
    elapsed = time.perf_counter() - started
    assert elapsed <= 60.0
    passed(1, f"rigid recovery, {elapsed:.1f}s")


def test_criterion_2_monotone_convergence():
    rng = np.random.default_rng(22222)
    for trial in range(100):
        if trial % 2 == 0:
            a = box_cloud(rng, 200)
            b = box_cloud(rng, 250)  # unrelated pair
        else:
            a = box_cloud(rng, 200)
            b = apply_transform(random_transform(rng, math.radians(25), 80.0), a)
        _, trace = icp_align(a, b)
        errors = trace.errors()
        assert (errors[1:] <= errors[:-1]).all()
        assert trace.terminal_reason in (TerminalReason.CONVERGED, TerminalReason.MAX_ITERATIONS)
    passed(2, "monotone convergence")


def test_criterion_3_closed_form_optimality():
    rng = np.random.default_rng(33333)
    for _ in range(50):
        moving = box_cloud(rng, 80)
        model = box_cloud(rng, 100)
        pairs = match_correspondences(build_index(model), moving)
        reg = compute_registration(moving, model, pairs)
        matched = model.xyz[pairs.target_indices]
        diameter = float(np.linalg.norm(moving.xyz.max(0) - moving.xyz.min(0)))
        r0 = reg.transform.matrix()
        t0 = reg.transform.translation
        for _ in range(1000):
            wiggle = quaternion_to_rotation(
                UnitQuaternion.from_axis_angle(random_axis(rng), rng.uniform(0.0, math.radians(10)))
            )
            rp = wiggle @ r0
            tp = wiggle @ t0 + rng.uniform(-0.1 * diameter, 0.1 * diameter, 3)
            diff = matched - (moving.xyz @ rp.T + tp)
            assert reg.mse <= (diff * diff).sum(axis=1).mean()
    passed(3, "closed-form optimality")


def test_criterion_4_eigen_solver():
    rng = np.random.default_rng(44444)
    for _ in range(1000):
        a = rng.normal(size=(4, 4))
        m = (a + a.T) / 2.0
        value, vector = max_eigenvector(m)
        assert np.linalg.norm(m @ vector - value * vector) <= 1e-9
        probes = rng.normal(size=(100, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        rayleigh = np.einsum("ij,jk,ik->i", probes, m, probes)
        assert value >= rayleigh.max() - 1e-12
    passed(4, "eigen solver")


def test_criterion_5_correspondence_exactness():
    rng = np.random.default_rng(55555)
    pts = rng.uniform(0.0, 1000.0, (10_000, 3))
    pts[123] = pts[45]          # exact duplicate
    pts[7000] = pts[45]         # triple
    pts[60] = [0.0, 0.0, 0.0]   # symmetric integer pair
    pts[61] = [10.0, 0.0, 0.0]
    model = PointCloud(pts)
    index = build_index(model)
    assert index._tree is not None
    queries = np.vstack([
        rng.uniform(0.0, 1000.0, (996, 3)),
        pts[45][None, :],
        [[5.0, 0.0, 0.0]],
        pts[8000][None, :],
        [[-50.0, 2000.0, 500.0]],
    ])
    assert queries.shape[0] == 1000
    got_idx, got_sq = index.query_batch(queries)
    for i, p in enumerate(queries):
        diffs = pts - p
        d2 = (diffs * diffs).sum(axis=1)
        j = int(d2.argmin())
        assert got_idx[i] == j
        assert got_sq[i] == d2[j]
    assert got_idx[996] == 45 and got_sq[996] == 0.0
    assert got_idx[997] == 60
    passed(5, "correspondence exactness")


def test_criterion_6_metric_fixtures():
    cfg = MetricConfig(epsilon=1e-6)
    fixture = filter_pairs(ScoredPair(ProductBasket((2, 0, 1)), ProductBasket((2, 1, 0))))
    assert f"{1 - hamming_distance(fixture):.4f}" == "0.3333"
    assert f"{1 - augmented_hamming_distance(fixture):.4f}" == "0.3333"
    assert f"{prediction_score(fixture, cfg):.4f}" == "0.6667"
    assert f"{production_score(fixture, cfg):.4f}" == "0.6667"
    assert f"{area_score(fixture, cfg):.4f}" == "0.4444"
    assert zero_one(fixture) == 0

    rng = np.random.default_rng(66666)
    for _ in range(10_000):
        width = int(rng.integers(1, 20))
        real = ProductBasket(tuple(int(v) for v in rng.integers(0, 8, width)))
        predicted = ProductBasket(tuple(int(v) for v in rng.integers(0, 8, width)))
        pair = filter_pairs(ScoredPair(real, predicted))
        s_z = zero_one(pair)
        d_h = hamming_distance(pair)
        d_hp = augmented_hamming_distance(pair)
        pre = prediction_score(pair, cfg)
        pro = production_score(pair, cfg)
        area = area_score(pair, cfg)
        for value in (s_z, 1 - d_h, 1 - d_hp, pre, pro, area):
            assert 0.0 <= value <= 1.0 + 1e-12
        assert 1 - d_h >= s_z
        assert 1 - d_hp >= 1 - d_h - 1e-12
        flipped = ScoredPair(pair.predicted, pair.real)
        assert augmented_hamming_distance(flipped) == pytest.approx(d_hp, abs=1e-12)
        assert production_score(flipped, cfg) == pytest.approx(pre, abs=1e-12)
    passed(6, "metric fixtures and invariants")


def test_criterion_7_filtering_inflation():
    cfg_on = MetricConfig(filter_zero_pairs=True)
    rng = np.random.default_rng(77777)
    checked = 0
    while checked < 2000:
        width = int(rng.integers(2, 20))
        alive = rng.uniform(size=width) < 0.4
        real = ProductBasket(tuple(int(v) for v in rng.integers(0, 6, width) * alive))
        predicted = ProductBasket(tuple(int(v) for v in rng.integers(0, 6, width) * alive))
        both_zero = sum(
            1 for y, yhat in zip(real.quantities, predicted.quantities) if y == 0 and yhat == 0
        )
        if both_zero * 2 < width:
            continue  # need >= 50% both-zero products
        checked += 1
        raw = ScoredPair(real, predicted)
        filtered = filter_pairs(raw)
        assert prediction_score(raw, cfg_on) >= prediction_score(filtered, cfg_on)
        assert production_score(raw, cfg_on) >= production_score(filtered, cfg_on)
        assert area_score(raw, cfg_on) >= area_score(filtered, cfg_on)
    passed(7, "filtering inflation")


def read_report_rows(path):
    lines = path.read_text().splitlines()
    rows = {}
    for line in lines[1:]:
        cells = line.split(",")
        rows[cells[0]] = [float(v) for v in cells[1:7]]
    return rows


def test_criterion_8_synthetic_experiment(tmp_path, capsys):
    rng = np.random.default_rng(88888)
    entries = prototype_dataset(rng, n_prototypes=30, train_copies=5, test_copies=2,
                                points=48, width=19)
    assert len(entries) == 210
    manifest = write_dataset_files(tmp_path, entries)
    report_path = tmp_path / "report.csv"
    started = time.perf_counter()
    code = main([
        "experiment", str(manifest),
        "--runs", "10",
        "--predictor", "icp,mean",
        "--train-frac", str(5 / 7),
        "--seed", "2024",
        "--jobs", "1",
        "--output", str(report_path),
    ])
    elapsed = time.perf_counter() - started
    capsys.readouterr()
    assert code == 0
    assert elapsed <= 300.0
    rows = read_report_rows(report_path)
    icp_mean = rows["icp:mean"]
    mean_mean = rows["mean:mean"]
    assert icp_mean[0] >= 0.95, f"icp mean s_z too low: {icp_mean[0]}"
    for got, baseline in zip(icp_mean, mean_mean):
        assert got > baseline
    passed(8, f"synthetic experiment, s_z={icp_mean[0]:.4f}, {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path, capsys):
    rng = np.random.default_rng(99999)
    entries = prototype_dataset(rng, n_prototypes=4, train_copies=3, test_copies=1,
                                points=24, width=5)
    manifest = write_dataset_files(tmp_path, entries)
    train_entries = [e for e in entries if int(e[0][-1]) < 3]
    test_entries = [e for e in entries if int(e[0][-1]) == 3]
    train_manifest = write_dataset_files(tmp_path, train_entries, name="train")
    test_manifest = write_dataset_files(tmp_path, test_entries, name="test")

    predictions = {}
    for jobs in (1, 4):
        out = tmp_path / f"pred_jobs{jobs}.csv"
        code = main(["predict", str(train_manifest), str(test_manifest),
                     "--jobs", str(jobs), "--output", str(out)])
        assert code == 0
        predictions[jobs] = out.read_bytes()
    assert predictions[1] == predictions[4]

    reports = {}
    for attempt, jobs in (("a", 1), ("b", 2)):
        out = tmp_path / f"report_{attempt}.csv"
        code = main(["experiment", str(manifest), "--runs", "2", "--seed", "11",
                     "--predictor", "icp,mean", "--jobs", str(jobs),
                     "--output", str(out)])
        assert code == 0
        reports[attempt] = out.read_bytes()
    capsys.readouterr()
    assert reports["a"] == reports["b"]
    passed(9, "determinism across jobs")
