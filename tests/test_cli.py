import concurrent.futures
import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from logmatch import (
    PointCloud, PredictionOutcome, ProductBasket, SplitSpec, apply_transform, correspondence, predictor,
    registration,
)
from logmatch.cli import _build_parser, main
from logmatch.dataset import split_indices
from logmatch.geometry import B
from logmatch.io import load_dataset, load_predictions, write_predictions, write_scan
from synthdata import box_cloud, jittered_copy, log_like_cloud, random_transform, write_dataset_files

EPS = 1e-6


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def tiny_dataset(tmp_path):
    """Three training prototypes (distinct baskets) and three test copies."""
    rng = np.random.default_rng(99)
    protos = [log_like_cloud(rng, 24) for _ in range(3)]
    baskets = [ProductBasket((2, 0, 1)), ProductBasket((0, 3, 0)), ProductBasket((1, 1, 4))]
    train_entries = [(f"train{i}", protos[i], baskets[i]) for i in range(3)]
    test_entries = [
        ("test0", protos[0], baskets[0]),  # byte-identical to train0
        ("test1", PointCloud(protos[1].xyz + rng.normal(0, 0.2, protos[1].xyz.shape)), baskets[1]),
        ("test2", PointCloud(protos[2].xyz + rng.normal(0, 0.2, protos[2].xyz.shape)), baskets[2]),
    ]
    train_manifest = write_dataset_files(tmp_path, train_entries, name="train")
    test_manifest = write_dataset_files(tmp_path, test_entries, name="test")
    return train_manifest, test_manifest, tmp_path


class TestRegister:
    def test_identical_files(self, tmp_path, capsys):
        cloud = box_cloud(np.random.default_rng(0), 50)
        path = tmp_path / "scan.xyz"
        write_scan(cloud, path)
        code, out, _ = run_cli(capsys, "register", path, path)
        assert code == 0
        payload = json.loads(out)
        assert payload["mse"] == 0.0
        assert payload["terminal_reason"] == "converged"
        assert [payload[k] for k in ("q0", "q1", "q2", "q3")] == pytest.approx([1, 0, 0, 0], abs=1e-9)

    def test_recovers_known_transform_and_traces(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        cloud = box_cloud(rng, 300)
        truth = random_transform(rng, math.radians(20), 60.0)
        moving_path = tmp_path / "moving.xyz"
        model_path = tmp_path / "model.xyz"
        trace_path = tmp_path / "trace.csv"
        write_scan(cloud, moving_path)
        write_scan(apply_transform(truth, cloud), model_path)
        code, out, _ = run_cli(
            capsys, "register", moving_path, model_path, "--trace", trace_path
        )
        assert code == 0
        payload = json.loads(out)
        q = np.array([payload["q0"], payload["q1"], payload["q2"], payload["q3"]])
        np.testing.assert_allclose(q, truth.rotation.as_array(), atol=1e-6)
        t = np.array([payload["tx"], payload["ty"], payload["tz"]])
        np.testing.assert_allclose(t, truth.translation, atol=1e-6)
        lines = trace_path.read_text().splitlines()
        assert lines[0] == "iteration,mse"
        errors = [float(line.split(",")[1]) for line in lines[1:]]
        assert len(errors) == payload["iterations"]
        assert all(b <= a for a, b in zip(errors, errors[1:]))

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "register", tmp_path / "absent.xyz", tmp_path / "absent.xyz")
        assert code == 2
        assert "absent.xyz" in err

    def test_eigensolver_failure_exits_1(self, tmp_path, capsys, monkeypatch):
        def fail(matrices):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        path = tmp_path / "scan.xyz"
        write_scan(box_cloud(np.random.default_rng(0), 50), path)
        monkeypatch.setattr(np.linalg, "eigh", fail)
        code, out, err = run_cli(capsys, "register", path, path)
        assert code == 1
        assert out == ""
        assert err.startswith("numerical failure:")


class TestPredict:
    def test_identical_test_log_hits_its_neighbor(self, tiny_dataset, capsys):
        train, test, root = tiny_dataset
        out_path = root / "pred.csv"
        code, _, _ = run_cli(capsys, "predict", train, test, "--output", out_path)
        assert code == 0
        names, rows = load_predictions(out_path)
        assert names == ("p1", "p2", "p3")
        assert list(rows) == ["test0", "test1", "test2"]
        assert rows["test0"].neighbor_id == "train0"
        assert rows["test0"].distance == 0.0
        assert rows["test0"].predicted.quantities == (2, 0, 1)
        assert rows["test1"].neighbor_id == "train1"
        assert rows["test2"].neighbor_id == "train2"

    def test_mean_predictor_constant_row(self, tiny_dataset, capsys):
        train, test, root = tiny_dataset
        out_path = root / "pred.csv"
        code, _, _ = run_cli(
            capsys, "predict", train, test, "--predictor", "mean", "--output", out_path
        )
        assert code == 0
        _, rows = load_predictions(out_path)
        assert {r.predicted.quantities for r in rows.values()} == {(1, 1, 2)}
        assert all(r.neighbor_id is None and r.distance is None for r in rows.values())

    def test_knn_predictor_runs(self, tiny_dataset, capsys):
        train, test, root = tiny_dataset
        out_path = root / "pred.csv"
        code, _, _ = run_cli(
            capsys, "predict", train, test, "--predictor", "knn", "--k", "1", "--output", out_path
        )
        assert code == 0
        assert len(load_predictions(out_path)[1]) == 3

    def test_knn_k_is_checked_without_test_logs(self, tiny_dataset, capsys):
        train, _, root = tiny_dataset
        (root / "none.csv").write_text("id,scan_path\n")
        code, out, err = run_cli(capsys, "predict", train, root / "none.csv", "--predictor", "knn",
                                 "--k", 4)
        assert code == 2
        assert out == ""
        assert "k must be in [1, 3], got 4" in err

    def test_jobs_do_not_change_bytes(self, tiny_dataset, capsys):
        train, test, root = tiny_dataset
        first = root / "pred1.csv"
        second = root / "pred8.csv"
        assert run_cli(capsys, "predict", train, test, "--jobs", 1, "--output", first)[0] == 0
        assert run_cli(capsys, "predict", train, test, "--jobs", 8, "--output", second)[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_empty_train_exits_2(self, tmp_path, capsys):
        (tmp_path / "train.csv").write_text("id,scan_path\n")
        (tmp_path / "train.baskets.csv").write_text("id,p1\n")
        (tmp_path / "test.csv").write_text("id,scan_path\n")
        code, _, err = run_cli(capsys, "predict", tmp_path / "train.csv", tmp_path / "test.csv")
        assert code == 2
        assert "empty" in err


class TestShortScan:
    """knn cannot measure a scan of fewer than 10 points; the command stops
    with exit code 2 and names the log."""

    @pytest.fixture()
    def manifest(self, tmp_path):
        rng = np.random.default_rng(8)
        entries = [(f"log{i}", log_like_cloud(rng, 16), ProductBasket((i % 2,))) for i in range(6)]
        entries.append(("stub", box_cloud(rng, 5), ProductBasket((1,))))
        return write_dataset_files(tmp_path, entries)

    def test_experiment_names_the_log(self, manifest, capsys):
        code, out, err = run_cli(capsys, "experiment", manifest, "--runs", 1, "--predictor", "knn")
        assert code == 2
        assert out == ""
        assert "'stub'" in err and "need at least 10 points, got 5" in err

    def test_predict_names_the_log(self, tiny_dataset, manifest, capsys):
        train, _, root = tiny_dataset
        out_path = root / "pred.csv"
        code, _, err = run_cli(capsys, "predict", train, manifest, "--predictor", "knn", "--k", 1,
                               "--output", out_path)
        assert code == 2
        assert "'stub'" in err and "need at least 10 points, got 5" in err
        assert not out_path.exists()


class TestEvaluate:
    @staticmethod
    def write_tables(root, predicted_rows, truth_rows, width=3):
        names = [f"p{i + 1}" for i in range(width)]
        pred_path = root / "pred.csv"
        write_predictions(
            {i: PredictionOutcome(ProductBasket(q)) for i, q in predicted_rows},
            names, pred_path,
        )
        truth_path = root / "truth.csv"
        lines = ["id," + ",".join(names)]
        lines += [i + "," + ",".join(str(v) for v in q) for i, q in truth_rows]
        truth_path.write_text("\n".join(lines) + "\n")
        return pred_path, truth_path

    def test_perfect_predictions_score_ones(self, tmp_path, capsys):
        pred, truth = self.write_tables(
            tmp_path,
            [("a", (1, 2, 0)), ("b", (0, 0, 3))],
            [("a", (1, 2, 0)), ("b", (0, 0, 3))],
        )
        code, out, _ = run_cli(capsys, "evaluate", pred, truth)
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "eval,1.0000,1.0000,1.0000,1.0000,1.0000,1.0000,2"

    def test_hand_fixture_row(self, tmp_path, capsys):
        pred, truth = self.write_tables(
            tmp_path,
            [("a", (2, 1, 0)), ("b", (2, 0, 0))],
            [("a", (2, 0, 1)), ("b", (4, 0, 0))],
        )
        code, out, _ = run_cli(capsys, "evaluate", pred, truth, "--label", "fixture")
        assert code == 0
        ratio = (2 + EPS) / 3
        expected = (
            "fixture,"
            f"{0.0:.4f},{(1 / 3) / 2:.4f},{(1 / 3 + 0.5) / 2:.4f},"
            f"{(ratio + 0.5) / 2:.4f},{(ratio + 1.0) / 2:.4f},{(ratio * ratio + 0.5) / 2:.4f},2"
        )
        assert out.splitlines()[1] == expected

    def test_no_filter_only_raises_ratio_scores(self, tmp_path, capsys):
        rows_pred = [("a", (1, 0, 0)), ("b", (0, 0, 0))]
        rows_truth = [("a", (2, 0, 0)), ("b", (0, 0, 1))]
        pred, truth = self.write_tables(tmp_path, rows_pred, rows_truth)
        _, out_filtered, _ = run_cli(capsys, "evaluate", pred, truth)
        _, out_raw, _ = run_cli(capsys, "evaluate", pred, truth, "--no-filter")
        take = lambda out: [float(v) for v in out.splitlines()[1].split(",")[4:7]]
        filtered = take(out_filtered)
        raw = take(out_raw)
        assert all(r >= f for r, f in zip(raw, filtered))

    def test_id_mismatch_exits_2(self, tmp_path, capsys):
        pred, truth = self.write_tables(
            tmp_path,
            [("a", (1, 0, 0)), ("c", (1, 0, 0))],
            [("a", (1, 0, 0)), ("b", (1, 0, 0))],
        )
        code, _, err = run_cli(capsys, "evaluate", pred, truth)
        assert code == 2
        assert "'c'" in err and "'b'" in err

    @pytest.mark.parametrize("header, row, names", [
        ("b,a", "1,0", ["b", "a"]),
        ("q,r", "1,0", ["q", "r"]),
        ("a", "1", ["a"]),
    ], ids=["reordered", "renamed", "missing"])
    def test_products_must_match_the_truth_in_order(self, tmp_path, capsys, header, row, names):
        pred, truth, report = tmp_path / "pred.csv", tmp_path / "truth.csv", tmp_path / "report.csv"
        pred.write_text(f"id,neighbor_id,distance,{header}\nx,,,{row}\n")
        truth.write_text("id,a,b\nx,1,0\n")
        code, out, err = run_cli(capsys, "evaluate", pred, truth, "--output", report)
        assert (code, out) == (2, "")
        assert err == f"error: prediction and truth products differ: {names} vs ['a', 'b']\n"
        assert not report.exists()

    @pytest.mark.parametrize("pred_header, truth_header, path, message", [
        ("a,b", "a,a", "truth", "repeated product name 'a' in column 3"),
        ("a,a", "a,b", "pred", "repeated product name 'a' in column 5"),
        ("a,b", "a,", "truth", "empty product name in column 3"),
        ("a,b", " ,b", "truth", "empty product name in column 2"),
    ], ids=["repeated", "repeated-prediction", "empty", "blank"])
    def test_product_names_must_be_distinct_and_non_empty(self, tmp_path, capsys, pred_header,
                                                           truth_header, path, message):
        paths = {"pred": tmp_path / "pred.csv", "truth": tmp_path / "truth.csv"}
        paths["pred"].write_text(f"id,neighbor_id,distance,{pred_header}\nx,,,1,0\n")
        paths["truth"].write_text(f"id,{truth_header}\nx,1,0\n")
        report = tmp_path / "report.csv"
        code, out, err = run_cli(capsys, "evaluate", paths["pred"], paths["truth"], "--output", report)
        assert (code, out) == (2, "")
        assert err == f"error: {paths[path]}:1: {message}\n"
        assert not report.exists()

    def test_json_format(self, tmp_path, capsys):
        pred, truth = self.write_tables(tmp_path, [("a", (1, 1, 1))], [("a", (1, 1, 1))])
        code, out, _ = run_cli(capsys, "evaluate", pred, truth, "--format", "json")
        assert code == 0
        assert json.loads(out)["s_z"] == 1.0


class TestProductNamesInBasketTables:
    """A baskets table whose header repeats a product name or leaves one
    empty is a parse error at its header line (exit 2), and nothing is
    written."""

    @pytest.mark.parametrize("header, message", [
        ("id,p1,p1,p3", "repeated product name 'p1' in column 3"),
        ("id,p1,,p3", "empty product name in column 3"),
    ], ids=["repeated", "empty"])
    @pytest.mark.parametrize("command", ["predict", "experiment"])
    def test_exits_2(self, tiny_dataset, capsys, command, header, message):
        train, test, root = tiny_dataset
        baskets = root / "train.baskets.csv"
        lines = baskets.read_text().splitlines()
        baskets.write_text("\n".join([header, *lines[1:]]) + "\n")
        output = root / "out.csv"
        inputs = [train, test] if command == "predict" else [train, "--runs", 1, "--predictor", "mean"]
        code, out, err = run_cli(capsys, command, *inputs, "--output", output)
        assert (code, out) == (2, "")
        assert err == f"error: {baskets}:1: {message}\n"
        assert not output.exists()


class TestExperiment:
    def test_mean_single_run_row_layout(self, tmp_path, capsys):
        rng = np.random.default_rng(2)
        entries = [
            (f"log{i}", log_like_cloud(rng, 16), ProductBasket((i % 3, 1)))
            for i in range(10)
        ]
        manifest = write_dataset_files(tmp_path, entries)
        code, out, _ = run_cli(
            capsys, "experiment", manifest, "--runs", 1, "--predictor", "mean", "--seed", 5
        )
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[1].startswith("mean:run0,")
        assert lines[2].startswith("mean:mean,")
        # a single run's mean row equals the run row
        assert lines[1].split(",")[1:] == lines[2].split(",")[1:]

    def test_fixed_seed_is_byte_identical(self, tmp_path, capsys):
        rng = np.random.default_rng(3)
        entries = [
            (f"log{i}", log_like_cloud(rng, 16), ProductBasket(((i % 2) + 1, i % 3)))
            for i in range(8)
        ]
        manifest = write_dataset_files(tmp_path, entries)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["experiment", manifest, "--runs", 2, "--predictor", "icp,mean",
                "--seed", 7, "--jobs", 1]
        assert run_cli(capsys, *args, "--output", out_a)[0] == 0
        assert run_cli(capsys, *args, "--output", out_b)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        lines = out_a.read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == [
            "icp:run0", "mean:run0", "icp:run1", "mean:run1", "icp:mean", "mean:mean",
        ]

    def test_drop_empty_changes_population(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        entries = []
        for i in range(10):
            basket = ProductBasket((0, 0)) if i < 4 else ProductBasket((1, i % 2))
            entries.append((f"log{i}", log_like_cloud(rng, 16), basket))
        manifest = write_dataset_files(tmp_path, entries)
        code, out, _ = run_cli(
            capsys, "experiment", manifest, "--runs", 1, "--predictor", "mean",
            "--drop-empty", "--train-frac", "0.5",
        )
        assert code == 0
        # 6 non-empty records -> 3 test logs scored
        assert out.splitlines()[1].endswith(",3")


@pytest.fixture()
def no_alignment(monkeypatch):
    """Make any ICP alignment fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("an alignment ran")

    monkeypatch.setattr(registration, "_align_pairs", refuse)


@pytest.fixture()
def pool_count(monkeypatch):
    """Count the process pools built for ICP alignments."""
    built = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            built.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    # registration imports the pool from concurrent.futures when it starts one.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return built


@pytest.fixture()
def twin_manifest(tmp_path):
    """Three prototypes, each as two byte-identical twins under different ids
    plus two jittered copies, so equal distances tie across training logs."""
    rng = np.random.default_rng(21)
    entries = []
    for k in range(3):
        proto = log_like_cloud(rng, 20)
        basket = ProductBasket((k, 1, 2 - k))
        entries += [(f"p{k}twin{m}", proto, basket) for m in range(2)]
        entries += [(f"p{k}copy{m}", jittered_copy(rng, proto), basket) for m in range(2)]
    return write_dataset_files(tmp_path, entries)


class TestAlignOnce:
    """experiment aligns every needed (test, train) pair once, in one pool,
    and picks each run's neighbours from its own block of the distances."""

    ARGS = ("--runs", 3, "--seed", 5, "--train-frac", 0.5)

    def test_outcomes_equal_predict_batch_per_run(self, twin_manifest, capsys, monkeypatch):
        ds = load_dataset(twin_manifest)
        spec = SplitSpec(train_fraction=0.5, seed=5, runs=3)
        expected = []
        tie_broken_by_training_order = False
        for run in range(3):
            train_idx, test_idx = split_indices(len(ds), spec, run)
            train = [ds.records[i] for i in train_idx]
            outcomes = predictor.icp_nn_predict_batch(train, [ds.records[i].scan for i in test_idx])
            expected.append([(o.neighbor_id, o.distance) for o in outcomes])
            ids = [rec.id for rec in train]
            for o in outcomes:
                twins = [i for i in ids if i.startswith(o.neighbor_id[:2] + "twin")]
                if o.neighbor_id in twins and o.neighbor_id != min(twins):
                    tie_broken_by_training_order = True
        assert tie_broken_by_training_order

        original = predictor.nn_predict_from_distances
        for jobs in (1, 2, 3):
            got = []

            def spy(train, distances):
                outcomes = original(train, distances)
                got.append([(o.neighbor_id, o.distance) for o in outcomes])
                return outcomes

            monkeypatch.setattr(predictor, "nn_predict_from_distances", spy)
            code, _, _ = run_cli(capsys, "experiment", twin_manifest, *self.ARGS, "--jobs", jobs)
            assert code == 0
            assert got == expected, f"--jobs {jobs}"

    def test_one_pool_per_command(self, twin_manifest, capsys, pool_count):
        code, _, _ = run_cli(capsys, "experiment", twin_manifest, *self.ARGS, "--jobs", 2)
        assert code == 0
        assert pool_count == [2]

    def test_mean_and_knn_align_nothing(self, twin_manifest, capsys, pool_count, no_alignment):
        code, _, err = run_cli(capsys, "experiment", twin_manifest, *self.ARGS,
                               "--predictor", "mean,knn", "--k", 1, "--jobs", 2)
        assert code == 0
        assert pool_count == []
        assert "aligned" not in err

    def test_reports_distinct_and_requested_pairs(self, twin_manifest, capsys):
        code, _, err = run_cli(capsys, "experiment", twin_manifest, *self.ARGS, "--jobs", 1)
        assert code == 0
        spec = SplitSpec(train_fraction=0.5, seed=5, runs=3)
        splits = [split_indices(12, spec, run) for run in range(3)]
        distinct = {(i, j) for tr, te in splits for i in te.tolist() for j in tr.tolist()}
        assert len(distinct) < 3 * 36
        lines = err.splitlines()
        assert lines[0] == f"aligned {len(distinct)} distinct pairs for 108 requested over 3 runs"
        assert lines[1:] == ["run 1/3 done", "run 2/3 done", "run 3/3 done"]

    def test_empty_split_fails_before_aligning(self, twin_manifest, capsys, no_alignment):
        code, out, err = run_cli(capsys, "experiment", twin_manifest, "--runs", 2, "--train-frac", 0.05)
        assert code == 2
        assert out == ""
        assert "run 0 produced an empty train or test set" in err

    def test_knn_k_above_training_size_fails_before_aligning(self, twin_manifest, capsys, no_alignment):
        code, out, err = run_cli(capsys, "experiment", twin_manifest, *self.ARGS,
                                 "--predictor", "icp,knn", "--k", 7)
        assert code == 2
        assert out == ""
        assert "k must be in [1, 6], got 7" in err


class TestSplit:
    def test_lists_partitions(self, tmp_path, capsys):
        rng = np.random.default_rng(5)
        entries = [(f"log{i}", log_like_cloud(rng, 16), ProductBasket((1,))) for i in range(10)]
        manifest = write_dataset_files(tmp_path, entries)
        code, out, _ = run_cli(capsys, "split", manifest, "--runs", 2, "--seed", 3)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "run,role,id"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 20
        run0 = [r for r in rows if r[0] == "0"]
        assert sum(1 for r in run0 if r[1] == "train") == 6
        assert sum(1 for r in run0 if r[1] == "test") == 4
        assert {r[2] for r in run0} == {f"log{i}" for i in range(10)}

    def test_single_run_index(self, tmp_path, capsys):
        rng = np.random.default_rng(6)
        entries = [(f"log{i}", log_like_cloud(rng, 16), ProductBasket((1,))) for i in range(5)]
        manifest = write_dataset_files(tmp_path, entries)
        code, out, _ = run_cli(capsys, "split", manifest, "--runs", 4, "--run-index", 2)
        assert code == 0
        assert {line.split(",")[0] for line in out.splitlines()[1:]} == {"2"}

    @pytest.mark.parametrize("run_index", [4, -1])
    def test_run_index_out_of_range_writes_nothing(self, tmp_path, capsys, run_index):
        rng = np.random.default_rng(6)
        entries = [(f"log{i}", log_like_cloud(rng, 16), ProductBasket((1,))) for i in range(5)]
        manifest = write_dataset_files(tmp_path, entries)
        output = tmp_path / "split.csv"
        code, out, err = run_cli(capsys, "split", manifest, "--runs", 4, "--run-index", run_index,
                                 "--output", output)
        assert code == 2
        assert "run_index must be in [0, 4)" in err
        assert out == ""
        assert not output.exists()
        code, out, err = run_cli(capsys, "split", manifest, "--runs", 4, "--run-index", run_index)
        assert code == 2
        assert out == ""

    def test_ids_are_csv_quoted(self, tmp_path, capsys):
        rng = np.random.default_rng(9)
        write_scan(log_like_cloud(rng, 16), tmp_path / "a.xyz")
        (tmp_path / "m.csv").write_text('id,scan_path\n"log,1",a.xyz\nplain,a.xyz\n"say ""hi""",a.xyz\n')
        (tmp_path / "m.baskets.csv").write_text('id,p1\n"log,1",1\nplain,2\n"say ""hi""",3\n')
        code, out, _ = run_cli(capsys, "split", tmp_path / "m.csv", "--runs", 1)
        assert code == 0
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["run", "role", "id"]
        assert all(len(row) == 3 for row in rows)
        assert sorted(row[2] for row in rows[1:]) == sorted(["log,1", "plain", 'say "hi"'])

    def test_drop_empty_filters_ids(self, tmp_path, capsys):
        rng = np.random.default_rng(7)
        entries = [
            ("full0", log_like_cloud(rng, 16), ProductBasket((1,))),
            ("empty", log_like_cloud(rng, 16), ProductBasket((0,))),
            ("full1", log_like_cloud(rng, 16), ProductBasket((2,))),
        ]
        manifest = write_dataset_files(tmp_path, entries)
        code, out, _ = run_cli(capsys, "split", manifest, "--runs", 1, "--drop-empty")
        assert code == 0
        assert "empty" not in out


GOLDEN_EXPERIMENT = """\
[
  {
    "predictor": "icp:run0",
    "s_z": 0.25,
    "one_minus_dH": 0.25,
    "one_minus_dHplus": 0.25,
    "s_pre": 0.75,
    "s_pro": 0.5,
    "s_pro_x_pre": 0.4167,
    "n": 4
  },
  {
    "predictor": "mean:run0",
    "s_z": 0.0,
    "one_minus_dH": 0.0,
    "one_minus_dHplus": 0.0,
    "s_pre": 0.75,
    "s_pro": 0.25,
    "s_pro_x_pre": 0.1667,
    "n": 4
  },
  {
    "predictor": "icp:run1",
    "s_z": 1.0,
    "one_minus_dH": 1.0,
    "one_minus_dHplus": 1.0,
    "s_pre": 1.0,
    "s_pro": 1.0,
    "s_pro_x_pre": 1.0,
    "n": 4
  },
  {
    "predictor": "mean:run1",
    "s_z": 0.0,
    "one_minus_dH": 0.0,
    "one_minus_dHplus": 0.0833,
    "s_pre": 0.5,
    "s_pro": 0.5833,
    "s_pro_x_pre": 0.1944,
    "n": 4
  },
  {
    "predictor": "icp:mean",
    "s_z": 0.625,
    "one_minus_dH": 0.625,
    "one_minus_dHplus": 0.625,
    "s_pre": 0.875,
    "s_pro": 0.75,
    "s_pro_x_pre": 0.7083,
    "n": 8
  },
  {
    "predictor": "mean:mean",
    "s_z": 0.0,
    "one_minus_dH": 0.0,
    "one_minus_dHplus": 0.0417,
    "s_pre": 0.625,
    "s_pro": 0.4167,
    "s_pro_x_pre": 0.1806,
    "n": 8
  }
]
"""

GOLDEN_EVALUATE = """\
{
  "predictor": "golden",
  "s_z": 0.0,
  "one_minus_dH": 0.1667,
  "one_minus_dHplus": 0.4167,
  "s_pre": 0.5833,
  "s_pro": 0.8333,
  "s_pro_x_pre": 0.4722,
  "n": 2
}
"""

GOLDEN_EVALUATE_UNFILTERED = """\
predictor,s_z,one_minus_dH,one_minus_dHplus,s_pre,s_pro,s_pro_x_pre,n
unfiltered,0.0000,0.5556,0.6111,0.7963,0.9444,0.7500,3
"""

GOLDEN_SPLIT = """\
run,role,id
0,train,log1
0,train,log2
0,train,log0
0,test,log5
0,test,log4
0,test,log3
1,train,log1
1,train,log4
1,train,log2
1,test,log5
1,test,log3
1,test,log0
"""


class TestGoldenBytes:
    """Report and partition bytes written out in full. The nine logs are
    three copies each of three shapes of distinct size, shifted along x by
    quarter millimetres; every coordinate is exact in binary, a copy aligns
    onto its own shape at distance 0 and onto any other far from it, and
    the third shape's basket is empty."""

    @pytest.fixture()
    def manifest(self, tmp_path):
        shapes = [[(k * size, (k * k) % 7 * size, (3 * k) % 5 * size) for k in range(12)]
                  for size in (1.0, 3.0, 9.0)]
        baskets = [ProductBasket((2, 0, 1)), ProductBasket((0, 3, 0)), ProductBasket((0, 0, 0))]
        entries = [(f"log{3 * s + c}", PointCloud(np.array(shapes[s]) + [0.25 * c, 0.0, 0.0]), baskets[s])
                   for s in range(3) for c in range(3)]
        return write_dataset_files(tmp_path, entries)

    def test_experiment_json_is_an_array(self, manifest, tmp_path, capsys):
        output = tmp_path / "experiment.json"
        code, _, _ = run_cli(capsys, "experiment", manifest, "--predictor", "icp,mean", "--runs", 2,
                             "--seed", 4, "--jobs", 1, "--format", "json", "--output", output)
        assert code == 0
        assert output.read_bytes() == GOLDEN_EXPERIMENT.encode()

    def test_evaluate_json_is_an_object(self, tmp_path, capsys):
        predictions = tmp_path / "pred.csv"
        write_predictions({"a": PredictionOutcome(ProductBasket((2, 1, 0)), "t", 0.5),
                           "b": PredictionOutcome(ProductBasket((2, 0, 0)))}, ("p1", "p2", "p3"), predictions)
        truth = tmp_path / "truth.csv"
        truth.write_text("id,p1,p2,p3\na,2,0,1\nb,4,0,0\n")
        output = tmp_path / "evaluate.json"
        code, _, _ = run_cli(capsys, "evaluate", predictions, truth, "--label", "golden", "--format", "json",
                             "--output", output)
        assert code == 0
        assert output.read_bytes() == GOLDEN_EVALUATE.encode()

    def test_evaluate_unfiltered_csv(self, tmp_path, capsys):
        """Both-zero products kept and a large epsilon: every score's
        zero-quantity branch is in the bytes."""
        predictions = tmp_path / "pred.csv"
        write_predictions({"a": PredictionOutcome(ProductBasket((2, 1, 0)), "t", 0.5),
                           "b": PredictionOutcome(ProductBasket((2, 0, 0))),
                           "c": PredictionOutcome(ProductBasket((0, 0, 0)), "u", 2.0)},
                          ("p1", "p2", "p3"), predictions)
        truth = tmp_path / "truth.csv"
        truth.write_text("id,p1,p2,p3\na,2,0,1\nb,4,0,0\nc,0,0,3\n")
        output = tmp_path / "evaluate.csv"
        code, _, _ = run_cli(capsys, "evaluate", predictions, truth, "--label", "unfiltered", "--no-filter",
                             "--epsilon", 0.5, "--output", output)
        assert code == 0
        assert output.read_bytes() == GOLDEN_EVALUATE_UNFILTERED.encode()

    def test_split_drop_empty(self, manifest, tmp_path, capsys):
        output = tmp_path / "split.csv"
        code, _, _ = run_cli(capsys, "split", manifest, "--runs", 2, "--seed", 4, "--drop-empty",
                             "--output", output)
        assert code == 0
        assert output.read_bytes() == GOLDEN_SPLIT.encode()


class TestCsvFieldLimit:
    """A csv cell over the csv module's field size limit is a located parse
    error (exit 2), never a traceback."""

    def test_split_manifest_and_register_scan(self, tmp_path, capsys):
        rng = np.random.default_rng(10)
        entries = [(f"log{i}", log_like_cloud(rng, 16), ProductBasket((1,))) for i in range(3)]
        manifest = write_dataset_files(tmp_path, entries)
        lines = manifest.read_text().splitlines()
        lines[1] = "x" * 200_000 + lines[1][lines[1].index(","):]
        manifest.write_text("\n".join(lines) + "\n")
        scan = tmp_path / "long.csv"
        scan.write_text(f"x,y,z\n{'1' * 200_000},2,3\n4,5,6\n")
        for argv, path in [(["split", manifest], manifest), (["register", scan, scan], scan)]:
            code, out, err = run_cli(capsys, *argv)
            assert code == 2
            assert out == ""
            assert err == f"error: {path}:2: field larger than field limit (131072)\n"


class TestJobs:
    @pytest.mark.parametrize("command", ["predict", "experiment"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_below_one_exits_2(self, tiny_dataset, capsys, command, value):
        train, test, tmp_path = tiny_dataset
        out = tmp_path / "out.csv"
        inputs = [train, test] if command == "predict" else [train]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *map(str, inputs), "--jobs", value, "--output", str(out)])
        assert excinfo.value.code == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_default_follows_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        assert _build_parser().parse_args(["predict", "a.csv", "b.csv"]).jobs == 3

    def test_default_without_affinity_is_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        assert _build_parser().parse_args(["predict", "a.csv", "b.csv"]).jobs == 5


class TestUsage:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2


class TestNotUtf8:
    """Bytes that are not UTF-8 are a located parse error (exit 2), never a traceback."""

    def test_register_scan(self, tmp_path, capsys):
        path = tmp_path / "bad.xyz"
        path.write_bytes(b"\xff\xfe1 2 3\n")
        code, out, err = run_cli(capsys, "register", path, path)
        assert code == 2
        assert out == ""
        assert f"{path}:1: not UTF-8 text (byte 0xff at offset 0)" in err

    def test_predict_baskets_table(self, tiny_dataset, capsys):
        train, test, root = tiny_dataset
        baskets = root / "train.baskets.csv"
        baskets.write_bytes(baskets.read_bytes() + b"caf\xe9,1,2,3\n")
        code, _, err = run_cli(capsys, "predict", train, test, "--output", root / "pred.csv")
        assert code == 2
        assert f"{baskets}:5: not UTF-8 text" in err
        assert not (root / "pred.csv").exists()

    def test_split_manifest(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        entries = [(f"log{i}", log_like_cloud(rng, 16), ProductBasket((1,))) for i in range(4)]
        manifest = write_dataset_files(tmp_path, entries)
        manifest.write_bytes(manifest.read_bytes().replace(b"log2,", b"log\x802,"))
        code, out, err = run_cli(capsys, "split", manifest, "--runs", 1)
        assert code == 2
        assert out == ""
        assert f"{manifest}:4: not UTF-8 text (byte 0x80" in err


class TestRegisterFiles:
    def test_trace_bytes_follow_icp_align(self, tmp_path, capsys):
        """The trace file is `iteration,mse` and one `k,repr(mse)` line per
        entry of icp_align's trace on the same scans."""
        rng = np.random.default_rng(12)
        model = log_like_cloud(rng, 200)
        moving = apply_transform(random_transform(rng, math.radians(15), 40.0), model)
        moving_path, model_path, trace_path = tmp_path / "moving.xyz", tmp_path / "model.xyz", tmp_path / "t.csv"
        write_scan(moving, moving_path)
        write_scan(model, model_path)
        code, _, _ = run_cli(capsys, "register", moving_path, model_path, "--trace", trace_path)
        assert code == 0
        _, trace = registration.icp_align(moving, model, registration.IcpConfig(tau=1e-8, max_iterations=50))
        assert len(trace.iterations) > 1
        want = "iteration,mse\n" + "".join(f"{entry.index},{entry.mse!r}\n" for entry in trace.iterations)
        assert trace_path.read_bytes() == want.encode("ascii")

    def test_trace_in_a_missing_directory_exits_2(self, tmp_path, capsys):
        path = tmp_path / "scan.xyz"
        write_scan(box_cloud(np.random.default_rng(0), 20), path)
        trace_path = tmp_path / "absent" / "t.csv"
        code, out, err = run_cli(capsys, "register", path, path, "--trace", trace_path)
        assert code == 2
        assert out == ""
        assert err == f"error: [Errno 2] No such file or directory: {str(trace_path)!r}\n"

    def test_csv_scan_error_names_the_line_after_a_multi_line_cell(self, tmp_path, capsys):
        scan = tmp_path / "q.csv"
        scan.write_text('x,y,z\n"1\n2",3,4\nbad,5,6\n')
        model = tmp_path / "m.xyz"
        write_scan(box_cloud(np.random.default_rng(0), 20), model)
        assert run_cli(capsys, "register", scan, model) == (2, "", f"error: {scan}:4: non-numeric value 'bad'\n")


class TestOptionErrors:
    @pytest.mark.parametrize("command", ["predict", "experiment"])
    def test_jobs_not_an_integer_exits_2(self, tiny_dataset, capsys, command):
        train, test, _ = tiny_dataset
        inputs = [train, test] if command == "predict" else [train]
        with pytest.raises(SystemExit) as excinfo:
            main([command, *map(str, inputs), "--jobs", "abc"])
        assert excinfo.value.code == 2
        assert "--jobs: expected an integer, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("value, message", [
        (",", "no predictor selected"),
        (" , ,", "no predictor selected"),
        ("icp,bogus", "unknown predictor 'bogus'; expected one of ('icp', 'mean', 'knn')"),
        ("mean,mean", "predictor 'mean' is listed twice"),
        ("icp, knn,icp", "predictor 'icp' is listed twice"),
    ])
    def test_experiment_predictor_list_is_checked(self, tiny_dataset, capsys, value, message):
        train, _, _ = tiny_dataset
        assert run_cli(capsys, "experiment", train, "--predictor", value) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("k", [0, -1])
    def test_knn_k_below_1_has_one_message(self, tiny_dataset, capsys, k):
        train, test, _ = tiny_dataset
        want = (2, "", f"error: k must be >= 1, got {k}\n")
        assert run_cli(capsys, "predict", train, test, "--predictor", "knn", "--k", k) == want
        assert run_cli(capsys, "experiment", train, "--predictor", "knn", "--k", k) == want

    def test_knn_on_a_scan_of_zero_extent_names_the_log(self, tiny_dataset, capsys):
        train, _, root = tiny_dataset
        flat = PointCloud(np.tile([1.0, 2.0, 3.0], (10, 1)))
        test = write_dataset_files(root, [("f", flat, ProductBasket((1, 0, 0)))], name="flat")
        code, out, err = run_cli(capsys, "predict", train, test, "--predictor", "knn", "--k", 1)
        assert (code, out) == (2, "")
        assert err == "error: log 'f': scan has zero extent along its principal axis\n"


# Runs CLI commands in order in one fresh interpreter, and records which of
# the modules named in its second argument are loaded after
# `import logmatch` and after each command.
IMPORT_PROBE = """\
import json
import sys

import logmatch
from logmatch.cli import main


def loaded():
    return [name in sys.modules for name in json.loads(sys.argv[2])]


seen = [loaded()]
for argv in json.loads(sys.argv[1]):
    if main(argv) != 0:
        raise SystemExit(f"{argv} failed")
    seen.append(loaded())
print(json.dumps(seen))
"""


def run_fresh(*args, **env):
    """Run python -X dev -W error with args in a fresh interpreter that sees
    src, has no OPENBLAS_NUM_THREADS unless given in env, and return its
    stdout."""
    fresh = {name: value for name, value in os.environ.items() if name != "OPENBLAS_NUM_THREADS"}
    fresh.update(env, PYTHONPATH=os.path.dirname(os.path.dirname(predictor.__file__)))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args],
                          env=fresh, capture_output=True, text=True, check=True, timeout=300).stdout


def loaded_after(commands, names=("scipy", "scipy.spatial")):
    argvs = json.dumps([[str(a) for a in argv] for argv in commands])
    return json.loads(run_fresh("-c", IMPORT_PROBE, argvs, json.dumps(names)).splitlines()[-1])


class TestScipyStaysOut:
    """Only a command that builds a k-d tree imports scipy."""

    def test_commands_without_icp_never_import_scipy(self, tiny_dataset):
        train, test, root = tiny_dataset
        predictions = root / "knn.csv"
        seen = loaded_after([
            ["experiment", train, "--predictor", "knn,mean", "--k", 1, "--runs", 2,
             "--output", root / "experiment.csv"],
            ["predict", train, test, "--predictor", "knn", "--k", 1, "--output", predictions],
            ["evaluate", predictions, root / "test.baskets.csv", "--output", root / "report.csv"],
            ["split", train, "--runs", 2, "--output", root / "split.csv"],
        ])
        assert seen == [[False, False]] * 5

    def test_icp_on_scanned_models_never_imports_scipy(self, tiny_dataset):
        # Every log has 24 points, so each model is matched by the linear scan.
        train, test, root = tiny_dataset
        scans = sorted((root / "train_scans").iterdir())
        seen = loaded_after([
            ["register", scans[0], scans[1]],
            *(["predict", train, test, "--predictor", "icp", "--jobs", jobs, "--output", root / f"icp{jobs}.csv"]
              for jobs in (1, 2)),
            *(["experiment", train, "--predictor", "icp,mean", "--runs", 2, "--jobs", jobs,
               "--output", root / f"experiment{jobs}.csv"] for jobs in (1, 2)),
        ])
        assert seen == [[False, False]] * 6

    def test_icp_imports_the_k_d_tree(self, tiny_dataset):
        # One training log is too large for the scan.
        _, test, root = tiny_dataset
        rng = np.random.default_rng(98)
        entries = [(f"big{i}", log_like_cloud(rng, n), ProductBasket((i, 0, 0)))
                   for i, n in enumerate((24, correspondence._SCAN_MAX + 1))]
        train = write_dataset_files(root, entries, name="mixed")
        seen = loaded_after([
            ["predict", train, test, "--predictor", "icp", "--jobs", 2, "--output", root / "icp.csv"],
        ])
        assert seen == [[False, False], [True, True]]


class TestMaskedArraysStayOut:
    """ICP never imports numpy.ma, which np.unique loads on its first call.
    scipy's k-d tree module imports it itself, so the models here are
    matched by the linear scan."""

    def test_icp_never_imports_numpy_ma(self, tiny_dataset):
        train, _, root = tiny_dataset
        scans = sorted((root / "train_scans").iterdir())
        seen = loaded_after([
            ["register", scans[0], scans[1]],
            # At --jobs 1 every alignment runs in this process.
            ["experiment", train, "--predictor", "icp", "--runs", 2, "--jobs", 1,
             "--output", root / "experiment.csv"],
        ], names=("numpy.ma",))
        assert seen == [[False]] * 3


class TestRandomStaysOut:
    """Splits come from logmatch's own PCG64, so no command loads
    numpy.random, nor the secrets, hashlib and _hashlib modules that its
    bit generators import."""

    def test_experiment_and_split_never_import_numpy_random(self, tiny_dataset):
        train, _, root = tiny_dataset
        seen = loaded_after([
            *(["experiment", train, "--predictor", "icp,mean", "--runs", 2, "--jobs", jobs,
               "--output", root / f"icp{jobs}.csv"] for jobs in (1, 2)),
            ["experiment", train, "--predictor", "knn,mean", "--k", 1, "--runs", 2,
             "--output", root / "knn.csv"],
            ["split", train, "--runs", 2, "--output", root / "split.csv"],
        ], names=("numpy.random", "secrets", "hashlib", "_hashlib"))
        assert seen == [[False] * 4] * 5


class TestPoolIsTheOnlyParallelism:
    """BLAS runs on one thread unless OPENBLAS_NUM_THREADS says otherwise, and
    the pool modules load only when a pool starts."""

    def test_one_thread_after_the_cli_and_the_k_d_tree_load(self):
        if not os.path.isdir("/proc/self/task"):
            pytest.skip("this platform has no /proc/self/task to count threads in")
        out = run_fresh("-c", "import os; import logmatch.cli; import scipy.spatial; "
                              "print(len(os.listdir('/proc/self/task')), os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert out == "1 1\n"

    def test_an_explicit_setting_is_kept(self):
        out = run_fresh("-c", "import os; import logmatch; print(os.environ['OPENBLAS_NUM_THREADS'])",
                        OPENBLAS_NUM_THREADS="2")
        assert out == "2\n"

    def test_no_default_once_numpy_has_loaded(self):
        # numpy's BLAS has already read its setting; the process keeps it.
        out = run_fresh("-c", "import os; import numpy; import logmatch; "
                              "print(os.environ.get('OPENBLAS_NUM_THREADS'))")
        assert out == "None\n"

    def test_pool_modules_load_only_with_a_pool(self, tiny_dataset):
        # Every log has 24 points, so scipy, which imports concurrent.futures
        # itself, stays out too.
        train, test, root = tiny_dataset
        seen = loaded_after([
            ["experiment", train, "--predictor", "icp,mean,knn", "--k", 1, "--runs", 2, "--jobs", 1,
             "--output", root / "experiment1.csv"],
            ["predict", train, test, "--predictor", "icp", "--jobs", 1, "--output", root / "icp1.csv"],
            ["predict", train, test, "--predictor", "icp", "--jobs", 2, "--output", root / "icp2.csv"],
        ], names=("multiprocessing", "concurrent.futures"))
        assert seen == [[False, False]] * 3 + [[True, True]]


class TestHugeScans:
    """A scan whose largest |coordinate| is exactly the bound B runs to a
    finite result. A scan beyond B exits 2 with one error line naming the
    file, line and token of its first such coordinate, and writes no
    output. pytest turns every warning into an error, so neither warns."""

    BEYOND = [float(np.nextafter(B, np.inf)), 1e153, 1e155, 1e200, 1e300]

    @staticmethod
    def normal_arrays(top, *sizes, stretch=(1.0, 1.0, 1.0)):
        """Standard-normal (n, 3) arrays, stretched per axis and scaled so
        that the largest |coordinate| of each is exactly top."""
        rng = np.random.default_rng(61)
        arrays = [rng.standard_normal((n, 3)) * stretch for n in sizes]
        return [xyz / np.abs(xyz).max() * top for xyz in arrays]

    @staticmethod
    def write_xyz(path, xyz):
        # write_scan takes a PointCloud, which refuses coordinates beyond B.
        path.write_text("".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in xyz.tolist()))

    def write_logs(self, root, name, arrays):
        """A dataset of one log per array, its scans written as given."""
        ids = [f"{name}{i}" for i in range(len(arrays))]
        manifest = write_dataset_files(
            root, [(log_id, PointCloud(np.zeros((1, 3))), ProductBasket((i,))) for i, log_id in enumerate(ids)],
            name=name)
        for log_id, xyz in zip(ids, arrays):
            self.write_xyz(root / f"{name}_scans" / f"{log_id}.xyz", xyz)
        return manifest

    @staticmethod
    def assert_beyond_the_bound(result, path, xyz):
        code, out, err = result
        row = int(np.flatnonzero((np.abs(xyz) > B).any(axis=1))[0])
        token = next(repr(value) for value in xyz[row].tolist() if abs(value) > B)
        assert code == 2 and out == ""
        assert err == f"error: {path}:{row + 1}: coordinate {token!r} is beyond ±1e+48\n"

    def register(self, capsys, root, top, *sizes):
        paths = [root / "a.xyz", root / "b.xyz"]
        arrays = self.normal_arrays(top, *sizes)
        for xyz, path in zip(arrays, paths):
            self.write_xyz(path, xyz)
        return run_cli(capsys, "register", *paths), paths[0], arrays[0]

    @pytest.mark.parametrize("sizes", [(40, correspondence._SCAN_MAX), (300, 400)], ids=["scan", "tree"])
    def test_register_at_the_bound(self, tmp_path, capsys, sizes):
        (code, out, err), _, _ = self.register(capsys, tmp_path, B, *sizes)
        assert code == 0 and err == ""
        assert math.isfinite(json.loads(out)["mse"])

    @pytest.mark.parametrize("scale", BEYOND)
    def test_register(self, tmp_path, capsys, scale):
        self.assert_beyond_the_bound(*self.register(capsys, tmp_path, scale, 300, 400))

    @pytest.mark.parametrize("scale", [BEYOND[0], 1e155, 1e300])
    def test_register_scanned_models(self, tmp_path, capsys, scale):
        # Clouds small enough for the linear scan.
        self.assert_beyond_the_bound(*self.register(capsys, tmp_path, scale, 40, correspondence._SCAN_MAX))

    def predict(self, capsys, root, arrays, *options):
        train = self.write_logs(root, "train", arrays[:-1])
        test = self.write_logs(root, "test", arrays[-1:])
        out_path = root / "pred.csv"
        return run_cli(capsys, "predict", train, test, *options, "--output", out_path), out_path

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_predict_icp_at_the_bound(self, tmp_path, capsys, jobs):
        (code, out, err), out_path = self.predict(
            capsys, tmp_path, self.normal_arrays(B, 300, 400, 350), "--predictor", "icp", "--jobs", jobs)
        assert (code, out, err) == (0, "", "")
        assert all(math.isfinite(row.distance) for row in load_predictions(out_path)[1].values())

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize("scale", BEYOND)
    def test_predict_icp(self, tmp_path, capsys, scale, jobs):
        arrays = self.normal_arrays(scale, 300, 400, 350)
        result, out_path = self.predict(capsys, tmp_path, arrays, "--predictor", "icp", "--jobs", jobs)
        self.assert_beyond_the_bound(result, tmp_path / "train_scans" / "train0.xyz", arrays[0])
        assert not out_path.exists()

    def test_predict_knn_at_the_bound(self, tmp_path, capsys):
        arrays = self.normal_arrays(B, 60, 70, 80, 65, stretch=(10.0, 1.0, 1.0))
        (code, out, err), out_path = self.predict(capsys, tmp_path, arrays, "--predictor", "knn", "--k", 1)
        assert (code, out, err) == (0, "", "")
        assert all(math.isfinite(row.distance) for row in load_predictions(out_path)[1].values())

    def test_predict_knn_at_1e60_is_refused_before_any_feature(self, tmp_path, capsys):
        # Unbounded, the training volumes' std would overflow to inf with a
        # RuntimeWarning, and the volume z-score would silently become 0.
        arrays = self.normal_arrays(1e60, 60, 70, 80, 65, stretch=(10.0, 1.0, 1.0))
        result, out_path = self.predict(capsys, tmp_path, arrays, "--predictor", "knn", "--k", 1)
        self.assert_beyond_the_bound(result, tmp_path / "train_scans" / "train0.xyz", arrays[0])
        assert not out_path.exists()

    def test_predict_knn_refuses_a_query_too_far_from_tiny_training_scans(self, tmp_path):
        # The training features vary at the scale of 1e-150 and the query's at
        # 1e45: unchecked, its standardized distances overflow to inf with a
        # RuntimeWarning, which -W error turns into a traceback.
        rng = np.random.default_rng(7)
        train = write_dataset_files(tmp_path, [
            (f"tiny{i}", PointCloud(log_like_cloud(rng, 40).xyz * 1e-150), ProductBasket((i, 1)))
            for i in range(3)], name="train")
        test = write_dataset_files(tmp_path, [
            ("huge", PointCloud(log_like_cloud(rng, 40).xyz * 1e45), ProductBasket((0, 0)))], name="test")
        out_path = tmp_path / "pred.csv"
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(predictor.__file__))}
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "logmatch.cli", "predict", str(train), str(test),
             "--predictor", "knn", "--k", "1", "--output", str(out_path)],
            env=env, capture_output=True, text=True, timeout=300)
        assert (done.returncode, done.stdout) == (2, "")
        assert done.stderr == ("error: log 'huge': knn features lie beyond "
                               f"{predictor._Z_REACH:.2g} training standard deviations\n")
        assert not out_path.exists()

    @pytest.mark.parametrize("scale", [1e160, 1e300])
    def test_predict_knn_names_the_log(self, tiny_dataset, capsys, scale):
        train, _, root = tiny_dataset
        (huge,) = self.normal_arrays(scale, 60, stretch=(10.0, 1.0, 1.0))
        test = self.write_logs(root, "huge", [huge])
        out_path = root / "pred.csv"
        result = run_cli(capsys, "predict", train, test, "--predictor", "knn", "--k", 1, "--output", out_path)
        self.assert_beyond_the_bound(result, root / "huge_scans" / "huge0.xyz", huge)
        assert not out_path.exists()
