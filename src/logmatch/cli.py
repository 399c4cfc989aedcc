"""Batch command-line front end.

Commands: ``register`` (align two scans), ``predict`` (basket predictions
for a test manifest), ``evaluate`` (score predictions against truth),
``experiment`` (repeated split/predict/evaluate runs), ``split`` (list the
partitions). Data goes to stdout or ``--output``; progress and errors go to
stderr so the data streams stay machine-parseable. All randomness flows
from ``--seed``.

Exit codes: 0 success, 1 internal numerical failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from typing import Sequence

import numpy as np

from . import dataset as dataset_mod
from . import io as io_mod
from . import metrics as metrics_mod
from . import predictor as predictor_mod
from .errors import InvalidInputError, NumericalError, ParseError, _integer
from .metrics import MetricConfig, ScoredPair, ScoreReport
from .geometry import PointCloud
from .predictor import LogFeatures, PredictionOutcome
from .registration import IcpConfig, icp_align, icp_distance_matrix

PREDICTOR_NAMES = ("icp", "mean", "knn")


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_icp_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("alignment")
    group.add_argument("--tau", type=float, default=1e-8,
                       help="convergence threshold on the mse drop, mm^2 (default 1e-8)")
    group.add_argument("--max-iters", type=int, default=50,
                       help="maximum ICP iterations (default 50)")
    group.add_argument("--pre-align", action="store_true",
                       help="translate the moving cloud onto the model centroid before iterating")
    group.add_argument("--stride", type=int, default=1,
                       help="subsample the moving cloud, keeping every m-th point (default 1)")


def _add_metric_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("scoring")
    group.add_argument("--epsilon", type=float, default=1e-6,
                       help="ratio-score guard for zero quantities (default 1e-6)")
    group.add_argument("--no-filter", action="store_true",
                       help="keep products where both real and predicted quantities are zero")


def _add_split_flags(parser: argparse.ArgumentParser) -> None:
    group = parser.add_argument_group("partitioning")
    group.add_argument("--train-frac", type=float, default=0.6,
                       help="fraction of records in the training set (default 0.6)")
    group.add_argument("--seed", type=int, default=0,
                       help="partition seed; the only entropy source (default 0)")
    group.add_argument("--runs", type=int, default=10,
                       help="number of repeated partitions (default 10)")
    group.add_argument("--drop-empty", action="store_true",
                       help="remove logs whose basket is all-zero before splitting")


def _add_predictor_flags(parser: argparse.ArgumentParser, multi: bool) -> None:
    group = parser.add_argument_group("prediction")
    if multi:
        group.add_argument("--predictor", default="icp",
                           help="comma-separated predictors to run: icp, mean, knn (default icp)")
    else:
        group.add_argument("--predictor", default="icp", choices=PREDICTOR_NAMES,
                           help="predictor to run (default icp)")
    group.add_argument("--k", type=int, default=3,
                       help="neighbour count for the knn predictor (default 3)")
    group.add_argument("--jobs", type=_positive_int, default=_available_cpus(),
                       help="worker processes for ICP alignments, each taking a share of the "
                            "training scans (default: the CPUs this process may run on)")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logmatch",
        description="Register 3D log scans, predict product baskets, score predictions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_register = sub.add_parser("register", help="align one scan onto another")
    p_register.add_argument("scan_a", help="moving scan file (.xyz, .csv or .ply)")
    p_register.add_argument("scan_b", help="model scan file")
    _add_icp_flags(p_register)
    p_register.add_argument("--trace", metavar="PATH",
                            help="also write the per-iteration mse trace as csv")
    p_register.set_defaults(func=cmd_register)

    p_predict = sub.add_parser("predict", help="predict baskets for a test manifest")
    p_predict.add_argument("manifest_train", help="training manifest csv (id,scan_path)")
    p_predict.add_argument("manifest_test", help="test manifest csv (id,scan_path)")
    p_predict.add_argument("--baskets", metavar="PATH",
                           help="training baskets csv (default: sibling of the training manifest)")
    _add_predictor_flags(p_predict, multi=False)
    _add_icp_flags(p_predict)
    p_predict.add_argument("--output", default="-", help="predictions csv path (default stdout)")
    p_predict.set_defaults(func=cmd_predict)

    p_evaluate = sub.add_parser("evaluate", help="score a predictions file against truth")
    p_evaluate.add_argument("predictions", help="predictions csv from the predict command")
    p_evaluate.add_argument("truth", help="truth baskets csv (id,<product...>)")
    _add_metric_flags(p_evaluate)
    p_evaluate.add_argument("--label", default="eval", help="predictor column value (default 'eval')")
    p_evaluate.add_argument("--output", default="-", help="report path (default stdout)")
    p_evaluate.add_argument("--format", default="csv", choices=("csv", "json"),
                            help="report format (default csv)")
    p_evaluate.set_defaults(func=cmd_evaluate)

    p_experiment = sub.add_parser("experiment", help="repeated split/predict/evaluate runs")
    p_experiment.add_argument("manifest", help="full dataset manifest csv")
    p_experiment.add_argument("--baskets", metavar="PATH",
                              help="baskets csv (default: sibling of the manifest)")
    _add_predictor_flags(p_experiment, multi=True)
    _add_split_flags(p_experiment)
    _add_icp_flags(p_experiment)
    _add_metric_flags(p_experiment)
    p_experiment.add_argument("--output", default="-", help="report path (default stdout)")
    p_experiment.add_argument("--format", default="csv", choices=("csv", "json"),
                              help="report format (default csv)")
    p_experiment.set_defaults(func=cmd_experiment)

    p_split = sub.add_parser("split", help="list train/test partitions without predicting")
    p_split.add_argument("manifest", help="full dataset manifest csv")
    p_split.add_argument("--baskets", metavar="PATH",
                         help="baskets csv (default: sibling of the manifest)")
    _add_split_flags(p_split)
    p_split.add_argument("--run-index", type=int, default=None,
                         help="emit a single run instead of all runs")
    p_split.add_argument("--output", default="-", help="partition csv path (default stdout)")
    p_split.set_defaults(func=cmd_split)

    return parser


def _icp_config(args: argparse.Namespace) -> IcpConfig:
    return IcpConfig(
        tau=args.tau,
        max_iterations=args.max_iters,
        pre_align=args.pre_align,
        stride=args.stride,
    )


def _metric_config(args: argparse.Namespace) -> MetricConfig:
    return MetricConfig(epsilon=args.epsilon, filter_zero_pairs=not args.no_filter)


def cmd_register(args: argparse.Namespace) -> int:
    cfg = _icp_config(args)
    moving = io_mod.load_scan(args.scan_a)
    model = io_mod.load_scan(args.scan_b)
    result, trace = icp_align(moving, model, cfg)
    quat = result.transform.rotation
    translation = result.transform.translation
    payload = {
        "q0": quat.q0, "q1": quat.q1, "q2": quat.q2, "q3": quat.q3,
        "tx": float(translation[0]), "ty": float(translation[1]), "tz": float(translation[2]),
        "mse": result.mse,
        "iterations": len(trace.iterations),
        "terminal_reason": trace.terminal_reason.value,
    }
    # The trace output is opened before the result is printed, so a trace
    # that cannot be written leaves stdout empty.
    with io_mod._open_out(args.trace) if args.trace else contextlib.nullcontext() as handle:
        json.dump(payload, sys.stdout)
        sys.stdout.write("\n")
        if args.trace:
            io_mod._write_table(handle, ("iteration", "mse"),
                                ((entry.index, entry.mse) for entry in trace.iterations))
    return 0


def _log_features(log_id: str, scan: PointCloud) -> LogFeatures:
    """The knn features of one scan; an unmeasurable scan names its log."""
    try:
        return predictor_mod.extract_features(scan)
    except InvalidInputError as exc:
        raise InvalidInputError(f"log {log_id!r}: {exc}") from None


def cmd_predict(args: argparse.Namespace) -> int:
    cfg = _icp_config(args)
    train = io_mod.load_dataset(args.manifest_train, args.baskets)
    tests = dict(io_mod.load_scans(args.manifest_test))
    if args.predictor == "icp":
        outcomes = predictor_mod.icp_nn_predict_batch(
            train.records, list(tests.values()), cfg, jobs=args.jobs)
    elif args.predictor == "mean":
        outcomes = [PredictionOutcome(predictor_mod.mean_predict(train.records))] * len(tests)
    else:
        outcomes = predictor_mod.knn_feature_predict(
            train.records,
            [_log_features(rec.id, rec.scan) for rec in train.records],
            [_log_features(log_id, scan) for log_id, scan in tests.items()],
            args.k,
            list(tests),
        )
    io_mod.write_predictions(dict(zip(tests, outcomes)), train.product_names, args.output)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _metric_config(args)
    predicted_names, predictions = io_mod.load_predictions(args.predictions)
    names, truth = io_mod.load_baskets(args.truth)
    if predicted_names != names:
        raise InvalidInputError(f"prediction and truth products differ: {list(predicted_names)} vs {list(names)}")
    missing_truth = sorted(set(predictions) - set(truth))
    missing_predictions = sorted(set(truth) - set(predictions))
    if missing_truth or missing_predictions:
        raise InvalidInputError(
            "prediction and truth ids do not match"
            + (f"; missing from truth: {missing_truth}" if missing_truth else "")
            + (f"; missing from predictions: {missing_predictions}" if missing_predictions else "")
        )
    pairs = [ScoredPair(truth[log_id], outcome.predicted) for log_id, outcome in predictions.items()]
    report = metrics_mod.evaluate(pairs, cfg)
    io_mod.write_report([(args.label, report)], args.output, args.format)
    return 0


def _mean_report(reports: Sequence[ScoreReport]) -> ScoreReport:
    n = len(reports)
    sums = [0.0] * 6
    for report in reports:
        for i, value in enumerate(report.values()):
            sums[i] += value
    return ScoreReport(*(total / n for total in sums),
                       n_evaluated=sum(report.n_evaluated for report in reports))


def _parse_predictors(value: str) -> list[str]:
    names = [name.strip() for name in value.split(",") if name.strip()]
    if not names:
        raise InvalidInputError("no predictor selected")
    for k, name in enumerate(names):
        if name not in PREDICTOR_NAMES:
            raise InvalidInputError(f"unknown predictor {name!r}; expected one of {PREDICTOR_NAMES}")
        if name in names[:k]:
            raise InvalidInputError(f"predictor {name!r} is listed twice")
    return names


def _check_runs(
    splits: Sequence[tuple[np.ndarray, np.ndarray]], predictors: Sequence[str], k: int
) -> None:
    """Reject every run's split before any alignment starts: an empty train
    or test set, or a knn --k outside [1, training set size]. The first
    failing run raises."""
    for run, (train_idx, test_idx) in enumerate(splits):
        if len(train_idx) == 0 or len(test_idx) == 0:
            raise InvalidInputError(f"run {run} produced an empty train or test set")
        if "knn" in predictors and _integer("k", k, 1) > len(train_idx):
            raise InvalidInputError(f"k must be in [1, {len(train_idx)}], got {k}")


def cmd_experiment(args: argparse.Namespace) -> int:
    predictors = _parse_predictors(args.predictor)
    spec = dataset_mod.SplitSpec(train_fraction=args.train_frac, seed=args.seed, runs=args.runs)
    icp_cfg = _icp_config(args)
    metric_cfg = _metric_config(args)
    ds = io_mod.load_dataset(args.manifest, args.baskets)
    if args.drop_empty:
        ds = dataset_mod.drop_empty(ds)
    # Each scan's knn features, indexed like ds.records.
    features = [_log_features(rec.id, rec.scan) for rec in ds.records] if "knn" in predictors else []
    splits = [dataset_mod.split_indices(len(ds), spec, run) for run in range(spec.runs)]
    _check_runs(splits, predictors, args.k)

    if "icp" in predictors:
        # Every run's (test, train) pairs in run order; a pair that recurs
        # across runs is aligned once for the command.
        pairs = [(i, j) for train_idx, test_idx in splits
                 for i in test_idx.tolist() for j in train_idx.tolist()]
        distances = icp_distance_matrix(
            [rec.scan for rec in ds.records], pairs, icp_cfg, args.jobs)
        print(f"aligned {len(set(pairs))} distinct pairs for {len(pairs)} requested over {spec.runs} runs",
              file=sys.stderr)

    rows: list[tuple[str, ScoreReport]] = []
    by_predictor: dict[str, list[ScoreReport]] = {name: [] for name in predictors}
    for run, (train_idx, test_idx) in enumerate(splits):
        train = [ds.records[i] for i in train_idx]
        test = [ds.records[i] for i in test_idx]
        for name in predictors:
            if name == "icp":
                # The run's block of distances, a row per test log and a
                # column per training log: ties go to the lowest training index.
                block, distances = np.split(distances, [len(test) * len(train)])
                outcomes = predictor_mod.nn_predict_from_distances(
                    train, block.reshape(len(test), len(train)))
            elif name == "mean":
                outcomes = [PredictionOutcome(predictor_mod.mean_predict(train))] * len(test)
            else:
                outcomes = predictor_mod.knn_feature_predict(
                    train, [features[i] for i in train_idx], [features[i] for i in test_idx], args.k,
                    [rec.id for rec in test])
            scored = [ScoredPair(rec.basket, outcome.predicted) for rec, outcome in zip(test, outcomes)]
            report = metrics_mod.evaluate(scored, metric_cfg)
            rows.append((f"{name}:run{run}", report))
            by_predictor[name].append(report)
        print(f"run {run + 1}/{spec.runs} done", file=sys.stderr)
    rows += [(f"{name}:mean", _mean_report(by_predictor[name])) for name in predictors]
    io_mod.write_report(rows, args.output, args.format)
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    spec = dataset_mod.SplitSpec(train_fraction=args.train_frac, seed=args.seed, runs=args.runs)
    _, rows = io_mod.load_manifest(args.manifest, args.baskets)
    ids = [log_id for log_id, _, basket in rows if not (args.drop_empty and basket.is_empty())]
    runs = range(spec.runs) if args.run_index is None else [args.run_index]
    # Every split is drawn, and checked, before the output is opened.
    splits = [(run, *dataset_mod.split_indices(len(ids), spec, run)) for run in runs]
    io_mod._write_rows(args.output, ("run", "role", "id"), (
        (run, role, ids[i])
        for run, train_idx, test_idx in splits
        for role, indices in (("train", train_idx), ("test", test_idx))
        for i in indices
    ))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InvalidInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
