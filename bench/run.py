"""logmatch benchmark: times each workload as a user runs it, and traces its layers.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 1
    python3 bench/run.py --workload all --seed N --seconds S --trace both
    python3 bench/run.py --record-reference [--workload NAME]

``--trace 0`` times the workload's logmatch command, each repetition in a
fresh process with src on PYTHONPATH, and reports the end-to-end metrics.
``--trace 1`` runs the same command through bench/traced_cli.py, which
wraps the public functions of every module, and reports the per-layer
metrics; the difference to an untraced run of the same command is the
tracing overhead. ``--trace both`` does both and prints every metric.
Each metric is printed by name with its unit and sample count; the last
line of stdout is one JSON object with the keys correct, attempted, failed
and metrics, whose names carry a "<workload>/" prefix when several
workloads run. Timings are medians over the repetitions.

Every command's output is checked against reference predictions recorded
in bench/reference.json; a failed command or a mismatch makes the run
incorrect, and the runner then exits 1. ``--record-reference`` rewrites that
file from the program as it stands.

Inputs come from bench/workloads.py, seeded by --seed, and are written to a
fresh directory under bench/.work that is removed at the end.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TESTS = ROOT / "tests"
WORK = BENCH / ".work"
REFERENCE = BENCH / "reference.json"
PYTHON = sys.executable
NPROC = len(os.sched_getaffinity(0))

SETUP_REPEATS = 5
MIN_REPS = 3  # timed repetitions per run, even past --seconds
COMMAND_TIMEOUT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "logs_per_s": "logs/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "s_z": "fraction",
}
PER_LAYER = {
    "io.load_scan.s": "s",
    "io.load_scan.calls": "count",
    "io.points_per_s": "points/s",
    "io.write.s": "s",
    "correspondence.build_index.s": "s",
    "correspondence.query_batch.s": "s",
    "correspondence.query_batch.calls": "count",
    "correspondence.query_batch.us_per_point": "us",
    "correspondence.query_batch.small_model_s": "s",
    "correspondence.query_batch.large_model_s": "s",
    "registration.icp_align.calls": "count",
    "registration.icp_align.s": "s",
    "registration.icp_align.self_s": "s",
    "registration.iterations": "count",
    "registration.us_per_iteration": "us",
    "registration.max_iterations_share": "fraction",
    "predictor.icp_nn_predict_batch.s": "s",
    "predictor.distinct_pair_ratio": "fraction",
    "predictor.extract_features.s": "s",
    "predictor.extract_features.calls": "count",
    "predictor.features_per_scan": "calls/scan",
    "predictor.knn_feature_predict.s": "s",
    "dataset.split.s": "s",
    "metrics.evaluate.s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}
# Per-layer counts that must repeat exactly from one traced run to the next.
EXACT = (
    "io.load_scan.calls",
    "correspondence.query_batch.calls",
    "registration.icp_align.calls",
    "registration.iterations",
    "registration.max_iterations_share",
    "predictor.distinct_pair_ratio",
    "predictor.extract_features.calls",
    "predictor.features_per_scan",
)


@dataclass(frozen=True)
class Sample:
    """One finished command: wall time from spawn to exit, and the rusage of
    the process together with every worker it waited for."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    code: int


@dataclass
class Result:
    """Metrics of one workload phase, with their samples, and the checks."""

    metrics: dict[str, tuple[float, str, int]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def put(self, name: str, samples: list[float], unit: str) -> None:
        self.metrics[name] = (statistics.median(samples), unit, len(samples))

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"check failed: {message}", file=sys.stderr)

    def count(self, ok: bool, message: str) -> bool:
        """Count one attempted command, failed unless ok."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.fail(message)
        return ok


def spawn(cmd: list[str], log: Path) -> Sample:
    """Run cmd to completion from the checkout root; output goes to log."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=out)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def logmatch(argv: list[str]) -> list[str]:
    return [PYTHON, "-m", "logmatch.cli", *argv]


def repeat(seconds: float, min_reps: int, once) -> None:
    """Call once() at least min_reps times, then while another call fits in
    the time left."""
    deadline = time.perf_counter() + seconds
    durations: list[float] = []
    while len(durations) < min_reps or time.perf_counter() + statistics.median(durations) <= deadline:
        start = time.perf_counter()
        once()
        durations.append(time.perf_counter() - start)


# ---------------------------------------------------------------------------
# output checks


def digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def read_csv(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def prediction_rows(path: Path, run: int = 0) -> list[str]:
    """(run, test id, neighbour id, basket) per row, without the distance."""
    return [f"{run},{row[0]},{row[1]}," + " ".join(row[3:]) for row in read_csv(path)[1:]]


def basket_table(path: Path) -> dict[str, list[str]]:
    return {row[0]: row[1:] for row in read_csv(path)[1:]}


def primary_output(w, inputs, output: Path) -> dict:
    """What the reference records of one run of the workload's command."""
    if w.command == "predict":
        rows = prediction_rows(output)
        truth = basket_table(inputs.test_manifest.with_suffix(".baskets.csv"))
        hits = [row[3:] == truth[row[0]] for row in read_csv(output)[1:]]
        return {"rows_sha256": digest(rows), "s_z": sum(hits) / len(hits)}
    report = read_csv(output)
    mean_row = next(row for row in report if row[0] == f"{w.predictor}:mean")
    return {"report_sha256": hashlib.sha256(output.read_bytes()).hexdigest(), "s_z": float(mean_row[1])}


def check_output(w, inputs, output: Path, ref: dict) -> tuple[bool, float]:
    try:
        got = primary_output(w, inputs, output)
    except (OSError, IndexError, StopIteration, ValueError, KeyError):
        return False, 0.0
    return all(got[key] == ref[key] for key in got), got["s_z"]


def experiment_rows(w, inputs, work: Path, result: Result) -> list[str]:
    """Per-row predictions of every experiment run, made outside the
    experiment command: `logmatch split` lists each run's partition, and
    `logmatch predict` runs the primary predictor on it."""
    split_csv = work / "split.csv"
    ok = spawn(logmatch(["split", str(inputs.manifest), *w.split_flags(), "--output", str(split_csv)]),
               work / "split.log").code == 0
    if not result.count(ok, f"{w.name}: logmatch split failed"):
        return []
    data_dir = inputs.manifest.parent
    scan_paths = {row[0]: row[1] for row in read_csv(inputs.manifest)[1:]}
    roles: dict[tuple[int, str], list[str]] = {}
    for run, role, log_id in read_csv(split_csv)[1:]:
        roles.setdefault((int(run), role), []).append(log_id)
    rows: list[str] = []
    for run in range(w.runs):
        manifests = {}
        for role in ("train", "test"):
            path = data_dir / f"run{run}_{role}.csv"
            path.write_text("id,scan_path\n" + "".join(f"{i},{scan_paths[i]}\n" for i in roles[(run, role)]),
                            encoding="utf-8")
            manifests[role] = path
        out = work / f"run{run}_predictions.csv"
        argv = ["predict", str(manifests["train"]), str(manifests["test"]), "--baskets",
                str(inputs.manifest.with_suffix(".baskets.csv")), "--predictor", w.predictor,
                *w.icp_flags, "--jobs", "1", "--output", str(out)]
        ok = spawn(logmatch(argv), work / f"run{run}_predict.log").code == 0
        if not result.count(ok, f"{w.name}: logmatch predict of run {run} failed"):
            return []
        rows += prediction_rows(out, run)
    return rows


# ---------------------------------------------------------------------------
# phases


def measure_end_to_end(w, inputs, ref: dict, seconds: float, work: Path) -> Result:
    """Untraced: set-up probes, then the timed command, repeated."""
    result = Result()
    probe = [PYTHON, str(BENCH / "setup_probe.py"), str(inputs.manifest)]
    if inputs.test_manifest is not None:
        probe.append(str(inputs.test_manifest))
    setup: list[Sample] = []
    # The first probe compiles bytecode and warms the file cache; untimed.
    for _ in range(SETUP_REPEATS + 1):
        sample = spawn(probe, work / "setup.log")
        result.count(sample.code == 0, f"{w.name}: set-up probe exited {sample.code}")
        setup.append(sample)
    del setup[0]

    jobs = NPROC if w.scales_jobs else 1
    output = work / "output.csv"
    samples: list[Sample] = []
    s_z: list[float] = []

    def once() -> None:
        output.unlink(missing_ok=True)
        sample = spawn(logmatch(w.argv(inputs, output, jobs)), work / "command.log")
        samples.append(sample)
        ok, value = check_output(w, inputs, output, ref) if sample.code == 0 else (False, 0.0)
        s_z.append(value)
        result.count(ok, f"{w.name}: command exited {sample.code} or its output differs from the reference")

    repeat(seconds, MIN_REPS, once)
    walls = [s.wall_s for s in samples]
    result.put("wall_s", walls, "s")
    result.put("setup_s", [s.wall_s for s in setup], "s")
    result.put("logs_per_s", [inputs.test_logs * w.runs / t for t in walls], "logs/s")
    result.put("cpu_s", [s.cpu_s for s in samples], "s")
    result.put("peak_rss_mb", [s.rss_mb for s in samples], "MB")
    result.put("s_z", s_z, "fraction")
    return result


def layer_values(stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run (all but the tracing overhead)."""
    total, calls, counts = stats["total_s"], stats["calls"], stats["counts"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    qb, icp = "correspondence.SpatialIndex.query_batch", "registration.icp_align"
    return {
        "io.load_scan.s": total.get("io.load_scan", 0.0),
        "io.load_scan.calls": calls.get("io.load_scan", 0),
        "io.points_per_s": ratio(counts.get("io.points_loaded", 0), total.get("io.load_scan", 0.0)),
        "io.write.s": total.get("io.write_predictions", 0.0) + total.get("io.write_report", 0.0),
        "correspondence.build_index.s": total.get("correspondence.build_index", 0.0),
        "correspondence.query_batch.s": total.get(qb, 0.0),
        "correspondence.query_batch.calls": calls.get(qb, 0),
        "correspondence.query_batch.us_per_point":
            1e6 * ratio(total.get(qb, 0.0), counts.get("correspondence.points_queried", 0)),
        "correspondence.query_batch.small_model_s": total.get("correspondence.query_batch.small_model", 0.0),
        "correspondence.query_batch.large_model_s": total.get("correspondence.query_batch.large_model", 0.0),
        "registration.icp_align.calls": calls.get(icp, 0),
        "registration.icp_align.s": total.get(icp, 0.0),
        "registration.icp_align.self_s": stats["self_s"].get(icp, 0.0),
        "registration.iterations": counts.get("registration.iterations", 0),
        "registration.us_per_iteration":
            1e6 * ratio(total.get(icp, 0.0), counts.get("registration.iterations", 0)),
        "registration.max_iterations_share":
            ratio(counts.get("registration.max_iterations", 0), calls.get(icp, 0)),
        "predictor.icp_nn_predict_batch.s": total.get("predictor.icp_nn_predict_batch", 0.0),
        "predictor.distinct_pair_ratio": ratio(counts.get("predictor.distinct_pairs", 0), calls.get(icp, 0)),
        "predictor.extract_features.s": total.get("predictor.extract_features", 0.0),
        "predictor.extract_features.calls": calls.get("predictor.extract_features", 0),
        "predictor.features_per_scan":
            ratio(calls.get("predictor.extract_features", 0), counts.get("predictor.featured_scans", 0)),
        "predictor.knn_feature_predict.s": total.get("predictor.knn_feature_predict", 0.0),
        "dataset.split.s": total.get("dataset.split", 0.0),
        "metrics.evaluate.s": total.get("metrics.evaluate", 0.0),
        "cli.self_s": stats["main_s"] - stats["covered_s"],
    }


def measure_layers(w, inputs, ref: dict, seconds: float, work: Path) -> Result:
    """Traced: pairs of an untraced and a traced run of the command at
    --jobs 1 (workers are separate processes, which the tracer cannot see),
    then the checks that need a run of their own."""
    result = Result()
    plain_out, traced_out, stats_path = work / "plain.csv", work / "traced.csv", work / "stats.json"
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []

    def once() -> None:
        for path in (plain_out, traced_out, stats_path):
            path.unlink(missing_ok=True)
        plain = spawn(logmatch(w.argv(inputs, plain_out, 1)), work / "plain.log")
        ok = plain.code == 0 and check_output(w, inputs, plain_out, ref)[0]
        result.count(ok, f"{w.name}: untraced --jobs 1 command exited {plain.code} or differs from the reference")
        plain_walls.append(plain.wall_s)
        cmd = [PYTHON, str(BENCH / "traced_cli.py"), str(stats_path), "--", *w.argv(inputs, traced_out, 1)]
        traced = spawn(cmd, work / "traced.log")
        ok = traced.code == 0 and check_output(w, inputs, traced_out, ref)[0]
        if result.count(ok, f"{w.name}: traced command exited {traced.code} or differs from the reference"):
            traced_walls.append(traced.wall_s)
            layers.append(layer_values(json.loads(stats_path.read_text(encoding="utf-8"))))

    repeat(seconds, 1, once)
    for name in EXACT:
        if len({values[name] for values in layers}) > 1:
            result.fail(f"{w.name}: count {name} differs between traced runs")

    if w.scales_jobs:
        parallel_out = work / "parallel.csv"
        ok = spawn(logmatch(w.argv(inputs, parallel_out, NPROC)), work / "parallel.log").code == 0
        ok = ok and plain_out.is_file() and parallel_out.read_bytes() == plain_out.read_bytes()
        result.count(ok, f"{w.name}: output at --jobs {NPROC} is not byte-identical to --jobs 1")
    if w.command == "experiment":
        rows = experiment_rows(w, inputs, work, result)
        if rows and digest(rows) != ref["rows_sha256"]:
            result.fail(f"{w.name}: per-run predictions differ from the reference")

    if layers:
        for name in PER_LAYER:
            if name != "trace.overhead_s":
                result.put(name, [values[name] for values in layers], PER_LAYER[name])
        overhead = statistics.median(traced_walls) - statistics.median(plain_walls)
        result.metrics["trace.overhead_s"] = (overhead, "s", len(traced_walls))
    return result


# ---------------------------------------------------------------------------
# reference predictions


def record_reference(workloads, names: list[str]) -> int:
    """Record the primary output of the named workloads on every data seed,
    keeping what the file holds for the others."""
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.is_file() else {}
    for name in names:
        w = workloads.WORKLOADS[name]
        entries = {}
        for seed in range(workloads.DATA_SEEDS):
            with tempfile.TemporaryDirectory(dir=WORK) as tmp:
                work = Path(tmp)
                inputs = w.generate(work / "data", seed)
                output = work / "output.csv"
                jobs = NPROC if w.scales_jobs else 1
                sample = spawn(logmatch(w.argv(inputs, output, jobs)), work / "command.log")
                if sample.code != 0:
                    print(f"{name} seed {seed}: command exited {sample.code}", file=sys.stderr)
                    return 1
                entry = primary_output(w, inputs, output)
                if w.command == "experiment":
                    check = Result()
                    entry["rows_sha256"] = digest(experiment_rows(w, inputs, work, check))
                    if check.problems:
                        return 1
                entries[str(seed)] = entry
                print(f"{name} seed {seed}: s_z {entry['s_z']:.4f}", file=sys.stderr)
        reference[name] = entries
        REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


# ---------------------------------------------------------------------------
# reporting


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {
        "nproc": os.cpu_count(),
        "affinity": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu": cpu,
        "commit": commit,
        "seed": seed,
    }


def print_table(title: str, result: Result) -> None:
    print(f"{title}: {result.attempted} commands, {result.failed} failed, "
          f"error_rate {result.failed / max(result.attempted, 1):.4f}")
    for name, (value, unit, n) in result.metrics.items():
        print(f"  {name:45s} {value:14.6g} {unit:10s} n={n}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0, help="input seed (default 0)")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time per phase (default 30)")
    parser.add_argument("--trace", choices=("0", "1", "both"), default="0",
                        help="0: end-to-end metrics, 1: per-layer metrics, both: all of them")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite the reference predictions of --workload from the program as it stands")
    args = parser.parse_args(argv)

    if not (SRC / "logmatch" / "cli.py").is_file() or not (TESTS / "synthdata.py").is_file():
        print(f"error: run from a logmatch checkout; {SRC / 'logmatch'} or {TESTS / 'synthdata.py'} is missing",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(TESTS)]
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in workloads.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; expected one of {list(workloads.WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.record_reference:
        return record_reference(workloads, names)
    if not REFERENCE.is_file():
        print(f"error: {REFERENCE} is missing", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    phases = {"0": [measure_end_to_end], "1": [measure_layers], "both": [measure_end_to_end, measure_layers]}
    print("environment " + json.dumps(environment(args.seed), sort_keys=True))

    metrics: dict[str, dict] = {}
    attempted = failed = 0
    correct = True
    for name in names:
        w = workloads.WORKLOADS[name]
        ref = reference[name][str(args.seed % workloads.DATA_SEEDS)]
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            work = Path(tmp)
            inputs = w.generate(work / "data", args.seed)
            for phase in phases[args.trace]:
                result = phase(w, inputs, ref, args.seconds, work)
                print_table(f"{name} {phase.__name__}", result)
                attempted += result.attempted
                failed += result.failed
                correct = correct and not result.problems
                prefix = "" if len(names) == 1 else f"{name}/"
                for metric, (value, unit, _) in result.metrics.items():
                    metrics[prefix + metric] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
