"""Run one logmatch command in-process with every layer's public functions traced.

Usage: python3 bench/traced_cli.py STATS.json -- <logmatch arguments>

The public functions of each module under src/logmatch are wrapped at run
time; no source file changes. A wrapped call is a span: its time is added
to its name, and to the child time of the span that was open when it
started, so a layer's self time is its total minus the part its children
cover. Spans are aggregated per name in memory and written to STATS.json,
together with the counts the benchmark derives its ratios from, when the
command ends. The exit code is the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# (module, attribute) pairs wrapped as spans named "<module>.<attribute>".
SPANS = (
    ("io", "load_scan"),
    ("io", "write_predictions"),
    ("io", "write_report"),
    ("correspondence", "build_index"),
    ("correspondence", "SpatialIndex.query_batch"),
    ("registration", "icp_align"),
    ("predictor", "icp_nn_predict_batch"),
    ("predictor", "extract_features"),
    ("predictor", "knn_feature_predict"),
    ("dataset", "split"),
    ("metrics", "evaluate"),
)

# Models up to this many points take the small-model query path.
SMALL_MODEL_POINTS = 256


class Tracer:
    """Aggregated spans plus the counts observed at the span boundaries."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.total: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()
        self.covered = 0.0  # time inside outermost spans
        self._open: list[float] = []  # child time of each open span
        self._pairs: set[tuple[int, int]] = set()
        self._featured: set[int] = set()

    def wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = self._open.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._open:
                    self._open[-1] += elapsed
                else:
                    self.covered += elapsed
            if observe is not None:
                observe(elapsed, result, *args, **kwargs)
            return result

        return traced

    # observers: counts measured where the work happens

    def _loaded(self, elapsed, cloud, *args, **kwargs) -> None:
        self.counts["io.points_loaded"] += len(cloud)

    def _queried(self, elapsed, result, index, xyz) -> None:
        self.counts["correspondence.points_queried"] += len(xyz)
        side = "small" if len(index) <= SMALL_MODEL_POINTS else "large"
        self.total[f"correspondence.query_batch.{side}_model"] += elapsed

    def _aligned(self, elapsed, result, moving, model, *args, **kwargs) -> None:
        _, trace = result
        self.counts["registration.iterations"] += len(trace.iterations)
        if trace.terminal_reason.value == "max_iterations":
            self.counts["registration.max_iterations"] += 1
        self._pairs.add((id(moving), id(model)))
        self.counts["predictor.distinct_pairs"] = len(self._pairs)

    def _featured_scan(self, elapsed, result, scan) -> None:
        self._featured.add(id(scan))
        self.counts["predictor.featured_scans"] = len(self._featured)

    def install(self) -> list[str]:
        """Wrap every span target; returns the names that do not exist."""
        observers = {
            "io.load_scan": self._loaded,
            "correspondence.SpatialIndex.query_batch": self._queried,
            "registration.icp_align": self._aligned,
            "predictor.extract_features": self._featured_scan,
        }
        modules = [m for name, m in sys.modules.items() if name == "logmatch" or name.startswith("logmatch.")]
        missing = []
        for module_name, attr in SPANS:
            name = f"{module_name}.{attr}"
            owner_name, _, leaf = attr.rpartition(".")
            owner = sys.modules.get(f"logmatch.{module_name}")
            if owner_name:
                owner = getattr(owner, owner_name, None)
            original = getattr(owner, leaf, None)
            if original is None:
                missing.append(name)
                continue
            wrapped = self.wrap(name, original, observers.get(name))
            if owner_name:
                setattr(owner, leaf, wrapped)
                continue
            # Rebind the function in every logmatch module that imported it.
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, key, wrapped)
        return missing

    def stats(self, exit_code: int, main_s: float, missing: list[str]) -> dict:
        return {
            "exit_code": exit_code,
            "main_s": main_s,
            "covered_s": self.covered,
            "missing": missing,
            "calls": dict(self.calls),
            "total_s": dict(self.total),
            "self_s": dict(self.self_time),
            "counts": dict(self.counts),
        }


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import logmatch.cli  # noqa: F401  (imports every module before wrapping)

    tracer = Tracer()
    missing = tracer.install()
    for name in missing:
        print(f"traced_cli: {name} not found, not traced", file=sys.stderr)
    start = time.perf_counter()
    code = logmatch.cli.main(argv[2:])
    main_s = time.perf_counter() - start
    Path(argv[0]).write_text(json.dumps(tracer.stats(code, main_s, missing)), encoding="utf-8")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
