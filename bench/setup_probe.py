"""Set-up probe: what a workload pays before its first prediction can start.

Usage: python3 bench/setup_probe.py DATASET_MANIFEST [SCAN_MANIFEST ...]

Starts with the interpreter, imports the CLI, and loads the dataset
manifest with its baskets table and scans, then the scans of every further
manifest, through the same io functions the commands use. Run it with
src on PYTHONPATH; the benchmark times it from spawn to exit.
"""

import sys

import logmatch.cli  # noqa: F401  (the import cost is part of set-up)
from logmatch import io

if __name__ == "__main__":
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        raise SystemExit(2)
    io.load_dataset(sys.argv[1])
    for manifest in sys.argv[2:]:
        io.load_scans(manifest)
