"""The package's public surface: every exported name resolves, the
README's python examples import only exported names, its library example
runs, and its modules import no private name of another module but the
shared kernels."""

import ast
import re
from pathlib import Path

import numpy as np

import logmatch
from logmatch import apply_transform, icp_distance
from logmatch.io import write_scan
from synthdata import log_like_cloud, random_transform

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = Path(__file__).resolve().parent.parent / "src" / "logmatch"

# Private names that other modules may use: the argument checks, the
# geometry kernels, the matcher that only the ICP engine drives, and the
# table writers that only the CLI calls.
SHARED = {
    "errors": {name: None for name in ("_integer", "_real", "_flag", "_instance", "_config", "_items", "_array")},
    "geometry": {name: None for name in ("_squared_distances", "_rotation_matrix")},
    "correspondence": {"_NeighbourCache": "registration", "_SCAN_MAX": "registration"},
    "io": {name: "cli" for name in ("_open_out", "_write_table", "_write_rows")},
}


def test_every_export_resolves_once():
    names = logmatch.__all__
    assert sorted(set(names)) == sorted(names), "a name is exported twice"
    assert [name for name in names if not hasattr(logmatch, name)] == []


def test_readme_imports_are_exported():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    imported = []
    for block in blocks:
        for group in re.findall(r"^from logmatch import (\([^)]*\)|.*)$", block, re.M):
            for item in group.strip("()").split(","):
                if item.strip():
                    imported.append(item.split(" as ")[0].strip())
    assert imported, "README.md has no `from logmatch import` line in a python block"
    assert [name for name in imported if name not in logmatch.__all__] == []


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    """The README's library example runs as written, on moving.xyz and
    model.xyz in the working directory."""
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    example = [block for block in blocks if "icp_align" in block]
    assert len(example) == 1, "README.md has no single python block that calls icp_align"
    rng = np.random.default_rng(5)
    model = log_like_cloud(rng, 300)
    moving = apply_transform(random_transform(rng, 0.2, 20.0), model)
    write_scan(moving, tmp_path / "moving.xyz")
    write_scan(model, tmp_path / "model.xyz")
    monkeypatch.chdir(tmp_path)
    exec(compile(example[0], str(README), "exec"), {})
    # The last line prints icp_distance of the two scans.
    assert capsys.readouterr().out.splitlines()[-1] == repr(icp_distance(moving, model))


def test_private_names_stay_in_their_module():
    """A module uses another's private name only as SHARED allows: imported
    by name (from .x import _y), or read from a sibling module imported
    whole (from . import x as alias, then alias._y)."""
    stray = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        siblings = {alias.asname or alias.name: alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level == 1 and not node.module
                    for alias in node.names}
        used = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                used += [(node.lineno, node.module, alias.name, f"from .{node.module} import {alias.name}")
                         for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in siblings:
                used.append((node.lineno, siblings[node.value.id], node.attr, f"{node.value.id}.{node.attr}"))
        for lineno, module, name, text in used:
            shared = SHARED.get(module, {})
            if name.startswith("_") and (name not in shared or shared[name] not in (None, path.stem)):
                stray.append(f"{path.name}:{lineno}: {text}")
    assert stray == []
