"""The package's public surface: every exported name resolves, the
README's python examples import only exported names, and its library
example runs."""

import re
from pathlib import Path

import numpy as np

import logmatch
from logmatch import apply_transform, icp_distance
from logmatch.io import write_scan
from synthdata import log_like_cloud, random_transform

README = Path(__file__).resolve().parent.parent / "README.md"


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
