"""The package's public surface: every exported name resolves, and the
README's python examples import only exported names."""

import re
from pathlib import Path

import logmatch

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
