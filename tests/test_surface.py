"""The package namespace: what it exports, and what the README shows."""

import ast
import re
from pathlib import Path

import pytest

import implicurve

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in implicurve.__all__ if not hasattr(implicurve, name)]
    assert missing == []
    assert len(set(implicurve.__all__)) == len(implicurve.__all__)


def _entry_points_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library entry points", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_entry_points_import():
    block = _entry_points_block()
    assert "from implicurve import" in block
    exec(compile(block, "README.md", "exec"), {})


def test_readme_entry_points_are_the_exports():
    imported = {alias.name for node in ast.walk(ast.parse(_entry_points_block()))
                if isinstance(node, ast.ImportFrom) and node.module == "implicurve"
                for alias in node.names}
    assert imported == set(implicurve.__all__)


@pytest.mark.parametrize("name", ["IPatchSpec", "ipatch_eval", "ipatch_gradient",
                                  "match_scale", "intersect_lines",
                                  "conic_tangent_line_at", "line_product",
                                  "conic_eval"])
def test_removed_names_are_gone(name):
    assert not hasattr(implicurve, name)
    assert name not in implicurve.__all__
