"""Static checks on the package sources: allowed imports only, and every import used."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "chaoslab").glob("*.py"))
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "chaoslab"}


def _imports(tree: ast.Module):
    """(top-level module or None for a relative import, bound name) of every import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = None if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, alias.asname or alias.name


def _used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, and the strings listed in ``__all__``."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used


def test_sources_found():
    assert any(p.name == "cli.py" for p in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_allowed_and_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = list(_imports(tree))
    foreign = sorted({top for top, _ in imports if top is not None and top not in ALLOWED})
    assert not foreign, f"{path.name} imports outside the stdlib, numpy and chaoslab: {foreign}"
    used = _used_names(tree)
    unused = sorted({name for _, name in imports if name not in used})
    assert not unused, f"{path.name} imports names it never uses: {unused}"
