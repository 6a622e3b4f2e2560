"""Static checks on the package sources and docs: allowed imports only, every import used,
the README's caps at their values in the code, its CLI section naming every option, the
packaged defaults writing exactly the [run] keys that the configuration reads, and every
benchmark record well-formed."""

from __future__ import annotations

import argparse
import ast
import configparser
import json
import re
import sys
from pathlib import Path

import pytest

from chaoslab import cli, config

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "chaoslab").glob("*.py"))
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


# each cap in extremal.py and dyadic.py, and the phrase that states it in README's "Caps" section
README_CAPS = {
    "EXHAUSTIVE_CAP": "exhaustive minimization up to `n = {EXHAUSTIVE_CAP}`",
    "EXACT_AVERAGE_CAP": "exact averages up to `n = {EXACT_AVERAGE_CAP}`",
    "MONTE_CARLO_CAP": "Monte-Carlo up to `n = {MONTE_CARLO_CAP}`",
    "WALSH_K_CAP": "Walsh arrangements up to `k = {WALSH_K_CAP}`",
    "MAX_BITS_1D/2D": "{MAX_BITS_1D} sign bits on the interval and {MAX_BITS_2D} total bits",
    "SUP_(UN)DECOUPLED_CAP": "{SUP_DECOUPLED_CAP} rows (decoupled) / {SUP_UNDECOUPLED_CAP} (undecoupled)",
}


def _readme_section(title: str) -> str:
    """README's "## <title>" section, whitespace runs folded to one space."""
    text = (ROOT / "README.md").read_text()
    section = re.search(rf"^## {title}\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    assert section, f"README has no '## {title}' section"
    return " ".join(section.group(1).split())


@pytest.mark.parametrize("name", sorted(README_CAPS))
def test_readme_states_search_cap(name):
    caps = {
        node.targets[0].id: node.value.value
        for module in ("extremal.py", "dyadic.py")
        for node in ast.parse((ROOT / "src" / "chaoslab" / module).read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
        and isinstance(node.value, ast.Constant)
    }
    phrase = README_CAPS[name].format(**caps)
    assert phrase in _readme_section("Caps"), f"README's Caps section does not say {phrase!r}"


def _cli_names() -> list[str]:
    """Every global option, subcommand and subcommand option of the CLI's parser, but help."""
    names = []
    for action in cli._build_parser()._actions:
        if isinstance(action, argparse._SubParsersAction):
            for command, sub in action.choices.items():
                names.append(command)
                names += [opt for a in sub._actions if not isinstance(a, argparse._HelpAction)
                          for opt in a.option_strings]
        elif not isinstance(action, argparse._HelpAction):
            names += action.option_strings
    return names


@pytest.mark.parametrize("name", _cli_names())
def test_readme_cli_section_names_option(name):
    # options in flag form (`--k`, `[--no-cache]`), commands as the start of a table cell
    pattern = rf"[\[`\s]{re.escape(name)}\b" if name.startswith("-") else rf"\| `{name}\b"
    assert re.search(pattern, _readme_section("CLI")), f"README's CLI section does not name {name}"


def test_default_cfg_run_keys_are_the_loaded_keys():
    parser = configparser.ConfigParser()
    parser.read_string((ROOT / "src" / "chaoslab" / "default.cfg").read_text())
    assert list(parser["run"]) == list(config._RUN_KEYS)


BENCH_RECORDS = sorted(ROOT.glob("BENCH_pr*.json"))


def test_bench_records_found():
    assert BENCH_RECORDS


@pytest.mark.parametrize("path", BENCH_RECORDS, ids=lambda p: p.name)
def test_bench_record_is_well_formed(path):
    record = json.loads(path.read_text())
    assert record["label"] == path.stem.removeprefix("BENCH_")
    assert re.match(r"python3? chaosbench/run\.py ", record["command"]), record["command"]
    assert re.fullmatch(r"[0-9a-f]{40}", record["parent_commit"]), record["parent_commit"]
