"""Repository hygiene: no unused imports in the package, and the README examples run."""

import ast
import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from deltan.cli import main

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(p for p in (ROOT / "src" / "deltan").glob("*.py") if p.name != "__init__.py")
README = (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_block(heading, language):
    """The first fenced block of ``language`` after the README heading."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted(name for name in imported if name not in used)
    assert not unused, f"{path.name}: unused imports {unused}"


def test_readme_library_tour_runs():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        exec(compile(_readme_block("Library tour", "python"), "README.md", "exec"), {})
    assert "claims: 1, total failures: 0" in out.getvalue()


COMMANDS = [shlex.split(line.split("#", 1)[0])[1:]
            for line in _readme_block("Command line", "sh").splitlines()
            if line.startswith("deltan ")]


@pytest.mark.parametrize("argv", [a for a in COMMANDS
                                  if a[0] in ("ideals", "classify", "explain")], ids=" ".join)
def test_readme_command_line_examples_exit_0(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv) == 0
    assert out.getvalue()
