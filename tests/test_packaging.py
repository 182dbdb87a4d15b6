"""Packaging: every third-party module ``src/`` imports at module level
is a declared dependency, so a fresh ``pip install -e .`` can import
the package."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _top_level_imports() -> dict[str, str]:
    """Third-party module → one ``src/`` file importing it at module
    level (neither stdlib nor ``repro``)."""
    found: dict[str, str] = {}
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top != "repro":
                    found.setdefault(top, str(path.relative_to(ROOT)))
    return found


def _normalized(name: str) -> str:
    return name.lower().replace("_", "-")


def test_module_level_imports_are_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")   # Python 3.11+
    with open(ROOT / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    declared = {_normalized(re.match(r"[\w.-]+", spec).group())
                for spec in project["dependencies"]}
    missing = {module: path for module, path in _top_level_imports().items()
               if _normalized(module) not in declared}
    assert not missing, f"imported but not in [project] dependencies: {missing}"
