"""``scipy`` is a test dependency only, and ``__version__`` is the project's.

The package's runtime needs numpy alone; ``scipy`` stays in the ``test``
extra, where ``cKDTree`` and ``brentq`` are oracles.  Reports name the
package by ``fractrace.__version__``, which must be the version that
``pyproject.toml`` gives the distribution.
"""

import ast
import pathlib

import pytest

import fractrace

tomllib = pytest.importorskip("tomllib")

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fractrace"
PYPROJECT = ROOT / "pyproject.toml"


def imported_modules(path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_the_package_does_not_import_scipy():
    found = [(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
             for name in imported_modules(path)
             if name.split(".")[0] == "scipy"]
    assert found == []


def test_scipy_is_listed_in_the_test_extra_only():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    groups = {"dependencies": project["dependencies"],
              **project["optional-dependencies"]}
    listing = sorted(group for group, requirements in groups.items()
                     for r in requirements if r.startswith("scipy"))
    assert listing == ["test"]


def test_version_is_the_project_version():
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    assert fractrace.__version__ == project["version"]
