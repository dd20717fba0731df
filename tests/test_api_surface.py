"""API-surface hygiene: exports resolve, and public items are documented.

These tests keep the library honest as it grows: every name in every
``__all__`` must import, every public module/class/function must carry a
docstring, and the version is consistent between the package and its
metadata.
"""

import importlib
import importlib.metadata
import inspect
import pkgutil
import re
from pathlib import Path

import pytest

import repro

SUBPACKAGES = [
    "repro",
    "repro.api",
    "repro.core",
    "repro.curves",
    "repro.datasets",
    "repro.experiments",
    "repro.geometry",
    "repro.graph",
    "repro.index",
    "repro.linalg",
    "repro.mapping",
    "repro.metrics",
    "repro.query",
    "repro.service",
    "repro.storage",
    "repro.viz",
]


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_all_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} missing"


@pytest.mark.parametrize("module_name", SUBPACKAGES)
def test_public_items_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__, f"{module_name} lacks a module docstring"
    for name in module.__all__:
        item = getattr(module, name)
        if inspect.isclass(item) or inspect.isfunction(item):
            assert item.__doc__, f"{module_name}.{name} lacks a docstring"


def test_every_module_has_docstring():
    for info in pkgutil.walk_packages(repro.__path__,
                                      prefix="repro."):
        module = importlib.import_module(info.name)
        assert module.__doc__, f"{info.name} lacks a module docstring"


def test_version_consistency():
    """``repro.__version__`` matches ``pyproject.toml`` in a source
    checkout, and the installed metadata too when the distribution is
    installed."""
    pyproject = (Path(__file__).resolve().parents[1]
                 / "pyproject.toml").read_text()
    # A regex, not tomllib: Python 3.10 has no tomllib.
    project = pyproject.split("[project]", 1)[1].split("\n[", 1)[0]
    declared = re.search(r'^version\s*=\s*"([^"]+)"', project, re.M)
    assert declared is not None, "pyproject.toml [project] has no version"
    assert repro.__version__ == declared.group(1)
    try:
        installed = importlib.metadata.version("repro")
    except importlib.metadata.PackageNotFoundError:
        return
    assert installed == repro.__version__


def test_public_api_covers_the_paper_pipeline():
    """The README's quickstart names must exist at top level."""
    for name in ("Grid", "Box", "Graph", "SpectralLPM", "spectral_order",
                 "paper_mappings", "LinearOrder",
                 "fiedler_vector", "add_access_pattern",
                 # the unified repro.api facade
                 "SpectralIndex", "PointSet", "make_mapping",
                 "as_domain", "RangeQuery", "NNQuery", "JoinQuery"):
        assert name in repro.__all__


def test_api_package_is_typed_and_exported():
    """repro.api ships py.typed and a curated __all__."""
    import pathlib

    import repro.api

    assert repro.api.__all__, "repro.api lacks __all__"
    package_root = pathlib.Path(repro.__file__).parent
    assert (package_root / "py.typed").exists(), \
        "py.typed marker missing from the repro package"
    # The facade itself resolves through the package root too.
    assert repro.SpectralIndex is repro.api.SpectralIndex
