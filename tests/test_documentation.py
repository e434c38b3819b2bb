"""Documentation guarantees: every public item carries a docstring.

Deliverable-level check: the library promises doc comments on all public
API; this test walks the package and enforces it so the promise cannot
silently rot.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.tensor",
    "repro.nn",
    "repro.data",
    "repro.augment",
    "repro.fl",
    "repro.attacks",
    "repro.defense",
    "repro.metrics",
    "repro.experiments",
    "repro.utils",
]


def _all_modules():
    modules = []
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package)
        for info in pkgutil.iter_modules(package.__path__, package_name + "."):
            modules.append(importlib.import_module(info.name))
    return modules


MODULES = _all_modules()


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


def _public_members():
    members = []
    for module in MODULES:
        # A module's ``__all__`` is its public surface, resolved through
        # getattr so lazily re-exported names (PEP 562) are walked too.
        names = getattr(module, "__all__", None) or list(vars(module))
        for name in names:
            obj = getattr(module, name)
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", "").startswith("repro"):
                members.append((f"{module.__name__}.{name}", obj))
    return members


@pytest.mark.parametrize(
    "qualified_name,obj",
    _public_members(),
    ids=[name for name, _ in _public_members()],
)
def test_public_item_has_docstring(qualified_name, obj):
    assert inspect.getdoc(obj), f"{qualified_name} lacks a docstring"


def test_readme_and_design_exist():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (root / name).exists(), f"{name} missing from repository root"
