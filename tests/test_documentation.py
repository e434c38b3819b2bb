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


FIRST_LEVEL = _all_modules()
# The first-level walk above misses deeper modules (repro.fl.secagg.*,
# repro.lint.rules.*) and the __main__ modules; walking the whole tree
# adds each of them once.
MODULES = FIRST_LEVEL + [
    module
    for module in (
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
    )
    if module not in FIRST_LEVEL
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_has_docstring(module):
    assert module.__doc__, f"{module.__name__} lacks a module docstring"


def _public_members():
    members = []
    for module in FIRST_LEVEL:
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
    # Anything the first-level walk did not reach, once, under the module
    # that defines it.
    checked = {id(obj) for _, obj in members}
    for module in MODULES:
        for name, obj in vars(module).items():
            if name.startswith("_") or id(obj) in checked:
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) == module.__name__:
                members.append((f"{module.__name__}.{name}", obj))
    return members


PUBLIC_MEMBERS = _public_members()


@pytest.mark.parametrize(
    "qualified_name,obj",
    PUBLIC_MEMBERS,
    ids=[name for name, _ in PUBLIC_MEMBERS],
)
def test_public_item_has_docstring(qualified_name, obj):
    assert inspect.getdoc(obj), f"{qualified_name} lacks a docstring"


def test_readme_and_design_exist():
    from pathlib import Path

    root = Path(repro.__file__).resolve().parents[2]
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md"):
        assert (root / name).exists(), f"{name} missing from repository root"
