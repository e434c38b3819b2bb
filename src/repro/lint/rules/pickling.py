"""``picklable-entry``: executor entry points must be module-level.

The sweep executors ship ``(key, fn, payload)`` tasks to worker
processes, and under the ``spawn`` start method (the default off Linux)
every callable crossing that boundary is pickled by qualified name.  A
``lambda`` or a function defined inside another function pickles on no
platform — and the failure is deferred and environment-dependent: the
serial path works, Linux ``fork`` works, and the macOS/Windows CI matrix
dies with an opaque ``PicklingError``.  The grid task functions in
``repro.experiments.runner`` are module-level for exactly this reason; the
registration variant (a parent-only registered defense) fails the same
way, invisible to spawned workers.

Flagged: a ``lambda``, or a name whose only definition in the file is
nested inside another function, passed as

- the ``target=`` keyword of a ``Process(...)``-style call, or
- the first argument of ``.submit(...)`` / ``.map(...)`` /
  ``.apply_async(...)`` / ``.run_in_executor(...)`` style dispatch calls.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import FileContext, Rule, Violation, register_rule

_DISPATCH_ATTRS = frozenset({
    "submit", "map", "map_async", "apply_async", "starmap",
    "starmap_async", "run_in_executor", "imap", "imap_unordered",
})


def _module_level_names(tree: ast.Module) -> set[str]:
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
    return names


def _nested_def_names(tree: ast.Module) -> set[str]:
    nested: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for inner in ast.walk(node):
                if inner is node:
                    continue
                if isinstance(inner, (ast.FunctionDef,
                                      ast.AsyncFunctionDef)):
                    nested.add(inner.name)
    return nested


def _check(context: FileContext) -> Iterator[Violation]:
    module_level = _module_level_names(context.tree)
    nested = _nested_def_names(context.tree) - module_level
    # Names imported at module level resolve by qualified name too.
    importable = (
        module_level | set(context.imports) | set(context.from_imports)
    )

    def candidate(value: ast.expr, where: str):
        if isinstance(value, ast.Lambda):
            return context.violation(RULE, value, (
                f"lambda passed as {where} cannot cross a process "
                "boundary (lambdas do not pickle)"
            ))
        if (
            isinstance(value, ast.Name)
            and value.id in nested
            and value.id not in importable
        ):
            return context.violation(RULE, value, (
                f"{value.id!r} passed as {where} is defined inside another "
                "function — closures do not pickle under the spawn start "
                "method"
            ))
        return None

    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        for keyword in node.keywords:
            if keyword.arg == "target":
                violation = candidate(keyword.value, "a Process target")
                if violation is not None:
                    yield violation
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DISPATCH_ATTRS
            and node.args
        ):
            violation = candidate(
                node.args[0], f"an executor .{node.func.attr}() callable"
            )
            if violation is not None:
                yield violation


RULE = register_rule(Rule(
    name="picklable-entry",
    check=_check,
    description=(
        "callables handed to executors/mp.Process are module-level, "
        "never lambdas or closures (spawn start method pickles by name)"
    ),
    hint=(
        "move the entry point to module level, like "
        "repro.experiments.runner.average_psnr_task"
    ),
    profiles=("lib", "bench"),
))
