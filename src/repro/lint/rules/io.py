"""``no-raw-write``: library file writes must be atomic.

The resumable sweep stores, golden files, and checkpoint artifacts all
rely on the crash contract of :mod:`repro.utils.checkpoint`: a reader
observes either the old complete file or the new complete file, never a
truncated half-write.  A bare ``open(path, "w")`` (or ``Path.write_text``,
or ``np.save`` straight to a path) reintroduces the torn-file window that
PR 3 removed — a process killed mid-write leaves a file that parses as
empty or corrupt and silently poisons the next resumed run.

Flagged:

- ``open(...)`` / ``os.fdopen(...)`` with a mode containing ``w``, ``a``,
  ``x``, or ``+``;
- ``<path>.write_text(...)`` / ``<path>.write_bytes(...)``;
- ``np.save`` / ``np.savez`` / ``np.savez_compressed`` / ``np.savetxt``.

Reads are never flagged.  The atomic writers themselves
(:mod:`repro.utils.checkpoint`) and deliberate append-log writers
(:class:`~repro.experiments.sweep.SweepStore`) carry documented pragmas —
the point is that every non-atomic write is visible and justified.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    FileContext,
    Rule,
    Violation,
    dotted_name,
    register_rule,
)

_WRITE_MODE_CHARS = frozenset("wax+")
_NUMPY_WRITERS = frozenset({"save", "savez", "savez_compressed", "savetxt"})


def _mode_argument(node: ast.Call) -> "ast.expr | None":
    for keyword in node.keywords:
        if keyword.arg == "mode":
            return keyword.value
    if len(node.args) >= 2:
        return node.args[1]
    return None


def _is_write_mode(mode: "ast.expr | None") -> bool:
    if mode is None:
        return False  # bare open(path) reads
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODE_CHARS & set(mode.value))
    return False  # dynamic modes are not statically decidable


def _check(context: FileContext) -> Iterator[Violation]:
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        name = dotted_name(node.func)
        if name in ("open", "os.fdopen") and _is_write_mode(
            _mode_argument(node)
        ):
            yield context.violation(RULE, node, (
                f"{name}() with a write mode is not crash-safe — a kill "
                "mid-write leaves a torn file"
            ))
            continue
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
            "write_text", "write_bytes"
        ):
            yield context.violation(RULE, node, (
                f".{node.func.attr}() writes in place without the "
                "temp-file + fsync + os.replace contract"
            ))
            continue
        if name is not None:
            parts = name.split(".")
            if (
                len(parts) == 2
                and parts[1] in _NUMPY_WRITERS
                and context.imports.get(parts[0]) == "numpy"
            ):
                yield context.violation(RULE, node, (
                    f"np.{parts[1]}() writes the target file in place; "
                    "serialize to an in-memory buffer and write atomically"
                ))


RULE = register_rule(Rule(
    name="no-raw-write",
    check=_check,
    description=(
        "library code writes files only through the atomic "
        "repro.utils.checkpoint helpers"
    ),
    hint=(
        "use repro.utils.checkpoint.atomic_write_text/atomic_write_lines/"
        "atomic_write_bytes (serialize arrays into an io.BytesIO first)"
    ),
    profiles=("lib",),
))
