"""AST-based determinism & invariant linter for the OASIS reproduction.

The repo's trustworthiness rests on one property: serial, parallel, and
resumed sweeps are byte-identical.  PR 2-6 built that property by
hand-auditing every RNG draw, file write, and iteration order — and
repeatedly fixing violations after the fact (the dead
``TransformReplaceDefense`` seed, caller-RNG fallbacks, parent-only
attack registrations).  This package turns those tribal rules into
machine-checked ones:

- :mod:`repro.lint.engine` — the rule engine: :class:`Rule` /
  :class:`Violation`, per-file AST walks, line pragmas
  (``# repro-lint: disable=<rule> -- <why>``), and the rule registry
  :data:`RULES`, a :class:`~repro.registry.Registry` like the attack and
  defense zoos.
- :mod:`repro.lint.rules` — the initial rule pack encoding the real
  invariants: ``no-global-rng``, ``no-raw-write``, ``no-wallclock``,
  ``sorted-iteration``, ``picklable-entry``, and more.

Run it::

    PYTHONPATH=src python -m repro.lint src/          # full lib profile
    PYTHONPATH=src python -m repro.lint benchmarks/ --profile bench
    PYTHONPATH=src python -m repro.lint src/ --rules no-global-rng
    PYTHONPATH=src python -m repro.lint src/ --format json

Exit status is 1 when violations are found, 0 on a clean tree — CI runs
it next to the tier-1 suite, and ``tests/test_lint.py`` pins the
committed tree clean.
"""

from repro.lint.engine import (
    FileContext,
    PROFILES,
    RULES,
    Rule,
    Violation,
    available_rules,
    collect_files,
    lint_paths,
    lint_source,
    parse_pragmas,
    register_rule,
    rules_for,
)
import repro.lint.rules  # noqa: F401  (registers the built-in rule pack)

__all__ = [
    "FileContext",
    "PROFILES",
    "RULES",
    "Rule",
    "Violation",
    "available_rules",
    "collect_files",
    "lint_paths",
    "lint_source",
    "parse_pragmas",
    "register_rule",
    "rules_for",
    "main",
]

from repro.lint.cli import main  # noqa: E402  (CLI needs the rules loaded)
