"""CLI of the determinism linter: ``python -m repro.lint [paths] ...``.

Exit status: 0 on a clean tree, 1 when violations are found, 2 on usage
errors (argparse's convention).  ``--format json`` emits a single JSON
object (violations plus counts) for CI annotation tooling; the default
text format prints one ``path:line:col: rule: message`` line per finding,
matching compiler conventions so editors can jump to it.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.lint.engine import PROFILES, RULES, available_rules, lint_paths
from repro.registry import RegistryError


def _list_rules() -> str:
    lines = []
    for name in available_rules():
        rule = RULES.get(name)
        profiles = ",".join(rule.profiles)
        lines.append(f"{name} [{profiles}] - {rule.description}")
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the linter CLI; returns the process exit status (0/1/2)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "AST-based determinism & invariant linter: checks that every "
            "RNG draw is seeded, writes are atomic, iteration orders are "
            "deterministic, executor entries pickle, and registry knob "
            "declarations match their constructors."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--rules",
        default=None,
        help=(
            "comma-separated rule names to run instead of the profile's "
            f"full set; registered: {', '.join(available_rules())}"
        ),
    )
    parser.add_argument(
        "--profile",
        choices=PROFILES,
        default="lib",
        help=(
            "rule profile: 'lib' enforces the full invariant set "
            "(src/repro), 'bench' relaxes the write/wallclock rules for "
            "benchmark harnesses, which still must seed every RNG draw "
            "(default: lib)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        dest="output_format",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the registered rules and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        print(_list_rules())
        return 0

    rule_names = None
    if args.rules is not None:
        rule_names = [
            name.strip() for name in args.rules.split(",") if name.strip()
        ]
        if not rule_names:
            parser.error("--rules must name at least one rule")

    try:
        violations, checked = lint_paths(
            args.paths, profile=args.profile, rule_names=rule_names
        )
    except RegistryError as error:
        parser.error(str(error))
    except FileNotFoundError as error:
        parser.error(str(error))

    if args.output_format == "json":
        print(json.dumps(
            {
                "profile": args.profile,
                "checked_files": checked,
                "violations": [v.to_dict() for v in violations],
            },
            indent=2,
            sort_keys=True,
        ))
    else:
        for violation in violations:
            print(violation.format())
        summary = (
            f"{len(violations)} violation(s) in {checked} file(s) checked "
            f"(profile: {args.profile})"
        )
        if violations:
            print(summary, file=sys.stderr)
        else:
            print(f"clean: {summary}")
    return 1 if violations else 0
