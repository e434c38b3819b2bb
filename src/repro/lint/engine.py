"""Rule engine of the determinism & invariant linter.

The sweep engine's load-bearing guarantee — serial, parallel, and resumed
sweeps are *byte-identical* — rests on a handful of code-level invariants
(every RNG draw is fingerprint-seeded, every file write is atomic, nothing
iterates an unordered collection into a store or a seed derivation).  PR
2-6 enforced those invariants by hand-auditing each new module; this
engine turns them into machine-checked rules.

The rules are one :class:`~repro.registry.Registry`, :data:`RULES`, like
the attack and defense zoos: each rule registers a :class:`Rule` (name,
checker, fix hint, which profiles it runs in) via :func:`register_rule`,
and every consumer — the ``python -m repro.lint`` CLI, the tier-1
meta-tests, CI — resolves rules through it.  A rule is an AST walk over one
parsed source file.

Suppression is per line and must be justified::

    handle = open(path, "r+b")  # repro-lint: disable=no-raw-write -- append-only log; compaction is the atomic rewrite

A pragma on a comment-only line applies to the next line (for statements
whose line would grow too long).  A pragma with no ``-- reason`` text, or
naming a rule that does not exist, is itself reported as a violation of
the reserved ``pragma`` rule — an undocumented or typo'd suppression is
exactly the kind of silent drift the linter exists to prevent.  The
``pragma`` rule cannot be disabled.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional, Sequence

from repro.registry import Registry, RegistryError

#: Rule profiles: ``lib`` is the full invariant set enforced over
#: ``src/repro``; ``bench`` is the relaxed profile for ``benchmarks/``,
#: which legitimately reads wall clocks and writes report files but must
#: still seed every RNG draw and keep entry points picklable.
PROFILES = ("lib", "bench")

#: Reserved rule name for problems with the pragmas themselves.
PRAGMA_RULE = "pragma"


@dataclass(frozen=True)
class Violation:
    """One finding: where, which rule, what is wrong, and how to fix it."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    hint: str = ""

    def format(self) -> str:
        """The CLI's one-line text rendering: ``path:line:col: rule: ...``."""
        text = f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"
        if self.hint:
            text += f" (fix: {self.hint})"
        return text

    def to_dict(self) -> dict:
        """JSON-serializable form for ``--format json`` and CI annotations."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass(frozen=True)
class Rule:
    """One registered invariant check.

    ``check`` is called with each file's :class:`FileContext`.
    ``profiles`` names the lint profiles the rule participates in;
    ``hint`` is the one-line fix guidance appended to every violation the
    rule emits.
    """

    name: str
    check: Callable[..., Iterable[Violation]]
    description: str = ""
    hint: str = ""
    profiles: tuple[str, ...] = PROFILES


RULES = Registry("rule", pattern=r"[a-z0-9][a-z0-9-]*")


def register_rule(rule: Rule, replace: bool = False) -> Rule:
    """Add ``rule`` to :data:`RULES` after checking its profiles.

    Names are lower-case kebab-case (they appear in pragmas and CLI
    flags); duplicates are an error unless replacing.
    """
    if rule.name == PRAGMA_RULE:
        raise RegistryError(
            f"rule name {PRAGMA_RULE!r} is reserved for the engine's own "
            "pragma diagnostics"
        )
    unknown_profiles = set(rule.profiles) - set(PROFILES)
    if unknown_profiles:
        raise RegistryError(
            f"rule {rule.name!r} names unknown profile(s) "
            f"{sorted(unknown_profiles)}; known: {', '.join(PROFILES)}"
        )
    return RULES.register(rule.name, rule, replace=replace)


def available_rules() -> tuple[str, ...]:
    """All registered rule names, in registration order."""
    return RULES.names()


def rules_for(
    profile: str = "lib", names: Optional[Sequence[str]] = None
) -> tuple[Rule, ...]:
    """The rules one invocation runs: the profile's set, or ``names``.

    Explicitly-requested names bypass the profile filter — asking for a
    rule by name means "run exactly this", even on a path whose profile
    would normally relax it.
    """
    if profile not in PROFILES:
        raise RegistryError(
            f"unknown lint profile {profile!r}; known: {', '.join(PROFILES)}"
        )
    if names is not None:
        return tuple(RULES.get(name) for name in names)
    return tuple(
        rule for rule in map(RULES.get, RULES.names()) if profile in rule.profiles
    )


# --------------------------------------------------------------------------
# Pragmas: "# repro-lint: disable=<rule>[,<rule>...] -- <why>"
# --------------------------------------------------------------------------

# The rules group is lazy: greedy matching would swallow an all-word
# " -- reason" tail into the rule list and report the pragma undocumented.
_PRAGMA_PATTERN = re.compile(
    r"#\s*repro-lint:\s*disable=(?P<rules>[A-Za-z0-9_,\- ]*?)"
    r"(?:\s*--\s*(?P<reason>.*))?$"
)


@dataclass
class PragmaTable:
    """Parsed suppression pragmas of one file.

    ``disabled`` maps line numbers to the rule names suppressed there;
    ``problems`` collects malformed pragmas (no reason, unknown rule) as
    violations of the reserved ``pragma`` rule.
    """

    disabled: dict[int, set[str]] = field(default_factory=dict)
    problems: list[Violation] = field(default_factory=list)

    def suppressed(self, line: int, rule: str) -> bool:
        return rule in self.disabled.get(line, ())


def parse_pragmas(
    path: str, lines: Sequence[str], known_rules: Iterable[str]
) -> PragmaTable:
    """Scan source lines for suppression pragmas.

    An inline pragma applies to its own line; a pragma on a comment-only
    line applies to the next line (and its own, harmlessly).  Every
    pragma must name registered rules and carry a ``-- reason``; failures
    surface as ``pragma``-rule violations, which are never suppressible.
    """
    known = set(known_rules)
    table = PragmaTable()
    for number, text in enumerate(lines, start=1):
        match = _PRAGMA_PATTERN.search(text)
        if match is None:
            continue
        column = match.start() + 1
        names = [
            name.strip()
            for name in match.group("rules").split(",")
            if name.strip()
        ]
        reason = (match.group("reason") or "").strip()
        if not names:
            table.problems.append(Violation(
                rule=PRAGMA_RULE, path=path, line=number, col=column,
                message="pragma disables no rules",
                hint="write '# repro-lint: disable=<rule> -- <why>'",
            ))
            continue
        for name in names:
            if name == PRAGMA_RULE:
                table.problems.append(Violation(
                    rule=PRAGMA_RULE, path=path, line=number, col=column,
                    message="the 'pragma' rule cannot be disabled",
                    hint="fix the malformed pragma it points at instead",
                ))
            elif name not in known:
                table.problems.append(Violation(
                    rule=PRAGMA_RULE, path=path, line=number, col=column,
                    message=(
                        f"pragma names unknown rule {name!r}; registered: "
                        f"{', '.join(sorted(known))}"
                    ),
                    hint="fix the typo or drop the stale suppression",
                ))
        if not reason:
            table.problems.append(Violation(
                rule=PRAGMA_RULE, path=path, line=number, col=column,
                message=(
                    "suppression has no documented reason — an intentional "
                    "violation must say *why* it is intentional"
                ),
                hint="append ' -- <one-line justification>' to the pragma",
            ))
            continue  # undocumented pragmas do not suppress anything
        targets = [number]
        if text[: match.start()].strip() in ("", "#"):
            targets.append(number + 1)  # comment-only line: covers the next
        valid = {name for name in names if name in known}
        for target in targets:
            table.disabled.setdefault(target, set()).update(valid)
    return table


# --------------------------------------------------------------------------
# File contexts and the lint drivers.
# --------------------------------------------------------------------------


class FileContext:
    """One parsed source file handed to the rules.

    Carries the AST, raw lines, and the import table (alias -> module for
    plain imports, name -> "module.name" for from-imports) rules use to
    resolve dotted calls without re-walking the tree each.
    """

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        self.imports: dict[str, str] = {}
        self.from_imports: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = alias.name
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.from_imports[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def violation(
        self, rule: Rule, node: ast.AST, message: str
    ) -> Violation:
        """A :class:`Violation` at ``node``, carrying the rule's fix hint."""
        return Violation(
            rule=rule.name,
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            hint=rule.hint,
        )


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    known_rules: Optional[Iterable[str]] = None,
) -> list[Violation]:
    """Lint one source string with ``rules`` (default: the lib profile).

    The entry point tests and editor integrations use; :func:`lint_paths`
    drives it per file.  Violations come back sorted by position.
    """
    if rules is None:
        rules = rules_for("lib")
    if known_rules is None:
        known_rules = available_rules()
    try:
        tree = ast.parse(source)
    except SyntaxError as error:
        return [Violation(
            rule="syntax", path=path,
            line=error.lineno or 1, col=(error.offset or 0) + 1 or 1,
            message=f"file does not parse: {error.msg}",
            hint="the linter (and the interpreter) need valid syntax",
        )]
    context = FileContext(path, source, tree)
    pragmas = parse_pragmas(path, context.lines, known_rules)
    violations = list(pragmas.problems)
    for rule in rules:
        for violation in rule.check(context):
            if not pragmas.suppressed(violation.line, violation.rule):
                violations.append(violation)
    violations.sort(key=lambda v: (v.line, v.col, v.rule))
    return violations


def collect_files(paths: Sequence[str | Path]) -> list[Path]:
    """Expand ``paths`` to a sorted list of ``.py`` files.

    Sorted traversal keeps lint output (and therefore CI diffs) stable
    across filesystems — the same discipline the sweep store applies to
    its own iteration order.
    """
    files: list[Path] = []
    for entry in paths:
        entry = Path(entry)
        if entry.is_dir():
            files.extend(sorted(entry.rglob("*.py")))
        elif entry.suffix == ".py":
            files.append(entry)
        else:
            raise FileNotFoundError(
                f"lint target {entry} is neither a directory nor a .py file"
            )
    seen: set[Path] = set()
    unique: list[Path] = []
    for file in files:
        if file not in seen:
            seen.add(file)
            unique.append(file)
    return unique


def lint_paths(
    paths: Sequence[str | Path],
    profile: str = "lib",
    rule_names: Optional[Sequence[str]] = None,
) -> tuple[list[Violation], int]:
    """Lint files/directories; returns (violations, files_checked).

    Each file is parsed once and walked by every selected rule.
    Violations are sorted by (path, line, col) so output is deterministic
    regardless of traversal details.
    """
    selected = rules_for(profile, rule_names)
    files = collect_files(paths)
    known = available_rules()
    violations: list[Violation] = []
    for file in files:
        violations.extend(lint_source(
            file.read_text(encoding="utf-8"),
            path=str(file), rules=selected, known_rules=known,
        ))
    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    return violations, len(files)
