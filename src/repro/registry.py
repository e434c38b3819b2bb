"""One registry for every pluggable axis: name -> entry, built from specs.

Attacks, defenses, aggregation rules, arrival processes and lint rules are
each a :class:`Registry`.  An entry is usually a class or factory; its
*knobs* are the keyword parameters of that callable, read once with
:func:`inspect.signature`, so the constructor is the only declaration a
knob ever has.  :meth:`Registry.build` checks a request against them::

    ATTACKS.build("cah", {"activation_probability": 0.05},
                  num_neurons=64, seed=3)

``knobs`` must all be declared; an undeclared one is a configuration typo
and raises :class:`SpecError`.  The keyword ``context`` (``num_neurons``,
``seed``, ...) is what a domain wrapper offers every entry and is passed
only to callables whose signature names it.  An entry may also be a lazy
``"module:attr"`` string, imported on first use, for entries whose module
imports the registering one.

Spec-string grammar
-------------------

A spec is a ``">"``-separated chain of stages; each stage is a registered
name with optional ``knob=value`` arguments::

    WO                              # one stage, no knobs
    dpsgd(noise_multiplier=0.5)     # one stage with a knob
    SH>prune(prune_fraction=0.8)>dpfed

Values parse as Python literals (``0.5``, ``True``) with bare words
falling back to strings (``suite=MR``).  :meth:`Registry.build` takes one
stage; chains are a defense-pipeline notion (see
:func:`repro.defense.registry.make_defense`).

Adding an entry is one line, at import time, in a module that parallel
sweep workers also import (under the ``spawn`` start method each worker
re-imports the registries, so a parent-only registration is invisible to
workers)::

    ATTACKS.register("myattack", MyAttack)
"""

from __future__ import annotations

import ast
import inspect
import re
from importlib import import_module
from typing import Mapping, Optional

#: Joins the stages of a chained spec (``"MR>dpsgd"``).
STAGE_SEPARATOR = ">"

#: Names may carry "+" (suite unions like MR+SH) and "-" but none of the
#: grammar's structural characters (">", parens, commas, "=", whitespace).
NAME_PATTERN = r"[A-Za-z0-9_+-]+"
IDENTIFIER_PATTERN = r"[A-Za-z_][A-Za-z0-9_]*"


class RegistryError(ValueError):
    """Base for registry misuse errors."""


class UnknownNameError(RegistryError):
    """The requested name is not registered."""


class DuplicateNameError(RegistryError):
    """A name is already registered (pass ``replace=True`` to allow)."""


class SpecError(RegistryError):
    """A spec does not parse, or names a knob its entry does not declare."""


def _keyword_parameters(entry) -> frozenset[str]:
    """The parameters of ``entry`` that can be passed by keyword."""
    return frozenset(
        name
        for name, parameter in inspect.signature(entry).parameters.items()
        if parameter.kind in (parameter.POSITIONAL_OR_KEYWORD, parameter.KEYWORD_ONLY)
    )


class Registry:
    """Named entries of one kind (``"attack"``, ``"defense"``, ...).

    ``pattern`` is the full-match regex a name must satisfy; it must stay
    within :data:`NAME_PATTERN` so every name parses as a spec stage.
    Entries keep registration order.
    """

    def __init__(self, kind: str, pattern: str = NAME_PATTERN) -> None:
        self.kind = kind
        self.plural = kind + ("es" if kind.endswith("s") else "s")
        self._pattern = re.compile(pattern)
        self._entries: dict[str, object] = {}
        self._knobs: dict[str, frozenset[str]] = {}

    def register(self, name: str, entry, replace: bool = False):
        """Add ``entry`` under ``name``; duplicates raise unless replacing."""
        if not isinstance(name, str) or not self._pattern.fullmatch(name):
            raise RegistryError(
                f"{self.kind} name {name!r} must match "
                f"{self._pattern.pattern!r}"
            )
        if name in self._entries and not replace:
            raise DuplicateNameError(
                f"{self.kind} {name!r} is already registered; pass "
                "replace=True to overwrite it deliberately"
            )
        self._entries[name] = entry
        self._knobs.pop(name, None)
        if callable(entry):
            self._knobs[name] = _keyword_parameters(entry)
        return entry

    def unregister(self, name: str) -> None:
        """Remove an entry (plugin teardown / test hygiene)."""
        if name not in self._entries:
            raise UnknownNameError(
                f"cannot unregister unknown {self.kind} {name!r}"
            )
        del self._entries[name]
        self._knobs.pop(name, None)

    def get(self, name: str):
        """The entry registered as ``name``, importing a lazy one."""
        try:
            entry = self._entries[name]
        except KeyError:
            raise UnknownNameError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{', '.join(self._entries)}"
            ) from None
        if isinstance(entry, str):
            module, _, attribute = entry.partition(":")
            entry = getattr(import_module(module), attribute)
            self._entries[name] = entry
            self._knobs[name] = _keyword_parameters(entry)
        return entry

    def names(self) -> tuple[str, ...]:
        """Every registered name, in registration order."""
        return tuple(self._entries)

    def build(self, spec: str, knobs: Optional[Mapping] = None, /, **context):
        """Call the entry of a one-stage ``spec`` with its knobs.

        Knobs come from the spec's parentheses and ``knobs`` (which wins on
        a clash); each must be a keyword parameter of the entry.  Items of
        ``context`` are passed only where the entry's signature names them.
        """
        stages = parse_spec(spec)
        if len(stages) != 1:
            raise SpecError(
                f"{self.kind} spec {spec!r} has {len(stages)} stages; "
                "expected one"
            )
        [(name, chosen)] = stages
        entry = self.get(name)
        accepted = self._knobs[name]
        chosen.update(knobs or {})
        undeclared = set(chosen) - accepted
        if undeclared:
            raise SpecError(
                f"unknown knob(s) {sorted(undeclared)} for {self.kind} "
                f"{name!r}; declared knobs: {sorted(accepted - set(context))}"
            )
        passed = {key: value for key, value in context.items() if key in accepted}
        return entry(**{**passed, **chosen})


# --------------------------------------------------------------------------
# The spec grammar.
# --------------------------------------------------------------------------


def _parse_value(text: str):
    """A knob value: a Python literal, or a bare word as a string."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


_STAGE_PATTERN = re.compile(
    r"^(?P<name>[A-Za-z0-9_+-]+)(?:\((?P<kwargs>.*)\))?$"
)


def _parse_stage(token: str, spec: str) -> tuple[str, dict]:
    match = _STAGE_PATTERN.match(token)
    if match is None:
        raise SpecError(
            f"cannot parse stage {token!r} in spec {spec!r}; "
            "expected name or name(knob=value, ...)"
        )
    name = match.group("name")
    kwargs: dict = {}
    body = match.group("kwargs")
    if body:
        for part in body.split(","):
            part = part.strip()
            if not part:
                continue
            key, separator, value = part.partition("=")
            if not separator or not key.strip():
                raise SpecError(
                    f"cannot parse knob {part!r} of stage {token!r} in spec "
                    f"{spec!r}; expected knob=value"
                )
            kwargs[key.strip()] = _parse_value(value.strip())
    return name, kwargs


def parse_spec(spec: str) -> list[tuple[str, dict]]:
    """Parse a spec string into ``[(stage_name, knob_dict), ...]``.

    Purely syntactic — names are not resolved against any registry here,
    so callers can report unknown-name and bad-grammar problems
    separately.
    """
    if not isinstance(spec, str):
        raise SpecError(f"a spec must be a string, not {type(spec).__name__}")
    tokens = [token.strip() for token in spec.split(STAGE_SEPARATOR)]
    if not spec.strip() or any(not token for token in tokens):
        raise SpecError(
            f"empty stage in spec {spec!r}; expected "
            "name or name>name>... chains"
        )
    return [_parse_stage(token, spec) for token in tokens]


def split_spec_list(text: str) -> list[str]:
    """Split a comma-separated list of specs, respecting parens.

    The CLI's ``--defenses`` values look like
    ``"WO,MR,dpsgd(clip_norm=2.0,noise_multiplier=0.5),MR>dpsgd"`` — commas
    inside a stage's knob parentheses separate knobs, not arms.  Empty
    items are dropped, whitespace trimmed; an unbalanced parenthesis is a
    grammar error.
    """
    specs: list[str] = []
    current: list[str] = []
    depth = 0
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
            if depth < 0:
                raise SpecError(f"unbalanced ')' in spec list {text!r}")
        if char == "," and depth == 0:
            specs.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    if depth != 0:
        raise SpecError(f"unbalanced '(' in spec list {text!r}")
    specs.append("".join(current).strip())
    return [spec for spec in specs if spec]


def canonical_spec(spec: str) -> str:
    """Fully-normalized spec string — the defense seeding key.

    Rendered back from the parsed form with knobs sorted by name and no
    incidental whitespace, so every spelling of the same configuration
    (``"dpsgd(a=1, b=2)"``, ``"dpsgd(b=2,a=1)"``, ``" dpsgd(a=1,b=2) "``)
    hands ``make_defense(spec, seed=...)`` the same private streams.

    Scope note: sweep grids key their cells (store cache, cell seeds) by
    the *literal* arm string — two spellings of one configuration are two
    distinct arms there, each internally deterministic.  Keep the
    spelling stable between a run and its ``--resume``; this helper only
    guarantees that direct ``make_defense`` callers (lineups, per-trial
    defenses) are spelling-invariant.
    """
    stages = []
    for name, kwargs in parse_spec(spec):
        if kwargs:
            rendered = ",".join(
                f"{key}={kwargs[key]!r}" for key in sorted(kwargs)
            )
            stages.append(f"{name}({rendered})")
        else:
            stages.append(name)
    return STAGE_SEPARATOR.join(stages)
