"""The determinism linter: engine, pragmas, each rule, CLI, and the tree.

Every rule gets the same three fixtures — a violating snippet, a clean
sibling, and a pragma-suppressed variant — plus pragma grammar edge cases
and the meta-test that the committed ``src/`` tree lints clean (so a PR
that introduces a violation fails tier-1 before CI even annotates it).
"""

from __future__ import annotations

import ast
import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (
    RULES,
    Rule,
    Violation,
    available_rules,
    lint_paths,
    lint_source,
    main,
    register_rule,
    rules_for,
)
from repro.registry import DuplicateNameError, RegistryError, UnknownNameError

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

# Parameters with a default in src/repro, the linter excluded (see
# TestCommittedTree.test_defaulted_parameter_budget).
DEFAULTED_PARAMETER_BUDGET = 262

EXPECTED_RULES = {
    "no-global-rng",
    "no-raw-write",
    "no-wallclock",
    "no-sim-wallclock",
    "sorted-iteration",
    "picklable-entry",
    "no-allocating-accumulate",
}


def lint(source: str, **kwargs) -> list[Violation]:
    return lint_source(textwrap.dedent(source), path="snippet.py", **kwargs)


def rule_names(violations: list[Violation]) -> set[str]:
    return {violation.rule for violation in violations}


# ---------------------------------------------------------------------------
# Registry and engine basics.
# ---------------------------------------------------------------------------


class TestRuleRegistry:
    def test_all_rules_registered(self):
        assert EXPECTED_RULES <= set(available_rules())

    def test_profiles(self):
        lib = {rule.name for rule in rules_for("lib")}
        bench = {rule.name for rule in rules_for("bench")}
        assert lib == EXPECTED_RULES
        # bench relaxes the write/wallclock rules and nothing else
        # (no-sim-wallclock / no-allocating-accumulate only ever apply
        # under src/repro/fl and src/repro/tensor respectively, which
        # the bench profile never lints).
        assert bench == EXPECTED_RULES - {
            "no-raw-write", "no-wallclock", "no-sim-wallclock",
            "no-allocating-accumulate",
        }

    def test_unknown_profile_rejected(self):
        with pytest.raises(RegistryError, match="unknown lint profile"):
            rules_for("strict")

    def test_explicit_names_bypass_profile(self):
        selected = rules_for("bench", names=["no-raw-write"])
        assert [rule.name for rule in selected] == ["no-raw-write"]

    def test_unknown_rule_name(self):
        with pytest.raises(UnknownNameError, match="no-such-rule"):
            rules_for("lib", names=["no-such-rule"])

    def test_duplicate_registration_rejected(self):
        rule = Rule(name="scratch-rule", check=lambda context: [])
        register_rule(rule)
        try:
            with pytest.raises(DuplicateNameError):
                register_rule(rule)
            register_rule(rule, replace=True)  # deliberate replace is fine
        finally:
            RULES.unregister("scratch-rule")
        assert "scratch-rule" not in available_rules()

    def test_bad_rule_names_rejected(self):
        for name in ("", "Has_Caps", "pragma", "-leading"):
            with pytest.raises(RegistryError):
                register_rule(Rule(name=name, check=lambda context: []))

    def test_violation_format_is_compiler_style(self):
        violation = Violation(
            rule="no-raw-write", path="a.py", line=3, col=7,
            message="bad", hint="do better",
        )
        assert violation.format() == "a.py:3:7: no-raw-write: bad (fix: do better)"
        assert violation.to_dict()["line"] == 3

    def test_syntax_error_is_reported_not_raised(self):
        violations = lint("def broken(:\n    pass\n")
        assert rule_names(violations) == {"syntax"}


# ---------------------------------------------------------------------------
# no-global-rng
# ---------------------------------------------------------------------------


class TestNoGlobalRng:
    def test_module_global_draw_flagged(self):
        violations = lint("""
            import numpy as np
            x = np.random.normal(size=3)
        """)
        assert rule_names(violations) == {"no-global-rng"}

    def test_unseeded_default_rng_flagged(self):
        violations = lint("""
            import numpy as np
            rng = np.random.default_rng()
        """)
        assert rule_names(violations) == {"no-global-rng"}

    def test_seeded_default_rng_clean(self):
        assert lint("""
            import numpy as np
            rng = np.random.default_rng(1234)
        """) == []

    def test_stdlib_random_flagged(self):
        violations = lint("""
            import random
            x = random.random()
            r = random.Random()
        """)
        assert [v.rule for v in violations] == ["no-global-rng"] * 2

    def test_seeded_stdlib_random_clean(self):
        assert lint("""
            import random
            r = random.Random(7)
        """) == []

    def test_from_import_flagged(self):
        violations = lint("""
            from numpy.random import default_rng
            rng = default_rng()
        """)
        assert rule_names(violations) == {"no-global-rng"}

    def test_utils_rng_helpers_clean(self):
        assert lint("""
            from repro.utils.rng import rng_for
            rng = rng_for(0, "cell", "metric")
        """) == []

    def test_pragma_suppresses(self):
        assert lint("""
            import numpy as np
            rng = np.random.default_rng()  # repro-lint: disable=no-global-rng -- test fixture
        """) == []


# ---------------------------------------------------------------------------
# no-raw-write
# ---------------------------------------------------------------------------


class TestNoRawWrite:
    def test_open_write_mode_flagged(self):
        violations = lint("""
            with open("out.txt", "w") as fh:
                fh.write("hi")
        """)
        assert rule_names(violations) == {"no-raw-write"}

    def test_open_append_and_plus_modes_flagged(self):
        violations = lint("""
            a = open("log", "ab")
            b = open("log", mode="r+b")
        """)
        assert [v.rule for v in violations] == ["no-raw-write"] * 2

    def test_open_read_clean(self):
        assert lint("""
            with open("in.txt") as fh:
                data = fh.read()
            other = open("in.bin", "rb")
        """) == []

    def test_path_write_text_flagged(self):
        violations = lint("""
            from pathlib import Path
            Path("out.json").write_text("{}")
        """)
        assert rule_names(violations) == {"no-raw-write"}

    def test_np_save_flagged_buffer_requires_pragma(self):
        violations = lint("""
            import io
            import numpy as np
            np.save("arr.npy", [1, 2])
            buffer = io.BytesIO()
            np.save(buffer, [1, 2])
        """)
        # Both are flagged statically; the in-memory one is the documented
        # pragma case (visual.Gallery.save).
        assert [v.rule for v in violations] == ["no-raw-write"] * 2

    def test_atomic_helpers_clean(self):
        assert lint("""
            from repro.utils.checkpoint import atomic_write_text
            atomic_write_text("out.txt", "payload")
        """) == []

    def test_relaxed_in_bench_profile(self):
        source = 'open("report.txt", "w")\n'
        assert lint_source(
            source,
            rules=rules_for("bench"),
        ) == []

    def test_pragma_suppresses(self):
        assert lint("""
            handle = open("log", "r+b")  # repro-lint: disable=no-raw-write -- append-only log fixture
        """) == []


# ---------------------------------------------------------------------------
# no-wallclock
# ---------------------------------------------------------------------------


class TestNoWallclock:
    def test_time_time_flagged(self):
        violations = lint("""
            import time
            stamp = time.time()
        """)
        assert rule_names(violations) == {"no-wallclock"}

    def test_from_import_time_flagged(self):
        violations = lint("""
            from time import time
            stamp = time()
        """)
        assert rule_names(violations) == {"no-wallclock"}

    def test_datetime_now_flagged(self):
        violations = lint("""
            from datetime import datetime
            import datetime as dt
            a = datetime.now()
            b = dt.datetime.utcnow()
        """)
        assert [v.rule for v in violations] == ["no-wallclock"] * 2

    def test_perf_counter_allowed(self):
        assert lint("""
            import time
            start = time.perf_counter()
            elapsed = time.perf_counter() - start
            tick = time.monotonic()
        """) == []

    def test_unrelated_now_method_clean(self):
        assert lint("""
            class Clock:
                def now(self):
                    return 0
            value = Clock().now()
        """) == []

    def test_relaxed_in_bench_profile(self):
        source = "import time\nstamp = time.time()\n"
        assert lint_source(
            source,
            rules=rules_for("bench"),
        ) == []


# ---------------------------------------------------------------------------
# no-sim-wallclock
# ---------------------------------------------------------------------------


class TestNoSimWallclock:
    """Inside ``repro/fl`` the wallclock ban is total — even the interval
    timers the general rule allows measure the host, not the federation."""

    def fl_lint(self, source: str, path="src/repro/fl/engine.py"):
        return lint_source(textwrap.dedent(source), path=path)

    def test_perf_counter_flagged_in_fl_tree(self):
        violations = self.fl_lint("""
            import time
            start = time.perf_counter()
        """)
        assert "no-sim-wallclock" in rule_names(violations)

    def test_time_and_datetime_imports_flagged(self):
        violations = self.fl_lint("""
            import time
            from datetime import datetime
        """)
        assert [
            v.rule for v in violations if v.rule == "no-sim-wallclock"
        ] == ["no-sim-wallclock"] * 2

    def test_silent_outside_fl_tree(self):
        # perf_counter in, say, the sweep executor is the general rule's
        # business (allowed); this rule must not fire there.
        violations = lint_source(
            "import time\nstart = time.perf_counter()\n",
            path="src/repro/experiments/sweep.py",
        )
        assert "no-sim-wallclock" not in rule_names(violations)

    def test_virtual_clock_code_clean(self):
        assert self.fl_lint("""
            TICKS_PER_SECOND = 1_000_000

            def ticks(seconds):
                return int(round(seconds * TICKS_PER_SECOND))
        """) == []


# ---------------------------------------------------------------------------
# no-allocating-accumulate
# ---------------------------------------------------------------------------


class TestNoAllocatingAccumulate:
    """Gradient accumulation under ``src/repro/tensor`` must stay in
    place — reassignment-with-add churns an allocation per backward
    contribution, which is the regression the pooled buffers removed."""

    def tensor_lint(self, source: str, path="src/repro/tensor/tensor.py"):
        return lint_source(textwrap.dedent(source), path=path)

    def test_reassignment_accumulate_flagged(self):
        violations = self.tensor_lint("""
            def _accumulate(self, grad):
                if self.grad is None:
                    self.grad = grad
                else:
                    self.grad = self.grad + grad
        """)
        assert rule_names(violations) == {"no-allocating-accumulate"}

    def test_reversed_operand_order_flagged(self):
        violations = self.tensor_lint("""
            x.grad = contribution + x.grad
        """)
        assert rule_names(violations) == {"no-allocating-accumulate"}

    def test_in_place_forms_clean(self):
        assert self.tensor_lint("""
            import numpy as np

            np.add(x.grad, contribution, out=x.grad)
            x.grad += contribution
            x.grad = fresh_buffer
            x.grad = a + b
        """) == []

    def test_silent_outside_tensor_tree(self):
        violations = lint_source(
            "x.grad = x.grad + g\n",
            path="src/repro/nn/optim.py",
        )
        assert "no-allocating-accumulate" not in rule_names(violations)


# ---------------------------------------------------------------------------
# sorted-iteration
# ---------------------------------------------------------------------------


class TestSortedIteration:
    def test_for_over_set_literal_flagged(self):
        violations = lint("""
            for item in {1, 2, 3}:
                print(item)
        """)
        assert rule_names(violations) == {"sorted-iteration"}

    def test_for_over_set_call_and_keys_flagged(self):
        violations = lint("""
            names = set(["b", "a"])
            for name in names:
                print(name)
            table = {"k": 1}
            for key in table.keys():
                print(key)
        """)
        assert [v.rule for v in violations] == ["sorted-iteration"] * 2

    def test_directory_listing_flagged(self):
        violations = lint("""
            import os
            for entry in os.listdir("."):
                print(entry)
        """)
        assert rule_names(violations) == {"sorted-iteration"}

    def test_comprehension_and_materializer_flagged(self):
        violations = lint("""
            items = [x for x in {3, 1}]
            listing = list({"a", "b"})
        """)
        assert [v.rule for v in violations] == ["sorted-iteration"] * 2

    def test_sorted_wrapper_clean(self):
        assert lint("""
            import os
            names = set(["b", "a"])
            for name in sorted(names):
                print(name)
            for entry in sorted(os.listdir(".")):
                print(entry)
            items = [x for x in sorted({3, 1})]
        """) == []

    def test_reductions_and_membership_clean(self):
        assert lint("""
            names = {"a", "b"}
            total = len(names)
            biggest = max(names)
            hit = "a" in names
        """) == []

    def test_rebinding_clears_taint(self):
        assert lint("""
            names = {"b", "a"}
            names = sorted(names)
            for name in names:
                print(name)
        """) == []

    def test_fresh_scope_per_function(self):
        # A set bound at module level does not taint a same-named local.
        assert lint("""
            names = {"b", "a"}

            def show(names):
                for name in names:
                    print(name)
        """) == []


# ---------------------------------------------------------------------------
# picklable-entry
# ---------------------------------------------------------------------------


class TestPicklableEntry:
    def test_lambda_submit_flagged(self):
        violations = lint("""
            def run(executor):
                executor.submit(lambda: 1)
        """)
        assert rule_names(violations) == {"picklable-entry"}

    def test_lambda_process_target_flagged(self):
        violations = lint("""
            import multiprocessing as mp

            def run():
                mp.Process(target=lambda: None).start()
        """)
        assert rule_names(violations) == {"picklable-entry"}

    def test_nested_def_flagged(self):
        violations = lint("""
            def run(pool):
                def task(item):
                    return item
                pool.map(task, [1, 2])
        """)
        assert rule_names(violations) == {"picklable-entry"}

    def test_module_level_entry_clean(self):
        assert lint("""
            def task(item):
                return item

            def run(pool):
                pool.map(task, [1, 2])
        """) == []

    def test_imported_entry_clean(self):
        assert lint("""
            from repro.experiments.runner import evaluate_attack_cell

            def run(executor, payload):
                executor.submit(evaluate_attack_cell, payload)
        """) == []

    def test_plain_lambda_clean(self):
        # Lambdas that never cross a process boundary are fine.
        assert lint("""
            items = sorted([3, 1], key=lambda x: -x)
        """) == []


# ---------------------------------------------------------------------------
# Pragma grammar edge cases.
# ---------------------------------------------------------------------------


class TestPragmas:
    def test_comment_only_line_covers_next_line(self):
        assert lint("""
            # repro-lint: disable=no-raw-write -- fixture
            handle = open("log", "w+b")
        """) == []

    def test_inline_pragma_does_not_cover_next_line(self):
        violations = lint("""
            a = open("log", "w")  # repro-lint: disable=no-raw-write -- fixture
            b = open("log", "w")
        """)
        assert [v.line for v in violations] == [3]

    def test_multiple_rules_one_pragma(self):
        assert lint("""
            import time
            # repro-lint: disable=no-raw-write,no-wallclock -- fixture
            open("log", "w").write(str(time.time()))
        """) == []

    def test_missing_reason_suppresses_nothing(self):
        violations = lint("""
            handle = open("log", "w")  # repro-lint: disable=no-raw-write
        """)
        # Both the undocumented pragma AND the underlying violation report.
        assert rule_names(violations) == {"pragma", "no-raw-write"}

    def test_unknown_rule_in_pragma_reported(self):
        violations = lint("""
            x = 1  # repro-lint: disable=no-such-rule -- reason
        """)
        assert rule_names(violations) == {"pragma"}
        assert "no-such-rule" in violations[0].message

    def test_empty_disable_list_reported(self):
        violations = lint("""
            x = 1  # repro-lint: disable= -- reason
        """)
        assert rule_names(violations) == {"pragma"}

    def test_pragma_rule_itself_cannot_be_disabled(self):
        violations = lint("""
            x = 1  # repro-lint: disable=pragma -- nice try
        """)
        assert rule_names(violations) == {"pragma"}

    def test_pragma_only_suppresses_named_rule(self):
        violations = lint("""
            import time
            open("log", "w").write(str(time.time()))  # repro-lint: disable=no-raw-write -- fixture
        """)
        assert rule_names(violations) == {"no-wallclock"}


# ---------------------------------------------------------------------------
# CLI behavior and exit codes.
# ---------------------------------------------------------------------------


BAD_SNIPPET = textwrap.dedent("""
    import numpy as np
    import time

    def cell():
        rng = np.random.default_rng()
        with open("out.txt", "w") as fh:
            fh.write(str(time.time()))
        for k in {1, 2}:
            print(k)
""")


class TestCli:
    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("import numpy as np\nrng = np.random.default_rng(0)\n")
        assert main([str(target)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violations_exit_one_with_locations(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        assert main([str(target)]) == 1
        out = capsys.readouterr().out
        # file:line:col, rule name, and a fix hint per finding.
        assert f"{target}:6:11: no-global-rng:" in out
        assert "(fix: " in out
        for rule in ("no-raw-write", "no-wallclock", "sorted-iteration"):
            assert rule in out

    def test_json_format(self, tmp_path, capsys):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        assert main([str(target), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["checked_files"] == 1
        assert payload["profile"] == "lib"
        rules = {entry["rule"] for entry in payload["violations"]}
        assert {"no-global-rng", "no-raw-write", "no-wallclock",
                "sorted-iteration"} <= rules
        for entry in payload["violations"]:
            assert entry["line"] > 0 and entry["hint"]

    def test_bench_profile_relaxes_io_rules(self, tmp_path):
        target = tmp_path / "bench.py"
        target.write_text(
            "import time\nopen('r.txt', 'w').write(str(time.time()))\n"
        )
        assert main([str(target)]) == 1
        assert main([str(target), "--profile", "bench"]) == 0

    def test_rules_flag_selects_subset(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        assert main([str(target), "--rules", "picklable-entry"]) == 0
        assert main([str(target), "--rules", "no-wallclock"]) == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in EXPECTED_RULES:
            assert rule in out

    def test_unknown_rule_is_usage_error(self, tmp_path):
        target = tmp_path / "x.py"
        target.write_text("x = 1\n")
        with pytest.raises(SystemExit) as excinfo:
            main([str(target), "--rules", "bogus"])
        assert excinfo.value.code == 2

    def test_missing_path_is_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main([str(tmp_path / "nope")])
        assert excinfo.value.code == 2

    def test_module_invocation(self, tmp_path):
        """``python -m repro.lint`` works end to end as a subprocess."""
        target = tmp_path / "bad.py"
        target.write_text(BAD_SNIPPET)
        result = subprocess.run(
            [sys.executable, "-m", "repro.lint", str(target)],
            capture_output=True, text=True,
            cwd=REPO_ROOT, env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
        )
        assert result.returncode == 1
        assert "no-global-rng" in result.stdout


# ---------------------------------------------------------------------------
# The committed tree lints clean — the meta-test CI mirrors.
# ---------------------------------------------------------------------------


class TestCommittedTree:
    def test_src_tree_is_clean(self):
        violations, checked = lint_paths([SRC])
        assert checked > 0
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_benchmarks_clean_under_bench_profile(self):
        bench_dir = REPO_ROOT / "benchmarks"
        violations, checked = lint_paths([bench_dir], profile="bench")
        assert checked > 0
        assert violations == [], "\n".join(v.format() for v in violations)

    def test_src_imports_no_scipy(self):
        """The library runs on numpy alone; scipy is a test-only oracle."""
        paths = sorted((SRC / "repro").rglob("*.py"))
        assert paths
        offenders = []
        for path in paths:
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module or ""]
                else:
                    continue
                if any(m.split(".")[0] == "scipy" for m in modules):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
        assert offenders == []

    def test_defaulted_parameter_budget(self):
        """Every option is one more configuration the oracles must cover.

        Counts parameters with a default in ``src/repro`` (the linter
        excluded), positional and keyword-only alike.
        """
        count = 0
        for path in sorted((SRC / "repro").rglob("*.py")):
            if "lint" in path.relative_to(SRC / "repro").parts:
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    count += len(node.args.defaults)
                    count += sum(d is not None for d in node.args.kw_defaults)
        assert count <= DEFAULTED_PARAMETER_BUDGET, (
            f"src/repro has {count} defaulted parameters, over the budget of "
            f"{DEFAULTED_PARAMETER_BUDGET}.  A change that adds an option "
            "raises DEFAULTED_PARAMETER_BUDGET in tests/test_lint.py and "
            "says in CHANGES.md which caller sets the option and why."
        )

    def test_scratch_violation_would_fail(self, tmp_path):
        """Deliberately introducing a violation flips the exit to 1."""
        scratch = tmp_path / "scratch.py"
        scratch.write_text("import numpy as np\nnp.random.seed(0)\n")
        violations, _ = lint_paths([tmp_path])
        assert rule_names(violations) == {"no-global-rng"}
