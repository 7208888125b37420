"""Crowdlint (repro.analysis) behaviour tests.

The fixture modules under ``fixtures/`` are linted as text; every
violating line carries a trailing ``# [expect CMxxx]`` marker and the
tests assert the findings match those markers *exactly* — same rule id,
same line — so a rule that drifts (over- or under-reporting) fails here
before it ever gates CI.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

from repro.analysis import lint_paths, lint_source
from repro.analysis.__main__ import main
from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.engine import ModuleContext, check_module, format_findings
from repro.analysis.project import ProjectContext
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]

_MARKER_RE = re.compile(r"#\s*\[expect (CM\d{3})\]")


def expected_markers(path: Path):
    """(rule, line) pairs from the fixture's ``# [expect CMxxx]`` comments."""
    pairs = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        for match in _MARKER_RE.finditer(text):
            pairs.append((match.group(1), lineno))
    return sorted(pairs)


def lint_fixture(path: Path):
    return lint_source(path.read_text(), path=str(path))


class TestFixtures:
    @pytest.mark.parametrize(
        "name", ["cm001", "cm002", "cm003", "cm004", "cm005"]
    )
    def test_violating_fixture_matches_markers(self, name):
        path = FIXTURES / f"{name}_violating.py"
        expected = expected_markers(path)
        assert expected, f"{path} has no [expect ...] markers"
        found = sorted((f.rule, f.line) for f in lint_fixture(path))
        assert found == expected

    @pytest.mark.parametrize(
        "name", ["cm001", "cm002", "cm003", "cm004", "cm005"]
    )
    def test_clean_fixture_has_no_findings(self, name):
        path = FIXTURES / f"{name}_clean.py"
        findings = lint_fixture(path)
        assert findings == [], format_findings(findings)

    def test_findings_carry_path_and_location(self):
        path = FIXTURES / "cm001_violating.py"
        finding = lint_fixture(path)[0]
        assert finding.path == str(path)
        assert finding.location == f"{path}:{finding.line}"
        assert str(finding).startswith(f"{path}:{finding.line}:")
        assert " CM001 " in str(finding)


class TestPragmas:
    def test_pragma_for_other_rule_does_not_suppress(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# crowdlint: allow[CM004] wrong rule id\n"
        )
        assert [f.rule for f in lint_source(source)] == ["CM001"]

    def test_pragma_without_reason_reports_cm000_and_keeps_finding(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  # crowdlint: allow[CM001]\n"
        )
        rules = sorted(f.rule for f in lint_source(source))
        assert rules == ["CM000", "CM001"]

    def test_pragma_with_reason_suppresses(self):
        source = (
            "import numpy as np\n"
            "rng = np.random.default_rng()  "
            "# crowdlint: allow[CM001] entropy source for a one-off demo\n"
        )
        assert lint_source(source) == []

    def test_pragma_covers_multiple_rules(self):
        source = (
            "import time\n"
            "def f(x):\n"
            "    return x == 1.0 and time.time()  "
            "# crowdlint: allow[CM002, CM004] fixture exercising both rules\n"
        )
        assert lint_source(source) == []

    def test_syntax_error_reports_cm000(self):
        findings = lint_source("def broken(:\n    pass\n")
        assert [f.rule for f in findings] == ["CM000"]
        assert "syntax error" in findings[0].message

    def test_pragma_on_line_above_suppresses(self):
        source = (
            "import numpy as np\n"
            "# crowdlint: allow[CM001] entropy source for a one-off demo\n"
            "rng = np.random.default_rng()\n"
        )
        assert lint_source(source) == []

    def test_pragma_anywhere_on_multiline_statement_suppresses(self):
        """A statement spanning lines is covered by a pragma on any of them."""
        first = (
            "import numpy as np\n"
            "rng = np.random.default_rng(  "
            "# crowdlint: allow[CM001] seeded by caller in production\n"
            ")\n"
        )
        last = (
            "import numpy as np\n"
            "rng = np.random.default_rng(\n"
            ")  # crowdlint: allow[CM001] seeded by caller in production\n"
        )
        assert lint_source(first) == []
        assert lint_source(last) == []

    def test_multiline_finding_without_pragma_still_fires(self):
        source = "import numpy as np\nrng = np.random.default_rng(\n)\n"
        assert [f.rule for f in lint_source(source)] == ["CM001"]


class TestImportResolution:
    def test_aliased_numpy_random_module_is_resolved(self):
        source = "import numpy.random as npr\nx = npr.normal(0.0, 1.0)\n"
        assert [f.rule for f in lint_source(source)] == ["CM001"]

    def test_local_generator_calls_are_not_flagged(self):
        source = (
            "import numpy as np\n"
            "def f(rng):\n"
            "    return rng.normal(0.0, 1.0) + np.mean([1, 2])\n"
        )
        assert lint_source(source) == []

    def test_datetime_alias_is_resolved(self):
        source = "from datetime import datetime as dt\nx = dt.now()\n"
        assert [f.rule for f in lint_source(source)] == ["CM002"]


class TestRepoIsClean:
    def test_src_tree_is_clean_after_baseline(self):
        """The gate CI enforces: src lints clean modulo the committed baseline.

        Crowdlint runs on its own source here too — the analyzer must
        satisfy every rule it enforces, including the new project rules.
        """
        findings = lint_paths([str(REPO_ROOT / "src")])
        entries = load_baseline(str(REPO_ROOT / ".crowdlint-baseline.json"))
        kept, suppressed, unused = apply_baseline(findings, entries)
        assert kept == [], format_findings(kept)
        # Every committed baseline entry must still be earning its keep.
        assert unused == [], [(e.rule, e.path) for e in unused]
        assert suppressed == len(findings)

    def test_cli_self_lint_exits_zero(self, capsys, tmp_path):
        code = main(
            ["--cache", str(tmp_path / "cache.json"), str(REPO_ROOT / "src")]
        )
        captured = capsys.readouterr()
        assert code == 0, captured.out
        assert "no findings" in captured.out
        assert "matched nothing" not in captured.err


class TestCli:
    def test_exit_1_on_violating_fixture(self, capsys):
        assert main([str(FIXTURES / "cm001_violating.py")]) == 1
        out = capsys.readouterr().out
        assert "CM001" in out and "finding(s)" in out

    def test_exit_0_on_clean_fixture(self, capsys):
        assert main([str(FIXTURES / "cm001_clean.py")]) == 0
        assert "no findings" in capsys.readouterr().out

    def test_exit_1_on_fixture_directory(self):
        assert main([str(FIXTURES)]) == 1

    def test_select_limits_rules(self, capsys):
        assert main(["--select", "CM004", str(FIXTURES / "cm001_violating.py")]) == 0
        assert main(["--select", "CM004", str(FIXTURES / "cm004_violating.py")]) == 1

    def test_select_unknown_rule_is_usage_error(self, capsys):
        assert main(["--select", "CM999", str(FIXTURES)]) == 2
        assert "CM999" in capsys.readouterr().err

    def test_missing_path_is_usage_error(self, capsys):
        assert main([str(FIXTURES / "no_such_file.py")]) == 2

    def test_json_output_is_parseable(self, capsys):
        assert main(["--json", str(FIXTURES / "cm004_violating.py")]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert {entry["rule"] for entry in payload} == {"CM004"}
        assert all(
            set(entry)
            == {"rule", "path", "line", "col", "message", "severity", "end_line"}
            for entry in payload
        )
        assert {entry["severity"] for entry in payload} == {"error"}
        assert all(entry["end_line"] >= entry["line"] for entry in payload)

    def test_list_rules_prints_table(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out


class TestCm008:
    """CM008 is path-scoped to eval modules and error-severity."""

    EVAL = FIXTURES / "eval"

    def test_violating_fixture_matches_markers(self):
        path = self.EVAL / "cm008_violating.py"
        expected = expected_markers(path)
        assert expected, f"{path} has no [expect ...] markers"
        found = sorted((f.rule, f.line) for f in lint_fixture(path))
        assert found == expected

    def test_clean_fixture_has_no_findings(self):
        path = self.EVAL / "cm008_clean.py"
        findings = lint_fixture(path)
        assert findings == [], format_findings(findings)

    def test_findings_are_errors(self):
        findings = lint_fixture(self.EVAL / "cm008_violating.py")
        assert findings and {f.severity for f in findings} == {"error"}

    def test_rule_only_applies_under_an_eval_directory(self):
        source = (self.EVAL / "cm008_violating.py").read_text()
        assert lint_source(source, path="somewhere/else/harness.py") == []

    def test_monotonic_clock_allowed_outside_eval_but_not_inside(self):
        source = "import time\nstart = time.perf_counter()\n"
        # CM002 permits monotonic reads in general library code ...
        assert lint_source(source, path="src/repro/bench/timers.py") == []
        # ... but scorecard artifacts must not observe any clock.
        assert [f.rule for f in lint_source(source, path="src/repro/eval/x.py")] == [
            "CM008"
        ]


class TestCm006:
    """CM006 is path-scoped to vision modules and advisory-severity."""

    VISION = FIXTURES / "vision"

    def test_violating_fixture_matches_markers(self):
        path = self.VISION / "cm006_violating.py"
        expected = expected_markers(path)
        assert expected, f"{path} has no [expect ...] markers"
        found = sorted((f.rule, f.line) for f in lint_fixture(path))
        assert found == expected

    def test_clean_fixture_has_no_findings(self):
        path = self.VISION / "cm006_clean.py"
        findings = lint_fixture(path)
        assert findings == [], format_findings(findings)

    def test_findings_are_advisory(self):
        findings = lint_fixture(self.VISION / "cm006_violating.py")
        assert findings and {f.severity for f in findings} == {"advisory"}
        assert "[advisory]" in str(findings[0])

    def test_rule_only_applies_under_a_vision_directory(self):
        source = (self.VISION / "cm006_violating.py").read_text()
        assert lint_source(source, path="somewhere/else/kernels.py") == []
        # "vision" must be a full directory component, not a substring.
        assert lint_source(source, path="src/revisions/kernels.py") == []

    def test_cli_exits_zero_on_advisory_only_findings(self, capsys):
        assert main([str(self.VISION / "cm006_violating.py")]) == 0
        out = capsys.readouterr().out
        assert "CM006" in out and "advisory" in out

    def test_format_findings_counts_severities(self):
        findings = lint_fixture(self.VISION / "cm006_violating.py")
        report = format_findings(findings)
        assert f"{len(findings)} finding(s) (0 error" in report


class TestCm007:
    """CM007 is path-scoped to serving modules and advisory-severity."""

    SERVING = FIXTURES / "serving"

    def test_violating_fixture_matches_markers(self):
        path = self.SERVING / "cm007_violating.py"
        expected = expected_markers(path)
        assert expected, f"{path} has no [expect ...] markers"
        found = sorted((f.rule, f.line) for f in lint_fixture(path))
        assert found == expected

    def test_clean_fixture_has_no_findings(self):
        path = self.SERVING / "cm007_clean.py"
        findings = lint_fixture(path)
        assert findings == [], format_findings(findings)

    def test_findings_are_advisory(self):
        findings = lint_fixture(self.SERVING / "cm007_violating.py")
        assert findings and {f.severity for f in findings} == {"advisory"}
        assert "[advisory]" in str(findings[0])

    def test_rule_only_applies_under_a_serving_directory(self):
        source = (self.SERVING / "cm007_violating.py").read_text()
        assert lint_source(source, path="somewhere/else/router.py") == []
        # "serving" must be a full directory component, not a substring.
        assert lint_source(source, path="src/observing/router.py") == []

    def test_aliased_sleep_is_resolved(self):
        source = "from time import sleep\nsleep(0.1)\n"
        findings = lint_source(source, path="src/repro/serving/x.py")
        assert [f.rule for f in findings] == ["CM007"]

    def test_cli_exits_zero_on_advisory_only_findings(self, capsys):
        assert main([str(self.SERVING / "cm007_violating.py")]) == 0
        out = capsys.readouterr().out
        assert "CM007" in out and "advisory" in out


class TestCm013:
    """CM013 is scoped to core/pipeline.py and advisory-severity.

    The fixtures live under the flat fixtures directory, so they are
    linted with an overridden path — the rule keys on the module path,
    not the file's real location.
    """

    PIPELINE_PATH = "src/repro/core/pipeline.py"

    def _lint(self, fixture_name):
        source = (FIXTURES / fixture_name).read_text()
        return lint_source(source, path=self.PIPELINE_PATH)

    def test_violating_fixture_matches_markers(self):
        path = FIXTURES / "cm013_violating.py"
        expected = expected_markers(path)
        assert expected, f"{path} has no [expect ...] markers"
        found = sorted((f.rule, f.line) for f in self._lint(path.name))
        assert found == expected

    def test_clean_fixture_has_no_findings(self):
        findings = self._lint("cm013_clean.py")
        assert findings == [], format_findings(findings)

    def test_findings_are_advisory(self):
        findings = self._lint("cm013_violating.py")
        assert findings and {f.severity for f in findings} == {"advisory"}
        assert "[advisory]" in str(findings[0])

    def test_rule_only_applies_to_core_pipeline(self):
        source = (FIXTURES / "cm013_violating.py").read_text()
        # The planner module executes stages legitimately...
        assert lint_source(source, path="src/repro/dataflow/planner.py") == []
        # ...and a sibling module under core/ is out of scope too.
        assert lint_source(source, path="src/repro/core/other.py") == []
        # "core" must be the immediate parent directory.
        assert lint_source(source, path="src/core2/pipeline.py") == []
        assert lint_source(source, path="core/pipeline.py") != []

    def test_pragma_allowlists_a_deliberate_bypass(self):
        source = (
            "def probe(frames, config):\n"
            "    return select_keyframes(frames, config)"
            "  # crowdlint: allow[CM013] debugging harness stays off-graph\n"
        )
        assert lint_source(source, path=self.PIPELINE_PATH) == []

    def test_repo_pipeline_module_is_clean(self):
        """The refactored pipeline routes every stage through the graph."""
        path = REPO_ROOT / "src" / "repro" / "core" / "pipeline.py"
        findings = [f for f in lint_fixture(path) if f.rule == "CM013"]
        assert findings == [], format_findings(findings)


def _lint_project(modules):
    """Lint a synthetic multi-module project given ``{name: source}``."""
    contexts = [
        ModuleContext(
            f"{name.replace('.', '/')}.py", source, module_name=name
        )
        for name, source in modules.items()
    ]
    project = ProjectContext.from_contexts(contexts)
    findings = []
    for ctx in contexts:
        findings.extend(check_module(ctx, ALL_RULES, project=project))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


#: One minimal trigger per rule: (source, path, module_name, companions).
#: ``companions`` are extra project modules (needed only by CM010, whose
#: violations require the import target to exist in the project).
_RULE_TRIGGERS = {
    "CM001": ("import numpy as np\nrng = np.random.default_rng()\n",
              "src/repro/core/x.py", None, None),
    "CM002": ("import time\nstamp = time.time()\n",
              "src/repro/core/x.py", None, None),
    "CM003": ("try:\n    x = int('3')\nexcept Exception:\n    pass\n",
              "src/repro/core/x.py", None, None),
    "CM004": ("def f(x):\n    return x == 1.0\n",
              "src/repro/core/x.py", None, None),
    "CM005": ("from repro.core.config import CrowdMapConfig\n"
              "cfg = CrowdMapConfig(bogus_field=3)\n",
              "src/repro/core/x.py", None, None),
    "CM006": ("import numpy as np\n"
              "def f(a):\n"
              "    out = np.zeros(3)\n"
              "    for i in range(3):\n"
              "        out[i] = a[i] * 2\n"
              "    return out\n",
              "src/repro/vision/x.py", None, None),
    "CM007": ("import time\ntime.sleep(1.0)\n",
              "src/repro/serving/x.py", None, None),
    "CM008": ("import time\nstamp = time.perf_counter()\n",
              "src/repro/eval/x.py", None, None),
    "CM010": ("import proj.serving.api\n",
              None, "proj.vision.kernel", {"proj.serving.api": "X = 1\n"}),
    "CM011": ("from repro.backend.workers import map_parallel\n"
              "STATE = {}\n"
              "def w(x):\n"
              "    STATE[x] = x\n"
              "    return x\n"
              "def run(items):\n"
              "    return map_parallel(w, items)\n",
              "src/repro/core/x.py", None, None),
    "CM013": ("def probe(frames, config):\n"
              "    return select_keyframes(frames, config)\n",
              "src/repro/core/pipeline.py", None, None),
}


class TestEveryRuleSuppressible:
    """Every rule in ALL_RULES yields to a well-formed pragma on its anchor."""

    def _lint(self, source, path, module_name, companions, rule_id):
        if companions:
            modules = dict(companions)
            modules[module_name] = source
            findings = _lint_project(modules)
        else:
            findings = lint_source(source, path=path, module_name=module_name)
        return [f for f in findings if f.rule == rule_id]

    @pytest.mark.parametrize("rule_id", [r.rule_id for r in ALL_RULES])
    def test_rule_fires_then_pragma_suppresses(self, rule_id):
        assert rule_id in _RULE_TRIGGERS, f"no trigger snippet for {rule_id}"
        source, path, module_name, companions = _RULE_TRIGGERS[rule_id]
        found = self._lint(source, path, module_name, companions, rule_id)
        assert found, f"{rule_id} trigger snippet produced no finding"

        lines = source.splitlines()
        anchor = found[0].line
        lines[anchor - 1] += (
            f"  # crowdlint: allow[{rule_id}] reviewed: fixture-sanctioned"
        )
        patched = "\n".join(lines) + "\n"
        remaining = self._lint(patched, path, module_name, companions, rule_id)
        assert remaining == [], (
            f"{rule_id} finding survived its pragma: {remaining[0]}"
        )
