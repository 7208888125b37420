"""Whole-program rule tests: CM010 layering, CM011 parallel safety,
plus the project graph they share.

Standalone fixtures (``cm011_*``) lint as single-module projects; the
``cmproj`` package lints as a real multi-module project via
``lint_paths`` — its *relative* imports only resolve because the engine
rewrites them against each file's package, so these tests also lock in
that satellite fix.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.analysis.engine import (
    ModuleContext,
    check_module,
    format_findings,
    lint_paths,
    lint_source,
)
from repro.analysis.graph import (
    LAYER_INDEX,
    LAYERS,
    build_import_graph,
    layer_index_of,
    layer_of,
)
from repro.analysis.project import ProjectContext
from repro.analysis.rules import ALL_RULES

FIXTURES = Path(__file__).parent / "fixtures"
CMPROJ = FIXTURES / "cmproj"

_MARKER_RE = re.compile(r"#\s*\[expect (CM\d{3})\]")


def expected_markers(path: Path):
    pairs = []
    for lineno, text in enumerate(path.read_text().splitlines(), start=1):
        for match in _MARKER_RE.finditer(text):
            pairs.append((match.group(1), lineno))
    return sorted(pairs)


def lint_fixture(path: Path):
    return lint_source(path.read_text(), path=str(path))


def make_project(modules):
    """Contexts + ProjectContext from ``{dotted_name: source}``."""
    contexts = [
        ModuleContext(f"{name.replace('.', '/')}.py", source, module_name=name)
        for name, source in modules.items()
    ]
    return contexts, ProjectContext.from_contexts(contexts)


def lint_project(modules):
    contexts, project = make_project(modules)
    findings = []
    for ctx in contexts:
        findings.extend(check_module(ctx, ALL_RULES, project=project))
    return sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))


class TestLayerResolution:
    def test_every_layer_name_is_unique(self):
        names = [name for group in LAYERS for name in group]
        assert len(names) == len(set(names)) == len(LAYER_INDEX)

    def test_last_matching_segment_wins(self):
        assert layer_of("repro.vision.hog") == "vision"
        assert layer_of("tests.analysis.fixtures.cmproj.vision.features") == "vision"
        assert layer_of("tests.analysis.fixtures.cmproj.serving.store") == "serving"
        assert layer_of("repro.cli") is None
        assert layer_index_of("repro.core.pipeline") == 0
        assert layer_index_of("repro.serving.frontend") == 6

    def test_declared_order_matches_issue_contract(self):
        assert LAYER_INDEX["core"] < LAYER_INDEX["vision"]
        assert LAYER_INDEX["vision"] < LAYER_INDEX["world"]
        assert LAYER_INDEX["world"] < LAYER_INDEX["eval"]
        assert LAYER_INDEX["eval"] < LAYER_INDEX["backend"]
        assert LAYER_INDEX["backend"] < LAYER_INDEX["serving"]


class TestStandaloneFixtures:
    @pytest.mark.parametrize("name", ["cm011"])
    def test_violating_fixture_matches_markers(self, name):
        path = FIXTURES / f"{name}_violating.py"
        expected = expected_markers(path)
        assert expected, f"{path} has no [expect ...] markers"
        found = sorted((f.rule, f.line) for f in lint_fixture(path))
        assert found == expected

    @pytest.mark.parametrize("name", ["cm011"])
    def test_clean_fixture_has_no_findings(self, name):
        path = FIXTURES / f"{name}_clean.py"
        findings = lint_fixture(path)
        assert findings == [], format_findings(findings)

    def test_cm011_findings_name_worker_and_entry(self):
        findings = lint_fixture(FIXTURES / "cm011_violating.py")
        messages = [f.message for f in findings]
        assert any("'accumulate'" in m for m in messages)
        assert any("map_parallel()" in m for m in messages)
        assert any("map_with_failures()" in m for m in messages)
        assert any("captures mutable module-level 'RESULTS'" in m
                   for m in messages)


class TestCmprojPackage:
    """The on-disk mini-project: relative imports, cross-module reach."""

    def test_all_findings_match_markers_exactly(self):
        expected = sorted(
            (str(path), rule, line)
            for path in CMPROJ.rglob("*.py")
            for rule, line in expected_markers(path)
        )
        assert expected, "cmproj has no [expect ...] markers"
        found = sorted(
            (f.path, f.rule, f.line) for f in lint_paths([str(CMPROJ)])
        )
        assert found == expected

    def test_cm010_message_names_layers_and_chain(self):
        findings = [
            f for f in lint_paths([str(CMPROJ)]) if f.rule == "CM010"
        ]
        assert findings
        for finding in findings:
            assert "layer 'vision' must not import layer 'serving'" \
                in finding.message
            assert "import chain: " in finding.message
            assert "cmproj.vision.features -> " in finding.message
            assert finding.message.rstrip(")").endswith("cmproj.serving.store")

    def test_cm011_lands_in_the_worker_file(self):
        findings = [
            f for f in lint_paths([str(CMPROJ)]) if f.rule == "CM011"
        ]
        assert len(findings) == 1
        assert findings[0].path.endswith("serving/store.py")
        assert "CACHE" in findings[0].message
        assert "jobs.py" in findings[0].message  # the submission site


class TestLayeringRule:
    def test_downward_and_same_layer_imports_are_clean(self):
        findings = lint_project({
            "proj.serving.api": "import proj.vision.kernel\n"
                                "import proj.serving.store\n",
            "proj.serving.store": "X = 1\n",
            "proj.vision.kernel": "Y = 2\n",
        })
        assert findings == [], format_findings(findings)

    def test_upward_import_is_flagged_with_edge(self):
        findings = lint_project({
            "proj.vision.kernel": "import proj.serving.api\n",
            "proj.serving.api": "X = 1\n",
        })
        assert [(f.rule, f.line) for f in findings] == [("CM010", 1)]
        assert "proj.vision.kernel -> proj.serving.api" in findings[0].message

    def test_type_checking_import_is_exempt(self):
        findings = lint_project({
            "proj.vision.kernel": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import proj.serving.api\n"
            ),
            "proj.serving.api": "X = 1\n",
        })
        assert findings == [], format_findings(findings)

    def test_lazy_function_body_import_still_counts(self):
        findings = lint_project({
            "proj.vision.kernel": (
                "def render():\n"
                "    import proj.serving.api\n"
                "    return proj.serving.api\n"
            ),
            "proj.serving.api": "X = 1\n",
        })
        assert [(f.rule, f.line) for f in findings] == [("CM010", 2)]

    def test_chain_through_unlayered_module_reports_full_path(self):
        """An upward edge cannot hide behind an unlayered glue module."""
        findings = lint_project({
            "proj.vision.kernel": "import proj.cli\n",
            "proj.cli": "import proj.serving.api\n",
            "proj.serving.api": "X = 1\n",
        })
        cm010 = [f for f in findings if f.rule == "CM010"]
        assert len(cm010) == 1
        assert cm010[0].path == "proj/vision/kernel.py"
        assert (
            "import chain: proj.vision.kernel -> proj.cli -> proj.serving.api"
            in cm010[0].message
        )

    def test_unlayered_module_itself_is_unrestricted(self):
        findings = lint_project({
            "proj.cli": "import proj.serving.api\n",
            "proj.serving.api": "X = 1\n",
        })
        assert findings == [], format_findings(findings)


class TestParallelSafetyRule:
    def test_executor_submit_is_an_entry_point(self):
        findings = lint_project({
            "proj.core.runner": (
                "from concurrent.futures import ProcessPoolExecutor\n"
                "SEEN = []\n"
                "def work(x):\n"
                "    SEEN.append(x)\n"
                "    return x\n"
                "def run(items):\n"
                "    with ProcessPoolExecutor() as pool:\n"
                "        return list(pool.map(work, items))\n"
            ),
        })
        assert [(f.rule, f.line) for f in findings] == [("CM011", 4)]
        assert "pool.map()" in findings[0].message

    def test_reachability_follows_local_helpers(self):
        findings = lint_project({
            "proj.core.runner": (
                "from repro.backend.workers import map_parallel\n"
                "STATS = {}\n"
                "def helper(x):\n"
                "    STATS[x] = x\n"
                "    return x\n"
                "def work(x):\n"
                "    return helper(x)\n"
                "def run(items):\n"
                "    return map_parallel(work, items)\n"
            ),
        })
        assert [(f.rule, f.line) for f in findings] == [("CM011", 4)]

    def test_parent_side_mutation_is_clean(self):
        findings = lint_project({
            "proj.core.runner": (
                "from repro.backend.workers import map_parallel\n"
                "RESULTS = {}\n"
                "def work(x):\n"
                "    return (x, x * 2)\n"
                "def run(items):\n"
                "    for key, value in map_parallel(work, items):\n"
                "        RESULTS[key] = value\n"
                "    return RESULTS\n"
            ),
        })
        assert findings == [], format_findings(findings)

    def test_reading_immutable_module_constant_is_clean(self):
        findings = lint_project({
            "proj.core.runner": (
                "from repro.backend.workers import map_parallel\n"
                "SCALE = 3\n"
                "def work(x):\n"
                "    return x * SCALE\n"
                "def run(items):\n"
                "    return map_parallel(work, items)\n"
            ),
        })
        assert findings == [], format_findings(findings)


class TestImportGraph:
    def test_relative_imports_resolve_against_package(self):
        source = "from .sibling import helper\nfrom ..other import thing\n"
        ctx = ModuleContext(
            "proj/pkg/mod.py", source, module_name="proj.pkg.mod"
        )
        targets = sorted(
            (s.module, s.name) for s in ctx.imports
        )
        assert targets == [
            ("proj.other", "thing"), ("proj.pkg.sibling", "helper"),
        ]
        assert ctx.from_imports["helper"] == "proj.pkg.sibling.helper"

    def test_relative_import_beyond_package_top_is_dropped(self):
        ctx = ModuleContext(
            "proj/mod.py", "from ....nowhere import x\n",
            module_name="proj.mod",
        )
        assert ctx.imports == []

    def test_graph_prefers_deepest_module_for_from_imports(self):
        contexts, project = make_project({
            "proj.pkg.sub": "X = 1\n",
            "proj.pkg": "Y = 2\n",
            "proj.user": "from proj.pkg import sub\n",
        })
        edges = project.graph.edges_from("proj.user")
        assert [dst for dst, _ in edges] == ["proj.pkg.sub"]

    def test_type_checking_imports_never_become_edges(self):
        contexts, _ = make_project({
            "proj.a": (
                "from typing import TYPE_CHECKING\n"
                "if TYPE_CHECKING:\n"
                "    import proj.b\n"
            ),
            "proj.b": "X = 1\n",
        })
        graph = build_import_graph(contexts)
        assert graph.edges_from("proj.a") == []
