"""crowdlint: repo-native static analysis for the CrowdMap reproduction.

Generic linters cannot express the invariants this codebase depends on —
deterministic seeded RNG threading, injectable clocks, the quarantine
failure-reporting contract from the fault-tolerance layer, float-equality
hygiene in geometry code, statically-valid ``CrowdMapConfig`` field
references, and (since the whole-program pass) cross-module contracts:
architecture layering, parallel-worker safety and shared-memory
lifecycles. ``repro.analysis`` encodes them as AST rules (pure stdlib
``ast``, no third-party dependency) and runs as a CI gate next to ruff
and mypy:

    python -m repro.analysis src

Rules
-----
========  ==============================================================
CM001     no unseeded ``np.random.default_rng()`` / module-level
          ``np.random.*`` in library code — thread an explicit
          ``Generator`` (reproducibility of Fig. 7a depends on it)
CM002     no wall-clock reads (``time.time``, ``datetime.now``) in
          algorithmic modules; monotonic ``perf_counter`` is fine
CM003     no ``except Exception`` that swallows the error without
          recording it (the PR-1 quarantine invariant)
CM004     no ``==``/``!=`` against float literals
CM005     ``CrowdMapConfig`` field references in ``with_overrides`` and
          constructor calls must name a real dataclass field
CM006     *(advisory)* no element-wise array loops in ``repro.vision``
          kernels — the hot path stays vectorized; genuinely sequential
          loops carry an ``allow[CM006]`` pragma with the reason
CM007     *(advisory)* no real-time waits (``time.sleep``,
          ``asyncio.sleep``) in ``repro.serving`` — the serving layer
          runs entirely on the virtual clock, which is what makes its
          SLO reports bit-reproducible per seed
CM008     no clock reads or waits in ``repro.eval`` — the accuracy gate
          bit-compares scorecards against the committed
          ``ACCURACY_baseline.json``, so even monotonic durations
          (allowed elsewhere by CM002) are banned there
CM010     architecture layering: the declared layer stack
          (core/geometry/sensors -> vision -> world/baselines ->
          eval/bench -> backend -> serving/analysis) only permits
          downward imports; ``TYPE_CHECKING`` imports are exempt, and
          violations name the offending edge with its import chain
CM011     parallel safety: functions reachable from ``map_parallel`` /
          ``map_with_failures`` / process-pool submission must not
          mutate module-level or enclosing-scope state, and worker
          closures must not capture mutable globals
========  ==============================================================

CM001-CM008 are per-file rules; CM010-CM011 are *project* rules driven
by a whole-program pass (:mod:`repro.analysis.project`) that parses every
module once, resolves relative imports against each file's package, and
builds the import graph (:mod:`repro.analysis.graph`).

Severities: every rule is an **error** (fails the CLI with exit 1)
except CM006 and CM007, which are **advisory** — reported, counted, but
never a build failure, because "could this loop vectorize?" and "is this
wait ever legitimate?" are judgement calls.

A finding is suppressed by an inline pragma **with a reason** — placed on
any physical line of the flagged statement, or the line directly above::

    denom == 0.0  # crowdlint: allow[CM004] exact parallel test on cross product

A pragma without a reason is itself an error (CM000). Pre-existing
violations accepted with a written reason live in the committed
``.crowdlint-baseline.json`` (:mod:`repro.analysis.baseline`); anything
new still gates.

Lint runs are incremental (:mod:`repro.analysis.cache`): per-file
findings are cached keyed on source sha1 + rule-set version, warm runs
are byte-identical to cold, and ``--format sarif``
(:mod:`repro.analysis.sarif`) feeds GitHub code scanning. The README rule
table is generated from rule metadata (:mod:`repro.analysis.catalog`).
"""

from repro.analysis.baseline import (
    BaselineEntry,
    BaselineError,
    apply_baseline,
    find_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cache import CacheStats, cached_lint
from repro.analysis.catalog import render_rule_table, update_readme
from repro.analysis.engine import (
    Finding,
    ImportStmt,
    ModuleContext,
    ProjectRule,
    Rule,
    check_module,
    format_findings,
    lint_paths,
    lint_source,
    module_name_for_path,
)
from repro.analysis.graph import (
    LAYERS,
    ImportGraph,
    build_import_graph,
    layer_of,
)
from repro.analysis.project import ModuleSummary, ProjectContext
from repro.analysis.rules import ALL_RULES, RULES_VERSION
from repro.analysis.sarif import format_sarif, to_sarif

__all__ = [
    "ALL_RULES",
    "BaselineEntry",
    "BaselineError",
    "CacheStats",
    "Finding",
    "ImportGraph",
    "ImportStmt",
    "LAYERS",
    "ModuleContext",
    "ModuleSummary",
    "ProjectContext",
    "ProjectRule",
    "RULES_VERSION",
    "Rule",
    "apply_baseline",
    "build_import_graph",
    "cached_lint",
    "check_module",
    "find_baseline",
    "format_findings",
    "format_sarif",
    "layer_of",
    "lint_paths",
    "lint_source",
    "load_baseline",
    "module_name_for_path",
    "render_rule_table",
    "to_sarif",
    "update_readme",
    "write_baseline",
]
