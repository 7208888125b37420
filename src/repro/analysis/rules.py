"""The crowdlint rule set (CM001–CM013).

Each rule encodes one repo invariant that a generic linter cannot check.
See the package docstring for the one-line summary of each; the classes
below document the precise detection logic and its deliberate blind spots.
CM001–CM008 are per-file rules; CM010–CM011 are *project* rules driven
with the whole-program :class:`~repro.analysis.project.ProjectContext`
(import graph, cross-module call resolution), and CM013 keeps
reconstruction stage calls inside the sanctioned dataflow entry points.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import (
    Finding,
    ImportStmt,
    ModuleContext,
    ProjectRule,
    Rule,
)
from repro.analysis.graph import layer_index_of, layer_of

#: Bump whenever a rule's detection logic or the finding schema changes:
#: the incremental cache (.crowdlint_cache.json) and the CI cache key are
#: both keyed on it, so stale cached findings can never survive a rule
#: change. Format: <highest rule id>.<revision>.
RULES_VERSION = "cm013.2"

#: Module-level numpy RNG entry points that draw from (or mutate) the
#: hidden global state. Calling any of these makes a run order-dependent.
_NP_GLOBAL_RNG_FNS = {
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "random_integers", "normal", "uniform", "choice", "shuffle",
    "permutation", "standard_normal", "beta", "binomial", "poisson",
    "exponential", "gamma", "bytes",
}

#: Wall-clock reads. Monotonic clocks (``perf_counter``, ``monotonic``)
#: are fine: they measure durations, not calendar time, and cannot leak
#: nondeterminism into artifacts.
_WALL_CLOCK_FNS = {
    "time.time",
    "time.time_ns",
    "time.localtime",
    "time.gmtime",
    "time.ctime",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


class UnseededRngRule(Rule):
    """CM001: library code must thread an explicit, seeded Generator.

    Flags ``np.random.default_rng()`` with no seed argument, any
    module-level ``np.random.<draw>()`` call (global-state RNG), and
    unseeded ``np.random.RandomState()``. Calls on a *local* generator
    object (``rng.normal(...)``, ``self.rng.choice(...)``) do not resolve
    to the numpy module and are never flagged — threading a generator is
    exactly the pattern this rule exists to enforce.
    """

    rule_id = "CM001"
    title = "unseeded / global numpy RNG"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call_name(node.func)
            if name is None:
                continue
            if name in ("numpy.random.default_rng", "numpy.random.RandomState"):
                if not node.args and not node.keywords:
                    yield self.finding(
                        ctx, node,
                        f"unseeded {name.split('.')[-1]}() — pass a seed or "
                        "thread an explicit np.random.Generator",
                    )
            elif (
                name.startswith("numpy.random.")
                and name.rsplit(".", 1)[-1] in _NP_GLOBAL_RNG_FNS
            ):
                yield self.finding(
                    ctx, node,
                    f"module-level {name}() uses numpy's hidden global RNG "
                    "state — thread an explicit np.random.Generator",
                )


class WallClockRule(Rule):
    """CM002: algorithmic modules must not read the wall clock.

    Calendar time in library code makes outputs depend on when they ran;
    anything that needs a timestamp must accept an injectable clock.
    Monotonic timers are allowed (duration telemetry), and modules with a
    legitimate need (backend telemetry export) allowlist the call site
    with a reason.
    """

    rule_id = "CM002"
    title = "wall-clock read in algorithmic code"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call_name(node.func)
            if name in _WALL_CLOCK_FNS:
                yield self.finding(
                    ctx, node,
                    f"{name}() reads the wall clock — inject a clock "
                    "callable instead (monotonic perf_counter is allowed)",
                )


class SwallowedExceptionRule(Rule):
    """CM003: ``except Exception`` must record what it caught.

    The quarantine invariant from the fault-tolerance layer: shedding a
    bad input is fine, *losing the evidence* is not. A broad handler
    passes when it re-raises, or binds the exception and actually uses
    the bound name (stores it in a failure report, formats it into
    telemetry). A broad handler that does neither is flagged.
    """

    rule_id = "CM003"
    title = "except Exception swallows the error"

    _BROAD = {"Exception", "BaseException"}

    def _is_broad(self, handler: ast.ExceptHandler) -> bool:
        if handler.type is None:
            return True  # bare except:
        if isinstance(handler.type, ast.Name) and handler.type.id in self._BROAD:
            return True
        if isinstance(handler.type, ast.Tuple):
            return any(
                isinstance(el, ast.Name) and el.id in self._BROAD
                for el in handler.type.elts
            )
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.ExceptHandler) or not self._is_broad(node):
                continue
            reraises = any(isinstance(n, ast.Raise) for sub in node.body
                           for n in ast.walk(sub))
            uses_name = False
            if node.name is not None:
                uses_name = any(
                    isinstance(n, ast.Name) and n.id == node.name
                    for sub in node.body
                    for n in ast.walk(sub)
                )
            if not reraises and not uses_name:
                yield self.finding(
                    ctx, node,
                    "broad except swallows the error without recording it — "
                    "re-raise, store the exception in a failure report, or "
                    "allowlist with a reason",
                )


class FloatEqualityRule(Rule):
    """CM004: no ``==`` / ``!=`` against float literals.

    Float equality is only ever correct for exact sentinel values, and
    those deserve an explicit pragma saying so. The rule flags any
    comparison where one side is a float constant; integer-literal
    comparisons (``d1 == 0`` on a cross product) are deliberately not
    flagged — they are usually exactness tests on small-integer-valued
    expressions and flagging them drowns the signal.
    """

    rule_id = "CM004"
    title = "float literal equality comparison"

    @staticmethod
    def _is_float_literal(node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, float):
            return True
        # -1.0 parses as UnaryOp(USub, Constant(1.0)).
        return (
            isinstance(node, ast.UnaryOp)
            and isinstance(node.op, (ast.USub, ast.UAdd))
            and isinstance(node.operand, ast.Constant)
            and isinstance(node.operand.value, float)
        )

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left] + list(node.comparators)
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if self._is_float_literal(left) or self._is_float_literal(right):
                    yield self.finding(
                        ctx, node,
                        "float equality comparison — use an epsilon "
                        "(math.isclose / np.isclose), an inequality on a "
                        "non-negative quantity, or allowlist an exact "
                        "sentinel with a reason",
                    )
                    break


class ConfigFieldRule(Rule):
    """CM005: config field references must name real dataclass fields.

    Sweeps, ablations and CLI glue refer to ``CrowdMapConfig`` thresholds
    by keyword — ``config.with_overrides(lcss_epsilon=...)`` — and a typo
    there silently sweeps nothing. The rule resolves the real field set by
    importing the dataclass and validates every keyword on
    ``.with_overrides(...)`` calls, ``CrowdMapConfig(...)`` constructor
    calls, and string literals in ``getattr``/``setattr``/``hasattr``
    whose target is named like a config.
    """

    rule_id = "CM005"
    title = "unknown CrowdMapConfig field"

    def __init__(self) -> None:
        self._fields: Optional[Set[str]] = None

    def _config_fields(self) -> Set[str]:
        if self._fields is None:
            import dataclasses

            from repro.core.config import CrowdMapConfig

            self._fields = {f.name for f in dataclasses.fields(CrowdMapConfig)}
        return self._fields

    @staticmethod
    def _is_config_name(node: ast.expr) -> bool:
        """Heuristic: does this expression look like a CrowdMapConfig?"""
        name = None
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        return name is not None and (name in ("config", "cfg") or name.endswith("_config"))

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        fields = self._config_fields()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            keywords: List[Tuple[str, ast.AST]] = []
            if isinstance(node.func, ast.Attribute) and node.func.attr == "with_overrides":
                keywords = [(kw.arg, kw) for kw in node.keywords if kw.arg is not None]
            elif (
                isinstance(node.func, ast.Name) and node.func.id == "CrowdMapConfig"
            ) or (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "CrowdMapConfig"
            ):
                keywords = [(kw.arg, kw) for kw in node.keywords if kw.arg is not None]
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("getattr", "setattr", "hasattr")
                and len(node.args) >= 2
                and self._is_config_name(node.args[0])
                and isinstance(node.args[1], ast.Constant)
                and isinstance(node.args[1].value, str)
            ):
                keywords = [(node.args[1].value, node.args[1])]
            for field_name, anchor in keywords:
                if field_name not in fields:
                    yield self.finding(
                        ctx, anchor,
                        f"'{field_name}' is not a CrowdMapConfig field — "
                        "known fields include "
                        + ", ".join(sorted(fields)[:4]) + ", ...",
                    )


class ElementwiseLoopRule(Rule):
    """CM006: per-element array loops in the vision hot path.

    The vision kernels dominate the pipeline's runtime and the perf work
    keeps them vectorized; a ``for`` loop whose body subscripts an array
    with its own loop variable is the classic element-wise pattern numpy
    replaces wholesale, and it tends to creep back in during bug fixes.
    The rule only examines modules in a ``vision`` directory and is
    **advisory**: it reports but never fails the build, because some
    loops are genuinely sequential (LSD's region growing, per-tap kernel
    accumulation) — those carry an ``allow[CM006]`` pragma whose reason
    documents why the loop must stay.

    Deliberate blind spots: comprehensions (typically packaging results,
    not per-pixel math) and loops that never index with their loop
    variable (chunk iteration, retries).
    """

    rule_id = "CM006"
    title = "element-wise array loop in vision kernel"
    severity = "advisory"

    _PATH_DIR = "vision"

    @staticmethod
    def _target_names(target: ast.expr) -> Set[str]:
        return {
            node.id for node in ast.walk(target) if isinstance(node, ast.Name)
        }

    def _loop_indexes_with_target(self, loop: ast.For) -> bool:
        names = self._target_names(loop.target)
        if not names:
            return False
        for stmt in loop.body:
            for inner in ast.walk(stmt):
                if not isinstance(inner, ast.Subscript):
                    continue
                for ref in ast.walk(inner.slice):
                    if isinstance(ref, ast.Name) and ref.id in names:
                        return True
        return False

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parts = ctx.path.replace("\\", "/").split("/")
        if self._PATH_DIR not in parts:
            return
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.For) and self._loop_indexes_with_target(node):
                yield self.finding(
                    ctx, node,
                    "loop subscripts with its own loop variable — vectorize "
                    "with array expressions, or allowlist with the reason "
                    "the loop is genuinely sequential",
                )


class RealTimeWaitRule(Rule):
    """CM007: no real-time waits inside ``repro/serving/``.

    The serving layer's whole determinism story is that *everything* runs
    on the virtual clock (the event loop and ``SimulatedScheduler``): the
    same seed reproduces the same SLO report on any machine. One
    ``time.sleep`` (or an asyncio sleep against the real loop) couples
    results to host timing and silently breaks that. The rule is
    **advisory** like CM006 — a deliberately-blocking test harness is
    conceivable — but any such call needs an ``allow[CM007]`` pragma
    explaining itself.

    Wall-clock *reads* are already CM002; this rule is about *waits*.
    """

    rule_id = "CM007"
    title = "real-time wait in the serving layer"
    severity = "advisory"

    _PATH_DIR = "serving"
    _WAIT_FNS = {"time.sleep", "asyncio.sleep"}

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parts = ctx.path.replace("\\", "/").split("/")
        if self._PATH_DIR not in parts:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call_name(node.func)
            if name in self._WAIT_FNS:
                yield self.finding(
                    ctx, node,
                    f"{name}() waits on real time — the serving layer runs "
                    "entirely on the virtual clock (EventLoop.schedule / "
                    "SimulatedScheduler); model delays as scheduled events",
                )


class EvalClockRule(Rule):
    """CM008: no clock reads or waits inside ``repro/eval/``.

    The accuracy gate's whole premise is that the committed
    ``ACCURACY_baseline.json`` regenerates *bit-identically* per seed:
    CI diffs fresh scorecards against it. Wall-clock reads are already
    CM002 everywhere, but evaluation code additionally must not read the
    *monotonic* clocks (``time.perf_counter``, ``time.monotonic``, the
    process/thread CPU timers) — a duration smuggled into a scorecard
    artifact varies per host and silently breaks the bit-compare — nor
    sleep. Timing belongs to ``repro.bench``; scorecard cells carry none.

    Unlike the advisory path-scoped rules (CM006/CM007) this one is an
    **error**: there is no legitimate reason for the quality gate itself
    to observe time. The pipeline's internal stage timings (recorded
    outside ``eval/``) stay allowed and are simply never serialized into
    accuracy reports.
    """

    rule_id = "CM008"
    title = "clock read or wait in evaluation code"

    _PATH_DIR = "eval"
    _CLOCK_FNS = {
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.thread_time",
        "time.thread_time_ns",
        "time.sleep",
    }

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parts = ctx.path.replace("\\", "/").split("/")
        if self._PATH_DIR not in parts:
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = ctx.resolve_call_name(node.func)
            if name in self._CLOCK_FNS:
                yield self.finding(
                    ctx, node,
                    f"{name}() observes time inside eval code — scorecard "
                    "artifacts must regenerate bit-identically per seed; "
                    "move timing into repro.bench",
                )


class LayeringRule(ProjectRule):
    """CM010: the declared layer DAG is a hard import contract.

    Layers (bottom up): core/geometry/sensors, vision, world/baselines,
    eval/bench, backend, serving/analysis (see
    :data:`repro.analysis.graph.LAYERS`). A layered module may import its
    own layer or below; an import that lands on a *higher* layer is a
    violation naming the offending edge. Unlayered modules (``repro.cli``)
    are unrestricted themselves but walked transitively, so an upward
    dependency cannot hide behind one — those findings carry the full
    import chain as evidence.

    ``if TYPE_CHECKING:`` imports are exempt (annotation-only coupling,
    the repo's established idiom — see ``repro.sensors.energy``); lazy
    function-body imports are real runtime edges and are checked.
    """

    rule_id = "CM010"
    title = "architecture layering violation"

    def check_project(self, ctx: ModuleContext, project) -> Iterator[Finding]:
        src = ctx.module_name
        if not src:
            return
        src_idx = layer_index_of(src)
        if src_idx is None:
            return
        src_layer = layer_of(src)
        reported: Set[Tuple[int, str]] = set()
        for stmt in ctx.imports:
            if stmt.type_checking:
                continue
            dst = project.graph.resolve_target(stmt)
            if dst is None or dst == src or (stmt.line, dst) in reported:
                continue
            reported.add((stmt.line, dst))
            dst_idx = layer_index_of(dst)
            if dst_idx is not None:
                if dst_idx > src_idx:
                    yield self._violation(
                        ctx, stmt, src_layer, layer_of(dst), [src, dst]
                    )
            else:
                reach = project.graph.highest_reach_through_unlayered(dst)
                if reach is not None and reach[0] > src_idx:
                    chain = [src] + reach[1]
                    yield self._violation(
                        ctx, stmt, src_layer, layer_of(chain[-1]), chain
                    )

    def _violation(
        self,
        ctx: ModuleContext,
        stmt: ImportStmt,
        src_layer: Optional[str],
        dst_layer: Optional[str],
        chain: List[str],
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=stmt.line,
            col=0,
            message=(
                f"layer '{src_layer}' must not import layer '{dst_layer}' "
                f"(import chain: {' -> '.join(chain)})"
            ),
            severity=self.severity,
            end_line=stmt.end_line,
        )


#: Parallel submission entry points whose first argument runs in workers.
_PARALLEL_ENTRIES = {
    "repro.backend.workers.map_parallel",
    "repro.backend.workers.map_with_failures",
}

#: Executor types whose ``.submit()``/``.map()`` ship work to processes.
_EXECUTOR_TYPES = {
    "concurrent.futures.ProcessPoolExecutor",
    "concurrent.futures.process.ProcessPoolExecutor",
    "multiprocessing.Pool",
}

#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = {
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "update", "add", "discard", "setdefault", "sort", "reverse",
    "appendleft", "extendleft", "__setitem__", "__delitem__",
}

_MAX_REACH_DEPTH = 8
_MAX_REACH_FNS = 200


def _root_name(expr: ast.expr) -> Optional[str]:
    node = expr
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _bound_names(func: ast.AST) -> Set[str]:
    """Names bound inside a function scope (params, assignments, targets).

    ``global``/``nonlocal`` declarations are subtracted afterwards by the
    caller — a declared-global assignment is exactly the hazard CM011
    hunts, not a local binding.
    """
    def stored(target: ast.AST) -> Set[str]:
        # Only Store-context names bind: in ``TOTALS[key] = x`` both
        # TOTALS and key are *loads* — treating them as locals would
        # mask exactly the shared-state stores this rule hunts.
        return {
            n.id
            for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }

    bound: Set[str] = set()
    args = func.args
    for arg in (
        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        + ([args.vararg] if args.vararg else [])
        + ([args.kwarg] if args.kwarg else [])
    ):
        bound.add(arg.arg)
    body = func.body if isinstance(func.body, list) else [func.body]
    for stmt in body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    bound.update(stored(target))
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                if isinstance(node.target, ast.Name):
                    bound.add(node.target.id)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                bound.update(stored(node.target))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        bound.update(stored(item.optional_vars))
            elif isinstance(node, ast.comprehension):
                bound.update(stored(node.target))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                bound.add(node.name)
    return bound


class ParallelSafetyRule(ProjectRule):
    """CM011: worker code must not touch shared mutable state.

    Finds every function statically reachable from a parallel submission —
    ``map_parallel``/``map_with_failures`` (resolved through imports) or
    ``.submit()``/``.map()`` on a ``ProcessPoolExecutor`` — and flags,
    inside each:

    - rebinding of a ``global``/``nonlocal`` name (pool threads race on
      it, so results depend on the schedule, breaking twin-run identity;
      a process-pool worker would mutate a private copy instead);
    - in-place mutation of module-level state: subscript/attribute stores
      and mutating method calls (``.append``, ``.update`` …) whose root
      name is bound at module level rather than locally;
    - worker *closures* (lambdas, nested defs) that capture a
      module-level mutable (list/dict/set literal or factory) even
      read-only — under threads the read races every writer (a process
      worker would see a stale copy).

    Cross-module reach is resolved through the project function table
    (``map_parallel(compute.work, ...)`` follows into ``compute``'s
    file); calls through dynamic values (``function(item)``) are opaque
    and end the walk — the deliberate blind spot that keeps this a
    race *detector*, not a verifier.
    """

    rule_id = "CM011"
    title = "shared-state mutation in parallel worker"

    def check_project(self, ctx: ModuleContext, project) -> Iterator[Finding]:
        submissions = list(self._submissions(ctx))
        if not submissions:
            return
        reported: Set[Tuple[str, int, str]] = set()
        for worker_expr, entry_desc in submissions:
            units = self._resolve_callable(worker_expr, ctx, project)
            closure_units = [
                u for u in units
                if isinstance(u[1], ast.Lambda)
                or u[1] not in project.summary(u[0]).functions.values()
            ]
            for unit_ctx, node in closure_units:
                yield from self._check_capture(
                    unit_ctx, node, project, entry_desc, reported
                )
            yield from self._walk_reachable(units, project, entry_desc, reported)

    # -- submission discovery ------------------------------------------

    def _submissions(
        self, ctx: ModuleContext
    ) -> Iterator[Tuple[ast.expr, str]]:
        executor_names = self._executor_names(ctx)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            resolved = ctx.resolve_call_name(node.func)
            worker: Optional[ast.expr] = None
            entry = None
            if resolved in _PARALLEL_ENTRIES:
                entry = resolved.rsplit(".", 1)[-1]
                worker = node.args[0] if node.args else next(
                    (kw.value for kw in node.keywords
                     if kw.arg in ("function", "fn", "func")),
                    None,
                )
            elif (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in ("submit", "map")
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in executor_names
                and node.args
            ):
                entry = f"{node.func.value.id}.{node.func.attr}"
                worker = node.args[0]
            if worker is not None:
                yield worker, f"{entry}() at {ctx.path}:{node.lineno}"

    @staticmethod
    def _executor_names(ctx: ModuleContext) -> Set[str]:
        names: Set[str] = set()
        for node in ast.walk(ctx.tree):
            value = None
            targets: List[ast.expr] = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if item.optional_vars is not None:
                        if (
                            isinstance(item.context_expr, ast.Call)
                            and ctx.resolve_call_name(item.context_expr.func)
                            in _EXECUTOR_TYPES
                        ):
                            names.update(
                                n.id
                                for n in ast.walk(item.optional_vars)
                                if isinstance(n, ast.Name)
                            )
                continue
            if (
                value is not None
                and isinstance(value, ast.Call)
                and ctx.resolve_call_name(value.func) in _EXECUTOR_TYPES
            ):
                for target in targets:
                    if isinstance(target, ast.Name):
                        names.add(target.id)
        return names

    # -- callable resolution -------------------------------------------

    def _resolve_callable(
        self, expr: ast.expr, ctx: ModuleContext, project
    ) -> List[Tuple[ModuleContext, ast.AST]]:
        if isinstance(expr, ast.Lambda):
            return [(ctx, expr)]
        if isinstance(expr, ast.Name):
            local = self._any_def(ctx, expr.id)
            if local is not None:
                return [(ctx, local)]
            dotted = ctx.from_imports.get(expr.id)
            if dotted:
                hit = project.resolve_function(dotted)
                return [hit] if hit else []
            return []
        if isinstance(expr, ast.Call):
            name = ctx.resolve_call_name(expr.func)
            if name == "functools.partial" and expr.args:
                return self._resolve_callable(expr.args[0], ctx, project)
            return []
        if isinstance(expr, ast.Attribute):
            dotted = ctx.resolve_call_name(expr)
            if dotted:
                hit = project.resolve_function(dotted)
                return [hit] if hit else []
        return []

    @staticmethod
    def _any_def(ctx: ModuleContext, name: str) -> Optional[ast.AST]:
        """First def bound to ``name`` anywhere in the module (incl. nested)."""
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name == name
            ):
                return node
        return None

    # -- reachability + mutation scan ----------------------------------

    def _walk_reachable(
        self,
        roots: List[Tuple[ModuleContext, ast.AST]],
        project,
        entry_desc: str,
        reported: Set[Tuple[str, int, str]],
    ) -> Iterator[Finding]:
        queue: List[Tuple[ModuleContext, ast.AST, int]] = [
            (c, n, 0) for c, n in roots
        ]
        visited: Set[Tuple[str, int, int]] = set()
        while queue:
            fn_ctx, fn_node, depth = queue.pop(0)
            key = (fn_ctx.path, fn_node.lineno, fn_node.col_offset)
            if key in visited or len(visited) >= _MAX_REACH_FNS:
                continue
            visited.add(key)
            yield from self._check_mutations(
                fn_ctx, fn_node, project, entry_desc, reported
            )
            if depth >= _MAX_REACH_DEPTH:
                continue
            for node in ast.walk(fn_node):
                if isinstance(node, ast.Call):
                    for callee in self._resolve_callable(
                        node.func, fn_ctx, project
                    ):
                        queue.append((callee[0], callee[1], depth + 1))

    def _check_mutations(
        self,
        ctx: ModuleContext,
        func: ast.AST,
        project,
        entry_desc: str,
        reported: Set[Tuple[str, int, str]],
    ) -> Iterator[Finding]:
        summary = project.summary(ctx)
        declared_global: Set[str] = set()
        declared_nonlocal: Set[str] = set()
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if isinstance(node, ast.Global):
                    declared_global.update(node.names)
                elif isinstance(node, ast.Nonlocal):
                    declared_nonlocal.update(node.names)
        local = _bound_names(func) - declared_global - declared_nonlocal
        fname = getattr(func, "name", "<lambda>")

        def shared(name: Optional[str]) -> bool:
            return (
                name is not None
                and name not in local
                and (
                    name in summary.module_level_names
                    or name in declared_global
                )
            )

        def emit(node: ast.AST, name: str, what: str) -> Optional[Finding]:
            key = (ctx.path, node.lineno, name)
            if key in reported:
                return None
            reported.add(key)
            return Finding(
                rule=self.rule_id,
                path=ctx.path,
                line=node.lineno,
                col=node.col_offset,
                message=(
                    f"worker function '{fname}' {what} — reached from "
                    f"{entry_desc}; thread state through arguments and "
                    "return values instead"
                ),
                severity=self.severity,
                end_line=getattr(node, "end_lineno", None) or node.lineno,
            )

        for stmt in body:
            for node in ast.walk(stmt):
                finding = None
                if isinstance(node, (ast.Assign, ast.AugAssign)):
                    targets = (
                        node.targets if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    for target in targets:
                        if isinstance(target, ast.Name):
                            scope = (
                                "module-level"
                                if target.id in declared_global
                                else "enclosing-scope"
                                if target.id in declared_nonlocal
                                else None
                            )
                            if scope is not None:
                                finding = emit(
                                    node, target.id,
                                    f"rebinds {scope} name '{target.id}'",
                                )
                        elif isinstance(target, (ast.Subscript, ast.Attribute)):
                            root = _root_name(target.value)
                            if shared(root):
                                finding = emit(
                                    node, root,
                                    "mutates module-level state "
                                    f"'{ast.unparse(target)}'",
                                )
                        if finding is not None:
                            break
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        if isinstance(target, (ast.Subscript, ast.Attribute)):
                            root = _root_name(target.value)
                            if shared(root):
                                finding = emit(
                                    node, root,
                                    "deletes from module-level state "
                                    f"'{ast.unparse(target)}'",
                                )
                                break
                elif (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATING_METHODS
                ):
                    root = _root_name(node.func.value)
                    if shared(root) and ctx.resolve_call_name(node.func) is None:
                        finding = emit(
                            node, root,
                            f"calls mutating '{ast.unparse(node.func)}()' on "
                            "module-level state",
                        )
                if finding is not None:
                    yield finding

    def _check_capture(
        self,
        ctx: ModuleContext,
        func: ast.AST,
        project,
        entry_desc: str,
        reported: Set[Tuple[str, int, str]],
    ) -> Iterator[Finding]:
        summary = project.summary(ctx)
        local = _bound_names(func)
        fname = getattr(func, "name", "<lambda>")
        body = func.body if isinstance(func.body, list) else [func.body]
        for stmt in body:
            for node in ast.walk(stmt):
                if (
                    isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and node.id not in local
                    and node.id in summary.mutable_globals
                ):
                    key = (ctx.path, node.lineno, node.id)
                    if key in reported:
                        continue
                    reported.add(key)
                    yield Finding(
                        rule=self.rule_id,
                        path=ctx.path,
                        line=node.lineno,
                        col=node.col_offset,
                        message=(
                            f"worker closure '{fname}' captures mutable "
                            f"module-level '{node.id}' — reached from "
                            f"{entry_desc}; pass it as an argument or make "
                            "it immutable"
                        ),
                        severity=self.severity,
                        end_line=getattr(node, "end_lineno", None)
                        or node.lineno,
                    )


#: Stage entry points the dataflow planner owns. Bare names are resolved
#: through the module's imports; ``self.``-rooted chains are matched on
#: their dotted tail (the pipeline's stage components).
_STAGE_ENTRY_BARE = {
    "select_keyframes",
    "prefetch_surf",
    "reconstruct_skeleton",
    "calibrate_drift",
    "register_candidates",
}
_STAGE_ENTRY_ATTR = {
    "aggregator.aggregate",
    "panorama_builder.build",
    "layout_estimator.estimate",
    "assembler.arrange",
}

#: The sanctioned homes for direct stage calls inside the pipeline
#: module: the legacy cascade (kept as the planner's byte-identity
#: reference) and the per-item producers the planner itself executes
#: nodes through.
_STAGE_CALL_SANCTUARY = {
    "anchor_session",
    "build_pathway",
    "build_room",
    "build_rooms",
    "run_sessions_legacy",
}


class CascadeRegrowthRule(Rule):
    """CM013: stage calls in ``core/pipeline.py`` must stay in the cascade.

    PR 8 lifted reconstruction out of the fixed cascade into the dataflow
    graph (``repro.dataflow``): ``run_sessions`` plans nodes, and only
    the sanctioned legacy-cascade methods (plus the per-item producers
    the planner executes nodes through) may call stage entry points
    directly. A stage call sprouting anywhere else in the pipeline module
    is the fixed cascade silently regrowing — it would execute outside
    the graph, invisible to content-keyed skipping and the
    node-execution telemetry. **Advisory**: a deliberate bypass is
    conceivable (debugging harnesses), but it needs an ``allow[CM013]``
    pragma explaining why the call must not be a graph node.

    Deliberate blind spots: modules other than ``core/pipeline.py`` (the
    planner itself executes stages, legitimately), and dynamic dispatch
    (``getattr``) — this guards against the honest mistake, not evasion.
    """

    rule_id = "CM013"
    title = "stage call bypasses the dataflow graph"
    severity = "advisory"

    @staticmethod
    def _dotted_tail(func: ast.expr) -> Optional[str]:
        """Dotted call-target path with its root name (``self`` kept)."""
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.append(node.id)
        parts.reverse()
        return ".".join(parts)

    def _is_stage_call(self, node: ast.Call) -> bool:
        dotted = self._dotted_tail(node.func)
        if dotted is None:
            return False
        parts = dotted.split(".")
        if parts[-1] in _STAGE_ENTRY_BARE:
            return True
        tail = ".".join(parts[-2:])
        return tail in _STAGE_ENTRY_ATTR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        parts = ctx.path.replace("\\", "/").split("/")
        if len(parts) < 2 or parts[-2:] != ["core", "pipeline.py"]:
            return
        sanctioned: Set[int] = set()
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in _STAGE_CALL_SANCTUARY
            ):
                for inner in ast.walk(node):
                    sanctioned.add(id(inner))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call) or id(node) in sanctioned:
                continue
            if self._is_stage_call(node):
                dotted = self._dotted_tail(node.func)
                yield self.finding(
                    ctx, node,
                    f"'{dotted}' runs a reconstruction stage outside the "
                    "sanctioned cascade methods — route it through the "
                    "dataflow graph (a planner node), or allowlist with "
                    "the reason it must bypass the planner",
                )


ALL_RULES: Sequence[Rule] = (
    UnseededRngRule(),
    WallClockRule(),
    SwallowedExceptionRule(),
    FloatEqualityRule(),
    ConfigFieldRule(),
    ElementwiseLoopRule(),
    RealTimeWaitRule(),
    EvalClockRule(),
    LayeringRule(),
    ParallelSafetyRule(),
    CascadeRegrowthRule(),
)
