"""Whole-program context for cross-module crowdlint rules.

:class:`ProjectContext` is built once per lint run from every parsed
module (see :func:`repro.analysis.engine.lint_paths` and the incremental
driver in :mod:`repro.analysis.cache`). It exposes what the CM010-CM011
rules need beyond a single file's AST:

- the module set keyed by dotted name, with relative imports already
  resolved against each file's package (``ModuleContext.imports``);
- the runtime import graph (:class:`~repro.analysis.graph.ImportGraph`);
- a top-level function table for cross-module call resolution, so the
  parallel-safety rule can follow ``map_parallel(compute.work, ...)``
  into ``compute``'s file;
- per-module binding summaries: which names are bound at module level,
  and which of those are bound to *mutable* literals (the state a worker
  closure must not capture or mutate).

Everything here is derived purely from the ASTs — no project module is
ever imported.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.engine import ModuleContext
from repro.analysis.graph import ImportGraph, build_import_graph

#: Calls whose result is mutable state when bound at module level.
_MUTABLE_FACTORIES = {
    "list", "dict", "set", "bytearray", "deque", "defaultdict",
    "OrderedDict", "Counter",
}


def _assigned_names(target: ast.expr) -> Iterable[str]:
    for node in ast.walk(target):
        if isinstance(node, ast.Name):
            yield node.id


def _is_mutable_literal(value: ast.expr) -> bool:
    if isinstance(value, (ast.List, ast.Dict, ast.Set,
                          ast.ListComp, ast.DictComp, ast.SetComp)):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None
        )
        return name in _MUTABLE_FACTORIES
    return False


class ModuleSummary:
    """Per-module binding facts shared by the project rules."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        #: every name bound by a module-level statement (assignments,
        #: defs, classes, imports, for/with targets).
        self.module_level_names: Set[str] = set()
        #: subset of the above bound to a mutable literal or factory call.
        self.mutable_globals: Set[str] = set()
        #: top-level function definitions by name.
        self.functions: Dict[str, ast.AST] = {}
        self._scan()

    def _scan(self) -> None:
        for node in self.ctx.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_level_names.add(node.name)
                self.functions[node.name] = node
            elif isinstance(node, ast.ClassDef):
                self.module_level_names.add(node.name)
            elif isinstance(node, ast.Assign):
                names = [n for t in node.targets for n in _assigned_names(t)]
                self.module_level_names.update(names)
                if _is_mutable_literal(node.value):
                    self.mutable_globals.update(names)
            elif isinstance(node, ast.AnnAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_level_names.add(node.target.id)
                if node.value is not None and _is_mutable_literal(node.value):
                    self.mutable_globals.add(node.target.id)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.target, ast.Name
            ):
                self.module_level_names.add(node.target.id)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    if alias.name != "*":
                        bound = alias.asname or alias.name.split(".")[0]
                        self.module_level_names.add(bound)
            elif isinstance(node, (ast.For, ast.With)):
                targets = (
                    [node.target] if isinstance(node, ast.For)
                    else [i.optional_vars for i in node.items if i.optional_vars]
                )
                for target in targets:
                    self.module_level_names.update(_assigned_names(target))


class ProjectContext:
    """Every parsed module of one lint run, plus derived lookups."""

    def __init__(self, contexts: Sequence[ModuleContext], graph: ImportGraph):
        self.modules: Dict[str, ModuleContext] = {
            c.module_name: c for c in contexts if c.module_name
        }
        self.graph = graph
        self._summaries: Dict[str, ModuleSummary] = {}

    @classmethod
    def from_contexts(cls, contexts: Sequence[ModuleContext]) -> "ProjectContext":
        return cls(contexts, build_import_graph(contexts))

    def summary(self, ctx: ModuleContext) -> ModuleSummary:
        """Binding summary for a module (cached; works for unnamed files)."""
        key = ctx.module_name or ctx.path
        cached = self._summaries.get(key)
        if cached is None or cached.ctx is not ctx:
            cached = ModuleSummary(ctx)
            self._summaries[key] = cached
        return cached

    def resolve_function(
        self, dotted: str
    ) -> Optional[Tuple[ModuleContext, ast.AST]]:
        """Find the project function a dotted path addresses.

        ``repro.core.compute.work`` resolves when ``repro.core.compute``
        is a project module defining top-level ``work``. Deeper suffixes
        (methods, attributes of attributes) do not resolve — the
        parallel-safety rule treats them as opaque.
        """
        if "." not in dotted:
            return None
        module, func = dotted.rsplit(".", 1)
        ctx = self.modules.get(module)
        if ctx is None:
            return None
        node = self.summary(ctx).functions.get(func)
        return None if node is None else (ctx, node)
