"""Project import graph and the declared architecture layer DAG.

The layering contract (rule CM010) declares the repo's packages as an
ordered stack of layers; a module may import modules in its own layer or
any layer *below* it, never above:

    core / geometry / sensors        (0: math, config, contracts)
        <- vision                    (1: image kernels)
        <- world / baselines         (2: simulator, comparison methods)
        <- eval / bench              (3: quality + perf harnesses)
        <- backend                   (4: cache, workers, serving infra)
        <- serving / analysis        (5: traffic tier, this linter)
        <- fleet                     (6: multi-node gossip fusion)

A module's layer is the *last* dotted-path segment that names a layer
(``repro.vision.hog`` -> ``vision``), mirroring how the path-scoped rules
CM006-CM008 recognise their directories; modules naming no layer
(``repro.cli``, ``repro.__main__``) are unlayered — unrestricted
themselves, but traversed when computing transitive reach so a layered
module cannot launder an upward edge through them.

Because every *direct* edge between layered modules is checked, transitive
violations can only arise through unlayered intermediates — that is the
one case where :class:`ImportGraph` walks chains, and CM010 reports the
full import chain as evidence.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.analysis.engine import ImportStmt

#: The declared layer stack, lowest first. Packages sharing a tuple are
#: one layer and may import each other freely.
LAYERS: Tuple[Tuple[str, ...], ...] = (
    ("core", "geometry", "sensors"),
    ("vision",),
    ("dataflow",),
    ("world", "baselines"),
    ("eval", "bench"),
    ("backend",),
    ("serving", "analysis"),
    ("fleet",),
)

#: layer name -> index in the stack (0 = bottom).
LAYER_INDEX: Dict[str, int] = {
    name: idx for idx, group in enumerate(LAYERS) for name in group
}


def layer_of(module: str) -> Optional[str]:
    """Layer name a dotted module belongs to, or None when unlayered.

    The *last* matching segment wins so fixture packages nested under
    ``tests.analysis.fixtures`` resolve to the fixture's own layer, not to
    ``analysis``.
    """
    for part in reversed(module.split(".")):
        if part in LAYER_INDEX:
            return part
    return None


def layer_index_of(module: str) -> Optional[int]:
    layer = layer_of(module)
    return None if layer is None else LAYER_INDEX[layer]


class ImportGraph:
    """Module-granularity import graph over one project's file set.

    Nodes are dotted module names; edges keep the first
    :class:`~repro.analysis.engine.ImportStmt` that created them so rules
    can anchor findings on real source lines. ``TYPE_CHECKING`` imports
    never become edges (annotation-only, no runtime coupling); lazy
    function-body imports do (deferred, but real).
    """

    def __init__(self, modules: Iterable[str]):
        self._modules = set(modules)
        self._edges: Dict[str, Dict[str, ImportStmt]] = {}

    @property
    def modules(self) -> List[str]:
        return sorted(self._modules)

    def resolve_target(self, stmt: ImportStmt) -> Optional[str]:
        """Project module an import statement lands on, if any.

        ``from pkg import name`` may address either the module
        ``pkg.name`` or an attribute of ``pkg``; prefer the deeper module
        when it exists in the project. ``import a.b.c`` walks the dotted
        prefix chain so importing a subpackage registers an edge to the
        deepest project module it names.
        """
        if stmt.name:
            candidate = f"{stmt.module}.{stmt.name}"
            if candidate in self._modules:
                return candidate
        parts = stmt.module.split(".")
        for depth in range(len(parts), 0, -1):
            prefix = ".".join(parts[:depth])
            if prefix in self._modules:
                return prefix
        return None

    def add_import(self, src: str, stmt: ImportStmt) -> Optional[str]:
        """Register the edge an import creates; returns the target module."""
        if stmt.type_checking:
            return None
        dst = self.resolve_target(stmt)
        if dst is None or dst == src:
            return None
        self._edges.setdefault(src, {}).setdefault(dst, stmt)
        return dst

    def edges_from(self, src: str) -> List[Tuple[str, ImportStmt]]:
        return sorted(self._edges.get(src, {}).items())

    def highest_reach_through_unlayered(
        self, start: str
    ) -> Optional[Tuple[int, List[str]]]:
        """Deepest layer reachable from an *unlayered* start module.

        Walks runtime edges, passing through unlayered modules only and
        stopping at the first layered module on each branch (beyond that,
        the layered module's own direct edges are CM010-checked, so blame
        belongs there). Returns ``(layer index, chain)`` for the highest
        layered module found, with the BFS chain from ``start`` to it;
        None when no layered module is reachable.
        """
        best: Optional[Tuple[int, List[str]]] = None
        queue = deque([[start]])
        seen = {start}
        while queue:
            chain = queue.popleft()
            for dst, _stmt in self.edges_from(chain[-1]):
                if dst in seen:
                    continue
                seen.add(dst)
                idx = layer_index_of(dst)
                if idx is None:
                    queue.append(chain + [dst])
                elif best is None or idx > best[0]:
                    best = (idx, chain + [dst])
        return best


def build_import_graph(contexts: Sequence) -> ImportGraph:
    """Graph over parsed modules (any context lacking a name is skipped)."""
    named = [c for c in contexts if c.module_name]
    graph = ImportGraph(c.module_name for c in named)
    for ctx in named:
        for stmt in ctx.imports:
            graph.add_import(ctx.module_name, stmt)
    return graph
