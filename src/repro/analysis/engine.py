"""The crowdlint engine: file discovery, pragma allowlist, rule driving.

The engine is deliberately small: a :class:`ModuleContext` parses one file
and pre-computes what every rule needs (the AST, import aliases, pragma
lines), rules yield :class:`Finding` objects, and :func:`lint_paths` wires
discovery + suppression together. Everything is pure stdlib so the linter
itself can never be the reason the dependency surface grows.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: ``# crowdlint: allow[CM001,CM004] reason text`` — the reason is mandatory;
#: an empty reason is reported as CM000 instead of suppressing anything.
_PRAGMA_RE = re.compile(
    r"#\s*crowdlint:\s*allow\[(?P<rules>[A-Za-z0-9_,\s]+)\]\s*(?:--\s*)?(?P<reason>.*)$"
)


#: Finding severities. ``error`` findings fail the CLI (exit 1);
#: ``advisory`` findings are reported but never gate a build.
SEVERITIES = ("error", "advisory")


@dataclass(frozen=True)
class Finding:
    """One rule violation at a source location.

    ``end_line`` is the last physical line of the flagged node (equal to
    ``line`` for single-line constructs); pragma suppression honours the
    whole span, and SARIF output carries it as ``region.endLine``.
    """

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"
    end_line: int = 0

    @property
    def span_end(self) -> int:
        return max(self.end_line, self.line)

    @property
    def location(self) -> str:
        return f"{self.path}:{self.line}"

    def __str__(self) -> str:
        tag = "" if self.severity == "error" else f" [{self.severity}]"
        return (
            f"{self.path}:{self.line}:{self.col}: {self.rule}{tag} "
            f"{self.message}"
        )


@dataclass(frozen=True)
class Pragma:
    """A parsed ``crowdlint: allow[...]`` comment on one physical line."""

    line: int
    rules: Tuple[str, ...]
    reason: str


@dataclass(frozen=True)
class ImportStmt:
    """One resolved import edge out of a module.

    ``module`` is the absolute dotted target (relative imports are
    resolved against the file's package); ``name`` is the bound name for
    ``from X import name`` forms — it may itself address a submodule, so
    graph construction tries ``module.name`` before falling back to
    ``module``. ``type_checking`` marks imports inside an
    ``if TYPE_CHECKING:`` block (annotation-only, never a runtime edge);
    ``lazy`` marks imports inside a function body (a runtime edge, just a
    deferred one).
    """

    module: str
    name: Optional[str]
    line: int
    end_line: int
    type_checking: bool = False
    lazy: bool = False


def module_name_for_path(path: str) -> Optional[str]:
    """Dotted module name of a real file, via the ``__init__.py`` chain.

    ``src/repro/vision/hog.py`` resolves to ``repro.vision.hog`` because
    every directory from ``repro`` down carries an ``__init__.py`` while
    ``src`` does not. Returns None for paths that do not exist (fixture
    strings fed to :func:`lint_source`) or top-level scripts outside any
    package.
    """
    p = Path(path)
    if p.suffix != ".py" or not p.is_file():
        return None
    p = p.resolve()
    parts: List[str] = [] if p.stem == "__init__" else [p.stem]
    current = p.parent
    while (current / "__init__.py").is_file():
        parts.insert(0, current.name)
        if current.parent == current:
            break
        current = current.parent
    return ".".join(parts) if parts else None


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    return isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING"


class Rule:
    """Base class for crowdlint rules.

    Subclasses set :attr:`rule_id` / :attr:`title` and implement
    :meth:`check`, yielding findings for one module. Rules must not mutate
    the context.
    """

    rule_id: str = "CM000"
    title: str = ""
    severity: str = "error"

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: "ModuleContext", node: ast.AST, message: str) -> Finding:
        line = getattr(node, "lineno", 0)
        return Finding(
            rule=self.rule_id,
            path=ctx.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            message=message,
            severity=self.severity,
            end_line=getattr(node, "end_lineno", None) or line,
        )


class ProjectRule(Rule):
    """A rule that needs the whole-program view.

    Subclasses implement :meth:`check_project`, which receives the module
    under scrutiny *and* the :class:`~repro.analysis.project.ProjectContext`
    holding every parsed module plus the import graph. Findings must be
    anchored in ``ctx``'s file — the incremental cache stores project-rule
    findings per file, invalidated whenever any project file changes.
    """

    def check(self, ctx: "ModuleContext") -> Iterator[Finding]:
        raise TypeError(
            f"{self.rule_id} is a project rule; drive it via check_project()"
        )

    def check_project(self, ctx: "ModuleContext", project) -> Iterator[Finding]:
        raise NotImplementedError


class ModuleContext:
    """One parsed source file plus the lookups rules share.

    ``import_aliases`` maps local names to the dotted module they are bound
    to (``np`` -> ``numpy``, ``dt`` -> ``datetime``); ``from_imports`` maps
    local names to fully-qualified origins (``default_rng`` ->
    ``numpy.random.default_rng``). Both let rules resolve a call like
    ``np.random.default_rng()`` to its canonical dotted path regardless of
    how the module spelled the import.
    """

    def __init__(self, path: str, source: str, module_name: Optional[str] = None):
        self.path = path
        self.source = source
        self.tree = ast.parse(source, filename=path)
        self.lines = source.splitlines()
        self.module_name = module_name or module_name_for_path(path)
        self.package = self._package_of(path, self.module_name)
        self.pragmas: Dict[int, Pragma] = {}
        self.malformed_pragmas: List[Pragma] = []
        self._parse_pragmas()
        self.import_aliases: Dict[str, str] = {}
        self.from_imports: Dict[str, str] = {}
        self.imports: List[ImportStmt] = []
        self._collect_imports()

    @staticmethod
    def _package_of(path: str, module_name: Optional[str]) -> str:
        """Containing package of this module ('' when unknown)."""
        if not module_name:
            return ""
        if Path(path).stem == "__init__":
            return module_name
        return module_name.rsplit(".", 1)[0] if "." in module_name else ""

    # -- pragmas -------------------------------------------------------

    def _parse_pragmas(self) -> None:
        for lineno, text in enumerate(self.lines, start=1):
            match = _PRAGMA_RE.search(text)
            if match is None:
                continue
            rules = tuple(
                r.strip().upper() for r in match.group("rules").split(",") if r.strip()
            )
            pragma = Pragma(line=lineno, rules=rules, reason=match.group("reason").strip())
            if pragma.reason:
                self.pragmas[lineno] = pragma
            else:
                self.malformed_pragmas.append(pragma)

    def allowed(self, rule_id: str, line: int, end_line: Optional[int] = None) -> bool:
        """True when a well-formed pragma covers ``rule_id`` for this span.

        A pragma suppresses a finding when it sits on any physical line of
        the flagged node (``line`` through ``end_line`` — so a pragma on the
        first line of a multi-line call works wherever the finding anchors)
        or on the line directly above the node.
        """
        last = max(end_line or line, line)
        for candidate in range(max(line - 1, 1), last + 1):
            pragma = self.pragmas.get(candidate)
            if pragma is not None and rule_id in pragma.rules:
                return True
        return False

    # -- import resolution ---------------------------------------------

    def _resolve_relative(self, node: ast.ImportFrom) -> Optional[str]:
        """Absolute dotted target of a relative import, or None.

        ``from .foo import bar`` in package ``repro.vision`` resolves to
        ``repro.vision.foo``; each extra leading dot climbs one package.
        Unresolvable when the file's package is unknown (string fixtures)
        or the import climbs past the top of the package.
        """
        if not self.package:
            return None
        parts = self.package.split(".")
        climb = node.level - 1
        if climb > len(parts):
            return None
        base = parts[: len(parts) - climb] if climb else parts
        if node.module:
            base = base + node.module.split(".")
        return ".".join(base) if base else None

    def _collect_imports(self) -> None:
        self._walk_imports(self.tree.body, type_checking=False, lazy=False)

    def _record_from_import(
        self, node: ast.ImportFrom, target: str, type_checking: bool, lazy: bool
    ) -> None:
        for alias in node.names:
            if alias.name != "*":
                self.from_imports[alias.asname or alias.name] = (
                    f"{target}.{alias.name}"
                )
            self.imports.append(
                ImportStmt(
                    module=target,
                    name=None if alias.name == "*" else alias.name,
                    line=node.lineno,
                    end_line=node.end_lineno or node.lineno,
                    type_checking=type_checking,
                    lazy=lazy,
                )
            )

    def _walk_imports(
        self, stmts: Sequence[ast.stmt], type_checking: bool, lazy: bool
    ) -> None:
        for node in stmts:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname:
                        self.import_aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".")[0]
                        self.import_aliases[root] = root
                    self.imports.append(
                        ImportStmt(
                            module=alias.name,
                            name=None,
                            line=node.lineno,
                            end_line=node.end_lineno or node.lineno,
                            type_checking=type_checking,
                            lazy=lazy,
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                target = (
                    node.module
                    if node.level == 0
                    else self._resolve_relative(node)
                )
                if target:
                    self._record_from_import(node, target, type_checking, lazy)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self._walk_imports(node.body, type_checking, lazy=True)
            elif isinstance(node, ast.If):
                tc = type_checking or _is_type_checking_test(node.test)
                self._walk_imports(node.body, tc, lazy)
                self._walk_imports(node.orelse, type_checking, lazy)
            elif isinstance(node, ast.ClassDef):
                self._walk_imports(node.body, type_checking, lazy)
            elif isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                self._walk_imports(node.body, type_checking, lazy)
                self._walk_imports(node.orelse, type_checking, lazy)
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                self._walk_imports(node.body, type_checking, lazy)
            elif isinstance(node, ast.Try):
                self._walk_imports(node.body, type_checking, lazy)
                for handler in node.handlers:
                    self._walk_imports(handler.body, type_checking, lazy)
                self._walk_imports(node.orelse, type_checking, lazy)
                self._walk_imports(node.finalbody, type_checking, lazy)

    def resolve_call_name(self, func: ast.expr) -> Optional[str]:
        """Canonical dotted path of a call target, or None if not static.

        ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
        under ``import numpy as np``; a bare ``default_rng`` resolves via
        ``from numpy.random import default_rng``. Attribute chains rooted
        at anything other than an imported module (e.g. ``self.rng.normal``)
        resolve to None, which rules treat as "not a module-level call".
        """
        parts: List[str] = []
        node = func
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        else:
            return None
        parts.reverse()
        root = parts[0]
        if root in self.from_imports:
            return ".".join([self.from_imports[root]] + parts[1:])
        if root in self.import_aliases:
            return ".".join([self.import_aliases[root]] + parts[1:])
        return None


def _iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    seen = set()
    for raw in paths:
        path = Path(raw)
        if path.is_file() and path.suffix == ".py":
            candidates: Iterable[Path] = [path]
        elif path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        else:
            raise FileNotFoundError(f"no such file or directory: {raw}")
        for candidate in candidates:
            if any(part.startswith(".") for part in candidate.parts):
                continue
            key = candidate.resolve()
            if key not in seen:
                seen.add(key)
                yield candidate


def _default_rules() -> Sequence[Rule]:
    from repro.analysis.rules import ALL_RULES

    return ALL_RULES


def _syntax_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        rule="CM000",
        path=path,
        line=exc.lineno or 0,
        col=exc.offset or 0,
        message=f"syntax error prevents analysis: {exc.msg}",
    )


def check_module(
    ctx: ModuleContext,
    rules: Sequence[Rule],
    project=None,
) -> List[Finding]:
    """Run every rule against one parsed module, applying pragmas.

    ``project`` is the :class:`~repro.analysis.project.ProjectContext`
    shared by cross-module rules; when None, a degenerate single-module
    project is built on demand so project rules still see intra-module
    hazards.
    """
    findings: List[Finding] = []
    for pragma in ctx.malformed_pragmas:
        findings.append(
            Finding(
                rule="CM000",
                path=ctx.path,
                line=pragma.line,
                col=0,
                message=(
                    "allow pragma is missing a reason — write "
                    "'# crowdlint: allow[%s] <why this is safe>'"
                    % ",".join(pragma.rules)
                ),
            )
        )
    project_rules = [r for r in rules if isinstance(r, ProjectRule)]
    if project is None and project_rules:
        from repro.analysis.project import ProjectContext

        project = ProjectContext.from_contexts([ctx])
    for rule in rules:
        produced = (
            rule.check_project(ctx, project)
            if isinstance(rule, ProjectRule)
            else rule.check(ctx)
        )
        for finding in produced:
            if not ctx.allowed(finding.rule, finding.line, finding.end_line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def lint_source(
    source: str,
    path: str = "<string>",
    rules: Optional[Sequence[Rule]] = None,
    module_name: Optional[str] = None,
) -> List[Finding]:
    """Lint one source string; the unit every test fixture goes through."""
    if rules is None:
        rules = _default_rules()
    try:
        ctx = ModuleContext(path, source, module_name=module_name)
    except SyntaxError as exc:
        return [_syntax_error_finding(path, exc)]
    return check_module(ctx, rules)


def lint_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Lint every ``.py`` file under ``paths`` (files or directories).

    All discovered modules form one project: cross-module rules
    (CM010-CM011) resolve imports, reachability and layer membership over
    exactly this file set. For the cached incremental driver wrapping this
    pass, see :mod:`repro.analysis.cache`.
    """
    from repro.analysis.project import ProjectContext

    if rules is None:
        rules = _default_rules()
    findings: List[Finding] = []
    contexts: List[ModuleContext] = []
    for file_path in _iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        try:
            contexts.append(ModuleContext(str(file_path), source))
        except SyntaxError as exc:
            findings.append(_syntax_error_finding(str(file_path), exc))
    project = ProjectContext.from_contexts(contexts)
    for ctx in contexts:
        findings.extend(check_module(ctx, rules, project=project))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings


def format_findings(findings: Sequence[Finding]) -> str:
    """Human-readable report, one ``path:line:col: RULE message`` per line."""
    if not findings:
        return "crowdlint: no findings"
    lines = [str(f) for f in findings]
    advisory = sum(1 for f in findings if f.severity == "advisory")
    summary = f"crowdlint: {len(findings)} finding(s)"
    if advisory:
        summary += f" ({len(findings) - advisory} error, {advisory} advisory)"
    lines.append(summary)
    return "\n".join(lines)
