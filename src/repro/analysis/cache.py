"""Incremental crowdlint driver: digest-keyed per-file finding cache.

Parsing ~100 modules dominates a lint run's cost, so the CLI caches each
file's findings in ``.crowdlint_cache.json`` keyed on the sha1 of its
source plus the rule-set version (:data:`repro.analysis.rules.RULES_VERSION`
combined with the selected rule ids). A fully warm run — every digest
matches and the project fingerprint is unchanged — parses nothing and
replays the stored findings byte-for-byte.

Soundness model:

- **Per-file rules** (CM001-CM008) see one file only, so a cached result
  is valid exactly while that file's digest matches. Pragma edits change
  the source, hence the digest, hence invalidate.
- **Project rules** (CM010-CM011) see the whole program; their findings
  are stored per file but validated against a *project digest* — a
  fingerprint (via :func:`repro.backend.cache.value_fingerprint`) over
  every file's path+sha1 and the rule-set version. Any file change, add
  or delete re-runs the project pass for all files.
- The **baseline** suppression file is applied at output time by the CLI,
  never baked into the cache, so editing the baseline needs no
  invalidation.

Cache corruption (truncated writes, schema drift, hand edits) is never an
error: any unreadable cache is treated as empty and rebuilt.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.engine import (
    Finding,
    ModuleContext,
    ProjectRule,
    Rule,
    _iter_python_files,
    _syntax_error_finding,
    check_module,
)
from repro.analysis.rules import ALL_RULES, RULES_VERSION
from repro.backend.cache import value_fingerprint

#: Cache file schema tag; bump when the JSON layout changes shape.
CACHE_SCHEMA = "crowdlint-cache/1"

#: Default cache location, relative to the invocation directory.
DEFAULT_CACHE_PATH = ".crowdlint_cache.json"


@dataclass
class CacheStats:
    """What the incremental run reused, reported on stderr by the CLI."""

    files: int = 0
    hits: int = 0
    misses: int = 0
    project_reused: bool = False

    def describe(self) -> str:
        mode = "reused" if self.project_reused else "recomputed"
        return (
            f"crowdlint cache: {self.hits}/{self.files} file(s) hit, "
            f"{self.misses} miss(es), project graph {mode}"
        )


def _source_digest(source: str) -> str:
    return hashlib.sha1(source.encode("utf-8")).hexdigest()


def _effective_rules_version(rules: Sequence[Rule]) -> str:
    """Rule-set version string the cache is keyed on.

    Combines the global :data:`RULES_VERSION` with the ids actually
    selected, so ``--select CM004`` runs never poison (or reuse) the
    full-rule-set cache.
    """
    ids = ",".join(sorted(r.rule_id for r in rules))
    return f"{RULES_VERSION}:{ids}"


def _finding_to_dict(finding: Finding) -> dict:
    return asdict(finding)


def _finding_from_dict(raw: dict) -> Finding:
    return Finding(
        rule=str(raw["rule"]),
        path=str(raw["path"]),
        line=int(raw["line"]),
        col=int(raw["col"]),
        message=str(raw["message"]),
        severity=str(raw.get("severity", "error")),
        end_line=int(raw.get("end_line", 0)),
    )


def load_cache(cache_path: str, rules_version: str) -> Optional[dict]:
    """Read a cache file; None when absent, unreadable, or version-stale."""
    try:
        with open(cache_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError, ValueError):
        return None
    if not isinstance(data, dict):
        return None
    if data.get("schema") != CACHE_SCHEMA:
        return None
    if data.get("rules_version") != rules_version:
        return None
    if not isinstance(data.get("files"), dict):
        return None
    return data


def write_cache(cache_path: str, data: dict) -> None:
    """Atomically persist the cache (best effort — failures are ignored)."""
    tmp_path = f"{cache_path}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, "w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp_path, cache_path)
    except OSError:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass


def cached_lint(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
    cache_path: str = DEFAULT_CACHE_PATH,
    use_cache: bool = True,
) -> Tuple[List[Finding], CacheStats]:
    """Lint ``paths`` reusing (and refreshing) the per-file finding cache.

    Returns the same findings :func:`repro.analysis.engine.lint_paths`
    would, in the same order — cold and warm runs are byte-identical —
    plus the :class:`CacheStats` describing what was reused.
    """
    if rules is None:
        rules = list(ALL_RULES)
    rules_version = _effective_rules_version(rules)
    stats = CacheStats()

    sources: List[Tuple[str, str, str]] = []  # (path, source, sha1)
    for file_path in _iter_python_files(paths):
        source = file_path.read_text(encoding="utf-8")
        sources.append((str(file_path), source, _source_digest(source)))
    stats.files = len(sources)

    project_digest = value_fingerprint(
        rules_version, *[(path, digest) for path, _, digest in sources]
    )

    cache = load_cache(cache_path, rules_version) if use_cache else None
    cached_files: Dict[str, dict] = cache["files"] if cache else {}

    def entry_hit(path: str, digest: str) -> bool:
        entry = cached_files.get(path)
        return bool(entry) and entry.get("digest") == digest

    all_hit = bool(sources) and all(
        entry_hit(path, digest) for path, _, digest in sources
    )
    project_reused = (
        cache is not None
        and cache.get("project_digest") == project_digest
        and all_hit
    )

    findings: List[Finding] = []
    new_files: Dict[str, dict] = {}

    if project_reused:
        # Fully warm: replay stored findings without parsing anything.
        stats.hits = len(sources)
        stats.project_reused = True
        for path, _, digest in sources:
            entry = cached_files[path]
            new_files[path] = entry
            for raw in entry.get("findings", []) + entry.get("project_findings", []):
                findings.append(_finding_from_dict(raw))
    else:
        local_rules = [r for r in rules if not isinstance(r, ProjectRule)]
        project_rules = [r for r in rules if isinstance(r, ProjectRule)]
        contexts: List[Tuple[ModuleContext, str, bool]] = []
        for path, source, digest in sources:
            hit = entry_hit(path, digest)
            stats.hits += 1 if hit else 0
            stats.misses += 0 if hit else 1
            try:
                ctx = ModuleContext(path, source)
            except SyntaxError as exc:
                bad = _syntax_error_finding(path, exc)
                findings.append(bad)
                new_files[path] = {
                    "digest": digest,
                    "findings": [_finding_to_dict(bad)],
                    "project_findings": [],
                }
                continue
            contexts.append((ctx, digest, hit))

        from repro.analysis.project import ProjectContext

        project = ProjectContext.from_contexts([c for c, _, _ in contexts])
        for ctx, digest, hit in contexts:
            if hit:
                local = [
                    _finding_from_dict(raw)
                    for raw in cached_files[ctx.path].get("findings", [])
                ]
            else:
                local = check_module(ctx, local_rules, project=project)
            # check_module() reports malformed pragmas (CM000) on every
            # call; the local pass already carries them, so drop the
            # duplicates from the project pass.
            proj = [
                f
                for f in (
                    check_module(ctx, project_rules, project=project)
                    if project_rules
                    else []
                )
                if f.rule != "CM000"
            ]
            findings.extend(local)
            findings.extend(proj)
            new_files[ctx.path] = {
                "digest": digest,
                "findings": [_finding_to_dict(f) for f in local],
                "project_findings": [_finding_to_dict(f) for f in proj],
            }

    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))

    if use_cache:
        write_cache(
            cache_path,
            {
                "schema": CACHE_SCHEMA,
                "rules_version": rules_version,
                "project_digest": project_digest,
                "files": new_files,
            },
        )
    return findings, stats
