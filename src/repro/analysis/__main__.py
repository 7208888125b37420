"""CLI entry point: ``python -m repro.analysis [paths...]``.

Exits 0 when the tree is clean (after inline pragmas and the baseline
file), 1 when *error*-severity findings remain, 2 on usage errors — the
contract the ``static-analysis`` CI job relies on. Advisory findings are
printed but never change the exit code.

Incremental runs are the default: per-file findings are cached in
``.crowdlint_cache.json`` keyed on source sha1 + rule-set version, and a
fully warm run replays findings without parsing anything. Cache-hit
statistics go to **stderr**, so stdout (text, ``--format json`` or
``--format sarif``) is byte-identical between cold and warm runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

from repro.analysis.baseline import (
    BaselineError,
    apply_baseline,
    find_baseline,
    load_baseline,
    write_baseline,
)
from repro.analysis.cache import DEFAULT_CACHE_PATH, cached_lint
from repro.analysis.catalog import update_readme
from repro.analysis.engine import format_findings, lint_paths
from repro.analysis.rules import ALL_RULES
from repro.analysis.sarif import format_sarif


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "crowdlint: repo-native static analysis "
            "(per-file rules CM001-CM008, project rules CM010-CM011)"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--select", metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("text", "json", "sarif"), default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--json", action="store_true", dest="as_json",
        help="alias for --format json (kept for compatibility)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule table and exit",
    )
    parser.add_argument(
        "--cache", metavar="PATH", default=DEFAULT_CACHE_PATH,
        help=f"incremental cache file (default: {DEFAULT_CACHE_PATH})",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="ignore and do not write the incremental cache",
    )
    parser.add_argument(
        "--baseline", metavar="PATH",
        help=(
            "baseline suppression file (default: nearest "
            ".crowdlint-baseline.json at or above the current directory)"
        ),
    )
    parser.add_argument(
        "--no-baseline", action="store_true",
        help="report baselined findings too",
    )
    parser.add_argument(
        "--write-baseline", metavar="PATH",
        help=(
            "write current findings to PATH as baseline entries "
            "(with TODO reasons to fill in) and exit"
        ),
    )
    parser.add_argument(
        "--update-rule-docs", nargs="?", const="README.md", metavar="README",
        help="regenerate the README rule table from ALL_RULES and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}  {rule.title}")
        return 0

    if args.update_rule_docs:
        try:
            changed = update_readme(args.update_rule_docs)
        except (OSError, ValueError) as exc:
            print(str(exc), file=sys.stderr)
            return 2
        state = "updated" if changed else "already up to date"
        print(f"{args.update_rule_docs}: rule table {state}", file=sys.stderr)
        return 0

    rules = list(ALL_RULES)
    if args.select:
        wanted = {r.strip().upper() for r in args.select.split(",") if r.strip()}
        unknown = wanted - {r.rule_id for r in ALL_RULES}
        if unknown:
            print(f"unknown rule id(s): {', '.join(sorted(unknown))}", file=sys.stderr)
            return 2
        rules = [r for r in ALL_RULES if r.rule_id in wanted]

    try:
        if args.no_cache:
            findings = lint_paths(args.paths, rules=rules)
            stats = None
        else:
            findings, stats = cached_lint(
                args.paths, rules=rules, cache_path=args.cache
            )
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return 2

    if args.write_baseline:
        count = write_baseline(args.write_baseline, findings)
        print(
            f"{args.write_baseline}: wrote {count} entrie(s) covering "
            f"{len(findings)} finding(s); fill in every TODO reason",
            file=sys.stderr,
        )
        return 0

    suppressed = 0
    if not args.no_baseline:
        baseline_path = args.baseline or find_baseline()
        if baseline_path:
            try:
                entries = load_baseline(baseline_path)
            except BaselineError as exc:
                print(str(exc), file=sys.stderr)
                return 2
            findings, suppressed, unused = apply_baseline(findings, entries)
            if unused:
                stale = ", ".join(
                    f"{e.rule} {e.path}" for e in unused[:3]
                ) + (", ..." if len(unused) > 3 else "")
                print(
                    f"crowdlint baseline: {len(unused)} entrie(s) matched "
                    f"nothing ({stale}) — delete stale entries",
                    file=sys.stderr,
                )

    if args.as_json or args.format == "json":
        payload: List[dict] = [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
                "severity": f.severity,
                "end_line": f.span_end,
            }
            for f in findings
        ]
        print(json.dumps(payload, indent=2))
    elif args.format == "sarif":
        print(format_sarif(findings, rules))
    else:
        print(format_findings(findings))

    if stats is not None:
        print(stats.describe(), file=sys.stderr)
    if suppressed:
        print(
            f"crowdlint baseline: {suppressed} finding(s) suppressed",
            file=sys.stderr,
        )
    return 1 if any(f.severity == "error" for f in findings) else 0


if __name__ == "__main__":
    sys.exit(main())
