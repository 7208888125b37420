"""CLI for the accuracy scorecard and its CI gate.

Usage:

    python -m repro.eval                               # quick grid to stdout
    python -m repro.eval --profile full                # adds night + sweep cells
    python -m repro.eval --output accuracy.json        # write the JSON report
    python -m repro.eval --report-dir report/          # table + text CDF plots
    python -m repro.eval --check ACCURACY_baseline.json
    python -m repro.eval --update-baseline ACCURACY_baseline.json
    python -m repro.eval --cells Lab1/day/u03 --override min_visits=3

``--check`` exits 1 when any scenario cell's quality drifts past its
per-metric tolerance band versus the baseline file — the CI quality gate,
the exact counterpart of ``python -m repro.bench --check``. Baseline
files share one read/modify/write helper with the perf harness
(:mod:`repro.bench.baseline`), so ``--update-baseline`` preserves any
frozen ``pre_pr*`` records the same way.

Unlike the perf gate, no calibration is needed: quality metrics carry no
machine speed in them, so the committed numbers reproduce bit-identically
on any host (two consecutive runs must produce byte-equal reports — CI
and tests enforce this).
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import Optional

from repro.bench.baseline import (
    load_json_report,
    update_baseline_file,
    write_json_report,
)
from repro.core.config import CrowdMapConfig
from repro.eval.scorecard import (
    ACCURACY_SCHEMA_VERSION,
    compare_to_accuracy_baseline,
    render_accuracy_cdfs,
    render_crowd_sweep,
    render_scorecard_table,
    run_scorecard,
)
from repro.world.scenarios import find_scenarios, scenarios_for_profile


def parse_overrides(pairs) -> dict:
    """``field=value`` strings -> keyword dict for ``with_overrides``.

    Values parse as Python literals when possible (``min_visits=3``,
    ``keyframe_prescreen_threshold=0.11``) and fall back to plain strings
    (``worker_backend=thread``).
    """
    overrides = {}
    for pair in pairs or ():
        field, sep, raw = pair.partition("=")
        if not sep or not field:
            raise ValueError(f"override {pair!r} is not of the form field=value")
        try:
            value = ast.literal_eval(raw)
        except (SyntaxError, ValueError):
            value = raw
        overrides[field] = value
    return overrides


def build_config(override_pairs) -> Optional[CrowdMapConfig]:
    overrides = parse_overrides(override_pairs)
    if not overrides:
        return None
    return CrowdMapConfig().with_overrides(**overrides)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.eval",
        description="CrowdMap reconstruction-accuracy scorecard",
    )
    parser.add_argument(
        "--profile", choices=("quick", "full"), default="quick",
        help="quick: the committed-baseline grid; "
             "full: adds the remaining night cells and the crowd-size sweep",
    )
    parser.add_argument(
        "--cells", action="append", default=None, metavar="KEY",
        help="score only the named scenario cell (repeatable); "
             "--check then compares only the scored cells",
    )
    parser.add_argument(
        "--list-cells", action="store_true",
        help="print the profile's cell keys and exit",
    )
    parser.add_argument(
        "--override", action="append", default=None, metavar="FIELD=VALUE",
        help="CrowdMapConfig override for the pipeline under test "
             "(repeatable; used by degradation tests and ablations)",
    )
    parser.add_argument(
        "--output", metavar="PATH", help="write the JSON scorecard here"
    )
    parser.add_argument(
        "--report-dir", metavar="DIR",
        help="write the scorecard table, crowd sweep and CDF text plots here",
    )
    parser.add_argument(
        "--check", metavar="BASELINE",
        help="compare against a baseline JSON and exit 1 on quality drift",
    )
    parser.add_argument(
        "--tolerance-scale", type=float, default=1.0,
        help="multiplier on every per-metric tolerance band (default 1.0)",
    )
    parser.add_argument(
        "--update-baseline", metavar="BASELINE",
        help="rewrite the baseline from this run (keeps its pre_pr* records)",
    )
    args = parser.parse_args(argv)

    specs = scenarios_for_profile(args.profile)
    if args.list_cells:
        for spec in specs:
            print(spec.key)
        return 0
    try:
        specs = find_scenarios(specs, args.cells)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    try:
        config = build_config(args.override)
    except (TypeError, ValueError) as exc:
        print(f"bad --override: {exc}", file=sys.stderr)
        return 2

    report = run_scorecard(specs, config, log=print)
    print()
    print(render_scorecard_table(report))

    if args.output:
        write_json_report(report, args.output)
        print(f"\nreport written to {args.output}")

    if args.report_dir:
        os.makedirs(args.report_dir, exist_ok=True)
        artifacts = {"scorecard.txt": render_scorecard_table(report) + "\n"}
        artifacts["crowd_sweep.txt"] = render_crowd_sweep(report) + "\n"
        for metric, plot in render_accuracy_cdfs(report).items():
            artifacts[f"cdf_{metric}.txt"] = plot + "\n"
        for name, text in sorted(artifacts.items()):
            with open(os.path.join(args.report_dir, name), "w") as fh:
                fh.write(text)
        print(f"report artifacts written to {args.report_dir}/")

    if args.update_baseline:
        update_baseline_file(
            args.update_baseline, report, ACCURACY_SCHEMA_VERSION
        )
        print(f"baseline updated: {args.update_baseline}")

    if args.check:
        baseline = load_json_report(args.check, ACCURACY_SCHEMA_VERSION)
        problems = compare_to_accuracy_baseline(
            report,
            baseline,
            tolerance_scale=args.tolerance_scale,
            # A --cells subset deliberately scores fewer cells than the
            # baseline holds; only a full run enforces completeness.
            require_all_cells=args.cells is None,
        )
        if problems:
            print(f"\nFAIL: {len(problems)} quality drift(s) vs {args.check}:")
            for problem in problems:
                print(f"  - {problem}")
            return 1
        print(f"\nOK: within tolerance bands of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
