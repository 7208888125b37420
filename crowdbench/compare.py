"""Compare two sets of saved benchmark reports, metric by metric.

``python3 crowdbench/run.py compare A1.json A2.json ... -- B1.json ...``
treats ``A`` as the parent and ``B`` as the change; report ``i`` of each
side makes pair ``i``, so both sides must have run the same seeds in the
same order (their inputs digests must match pair by pair). For each
metric, with its direction and bound from ``BENCHMARK.json``:

- **improved**: the change wins at least nine pairs in ten (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
- **unresolved**: a run-to-run spread (interquartile range over median,
  on either side) wider than the bound, unless every change run beats
  every parent run;
- **regressed**: the change's median is worse than the parent's by more
  than the bound;
- **unchanged**: otherwise. Per-layer metrics have no bound and are
  only ever improved, worse (the parent wins nine in ten by more than
  its spread) or unchanged.

The exit code is 1 when any metric regressed, 2 when the reports cannot
be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    better: str,
    bound: Optional[float],
) -> str:
    """The guide's decision for one metric over paired runs."""
    sign = 1.0 if better == "higher" else -1.0
    p1, pm, p3 = quartiles(parent)
    c1, cm, c3 = quartiles(change)
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    losses = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
    gap = abs(cm - pm)
    dominates = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= 0.9 * len(parent) and gap > p3 - p1 and sign * (cm - pm) > 0:
        return "improved"
    if bound is None:
        if losses >= 0.9 * len(parent) and gap > p3 - p1:
            return "worse"
        return "unchanged"
    spread = max((p3 - p1) / abs(pm) if pm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not dominates:
        return "unresolved"
    worse_by = -sign * (cm - pm) / abs(pm) if pm else 0.0
    if worse_by > bound:
        return "regressed"
    return "unchanged"


def _load(paths: Sequence[str]) -> List[dict]:
    reports = []
    for path in paths:
        with open(path) as fh:
            reports.append(json.load(fh))
    return reports


def compare(parent: List[dict], change: List[dict], spec: dict) -> Tuple[List[str], bool]:
    """Table lines and whether any metric regressed."""
    defs: Dict[str, dict] = {d["name"]: d for d in spec["end_to_end"]}
    defs.update({d["name"]: d for d in spec["per_layer"]})
    names = list(parent[0]["result"]["metrics"])
    lines = [f"{'metric':40s} {'parent median [q1, q3]':>30s} "
             f"{'change median [q1, q3]':>30s} {'wins':>6s}  verdict"]
    regressed = False
    for name in names:
        d = defs[name]
        a = [r["result"]["metrics"][name]["value"] for r in parent]
        b = [r["result"]["metrics"][name]["value"] for r in change]
        if None in a or None in b:
            lines.append(f"{name:40s} missing values (failed runs)")
            continue
        decided = verdict(a, b, d["better"], d.get("bound"))
        regressed |= decided == "regressed"
        sign = 1.0 if d["better"] == "higher" else -1.0
        wins = sum(sign * (y - x) > 0 for x, y in zip(a, b))
        pa, pb = quartiles(a), quartiles(b)
        lines.append(
            f"{name:40s} {pa[1]:12.5g} [{pa[0]:.4g}, {pa[2]:.4g}]".ljust(72)
            + f" {pb[1]:12.5g} [{pb[0]:.4g}, {pb[2]:.4g}]".ljust(31)
            + f" {wins:>2d}/{len(a):<3d}  {decided}"
        )
    return lines, regressed


def main(argv: Sequence[str], spec: dict) -> int:
    if "--" not in argv:
        print("usage: run.py compare PARENT.json... -- CHANGE.json...",
              file=sys.stderr)
        return 2
    split = list(argv).index("--")
    parent, change = _load(argv[:split]), _load(argv[split + 1:])
    if not parent or len(parent) != len(change):
        print("need the same number (at least one) of reports on each side",
              file=sys.stderr)
        return 2
    for i, (a, b) in enumerate(zip(parent, change)):
        for key in ("workload", "trace", "inputs_digest"):
            if a[key] != b[key]:
                print(f"pair {i}: {key} differs ({a[key]} vs {b[key]}); "
                      "refusing to compare", file=sys.stderr)
                return 2
    lines, regressed = compare(parent, change, spec)
    print(f"{parent[0]['workload']}: {len(parent)} pairs")
    print("\n".join(lines))
    return 1 if regressed else 0
