"""Byte-identity diffing between two reconstruction results.

The planner's contract is *scheduling-only* change: every artifact must
agree with the legacy cascade bit for bit. This module turns that
contract into a checkable diff — ``diff_reconstruction`` returns one
human-readable line per mismatching artifact, and an empty list when the
two results are byte-identical. The planner bit-identity tests
(``tests/dataflow/test_planner.py``, a CI step of their own) gate on it.

Results are compared duck-typed (the ``ReconstructionResult`` surface
from :mod:`repro.core.pipeline`), so the diff never imports above the
dataflow layer.
"""

from __future__ import annotations

from typing import List

import numpy as np


def _diff_arrays(label: str, a, b, out: List[str]) -> None:
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        out.append(f"{label}: shape {a.shape} != {b.shape}")
    elif not np.array_equal(a, b):
        n = int(np.sum(a != b))
        out.append(f"{label}: {n}/{a.size} elements differ")


def diff_reconstruction(a, b) -> List[str]:
    """Every artifact-level byte difference between two results.

    Empty list means byte-identical. Each entry names the artifact and
    summarises how it differs — enough to localise a regression without
    dumping arrays.
    """
    out: List[str] = []

    _diff_arrays("skeleton.probability", a.skeleton.probability,
                 b.skeleton.probability, out)
    _diff_arrays("skeleton.binarized", a.skeleton.binarized,
                 b.skeleton.binarized, out)
    _diff_arrays("skeleton.skeleton", a.skeleton.skeleton,
                 b.skeleton.skeleton, out)

    ta, tb = a.aggregation.trajectories, b.aggregation.trajectories
    if len(ta) != len(tb):
        out.append(f"trajectories: count {len(ta)} != {len(tb)}")
    else:
        for i, (x, y) in enumerate(zip(ta, tb)):
            _diff_arrays(f"trajectory[{i}].points", x.as_array(),
                         y.as_array(), out)
            _diff_arrays(f"trajectory[{i}].times", x.times(), y.times(), out)

    if len(a.panoramas) != len(b.panoramas):
        out.append(
            f"panoramas: count {len(a.panoramas)} != {len(b.panoramas)}"
        )
    else:
        for i, (pa, pb) in enumerate(zip(a.panoramas, b.panoramas)):
            if pa.room_hint != pb.room_hint:
                out.append(
                    f"panorama[{i}].room_hint: "
                    f"{pa.room_hint!r} != {pb.room_hint!r}"
                )
            _diff_arrays(f"panorama[{i}].pixels", pa.panorama.pixels,
                         pb.panorama.pixels, out)

    ra, rb = a.floorplan.rooms, b.floorplan.rooms
    if len(ra) != len(rb):
        out.append(f"floorplan.rooms: count {len(ra)} != {len(rb)}")
    else:
        for i, (x, y) in enumerate(zip(ra, rb)):
            same = (
                x.name == y.name
                and (x.center.x, x.center.y) == (y.center.x, y.center.y)
                and (x.layout.width, x.layout.depth, x.layout.orientation)
                == (y.layout.width, y.layout.depth, y.layout.orientation)
            )
            if not same:
                out.append(f"floorplan.rooms[{i}] ({x.name}): placement "
                           "or layout differs")
    if a.floorplan.render_ascii() != b.floorplan.render_ascii():
        out.append("floorplan.render_ascii: rendered plans differ")

    fa = [(f.stage, f.item_id) for f in a.failures]
    fb = [(f.stage, f.item_id) for f in b.failures]
    if fa != fb:
        out.append(f"failures: {fa} != {fb}")

    return out
