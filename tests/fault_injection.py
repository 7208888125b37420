"""Seeded session fault injection for the chaos and fault-parity tests.

Crowdsourced sessions come from unreliable phones: decoders emit corrupt
frames, and IMU streams are truncated when an app is killed mid-capture.
:class:`FaultInjector` produces those failures *on purpose* — seeded, so
every test replays the exact same faults — which is how the pipeline's
quarantine guarantees stay honest. No library code injects faults into
sessions; the fleet's link faults live in :mod:`repro.backend.faults`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

import numpy as np

#: Every fault kind the planner can assign, in assignment order.
FAULT_KINDS = (
    "corrupt_frames",   # NaN-poisoned pixels (decoder bit-rot)
    "truncate_imu",     # IMU stream cut short (app killed mid-capture)
)


@dataclass(frozen=True)
class FaultDecision:
    """One planned fault: which item, what happens to it."""

    item_id: str
    kind: str


class FaultInjector:
    """Seeded source of fault plans and concrete corruptions.

    The same ``(seed, fault_rate, kinds)`` triple always yields the same
    plan for the same item list, so a chaos test can assert exact
    telemetry counts against the number of injected faults.
    """

    def __init__(
        self,
        seed: int = 0,
        fault_rate: float = 0.2,
        kinds: Sequence[str] = FAULT_KINDS,
    ):
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError("fault_rate must be in [0, 1]")
        unknown = set(kinds) - set(FAULT_KINDS)
        if unknown:
            raise ValueError(f"unknown fault kinds: {sorted(unknown)}")
        if not kinds:
            raise ValueError("need at least one fault kind")
        self.seed = seed
        self.fault_rate = fault_rate
        self.kinds = tuple(kinds)
        self._rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------
    # planning
    # ------------------------------------------------------------------

    def plan(self, item_ids: Sequence[str]) -> List[FaultDecision]:
        """Pick ``round(rate * n)`` items and assign each a fault kind.

        Deterministic in the injector's seed; the decisions come back in
        the order the items were supplied.
        """
        ids = list(item_ids)
        n_faults = int(round(self.fault_rate * len(ids)))
        if n_faults == 0:
            return []
        rng = np.random.default_rng(self.seed)
        chosen = sorted(rng.choice(len(ids), size=n_faults, replace=False))
        return [
            FaultDecision(item_id=ids[idx], kind=self.kinds[k % len(self.kinds)])
            for k, idx in enumerate(chosen)
        ]

    # ------------------------------------------------------------------
    # concrete corruptions
    # ------------------------------------------------------------------

    def corrupt_session_frames(self, session, fraction: float = 0.5):
        """A copy of ``session`` with NaN-poisoned pixels in some frames.

        Works on any session-like dataclass exposing ``frames``, such as
        :class:`~repro.world.walker.CaptureSession`; the input is never
        mutated.
        """
        frames = list(session.frames)
        if frames:
            n_bad = max(1, int(round(fraction * len(frames))))
            bad = self._rng.choice(len(frames), size=n_bad, replace=False)
            for idx in bad:
                frame = frames[idx]
                pixels = np.array(frame.pixels, copy=True)
                pixels[..., :] = np.nan
                frames[idx] = replace(frame, pixels=pixels)
        return replace(session, frames=frames)

    def truncate_session_imu(self, session, keep_fraction: float = 0.3):
        """A copy of ``session`` whose IMU trace stops early."""
        imu = session.imu
        kept = imu.samples[: int(len(imu.samples) * keep_fraction)]
        return replace(session, imu=replace(imu, samples=kept))
