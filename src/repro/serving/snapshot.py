"""Versioned, immutable map snapshots (the serving layer's unit of truth).

The build side (batch-planner rebuilds + the scheduler's refresh job)
and the read side (the request router) meet exactly here, and the
contract is copy-on-publish: a refresh produces a *new*
:class:`MapSnapshot`, the store swaps one reference, and every reader
that already grabbed the previous snapshot keeps using it untouched.
There is no in-place mutation of anything a reader can see, so a reader
can never observe half a floor plan ("torn read") no matter how the
publish interleaves with its queries.

Snapshots also own the derived serving indexes (the visual-localization
database and the skeleton navigator), built lazily on first use and then
shared by every query against that version — rebuilding a localizer per
request would dwarf the query itself.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from repro.core.config import CrowdMapConfig
from repro.core.localization import VisualLocalizer
from repro.core.navigation import SkeletonNavigator
from repro.core.pipeline import ReconstructionResult


class MapSnapshot:
    """One immutable published version of a shard's reconstruction.

    ``result`` may be ``None`` for *stub* snapshots, which exist so the
    routing simulator and its benchmarks can exercise admission control
    and hedging without paying for a real reconstruction; the query
    handlers refuse to answer content queries against a stub.
    """

    def __init__(
        self,
        version: int,
        shard_key: Tuple[str, int],
        result: Optional[ReconstructionResult],
        published_at: float,
        config: Optional[CrowdMapConfig] = None,
    ):
        self.version = version
        self.shard_key = shard_key
        self.result = result
        self.published_at = published_at
        self.config = config or CrowdMapConfig()
        self._localizer: Optional[VisualLocalizer] = None
        self._navigator: Optional[SkeletonNavigator] = None
        self._index_lock = threading.Lock()

    @property
    def is_stub(self) -> bool:
        return self.result is None

    def localizer(self) -> VisualLocalizer:
        """The snapshot's visual-localization index (built once, shared)."""
        if self.result is None:
            raise ValueError("stub snapshot has no key-frame corpus")
        with self._index_lock:
            if self._localizer is None:
                self._localizer = VisualLocalizer(self.result, self.config)
            return self._localizer

    def navigator(self) -> SkeletonNavigator:
        """The snapshot's A* planner (built once, shared)."""
        if self.result is None:
            raise ValueError("stub snapshot has no skeleton")
        with self._index_lock:
            if self._navigator is None:
                self._navigator = SkeletonNavigator(self.result.skeleton)
            return self._navigator

    def summary(self) -> Dict[str, object]:
        """A small JSON-ready description (what ``get_floorplan`` returns)."""
        base: Dict[str, object] = {
            "version": self.version,
            "building": self.shard_key[0],
            "floor": self.shard_key[1],
            "published_at": round(self.published_at, 6),
            "stub": self.is_stub,
        }
        if self.result is not None:
            base["rooms"] = sorted(
                r.name for r in self.result.floorplan.rooms if r.name
            )
            base["skeleton_cells"] = int(self.result.skeleton.skeleton.sum())
        return base


class VersionedSnapshotStore:
    """Copy-on-publish snapshot store for one shard replica.

    ``publish`` builds a fresh :class:`MapSnapshot` with the next version
    number; ``install`` accepts a snapshot built elsewhere (the shard
    builds each version once and installs it into every replica store,
    so replicas share the derived indexes instead of rebuilding them).
    The last ``retain`` versions stay addressable for readers pinned to
    an older version mid-flight.
    """

    def __init__(self, shard_key: Tuple[str, int], retain: int = 3):
        if retain < 1:
            raise ValueError("retain must be >= 1")
        self.shard_key = shard_key
        self.retain = retain
        self._current: Optional[MapSnapshot] = None
        self._versions: Deque[MapSnapshot] = deque(maxlen=retain)
        self._next_version = 1
        self._lock = threading.Lock()

    def current(self) -> Optional[MapSnapshot]:
        """The latest published snapshot (None before the first publish)."""
        return self._current

    def publish(
        self,
        result: Optional[ReconstructionResult],
        now: float,
        config: Optional[CrowdMapConfig] = None,
    ) -> MapSnapshot:
        """Build and install the next version; returns the new snapshot."""
        with self._lock:
            snapshot = MapSnapshot(
                version=self._next_version,
                shard_key=self.shard_key,
                result=result,
                published_at=now,
                config=config,
            )
            self._install_locked(snapshot)
            return snapshot

    def install(self, snapshot: MapSnapshot) -> None:
        """Install an externally built snapshot (replicated publish path).

        Versions must arrive monotonically increasing — a replica never
        moves backwards.
        """
        with self._lock:
            if self._current is not None and snapshot.version <= self._current.version:
                raise ValueError(
                    f"version {snapshot.version} is not newer than "
                    f"published version {self._current.version}"
                )
            self._install_locked(snapshot)

    def _install_locked(self, snapshot: MapSnapshot) -> None:
        self._versions.append(snapshot)
        # Single reference swap: readers see either the old snapshot or
        # the new one in full, never a mixture.
        self._current = snapshot
        self._next_version = snapshot.version + 1

    def get(self, version: int) -> Optional[MapSnapshot]:
        """A retained snapshot by version number (None once evicted)."""
        with self._lock:
            for snapshot in self._versions:
                if snapshot.version == version:
                    return snapshot
        return None

    def history(self) -> List[Tuple[int, float]]:
        """Retained ``(version, published_at)`` pairs, oldest first."""
        with self._lock:
            return [(s.version, s.published_at) for s in self._versions]
