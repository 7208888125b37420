"""Per-region version vectors — causality tracking for fleet gossip.

Each node keeps one :class:`VersionVector` per map region. A node bumps
its own component when it ingests a *new* session into that region;
summaries carry the sender's full region state together with its vector,
and receivers merge both (set union of records, pointwise max of
vectors).

The invariant that makes vectors useful here: **component** ``X: n``
**implies possession of everything node X held in that region at its
n-th local bump**. Local ingests only bump after the record is stored,
states grow monotonically, and summaries always carry the *whole* region
(never a delta), so the invariant survives both bump and merge. Two
consequences the gossip layer leans on:

- a summary whose vector is dominated by the receiver's is provably
  stale — it can be dropped without reading its records (the
  late/out-of-order fast path);
- a node can decide it has nothing new for a peer by comparing vectors,
  which is what drives gossip traffic to zero after convergence.
"""

from __future__ import annotations

from typing import Dict, Iterator, Mapping, Optional

from repro.fleet.evidence import canonical_json


class VersionVector:
    """An immutable mapping ``node_id -> update counter``.

    All operations return vectors that are new or, when nothing changes,
    the operand itself (safe, since vectors never mutate); instances
    hash/compare by value so they can key dicts and appear in sets.
    """

    __slots__ = ("_counters", "_payload_bytes")

    def __init__(self, counters: Optional[Mapping[str, int]] = None):
        items = {}
        for node, count in (counters or {}).items():
            count = int(count)
            if count < 0:
                raise ValueError("version counters must be non-negative")
            if count > 0:
                items[node] = count
        self._counters: Dict[str, int] = dict(sorted(items.items()))
        #: Canonical-JSON size of ``to_payload()``, set on first use.
        self._payload_bytes: Optional[int] = None

    def get(self, node: str) -> int:
        """This node's counter (0 when the node never updated the region)."""
        return self._counters.get(node, 0)

    def bump(self, node: str) -> "VersionVector":
        """A new vector with ``node``'s component incremented by one."""
        merged = dict(self._counters)
        merged[node] = merged.get(node, 0) + 1
        return VersionVector(merged)

    def merge(self, other: "VersionVector") -> "VersionVector":
        """Pointwise max — the least upper bound of the two histories.

        Returns an operand itself when it already dominates the other.
        """
        if self.dominates(other):
            return self
        if other.dominates(self):
            return other
        merged = dict(self._counters)
        for node, count in other._counters.items():
            if count > merged.get(node, 0):
                merged[node] = count
        return VersionVector(merged)

    def dominates(self, other: "VersionVector") -> bool:
        """True when every component of ``other`` is <= ours.

        ``a.dominates(b)`` means a state carrying ``a`` already contains
        everything a full-region summary carrying ``b`` could add.
        """
        mine = self._counters
        for node, count in other._counters.items():
            if mine.get(node, 0) < count:
                return False
        return True

    def items(self) -> Iterator:
        """Sorted ``(node, counter)`` pairs (zero components omitted)."""
        return iter(self._counters.items())

    def to_payload(self) -> Dict[str, int]:
        """Wire form: a plain sorted dict."""
        return dict(self._counters)

    def payload_bytes(self) -> int:
        """Canonical-JSON size of :meth:`to_payload`, encoded only once."""
        if self._payload_bytes is None:
            self._payload_bytes = len(
                canonical_json(self._counters).encode("utf-8")
            )
        return self._payload_bytes

    @staticmethod
    def from_payload(payload: Mapping[str, int]) -> "VersionVector":
        """Rebuild from wire form."""
        return VersionVector(payload)

    def __eq__(self, other) -> bool:
        if not isinstance(other, VersionVector):
            return NotImplemented
        return self._counters == other._counters

    def __hash__(self) -> int:
        return hash(tuple(self._counters.items()))

    def __bool__(self) -> bool:
        return bool(self._counters)

    def __repr__(self) -> str:
        inner = ",".join(f"{n}:{c}" for n, c in self._counters.items())
        return f"VersionVector({inner})"


#: The vector of a region nobody has updated; shared, since vectors
#: never mutate.
EMPTY_VERSION = VersionVector()
