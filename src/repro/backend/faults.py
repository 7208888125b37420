"""Deterministic link faults for the fleet gossip mesh.

Fleet nodes gossip over unreliable links. This module produces those
failures *on purpose* — seeded, so every fleet run replays the exact
same faults — which is how the fleet's convergence guarantees stay
honest: :class:`LinkFaultModel` / :class:`Partition` give per-message
latency, probabilistic loss and scheduled partitions, each decision a
pure function of ``(seed, edge, tick)`` so replays are exact regardless
of the order in which links are evaluated.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class Partition:
    """A scheduled network partition over a window of virtual time.

    ``groups`` lists the connected components: nodes in different groups
    cannot exchange messages while ``start <= t < end``. Nodes absent
    from every group form one implicit extra component (they can still
    talk to each other, but to nobody listed).
    """

    start: float
    end: float
    groups: Sequence[Sequence[str]]

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise ValueError("partition end must be >= start")
        object.__setattr__(
            self, "groups", tuple(tuple(g) for g in self.groups)
        )

    def _group_of(self, node: str) -> int:
        for idx, group in enumerate(self.groups):
            if node in group:
                return idx
        return len(self.groups)  # the implicit leftover component

    def blocks(self, a: str, b: str, now: float) -> bool:
        """True when the link ``a -> b`` is severed at virtual time ``now``."""
        if not self.start <= now < self.end:
            return False
        return self._group_of(a) != self._group_of(b)


class LinkFaultModel:
    """Seeded latency/loss/partition model for simulated network links.

    Every decision — deliver or drop, and with what delay — is a pure
    function of ``(seed, sender, receiver, tick)``: the model derives a
    fresh generator per event from a CRC of that tuple, so outcomes do
    not depend on the order in which links are evaluated within a round.
    That is what lets a gossip mesh replay byte-identically while still
    shuffling peers.
    """

    def __init__(
        self,
        seed: int = 0,
        base_latency: float = 0.05,
        latency_jitter: float = 0.02,
        loss_rate: float = 0.0,
        partitions: Sequence[Partition] = (),
    ):
        if base_latency < 0 or latency_jitter < 0:
            raise ValueError("latencies must be non-negative")
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError("loss_rate must be in [0, 1]")
        self.seed = seed
        self.base_latency = base_latency
        self.latency_jitter = latency_jitter
        self.loss_rate = loss_rate
        self.partitions = tuple(partitions)

    def _rng(self, kind: str, sender: str, receiver: str, tick: int):
        token = f"{self.seed}:{kind}:{sender}->{receiver}:{tick}"
        return np.random.default_rng(zlib.crc32(token.encode("utf-8")))

    def partitioned(self, sender: str, receiver: str, now: float) -> bool:
        """True when any scheduled partition severs ``sender -> receiver``."""
        return any(p.blocks(sender, receiver, now) for p in self.partitions)

    def delivers(self, sender: str, receiver: str, tick: int, now: float) -> bool:
        """Decide whether the message sent on ``tick`` survives the link."""
        if self.partitioned(sender, receiver, now):
            return False
        if self.loss_rate <= 0.0:
            return True
        draw = float(self._rng("loss", sender, receiver, tick).random())
        return draw >= self.loss_rate

    def latency(self, sender: str, receiver: str, tick: int) -> float:
        """One-way delay for the message sent on ``tick``, in virtual seconds."""
        if self.latency_jitter <= 0.0:
            return self.base_latency
        jitter = float(self._rng("latency", sender, receiver, tick).random())
        return self.base_latency + jitter * self.latency_jitter
