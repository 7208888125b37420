"""Fault parity: a shard treats a corrupt upload exactly as a batch build.

Two faulted crowds must give the same map, failures and quarantine
counters through ``MapShard`` as through ``CrowdMapPipeline.run_sessions``:
one SWS upload whose first frame is NaN, and the chaos suite's mixed crowd
(one SWS and one SRS session NaN-poisoned by the seeded
``FaultInjector``), which also exercises panorama-group quarantine.
"""

import dataclasses

import numpy as np
import pytest

from repro.backend.telemetry import TelemetryRegistry
from repro.core.config import CrowdMapConfig
from repro.core.keyframes import KeyframeSelectionError
from repro.core.pipeline import CrowdMapPipeline
from repro.dataflow.identity import diff_reconstruction
from repro.serving.shards import MapShard, ShardKey

from tests.fault_injection import FaultInjector

KEY = ShardKey("Lab1", 1)
CONFIG = CrowdMapConfig().with_overrides(layout_samples=400)

#: The error a NaN-poisoned session is quarantined with, by task.
QUARANTINE_ERROR = {"SWS": "KeyframeSelectionError",
                    "SRS": "PanoramaCoverageError"}


@pytest.fixture(scope="module")
def corrupt_crowd(small_dataset):
    """The clean crowd plus one SWS upload whose first frame is NaN."""
    donor = small_dataset.sws_sessions()[0]
    first = donor.frames[0]
    poisoned = dataclasses.replace(
        first, pixels=np.full(first.pixels.shape, np.nan)
    )
    corrupt = dataclasses.replace(
        donor,
        session_id=f"{donor.session_id}-nan",
        frames=[poisoned] + list(donor.frames[1:]),
    )
    clean = [s for s in small_dataset.sessions if s.task in ("SWS", "SRS")]
    return clean + [corrupt]


@pytest.fixture(scope="module")
def mixed_fault_crowd(small_dataset):
    """The chaos suite's ``SEED_MIXED`` crowd: 20% of sessions poisoned."""
    injector = FaultInjector(seed=0, fault_rate=0.2, kinds=("corrupt_frames",))
    faulted = {
        d.item_id
        for d in injector.plan([s.session_id for s in small_dataset.sessions])
    }
    # The seed faults one SWS and one SRS session.
    assert sorted(s.task for s in small_dataset.sessions
                  if s.session_id in faulted) == ["SRS", "SWS"]
    return [
        injector.corrupt_session_frames(s) if s.session_id in faulted else s
        for s in small_dataset.sessions
    ]


def _expected_failures(sessions):
    """``{session_id: error type}`` for every session with a NaN frame."""
    return {
        s.session_id: QUARANTINE_ERROR[s.task]
        for s in sessions
        if any(not np.isfinite(f.pixels).all() for f in s.frames)
    }


def _ingested(sessions, config):
    shard = MapShard(KEY, config=config, telemetry=TelemetryRegistry())
    for session in sessions:
        shard.ingest(session)
    return shard


@pytest.mark.parametrize("crowd", ["corrupt_crowd", "mixed_fault_crowd"])
def test_shard_quarantines_like_batch(crowd, request):
    sessions = request.getfixturevalue(crowd)
    expected = _expected_failures(sessions)
    shard = _ingested(sessions, CONFIG)
    served = shard.refresh(now=1.0).result
    batch_registry = TelemetryRegistry()
    batch = CrowdMapPipeline(CONFIG, batch_registry).run_sessions(sessions)
    assert diff_reconstruction(served, batch) == []
    assert served.failures == batch.failures
    assert {f.item_id: f.error_type for f in batch.failures} == expected
    errors = list(expected.values())
    for counter, error in (
        ("sessions_quarantined", "KeyframeSelectionError"),
        ("panorama_groups_quarantined", "PanoramaCoverageError"),
    ):
        assert shard.telemetry.value(counter) == errors.count(error)
        assert batch_registry.value(counter) == errors.count(error)


def test_raise_mode_fails_refresh_not_ingest(corrupt_crowd):
    shard = _ingested(
        corrupt_crowd, CONFIG.with_overrides(pipeline_on_error="raise")
    )
    assert shard.sessions_ingested == len(corrupt_crowd)
    with pytest.raises(KeyframeSelectionError):
        shard.refresh(now=1.0)
    assert shard.dirty
    assert all(store.current() is None for store in shard.replicas)
