"""Fault parity: a shard treats a corrupt upload exactly as a batch build.

One SWS upload whose first frame is NaN must give the same map, failures
and quarantine counter through ``MapShard`` as through
``CrowdMapPipeline.run_sessions``.
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

KEY = ShardKey("Lab1", 1)
CONFIG = CrowdMapConfig().with_overrides(layout_samples=400)


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


def _ingested(sessions, config):
    shard = MapShard(KEY, config=config, telemetry=TelemetryRegistry())
    for session in sessions:
        shard.ingest(session)
    return shard


def test_shard_quarantines_like_batch(corrupt_crowd):
    shard = _ingested(corrupt_crowd, CONFIG)
    served = shard.refresh(now=1.0).result
    batch_registry = TelemetryRegistry()
    batch = CrowdMapPipeline(CONFIG, batch_registry).run_sessions(corrupt_crowd)
    assert diff_reconstruction(served, batch) == []
    assert served.failures == batch.failures
    assert [f.item_id for f in batch.failures] == [corrupt_crowd[-1].session_id]
    assert batch.failures[0].error_type == "KeyframeSelectionError"
    assert shard.telemetry.value("sessions_quarantined") == 1
    assert batch_registry.value("sessions_quarantined") == 1


def test_raise_mode_fails_refresh_not_ingest(corrupt_crowd):
    shard = _ingested(
        corrupt_crowd, CONFIG.with_overrides(pipeline_on_error="raise")
    )
    assert shard.sessions_ingested == len(corrupt_crowd)
    with pytest.raises(KeyframeSelectionError):
        shard.refresh(now=1.0)
    assert shard.dirty
    assert all(store.current() is None for store in shard.replicas)
