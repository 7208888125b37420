"""Chaos suite: the pipeline must degrade gracefully, never die.

CrowdMap's premise (paper Fig. 7a) is that reconstruction quality grows
with trajectory quantity — which only holds if a corrupt minority of
uploads cannot abort the majority. These tests fault-inject 20% of a
crowd dataset's sessions with the seeded
:class:`~tests.fault_injection.FaultInjector` and assert that:

- the pipeline still returns a :class:`ReconstructionResult` with a
  non-empty floor plan built from the healthy sessions;
- the ``failures`` report names exactly the faulted items;
- telemetry counters (``sessions_quarantined``,
  ``panorama_groups_quarantined``) match the injected fault counts.

``tests/serving/test_fault_parity.py`` replays the mixed-fault crowd
through a serving shard and checks it against this batch build.
"""

import pytest

from repro.backend.telemetry import TelemetryRegistry
from repro.core.config import CrowdMapConfig
from repro.core.keyframes import KeyframeSelectionError
from repro.core.pipeline import CrowdMapPipeline

from tests.fault_injection import FaultInjector

FAULT_RATE = 0.2

#: Chosen so both planned faults land on SWS sessions of the
#: ``small_dataset`` fixture (probed; the plan is seed-deterministic).
SEED_SWS_ONLY = 3
#: Chosen so the plan hits one SWS and one SRS session, exercising both
#: the per-session and the per-panorama-group quarantine paths.
SEED_MIXED = 0


def _chaos_config():
    return CrowdMapConfig().with_overrides(layout_samples=600)


def _inject(dataset, seed):
    """Corrupt ``FAULT_RATE`` of the dataset's sessions, deterministically."""
    injector = FaultInjector(seed=seed, fault_rate=FAULT_RATE,
                             kinds=("corrupt_frames",))
    decisions = injector.plan([s.session_id for s in dataset.sessions])
    faulted_ids = {d.item_id for d in decisions}
    sessions = [
        injector.corrupt_session_frames(s) if s.session_id in faulted_ids
        else s
        for s in dataset.sessions
    ]
    return sessions, faulted_ids


class TestGracefulDegradation:
    @pytest.fixture(scope="class")
    def chaos_run(self, small_dataset):
        sessions, faulted_ids = _inject(small_dataset, SEED_SWS_ONLY)
        telemetry = TelemetryRegistry()
        pipeline = CrowdMapPipeline(_chaos_config(), telemetry=telemetry)
        result = pipeline.run_sessions(sessions)
        return result, faulted_ids, telemetry, small_dataset

    def test_twenty_percent_of_sessions_faulted(self, chaos_run):
        _, faulted_ids, _, dataset = chaos_run
        assert len(faulted_ids) == round(FAULT_RATE * len(dataset.sessions))
        tasks = {s.session_id: s.task for s in dataset.sessions}
        assert all(tasks[sid] == "SWS" for sid in faulted_ids)

    def test_floorplan_still_produced(self, chaos_run):
        result, _, _, _ = chaos_run
        assert result.floorplan.rooms
        assert result.skeleton.skeleton.any()
        assert result.panoramas

    def test_failures_report_is_accurate(self, chaos_run):
        result, faulted_ids, _, _ = chaos_run
        assert {f.item_id for f in result.failures} == faulted_ids
        for failure in result.failures:
            assert failure.stage == "keyframes"
            assert failure.error_type == "KeyframeSelectionError"
            assert "non-finite" in failure.message
        assert result.n_quarantined == len(faulted_ids)
        assert result.failures_for_stage("keyframes") == result.failures

    def test_quarantine_telemetry_matches_fault_count(self, chaos_run):
        _, faulted_ids, telemetry, _ = chaos_run
        assert telemetry.value("sessions_quarantined") == len(faulted_ids)
        assert telemetry.value("panorama_groups_quarantined") == 0

    def test_healthy_sessions_fully_processed(self, chaos_run):
        result, faulted_ids, _, dataset = chaos_run
        n_sws = len(dataset.sws_sessions())
        assert len(result.anchored) == n_sws - len(faulted_ids)
        assert len(result.aggregation.trajectories) == n_sws - len(faulted_ids)
        anchored_ids = {a.session_id for a in result.anchored}
        assert anchored_ids.isdisjoint(faulted_ids)

    def test_mixed_faults_quarantine_panorama_groups(self, small_dataset):
        sessions, faulted_ids = _inject(small_dataset, SEED_MIXED)
        tasks = {s.session_id: s.task for s in small_dataset.sessions}
        faulted_sws = {i for i in faulted_ids if tasks[i] == "SWS"}
        faulted_srs = {i for i in faulted_ids if tasks[i] == "SRS"}
        assert faulted_sws and faulted_srs  # the seed guarantees both kinds

        telemetry = TelemetryRegistry()
        pipeline = CrowdMapPipeline(_chaos_config(), telemetry=telemetry)
        result = pipeline.run_sessions(sessions)

        assert result.floorplan.rooms
        assert {f.item_id for f in result.failures_for_stage("keyframes")} \
            == faulted_sws
        # Every faulted SRS session surfaces as a quarantined group (each
        # spin in this dataset occupies its own skeleton cell).
        pano_failures = result.failures_for_stage("panorama")
        assert {f.item_id for f in pano_failures} == faulted_srs
        assert all(f.error_type == "PanoramaCoverageError"
                   for f in pano_failures)
        assert telemetry.value("sessions_quarantined") == len(faulted_sws)
        assert telemetry.value("panorama_groups_quarantined") \
            == len(faulted_srs)
        assert result.n_quarantined == len(faulted_ids)

    def test_raise_mode_stays_fail_fast(self, small_dataset):
        sessions, _ = _inject(small_dataset, SEED_SWS_ONLY)
        config = _chaos_config().with_overrides(pipeline_on_error="raise")
        with pytest.raises(KeyframeSelectionError):
            CrowdMapPipeline(config).run_sessions(sessions)

    def test_invalid_policy_rejected(self):
        config = CrowdMapConfig().with_overrides(pipeline_on_error="explode")
        with pytest.raises(ValueError):
            CrowdMapPipeline(config)
