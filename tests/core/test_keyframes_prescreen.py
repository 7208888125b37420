"""Key-frame pre-screen: oracle identity + thinning behaviour.

Two contracts. In the default (bit-reproducible) profile the threshold
is 0 and the pre-screen must be completely inert: every frame reaches
the gray→blur→HOG chain — enforced here by making the pre-screen explode
if called. The aggressive profile (threshold
``AGGRESSIVE_PRESCREEN_THRESHOLD``) thins near-duplicate frames before
the HOG chain; its accuracy is gated by the scorecard bands
(tests/eval), so here we pin the mechanics: endpoints always survive,
duplicates are dropped, movement is kept, and a non-positive threshold
disables it.
"""

from __future__ import annotations

import repro.core.keyframes as keyframes_mod
from repro.core.config import AGGRESSIVE_PRESCREEN_THRESHOLD, CrowdMapConfig
from repro.core.keyframes import prescreen_survivors, select_keyframes

#: The shipped aggressive profile.
AGGRESSIVE = CrowdMapConfig(
    keyframe_prescreen_threshold=AGGRESSIVE_PRESCREEN_THRESHOLD
)


class TestPrescreenSurvivors:
    def test_endpoints_always_survive(self, sws_session):
        frames = sws_session.frames[:6]
        survivors = prescreen_survivors(frames, AGGRESSIVE)
        assert survivors[0] is frames[0]
        assert survivors[-1] is frames[-1]

    #: Mechanics tests pin the survival rule, not the shipped
    #: calibration: this threshold sits below the substrate's
    #: adjacent-frame energy (median ~0.075) so exact duplicates are
    #: the only frames it rejects.
    LOW = CrowdMapConfig(keyframe_prescreen_threshold=0.04)

    def test_duplicates_are_dropped(self, sws_session):
        f = sws_session.frames
        spaced = [f[0], f[0], f[10], f[10], f[20]]
        survivors = prescreen_survivors(spaced, self.LOW)
        assert survivors == [f[0], f[10], f[20]]

    def test_distinct_frames_survive(self, sws_session):
        spaced = [sws_session.frames[i] for i in (0, 10, 20, 30, 40)]
        survivors = prescreen_survivors(spaced, self.LOW)
        assert survivors == spaced

    def test_heading_sweep_survives_identical_pixels(self, sws_session):
        """The coverage guard: a frame whose heading turned past the cap
        survives even with zero pixel energy (spin sequences must keep
        their angular coverage for panorama stitching)."""
        import dataclasses

        f = sws_session.frames[0]
        turned = dataclasses.replace(
            f, heading=f.heading + AGGRESSIVE.keyframe_prescreen_heading + 0.01
        )
        survivors = prescreen_survivors([f, f, turned, f], AGGRESSIVE)
        assert survivors == [f, turned, f]

    def test_nonpositive_threshold_disables(self, sws_session):
        f = sws_session.frames
        spaced = [f[0], f[0], f[0], f[0]]
        config = CrowdMapConfig(keyframe_prescreen_threshold=0.0)
        assert prescreen_survivors(spaced, config) == spaced

    def test_short_sequences_untouched(self, sws_session):
        f = sws_session.frames
        assert prescreen_survivors([f[0], f[0]], AGGRESSIVE) == [f[0], f[0]]

    def test_shape_change_always_survives(self, sws_session):
        """A resolution switch resets the comparison instead of diffing
        mismatched planes (crowdsourced sessions mix devices)."""
        import dataclasses

        f = sws_session.frames
        small = dataclasses.replace(f[0], pixels=f[0].pixels[:32, :32])
        survivors = prescreen_survivors([f[0], small, f[0]], AGGRESSIVE)
        assert survivors == [f[0], small, f[0]]


class TestDefaultModeIdentity:
    def test_default_mode_never_prescreens(
        self, sws_session, monkeypatch
    ):
        """The oracle: in the default profile the pre-screen must not run
        at all — selection processes every frame."""
        def explode(frames, config):
            raise AssertionError("pre-screen ran in default mode")

        monkeypatch.setattr(
            keyframes_mod, "prescreen_survivors", explode
        )
        selected = select_keyframes(
            sws_session.frames, CrowdMapConfig(), session_id="oracle"
        )
        assert selected


class TestAggressiveThinning:
    def test_duplicate_frames_skip_the_hog_chain(self, sws_session):
        """Under the aggressive profile a duplicate-heavy sequence is
        thinned before HOG: selection still returns key-frames, and
        every selected frame is a pre-screen survivor."""
        f = sws_session.frames
        padded = []
        for frame in f[:20]:
            padded.extend([frame, frame, frame])
        survivor_ids = {
            id(frame) for frame in prescreen_survivors(padded, AGGRESSIVE)
        }
        selected = select_keyframes(padded, AGGRESSIVE, session_id="agg")
        assert selected
        assert all(id(kf.frame) in survivor_ids for kf in selected)
