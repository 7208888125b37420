"""Tests for LCSS similarity, rigid fitting and sequence aggregation."""

import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aggregation import (
    SequenceAggregator,
    _longest_increasing_pairs,
    fit_rigid_transform,
    lcss_similarity,
)
from repro.core.config import CrowdMapConfig
from repro.core.pipeline import CrowdMapPipeline


def line(n, dx=1.0, start=(0.0, 0.0)):
    return np.array([[start[0] + i * dx, start[1]] for i in range(n)])


class TestLcss:
    def test_identical_sequences(self):
        pts = line(10)
        length, s3 = lcss_similarity(pts, pts, epsilon=0.5, delta=3)
        assert length == 10
        assert s3 == 1.0

    def test_disjoint_sequences(self):
        a = line(10)
        b = line(10, start=(100.0, 100.0))
        length, s3 = lcss_similarity(a, b, epsilon=1.0, delta=5)
        assert length == 0
        assert s3 == 0.0

    def test_partial_overlap(self):
        a = line(10)
        b = line(10, start=(5.0, 0.0))  # shares points 5..9 with a
        _, s3 = lcss_similarity(a, b, epsilon=0.5, delta=20)
        assert 0.3 <= s3 <= 0.7

    def test_delta_band_limits_matches(self):
        a = line(20)
        b = line(20, start=(10.0, 0.0))
        # The true alignment offset (10) exceeds delta=3: few matches.
        _, s3_narrow = lcss_similarity(a, b, epsilon=0.5, delta=3)
        _, s3_wide = lcss_similarity(a, b, epsilon=0.5, delta=15)
        assert s3_wide > s3_narrow

    def test_empty_sequences(self):
        assert lcss_similarity(np.zeros((0, 2)), line(5), 1.0, 3) == (0, 0.0)

    def test_epsilon_zero_tolerance(self):
        a = line(5)
        b = line(5) + np.array([0.0, 0.3])
        length, _ = lcss_similarity(a, b, epsilon=0.2, delta=3)
        assert length == 0
        length2, _ = lcss_similarity(a, b, epsilon=0.4, delta=3)
        assert length2 == 5

    @given(st.integers(2, 30))
    @settings(max_examples=20)
    def test_s3_bounded(self, n):
        rng = np.random.default_rng(n)
        a = rng.uniform(0, 10, (n, 2))
        b = rng.uniform(0, 10, (n + 3, 2))
        length, s3 = lcss_similarity(a, b, epsilon=2.0, delta=5)
        assert 0 <= length <= n
        assert 0.0 <= s3 <= 1.0


class TestRigidFit:
    def test_exact_recovery(self):
        rng = np.random.default_rng(0)
        src = rng.uniform(-5, 5, (12, 2))
        theta, tx, ty = 0.7, 3.0, -2.0
        c, s = math.cos(theta), math.sin(theta)
        dst = src @ np.array([[c, s], [-s, c]]) + np.array([tx, ty])
        t = fit_rigid_transform(src, dst)
        assert t.theta == pytest.approx(theta, abs=1e-9)
        assert t.tx == pytest.approx(tx, abs=1e-9)
        assert t.ty == pytest.approx(ty, abs=1e-9)

    def test_noisy_recovery(self):
        rng = np.random.default_rng(1)
        src = rng.uniform(-5, 5, (30, 2))
        theta = -0.4
        c, s = math.cos(theta), math.sin(theta)
        dst = src @ np.array([[c, s], [-s, c]]) + rng.normal(0, 0.05, (30, 2))
        t = fit_rigid_transform(src, dst)
        assert t.theta == pytest.approx(theta, abs=0.02)

    def test_validation(self):
        with pytest.raises(ValueError):
            fit_rigid_transform(np.zeros((2, 2)), np.zeros((3, 2)))
        with pytest.raises(ValueError):
            fit_rigid_transform(np.zeros((0, 2)), np.zeros((0, 2)))


class TestLongestIncreasingPairs:
    def test_monotone_chain_kept(self):
        pairs = [(0, 0, 1.0), (1, 1, 1.0), (2, 2, 1.0)]
        assert _longest_increasing_pairs(pairs) == pairs

    def test_inconsistent_pair_dropped(self):
        pairs = [(0, 5, 1.0), (1, 1, 1.0), (2, 2, 1.0), (3, 3, 1.0)]
        chain = _longest_increasing_pairs(pairs)
        assert (0, 5, 1.0) not in chain
        assert len(chain) == 3

    def test_empty(self):
        assert _longest_increasing_pairs([]) == []

    def test_strictly_increasing_required(self):
        pairs = [(0, 0, 1.0), (0, 1, 1.0), (1, 1, 1.0)]
        chain = _longest_increasing_pairs(pairs)
        assert len(chain) == 2


@pytest.fixture(scope="module")
def anchored_sessions(small_dataset, lab1_plan):
    pipe = CrowdMapPipeline(CrowdMapConfig())
    return [pipe.anchor_session(s) for s in small_dataset.sws_sessions()]


class TestSequenceAggregator:
    def test_self_pair_merges(self, anchored_sessions, config):
        aggregator = SequenceAggregator(config)
        cand = aggregator.score_pair(anchored_sessions[0], anchored_sessions[0])
        assert cand.mergeable
        assert cand.s3 > 0.9

    def test_aggregate_produces_common_frame(self, anchored_sessions, config):
        aggregator = SequenceAggregator(config)
        result = aggregator.aggregate(anchored_sessions)
        assert len(result.trajectories) == len(anchored_sessions)
        assert len(result.transforms) == len(anchored_sessions)
        # Components partition the index set.
        flat = sorted(i for comp in result.components for i in comp)
        assert flat == list(range(len(anchored_sessions)))

    def test_aggregate_scores_pairs_on_the_calling_thread(
        self, anchored_sessions, config, monkeypatch
    ):
        # The default worker_backend is "serial": aggregate must honour
        # it instead of falling back to map_parallel's thread pool.
        score_pair = SequenceAggregator.score_pair
        threads = []

        def recording(self, *args):
            threads.append(threading.get_ident())
            return score_pair(self, *args)

        monkeypatch.setattr(SequenceAggregator, "score_pair", recording)
        SequenceAggregator(config).aggregate(anchored_sessions[:3])
        assert threads == [threading.get_ident()] * 3

    def test_candidates_cover_all_pairs(self, anchored_sessions, config):
        aggregator = SequenceAggregator(config)
        result = aggregator.aggregate(anchored_sessions)
        n = len(anchored_sessions)
        assert len(result.candidates) == n * (n - 1) // 2

    def test_no_anchors_no_merge(self, anchored_sessions, config):
        strict = config.with_overrides(min_anchor_matches=10**6)
        aggregator = SequenceAggregator(strict)
        cand = aggregator.score_pair(anchored_sessions[0], anchored_sessions[1])
        assert not cand.mergeable
        assert cand.s3 == 0.0

    def test_merged_pairs_listed(self, anchored_sessions, config):
        aggregator = SequenceAggregator(config)
        result = aggregator.aggregate(anchored_sessions)
        for i, j in result.merged_pairs():
            assert i < j
