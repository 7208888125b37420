"""Content-addressed result cache: keys, storage tiers, and the
cached-vs-uncached bit-identity contract the pipeline relies on.

The equivalence tests here are the cache's reason to exist: a warm cache
must be a pure speedup, never a semantic change, so the reconstruction
from a cached run is compared bit-for-bit against an uncached one.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.cache import (
    CACHE_MODES,
    ResultCache,
    array_digest,
    config_fingerprint,
    frame_digest,
    get_cache,
    set_cache,
)
from repro.backend.telemetry import TelemetryRegistry
from repro.core.config import CrowdMapConfig


@pytest.fixture(autouse=True)
def _isolate_global_cache():
    """Each test starts and ends with the env-derived default cache."""
    set_cache(None)
    yield
    set_cache(None)


def fresh_cache(**kwargs) -> ResultCache:
    kwargs.setdefault("telemetry", TelemetryRegistry())
    return ResultCache(**kwargs)


class TestCoreApi:
    def test_miss_then_store_then_hit(self):
        cache = fresh_cache()
        hit, value = cache.lookup("hog", "k1")
        assert (hit, value) == (False, None)
        cache.store("hog", "k1", 123)
        hit, value = cache.lookup("hog", "k1")
        assert (hit, value) == (True, 123)

    def test_hit_miss_counters(self):
        cache = fresh_cache()
        cache.lookup("surf", "a")  # miss
        cache.store("surf", "a", "v")
        cache.lookup("surf", "a")  # hit
        cache.lookup("surf", "b")  # miss
        assert cache.telemetry.value("cache_hits") == 1
        assert cache.telemetry.value("cache_misses") == 2
        assert cache.telemetry.value("cache_hits_surf") == 1
        assert cache.telemetry.value("cache_misses_surf") == 2
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["hits"] == 1 and stats["misses"] == 2

    def test_get_or_compute_computes_once(self):
        cache = fresh_cache()
        calls = []

        def compute():
            calls.append(1)
            return 7

        assert cache.get_or_compute("ns", "k", compute) == 7
        assert cache.get_or_compute("ns", "k", compute) == 7
        assert len(calls) == 1

    def test_lru_eviction_evicts_oldest(self):
        cache = fresh_cache(max_entries=2)
        cache.store("ns", "a", 1)
        cache.store("ns", "b", 2)
        cache.store("ns", "c", 3)  # evicts "a"
        assert cache.lookup("ns", "a") == (False, None)
        assert cache.lookup("ns", "b") == (True, 2)
        assert cache.telemetry.value("cache_evictions") == 1
        assert len(cache) == 2

    def test_hit_refreshes_lru_order(self):
        cache = fresh_cache(max_entries=2)
        cache.store("ns", "a", 1)
        cache.store("ns", "b", 2)
        cache.lookup("ns", "a")  # "a" becomes most recent
        cache.store("ns", "c", 3)  # so "b" is evicted, not "a"
        assert cache.lookup("ns", "a") == (True, 1)
        assert cache.lookup("ns", "b") == (False, None)

    def test_off_mode_is_a_no_op(self):
        cache = fresh_cache(mode="off")
        cache.store("ns", "k", 1)
        assert cache.lookup("ns", "k") == (False, None)
        assert len(cache) == 0
        # Disabled lookups are not misses: nothing was attempted.
        assert cache.telemetry.value("cache_misses") == 0
        calls = []
        cache.get_or_compute("ns", "k", lambda: calls.append(1) or 9)
        cache.get_or_compute("ns", "k", lambda: calls.append(1) or 9)
        assert len(calls) == 2

    def test_invalid_construction_rejected(self):
        with pytest.raises(ValueError):
            ResultCache(mode="turbo")
        with pytest.raises(ValueError):
            ResultCache(max_entries=0)
        assert set(CACHE_MODES) == {"off", "memory", "disk"}

    def test_clear_drops_memory_entries(self):
        cache = fresh_cache()
        cache.store("ns", "k", 1)
        cache.clear()
        assert cache.lookup("ns", "k") == (False, None)


class TestContentKeys:
    def test_array_digest_tracks_content_shape_dtype(self):
        a = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert array_digest(a) == array_digest(a.copy())
        # Non-contiguous views digest by content, not memory layout.
        assert array_digest(a.T) == array_digest(np.ascontiguousarray(a.T))
        assert array_digest(a) != array_digest(a.reshape(4, 3))
        assert array_digest(a) != array_digest(a.astype(np.float32))
        b = a.copy()
        b[0, 0] += 1e-12
        assert array_digest(a) != array_digest(b)

    def test_array_digest_zero_copy_paths_agree(self):
        """Every buffer layout of the same content digests identically.

        The digest feeds the content-addressed cache from plain
        contiguous arrays as well as read-only views and strided slices:
        a layout-dependent digest would silently split cache slots
        between equal contents.
        """
        base = np.random.default_rng(3).standard_normal((32, 48))
        reference = array_digest(np.ascontiguousarray(base))
        readonly = base.copy()
        readonly.setflags(write=False)
        assert array_digest(readonly) == reference
        # Fortran-order and strided layouts of the same values.
        assert array_digest(np.asfortranarray(base)) == reference
        strided = np.empty((64, 48))
        strided[::2] = base
        assert array_digest(strided[::2]) == reference

    def test_array_digest_memoized_per_object(self):
        from repro.backend.telemetry import default_registry

        arr = np.random.default_rng(5).standard_normal((16, 16))
        before = default_registry.value("digests_avoided")
        first = array_digest(arr)
        assert array_digest(arr) == first  # second call hits the memo
        assert default_registry.value("digests_avoided") == before + 1
        # A content twin is a different object: fresh hash, same digest.
        assert array_digest(arr.copy()) == first
        assert default_registry.value("digests_avoided") == before + 1

    def test_array_digest_memo_evicts_dead_arrays(self):
        import gc

        from repro.backend import cache as cache_module

        arr = np.ones((8, 8))
        array_digest(arr)
        key = id(arr)
        assert key in cache_module._digest_memo
        del arr
        gc.collect()
        # The weakref callback must drop the entry, or a recycled id
        # could serve a dead array's digest to an unrelated array.
        assert key not in cache_module._digest_memo

    def test_config_fingerprint_scoped_to_fields(self):
        base = CrowdMapConfig()
        tweaked_unrelated = CrowdMapConfig(force_iterations=base.force_iterations + 1)
        tweaked_relevant = CrowdMapConfig(hog_blur_sigma=base.hog_blur_sigma + 0.5)
        fields = ("hog_blur_sigma", "hog_cell_size")
        assert config_fingerprint(base, fields) == config_fingerprint(
            tweaked_unrelated, fields
        )
        assert config_fingerprint(base, fields) != config_fingerprint(
            tweaked_relevant, fields
        )
        # Full-config fingerprints see every field.
        assert config_fingerprint(base) != config_fingerprint(tweaked_unrelated)

    def test_frame_digest_memoizes_on_the_frame(self):
        class FakeFrame:
            def __init__(self, pixels):
                self.pixels = pixels

        frame = FakeFrame(np.zeros((4, 4, 3)))
        digest = frame_digest(frame)
        assert digest == array_digest(frame.pixels)
        assert frame._crowdmap_digest == digest
        # The memo is trusted even if pixels mutate: frames are immutable
        # in the pipeline, and that is exactly what this attribute assumes.
        assert frame_digest(frame) == digest

    def test_fingerprint_change_is_a_different_slot(self):
        cache = fresh_cache()
        frame = np.full((8, 8), 0.25)
        old = array_digest(frame) + config_fingerprint(
            CrowdMapConfig(), ("hog_blur_sigma",)
        )
        new = array_digest(frame) + config_fingerprint(
            CrowdMapConfig(hog_blur_sigma=9.9), ("hog_blur_sigma",)
        )
        cache.store("hog", old, "stale-descriptor")
        assert old != new
        assert cache.lookup("hog", new) == (False, None)


class TestDiskTier:
    def test_disk_entries_survive_a_new_process_cache(self, tmp_path):
        writer = fresh_cache(mode="disk", cache_dir=str(tmp_path))
        payload = {"descriptor": np.arange(5.0)}
        writer.store("hog", "deadbeef", payload)
        # A fresh cache (fresh memory tier) simulating a restarted worker.
        reader = fresh_cache(mode="disk", cache_dir=str(tmp_path))
        hit, value = reader.lookup("hog", "deadbeef")
        assert hit
        assert np.array_equal(value["descriptor"], payload["descriptor"])
        # The disk hit was promoted into the memory tier.
        assert len(reader) == 1

    def test_memory_mode_never_touches_disk(self, tmp_path):
        cache = fresh_cache(mode="memory", cache_dir=str(tmp_path))
        cache.store("hog", "cafe", 1)
        assert list(tmp_path.iterdir()) == []

    def test_corrupt_disk_entry_degrades_to_miss(self, tmp_path):
        cache = fresh_cache(mode="disk", cache_dir=str(tmp_path))
        cache.store("ns", "k", 42)
        cache.clear()
        path = cache._disk_path("ns", "k")
        with open(path, "wb") as fh:
            fh.write(b"not a pickle")
        assert cache.lookup("ns", "k") == (False, None)

    def test_env_configuration(self, monkeypatch, tmp_path):
        monkeypatch.setenv("CROWDMAP_CACHE", "disk")
        monkeypatch.setenv("CROWDMAP_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("CROWDMAP_CACHE_MAX", "33")
        set_cache(None)
        cache = get_cache()
        assert cache.mode == "disk"
        assert cache.cache_dir == str(tmp_path)
        assert cache.max_entries == 33

    def test_env_rejects_unknown_mode(self, monkeypatch):
        monkeypatch.setenv("CROWDMAP_CACHE", "sideways")
        set_cache(None)
        with pytest.raises(ValueError):
            get_cache()


# ----------------------------------------------------------------------
# Pipeline equivalence: caching must be invisible
# ----------------------------------------------------------------------


def _small_dataset():
    from repro.world.buildings import build_lab1
    from repro.world.crowd import CrowdConfig, generate_crowd_dataset

    return generate_crowd_dataset(
        build_lab1(),
        CrowdConfig(n_users=2, sws_per_user=1, srs_rooms_per_user=1, seed=11),
    )


def _assert_reconstructions_identical(a, b):
    assert np.array_equal(a.skeleton.probability, b.skeleton.probability)
    assert np.array_equal(a.skeleton.skeleton, b.skeleton.skeleton)
    assert len(a.floorplan.rooms) == len(b.floorplan.rooms)
    for ra, rb in zip(a.floorplan.rooms, b.floorplan.rooms):
        assert ra.name == rb.name
        assert (ra.center.x, ra.center.y) == (rb.center.x, rb.center.y)
    assert [p.room_hint for p in a.panoramas] == [p.room_hint for p in b.panoramas]
    for pa, pb in zip(a.panoramas, b.panoramas):
        assert np.array_equal(pa.panorama.pixels, pb.panorama.pixels)
    assert a.floorplan.render_ascii() == b.floorplan.render_ascii()


@pytest.fixture(scope="module")
def equivalence_dataset():
    return _small_dataset()


@pytest.fixture(scope="module")
def uncached_reference(equivalence_dataset):
    from repro.core.pipeline import CrowdMapPipeline

    set_cache(ResultCache(mode="off", telemetry=TelemetryRegistry()))
    try:
        return CrowdMapPipeline(CrowdMapConfig()).run(equivalence_dataset)
    finally:
        set_cache(None)


class TestPipelineEquivalence:
    def test_cached_run_matches_uncached_bit_for_bit(
        self, equivalence_dataset, uncached_reference
    ):
        """Cold cached run, then a fully warm rerun: both must match the
        cache-off reference exactly — the cache is a pure memo layer."""
        from repro.core.pipeline import CrowdMapPipeline

        cache = ResultCache(mode="memory", telemetry=TelemetryRegistry())
        set_cache(cache)
        try:
            cold = CrowdMapPipeline(CrowdMapConfig()).run(equivalence_dataset)
            warm = CrowdMapPipeline(CrowdMapConfig()).run(equivalence_dataset)
        finally:
            set_cache(None)
        _assert_reconstructions_identical(cold, uncached_reference)
        _assert_reconstructions_identical(warm, uncached_reference)
        # The warm rerun actually hit the memo layer.
        assert cache.telemetry.value("cache_hits") > 0

