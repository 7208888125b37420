"""Content-addressed result cache for expensive per-frame computations.

The paper's backend recomputes nothing it has already seen: uploads are
content-addressed, so a key-frame whose pixels match a previously
processed frame reuses its SURF features, HOG descriptor and S1
signatures. This module provides that memo layer:

- **Keys** are digests of the *content* that determines the result: the
  raw array bytes (:func:`array_digest`) plus a fingerprint of the
  relevant :class:`~repro.core.config.CrowdMapConfig` thresholds
  (:func:`config_fingerprint`). Two bit-identical frames processed under
  the same thresholds share one cache slot, whatever session they came
  from — and a threshold change invalidates exactly the results it
  affects.
- **Storage** is an LRU-bounded in-memory map, optionally write-through
  to a content-addressed directory on disk (survives process restarts).
- **Modes** come from the ``CROWDMAP_CACHE`` env switch: ``off`` (every
  call recomputes), ``memory`` (the default) or ``disk``.
  ``CROWDMAP_CACHE_DIR`` relocates the disk store (default
  ``.crowdmap_cache``), ``CROWDMAP_CACHE_MAX`` resizes the LRU bound.
- **Telemetry**: ``cache_hits`` / ``cache_misses`` / ``cache_evictions``
  counters (plus per-namespace variants) in the default registry.

Determinism contract: the cache stores the bit-exact value the wrapped
computation produced, so cached and uncached pipelines are
indistinguishable — the twin-run test in ``tests/backend/test_cache.py``
enforces this end-to-end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import threading
import weakref
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

import numpy as np

from repro.backend.telemetry import TelemetryRegistry, default_registry

#: Recognized ``CROWDMAP_CACHE`` values.
CACHE_MODES = ("off", "memory", "disk")

_DEFAULT_MAX_ENTRIES = 4096
_DEFAULT_CACHE_DIR = ".crowdmap_cache"

#: id-keyed digest memo: ``id(arr) -> (weakref to arr, digest)``. The
#: weakref callback evicts the entry when the array dies, so a recycled
#: id can never resurrect a dead array's digest; the liveness check in
#: :func:`array_digest` additionally re-verifies identity before reuse.
_digest_memo: Dict[int, Tuple["weakref.ref", str]] = {}
_digest_memo_lock = threading.Lock()


def _digest_memo_evict(key: int) -> Callable[[Any], None]:
    def _evict(_ref: Any) -> None:
        with _digest_memo_lock:
            _digest_memo.pop(key, None)
    return _evict


def array_digest(arr: np.ndarray) -> str:
    """Content digest of an array: dtype + shape + raw bytes.

    SHA-1, not a fancier hash: this is content addressing, not a
    security boundary, and on current CPUs (SHA extensions) it digests a
    frame in less than half blake2b's time — the digest is on the
    per-frame hot path. C-contiguous arrays — including read-only
    shared-memory views — are fed to the hash as a flat ``memoryview``
    of their existing buffer, so the digest is zero-copy; only
    non-contiguous inputs (slices, Fortran-order arrays) pay one
    contiguous copy first. The digest depends on dtype, shape and
    element order alone, so a strided view and its contiguous copy — or
    an array and its shared-memory twin — always hash identically.

    The digest is memoized per array *object* (id-keyed, weakly held):
    one value feeding several cached kernels is hashed once, and the
    repeats are counted by the ``digests_avoided`` telemetry counter.
    Like :func:`frame_digest`, the memo assumes content addressing's
    immutability contract — replace an array to change its content,
    never mutate it in place after digesting.
    """
    key = id(arr)
    with _digest_memo_lock:
        entry = _digest_memo.get(key)
    if entry is not None and entry[0]() is arr:
        default_registry.counter(
            "digests_avoided",
            "array digests served from the id-keyed memo",
        ).inc()
        return entry[1]
    base = arr
    if not arr.flags.c_contiguous:
        arr = np.ascontiguousarray(arr)
    h = hashlib.sha1()
    h.update(str(arr.dtype).encode())
    h.update(repr(arr.shape).encode())
    h.update(memoryview(arr).cast("B"))
    digest = h.hexdigest()
    try:
        ref = weakref.ref(base, _digest_memo_evict(key))
    except TypeError:  # non-weakref-able array subclass: skip the memo
        return digest
    with _digest_memo_lock:
        _digest_memo[key] = (ref, digest)
    return digest


def value_fingerprint(*parts: Any) -> str:
    """Digest of scalar key parts (floats via ``repr`` — exact, not rounded)."""
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return h.hexdigest()


@lru_cache(maxsize=256)
def _config_fingerprint_cached(config: Any, names: Tuple[str, ...]) -> str:
    return value_fingerprint(*[(name, getattr(config, name)) for name in names])


def config_fingerprint(config: Any, fields: Optional[Iterable[str]] = None) -> str:
    """Fingerprint of a (frozen dataclass) config, or a subset of its fields.

    Call sites pass the fields their computation actually reads, so a
    sweep over — say — ``force_iterations`` does not invalidate cached
    SURF features; omitting ``fields`` hashes every field.

    Hashable (frozen) configs are memoized per field subset — call sites
    invoke this once per frame, against a handful of live configs.
    """
    if fields is None:
        names = tuple(f.name for f in dataclasses.fields(config))
    else:
        names = tuple(fields)
    try:
        return _config_fingerprint_cached(config, names)
    except TypeError:  # unhashable config object: compute directly
        return value_fingerprint(*[(name, getattr(config, name)) for name in names])


def frame_digest(frame: Any) -> str:
    """Pixel-content digest of a Frame, memoized on the frame object."""
    digest = getattr(frame, "_crowdmap_digest", None)
    if digest is None:
        digest = array_digest(frame.pixels)
        try:
            frame._crowdmap_digest = digest
        except AttributeError:  # frozen/slots containers just recompute
            pass
    return digest


class ResultCache:
    """LRU-bounded content-addressed memo store with optional disk tier.

    Thread-safe; the compute callback runs outside the lock (two racing
    threads may compute the same entry once each — the deterministic
    kernels make both results identical, so last-write-wins is safe).
    """

    def __init__(
        self,
        mode: str = "memory",
        max_entries: int = _DEFAULT_MAX_ENTRIES,
        cache_dir: Optional[str] = None,
        telemetry: Optional[TelemetryRegistry] = None,
    ):
        if mode not in CACHE_MODES:
            raise ValueError(
                f"cache mode must be one of {CACHE_MODES}, got {mode!r}"
            )
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.mode = mode
        self.max_entries = max_entries
        self.cache_dir = cache_dir or _DEFAULT_CACHE_DIR
        self.telemetry = telemetry or default_registry
        self._entries: "OrderedDict[Tuple[str, str], Any]" = OrderedDict()
        self._lock = threading.Lock()

    # -- counters ------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    def _count(self, event: str, namespace: str) -> None:
        self.telemetry.counter(f"cache_{event}", f"result cache {event}").inc()
        self.telemetry.counter(f"cache_{event}_{namespace}").inc()

    # -- disk tier -----------------------------------------------------

    def _disk_path(self, namespace: str, key: str) -> str:
        return os.path.join(self.cache_dir, namespace, key[:2], key + ".pkl")

    def _disk_read(self, namespace: str, key: str) -> Tuple[bool, Any]:
        path = self._disk_path(namespace, key)
        try:
            with open(path, "rb") as fh:
                return True, pickle.load(fh)
        except (OSError, pickle.PickleError, EOFError):
            return False, None

    def _disk_write(self, namespace: str, key: str, value: Any) -> None:
        path = self._disk_path(namespace, key)
        tmp = f"{path}.tmp.{os.getpid()}"
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(tmp, "wb") as fh:
                pickle.dump(value, fh, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)  # atomic: concurrent writers can't tear
        except OSError:
            # A read-only or full disk degrades to memory-only caching.
            try:
                os.unlink(tmp)
            except OSError:
                pass

    # -- core API ------------------------------------------------------

    def lookup(self, namespace: str, key: str) -> Tuple[bool, Any]:
        """(hit, value) without computing; counts the hit/miss."""
        if not self.enabled:
            return False, None
        slot = (namespace, key)
        with self._lock:
            if slot in self._entries:
                self._entries.move_to_end(slot)
                value = self._entries[slot]
                self._count("hits", namespace)
                return True, value
        if self.mode == "disk":
            hit, value = self._disk_read(namespace, key)
            if hit:
                self._memory_store(slot, namespace)
                with self._lock:
                    self._entries[slot] = value
                self._count("hits", namespace)
                return True, value
        self._count("misses", namespace)
        return False, None

    def _memory_store(self, slot: Tuple[str, str], namespace: str) -> None:
        """Reserve LRU room for ``slot`` (evicting under the lock)."""
        with self._lock:
            while len(self._entries) >= self.max_entries:
                evicted_slot, _ = self._entries.popitem(last=False)
                self._count("evictions", evicted_slot[0])

    def store(self, namespace: str, key: str, value: Any) -> None:
        if not self.enabled:
            return
        slot = (namespace, key)
        self._memory_store(slot, namespace)
        with self._lock:
            self._entries[slot] = value
            self._entries.move_to_end(slot)
        if self.mode == "disk":
            self._disk_write(namespace, key, value)

    def get_or_compute(
        self, namespace: str, key: str, compute: Callable[[], Any]
    ) -> Any:
        """The memoization primitive every wired call site goes through."""
        if not self.enabled:
            return compute()
        hit, value = self.lookup(namespace, key)
        if hit:
            return value
        value = compute()
        self.store(namespace, key, value)
        return value

    def clear(self) -> None:
        """Drop the in-memory tier (the disk tier is left untouched)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> dict:
        """Aggregate hit/miss/eviction counts from telemetry."""
        return {
            "mode": self.mode,
            "entries": len(self),
            "hits": self.telemetry.value("cache_hits"),
            "misses": self.telemetry.value("cache_misses"),
            "evictions": self.telemetry.value("cache_evictions"),
        }


def _cache_from_env() -> ResultCache:
    mode = os.environ.get("CROWDMAP_CACHE", "memory").strip().lower() or "memory"
    if mode not in CACHE_MODES:
        raise ValueError(
            f"CROWDMAP_CACHE must be one of {CACHE_MODES}, got {mode!r}"
        )
    max_entries = int(os.environ.get("CROWDMAP_CACHE_MAX", _DEFAULT_MAX_ENTRIES))
    cache_dir = os.environ.get("CROWDMAP_CACHE_DIR") or None
    return ResultCache(mode=mode, max_entries=max_entries, cache_dir=cache_dir)


_default_cache: Optional[ResultCache] = None
_default_lock = threading.Lock()


def get_cache() -> ResultCache:
    """The process-wide cache, built from the environment on first use."""
    global _default_cache
    if _default_cache is None:
        with _default_lock:
            if _default_cache is None:
                _default_cache = _cache_from_env()
    return _default_cache


def set_cache(cache: Optional[ResultCache]) -> None:
    """Replace the process-wide cache (None re-reads the environment)."""
    global _default_cache
    with _default_lock:
        _default_cache = cache
