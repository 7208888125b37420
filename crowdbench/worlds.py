"""Benchmark inputs: fixed simulated worlds plus seeded sensor noise.

Rendering a crowd's video through the ray-casting simulator costs about
20 ms per frame, several times what reconstructing it costs, and the
amount of work a rendered crowd carries swings by a factor of two from
one world seed to the next. So every workload renders *fixed* worlds
(``ScenarioSpec(..., base_seed=11)``, the seed of the accuracy
baseline's cells) and the benchmark ``--seed`` varies what a deployment
varies between runs: per-frame sensor noise on every uploaded and query
frame, the query stream, and the gossip and link-loss draws. A run's
inputs are a pure function of its seed; runs with different seeds carry
the same amount of work.

Rendered worlds are cached as pickles under the cache directory, keyed
by the world's description and a digest of every ``src/repro`` source
file, so a checkout renders each world once and any source change
renders it again.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import zlib
from pathlib import Path
from typing import Callable, List, Sequence

import numpy as np

#: Standard deviation of the additive sensor noise, in [0, 1] pixel
#: units: about one 8-bit quantisation step. Enough to give every seed
#: unseen pixel content (so no content-addressed cache entry survives
#: from one seed to another) without moving key-frame selection.
NOISE_SIGMA = 1.0 / 255.0

#: World seed of every rendered input (the accuracy baseline's seed).
WORLD_SEED = 11


def source_digest(src_dir: Path) -> str:
    """SHA-1 over the path and bytes of every ``.py`` file under ``src_dir``."""
    h = hashlib.sha1()
    for path in sorted(src_dir.rglob("*.py")):
        h.update(str(path.relative_to(src_dir)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


class WorldCache:
    """Pickled simulator outputs on disk, rebuilt when the sources change."""

    def __init__(self, directory: Path, src_dir: Path):
        self.directory = directory
        self._source = source_digest(src_dir)

    def blob(self, name: str, build: Callable[[], object]) -> bytes:
        """The pickled value of ``build()``, from disk when already cached."""
        key = hashlib.sha1(f"{name}|{self._source}".encode()).hexdigest()[:16]
        path = self.directory / f"{name}-{key}.pkl"
        if path.exists():
            return path.read_bytes()
        data = pickle.dumps(build(), protocol=pickle.HIGHEST_PROTOCOL)
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        tmp.write_bytes(data)
        os.replace(tmp, path)
        return data


def rendered_sessions(cache: WorldCache, spec) -> list:
    """The sessions of one rendered ``ScenarioSpec`` world, in campaign order."""
    name = "world-" + spec.key.replace("/", "-") + (
        f"-s{spec.sws_per_user}r{spec.srs_rooms_per_user}b{spec.base_seed}"
    )
    return pickle.loads(cache.blob(name, lambda: spec.generate().sessions))


def noise_rng(seed: int, label: str) -> np.random.Generator:
    """The noise generator for one labelled input under one seed."""
    return np.random.default_rng([seed, zlib.crc32(label.encode())])


def noisy_frame(frame, rng: np.random.Generator):
    """A copy of ``frame`` with additive sensor noise (pixels kept in [0, 1])."""
    noise = rng.standard_normal(frame.pixels.shape, dtype=np.float32)
    pixels = np.clip(frame.pixels + NOISE_SIGMA * noise, 0.0, 1.0).astype(
        frame.pixels.dtype
    )
    return dataclasses.replace(
        frame, pixels=pixels, _gray_cache=None, _stack_cache=None
    )


def add_sensor_noise(sessions: Sequence, seed: int) -> List:
    """Copies of ``sessions`` whose frames carry seed-specific sensor noise."""
    noisy = []
    for session in sessions:
        rng = noise_rng(seed, session.session_id)
        frames = [noisy_frame(frame, rng) for frame in session.frames]
        noisy.append(dataclasses.replace(session, frames=frames))
    return noisy


def inputs_digest(*parts: object) -> str:
    """SHA-1 of the pickled inputs, recorded in every report.

    Lists are pickled item by item, so a large input never exists twice.
    """
    h = hashlib.sha1()
    for part in parts:
        for item in part if isinstance(part, list) else [part]:
            h.update(pickle.dumps(item, protocol=pickle.HIGHEST_PROTOCOL))
    return h.hexdigest()
