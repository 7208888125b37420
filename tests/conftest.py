"""Shared fixtures.

Rendering sessions and crowd datasets are expensive, so everything derived
from the world simulator is session-scoped and cached: tests must not
mutate these fixtures (copy first if needed).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.backend.cache import ResultCache, get_cache, set_cache
from repro.core import contracts
from repro.core.config import CrowdMapConfig
from repro.world.buildings import build_gym, build_lab1, build_lab2
from repro.world.crowd import CrowdConfig, generate_crowd_dataset
from repro.world.renderer import Camera, Renderer
from repro.world.walker import Walker, WalkerProfile

# The whole suite runs with array contracts enforced: a @shaped violation
# anywhere in the stack is a test failure, not a warning. Tests that exercise
# the other modes save/restore via contracts.set_mode themselves.
contracts.set_mode("strict")


@pytest.fixture(scope="session")
def lab1_plan():
    return build_lab1()


@pytest.fixture(scope="session")
def lab2_plan():
    return build_lab2()


@pytest.fixture(scope="session")
def gym_plan():
    return build_gym()


@pytest.fixture(scope="session")
def lab1_renderer(lab1_plan):
    return Renderer(lab1_plan, Camera())


@pytest.fixture(scope="session")
def sws_session(lab1_plan, lab1_renderer):
    """One deterministic SWS capture along Lab1's south corridor."""
    walker = Walker(
        lab1_plan,
        WalkerProfile(user_id="fixture-sws"),
        rng=np.random.default_rng(42),
        renderer=lab1_renderer,
    )
    return walker.perform_sws(lab1_plan.route_between("sw", "se"))


@pytest.fixture(scope="session")
def srs_session(lab1_plan, lab1_renderer):
    """One deterministic SRS spin inside Lab1 room s1."""
    walker = Walker(
        lab1_plan,
        WalkerProfile(user_id="fixture-srs"),
        rng=np.random.default_rng(43),
        renderer=lab1_renderer,
    )
    room = lab1_plan.room_by_name("s1")
    return walker.perform_srs(room.center, room_name=room.name)


@pytest.fixture(scope="session")
def small_dataset(lab1_plan):
    """A small but complete Lab1 crowd dataset (SWS + SRS sessions)."""
    return generate_crowd_dataset(
        lab1_plan,
        CrowdConfig(n_users=3, sws_per_user=2, srs_rooms_per_user=1, seed=7),
    )


@pytest.fixture()
def config():
    return CrowdMapConfig()


@pytest.fixture()
def rng():
    return np.random.default_rng(0)


@pytest.fixture()
def empty_cache():
    """An empty result cache for one test; the previous one is restored."""
    previous = get_cache()
    set_cache(ResultCache(mode="memory"))
    yield
    set_cache(previous)
