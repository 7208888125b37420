"""The four CrowdMap workloads, each driven through the layers' public API.

Every workload turns a seed into inputs (:meth:`Workload.prepare`, never
timed), readies the system (:meth:`Workload.setup` once, then
:meth:`Workload.warmup` three times; together ``setup_s``), runs timed
operations for a wall-clock budget (:meth:`Workload.measure`) and checks
what the program produced (:meth:`Workload.verify`).

- ``cold_build``: the paper's batch cascade. ``CrowdMapPipeline``
  rebuilds one building's map from freshly unpickled sessions with an
  empty result cache, over and over. Vision kernels, the dataflow
  planner and the core stages do all the work; serving and fleet idle.
- ``serve_read``: map consumers. Two published maps answer an open-loop
  Poisson stream (the serving layer's default get_floorplan / locate /
  route mix) timed from each request's due time. Every locate carries a
  frame never sent before, so localization does its full work instead
  of answering from the content-addressed cache.
- ``live``: the same maps start from their first user's uploads; the
  other uploads land on a fixed schedule and are ingested and published
  inline while the same query stream runs. The timed operation is an
  upload, from its due time until its new map version is published;
  the reads it delayed are reported per layer.
- ``fleet``: sensor-only crowds in four buildings gossiped over a lossy
  mesh until every node holds the same fused map, one freshly sliced
  mesh per operation. No pixels: vision, dataflow and serving idle;
  evidence fusion and gossip do the work.
"""

from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.backend.cache import ResultCache, set_cache
from repro.backend.faults import LinkFaultModel
from repro.core.pipeline import CrowdMapPipeline
from repro.dataflow.identity import diff_reconstruction
from repro.eval.scorecard import (
    ERROR_TOLERANCES,
    SCORE_TOLERANCES,
    compare_metric_bands,
    score_reconstruction,
)
from repro.fleet import FleetNode, GossipConfig, GossipMesh
from repro.fleet.sim import FleetSimConfig, build_fleet_crowd
from repro.serving import (
    LoadProfile,
    LocateQuery,
    QueryHandlers,
    RouteQuery,
    ShardManager,
    generate_arrivals,
)
from repro.geometry.primitives import Point
from repro.world.scenarios import ScenarioSpec, slice_sessions

from crowdbench import loop
from crowdbench.worlds import (
    WORLD_SEED,
    WorldCache,
    add_sensor_noise,
    inputs_digest,
    noise_rng,
    noisy_frame,
    rendered_sessions,
)


@dataclass(frozen=True)
class Sizes:
    """How big each workload's inputs are."""

    cold: ScenarioSpec
    serve: Tuple[ScenarioSpec, ...]
    #: One extra walker per serving building whose frames are never
    #: ingested: the pool locate queries are drawn from.
    held_out: Tuple[ScenarioSpec, ...]
    fleet: FleetSimConfig
    qps: float
    #: When ``cold`` is a cell of the committed accuracy baseline, every
    #: cold build must score inside that cell's tolerance bands.
    check_accuracy: bool = False


#: The committed accuracy baseline the cold build's quality is held to.
ACCURACY_BASELINE = Path(__file__).resolve().parent.parent / "ACCURACY_baseline.json"


def _spec(building: str, users: int, srs: int = 1) -> ScenarioSpec:
    return ScenarioSpec(building, n_users=users, sws_per_user=1,
                        srs_rooms_per_user=srs, base_seed=WORLD_SEED)


FULL = Sizes(
    # The accuracy grid's smallest cell (437 frames, nine sessions); its
    # Lab1 sibling builds in 6 s, too slow for enough repeats per run.
    cold=ScenarioSpec("Office", base_seed=WORLD_SEED),
    # Two buildings whose maps answer both locates and routes.
    serve=(_spec("Office", 3), _spec("Lab2", 3)),
    held_out=(_spec("Office", 1, srs=0), _spec("Lab2", 1, srs=0)),
    fleet=FleetSimConfig(
        buildings=("Lab1", "Lab2", "Gym", "Office"), n_nodes=6,
        users_per_building=6, overlap=0.25, loss_rate=0.1, seed=WORLD_SEED,
        max_rounds=200,
    ),
    qps=40.0,
    check_accuracy=True,
)

#: Seconds-scale inputs for tests of the harness itself.
SMOKE = Sizes(
    cold=_spec("Office", 1),
    serve=(_spec("Office", 2),),
    held_out=(_spec("Office", 1, srs=0),),
    fleet=FleetSimConfig(
        buildings=("Office",), n_nodes=3, users_per_building=4, overlap=0.25,
        loss_rate=0.1, seed=WORLD_SEED, max_rounds=200,
    ),
    qps=20.0,
)

#: Timed operations a run makes at least, however short its budget.
MIN_OPS = 3


def _another(latencies: List[float], deadline: float) -> bool:
    """Start another operation if one more, as long as the last, still fits."""
    if len(latencies) < MIN_OPS:
        return True
    return time.perf_counter() + latencies[-1] <= deadline


@dataclass
class Measurement:
    """The outcome of one timed phase."""

    latencies_ms: List[float]       # per operation; inf when it failed
    service_s: List[float]          # busy time of each successful operation
    attempted: int
    failed: int
    details: Dict[str, float] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def result_digest(result) -> str:
    """SHA-1 of a reconstruction's artifacts (what the identity diff covers)."""
    h = hashlib.sha1()
    sk = result.skeleton
    for arr in (sk.probability, sk.binarized, sk.skeleton):
        h.update(np.ascontiguousarray(arr).tobytes())
    for traj in result.aggregation.trajectories:
        h.update(np.ascontiguousarray(traj.as_array()).tobytes())
    for room in result.floorplan.rooms:
        h.update(repr((room.name, room.center.x, room.center.y,
                       room.layout.width, room.layout.depth,
                       room.layout.orientation)).encode())
    h.update(result.floorplan.render_ascii().encode())
    return h.hexdigest()


class Workload:
    """Shared shape of a workload (see the module docstring)."""

    name = ""

    def __init__(self, seed: int, sizes: Sizes, cache: WorldCache):
        self.seed = seed
        self.sizes = sizes
        self.cache = cache

    def prepare(self) -> str:
        """Build this seed's inputs; returns their digest."""
        raise NotImplementedError

    def _sub_seed(self, *parts: int) -> int:
        """A seed derived from the run's seed, for one part of its inputs."""
        return int(np.random.SeedSequence([self.seed, *parts]).generate_state(1)[0])

    def setup(self) -> None:
        """One-off program set-up before the first operation."""

    def warmup(self) -> float:
        """One warm-up operation, outside the measured phase; its seconds."""
        raise NotImplementedError

    def profile_op(self) -> Callable[[], object]:
        """A ready-to-run timed operation (inputs already prepared)."""
        raise NotImplementedError

    def measure(self, seconds: float) -> Measurement:
        raise NotImplementedError

    def verify(self, m: Measurement) -> List[str]:
        """Correctness problems found after measuring (empty when correct)."""
        return []

    def maps_digest(self) -> Optional[str]:
        return None


# ----------------------------------------------------------------------
# cold_build
# ----------------------------------------------------------------------


class ColdBuild(Workload):
    name = "cold_build"

    def prepare(self) -> str:
        sessions = add_sensor_noise(
            rendered_sessions(self.cache, self.sizes.cold), self.seed
        )
        # Pickled before any use, so every unpickled copy is free of the
        # per-frame and per-session memos a build leaves on its inputs.
        self._blob = pickle.dumps(sessions, protocol=pickle.HIGHEST_PROTOCOL)
        sws = [s for s in sessions if s.task == "SWS"]
        srs = [s for s in sessions if s.task == "SRS"]
        self._warm_blob = pickle.dumps(sws[:2] + srs[:1])
        self._plan = self.sizes.cold.plan()
        self._n_frames = sum(s.n_frames for s in sessions)
        self._n_sessions = len(sessions)
        self._first = self._last = None
        return hashlib.sha1(self._blob).hexdigest()

    def _fresh(self, blob: bytes):
        set_cache(ResultCache(mode="memory"))
        return pickle.loads(blob)

    def _build(self, sessions) -> Tuple[float, object]:
        t0 = time.perf_counter()
        result = CrowdMapPipeline().run_sessions(sessions)
        return time.perf_counter() - t0, result

    def warmup(self) -> float:
        return self._build(self._fresh(self._warm_blob))[0]

    def profile_op(self) -> Callable[[], object]:
        sessions = self._fresh(self._blob)
        return lambda: self._build(sessions)

    def measure(self, seconds: float) -> Measurement:
        latencies, quarantined = [], 0
        deadline = time.perf_counter() + seconds
        while _another(latencies, deadline):
            seconds_taken, result = self._build(self._fresh(self._blob))
            latencies.append(seconds_taken)
            quarantined += result.n_quarantined > 0
            if self._first is None:
                self._quality = score_reconstruction(
                    result, self._plan, lighting=self.sizes.cold.lighting,
                    crowd_size=self.sizes.cold.n_users,
                    n_sessions=self._n_sessions, n_frames=self._n_frames,
                )
            # Without its key-frames a result no longer pins the frames
            # (and their derived planes) it was built from.
            kept = dataclasses.replace(result, anchored=[])
            if self._first is None:
                self._first = kept
            else:
                self._last = kept
        return Measurement(
            latencies_ms=[t * 1e3 for t in latencies],
            service_s=latencies,
            attempted=len(latencies),
            failed=quarantined,
            details={"n_frames": float(self._n_frames)},
        )

    def verify(self, m: Measurement) -> List[str]:
        problems = [f"first vs last build: {line}"
                    for line in diff_reconstruction(self._first, self._last)]
        if m.failed:
            problems.append(f"{m.failed} build(s) quarantined sessions")
        m.details["hallway_f"] = self._quality.hallway_f
        m.details["room_iou"] = self._quality.room_iou_mean
        if self.sizes.check_accuracy:
            cell = self.sizes.cold.key
            baseline = json.loads(ACCURACY_BASELINE.read_text())["cells"][cell]
            problems += compare_metric_bands(
                self._quality.to_json(), baseline,
                SCORE_TOLERANCES, ERROR_TOLERANCES, label=cell,
            )
        return problems

    def maps_digest(self) -> Optional[str]:
        return result_digest(self._first)


# ----------------------------------------------------------------------
# serve_read and live
# ----------------------------------------------------------------------


class _Serving(Workload):
    """Shard maps behind the query handlers, fed by an open-loop stream."""

    def _campaign(self, seed: int) -> Tuple[list, int]:
        """Every serving session under ``seed``'s noise, in upload order
        (user by user, buildings interleaved), and how many of them the
        first user uploaded."""
        by_user: Dict[int, list] = {}
        for spec in self.sizes.serve:
            sessions = add_sensor_noise(rendered_sessions(self.cache, spec), seed)
            users = list(dict.fromkeys(s.user_id for s in sessions))
            for rank, user in enumerate(users):
                by_user.setdefault(rank, []).extend(
                    s for s in sessions if s.user_id == user
                )
        order = [s for rank in sorted(by_user) for s in by_user[rank]]
        return order, len(by_user[0])

    def prepare(self) -> str:
        self.order, n_first = self._campaign(self.seed)
        self.first_user = self.order[:n_first]
        self.pools = {
            spec.building: [
                frame
                for s in rendered_sessions(self.cache, spec) if s.task == "SWS"
                for frame in s.frames
            ]
            for spec in self.sizes.held_out
        }
        self._drawn = {building: 0 for building in self.pools}
        self._warm_rng = np.random.default_rng([self.seed, 1])
        self._endpoints: Dict[object, Tuple[list, list]] = {}
        return inputs_digest(
            self.order, *self.pools.values(), (self.sizes.qps, self.seed)
        )

    def _ingest(self, sessions) -> None:
        self.handlers = QueryHandlers()
        self.manager = ShardManager()
        for session in sessions:
            self.manager.ingest_session(session)
        self.manager.refresh_all(0.0)

    def _query_endpoints(self) -> None:
        """Route starts (skeleton cells) and destinations (placed rooms)."""
        if self._endpoints:
            return
        for shard in self.manager.shards():
            result = shard.current().result
            sk = result.skeleton
            rows, cols = np.nonzero(sk.skeleton)
            starts = [
                Point(sk.bounds.min_x + (c + 0.5) * sk.cell_size,
                      sk.bounds.min_y + (r + 0.5) * sk.cell_size)
                for r, c in zip(rows.tolist()[::7], cols.tolist()[::7])
            ]
            rooms = [r.name for r in result.floorplan.rooms if r.name]
            self._endpoints[shard.key] = (rooms, starts)

    def _novel_frame(self, building: str):
        """A pool frame under fresh sensor noise: content never seen before."""
        index = self._drawn[building]
        self._drawn[building] += 1
        pool = self.pools[building]
        return noisy_frame(
            pool[index % len(pool)],
            noise_rng(self.seed, f"query:{building}:{index}"),
        )

    def _payload(self, kind: str, key, rng: np.random.Generator):
        if kind == "locate":
            return LocateQuery(frame=self._novel_frame(key.building))
        if kind == "route":
            rooms, starts = self._endpoints[key]
            return RouteQuery(
                start=starts[int(rng.integers(len(starts)))],
                room_name=rooms[int(rng.integers(len(rooms)))],
            )
        return None

    def _answer(self, kind: str, key, payload):
        return self.handlers.handle(kind, self.manager.get(key).current(), payload)

    def _batch(self) -> List[Tuple[str, object, object]]:
        """Five queries of each kind per shard, with fresh payloads.

        Five rounds take a few hundred milliseconds: long enough that one
        slow locate does not decide the warm-up's time.
        """
        self._query_endpoints()
        return [
            (kind, key, self._payload(kind, key, self._warm_rng))
            for _ in range(5)
            for key in self.manager.keys() for kind in QueryHandlers.KINDS
        ]

    def warmup(self) -> float:
        batch = self._batch()
        t0 = time.perf_counter()
        for query in batch:
            self._answer(*query)
        return time.perf_counter() - t0

    def profile_op(self) -> Callable[[], object]:
        batch = self._batch()
        return lambda: [self._answer(*query) for query in batch]

    def _queries(self, seconds: float, seed: int) -> List[loop.Request]:
        self._query_endpoints()
        profile = LoadProfile(duration=seconds, qps=self.sizes.qps, seed=seed)
        return [
            loop.Request(
                r.arrival, r.kind,
                functools.partial(self._answer, r.kind, r.shard_key, r.payload),
            )
            for r in generate_arrivals(profile, self.manager.keys(), self._payload)
        ]

    def _summarize(
        self, loops: List[List[loop.Outcome]], op_kinds: Tuple[str, ...]
    ) -> Measurement:
        """Outcomes of one or more open loops; the timed operations are
        those whose kind is in ``op_kinds``."""
        outcomes = [o for played in loops for o in played]
        queries = [o for o in outcomes if o.kind in QueryHandlers.KINDS]
        ops = [o for o in outcomes if o.kind in op_kinds]
        locates = [o.result.matched for o in queries if o.kind == "locate" and o.ok]
        routes = [o.result.found for o in queries if o.kind == "route" and o.ok]
        failures = [o for o in outcomes if not o.ok]
        read_ms = [o.latency * 1e3 for o in queries]
        return Measurement(
            latencies_ms=[o.latency * 1e3 for o in ops],
            service_s=[o.service for o in ops if o.ok],
            attempted=len(outcomes),
            failed=len(failures),
            details={
                "query_p50_ms": loop.median(read_ms),
                "query_tail_ms": loop.tail(read_ms),
                "lag_p99_ms": loop.tail([o.lag for o in outcomes]) * 1e3,
                "backlog_max": float(max(loop.backlog_max(p) for p in loops)),
                "locate_matched_ratio": float(np.mean(locates)) if locates else 0.0,
                "route_found_ratio": float(np.mean(routes)) if routes else 0.0,
            },
            problems=[f"{o.kind} at {o.due:.3f}s: {o.error}" for o in failures[:5]],
        )

    def verify(self, m: Measurement) -> List[str]:
        problems = list(m.problems)
        for key in ("locate_matched_ratio", "route_found_ratio"):
            if m.details[key] <= 0.0:
                problems.append(f"{key} is 0: the maps answer nothing")
        return problems

    def maps_digest(self) -> Optional[str]:
        return hashlib.sha1("".join(
            result_digest(shard.current().result) for shard in self.manager.shards()
        ).encode()).hexdigest()


class ServeRead(_Serving):
    name = "serve_read"

    def setup(self) -> None:
        self._ingest(self.order)

    def measure(self, seconds: float) -> Measurement:
        return self._summarize(
            [loop.run_open_loop(self._queries(seconds, self.seed))],
            QueryHandlers.KINDS,
        )


class Live(_Serving):
    name = "live"
    #: The upload campaign plays this many times per run, each time on
    #: freshly rebuilt initial maps and under new sensor noise, so a run
    #: times twice as many uploads and their median steadies.
    CYCLES = 2

    def setup(self) -> None:
        self._ingest(self.first_user)

    def _upload(self, session, now: float) -> int:
        self.manager.ingest_session(session)
        return len(self.manager.refresh_all(now))

    def measure(self, seconds: float) -> Measurement:
        window = seconds / self.CYCLES
        loops: List[List[loop.Outcome]] = []
        for cycle in range(self.CYCLES):
            if cycle:
                self.order = self.first_user
                self._ingest(self.first_user)
                order, n_first = self._campaign(self._sub_seed(cycle))
                self.order = self.first_user + order[n_first:]
            uploads = self.order[len(self.first_user):]
            spacing = window / len(uploads)
            schedule = [
                loop.Request((k + 0.5) * spacing, "upload",
                             functools.partial(self._upload, s, (k + 0.5) * spacing))
                for k, s in enumerate(uploads)
            ]
            queries = self._queries(window, self._sub_seed(cycle))
            loops.append(loop.run_open_loop(queries + schedule))
        return self._summarize(loops, ("upload",))

    def verify(self, m: Measurement) -> List[str]:
        """The live maps must equal maps built from the same uploads at once."""
        problems = super().verify(m)
        reference = ShardManager()
        for session in self.order:
            reference.ingest_session(session)
        reference.refresh_all(0.0)
        for key in self.manager.keys():
            problems += [
                f"{key.building} live vs batch: {line}"
                for line in diff_reconstruction(
                    self.manager.get(key).current().result,
                    reference.get(key).current().result,
                )
            ]
        return problems


# ----------------------------------------------------------------------
# fleet
# ----------------------------------------------------------------------


class Fleet(Workload):
    name = "fleet"

    def prepare(self) -> str:
        cfg = self.sizes.fleet
        name = f"fleet-{'-'.join(cfg.buildings)}-u{cfg.users_per_building}-b{cfg.seed}"
        self._sessions = pickle.loads(
            self.cache.blob(name, lambda: build_fleet_crowd(cfg)[0])
        )
        central = FleetNode("central", config=cfg.evidence)
        for session in self._sessions:
            central.ingest_session(session)
        self._central = central.fused_map().digest()
        return inputs_digest(self._sessions, self.seed)

    def _fresh(self, building: Optional[str] = None) -> list:
        """New session objects (sharing their arrays) for one mesh.

        Nothing a mesh might memoise on a session object can carry over
        to the next mesh; copying the arrays too would cost as much as a
        mesh converging.
        """
        return [copy.copy(s) for s in self._sessions
                if building is None or s.building == building]

    def _converge(self, sessions, n_nodes: int, seed: int):
        """Node construction to a converged mesh; ``(seconds, mesh, converged)``."""
        cfg = self.sizes.fleet
        t0 = time.perf_counter()
        nodes = [FleetNode(f"node{i:02d}", config=cfg.evidence) for i in range(n_nodes)]
        slices = slice_sessions(sessions, n_nodes, overlap=cfg.overlap, seed=seed)
        for node, part in zip(nodes, slices):
            for session in part:
                node.ingest_session(session)
        mesh = GossipMesh(
            nodes,
            link_model=LinkFaultModel(
                seed=seed, base_latency=cfg.base_latency,
                latency_jitter=cfg.latency_jitter, loss_rate=cfg.loss_rate,
            ),
            config=GossipConfig(
                seed=seed, round_interval=cfg.round_interval, fanout=cfg.fanout
            ),
        )
        converged = False
        for round_number in range(1, cfg.max_rounds + 1):
            mesh.run_round(round_number * cfg.round_interval)
            if mesh.converged():
                converged = True
                break
        return time.perf_counter() - t0, mesh, converged

    def warmup(self) -> float:
        sessions = self._fresh(self.sizes.fleet.buildings[0])
        return self._converge(sessions, 3, self._sub_seed(1))[0]

    def profile_op(self) -> Callable[[], object]:
        sessions = self._fresh()
        return lambda: self._converge(
            sessions, self.sizes.fleet.n_nodes, self._sub_seed(0, 0)
        )

    def measure(self, seconds: float) -> Measurement:
        """Meshes sliced and seeded afresh each time, until the budget is spent."""
        latencies, rounds, nbytes, problems = [], [], [], []
        deadline = time.perf_counter() + seconds
        while _another(latencies, deadline):
            taken, mesh, converged = self._converge(
                self._fresh(), self.sizes.fleet.n_nodes,
                self._sub_seed(0, len(latencies)),
            )
            latencies.append(taken)
            rounds.append(mesh.round_index)
            nbytes.append(mesh.telemetry.value("fleet_gossip_bytes_sent"))
            if not converged:
                problems.append(f"mesh {len(latencies)} did not converge")
        # The last mesh's fused maps must match the central reference.
        fused = {node.fused_map().digest() for node in mesh.nodes}
        if fused != {self._central}:
            problems.append(f"last mesh: {len(fused)} distinct fused maps, "
                            "not the central node's")
        return Measurement(
            latencies_ms=[t * 1e3 for t in latencies],
            service_s=latencies,
            attempted=len(latencies),
            failed=len(problems),
            details={"rounds_median": loop.median(rounds),
                     "bytes_median": loop.median(nbytes)},
            problems=problems,
        )

    def verify(self, m: Measurement) -> List[str]:
        return list(m.problems)


WORKLOADS = {w.name: w for w in (ColdBuild, ServeRead, Live, Fleet)}
