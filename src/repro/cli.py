"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``demo``        build a building, simulate a crowd, reconstruct, print
                  the ASCII floor plan and quality metrics;
- ``generate``    simulate a crowd dataset and save it to a .npz bundle;
- ``reconstruct`` load a saved dataset, run the pipeline, report metrics;
- ``buildings``   list the available procedural buildings;
- ``serve-sim``   build shards from simulated crowds, then drive seeded
                  open-loop traffic through the serving layer and print
                  the SLO report (deterministic per seed);
- ``fleet-sim``   slice a multi-building crowd across N simulated ingest
                  nodes, gossip evidence summaries over fault-injected
                  links, and print the deterministic convergence report
                  (rounds-to-converge, bytes gossiped, per-node
                  divergence; byte-equal across same-seed runs).
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional


def _add_demo(subparsers) -> None:
    p = subparsers.add_parser("demo", help="end-to-end demo on one building")
    p.add_argument("--building", default="Lab1",
                   choices=["Lab1", "Lab2", "Gym", "Office"])
    p.add_argument("--users", type=int, default=5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--layout-samples", type=int, default=2000)


def _add_generate(subparsers) -> None:
    p = subparsers.add_parser("generate", help="simulate and save a dataset")
    p.add_argument("output", help="path of the .npz bundle to write")
    p.add_argument("--building", default="Lab1",
                   choices=["Lab1", "Lab2", "Gym", "Office"])
    p.add_argument("--users", type=int, default=5)
    p.add_argument("--sws-per-user", type=int, default=3)
    p.add_argument("--srs-per-user", type=int, default=2)
    p.add_argument("--night-fraction", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)


def _add_reconstruct(subparsers) -> None:
    p = subparsers.add_parser("reconstruct",
                              help="run the pipeline on a saved dataset")
    p.add_argument("dataset", help="path of a .npz bundle from 'generate'")
    p.add_argument("--layout-samples", type=int, default=2000)


def _add_buildings(subparsers) -> None:
    subparsers.add_parser("buildings", help="list procedural buildings")


def _add_serve_sim(subparsers) -> None:
    p = subparsers.add_parser(
        "serve-sim",
        help="simulate the sharded map-serving layer under seeded load",
    )
    p.add_argument("--building", action="append", default=None,
                   choices=["Lab1", "Lab2", "Gym", "Office"],
                   help="shard source building (repeatable; default: Lab1)")
    p.add_argument("--users", type=int, default=2,
                   help="simulated crowd size per building (default 2)")
    p.add_argument("--layout-samples", type=int, default=300)
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the crowd, the traffic and the router")
    p.add_argument("--duration", type=float, default=30.0,
                   help="virtual seconds of traffic (default 30)")
    p.add_argument("--qps", type=float, default=50.0,
                   help="mean Poisson arrival rate (default 50)")
    p.add_argument("--replicas", type=int, default=2,
                   help="serving replicas per shard (default 2)")
    p.add_argument("--queue-capacity", type=int, default=32,
                   help="per-shard admission queue bound (default 32)")
    p.add_argument("--slo-p99", type=float, default=1.0,
                   help="p99 latency target in virtual seconds (default 1.0)")
    p.add_argument("--refresh-interval", type=float, default=5.0,
                   help="scheduler refresh-and-publish period (default 5)")
    p.add_argument("--stub", action="store_true",
                   help="skip reconstruction; serve stub snapshots "
                        "(routing/SLO smoke mode)")
    p.add_argument("--execute", choices=["model", "real"], default="model",
                   help="'real' also runs each admitted query's handler")


def _add_fleet_sim(subparsers) -> None:
    p = subparsers.add_parser(
        "fleet-sim",
        help="simulate N ingest nodes gossiping map evidence to convergence",
    )
    p.add_argument("--building", action="append", default=None,
                   choices=["Lab1", "Lab2", "Gym", "Office"],
                   help="crowd source building (repeatable; "
                        "default: Lab1 + Lab2)")
    p.add_argument("--nodes", type=int, default=4,
                   help="simulated ingest nodes (default 4)")
    p.add_argument("--users", type=int, default=3,
                   help="crowd size per building (default 3)")
    p.add_argument("--overlap", type=float, default=0.25,
                   help="probability a session is seen by a second node "
                        "(default 0.25)")
    p.add_argument("--seed", type=int, default=0,
                   help="seeds the crowd, the slicing, the mesh and "
                        "the links")
    p.add_argument("--max-rounds", type=int, default=64,
                   help="gossip round budget (default 64)")
    p.add_argument("--fanout", type=int, default=1,
                   help="peers pushed to per node per round (default 1)")
    p.add_argument("--loss", type=float, default=0.0,
                   help="per-message link loss rate (default 0)")
    p.add_argument("--latency", type=float, default=0.05,
                   help="base one-way link latency, virtual s (default 0.05)")
    p.add_argument("--jitter", type=float, default=0.02,
                   help="uniform latency jitter, virtual s (default 0.02)")
    p.add_argument("--partition", action="append", default=None,
                   metavar="START:END:G0|G1",
                   help="partition window, e.g. '2:6:0,1|2,3' splits node "
                        "indices {0,1} from {2,3} during rounds 2-6 "
                        "(repeatable)")
    p.add_argument("--local-maps", action="store_true",
                   help="also run a private ShardManager serving stack "
                        "per node")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="also write the full report as canonical JSON")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CrowdMap: indoor floor plans from crowdsourced "
                    "sensor-rich videos (ICDCS 2015 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    _add_demo(subparsers)
    _add_generate(subparsers)
    _add_reconstruct(subparsers)
    _add_buildings(subparsers)
    _add_serve_sim(subparsers)
    _add_fleet_sim(subparsers)
    return parser


def _report(result, plan) -> None:
    from repro.eval import evaluate_hallway_shape, evaluate_rooms
    from repro.eval.report import render_table

    print("\nReconstructed floor plan ('#' hallway, letters rooms):\n")
    print(result.floorplan.render_ascii(max_width=90))
    hallway = evaluate_hallway_shape(result.skeleton, plan)
    rooms = evaluate_rooms(
        result.layouts, [p.room_hint for p in result.panoramas], plan,
        result.floorplan,
    )
    print()
    print(
        render_table(
            "Quality vs ground truth",
            ["metric", "value"],
            [
                ["hallway precision", f"{hallway.precision:.1%}"],
                ["hallway recall", f"{hallway.recall:.1%}"],
                ["hallway F-measure", f"{hallway.f_measure:.1%}"],
                ["rooms reconstructed", len(result.layouts)],
                ["mean room area error", f"{rooms.mean_area_error():.1%}"],
                ["mean aspect ratio error",
                 f"{rooms.mean_aspect_ratio_error():.1%}"],
                ["mean room location error",
                 f"{rooms.mean_location_error():.2f} m"],
            ],
        )
    )


def cmd_demo(args) -> int:
    from repro.core import CrowdMapConfig, CrowdMapPipeline
    from repro.world import CrowdConfig, generate_crowd_dataset
    from repro.world.buildings import BUILDING_BUILDERS

    plan = BUILDING_BUILDERS[args.building]()
    print(f"Simulating {args.users} users in {plan.name} ...")
    t0 = time.perf_counter()
    dataset = generate_crowd_dataset(
        plan, CrowdConfig(n_users=args.users, seed=args.seed)
    )
    print(f"  {len(dataset.sessions)} sessions, {dataset.total_frames()} "
          f"frames ({time.perf_counter() - t0:.1f} s)")
    config = CrowdMapConfig().with_overrides(layout_samples=args.layout_samples)
    print("Reconstructing ...")
    result = CrowdMapPipeline(config).run(dataset)
    _report(result, plan)
    return 0


def cmd_generate(args) -> int:
    from repro.world import CrowdConfig, generate_crowd_dataset
    from repro.world.buildings import BUILDING_BUILDERS
    from repro.world.dataset_io import save_dataset

    plan = BUILDING_BUILDERS[args.building]()
    print(f"Simulating {args.users} users in {plan.name} ...")
    dataset = generate_crowd_dataset(
        plan,
        CrowdConfig(
            n_users=args.users,
            sws_per_user=args.sws_per_user,
            srs_rooms_per_user=args.srs_per_user,
            night_fraction=args.night_fraction,
            seed=args.seed,
        ),
    )
    save_dataset(dataset, args.output)
    print(f"Wrote {len(dataset.sessions)} sessions "
          f"({dataset.total_frames()} frames) to {args.output}")
    return 0


def cmd_reconstruct(args) -> int:
    from repro.core import CrowdMapConfig, CrowdMapPipeline
    from repro.world.dataset_io import load_dataset

    print(f"Loading {args.dataset} ...")
    dataset = load_dataset(args.dataset)
    config = CrowdMapConfig().with_overrides(layout_samples=args.layout_samples)
    print(f"Reconstructing {dataset.building} from "
          f"{len(dataset.sessions)} sessions ...")
    result = CrowdMapPipeline(config).run(dataset)
    _report(result, dataset.plan)
    return 0


def _real_payload_factory(manager, frames_by_key):
    """Seeded real-query payloads: frames to locate, rooms to route to."""
    import numpy as np

    from repro.geometry.primitives import Point
    from repro.serving import LocateQuery, RouteQuery

    rooms = {}
    starts = {}
    for shard in manager.shards():
        result = shard.current().result
        rooms[shard.key] = [r.name for r in result.floorplan.rooms if r.name]
        sk = result.skeleton
        rr, cc = np.nonzero(sk.skeleton)
        starts[shard.key] = [
            Point(sk.bounds.min_x + (c + 0.5) * sk.cell_size,
                  sk.bounds.min_y + (r + 0.5) * sk.cell_size)
            for r, c in zip(rr.tolist()[::7], cc.tolist()[::7])
        ]
        if not rooms[shard.key] or not starts[shard.key]:
            raise SystemExit(
                f"shard {shard.key.building}/{shard.key.floor} reconstructed "
                "no rooms/skeleton to query; increase --users"
            )

    def payload_for(kind, key, rng):
        if kind == "locate":
            frames = frames_by_key[key]
            return LocateQuery(frame=frames[int(rng.integers(len(frames)))])
        if kind == "route":
            return RouteQuery(
                start=starts[key][int(rng.integers(len(starts[key])))],
                room_name=rooms[key][int(rng.integers(len(rooms[key])))],
            )
        return None

    return payload_for


def cmd_serve_sim(args) -> int:
    from repro.backend.scheduler import SimulatedScheduler
    from repro.core import CrowdMapConfig
    from repro.serving import (
        LoadProfile,
        ServingConfig,
        ShardManager,
        render_report,
        run_serving_simulation,
    )

    if args.stub and args.execute == "real":
        print("--stub serves no reconstructions, so --execute real has "
              "nothing to run handlers against", file=sys.stderr)
        return 2
    buildings = args.building or ["Lab1"]
    config = CrowdMapConfig().with_overrides(layout_samples=args.layout_samples)
    manager = ShardManager(config=config, n_replicas=args.replicas)
    scheduler = SimulatedScheduler()
    extra_events = []
    frames_by_key = {}
    payload_for = None

    if args.stub:
        for name in buildings:
            manager.shard_for(name, 1).publish_stub(0.0)
        print(f"serving {len(buildings)} stub shard(s) (no reconstruction)")
    else:
        from repro.world import CrowdConfig, generate_crowd_dataset
        from repro.world.buildings import BUILDING_BUILDERS

        for name in buildings:
            plan = BUILDING_BUILDERS[name]()
            print(f"Simulating {args.users} users in {plan.name} ...")
            dataset = generate_crowd_dataset(
                plan, CrowdConfig(n_users=args.users, seed=args.seed)
            )
            sessions = [
                s for s in dataset.sessions if s.task in ("SWS", "SRS")
            ]
            # Hold the last session back and land it mid-traffic: the
            # scheduler's refresh job publishes the next version while
            # requests are in flight (versioned serving, live).
            held_back = sessions[-1] if len(sessions) > 1 else None
            ingested = sessions[:-1] if held_back else sessions
            for session in ingested:
                manager.ingest_session(session)
            shard = manager.shard_for(
                sessions[0].building, sessions[0].floor
            )
            frames_by_key[shard.key] = [
                frame
                for session in ingested if session.task == "SWS"
                for frame in session.frames[::5]
            ]
            print(f"  shard {shard.key.building}/{shard.key.floor}: "
                  f"{shard.sessions_ingested} sessions")
            if held_back is not None:
                extra_events.append(
                    (args.duration / 2.0,
                     lambda s=held_back: manager.ingest_session(s))
                )
        print("Publishing initial snapshots ...")
        manager.refresh_all(0.0)
        if args.execute == "real":
            payload_for = _real_payload_factory(manager, frames_by_key)

    manager.attach_refresh_job(scheduler, args.refresh_interval)
    profile = LoadProfile(
        duration=args.duration, qps=args.qps, seed=args.seed
    )
    serving = ServingConfig(
        queue_capacity=args.queue_capacity,
        slo_p99=args.slo_p99,
        seed=args.seed,
    )
    print(f"Driving ~{args.qps:g} qps for {args.duration:g} virtual seconds "
          f"across {len(manager.keys())} shard(s) ...")
    report = run_serving_simulation(
        manager,
        config=serving,
        profile=profile,
        scheduler=scheduler,
        scheduler_tick=min(1.0, args.refresh_interval),
        execute=args.execute,
        extra_events=extra_events,
        payload_for=payload_for,
    )
    print(render_report(report))
    verdict = "met" if report["slo"]["met"] else "VIOLATED"
    print(f"\nSLO p99 <= {report['slo']['p99_target']:g}s: {verdict} "
          f"(observed {report['slo']['p99_observed']:g}s, "
          f"shed rate {report['requests']['shed_rate']:.1%})")
    return 0


def cmd_buildings(_args) -> int:
    from repro.world.buildings import BUILDING_BUILDERS

    for name, builder in BUILDING_BUILDERS.items():
        plan = builder()
        print(
            f"{name}: {plan.bounds.width:.0f} x {plan.bounds.height:.0f} m, "
            f"{len(plan.rooms)} rooms, {len(plan.walls)} wall faces"
        )
    return 0


def _parse_partition(value: str, n_nodes: int):
    """Parse ``START:END:0,1|2,3`` into a node-id Partition."""
    from repro.backend.faults import Partition

    parts = value.split(":")
    if len(parts) != 3:
        raise ValueError(
            f"partition {value!r} must look like START:END:G0|G1"
        )
    start, end = float(parts[0]), float(parts[1])
    groups = []
    for group in parts[2].split("|"):
        indices = [int(idx) for idx in group.split(",") if idx != ""]
        bad = [idx for idx in indices if not 0 <= idx < n_nodes]
        if bad:
            raise ValueError(
                f"partition {value!r} names node index {bad[0]} but the "
                f"fleet has {n_nodes} nodes"
            )
        groups.append(tuple(f"node{idx:02d}" for idx in indices))
    return Partition(start=start, end=end, groups=tuple(groups))


def cmd_fleet_sim(args) -> int:
    from repro.fleet import (
        FleetSimConfig,
        render_fleet_report,
        report_json,
        run_fleet_simulation,
    )

    buildings = tuple(args.building or ["Lab1", "Lab2"])
    try:
        partitions = tuple(
            _parse_partition(value, args.nodes)
            for value in (args.partition or [])
        )
    except ValueError as exc:
        print(f"fleet-sim: {exc}", file=sys.stderr)
        return 2
    config = FleetSimConfig(
        buildings=buildings,
        n_nodes=args.nodes,
        users_per_building=args.users,
        overlap=args.overlap,
        seed=args.seed,
        max_rounds=args.max_rounds,
        fanout=args.fanout,
        loss_rate=args.loss,
        base_latency=args.latency,
        latency_jitter=args.jitter,
        partitions=partitions,
        maintain_local_maps=args.local_maps,
    )
    report = run_fleet_simulation(config, log=print)
    print()
    print(render_fleet_report(report))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(report_json(report))
        print(f"\nreport JSON written to {args.json}")
    if not report["converged"]:
        return 1
    problems = [
        problem
        for entry in report["equivalence"].values()
        for problem in entry["problems"]
    ]
    if problems:
        for problem in problems:
            print(f"fleet-sim: {problem}", file=sys.stderr)
        return 1
    return 0


_COMMANDS = {
    "demo": cmd_demo,
    "generate": cmd_generate,
    "reconstruct": cmd_reconstruct,
    "buildings": cmd_buildings,
    "serve-sim": cmd_serve_sim,
    "fleet-sim": cmd_fleet_sim,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
