"""The ``knactor`` command-line tool.

Subcommands:

- ``knactor demo retail|smarthome``   -- run an example app end-to-end,
- ``knactor describe retail|smarthome`` -- print the runtime topology
  (knactors, stores, schemas, grants),
- ``knactor table1``                  -- regenerate Table 1,
- ``knactor table2 [--orders N]``     -- regenerate Table 2,
- ``knactor analyze FILE``            -- statically analyze a DXG file,
- ``knactor bench shard-scaling|zero-copy|...|federation`` -- run a benchmark,
- ``knactor serve retail --realtime [--port N]`` -- serve the retail app
  over a real TCP socket on the wall-clock backend,
- ``knactor trace export FILE``       -- Chrome trace-event JSON of a run,
- ``knactor trace request KEY``       -- one order's causal DAG + critical path,
- ``knactor top``                     -- text dashboard of every metric,
- ``knactor version``.
"""

import argparse
import sys

from repro._version import __version__


def cmd_version(_args):
    print(f"knactor {__version__}")
    return 0


def cmd_demo(args):
    if args.app == "retail":
        if args.chaos:
            # Chaos always runs on the apiserver backend: its WAL makes
            # crash recovery lossless, which is the property the run
            # asserts.  MemKV loses state on crash by design.
            from repro.faults.chaos import describe_report, run_retail_chaos

            report = run_retail_chaos(
                seed=args.chaos_seed, orders=args.orders
            )
            print(describe_report(report))
            return 0 if report["converged"] else 1
        from repro.apps.retail.knactor_app import RetailKnactorApp
        from repro.apps.retail.workload import OrderWorkload
        from repro.core.optimizer import PROFILES

        # The SLO below judges exchange spans: only a plane mints them.
        app = RetailKnactorApp.build(profile=PROFILES[args.profile],
                                     obs=args.telemetry or None)
        workload = OrderWorkload(seed=7)
        for _ in range(args.orders):
            key, data = workload.next_order()
            data["email"] = "shopper@example.com"
            app.env.run(until=app.place_order(key, data))
        app.run_until_quiet(max_seconds=60.0)
        for key in app.orders_placed:
            order = app.env.run(until=app.order(key))["data"]
            print(
                f"{key}: status={order['status']} "
                f"tracking={order.get('trackingID')} "
                f"shippingCost={order.get('shippingCost')}"
            )
        if args.telemetry:
            import json

            from repro.obs.slo import TraceLatencySLO

            print("\ntelemetry snapshot:")
            print(json.dumps({**app.runtime.stats(),
                              "obs": app.runtime.obs.snapshot()}, indent=2))
            spec = TraceLatencySLO(
                "exchange-latency", integrator="retail-cast",
                target_seconds=0.1,
            )
            print(spec.evaluate_trace(app.tracer).describe())
    else:
        from repro.apps.smarthome import SmartHomeKnactorApp

        app = SmartHomeKnactorApp.build()
        app.run(until=130.0)
        print(f"lamp changes: {len(app.lamp_device.changes)}")
        print(f"house kWh   : {app.house.kwh_total:.6f}")
        [report] = app.env.run(until=app.energy_report())
        print(f"analytics   : {report}")
    return 0


def cmd_describe(args):
    if args.app == "retail":
        from repro.apps.retail.knactor_app import RetailKnactorApp
        from repro.core.optimizer import K_REDIS

        app = RetailKnactorApp.build(profile=K_REDIS)
        print(app.runtime.describe())
    else:
        from repro.apps.smarthome import SmartHomeKnactorApp

        app = SmartHomeKnactorApp.build()
        print(app.runtime.describe())
    return 0


def cmd_table1(_args):
    from repro.apps.retail.tasks import all_tasks
    from repro.metrics.report import Table

    table = Table(
        ["Task", "API ops", "KN ops", "API files", "KN files",
         "API SLOC", "KN SLOC"],
        title="Table 1: composition cost",
    )
    for comparison in all_tasks():
        table.add_row(*comparison.row())
    print(table.render())
    return 0


def cmd_table2(args):
    from repro.apps.retail.measure import run_knactor_setup, run_rpc_setup
    from repro.metrics.latency import STAGES
    from repro.metrics.report import Table

    table = Table(["Setup"] + list(STAGES),
                  title=f"Table 2: latency breakdown (ms, {args.orders} requests)")
    breakdowns = {"RPC": run_rpc_setup(orders=args.orders)}
    for setup in ("K-apiserver", "K-redis", "K-redis-udf"):
        breakdowns[setup] = run_knactor_setup(setup, orders=args.orders)
    for name, bd in breakdowns.items():
        row = bd.row()
        table.add_row(
            name,
            *[None if row[s] is None else round(row[s], 2) for s in STAGES],
        )
    print(table.render())
    return 0


def cmd_analyze(args):
    from repro.core.dxg import analyze, parse_dxg, standard_functions
    from repro.core.dxg.planner import plan

    try:
        with open(args.file) as f:
            text = f.read()
        spec = parse_dxg(text)
    except Exception as exc:  # surfaced to the user, not a traceback
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report = analyze(spec, functions=standard_functions())
    print(f"inputs     : {', '.join(sorted(spec.aliases))}")
    print(f"assignments: {len(spec.assignments)}")
    for assignment in spec.assignments:
        print(f"  {assignment.describe()}")
    print(f"analysis   : {report.summary()}")
    print(plan(spec).describe())
    return 0 if report.ok else 1


def _run_traced_retail(profile, orders):
    """One seeded retail run with the observability plane attached."""
    from repro.apps.retail.knactor_app import RetailKnactorApp
    from repro.apps.retail.workload import OrderWorkload
    from repro.core.optimizer import PROFILES

    app = RetailKnactorApp.build(profile=PROFILES[profile], obs=True)
    workload = OrderWorkload(seed=7)
    for _ in range(orders):
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    return app


def cmd_trace_export(args):
    import json

    app = _run_traced_retail(args.profile, args.orders)
    # Each causal span, then its annotations as instants on its track.
    entries = app.tracer.to_chrome_trace()
    with open(args.output, "w") as f:
        json.dump({"traceEvents": entries}, f)
    print(f"wrote {len(entries)} trace events to {args.output}")
    print("open chrome://tracing (or https://ui.perfetto.dev) to view")
    return 0


def cmd_trace_request(args):
    app = _run_traced_retail(args.profile, args.orders)
    causal = app.runtime.obs.causal
    key = args.key
    trace_id = causal.find_trace(order=key)
    if trace_id is None and not key.startswith("order/"):
        trace_id = causal.find_trace(order=f"order/{key}")
    if trace_id is None:
        placed = ", ".join(app.orders_placed) or "none"
        print(f"error: no trace for order {key!r} (placed: {placed})",
              file=sys.stderr)
        return 1
    print(causal.request_report(trace_id))
    return 0


def cmd_top(args):
    if getattr(args, "slo", False):
        return _cmd_top_slo(args)
    if getattr(args, "elastic", False):
        return _cmd_top_elastic(args)
    app = _run_traced_retail(args.profile, args.orders)
    print(app.runtime.obs.dashboard())
    return 0


def _cmd_top_slo(args):
    """`knactor top --slo`: burn rates and error budget under load.

    Drives the sensor-fleet scenario through a seeded flash crowd with
    admission control armed -- the shed traffic burns the availability
    budget -- while a :class:`~repro.obs.slo.BurnRateTracker` samples
    good/total counts on the schedule clock.  Prints the SLO report,
    the per-window burn rates, and the error budget remaining for each
    objective.
    """
    from repro.flow import FlowConfig
    from repro.load import (
        FlashCrowd,
        LoadGenerator,
        SensorFleetLoadScenario,
        TrafficClass,
        ZipfKeys,
    )
    from repro.obs.slo import BurnRateTracker, evaluate

    devices = 5_000
    scenario = SensorFleetLoadScenario(
        devices=devices,
        flow=FlowConfig(admission_rate=60, admission_burst=20,
                        admission_queue_high=4),
    )
    classes = [
        TrafficClass(
            name="devices",
            arrivals=FlashCrowd(base_rate=25.0, spike_rate=300.0,
                                spike_at=1.0, spike_duration=0.8),
            keys=ZipfKeys(devices, key_format="device-{:06d}"),
            principal="device-fleet",
        ),
    ]
    specs = scenario.slos()
    tracker = BurnRateTracker(
        scenario.env, scenario.registry, specs, interval=0.25,
    )
    tracker.start()
    duration = 3.0

    # Stop sampling just past the load window: burn-rate windows then
    # reflect the loaded period, and the tracker's periodic tick stops
    # keeping the quiesce loop alive for its full budget.
    def _stop_tracker():
        yield scenario.env.timeout(duration + 0.5)
        tracker.sample()
        tracker.stop()

    scenario.env.process(_stop_tracker())
    result = LoadGenerator(scenario, classes, duration=duration, seed=7).run()
    report = evaluate(specs, scenario.registry, tracker=tracker,
                      scenario=scenario.name, env=scenario.env)

    summary = result.summary()
    print(f"load: {summary['offered']} offered, "
          f"{summary['completed']} ok, {summary['rejected']} rejected, "
          f"{summary['failed']} failed "
          f"(p50 {summary['p50_s'] * 1000:.2f} ms, "
          f"p99 {summary['p99_s'] * 1000:.2f} ms)")
    print(report.describe())
    print("burn rates (budget consumption vs sustainable, per window):")
    for spec in specs:
        budget = tracker.error_budget_remaining(spec)
        budget_txt = (f"{budget * 100:.1f}% budget left"
                      if budget is not None else "no data")
        print(f"  {spec.name}: {budget_txt}")
        for entry in tracker.burn_rates(spec):
            fmt = lambda burn: f"{burn:.2f}x" if burn is not None else "-"
            state = "ALERT" if entry["alert"] else "ok"
            print(f"    {entry['long_seconds']:g}s/"
                  f"{entry['short_seconds']:g}s window: "
                  f"long {fmt(entry['long_burn'])} "
                  f"short {fmt(entry['short_burn'])} "
                  f"(page at {entry['factor']:g}x) [{state}]")
    firing = tracker.alerts()
    print(f"alerts firing: {len(firing)}"
          + (" -- " + ", ".join(sorted({name for name, _ in firing}))
             if firing else ""))
    return 0


def _cmd_top_elastic(args):
    """`knactor top --elastic`: the dashboard of a live-reshard run.

    Runs the retail app on a sharded Object backend inside a cluster
    :class:`~repro.cluster.ShardFleet` whose autoscaler drives shard
    count from queue-depth load, then prints the metric dashboard --
    ring version, shard count, migration volume, and every scaling
    event next to the usual series.
    """
    from repro.apps.retail.knactor_app import RetailKnactorApp
    from repro.apps.retail.workload import OrderWorkload
    from repro.cluster import Cluster, ShardFleet
    from repro.core.optimizer import PROFILES
    from repro.store import AutoscalePolicy, Topology

    topology = Topology(
        shards=2, min_shards=1, max_shards=4,
        autoscale=AutoscalePolicy(target_queue_depth=2.0, interval=0.5,
                                  cooldown=1.0),
    )
    app = RetailKnactorApp.build(profile=PROFILES[args.profile], obs=True,
                                 topology=topology)
    backend = app.runtime.exchanges["object"].backend
    cluster = Cluster(app.env)
    fleet = ShardFleet(cluster, backend)
    app.runtime.obs.watch_autoscalers([fleet.autoscaler])
    fleet.start()
    workload = OrderWorkload(seed=7)
    for _ in range(args.orders):
        key, data = workload.next_order()
        app.env.run(until=app.place_order(key, data))
    app.run_until_quiet(max_seconds=60.0)
    fleet.stop()
    print(app.runtime.obs.dashboard())
    stats = fleet.stats()
    print(f"fleet: shards={stats['shards']} "
          f"ready_pods={stats['ready_pods']} "
          f"scaling_events={stats['scaling_events']} "
          f"reshards_driven={stats['reshards_driven']}")
    return 0


#: bench subcommand name -> module under benchmarks/.
BENCHMARKS = {
    "shard-scaling": "bench_shard_scaling",
    "zero-copy": "bench_zero_copy_delta",
    "obs-overhead": "bench_obs_overhead",
    "overload": "bench_overload",
    "txn-chaos": "bench_txn_chaos",
    "reshard": "bench_reshard",
    "realtime": "bench_realtime",
    "fleet": "bench_fleet",
    "federation": "bench_federation",
}


def cmd_serve(args):
    if args.app != "retail":
        print(f"error: no server for app {args.app!r}", file=sys.stderr)
        return 1
    if not args.realtime:
        print(
            "error: serving a real socket needs the wall-clock backend; "
            "pass --realtime",
            file=sys.stderr,
        )
        return 1
    from repro.apps.retail.rest_gateway import serve_retail
    from repro.core.optimizer import PROFILES
    from repro.store import Topology

    app, _gateway, listener = serve_retail(
        host=args.host, port=args.port, profile=PROFILES[args.profile],
        topology=Topology(shards=args.shards) if args.shards > 1 else None,
    )
    print(f"retail gateway listening on {listener.address} "
          f"(backend=realtime, shards={args.shards})")
    print("  POST /orders, GET /orders/{key}, GET /healthz, GET /metrics")
    print("Ctrl-C to stop.")
    try:
        app.env.run()
    except KeyboardInterrupt:
        pass
    finally:
        listener.stop()
        print(f"served {listener.connections_accepted} connection(s), "
              f"{len(app.orders_placed)} order(s) placed")
    return 0


def cmd_bench(args):
    name = BENCHMARKS.get(args.bench)
    if name is None:
        print(f"error: unknown benchmark {args.bench!r}", file=sys.stderr)
        return 1
    module = _load_benchmark(name)
    if module is None:
        print(
            f"error: benchmarks/{name}.py not found "
            "(run from a repository checkout)",
            file=sys.stderr,
        )
        return 1
    argv = ["--smoke"] if args.smoke else []
    if args.out:
        argv += ["--out", args.out]
    return module.main(argv)


def _load_benchmark(name):
    """Load a benchmark module from the repository's ``benchmarks/`` dir.

    Benchmarks live outside the installed package (they are artifacts of
    the checkout, like the CI workflow), so resolve them relative to the
    working directory first, then relative to the source tree.
    """
    import importlib.util
    from pathlib import Path

    candidates = [
        Path.cwd() / "benchmarks" / f"{name}.py",
        Path(__file__).resolve().parents[3] / "benchmarks" / f"{name}.py",
    ]
    for path in candidates:
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    return None


def build_parser():
    parser = argparse.ArgumentParser(
        prog="knactor", description="Knactor framework CLI"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("version").set_defaults(fn=cmd_version)

    demo = sub.add_parser("demo", help="run an example app")
    demo.add_argument("app", choices=["retail", "smarthome"])
    demo.add_argument("--profile", default="K-redis",
                      choices=["K-apiserver", "K-redis", "K-redis-udf"])
    demo.add_argument("--orders", type=int, default=3)
    demo.add_argument("--telemetry", action="store_true",
                      help="print a runtime snapshot and SLO report (retail)")
    demo.add_argument("--chaos", action="store_true",
                      help="run the retail app under a seeded fault schedule "
                           "(store crash, partition, drop window) and report "
                           "convergence")
    demo.add_argument("--chaos-seed", type=int, default=0,
                      help="seed for the fault schedule and workload "
                           "(default 0)")
    demo.set_defaults(fn=cmd_demo)

    describe = sub.add_parser("describe", help="print runtime topology")
    describe.add_argument("app", choices=["retail", "smarthome"])
    describe.set_defaults(fn=cmd_describe)

    sub.add_parser("table1", help="regenerate Table 1").set_defaults(fn=cmd_table1)

    table2 = sub.add_parser("table2", help="regenerate Table 2")
    table2.add_argument("--orders", type=int, default=10)
    table2.set_defaults(fn=cmd_table2)

    analyze = sub.add_parser("analyze", help="statically analyze a DXG file")
    analyze.add_argument("file")
    analyze.set_defaults(fn=cmd_analyze)

    bench = sub.add_parser("bench", help="run a performance benchmark")
    bench.add_argument("bench", choices=sorted(BENCHMARKS))
    bench.add_argument("--smoke", action="store_true",
                       help="small sweep (what CI runs)")
    bench.add_argument("--out", default=None,
                       help="output JSON path (default: repo root)")
    bench.set_defaults(fn=cmd_bench)

    serve = sub.add_parser(
        "serve", help="serve an app over a real TCP socket (realtime)"
    )
    serve.add_argument("app", choices=["retail"])
    serve.add_argument("--realtime", action="store_true",
                       help="run on the wall-clock asyncio backend "
                            "(required: sockets have no meaning in the sim)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks an ephemeral port)")
    serve.add_argument("--profile", default="K-redis",
                       choices=["K-apiserver", "K-redis", "K-redis-udf"])
    serve.add_argument("--shards", type=int, default=1,
                       help="Object-backend shard count")
    serve.set_defaults(fn=cmd_serve)

    trace = sub.add_parser(
        "trace", help="causal tracing over a seeded retail run"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)

    export = trace_sub.add_parser(
        "export", help="export causal + latency spans as Chrome trace JSON"
    )
    export.add_argument("output", help="path for the trace JSON file")
    export.add_argument("--orders", type=int, default=2)
    export.add_argument("--profile", default="K-redis",
                        choices=["K-apiserver", "K-redis", "K-redis-udf"])
    export.set_defaults(fn=cmd_trace_export)

    request = trace_sub.add_parser(
        "request", help="print one order's causal DAG and critical path"
    )
    request.add_argument("key", help="order key (e.g. order/o00001 or o00001)")
    request.add_argument("--orders", type=int, default=2)
    request.add_argument("--profile", default="K-redis",
                         choices=["K-apiserver", "K-redis", "K-redis-udf"])
    request.set_defaults(fn=cmd_trace_request)

    top = sub.add_parser(
        "top", help="text dashboard of every metric after a retail run"
    )
    top.add_argument("--orders", type=int, default=3)
    top.add_argument("--profile", default="K-redis",
                     choices=["K-apiserver", "K-redis", "K-redis-udf"])
    top.add_argument("--elastic", action="store_true",
                     help="run on an autoscaled shard fleet (live "
                          "resharding) and show ring/reshard metrics")
    top.add_argument("--slo", action="store_true",
                     help="drive the sensor fleet through a flash crowd "
                          "and show live burn rates plus error-budget "
                          "remaining per objective")
    top.set_defaults(fn=cmd_top)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
