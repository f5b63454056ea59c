"""Command-line interface over the :mod:`repro.api` session facade.

Subcommands cover the library's workflows end to end::

    python -m repro generate --dataset roadnet --out road.npz
    python -m repro enumerate --graph road.npz --query q4 --engine rads \
        --machines 10 --workers 4 [--json]     # alias: `repro run`
    python -m repro explain --query q4 [--engine rads] [--graph road.npz] \
        [--json]
    python -m repro plan --query q5 [--graph road.npz]
    python -m repro profile --graph road.npz
    python -m repro serve --graph road.npz --port 7463 [--threads 4]
    python -m repro submit --port 7463 --query q4 [--engine rads] [--json]
    python -m repro metrics --port 7463 [--format text] [--watch]
    python -m repro worker --port 7471 [--graph road.npz]

``worker`` starts a :mod:`repro.distributed` shard daemon; point
``enumerate``/``run`` (or ``serve``) at a roster of them with
``--backend socket --shards host:port,host:port`` to execute a query's
independent per-machine work across hosts.  Counts and stats are
bit-identical to the serial backend; a shard dying mid-run is survived
(``distributed.resubmits`` in the result counters).

``serve`` starts the :mod:`repro.service` query server (concurrent
scheduler + canonical-pattern result cache) over one graph; ``submit``
is the matching client — repeated or isomorphic queries report
``cache: hit``, ``--trace`` prints the execution's span tree (engine
rounds, executor batches, shard-worker tasks, with durations and
percent-of-parent), and ``--stats`` / ``--ping`` / ``--shutdown`` drive
the management ops.  ``metrics`` is the live observability client:
timing histograms (p50/p95/p99), the slow-query log, tenants and shard
health, printed once, polled with ``--watch``, or rendered as
Prometheus-style text with ``--format text``.

Queries are registered names (``q4``, human aliases like ``house``, any
case) or edge-list DSL (``"a-b, b-c, c-a"``; ``a:0-b:1`` attaches labels
— see docs/api.md for the grammar).  ``explain`` prints the engine's
chosen decomposition (units, matching order, symmetry-breaking
conditions, runner-up plans, and cost estimates when ``--graph`` is
given); with ``--json`` it emits ``QueryExplanation.to_dict()``.

``enumerate`` is a thin wrapper around the public API — equivalent to::

    import repro
    result = (repro.open("road.npz")
              .with_cluster(machines=10)
              .engine("rads").query("q4").run())

Engine and query names are resolved case-insensitively through
:func:`repro.api.default_registry` (aliases like ``wcoj`` or ``oracle``
work too); ``--json`` emits the run's :meth:`RunResult.to_dict` record as
one JSON document for downstream tooling.  ``--workers N`` runs the
simulated machines' independent work on ``N`` OS processes (the
:mod:`repro.runtime` process-pool backend); results are identical to the
default serial execution.

Graphs are read by extension: ``.npz`` (binary CSR), ``.edges`` (SNAP edge
list) or ``.adj`` (adjacency text).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from repro.api import (
    UnknownEngineError,
    UnknownQueryError,
    default_registry,
    open_session,
    resolve_pattern,
    resolve_query,
)
from repro.api import load_graph as _api_load_graph
from repro.bench.datasets import DATASETS, dataset
from repro.distributed.errors import DistributedError
from repro.graph.graph import Graph
from repro.graph.io import (
    save_adjacency_text,
    save_binary,
    save_edge_list,
)
from repro.query import best_execution_plan
from repro.query.plan_stats import estimate_plan, plan_space_summary


def load_graph(path: str) -> Graph:
    """Load a graph, dispatching on the file extension."""
    try:
        return _api_load_graph(path)
    except ValueError as exc:
        raise SystemExit(str(exc))


def _resolve_query(name: str):
    """Pattern for ``name`` (name or DSL), or a helpful SystemExit."""
    try:
        return resolve_pattern(name)
    except UnknownQueryError as exc:
        raise SystemExit(str(exc))


def _resolve_query_maybe_labeled(name: str):
    """Pattern or LabeledPattern for ``name``, or a helpful SystemExit."""
    try:
        return resolve_query(name)
    except UnknownQueryError as exc:
        raise SystemExit(str(exc))


def save_graph(graph: Graph, path: str) -> int:
    """Save a graph, dispatching case-insensitively on the file extension."""
    from pathlib import Path

    suffix = Path(path).suffix
    saver = {
        ".npz": save_binary,
        ".edges": save_edge_list,
        ".adj": save_adjacency_text,
    }.get(suffix.lower())
    if saver is None:
        raise SystemExit(
            f"unknown graph format {suffix or path!r} for {path}; "
            f"expected .npz, .edges or .adj (any case)"
        )
    return saver(graph, path)


def _cmd_generate(args: argparse.Namespace) -> int:
    graph = dataset(args.dataset, args.scale)
    nbytes = save_graph(graph, args.out)
    print(
        f"{args.dataset} (scale {args.scale}): {graph} "
        f"-> {args.out} ({nbytes} bytes)"
    )
    return 0


def _parse_shards(text: "str | None") -> "list[str] | None":
    """``host:port,host:port`` (or bare ports) -> shard address list."""
    if not text:
        return None
    return [part.strip() for part in text.split(",") if part.strip()]


def _cmd_enumerate(args: argparse.Namespace) -> int:
    graph = load_graph(args.graph)
    try:
        session = open_session(graph).with_cluster(
            machines=args.machines,
            # 0 keeps its historic meaning: no cap.
            memory_mb=args.memory_mb or None,
            stragglers={0: args.straggler} if args.straggler > 1.0 else None,
        ).with_workers(args.workers).configure(collect=args.show > 0)
        session.backend(args.backend, shards=_parse_shards(args.shards))
        session.engine(args.engine).query(args.query)
    # ValueError covers ConfigError, CapabilityError (label-incapable
    # or non-distributed engine) and the labeled-query-on-unlabeled-graph
    # complaint — all user input problems deserving a one-line message.
    except (ValueError, UnknownEngineError, UnknownQueryError) as exc:
        raise SystemExit(str(exc))
    try:
        with session:
            result = session.run()
    except DistributedError as exc:
        raise SystemExit(f"distributed backend failed: {exc}")
    # ConfigError (a ValueError) now surfaces at executor-build time for
    # a socket backend with neither --shards nor a registry.
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.json:
        payload = result.to_dict()
        if payload["embeddings"] is not None:
            payload["embeddings"] = sorted(
                payload["embeddings"]
            )[: args.show]
        payload["config"] = session.config.to_dict()
        print(json.dumps(payload, sort_keys=True))
        return 1 if result.failed else 0
    if result.failed:
        print(f"FAILED: {result.failure}")
        return 1
    print(result.summary())
    for emb in sorted(result.embeddings or [])[: args.show]:
        print("  ", emb)
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    pattern = _resolve_query(args.query)
    plan = best_execution_plan(pattern)
    print(f"query {pattern.name}: |V|={pattern.num_vertices} "
          f"|E|={pattern.num_edges}")
    summary = plan_space_summary(pattern)
    print(
        f"plan space: {summary['num_plans']} minimum-round plans "
        f"({summary['rounds']} rounds), scores "
        f"{summary['score_min']:.2f}..{summary['score_max']:.2f}"
    )
    if args.graph:
        graph = load_graph(args.graph)
        print(estimate_plan(pattern, plan, graph).describe())
    else:
        for i, unit in enumerate(plan.units):
            leaves = ",".join(map(str, unit.leaves))
            print(
                f"  round {i}: pivot u{unit.pivot} -> leaves {{{leaves}}}"
                f" ({unit.num_verification_edges} verification edges)"
            )
    print(f"matching order: {plan.matching_order()}")
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    query = _resolve_query_maybe_labeled(args.query)
    try:
        engine = default_registry().create(args.engine)
    except UnknownEngineError as exc:
        raise SystemExit(str(exc))
    graph = load_graph(args.graph) if args.graph else None
    explanation = engine.explain(query, graph=graph)
    if args.json:
        print(json.dumps(explanation.to_dict(), sort_keys=True))
    else:
        print(explanation)
    return 0


def _cmd_labeled(args: argparse.Namespace) -> int:
    from repro.enumeration.backtracking import EnumerationStats
    from repro.enumeration.labeled import LabeledPattern, labeled_embeddings
    from repro.graph.labeled import label_randomly

    graph = load_graph(args.graph)
    query = _resolve_query_maybe_labeled(args.query)
    data = label_randomly(graph, args.num_labels, seed=args.label_seed)
    if isinstance(query, LabeledPattern):
        # Labels came through the DSL ("a:0-b:1, ..."); --query-labels
        # would be a second, conflicting source.
        if args.query_labels is not None:
            raise SystemExit(
                f"query {args.query!r} already carries labels; "
                f"drop --query-labels"
            )
        pattern, qlabels = query.pattern, list(query.labels)
    else:
        pattern = query
        if args.query_labels is None:
            raise SystemExit(
                "--query-labels is required for unlabeled queries "
                "(or label the DSL: 'a:0-b:1, ...')"
            )
        try:
            qlabels = [int(x) for x in args.query_labels.split(",")]
        except ValueError:
            raise SystemExit(
                "--query-labels must be comma-separated integers"
            )
    if len(qlabels) != pattern.num_vertices:
        raise SystemExit(
            f"query {args.query!r} needs {pattern.num_vertices} labels, "
            f"got {len(qlabels)}"
        )
    if any(not 0 <= x < args.num_labels for x in qlabels):
        raise SystemExit(
            f"query labels must lie in [0, {args.num_labels})"
        )
    stats = EnumerationStats()
    matches = labeled_embeddings(
        data, LabeledPattern(pattern, qlabels),
        limit=args.limit, stats=stats,
    )
    print(
        f"{len(matches)} labeled embeddings of {pattern.name} "
        f"(labels {qlabels}) in {data}"
    )
    print(
        f"backtracking calls: {stats.recursive_calls}, "
        f"candidates scanned: {stats.candidates_scanned}"
    )
    for emb in sorted(matches)[: args.show]:
        print("  ", emb)
    return 0


def _run_daemon(daemon, ready, stopped: str) -> int:
    """Serve until a shutdown op or Ctrl-C, between two parseable lines.

    ``ready(bound)`` words the readiness line around the bound
    ``host:port`` (scripts wait for that line / read the port from it).
    """
    host, port = daemon.address
    print(ready(f"{host}:{port}"), flush=True)
    try:
        daemon.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        daemon.close()
    print(stopped)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.distributed.worker import ShardWorker

    try:
        worker = ShardWorker(
            host=args.host,
            port=args.port,
            graph=args.graph,
            announce=args.announce,
            announce_interval=args.announce_interval,
        )
    # OSError covers the bind failures (port in use, bad host).
    except (ValueError, OSError) as exc:
        raise SystemExit(str(exc))
    held = worker.fingerprints()
    return _run_daemon(
        worker,
        lambda bound: f"worker serving on {bound}"
        + (f" graph {held[0][:12]}" if held else ""),
        "worker stopped",
    )


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.service.cache import ResultCache
    from repro.service.tenancy import TenantQuota

    graph = load_graph(args.graph)
    if args.cache_capacity == 0 and args.cache_dir:
        raise SystemExit("--cache-dir needs a non-zero --cache-capacity")
    try:
        session = open_session(graph).with_cluster(
            machines=args.machines,
            memory_mb=args.memory_mb or None,
        ).with_workers(args.workers).backend(
            args.backend, shards=_parse_shards(args.shards)
        )
        cache = (
            False
            if args.cache_capacity == 0
            else ResultCache(
                capacity=args.cache_capacity,
                ttl=args.cache_ttl,
                disk_dir=args.cache_dir,
            )
        )
        default_quota = None
        if (
            args.quota_rate is not None
            or args.quota_burst is not None
            or args.quota_memory_mb is not None
        ):
            default_quota = TenantQuota(
                rate=args.quota_rate,
                burst=args.quota_burst,
                memory_mb=args.quota_memory_mb,
            )
        server = session.serve(
            host=args.host,
            port=args.port,
            threads=args.threads,
            cache=cache,
            store_dir=args.store_dir,
            memory_budget_mb=args.memory_budget_mb,
            log_path=args.log,
            default_quota=default_quota,
            slow_log=args.slow_log,
            events_path=args.events_log,
            start=False,
        )
    # OSError covers the bind failures (port in use, bad host);
    # DistributedError an unreachable --shards roster.
    except (ValueError, OSError, DistributedError) as exc:
        raise SystemExit(str(exc))
    return _run_daemon(
        server,
        lambda bound: f"serving {graph} from {args.graph} on {bound}",
        "server stopped",
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, connect

    try:
        client = connect((args.host, args.port))
    except OSError as exc:
        raise SystemExit(
            f"cannot connect to a query server at "
            f"{args.host}:{args.port}: {exc}"
        )
    with client:
        try:
            if args.ping:
                client.ping()
                print("pong")
                return 0
            if args.stats:
                print(json.dumps(client.stats(), sort_keys=True))
                return 0
            if args.metrics:
                print(json.dumps(client.metrics(), sort_keys=True))
                return 0
            if args.shutdown:
                client.shutdown()
                print("shutdown requested")
                return 0
            if not args.query:
                raise SystemExit(
                    "submit needs --query (or --ping/--stats/"
                    "--metrics/--shutdown)"
                )
            if args.store and args.show > 0:
                raise SystemExit(
                    "--store submissions keep embeddings in the server's "
                    "store; read them back with 'repro page' / "
                    "'repro lookup' instead of --show"
                )
            result = client.submit(
                args.query,
                engine=args.engine,
                priority=args.priority,
                timeout=args.timeout,
                collect="store" if args.store
                else True if args.show > 0 else None,
                limit=args.show if args.show > 0 else None,
                tenant=args.tenant,
                trace=args.trace,
                profile=args.profile,
            )
        except ServiceError as exc:
            raise SystemExit(str(exc))
        cache = client.last_cache
        store = client.last_store
    if args.json:
        payload = result.to_dict()
        # Only cap when the user asked for a preview; a server configured
        # with collect=True must not have its embeddings silently dropped.
        if payload["embeddings"] is not None and args.show > 0:
            payload["embeddings"] = sorted(payload["embeddings"])[: args.show]
        payload["cache"] = cache
        payload["store"] = store
        print(json.dumps(payload, sort_keys=True))
        return 1 if result.failed else 0
    if result.failed:
        print(f"FAILED: {result.failure}")
        return 1
    print(result.summary())
    print(f"cache: {cache}")
    if store is not None:
        print(f"store: {store}")
    if args.trace:
        if result.trace is None:
            print("trace: none (served from the cache/store fast path)")
        else:
            print("trace:")
            _render_trace(result.trace)
    if args.profile:
        if result.profile is None:
            print("profile: none (served from the cache/store fast path)")
        else:
            _render_profile(result.profile)
    for emb in sorted(result.embeddings or [])[: args.show]:
        print("  ", emb)
    return 0


def _render_trace(
    tree: dict,
    parent_duration: "float | None" = None,
    indent: str = "  ",
) -> None:
    """Print one span tree as an indented outline with durations.

    Each line shows the span name, its duration in milliseconds, its
    share of the parent span's duration, and any recorded attributes;
    children are indented beneath their parent in start order.
    """
    duration = tree.get("duration")
    timing = "?" if duration is None else f"{duration * 1000:.2f}ms"
    if parent_duration and duration is not None:
        timing += f" ({100.0 * duration / parent_duration:.0f}%)"
    attributes = tree.get("attributes") or {}
    notes = "".join(
        f" {key}={value}" for key, value in sorted(attributes.items())
    )
    print(f"{indent}{tree['name']}  {timing}{notes}")
    for child in tree.get("children", ()):
        _render_trace(child, duration, indent + "  ")


def _render_profile(profile: dict) -> None:
    """Print one profile record: clocks, memory, GC, flame, workers."""
    cpu = profile.get("cpu") or {}
    memory = profile.get("memory") or {}
    gc_row = profile.get("gc") or {}
    print(
        f"profile: wall {profile.get('wall_seconds', 0.0) * 1000:.2f}ms  "
        f"cpu {cpu.get('process_seconds', 0.0) * 1000:.2f}ms  "
        f"thread {cpu.get('thread_seconds', 0.0) * 1000:.2f}ms"
    )
    peak = memory.get("peak_bytes")
    allocated = memory.get("allocated_bytes")
    if peak is not None:
        print(
            f"  memory: peak {peak / 1024:.1f}KiB  "
            f"allocated {0 if allocated is None else allocated / 1024:.1f}KiB"
        )
    print(
        f"  gc: {gc_row.get('collections', 0)} collections, "
        f"{gc_row.get('collected', 0)} collected"
    )
    flame = profile.get("flame") or []
    if flame:
        print("  flame (self time):")
        for row in flame:
            print(
                f"    {row['name']:<24} x{row['count']:<4} "
                f"self {row['self'] * 1000:8.2f}ms  "
                f"total {row['total'] * 1000:8.2f}ms"
            )
    for row in profile.get("workers") or []:
        print(
            f"  worker {row.get('shard')} pid {row.get('pid')} "
            f"({row.get('mode')}): {row.get('tasks')} tasks  "
            f"utime {row.get('utime', 0.0) * 1000:.2f}ms  "
            f"stime {row.get('stime', 0.0) * 1000:.2f}ms  "
            f"maxrss {row.get('maxrss_kb')}KiB"
        )


def _cmd_metrics(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceError

    remaining = args.count if args.watch else 1
    first = True
    with _connect_or_exit(args) as client:
        while remaining is None or remaining > 0:
            if not first:
                time.sleep(args.interval)
            first = False
            try:
                payload = client.metrics(
                    format="text" if args.format == "text" else None
                )
            except ServiceError as exc:
                raise SystemExit(str(exc))
            if isinstance(payload, str):
                print(payload, end="" if payload.endswith("\n") else "\n",
                      flush=True)
            else:
                print(json.dumps(payload, sort_keys=True), flush=True)
            if remaining is not None:
                remaining -= 1
    return 0


def _cmd_events(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceError

    with _connect_or_exit(args) as client:
        cursor = args.since
        first = True
        try:
            return _events_loop(args, client, cursor, first, time)
        except BrokenPipeError:
            # Downstream (e.g. `| grep -q`) closed the pipe mid-stream:
            # a normal way to stop tailing, not an error.
            return 0
        except ServiceError as exc:
            raise SystemExit(str(exc))


def _events_loop(args, client, cursor, first, time) -> int:
    while True:
        if not first:
            time.sleep(args.interval)
        payload = client.events(
            level=args.level,
            component=args.component,
            since=cursor,
            limit=args.limit if first else None,
        )
        for record in payload["events"]:
            if args.json:
                print(json.dumps(record, sort_keys=True), flush=True)
            else:
                stamp = time.strftime(
                    "%H:%M:%S", time.localtime(record["ts"])
                )
                extras = "".join(
                    f" {key}={value}"
                    for key, value in sorted(record.items())
                    if key not in (
                        "ts", "seq", "level", "component", "kind"
                    )
                )
                print(
                    f"{stamp} [{record['level']:<7}] "
                    f"{record['component']}: {record['kind']}{extras}",
                    flush=True,
                )
        cursor = payload["last_seq"]
        first = False
        if not args.follow:
            return 0


def _cmd_health(args: argparse.Namespace) -> int:
    import time

    from repro.service.client import ServiceError

    status = "ok"
    with _connect_or_exit(args) as client:
        first = True
        while True:
            if not first:
                time.sleep(args.interval)
            first = False
            try:
                verdict = client.health()
            except ServiceError as exc:
                raise SystemExit(str(exc))
            status = verdict["status"]
            if args.json:
                print(json.dumps(verdict, sort_keys=True), flush=True)
            else:
                firing = verdict["firing"]
                line = f"health: {status}"
                if firing:
                    line += f"  firing: {', '.join(firing)}"
                print(line, flush=True)
                for rule in verdict["rules"]:
                    if not rule["firing"]:
                        continue
                    evidence = "".join(
                        f" {key}={value}"
                        for key, value in sorted(rule["evidence"].items())
                    )
                    print(
                        f"  {rule['name']} ({rule['severity']}):{evidence}",
                        flush=True,
                    )
            if not args.watch:
                break
    return 0 if status == "ok" else 1


def _connect_or_exit(args: argparse.Namespace):
    from repro.service.client import connect

    try:
        return connect((args.host, args.port))
    except OSError as exc:
        raise SystemExit(
            f"cannot connect to a query server at "
            f"{args.host}:{args.port}: {exc}"
        )


def _cmd_page(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    with _connect_or_exit(args) as client:
        try:
            page = client.page(
                args.query,
                engine=args.engine,
                limit=args.limit,
                offset=args.offset,
            )
        except ServiceError as exc:
            raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(page, sort_keys=True))
        return 0
    shown = len(page["embeddings"])
    print(
        f"page {page['offset']}..{page['offset'] + shown} of "
        f"{page['total']} stored embeddings (store: {page['store']})"
    )
    for emb in page["embeddings"]:
        print("  ", emb)
    return 0


def _cmd_lookup(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError

    with _connect_or_exit(args) as client:
        try:
            found = client.lookup(
                args.query, engine=args.engine, vertex=args.vertex
            )
        except ServiceError as exc:
            raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(found, sort_keys=True))
        return 0
    print(
        f"{found['count']} of {found['total']} stored embeddings contain "
        f"vertex {found['vertex']} (store: {found['store']})"
    )
    cap = args.show if args.show > 0 else len(found["embeddings"])
    for emb in found["embeddings"][:cap]:
        print("  ", emb)
    return 0


def _parse_edge_spec(spec: str, *, option: str) -> list[tuple[int, int]]:
    """``"0-5, 2-7"`` -> ``[(0, 5), (2, 7)]`` (SystemExit on bad input)."""
    edges = []
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        left, sep, right = chunk.partition("-")
        if not sep or not left.strip().isdigit() or not right.strip().isdigit():
            raise SystemExit(
                f"{option} wants comma-separated u-v vertex pairs like "
                f"'0-5,2-7', got {chunk!r}"
            )
        edges.append((int(left), int(right)))
    return edges


def _cmd_ingest(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, connect

    additions = _parse_edge_spec(args.add or "", option="--add")
    deletions = _parse_edge_spec(args.delete or "", option="--delete")
    if not additions and not deletions:
        raise SystemExit("ingest needs --add and/or --delete edge lists")
    try:
        client = connect((args.host, args.port))
    except OSError as exc:
        raise SystemExit(
            f"cannot connect to a query server at "
            f"{args.host}:{args.port}: {exc}"
        )
    with client:
        try:
            report = client.ingest(
                additions=additions or None, deletions=deletions or None
            )
        except ServiceError as exc:
            raise SystemExit(str(exc))
    if args.json:
        print(json.dumps(report, sort_keys=True))
        return 0
    print(
        f"version {report['version']}: +{report['batch']['additions']} "
        f"-{report['batch']['deletions']} edges, "
        f"{report['num_edges']} total"
    )
    for watch_id, outcome in sorted(report.get("watches", {}).items()):
        if outcome.get("dropped"):
            print(f"  {watch_id}: dropped ({outcome['error']})")
        elif outcome.get("failed"):
            print(f"  {watch_id}: failed ({outcome['error']})")
        else:
            print(
                f"  {watch_id}: +{outcome['added']} -{outcome['removed']} "
                f"embeddings"
            )
    return 0


def _cmd_subscribe(args: argparse.Namespace) -> int:
    from repro.service.client import ServiceError, connect

    try:
        client = connect((args.host, args.port), timeout=args.timeout)
    except OSError as exc:
        raise SystemExit(
            f"cannot connect to a query server at "
            f"{args.host}:{args.port}: {exc}"
        )
    delivered = 0
    with client:
        try:
            with client.subscribe(
                args.query, tenant=args.tenant,
                collect=True if args.show > 0 else None,
            ) as subscription:
                for record in subscription:
                    if args.json:
                        print(json.dumps(record.to_dict(), sort_keys=True),
                              flush=True)
                    else:
                        print(
                            f"v{record.version}: +{record.added_count} "
                            f"-{record.removed_count} {record.pattern_name}",
                            flush=True,
                        )
                        for emb in (record.added or [])[: args.show]:
                            print("   +", emb)
                        for emb in (record.removed or [])[: args.show]:
                            print("   -", emb)
                    delivered += 1
                    if args.count and delivered >= args.count:
                        break
        except (ServiceError, TimeoutError) as exc:
            if delivered:
                # The stream already produced what it produced; a timeout
                # after N deltas is an exit condition, not a failure.
                return 0
            raise SystemExit(str(exc))
        except KeyboardInterrupt:
            return 0
    return 0


def _cmd_profile(args: argparse.Namespace) -> int:
    from repro.graph import diameter_lower_bound, triangle_count

    graph = load_graph(args.graph)
    print(f"vertices: {graph.num_vertices}")
    print(f"edges: {graph.num_edges}")
    print(f"average degree: {graph.average_degree():.2f}")
    print(f"max degree: {int(graph.degrees().max())}")
    print(f"diameter (lower bound): {diameter_lower_bound(graph)}")
    if graph.num_edges < 500_000:
        print(f"triangles: {triangle_count(graph)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RADS distributed subgraph enumeration (VLDB 2019 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--dataset", choices=sorted(DATASETS), required=True)
    gen.add_argument("--scale", type=float, default=1.0)
    gen.add_argument("--out", required=True)
    gen.set_defaults(func=_cmd_generate)

    enum = sub.add_parser("enumerate", aliases=["run"],
                          help="run an engine on a graph")
    enum.add_argument("--graph", required=True)
    enum.add_argument("--query", required=True)
    enum.add_argument("--engine", default="RADS")
    enum.add_argument("--machines", type=int, default=10)
    enum.add_argument("--memory-mb", type=int, default=None)
    enum.add_argument("--straggler", type=float, default=1.0,
                      help="slow machine 0 down by this factor")
    enum.add_argument("--workers", type=int, default=0,
                      help="execute independent per-machine work on N OS "
                           "processes sharing the graph via shared memory "
                           "(0 = serial, the default); embedding counts "
                           "are identical for every worker count")
    enum.add_argument("--backend", default="auto",
                      choices=["auto", "serial", "process", "socket"],
                      help="execution backend (auto derives from "
                           "--workers; socket dispatches to remote "
                           "`repro worker` daemons and needs --shards)")
    enum.add_argument("--shards", default=None,
                      help="comma-separated shard worker addresses for "
                           "--backend socket (host:port,host:port)")
    enum.add_argument("--show", type=int, default=0,
                      help="print up to N embeddings")
    enum.add_argument("--json", action="store_true",
                      help="emit the run as one JSON document "
                           "(RunResult.to_dict plus the active config)")
    enum.set_defaults(func=_cmd_enumerate)

    plan = sub.add_parser("plan", help="inspect execution plans for a query")
    plan.add_argument("--query", required=True)
    plan.add_argument("--graph", default=None,
                      help="optional graph for cardinality estimates")
    plan.set_defaults(func=_cmd_plan)

    explain = sub.add_parser(
        "explain",
        help="explain how an engine would run a query "
             "(decomposition, matching order, symmetry, plan ranking)",
    )
    explain.add_argument("--query", required=True,
                         help="registered name or edge-list DSL")
    explain.add_argument("--engine", default="RADS")
    explain.add_argument("--graph", default=None,
                         help="optional graph for per-round cost estimates")
    explain.add_argument("--json", action="store_true",
                         help="emit QueryExplanation.to_dict() as one "
                              "JSON document")
    explain.set_defaults(func=_cmd_explain)

    labeled = sub.add_parser(
        "labeled", help="labeled matching with synthetic labels"
    )
    labeled.add_argument("--graph", required=True)
    labeled.add_argument("--query", required=True)
    labeled.add_argument("--query-labels", default=None,
                         help="comma-separated label per query vertex "
                              "(omit when the DSL query carries labels)")
    labeled.add_argument("--num-labels", type=int, default=3)
    labeled.add_argument("--label-seed", type=int, default=0)
    labeled.add_argument("--limit", type=int, default=None)
    labeled.add_argument("--show", type=int, default=0)
    labeled.set_defaults(func=_cmd_labeled)

    profile = sub.add_parser("profile", help="print graph statistics")
    profile.add_argument("--graph", required=True)
    profile.set_defaults(func=_cmd_profile)

    serve = sub.add_parser(
        "serve",
        help="serve a graph as a long-running query service "
             "(concurrent scheduler + canonical-pattern result cache)",
    )
    serve.add_argument("--graph", required=True)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7463,
                       help="TCP port (0 = pick an ephemeral port; the "
                            "readiness line prints the bound address)")
    serve.add_argument("--machines", type=int, default=10)
    serve.add_argument("--memory-mb", type=int, default=None,
                       help="per-machine simulated memory cap; also the "
                            "basis of the scheduler's admission budget")
    serve.add_argument("--workers", type=int, default=0,
                       help="OS processes per scheduler worker thread's "
                            "executor (0 = serial)")
    serve.add_argument("--backend", default="auto",
                       choices=["auto", "serial", "process", "socket"],
                       help="execution backend for every scheduler "
                            "worker thread (socket fans served queries "
                            "out to --shards)")
    serve.add_argument("--shards", default=None,
                       help="comma-separated shard worker addresses for "
                            "--backend socket (host:port,host:port)")
    serve.add_argument("--threads", type=int, default=4,
                       help="scheduler worker threads (concurrent queries)")
    serve.add_argument("--cache-capacity", type=int, default=128,
                       help="result-cache entries (0 disables caching)")
    serve.add_argument("--cache-ttl", type=float, default=None,
                       help="result-cache entry lifetime in seconds")
    serve.add_argument("--cache-dir", default=None,
                       help="spill cached results to this directory and "
                            "reload them (fingerprint-verified) after a "
                            "restart")
    serve.add_argument("--store-dir", default=None,
                       help="persist collect='store' embedding sets to "
                            "this directory as trie-compressed columns; "
                            "enables the page/lookup/aggregate ops and "
                            "survives restarts")
    serve.add_argument("--quota-rate", type=float, default=None,
                       help="default per-tenant submission rate limit "
                            "(requests/second, token bucket)")
    serve.add_argument("--quota-burst", type=int, default=None,
                       help="token-bucket burst size for --quota-rate")
    serve.add_argument("--quota-memory-mb", type=float, default=None,
                       help="default per-tenant concurrent admission "
                            "budget (MiB)")
    serve.add_argument("--memory-budget-mb", type=float, default=None,
                       help="admission-control budget override (MiB)")
    serve.add_argument("--log", default=None,
                       help="append every served result/explanation to "
                            "this JSONL request log (replayable via "
                            "repro.api.results.read_records_jsonl)")
    serve.add_argument("--slow-log", type=int, default=16,
                       help="slow-query log depth: keep the worst N "
                            "requests by latency in metrics (default 16)")
    serve.add_argument("--events-log", default=None,
                       help="append every event-journal record (worker "
                            "losses, resubmits, quota rejections, ...) "
                            "to this JSONL file")
    serve.set_defaults(func=_cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a query to a running repro serve instance"
    )
    submit.add_argument("--host", default="127.0.0.1")
    submit.add_argument("--port", type=int, default=7463)
    submit.add_argument("--query", default=None,
                        help="registered name or edge-list DSL")
    submit.add_argument("--engine", default="RADS")
    submit.add_argument("--priority", type=int, default=0,
                        help="higher runs first (ties are FIFO)")
    submit.add_argument("--timeout", type=float, default=None,
                        help="give up if not served within this many "
                             "seconds (the run itself is not preempted)")
    submit.add_argument("--tenant", default=None,
                        help="attribute the request to this tenant's "
                             "server-side quota / fair share")
    submit.add_argument("--show", type=int, default=0,
                        help="collect and print up to N embeddings")
    submit.add_argument("--store", action="store_true",
                        help="collect='store': persist the enumeration to "
                             "the server's embedding store (needs a serve "
                             "--store-dir); page it back with 'repro page'")
    submit.add_argument("--trace", action="store_true",
                        help="record and print the execution's span tree "
                             "(engine rounds, executor batches, shard "
                             "tasks); rides in --json as result['trace']")
    submit.add_argument("--profile", action="store_true",
                        help="measure and print the request's resource "
                             "profile (CPU, peak memory, GC, flame table, "
                             "per-worker attribution); rides in --json as "
                             "result['profile']")
    submit.add_argument("--json", action="store_true",
                        help="emit RunResult.to_dict() plus the cache and "
                             "store dispositions as one JSON document")
    submit.add_argument("--ping", action="store_true",
                        help="health-check the server and exit")
    submit.add_argument("--stats", action="store_true",
                        help="print scheduler + cache counters and exit")
    submit.add_argument("--metrics", action="store_true",
                        help="print structured service metrics (queue, "
                             "tenants, cache tiers, shard roster) and exit")
    submit.add_argument("--shutdown", action="store_true",
                        help="ask the server to stop serving and exit")
    submit.set_defaults(func=_cmd_submit)

    metrics = sub.add_parser(
        "metrics",
        help="print live service metrics from a running repro serve "
             "instance (histograms, slow queries, tenants, shards)",
    )
    metrics.add_argument("--host", default="127.0.0.1")
    metrics.add_argument("--port", type=int, default=7463)
    metrics.add_argument("--format", choices=("json", "text"),
                         default="json",
                         help="json: one document per poll; text: "
                              "Prometheus-style exposition lines")
    metrics.add_argument("--watch", action="store_true",
                         help="poll repeatedly instead of printing once")
    metrics.add_argument("--interval", type=float, default=2.0,
                         help="seconds between --watch polls (default 2)")
    metrics.add_argument("--count", type=int, default=None,
                         help="stop --watch after N polls "
                              "(default: until interrupted)")
    metrics.set_defaults(func=_cmd_metrics)

    events = sub.add_parser(
        "events",
        help="print the service's structured event journal (worker "
             "losses, resubmits, quota rejections, cache faults, ...)",
    )
    events.add_argument("--host", default="127.0.0.1")
    events.add_argument("--port", type=int, default=7463)
    events.add_argument("--level", default=None,
                        choices=("debug", "info", "warning", "error"),
                        help="minimum severity to include")
    events.add_argument("--component", default=None,
                        help="only events from this component "
                             "(coordinator, registry, scheduler, cache, "
                             "streaming, health)")
    events.add_argument("--since", type=int, default=None,
                        help="only events with seq strictly greater "
                             "(incremental polling cursor)")
    events.add_argument("--limit", type=int, default=None,
                        help="newest N events only")
    events.add_argument("--follow", action="store_true",
                        help="keep polling for new events (seq cursor; "
                             "Ctrl-C to stop)")
    events.add_argument("--interval", type=float, default=2.0,
                        help="seconds between --follow polls (default 2)")
    events.add_argument("--json", action="store_true",
                        help="one JSON event record per line")
    events.set_defaults(func=_cmd_events)

    health = sub.add_parser(
        "health",
        help="evaluate the service's SLO health rules (exit 0 = ok, "
             "1 = degraded/critical)",
    )
    health.add_argument("--host", default="127.0.0.1")
    health.add_argument("--port", type=int, default=7463)
    health.add_argument("--watch", action="store_true",
                        help="poll repeatedly instead of printing once")
    health.add_argument("--interval", type=float, default=2.0,
                        help="seconds between --watch polls (default 2)")
    health.add_argument("--json", action="store_true",
                        help="emit the full verdict (rules + evidence) "
                             "as one JSON document per poll")
    health.set_defaults(func=_cmd_health)

    page = sub.add_parser(
        "page",
        help="page a stored embedding set (submit --store first); "
             "served from the on-disk trie index, no re-enumeration",
    )
    page.add_argument("--host", default="127.0.0.1")
    page.add_argument("--port", type=int, default=7463)
    page.add_argument("--query", required=True,
                      help="registered name or edge-list DSL (isomorphic "
                           "rewrites of the stored query work)")
    page.add_argument("--engine", default="RADS")
    page.add_argument("--limit", type=int, default=10,
                      help="page size (embeddings per page)")
    page.add_argument("--offset", type=int, default=0,
                      help="start of the page in the sorted leaf order")
    page.add_argument("--json", action="store_true",
                      help="emit the page (embeddings, total, offset, "
                           "limit, store) as one JSON document")
    page.set_defaults(func=_cmd_page)

    lookup = sub.add_parser(
        "lookup",
        help="stored embeddings containing a data vertex "
             "(inverted-postings scan over a stored set)",
    )
    lookup.add_argument("--host", default="127.0.0.1")
    lookup.add_argument("--port", type=int, default=7463)
    lookup.add_argument("--query", required=True,
                        help="registered name or edge-list DSL")
    lookup.add_argument("--engine", default="RADS")
    lookup.add_argument("--vertex", type=int, required=True,
                        help="data vertex id to look up")
    lookup.add_argument("--show", type=int, default=0,
                        help="print up to N matching embeddings "
                             "(0 = all)")
    lookup.add_argument("--json", action="store_true",
                        help="emit the matches (embeddings, count, total, "
                             "vertex, store) as one JSON document")
    lookup.set_defaults(func=_cmd_lookup)

    ingest = sub.add_parser(
        "ingest",
        help="apply one edge batch (additions/deletions) to a running "
             "repro serve instance",
    )
    ingest.add_argument("--host", default="127.0.0.1")
    ingest.add_argument("--port", type=int, default=7463)
    ingest.add_argument("--add", default=None,
                        help="edges to add: comma-separated u-v pairs, "
                             "e.g. '0-5,2-7'")
    ingest.add_argument("--delete", default=None,
                        help="edges to delete (same u-v spelling)")
    ingest.add_argument("--json", action="store_true",
                        help="emit the ingest report (new version, "
                             "per-watch delta counts) as one JSON document")
    ingest.set_defaults(func=_cmd_ingest)

    subscribe = sub.add_parser(
        "subscribe",
        help="register a continuous query and stream its delta "
             "embeddings as batches are ingested",
    )
    subscribe.add_argument("--host", default="127.0.0.1")
    subscribe.add_argument("--port", type=int, default=7463)
    subscribe.add_argument("--query", required=True,
                           help="registered name or edge-list DSL")
    subscribe.add_argument("--tenant", default=None,
                           help="attribute delta computations to this "
                                "tenant's server-side quota")
    subscribe.add_argument("--count", type=int, default=0,
                           help="exit after N deltas (0 = stream forever)")
    subscribe.add_argument("--timeout", type=float, default=None,
                           help="exit when no delta arrives for this many "
                                "seconds")
    subscribe.add_argument("--show", type=int, default=0,
                           help="collect and print up to N added/removed "
                                "embeddings per delta")
    subscribe.add_argument("--json", action="store_true",
                           help="one DeltaRecord.to_dict() JSON line per "
                                "delta")
    subscribe.set_defaults(func=_cmd_subscribe)

    worker = sub.add_parser(
        "worker",
        help="run a distributed shard worker daemon (the remote end of "
             "--backend socket)",
    )
    worker.add_argument("--host", default="127.0.0.1")
    worker.add_argument("--port", type=int, default=7471,
                        help="TCP port (0 = pick an ephemeral port; the "
                             "readiness line prints the bound address)")
    worker.add_argument("--graph", default=None,
                        help="preload this graph so coordinators never "
                             "ship it (otherwise graphs are shipped once "
                             "and cached by fingerprint)")
    worker.add_argument("--announce", default=None,
                        help="announce this worker to a query server's "
                             "elastic shard roster (host:port of a "
                             "`repro serve` instance)")
    worker.add_argument("--announce-interval", type=float, default=5.0,
                        help="seconds between re-announcements")
    worker.set_defaults(func=_cmd_worker)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
