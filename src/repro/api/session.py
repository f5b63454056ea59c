"""The fluent session facade — the library's front door.

One object composes the five layers (graph IO -> partitioner/cluster ->
pattern -> engine -> executor) that previously had to be hand-wired::

    import repro

    result = (
        repro.open("road.npz")
        .with_cluster(machines=10, memory_mb=512)
        .engine("rads")
        .query("q4")
        .run()
    )
    grid = repro.open(graph).run_grid(queries=["q1", "q4"])

A :class:`Session` holds a data graph, a :class:`~repro.api.config.RunConfig`
and an :class:`~repro.api.registry.EngineRegistry`.  The partitioned base
cluster and the executor are built lazily and reused across runs; each
run executes on a fresh-stats copy of the base cluster, so repeated and
gridded runs are independent — and stats are bit-identical to constructing
the cluster and engine by hand.
"""

from __future__ import annotations

import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from repro.api.config import RunConfig, normalize_collect
from repro.api.execute import execute_once
from repro.api.registry import (
    EngineRegistry,
    default_registry,
    suggest_names,
)
from repro.distributed.errors import DistributedError
from repro.enumeration.labeled import LabeledPattern
from repro.graph.graph import Graph
from repro.graph.labeled import LabeledGraph
from repro.graph.io import load_adjacency_text, load_binary, load_edge_list
from repro.query.dsl import PatternSyntaxError, parse_pattern
from repro.query.pattern import Pattern
from repro.query.patterns import named_patterns

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.bench.harness import GridResult
    from repro.cluster.cluster import Cluster
    from repro.engines.base import RunResult
    from repro.query.explain import QueryExplanation
    from repro.runtime.executor import Executor
    from repro.service.server import QueryServer
    from repro.store import EmbeddingStore
    from repro.streaming.continuous import ContinuousQueryManager, Watch
    from repro.streaming.version import GraphVersion

#: Sentinel distinguishing "not passed" from an explicit ``None``.
_UNSET: Any = object()


class UnknownQueryError(KeyError):
    """A query string neither a registered pattern nor valid DSL matches."""

    def __init__(self, name: str, dsl_error: str | None):
        self.name = name
        self.choices = ", ".join(sorted(named_patterns()))
        self.suggestions = suggest_names(name, named_patterns())
        self.dsl_error = dsl_error
        super().__init__(name)

    def __str__(self) -> str:
        hint = (
            f" did you mean {' or '.join(map(repr, self.suggestions))}?"
            if self.suggestions
            else ""
        )
        detail = (
            f" (as pattern DSL: {self.dsl_error})" if self.dsl_error else ""
        )
        return (
            f"unknown query {self.name!r};{hint} "
            f"choose from: {self.choices}, "
            f"or pass edge-list DSL like 'a-b, b-c, c-a'{detail}"
        )


def load_graph(path: str | Path) -> Graph:
    """Load a graph, dispatching case-insensitively on the file extension.

    ``.npz`` (binary CSR), ``.edges`` (SNAP edge list) or ``.adj``
    (adjacency text) — ``ROAD.NPZ`` works too.  Raises ``ValueError``
    naming the offending suffix for anything else.
    """
    suffix = Path(str(path)).suffix
    loader = {
        ".npz": load_binary,
        ".edges": load_edge_list,
        ".adj": load_adjacency_text,
    }.get(suffix.lower())
    if loader is None:
        raise ValueError(
            f"unknown graph format {suffix or str(path)!r} for {path}; "
            f"expected .npz, .edges or .adj (any case)"
        )
    return loader(str(path))


def resolve_query(
    query: "str | Pattern | LabeledPattern",
) -> "Pattern | LabeledPattern":
    """A (possibly labeled) pattern from a name, DSL text or pattern.

    Strings are first looked up as registered names (case-insensitive,
    human aliases included: ``"house"`` finds ``q4``); anything that looks
    like edge-list DSL (contains ``-``) is parsed with
    :func:`repro.query.dsl.parse_pattern`, so labeled queries come through
    the same front door::

        resolve_query("q4")                    # registered name
        resolve_query("a-b, b-c, c-a")         # DSL -> triangle
        resolve_query("a:0-b:1, b-c:0, c-a")   # DSL -> LabeledPattern
    """
    if isinstance(query, (Pattern, LabeledPattern)):
        return query
    text = str(query)
    named = named_patterns().get(text.strip().lower())
    if named is not None:
        return named
    if "-" in text:
        try:
            return parse_pattern(text)
        except PatternSyntaxError as exc:
            raise UnknownQueryError(text, str(exc)) from exc
    raise UnknownQueryError(text, None)


def resolve_pattern(query: "str | Pattern | LabeledPattern") -> Pattern:
    """Like :func:`resolve_query`, unwrapping labels to the bare Pattern."""
    resolved = resolve_query(query)
    if isinstance(resolved, LabeledPattern):
        return resolved.pattern
    return resolved


def open_session(source: "Graph | LabeledGraph | str | Path") -> "Session":
    """Open a session over a (labeled) graph instance or a graph file path
    (configure it with :meth:`Session.configure` and friends)."""
    graph = (
        source
        if isinstance(source, (Graph, LabeledGraph))
        else load_graph(source)
    )
    return Session(graph)


#: ``repro.open(...)`` — the facade's documented spelling.
open = open_session


class Session:
    """Fluent composition of graph + config + engine + query.

    Builder methods return ``self`` so calls chain; ``run()`` executes the
    currently selected engine/query and returns a
    :class:`~repro.engines.base.RunResult`.  Use as a context manager (or
    call :meth:`close`) to stop the forked shard workers when
    ``workers > 0``.

    Sessions are safe to share between threads: selection
    (``engine``/``query``/``configure``) and execution (``run``/
    ``explain``/``run_grid``) serialize on an internal re-entrant lock,
    so concurrent callers see consistent engine+query pairs (engines keep
    per-run state, so runs cannot overlap on one session).  For actual
    concurrent *throughput* over one graph use
    :class:`repro.service.QueryScheduler` (or :meth:`serve`), which runs
    worker threads with per-worker engines.
    """

    def __init__(
        self,
        graph: "Graph | LabeledGraph",
    ):
        if isinstance(graph, LabeledGraph):
            self._labeled_graph: LabeledGraph | None = graph
            self._graph = graph.graph
        elif isinstance(graph, Graph):
            self._labeled_graph = None
            self._graph = graph
        else:
            raise TypeError(
                f"Session needs a Graph or LabeledGraph, got "
                f"{type(graph).__name__}; use repro.open(path) for files"
            )
        self._config = RunConfig()
        self._registry = default_registry()
        self._engine_name: str | None = None
        self._engine_kwargs: dict[str, Any] = {}
        self._engine = None
        self._pattern: Pattern | None = None
        self._labeled_query: LabeledPattern | None = None
        self._query_name: str | None = None
        self._partition = None
        self._executor: "Executor | None" = None
        self._streams: "ContinuousQueryManager | None" = None
        self._store: "EmbeddingStore | None" = None
        # Re-entrant: run() takes it and calls locked helpers like
        # _get_partition(); re-entrancy keeps those compositions simple.
        self._lock = threading.RLock()

    # -- introspection -------------------------------------------------
    @property
    def graph(self) -> Graph:
        """The (unlabeled) data graph partitions and clusters build on."""
        return self._graph

    @property
    def config(self) -> RunConfig:
        """The active run configuration."""
        return self._config

    @property
    def registry(self) -> EngineRegistry:
        """The engine registry lookups go through."""
        return self._registry

    # -- configuration -------------------------------------------------
    #: RunConfig fields the cached graph partition depends on; memory
    #: caps, stragglers, cost model and result mode are applied per run,
    #: so changing them (the common sweep axes) never repartitions.
    _PARTITION_FIELDS = ("machines", "partitioner", "seed")
    #: RunConfig fields the cached executor depends on.
    _EXECUTOR_FIELDS = ("workers", "backend", "shards")

    def with_config(self, config: RunConfig) -> "Session":
        """Swap in a whole RunConfig."""
        with self._lock:
            if config != self._config:
                # Check before mutating: a rejected config must leave the
                # session (selection and caches) fully intact.
                if config.backend == "socket" and self._engine_name:
                    self._registry.require(
                        self._engine_name, distributed=True
                    )
                self._invalidate(
                    partition=any(
                        getattr(config, name) != getattr(self._config, name)
                        for name in self._PARTITION_FIELDS
                    ),
                    executor=any(
                        getattr(config, name) != getattr(self._config, name)
                        for name in self._EXECUTOR_FIELDS
                    ),
                )
                self._config = config
        return self

    def configure(self, **updates: Any) -> "Session":
        """Update individual RunConfig fields (validated immediately)."""
        return self.with_config(self._config.replace(**updates))

    def with_cluster(
        self,
        *,
        machines: int = _UNSET,
        memory_mb: float | None = _UNSET,
        partitioner: Any = _UNSET,
        cost_model: Any = _UNSET,
        stragglers: Mapping[int, float] | None = _UNSET,
        seed: int = _UNSET,
    ) -> "Session":
        """Configure the simulated cluster (named subset of configure)."""
        updates = {
            key: value
            for key, value in (
                ("machines", machines),
                ("memory_mb", memory_mb),
                ("partitioner", partitioner),
                ("cost_model", cost_model),
                ("stragglers", stragglers),
                ("seed", seed),
            )
            if value is not _UNSET
        }
        return self.configure(**updates)

    def with_workers(self, workers: int) -> "Session":
        """Select the execution backend (0 = serial)."""
        return self.configure(workers=workers)

    def backend(
        self,
        name: str,
        *,
        shards: "list | tuple | None" = None,
        workers: int | None = None,
    ) -> "Session":
        """Select the execution backend by name.

        ``"auto"`` (the default config) derives from ``workers``;
        ``"serial"`` forces serial execution; ``"process"`` forks
        ``workers`` local shard workers (one per CPU when ``workers`` is
        0); ``"socket"``
        dispatches to remote ``repro worker`` shard daemons and needs
        ``shards=[...]`` (``host:port`` strings or ``(host, port)``
        tuples).  Selecting the socket backend with a non-distributed
        engine already selected raises
        :class:`~repro.api.registry.CapabilityError` (same rule as the
        labeled-query capability, in either order)::

            session.backend("socket", shards=["10.0.0.1:7471",
                                              "10.0.0.2:7471"])
        """
        updates: dict[str, Any] = {"backend": name}
        if shards is not None or name != "socket":
            updates["shards"] = tuple(shards) if shards else None
        if workers is not None:
            updates["workers"] = workers
        return self.configure(**updates)

    def with_store(self, store: "EmbeddingStore | str | Path") -> "Session":
        """Attach a persistent embedding store (or open one at a path).

        Attaching enables ``run(collect="store")`` — the enumeration is
        persisted as trie-compressed columns keyed like the result cache,
        and repeated runs (including isomorphic rewrites of the query)
        are answered from disk without re-enumeration — plus the indexed
        :meth:`page`, :meth:`lookup` and :meth:`aggregate` reads.
        Streaming :meth:`ingest` invalidates the old snapshot's stored
        sets by graph fingerprint, exactly like the result cache.
        """
        from repro.store import EmbeddingStore

        with self._lock:
            if isinstance(store, EmbeddingStore):
                self._store = store
            else:
                self._store = EmbeddingStore(store)
        return self

    # -- engine / query selection --------------------------------------
    def engine(self, name: str, **engine_kwargs: Any) -> "Session":
        """Select an engine by registry name/alias (any case).

        ``engine_kwargs`` go to the engine's registered factory — e.g.
        ``session.engine("crystal", index=True)`` builds the clique index
        from the session graph up front.  The instance is built here and
        reused across runs, so factory work (like that index) is paid
        once per selection.
        """
        canonical = self._registry.resolve(name).name
        with self._lock:
            # Check before mutating: a rejected selection must leave the
            # previously selected engine (and its name) fully intact.
            self._check_label_capability(engine_name=canonical)
            if self._config.backend == "socket":
                self._registry.require(canonical, distributed=True)
            self._engine_name = canonical
            self._engine_kwargs = dict(engine_kwargs)
            self._engine = self._registry.create(
                self._engine_name, graph=self._graph, **self._engine_kwargs
            )
        return self

    def query(self, query: "str | Pattern | LabeledPattern") -> "Session":
        """Select the query pattern.

        Accepts a registered name (``"q4"``, human aliases like
        ``"house"``, any case), edge-list DSL (``"a-b, b-c, c-a"``,
        labeled ``"a:0-b:1, ..."``), a :class:`Pattern` or a
        :class:`~repro.enumeration.labeled.LabeledPattern`.  Labeled
        queries need a session opened over a
        :class:`~repro.graph.labeled.LabeledGraph` and an engine whose
        registry entry has ``supports_labels=True`` — both are checked
        here, at resolution time.
        """
        resolved = resolve_query(query)
        with self._lock:
            if isinstance(resolved, LabeledPattern):
                if self._labeled_graph is None:
                    raise ValueError(
                        f"labeled query {resolved!r} needs a labeled data "
                        f"graph; open the session with a LabeledGraph (e.g. "
                        f"repro.graph.labeled.label_randomly(graph, k))"
                    )
                # Check before mutating: a rejected query must leave the
                # previous selection fully intact.
                if self._engine_name is not None:
                    self._registry.require(
                        self._engine_name, supports_labels=True
                    )
                self._labeled_query = resolved
                self._pattern = resolved.pattern
            else:
                self._labeled_query = None
                self._pattern = resolved
            # Only a registered lookup name is a grid key; patterns and DSL
            # text are carried as objects so run_grid works for them too.
            self._query_name = (
                str(query).strip().lower()
                if isinstance(query, str)
                and str(query).strip().lower() in named_patterns()
                else None
            )
        return self

    def _check_label_capability(self, engine_name: str | None) -> None:
        """Enforce ``supports_labels`` once engine and query are known."""
        if engine_name is not None and self._labeled_query is not None:
            self._registry.require(engine_name, supports_labels=True)

    # -- execution -----------------------------------------------------
    def _get_partition(self):
        with self._lock:
            if self._partition is None:
                self._partition = self._config.make_partition(self._graph)
            return self._partition

    def cluster(self) -> "Cluster":
        """A fresh-stats cluster over the session's (cached) partition."""
        with self._lock:
            return self._config.make_cluster(
                self._graph, partition=self._get_partition()
            )

    def build_engine(self):
        """The selected engine instance (built once at selection time)."""
        with self._lock:
            if self._engine is None:
                raise RuntimeError(
                    "no engine selected; call .engine(name) first"
                )
            return self._engine

    def run(
        self,
        *,
        collect: "bool | str | None" = None,
        limit: int | None = None,
        trace: bool = False,
        profile: bool = False,
    ) -> "RunResult":
        """Run the selected engine on the selected query.

        ``collect``/``limit`` override the config's result mode for this
        run.  With a limit, collected embeddings are truncated after the
        (deterministic) run — counts and stats are unaffected.  Labeled
        queries run through the engine's ``run_labeled`` (the TurboIso
        matcher layer); there the limit caps enumeration itself, so it
        also caps the reported count.

        ``collect="store"`` (needs :meth:`with_store`) enumerates once
        and persists the embeddings to the attached store; the returned
        result carries counts/stats but ``embeddings=None`` — read them
        back with :meth:`page`, :meth:`lookup` or :meth:`aggregate`.
        Repeat store-mode runs of the same (isomorphic) query are served
        from disk without enumerating, marked by the
        ``service.store_hit`` counter.

        ``trace=True`` / ``profile=True`` attach the run's span tree
        (rooted at ``session.run``) and resource profile as
        ``result.trace`` / ``result.profile``; what they hold and what
        they guarantee (bit-identical counts and stats, nothing on a
        store hit, never persisted) is
        :func:`repro.api.execute.execute_once`'s contract.
        """
        with self._lock:
            if self._pattern is None:
                raise RuntimeError(
                    "no query selected; call .query(name) first"
                )
            engine = self.build_engine()
            collect = (
                self._config.collect
                if collect is None
                else normalize_collect(collect)
            )
            limit = self._config.limit if limit is None else limit
            labeled = None
            if self._labeled_query is not None:
                if collect == "store":
                    raise ValueError(
                        "collect='store' serves unlabeled queries only"
                    )
                labeled = (self._labeled_graph, self._labeled_query, limit)
            key: tuple | None = None
            if collect == "store":
                key = self._store_key()
                served = self._store.result_for(key, self._pattern)
                if served is not None:
                    return served
            try:
                result = execute_once(
                    engine,
                    self.cluster(),
                    self._pattern,
                    collect=collect,
                    executor=None if labeled else self._ensure_executor(),
                    store=self._store,
                    key=key,
                    trace=trace,
                    profile=profile,
                    labeled=labeled,
                )
            except DistributedError:
                # Total shard-roster loss: drop the dead executor so the
                # next run() re-dials the configured shards (healing once
                # workers come back) instead of failing forever.
                self._invalidate(partition=False, executor=True)
                raise
        if limit is not None and result.embeddings is not None:
            result.embeddings = result.embeddings[:limit]
        return result

    def explain(self, *, with_estimates: bool = True) -> "QueryExplanation":
        """Explain how the selected engine would run the selected query.

        Returns a serializable
        :class:`~repro.query.explain.QueryExplanation` — decomposition
        units, matching order, symmetry-breaking conditions, runner-up
        plans and (unless ``with_estimates=False``) per-round cost-model
        estimates against the session graph.  Purely analytical: nothing
        is enumerated and no cluster stats are touched.
        """
        with self._lock:
            if self._pattern is None:
                raise RuntimeError(
                    "no query selected; call .query(name) first"
                )
            return self.build_engine().explain(
                self._labeled_query or self._pattern,
                graph=self._graph if with_estimates else None,
            )

    def run_grid(
        self,
        engines: "list[str] | Mapping[str, Any] | None" = None,
        queries: "list[str | Pattern] | None" = None,
        *,
        dataset_name: str = "session",
    ) -> "GridResult":
        """Engine x query sweep over the session cluster configuration.

        ``engines`` is a list of registry names (default: the paper's five),
        or a ready name -> instance mapping; ``queries`` a list of pattern
        names (default: the currently selected query).
        """
        from repro.bench.harness import run_query_grid

        with self._lock:
            if queries is None:
                if self._pattern is None:
                    raise RuntimeError(
                        "no queries given and no query selected"
                    )
                if self._labeled_query is not None:
                    raise ValueError(
                        "labeled queries cannot be gridded (the "
                        "distributed engines are unlabeled); pass "
                        "explicit unlabeled queries= instead"
                    )
                queries = [
                    self._query_name if self._query_name is not None
                    else self._pattern
                ]
            try:
                return run_query_grid(
                    self._graph,
                    dataset_name,
                    list(queries),
                    engines=engines,
                    registry=self._registry,
                    config=self._config,
                    executor=self._ensure_executor(),
                    partition=self._get_partition(),
                    collect=self._config.collect,
                    limit=self._config.limit,
                )
            except DistributedError:
                # See run(): reconnect to the roster on the next call.
                self._invalidate(partition=False, executor=True)
                raise

    # -- stored-set reads ----------------------------------------------
    def _store_key(self) -> tuple:
        """The embedding-store key for the current selection (locked)."""
        from repro.service.cache import cache_key

        if self._store is None:
            raise RuntimeError(
                "no embedding store attached; call .with_store(dir) first"
            )
        if self._pattern is None:
            raise RuntimeError("no query selected; call .query(name) first")
        if self._labeled_query is not None:
            raise ValueError(
                "the embedding store serves unlabeled queries only"
            )
        if self._engine_name is None:
            raise RuntimeError("no engine selected; call .engine(name) first")
        return cache_key(
            self._graph,
            self._pattern,
            self._engine_name,
            self._config,
            collect="store",
        )

    def _stored(self, op: str, **fields: Any) -> dict[str, Any]:
        """One index scan over the current selection's stored set."""
        with self._lock:
            key = self._store_key()
            found = getattr(self._store, op)(key, self._pattern, **fields)
            if found is None:
                raise LookupError(
                    f"no stored embedding set for {self._pattern.name!r} "
                    f"with engine {self._engine_name!r} on this graph; run "
                    f"it with collect='store' first"
                )
            return found

    def page(self, *, limit: int, offset: int = 0) -> dict[str, Any]:
        """One contiguous page of the stored set's sorted leaf order.

        Serves ``{"embeddings", "total", "offset", "limit"}`` for the
        selected engine/query straight from the attached store's range
        index — no enumeration, no full decompression.  Raises
        ``LookupError`` until a ``run(collect="store")`` has persisted
        the set.
        """
        return self._stored("page", limit=limit, offset=offset)

    def lookup(self, vertex: int) -> dict[str, Any]:
        """Every stored embedding containing data vertex ``vertex``.

        An inverted-postings range scan over the attached store; returns
        ``{"embeddings", "count", "total", "vertex"}``.
        """
        return self._stored("lookup", vertex=vertex)

    def aggregate(self, group_by: str = "root") -> dict[str, Any]:
        """Group counts over the stored set, without decompressing leaves.

        ``group_by`` is ``"root"`` (per first-query-vertex match),
        ``"vertex"`` (per contained data vertex) or ``"orbit"`` (per
        automorphism orbit of query positions); returns ``{"group_by",
        "total", "groups"}``.
        """
        return self._stored("aggregate", group_by=group_by)

    # -- serving -------------------------------------------------------
    def serve(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        threads: int = 4,
        cache: Any = None,
        store_dir: str | None = None,
        memory_budget_mb: float | None = None,
        log_path: str | None = None,
        default_quota: Any = None,
        events_path: str | None = None,
        start: bool = True,
    ) -> "QueryServer":
        """Expose this session's graph + config as a socket query service.

        Builds a :class:`repro.service.server.QueryServer` over the
        session graph, configuration and registry, and (by default)
        starts it on a background thread — the API-side twin of the
        ``repro serve`` CLI subcommand::

            server = repro.open("road.npz").serve(port=7463)
            client = repro.connect(server.address)

        The server owns its own scheduler/worker pool but shares the
        session's (cached) graph partition; the session stays
        independently usable.  Close the returned server (context manager
        or ``close()``) to stop serving.  Unlabeled queries only.

        ``store_dir`` enables ``collect="store"`` submissions plus the
        ``page``/``lookup``/``aggregate`` protocol ops; without it a store
        attached with :meth:`with_store` is shared with the server.
        ``events_path`` mirrors every event-journal record to a JSONL
        file (replayable with :func:`repro.api.results.read_records_jsonl`).
        The options ``repro serve`` does not set (named tenants, a shard
        registry, ...) are :class:`~repro.service.server.QueryServer`'s:
        build one directly to set them.
        """
        from repro.service.server import QueryServer

        with self._lock:
            server = QueryServer(
                self._graph,
                self._config,
                self._registry,
                host=host,
                port=port,
                threads=threads,
                cache=cache,
                store=self._store if store_dir is None else None,
                store_dir=store_dir,
                memory_budget_mb=memory_budget_mb,
                log_path=log_path,
                partition=self._get_partition(),
                default_quota=default_quota,
                events_path=events_path,
            )
        return server.start() if start else server

    # -- streaming / continuous queries --------------------------------
    def watch(
        self,
        query: "str | Pattern",
        *,
        collect: bool = True,
    ) -> "Watch":
        """Register a continuous query against this session's graph.

        Returns a :class:`~repro.streaming.continuous.Watch`; every
        subsequent :meth:`ingest` batch publishes one
        :class:`~repro.streaming.records.DeltaRecord` (the embeddings
        that appeared and vanished) to it, drained with
        ``watch.poll()``::

            session = repro.open(graph)
            alerts = session.watch("a-b, b-c, c-a")
            session.ingest(additions=[(0, 9)])
            [delta] = alerts.poll()

        Unlabeled queries only.  Deltas are computed inline on the
        ingesting thread (for a quota-governed worker-pool version of
        the same machinery, serve the graph and use
        ``ServiceClient.register``).
        """
        return self._get_streams().register(query, collect=collect)

    def unwatch(self, watch: "Watch | str") -> bool:
        """Remove a watch (idempotent; accepts the Watch or its id)."""
        with self._lock:
            if self._streams is None:
                return False
            watch_id = watch if isinstance(watch, str) else watch.id
            return self._streams.unregister(watch_id)

    def ingest(
        self,
        additions: "Iterable[tuple[int, int]]" = (),
        deletions: "Iterable[tuple[int, int]]" = (),
    ) -> dict[str, Any]:
        """Apply one edge batch to the session graph, advancing its version.

        The batch is validated strictly (no duplicate or missing edges,
        no addition/deletion overlap) and merged into a fresh CSR
        snapshot in this process, whatever the backend: the merge needs
        no executor.  The session then rebinds to the new snapshot:
        ``session.graph`` answers with the new version, the cached
        partition is invalidated, and a selected engine is rebuilt, so
        the next ``run()`` sees the updated graph.  Every live
        :meth:`watch` receives its delta embeddings for the batch.

        Returns the ingest report (new version/fingerprint, batch sizes,
        per-watch delta counts).
        """
        with self._lock:
            return self._get_streams().ingest(additions, deletions)

    def _get_streams(self) -> "ContinuousQueryManager":
        with self._lock:
            if self._labeled_graph is not None:
                raise ValueError(
                    "streaming ingest supports unlabeled graphs only"
                )
            if self._streams is None:
                from repro.streaming.continuous import ContinuousQueryManager

                self._streams = ContinuousQueryManager(
                    self._graph, on_rebind=self._on_stream_rebind
                )
            return self._streams

    def _on_stream_rebind(
        self, old: "GraphVersion", new: "GraphVersion"
    ) -> None:
        """Swap the session onto a freshly ingested graph snapshot."""
        with self._lock:
            self._graph = new.graph
            # The partition described the old snapshot; the executor
            # keys its replicas by partition and survives.
            self._invalidate(partition=True, executor=False)
            if self._store is not None:
                # Stored sets are keyed by fingerprint; drop the old
                # snapshot's so a later revert can't serve stale pages.
                self._store.evict_graph(old.fingerprint)
            if self._engine_name is not None:
                self._engine = self._registry.create(
                    self._engine_name,
                    graph=self._graph,
                    **self._engine_kwargs,
                )

    # -- lifecycle -----------------------------------------------------
    def _ensure_executor(self) -> "Executor":
        with self._lock:
            if self._executor is None:
                self._executor = self._config.make_executor(
                    graph=self._graph
                )
            return self._executor

    def _invalidate(self, *, partition: bool, executor: bool) -> None:
        with self._lock:
            if partition:
                self._partition = None
            if executor and self._executor is not None:
                self._executor.close()
                self._executor = None

    def close(self) -> None:
        """Close the executor: stop forked shard workers, disconnect from
        remote ones (idempotent; serial is a no-op)."""
        self._invalidate(partition=False, executor=True)

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
