"""The socket front end: a long-running query service over one graph.

:class:`QueryServer` is a :class:`~repro.service.transport.LineDaemon`
speaking the JSON-lines protocol of :mod:`repro.service.protocol`; every
connection gets its own handler thread, and all connections share one
:class:`~repro.service.scheduler.QueryScheduler` — so the priority queue,
admission budget, in-flight deduplication and result cache apply across
clients, which is the whole point of a serving layer.

Entry points::

    server = repro.Session(graph).serve(port=0)        # API front door
    python -m repro serve --graph g.npz --port 7463    # CLI

With ``log_path`` every served result/explanation record — and every
delivered streaming delta record — is appended to a JSONL request log
(via :func:`repro.api.results.append_record_jsonl`), replayable with
:func:`repro.api.results.read_records_jsonl`.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import OrderedDict
from concurrent.futures import CancelledError
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.api.config import RunConfig
from repro.api.registry import EngineRegistry, default_registry
from repro.api.results import append_record_jsonl
from repro.distributed.registry import ShardRegistry
from repro.obs import events as _events
from repro.service import protocol
from repro.service.cache import ResultCache
from repro.service.scheduler import QueryScheduler, ServiceTimeout
from repro.service.transport import LineDaemon

if TYPE_CHECKING:  # pragma: no cover - types only
    from typing import Mapping

    from repro.graph.graph import Graph
    from repro.service.tenancy import TenantQuota
    from repro.store import EmbeddingStore

__all__ = ["QueryServer"]

#: Explain answers memoised per graph version (the result cache's LRU size).
EXPLAIN_MEMO_SIZE = 128


class _Reply(NamedTuple):
    """A handler's result plus extra top-level response keys."""

    result: Any
    extra: "dict[str, Any]" = {}


class QueryServer(LineDaemon):
    """JSON-lines TCP server over one :class:`QueryScheduler`.

    Binding, :attr:`address`, :meth:`start` / :meth:`serve_forever` and
    :meth:`close` are :class:`LineDaemon`'s; closing — by the owner or a
    client ``shutdown`` op — also stops the scheduler.
    """

    def __init__(
        self,
        graph: "Graph",
        config: RunConfig | None = None,
        registry: EngineRegistry | None = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        threads: int = 4,
        cache: "ResultCache | None | bool" = None,
        store: "EmbeddingStore | None" = None,
        store_dir: "str | None" = None,
        memory_budget_mb: float | None = None,
        log_path: "str | None" = None,
        partition: Any = None,
        tenants: "Mapping[str, TenantQuota] | None" = None,
        default_quota: "TenantQuota | None" = None,
        shard_registry: "ShardRegistry | None" = None,
        verify_deltas: bool = False,
        events_path: "str | None" = None,
    ):
        self.graph = graph
        self.config = config or RunConfig()
        self.registry = registry or default_registry()
        if store_dir is not None:
            if store is not None:
                raise ValueError(
                    "pass either a ready EmbeddingStore or store_dir, "
                    "not both"
                )
            from repro.store import EmbeddingStore

            store = EmbeddingStore(store_dir)
        self.store = store
        # Always own a registry: the announce op must work even when the
        # backend is local (a worker can announce before an operator
        # flips the config to socket on restart), and metrics reports
        # the roster either way.
        self.shard_registry = (
            shard_registry if shard_registry is not None else ShardRegistry()
        )
        self._started = time.monotonic()
        # Bind before building the scheduler: a bind failure (port in
        # use) must not strand live worker threads / forked shard workers.
        super().__init__(host, port, name="repro-query-server")
        try:
            self.scheduler = QueryScheduler(
                graph,
                self.config,
                self.registry,
                threads=threads,
                cache=cache,
                memory_budget_mb=memory_budget_mb,
                partition=partition,
                tenants=tenants,
                default_quota=default_quota,
                shard_registry=self.shard_registry,
                store=store,
            )
        except BaseException:
            self._tcp.server_close()
            raise
        # Continuous queries + streaming ingest ride the scheduler's
        # worker pool; each applied batch rebinds the scheduler (and
        # reclaims the superseded version's cache entries) via _on_rebind.
        from repro.streaming import ContinuousQueryManager

        # Observability: the process-wide event journal (optionally
        # mirrored to a JSONL sink) and the SLO health engine evaluated
        # over _metrics() on demand by the ``health`` op.
        from repro.obs.health import HealthEngine

        if events_path is not None:
            _events.journal().set_sink(events_path)
        self.health = HealthEngine()
        self.streams = ContinuousQueryManager(
            graph,
            scheduler=self.scheduler,
            verify=verify_deltas,
            on_rebind=self._on_rebind,
            on_record=lambda record: self._log_record(record.to_dict()),
        )
        self._log_path = log_path
        self._log_lock = threading.Lock()
        self._explain_engines: dict[str, Any] = {}
        #: (engine name, query text, estimates) -> explain answer (LRU).
        self._explain_memo: "OrderedDict[tuple, Any]" = OrderedDict()
        self._explain_lock = threading.Lock()

    def _teardown(self) -> None:
        super()._teardown()
        self.scheduler.close()

    @contextlib.contextmanager
    def _connection(self, send: Any, sock: Any, hello: Any):
        #: Watch ids whose push sink is this connection (detached on EOF).
        attached: list[str] = []
        try:
            yield lambda message: self._dispatch(
                message, push=send, attached=attached
            )
        finally:
            for watch_id in attached:
                self.streams.detach_push(watch_id)

    # ------------------------------------------------------------------
    # Protocol dispatch (one call per request line)
    # ------------------------------------------------------------------
    def _on_rebind(self, old: Any, new: Any) -> None:
        """Swap the serving layer over to a freshly ingested version.

        In-flight queries keep their pinned snapshot (scheduler
        executions capture graph + partition at submit); everything that
        serves *new* requests — the scheduler's graph, the explain
        engines and memoised answers, the hello/metrics fingerprints —
        moves to the new version, and the superseded version's
        now-unreachable result-cache entries are reclaimed by fingerprint.
        """
        _events.emit(
            "info",
            "streaming",
            _events.GRAPH_REBIND,
            old_fingerprint=old.fingerprint,
            new_fingerprint=new.fingerprint,
            version=new.version,
        )
        self.scheduler.rebind_graph(new.graph)
        self.graph = new.graph
        with self._explain_lock:
            self._explain_engines.clear()
            self._explain_memo.clear()
        if self.scheduler.cache is not None:
            self.scheduler.cache.evict_graph(old.fingerprint)
        if self.store is not None:
            # Stored sets for the superseded snapshot are stale the same
            # way cache entries are — and they persist, so unlink them.
            self.store.evict_graph(old.fingerprint)

    def _hello(self) -> dict[str, Any]:
        current = self.streams.current
        return {
            "kind": "hello",
            "ok": True,
            "version": protocol.PROTOCOL_VERSION,
            "graph": current.fingerprint,
            "graph_version": current.version,
            "num_vertices": current.graph.num_vertices,
            "num_edges": current.graph.num_edges,
            "engines": self.registry.names(),
        }

    def _dispatch(
        self,
        message: dict[str, Any],
        *,
        push: Any = None,
        attached: "list[str] | None" = None,
    ) -> dict[str, Any]:
        """Answer one request: table lookup, validate, call ``_op_<name>``.

        Handlers receive the clean keyword arguments of
        :func:`protocol.validate` and return the response's ``result``
        (or a :class:`_Reply` to add response keys); a refusal is a
        :class:`protocol.ProtocolError` whose message is the error line.
        """
        request_id = message.get("id")
        name = message.get("op")
        op = protocol.OPS.get(name) if isinstance(name, str) else None
        if op is None:
            return protocol.error_response(
                request_id,
                f"unknown op {name!r}; expected one of "
                f"{', '.join(protocol.OPS)}",
            )
        kwargs = protocol.validate(name, message)
        if isinstance(kwargs, str):
            return protocol.error_response(request_id, kwargs)
        if name == "register":
            kwargs.update(sink=push, attached=attached)
        try:
            reply = getattr(self, f"_op_{name}")(**kwargs)
        except ServiceTimeout as exc:
            return protocol.error_response(request_id, f"timeout: {exc}")
        except CancelledError:
            # A shutdown cancelled the queued request under this waiter.
            return protocol.error_response(
                request_id, "request cancelled (server shutting down?)"
            )
        except protocol.ProtocolError as exc:
            return protocol.error_response(request_id, str(exc))
        except Exception as exc:
            # Whatever an engine (or a third-party plugin) raised: the
            # connection must answer, not die — AdmissionError,
            # UnknownEngineError/UnknownQueryError, SchedulerClosed,
            # plugin bugs, all of it.
            return protocol.error_response(
                request_id, f"{type(exc).__name__}: {exc}"
            )
        if not isinstance(reply, _Reply):
            reply = _Reply(reply)
        if op.logged and self._log_path is not None:
            self._log_served(name, kwargs, reply.result)
        return {
            **protocol.ok_response(request_id, op.kind, reply.result),
            **reply.extra,
        }

    def _op_submit(self, *, query: str, engine: str, **options: Any):
        ticket = self.scheduler.submit(query, engine, **options)
        record = ticket.result().to_dict()
        cache = (
            "hit" if ticket.cache_hit
            else "dedup" if ticket.deduped
            else "miss"
        )
        return _Reply(record, {"cache": cache, "store": ticket.store})

    def _op_explain(self, *, query: str, engine: str, estimates: bool):
        from repro.api.session import resolve_query

        engine_name = self.registry.resolve(engine).name
        key = (engine_name, query, estimates)
        with self._explain_lock:
            answer = self._explain_memo.get(key)
            if answer is not None:
                self._explain_memo.move_to_end(key)
                return answer
            built = self._explain_engines.get(engine_name)
            if built is None:
                built = self.registry.create(engine_name, graph=self.graph)
                self._explain_engines[engine_name] = built
            # explain() is analytical and engine state is untouched, but
            # engines are not thread-safe in general: hold the lock.
            answer = built.explain(
                resolve_query(query),
                graph=self.graph if estimates else None,
            ).to_dict()
            self._explain_memo[key] = answer
            if len(self._explain_memo) > EXPLAIN_MEMO_SIZE:
                self._explain_memo.popitem(last=False)
        return answer

    def _op_stats(self):
        return self.scheduler.stats()

    def _op_ping(self):
        return {"version": protocol.PROTOCOL_VERSION}

    def _op_shutdown(self):
        return None  # the connection handler stops the server on "bye"

    def _op_announce(
        self, *, address: str, withdraw: Any, graphs: Any, workers: Any,
        pid: Any,
    ):
        if withdraw:
            known = self.shard_registry.withdraw(address)
            if known:
                self._roster_event(_events.WORKER_LEFT, address)
            return _Reply(
                {
                    "address": address,
                    "known": known,
                    "roster": len(self.shard_registry),
                    "version": self.shard_registry.version(),
                },
                {"kind": "withdrawn"},
            )
        before = self.shard_registry.version()
        version = self.shard_registry.announce(
            address, graphs=graphs, workers=workers, pid=pid
        )
        if version != before:
            # A version advance means a *new* roster member (re-announces
            # refresh in place); that join is the transition the health
            # engine's worker_loss rule clears on.
            self._roster_event(
                _events.WORKER_JOINED, address,
                rejoined=self.shard_registry.announces(address) > 1,
            )
        stale_after = self.shard_registry.stale_after
        return {
            "address": address,
            "roster": len(self.shard_registry),
            "version": version,
            # The re-announce cadence that keeps the entry fresh.
            "interval": None if stale_after is None else stale_after / 3.0,
        }

    def _roster_event(self, kind: str, address: str, **attrs: Any) -> None:
        _events.emit(
            "info", "registry", kind, address=address,
            roster=len(self.shard_registry), **attrs,
        )

    # -- streaming / continuous queries --------------------------------
    def _op_register(
        self, *, query: str, tenant: "str | None", collect: bool,
        push: bool, sink: Any, attached: "list[str] | None",
    ):
        watch = self.streams.register(query, tenant=tenant, collect=collect)
        pushing = push and sink is not None
        if pushing:
            self.streams.attach_push(
                watch.id,
                lambda record, send=sink, watch_id=watch.id: send({
                    "kind": "delta",
                    "ok": True,
                    "watch": watch_id,
                    "result": record.to_dict(),
                }),
            )
            if attached is not None:
                attached.append(watch.id)
        current = self.streams.current
        return {
            "watch": watch.id,
            "pattern": watch.pattern.name,
            "version": current.version,
            "fingerprint": current.fingerprint,
            "push": pushing,
        }

    def _op_unregister(self, *, watch: str):
        return {"watch": watch, "known": self.streams.unregister(watch)}

    def _op_ingest(self, *, additions: Any, deletions: Any):
        if not additions and not deletions:
            raise protocol.ProtocolError(
                "ingest needs 'additions' and/or 'deletions' edge lists"
            )
        try:
            return self.streams.ingest(additions, deletions)
        except ValueError as exc:
            # Batch validation: names the offending field/edge.
            raise protocol.ProtocolError(
                f"invalid ingest batch: {exc}"
            ) from exc

    def _op_poll(self, *, watch: str, wait: "float | None"):
        try:
            found = self.streams.get(watch)
        except KeyError:
            raise protocol.ProtocolError(
                f"unknown 'watch' id {watch!r}"
            ) from None
        records = found.poll(wait=wait)
        return {
            "watch": watch,
            "deltas": [record.to_dict() for record in records],
            "dropped": found.dropped,
        }

    # -- embedding store (page / lookup / aggregate) --------------------
    def _store_read(self, read: Any, **request: Any):
        try:
            return read(**request)
        except LookupError as exc:
            # Nothing stored for the key (and, historically, an unknown
            # query or engine name too): the message is the whole answer.
            raise protocol.ProtocolError(str(exc)) from exc

    def _op_page(self, **request: Any):
        return self._store_read(self.scheduler.page, **request)

    def _op_lookup(self, **request: Any):
        return self._store_read(self.scheduler.lookup, **request)

    def _op_aggregate(self, **request: Any):
        return self._store_read(self.scheduler.aggregate, **request)

    def _op_metrics(self, *, format: "str | None"):
        """Structured JSON, or (``format: "text"``) the same snapshot as
        Prometheus-style exposition text, one ``repro_*`` sample a line."""
        payload: Any = self._metrics()
        if format == "text":
            from repro.obs.expo import render_text

            payload = render_text(payload)
        return payload

    def _op_events(self, **filters: Any):
        journal = _events.journal()
        return {
            "events": journal.snapshot(**filters),
            "last_seq": journal.last_seq,
            "capacity": journal.capacity,
        }

    def _op_health(self):
        return self.health.evaluate(self._metrics())

    def _metrics(self) -> dict[str, Any]:
        """Structured service counters for the ``metrics`` op."""
        _journal = _events.journal()
        scheduler = self.scheduler.stats()
        cache = scheduler.pop("cache", None)
        store = scheduler.pop("store", None)
        tenants = scheduler.pop("tenants", {})
        observability = self.scheduler.observability()
        current = self.streams.current
        return {
            "uptime_seconds": round(time.monotonic() - self._started, 3),
            "protocol_version": protocol.PROTOCOL_VERSION,
            "graph": current.fingerprint,
            "graph_version": current.version,
            "scheduler": scheduler,
            "cache": cache,
            "store": store,
            "tenants": tenants,
            "histograms": observability["histograms"],
            "slow_queries": observability["slow_queries"],
            "streaming": self.streams.stats(),
            "shards": {
                "configured": list(self.config.shards or ()),
                "registry": self.shard_registry.snapshot(),
                "version": self.shard_registry.version(),
            },
            "events": {
                "last_seq": _journal.last_seq,
                "retained": len(_journal),
                "capacity": _journal.capacity,
            },
        }

    # ------------------------------------------------------------------
    def _log_served(
        self, op: str, kwargs: dict[str, Any], result: dict[str, Any]
    ) -> None:
        """Append a served record to the request log (replayable —
        ``record_from_dict`` passes ``kind``-tagged store reads through).
        """
        if op in ("page", "lookup", "aggregate"):
            # Embedding pages can be large; the log keeps the read's shape
            # (query, engine, counts, disposition), not the payload rows.
            result = {k: v for k, v in result.items() if k != "embeddings"}
            result.update(
                kind=op, query=kwargs["query"], engine=kwargs["engine"]
            )
        self._log_record(result)

    def _log_record(self, record: dict[str, Any]) -> None:
        if self._log_path is None:
            return
        # Logged on a copy: the wall-clock stamp is a property of the
        # *log line* (when the server served it), not of the record the
        # response carries — responses stay byte-identical to PR 8.
        entry = dict(record)
        entry.setdefault("ts", time.time())
        with self._log_lock:
            append_record_jsonl(entry, self._log_path)
