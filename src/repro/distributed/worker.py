"""Shard worker daemon: executes cluster tasks shipped over TCP.

:class:`ShardWorker` is the remote half of the socket backend.  One
daemon runs per host (``repro worker --port P`` on the CLI), holds the
CSR data graph and ownership map *locally* — preloaded from a path, or
shipped once by a coordinator and cached by ``Graph.fingerprint()`` — and
executes :mod:`repro.runtime` tasks against worker-local cluster
replicas, streaming ``(status, payload, delta)`` triples back for the
coordinator's deterministic task-order merge.

Execution modes:

- ``workers=0`` (default): tasks run inline on a per-connection replica
  cluster, one at a time in arrival order.
- ``workers=N``: tasks fan out over the daemon's own
  ``ProcessPoolExecutor``; the partition is published once into shared
  memory (the PR 1 :mod:`repro.runtime.shared_graph` machinery) and pool
  processes rebuild replicas from it, exactly like the local
  :class:`~repro.runtime.executor.ProcessExecutor`.

Each connection gets two threads: the handler thread *only reads* (so a
pipelining coordinator can always drain its sends — the classic
write/write pipelining deadlock is impossible) and a per-connection executor thread
runs tasks and writes responses.  ``ping``/``stats``/``shutdown`` are
answered inline from the reader; ``bind`` and ``task`` are ordered
through the executor queue (a bind is a barrier w.r.t. in-flight tasks).

:meth:`crash` kills the daemon abruptly — listener and live connections
are torn down with no protocol goodbye — so tests and demos can exercise
the coordinator's fault tolerance deterministically.

With ``announce="host:port"`` the worker joins a query server's elastic
roster: it sends an ``announce`` op to that address on start and every
``announce_interval`` seconds (a background daemon thread), and
withdraws itself on a polite :meth:`close` — but *not* on
:meth:`crash`, so the registry sees exactly what a killed host would
leave behind (a silent entry going stale).
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import os
import queue
import socket
import socketserver
import threading
import time
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.cluster.cluster import Cluster
from repro.distributed import protocol
from repro.graph.graph import Graph
from repro.obs.profile import task_rusage, worker_usage
from repro.obs.trace import remote_span
from repro.partition.partition import GraphPartition
from repro.runtime.executor import _SpecEntry, _worker_run, execute_task

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.runtime.executor import _ClusterSpec

__all__ = ["ShardWorker", "stop_worker"]

#: Replica clusters cached per connection; evict beyond this many.
_REPLICA_CACHE_LIMIT = 8
#: Daemon-level caches (graphs by fingerprint, partitions, shared-memory
#: specs) are LRU-bounded at this many entries each: a long-lived worker
#: serving many distinct graphs must not grow (or pin /dev/shm segments)
#: without bound.
_DAEMON_CACHE_LIMIT = 8


def _touch_lru(cache: dict, key: Any) -> Any:
    """Return cache[key] (or None), refreshing its insertion-order age."""
    value = cache.pop(key, None)
    if value is not None:
        cache[key] = value
    return value


def owner_digest(owner: np.ndarray) -> str:
    """Content hash of an ownership map (the partition half of bind keys)."""
    digest = hashlib.sha256()
    digest.update(b"owner-map-v1")
    digest.update(np.ascontiguousarray(owner).tobytes())
    return digest.hexdigest()


class _Connection:
    """Per-connection state: bound replica, task queue, executor thread."""

    _SENTINEL = object()

    def __init__(self, worker: "ShardWorker", connection: socket.socket,
                 wfile: Any):
        self.worker = worker
        self.connection = connection
        self._wfile = wfile
        self._write_lock = threading.Lock()
        self._queue: "queue.Queue[Any]" = queue.Queue()
        # Serial mode: replica clusters by bind key, LRU-capped.
        self._replicas: dict[tuple, Cluster] = {}
        self._cluster: Cluster | None = None
        # Pool mode: the shared-memory spec of the bound partition.
        self._spec: "_ClusterSpec | None" = None
        # (token, unpacked (base, fn)) of the current batch: shipped on
        # the first task of each batch, shared by the rest (the snapshot
        # is an immutable frozen dataclass, so reuse is safe).
        self._batch_ctx: tuple[Any, tuple] | None = None
        # In-flight pool futures (bind/close barriers wait on them).
        self._inflight: set = set()
        self._inflight_cond = threading.Condition()
        self._thread = threading.Thread(
            target=self._loop, name="repro-shard-exec", daemon=True
        )
        self._thread.start()

    # -- writing -------------------------------------------------------
    def write(self, message: dict[str, Any]) -> None:
        """Send one response (reader + executor + pool callbacks share)."""
        try:
            with self._write_lock:
                protocol.write_message(self._wfile, message)
        except (OSError, ValueError):
            pass  # connection gone; the reader will notice and close us

    # -- reader side ---------------------------------------------------
    def enqueue(self, message: dict[str, Any]) -> None:
        """Order a bind/task behind everything already accepted."""
        self._queue.put(message)

    def close(self) -> None:
        """Stop the executor thread and drain in-flight pool work."""
        self._queue.put(self._SENTINEL)
        self._thread.join(timeout=30)

    # -- executor side -------------------------------------------------
    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                self._drain_inflight()
                return
            try:
                if item.get("op") == "bind":
                    # Barrier: a re-bind must not race in-flight tasks
                    # that still reference the previous partition's
                    # shared memory.
                    self._drain_inflight()
                    self.write(self._bind(item))
                else:
                    self._task(item)
            except Exception as exc:  # backstop: the thread must survive
                self.write(protocol.error_response(
                    item.get("id"), f"worker-side failure: {exc!r}"
                ))

    def _drain_inflight(self) -> None:
        with self._inflight_cond:
            while self._inflight:
                self._inflight_cond.wait()

    def _bind(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        fingerprint = message.get("fingerprint")
        try:
            payload = protocol.unpack(message["data"])
            owner = payload["owner"]
            cost_model = payload["cost_model"]
            capacity = payload["memory_capacity"]
            shipped = message.get("graph")
            graph = (
                protocol.unpack(shipped) if shipped is not None else None
            )
        except (KeyError, protocol.ProtocolError) as exc:
            return protocol.error_response(
                request_id, f"malformed bind: {exc}"
            )
        try:
            graph, cached = self.worker._graph_for(fingerprint, graph)
        except LookupError as exc:
            response = protocol.error_response(request_id, str(exc))
            response["code"] = "need-graph"
            response["have"] = self.worker.fingerprints()
            return response
        except Exception as exc:  # e.g. shipped-graph fingerprint mismatch
            return protocol.error_response(
                request_id, f"bind rejected: {exc}"
            )
        try:
            partition = self.worker._partition_for(graph, owner)
            key = (fingerprint, owner_digest(owner), cost_model, capacity)
            if self.worker.workers > 0:
                self._spec = self.worker._spec_for(
                    partition, cost_model, capacity
                )
                self._cluster = None
            else:
                self._spec = None
                cluster = self._replicas.get(key)
                if cluster is None:
                    cluster = Cluster(partition, cost_model, capacity)
                    while len(self._replicas) >= _REPLICA_CACHE_LIMIT:
                        self._replicas.pop(next(iter(self._replicas)))
                    self._replicas[key] = cluster
                self._cluster = cluster
        except Exception as exc:
            # e.g. shared-memory publication failing on a full /dev/shm:
            # the connection must answer (the coordinator surfaces the
            # message), not strand the coordinator until its timeout.
            return protocol.error_response(
                request_id, f"bind failed on the worker: {exc}"
            )
        return protocol.ok_response(
            request_id, "bound",
            {"fingerprint": fingerprint, "cached_graph": cached},
        )

    def _task(self, message: dict[str, Any]) -> None:
        request_id = message.get("id")
        trace = message.get("trace")
        profile = bool(message.get("profile"))
        try:
            token = message.get("batch")
            ctx = message.get("ctx")
            if ctx is not None:
                self._batch_ctx = (token, protocol.unpack(ctx))
            args = protocol.unpack(message["data"])
        except (KeyError, TypeError, ValueError, protocol.ProtocolError) as exc:
            self.write(protocol.error_response(
                request_id, f"malformed task: {exc}"
            ))
            return
        if self._batch_ctx is None or self._batch_ctx[0] != token:
            self.write(protocol.error_response(
                request_id,
                f"unknown batch {token!r}: the first task of a batch on "
                f"a connection must carry its ctx payload",
            ))
            return
        base, fn = self._batch_ctx[1]
        if self._spec is None and self._cluster is None:
            self.write(protocol.error_response(
                request_id, "no graph bound on this connection; bind first"
            ))
            return
        self.worker._count_task()
        if self._spec is not None:
            try:
                future = self.worker._pool_submit(
                    self._spec, base, fn, args
                )
            except Exception as exc:
                self.write(protocol.error_response(
                    request_id, f"worker pool unavailable: {exc}"
                ))
                return
            with self._inflight_cond:
                self._inflight.add(future)
            started = time.perf_counter()
            ru0 = task_rusage() if profile else None
            future.add_done_callback(
                lambda f, rid=request_id, tr=trace, t0=started, r0=ru0,
                        pr=profile:
                    self._pool_done(
                        rid, f, trace=tr, started=t0, rusage0=r0, profile=pr
                    )
            )
        elif trace is None and not profile:
            self._respond(request_id, execute_task(
                self._cluster, base, fn, args
            ))
        else:
            started = time.perf_counter()
            ru0 = task_rusage() if profile else None
            triple = execute_task(self._cluster, base, fn, args)
            self._respond(
                request_id, triple,
                spans=(
                    [self._task_span(trace, started, mode="inline")]
                    if trace is not None else None
                ),
                usage=(
                    [self._task_usage(ru0, mode="inline")]
                    if profile else None
                ),
            )

    def _task_span(
        self, trace: dict, started: float, *, mode: str
    ) -> dict:
        """One finished leaf span for a task executed on this shard.

        Parented on the coordinator-side batch span carried by the task
        message (the cross-wire link); pool mode's duration includes the
        task's wait in the daemon's own pool queue.
        """
        host, port = self.worker.address
        return remote_span(
            trace,
            "worker.task",
            started,
            time.perf_counter() - started,
            shard=f"{host}:{port}",
            pid=os.getpid(),
            mode=mode,
        )

    def _task_usage(self, before: Any, *, mode: str) -> dict:
        """One finished rusage row for a profiled task on this shard.

        Pool mode ships the daemon-side delta (dispatch/serialization;
        the task body ran in a child process) with ``mode`` marking the
        caveat — see :func:`repro.obs.profile.worker_usage`.
        """
        host, port = self.worker.address
        return worker_usage(before, shard=f"{host}:{port}", mode=mode)

    def _pool_done(
        self,
        request_id: Any,
        future: Any,
        trace: "dict | None" = None,
        started: float = 0.0,
        rusage0: Any = None,
        profile: bool = False,
    ) -> None:
        with self._inflight_cond:
            self._inflight.discard(future)
            self._inflight_cond.notify_all()
        try:
            triple = future.result()
        except concurrent.futures.process.BrokenProcessPool as exc:
            # A pool process died: the pool is unusable, drop it so the
            # next task starts a fresh one.  Reported as a task failure,
            # not a shard death: resubmitting a task that kills workers
            # would cascade.
            self.worker._reset_pool_after_crash()
            self.write(protocol.error_response(
                request_id, f"shard task execution failed: {exc!r}"
            ))
            return
        except BaseException as exc:  # noqa: BLE001 - must answer the id
            # Any other failure — result transport (unpicklable payload),
            # or CancelledError (a BaseException) when a crash reset
            # cancelled queued siblings — is per-task: answer it and keep
            # the (healthy) pool; other connections' work rides on it.
            # An unanswered id would stall the coordinator until its
            # task_timeout buries this perfectly live shard.
            self.write(protocol.error_response(
                request_id, f"shard task execution failed: {exc!r}"
            ))
            return
        spans = None
        if trace is not None:
            spans = [self._task_span(trace, started, mode="pool")]
        usage = None
        if profile:
            usage = [self._task_usage(rusage0, mode="pool")]
        self._respond(request_id, triple, spans=spans, usage=usage)

    def _respond(
        self,
        request_id: Any,
        triple: tuple,
        spans: "list[dict] | None" = None,
        usage: "list[dict] | None" = None,
    ) -> None:
        try:
            data = protocol.pack(triple)
        except Exception as exc:  # unpicklable payload
            self.write(protocol.error_response(
                request_id, f"task result not serializable: {exc}"
            ))
            return
        response = protocol.ok_response(request_id, "delta", None)
        response["data"] = data
        if spans:
            response["spans"] = spans
        if usage:
            response["usage"] = usage
        self.write(response)


class _Handler(socketserver.StreamRequestHandler):
    """One coordinator connection: hello, then the read loop."""

    server: "_TCPServer"
    #: TCP_NODELAY — see :meth:`ShardCoordinator._connect`.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # pragma: no cover - exercised via sockets
        worker = self.server.worker
        try:
            protocol.write_message(self.wfile, worker._hello())
        except OSError:
            return  # readiness probe that connected and hung up
        ctx = _Connection(worker, self.connection, self.wfile)
        worker._register(ctx)
        try:
            while True:
                try:
                    message = protocol.read_message(self.rfile)
                except (protocol.ProtocolError, OSError) as exc:
                    if isinstance(exc, protocol.ProtocolError):
                        ctx.write(protocol.error_response(None, str(exc)))
                    return
                if message is None:
                    return
                if not message:
                    continue
                op = message.get("op")
                request_id = message.get("id")
                if op in ("bind", "task"):
                    ctx.enqueue(message)
                elif op == "ping":
                    ctx.write(protocol.ok_response(
                        request_id, "pong",
                        {"version": protocol.WORKER_PROTOCOL_VERSION},
                    ))
                elif op == "stats":
                    ctx.write(protocol.ok_response(
                        request_id, "stats", worker.stats()
                    ))
                elif op == "shutdown":
                    ctx.write(protocol.ok_response(request_id, "bye", None))
                    worker._request_shutdown()
                    return
                else:
                    ctx.write(protocol.error_response(
                        request_id,
                        f"unknown op {op!r}; expected one of "
                        f"{', '.join(protocol.WORKER_OPS)}",
                    ))
        finally:
            worker._unregister(ctx)
            ctx.close()


class _TCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    worker: "ShardWorker"


class ShardWorker:
    """Long-lived shard daemon serving cluster tasks over TCP.

    Parameters
    ----------
    host, port:
        Bind address (``port=0`` picks an ephemeral port; read
        :attr:`address`).
    graph:
        Optional :class:`Graph` instance or graph file path preloaded
        into the fingerprint cache, so coordinators that already know the
        worker holds the data never ship it.
    workers:
        OS processes for task execution (``0`` = inline serial — every
        connection still runs independently on its own replica).
    announce:
        A query server address (``"host:port"``) to announce this worker
        to — on start and every ``announce_interval`` seconds — joining
        its elastic shard roster; :meth:`close` withdraws the entry.
    announce_interval:
        Seconds between re-announcements (keeps the registry entry
        fresh; the registry's default staleness horizon is three
        intervals).
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        graph: "Graph | str | Path | None" = None,
        workers: int = 0,
        announce: "tuple[str, int] | str | int | None" = None,
        announce_interval: float = 5.0,
    ):
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        if announce_interval <= 0:
            raise ValueError(
                f"announce_interval must be positive, got {announce_interval}"
            )
        self.workers = workers
        self._announce = (
            None if announce is None else protocol.parse_address(announce)
        )
        self._announce_interval = announce_interval
        self._announce_stop = threading.Event()
        self._announce_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._graphs: dict[str, Graph] = {}
        self._partitions: dict[tuple[str, str], GraphPartition] = {}
        self._specs: dict[tuple[str, str], _SpecEntry] = {}
        self._pool: concurrent.futures.ProcessPoolExecutor | None = None
        self._tasks_served = 0
        self._contexts: set[_Connection] = set()
        if graph is not None:
            if not isinstance(graph, Graph):
                from repro.api.session import load_graph

                graph = load_graph(graph)
            self._graphs[graph.fingerprint()] = graph
        self._tcp = _TCPServer((host, int(port)), _Handler)
        self._tcp.worker = self
        self._thread: threading.Thread | None = None
        self._closed = False
        self._crashed = False
        self._serving = False
        self._close_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle (mirrors repro.service.server.QueryServer)
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — resolves ephemeral ports."""
        return self._tcp.server_address[:2]

    def start(self) -> "ShardWorker":
        """Serve on a daemon thread; returns immediately."""
        if self._thread is None:
            self._serving = True
            self._thread = threading.Thread(
                target=self._tcp.serve_forever,
                name="repro-shard-worker",
                daemon=True,
            )
            self._thread.start()
            self._ensure_announcer()
        return self

    def serve_forever(self) -> None:
        """Block serving coordinators until :meth:`close` or a shutdown op."""
        self._serving = True
        self._ensure_announcer()
        self._tcp.serve_forever()

    # -- announce (elastic roster membership) --------------------------
    def _ensure_announcer(self) -> None:
        if self._announce is None or self._announce_thread is not None:
            return

        def loop() -> None:
            self.announce_now()
            while not self._announce_stop.wait(self._announce_interval):
                self.announce_now()

        self._announce_thread = threading.Thread(
            target=loop, name="repro-shard-announce", daemon=True
        )
        self._announce_thread.start()

    def _announce_call(self, message: dict[str, Any]) -> bool:
        """One announce-protocol exchange with the query server."""
        if self._announce is None:
            return False
        try:
            with socket.create_connection(
                self._announce, timeout=10.0
            ) as sock:
                sock.settimeout(10.0)
                rfile = sock.makefile("rb")
                wfile = sock.makefile("wb")
                hello = protocol.read_message(rfile)
                if not hello or hello.get("kind") != "hello":
                    return False
                protocol.write_message(wfile, message)
                reply = protocol.read_message(rfile)
                return bool(reply and reply.get("ok"))
        except (OSError, protocol.ProtocolError):
            return False

    def announce_now(self) -> bool:
        """Send one announce to the configured query server.

        Returns True when the server acknowledged; False when there is
        no announce target, nothing answered, or the reply was an error
        (the periodic announcer just tries again next interval).
        """
        if self._announce is None:
            return False
        host, port = self.address
        return self._announce_call({
            "op": "announce",
            "id": 1,
            "address": f"{host}:{port}",
            "graphs": self.fingerprints(),
            "workers": self.workers,
            "pid": os.getpid(),
        })

    def _withdraw(self) -> None:
        """Best-effort registry withdrawal (polite close only)."""
        host, port = self.address
        self._announce_call({
            "op": "announce",
            "id": 1,
            "address": f"{host}:{port}",
            "withdraw": True,
        })

    def close(self) -> None:
        """Stop accepting, release the socket and the pool (idempotent).

        A worker announcing to a query server withdraws its registry
        entry first — unless it is dying via :meth:`crash`, which must
        look exactly like a killed host (the entry goes stale instead).
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
            self._announce_stop.set()
            if self._announce is not None:
                if not self._crashed:
                    self._withdraw()
                if self._announce_thread is not None:
                    self._announce_thread.join(timeout=5)
                    self._announce_thread = None
            if self._serving:
                self._tcp.shutdown()
            self._tcp.server_close()
            if self._thread is not None:
                self._thread.join()
                self._thread = None
            with self._lock:
                pool, self._pool = self._pool, None
                specs = list(self._specs.values())
                self._specs.clear()
            if pool is not None:
                pool.shutdown(wait=True)
            for entry in specs:
                entry.close()

    def crash(self) -> None:
        """Die abruptly: sever live connections with no protocol goodbye.

        Fault-injection hook for tests and demos — coordinators observe
        exactly what a SIGKILL'd daemon produces (EOF / reset mid-batch)
        without the nondeterminism of killing a real process.  The
        ``_crashed`` flag covers handler threads still between ``accept``
        and registration: they would otherwise slip past the severing
        loop and keep serving a connection the daemon is dead for.
        """
        with self._lock:
            self._crashed = True
            contexts = list(self._contexts)
        for ctx in contexts:
            self._sever(ctx)
        self.close()

    @staticmethod
    def _sever(ctx: _Connection) -> None:
        try:
            ctx.connection.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass

    def _request_shutdown(self) -> None:
        """Shutdown initiated from a handler thread (the ``shutdown`` op)."""
        threading.Thread(target=self.close, daemon=True).start()

    def __enter__(self) -> "ShardWorker":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Shared state behind the connections
    # ------------------------------------------------------------------
    def _hello(self) -> dict[str, Any]:
        return {
            "kind": "hello",
            "ok": True,
            "version": protocol.WORKER_PROTOCOL_VERSION,
            "role": protocol.WORKER_ROLE,
            "graphs": self.fingerprints(),
            "workers": self.workers,
            "pid": os.getpid(),
        }

    def fingerprints(self) -> list[str]:
        """Fingerprints of the graphs this worker holds."""
        with self._lock:
            return list(self._graphs)

    def stats(self) -> dict[str, Any]:
        """JSON-safe daemon counters (the ``stats`` op's payload)."""
        with self._lock:
            return {
                "graphs": list(self._graphs),
                "partitions": len(self._partitions),
                "tasks_served": self._tasks_served,
                "workers": self.workers,
                "connections": len(self._contexts),
                "pid": os.getpid(),
            }

    def _register(self, ctx: _Connection) -> None:
        with self._lock:
            crashed = self._crashed
            if not crashed:
                self._contexts.add(ctx)
        if crashed:
            self._sever(ctx)

    def _unregister(self, ctx: _Connection) -> None:
        with self._lock:
            self._contexts.discard(ctx)

    def _count_task(self) -> None:
        with self._lock:
            self._tasks_served += 1

    def _graph_for(
        self, fingerprint: str, shipped: "Graph | None"
    ) -> tuple[Graph, bool]:
        """The cached graph for ``fingerprint`` (caching ``shipped`` once).

        Returns ``(graph, was_cached)``; raises :class:`LookupError` when
        the graph is neither cached nor shipped (the coordinator answers
        that by re-binding with the graph payload, or — in strict
        no-shipping mode — by failing the handshake loudly).
        """
        with self._lock:
            cached = _touch_lru(self._graphs, fingerprint)
            if cached is not None:
                return cached, True
            if shipped is None:
                raise LookupError(
                    f"graph {fingerprint!r} is not loaded on this worker"
                )
            if shipped.fingerprint() != fingerprint:
                raise ValueError(
                    f"shipped graph fingerprint "
                    f"{shipped.fingerprint()!r} does not match the bind's "
                    f"{fingerprint!r}"
                )
            while len(self._graphs) >= _DAEMON_CACHE_LIMIT:
                self._graphs.pop(next(iter(self._graphs)))
            self._graphs[fingerprint] = shipped
            return shipped, False

    def _partition_for(
        self, graph: Graph, owner: np.ndarray
    ) -> GraphPartition:
        """The worker-local partition for (graph, ownership map), cached."""
        key = (graph.fingerprint(), owner_digest(owner))
        with self._lock:
            partition = _touch_lru(self._partitions, key)
            if partition is None:
                partition = GraphPartition(graph, owner)
                while len(self._partitions) >= _DAEMON_CACHE_LIMIT:
                    self._partitions.pop(next(iter(self._partitions)))
                self._partitions[key] = partition
            return partition

    def _spec_for(
        self, partition: GraphPartition, cost_model: Any, capacity: int | None
    ) -> "_ClusterSpec":
        """Pool mode: the shared-memory spec publishing ``partition``."""
        from repro.runtime.executor import _ClusterSpec

        key = (
            partition.graph.fingerprint(), owner_digest(partition.owner)
        )
        with self._lock:
            entry = _touch_lru(self._specs, key)
            if entry is None:
                entry = _SpecEntry(partition)
                while len(self._specs) >= _DAEMON_CACHE_LIMIT:
                    # Unlink the evicted segments: pool processes that
                    # already attached keep their mappings (a re-bind of
                    # the same partition gets a fresh entry + token), but
                    # the daemon stops pinning /dev/shm for it.
                    self._specs.pop(next(iter(self._specs))).close()
                self._specs[key] = entry
        return _ClusterSpec(
            token=entry.token,
            graph=entry.graph_handle,
            owner=entry.owner_handle,
            cost_model=cost_model,
            memory_capacity=capacity,
        )

    def _pool_submit(self, spec: Any, base: Any, fn: Any, args: Any):
        with self._lock:
            if self._closed:
                raise RuntimeError("worker is closed")
            if self._pool is None:
                self._pool = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.workers
                )
            return self._pool.submit(_worker_run, spec, base, fn, args)

    def _reset_pool_after_crash(self) -> None:
        """Drop a broken pool so the next task starts a fresh one."""
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)


def stop_worker(
    address: "tuple[str, int] | str | int", *, timeout: float = 10.0
) -> bool:
    """Politely stop a shard worker via the protocol's ``shutdown`` op.

    Returns True when the worker acknowledged; False when nothing
    answered (already dead).  Convenience for scripts and CI teardown.
    """
    host, port = protocol.parse_address(address)
    try:
        with socket.create_connection((host, port), timeout=timeout) as sock:
            sock.settimeout(timeout)
            rfile = sock.makefile("rb")
            wfile = sock.makefile("wb")
            hello = protocol.read_message(rfile)
            if not hello or hello.get("kind") != "hello":
                return False
            protocol.write_message(wfile, {"op": "shutdown", "id": 0})
            reply = protocol.read_message(rfile)
            return bool(reply and reply.get("ok"))
    except OSError:
        return False
