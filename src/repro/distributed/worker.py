"""Shard worker daemon: executes cluster tasks shipped over TCP.

:class:`ShardWorker` is the remote half of the socket backend.  One
daemon runs per core (``repro worker --port P`` on the CLI), holds the
CSR data graph and ownership map *locally* — preloaded from a path, or
shipped once by a coordinator and cached by ``Graph.fingerprint()`` — and
executes :mod:`repro.runtime` tasks against worker-local cluster
replicas, streaming ``(status, payload, delta)`` triples back for the
coordinator's deterministic task-order merge.  Tasks run inline on a
per-connection replica cluster, one at a time in arrival order.

Each connection gets two threads: the handler thread *only reads* (so a
pipelining coordinator can always drain its sends — the classic
write/write pipelining deadlock is impossible) and a per-connection executor thread
runs tasks and writes responses.  ``ping``/``stats``/``shutdown`` are
answered inline from the reader; ``bind`` and ``task`` are ordered
through the executor queue (a bind takes effect after the tasks sent
before it).

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

import contextlib
import hashlib
import hmac
import os
import queue
import secrets
import socket
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

from repro.cluster.cluster import Cluster
from repro.distributed import protocol
from repro.graph.graph import Graph
from repro.obs.profile import task_rusage, worker_usage
from repro.obs.trace import remote_span
from repro.partition.partition import GraphPartition
from repro.runtime.executor import execute_task
from repro.service.protocol import PROTOCOL_VERSION, format_address
from repro.service.transport import LineDaemon, acknowledged

__all__ = ["ShardWorker", "stop_worker"]

#: Replica clusters cached per connection; evict beyond this many.
_REPLICA_CACHE_LIMIT = 8
#: Daemon-level caches (graphs by fingerprint, partitions) are
#: LRU-bounded at this many entries each: a long-lived worker serving
#: many distinct graphs must not grow without bound.
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
                 send: Callable[[dict], None], challenge: str | None):
        self.worker = worker
        self.connection = connection
        self._send = send
        #: The hello's challenge until ``auth`` answers it; None = open.
        self._challenge = challenge
        #: This shard's name in span and usage rows.
        self._shard = format_address(*worker.address)
        self._queue: "queue.Queue[Any]" = queue.Queue()
        # Replica clusters by bind key, LRU-capped.
        self._replicas: dict[tuple, Cluster] = {}
        self._cluster: Cluster | None = None
        # (token, unpacked (base, fn)) of the current batch: shipped on
        # the first task of each batch, shared by the rest (the snapshot
        # is an immutable frozen dataclass, so reuse is safe).
        self._batch_ctx: tuple[Any, tuple] | None = None
        self._thread = threading.Thread(
            target=self._loop, name="repro-shard-exec", daemon=True
        )
        self._thread.start()

    # -- reader side ---------------------------------------------------
    def answer(self, message: dict[str, Any]) -> "dict[str, Any] | None":
        """Answer inline, or order a bind/task behind everything accepted."""
        op = message.get("op")
        request_id = message.get("id")
        if op == "auth" or self._challenge is not None:
            return self._admit(message)
        if op in ("bind", "task"):
            self._queue.put(message)
            return None
        if op == "ping":
            return protocol.ok_response(
                request_id, "pong",
                {"version": protocol.WORKER_PROTOCOL_VERSION},
            )
        if op == "stats":
            return protocol.ok_response(
                request_id, "stats", self.worker.stats()
            )
        if op == "shutdown":
            return protocol.ok_response(request_id, "bye", None)
        return protocol.error_response(
            request_id,
            f"unknown op {op!r}; expected one of "
            f"{', '.join(protocol.WORKER_OPS)}",
        )

    def _admit(self, message: dict[str, Any]) -> dict[str, Any]:
        """Answer ``auth``; refuse all else until the key is proved."""
        digest = message.get("digest")
        if self._challenge is not None and not (
            message.get("op") == "auth" and isinstance(digest, str)
            and hmac.compare_digest(digest.encode(), protocol.auth_digest(
                self.worker._authkey, self._challenge
            ).encode())
        ):
            return protocol.error_response(
                message.get("id"),
                "this worker answers only a connection that proved its key "
                "(the 'auth' op)",
            )
        self._challenge = None
        return protocol.ok_response(message.get("id"), "authenticated", None)

    def close(self) -> None:
        """Stop the executor thread once it has drained the queue."""
        self._queue.put(self._SENTINEL)
        self._thread.join(timeout=30)

    # -- executor side -------------------------------------------------
    def write(self, message: dict[str, Any]) -> None:
        """Send one response from the executor thread."""
        try:
            self._send(message)
        except (OSError, ValueError):
            pass  # connection gone; the reader will notice and close us

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is self._SENTINEL:
                return
            try:
                if item.get("op") == "bind":
                    self.write(self._bind(item))
                else:
                    self._task(item)
            except Exception as exc:  # backstop: the thread must survive
                self.write(protocol.error_response(
                    item.get("id"), f"worker-side failure: {exc!r}"
                ))

    def _bind(self, message: dict[str, Any]) -> dict[str, Any]:
        request_id = message.get("id")
        fingerprint = message.get("fingerprint")
        try:
            payload = protocol.unpack(message["data"])
            owner = payload["owner"]
            machines = payload["machines"]
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
        # A failure from here on is answered by _loop's backstop.
        partition = self.worker._partition_for(graph, owner, machines)
        key = (fingerprint, owner_digest(owner), machines, cost_model, capacity)
        cluster = self._replicas.get(key)
        if cluster is None:
            cluster = Cluster(partition, cost_model, capacity)
            while len(self._replicas) >= _REPLICA_CACHE_LIMIT:
                self._replicas.pop(next(iter(self._replicas)))
            self._replicas[key] = cluster
        self._cluster = cluster
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
        if self._cluster is None:
            self.write(protocol.error_response(
                request_id, "no graph bound on this connection; bind first"
            ))
            return
        self.worker._count_task()
        started = time.perf_counter()
        before = task_rusage() if profile else None
        triple = execute_task(self._cluster, base, fn, args)
        # ``mode`` went on the wire when the daemon also had a pool mode;
        # the rows keep it so traces and profiles read as they did.
        measured = {}
        if trace is not None:
            # One finished leaf span, parented on the coordinator-side
            # batch span the task message carried (the cross-wire link).
            measured["spans"] = [remote_span(
                trace,
                "worker.task",
                started,
                time.perf_counter() - started,
                shard=self._shard,
                pid=os.getpid(),
                mode="inline",
            )]
        if profile:
            measured["usage"] = [
                worker_usage(before, shard=self._shard, mode="inline")
            ]
        try:
            data = protocol.pack(triple)
        except Exception as exc:  # unpicklable payload
            self.write(protocol.error_response(
                request_id, f"task result not serializable: {exc}"
            ))
            return
        self.write(protocol.ok_response(
            request_id, "delta", None, data=data, **measured
        ))


class ShardWorker(LineDaemon):
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
    announce:
        A query server address (``"host:port"``) to announce this worker
        to — on start and every ``announce_interval`` seconds — joining
        its elastic shard roster; :meth:`close` withdraws the entry.
    announce_interval:
        Seconds between re-announcements (keeps the registry entry
        fresh; the registry's default staleness horizon is three
        intervals).
    authkey:
        Answer only connections that prove this key (the ``auth`` op).
    """

    codec = protocol
    #: Pool size, from when the daemon could run tasks on its own process
    #: pool; always 0, and still said in hello / stats / announce so
    #: those lines read as they did.  N cores are N daemons.
    workers = 0

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        graph: "Graph | str | Path | None" = None,
        announce: "tuple[str, int] | str | int | None" = None,
        announce_interval: float = 5.0,
        authkey: bytes | None = None,
    ):
        if announce_interval <= 0:
            raise ValueError(
                f"announce_interval must be positive, got {announce_interval}"
            )
        self._announce = (
            None if announce is None else protocol.parse_address(announce)
        )
        self._announce_interval = announce_interval
        self._authkey = authkey
        self._announce_stop = threading.Event()
        self._announce_thread: threading.Thread | None = None
        self._lock = threading.Lock()
        self._graphs: dict[str, Graph] = {}
        self._partitions: dict[tuple[str, str, int], GraphPartition] = {}
        self._tasks_served = 0
        self._contexts: set[_Connection] = set()
        if graph is not None:
            if not isinstance(graph, Graph):
                from repro.api.session import load_graph

                graph = load_graph(graph)
            self._graphs[graph.fingerprint()] = graph
        self._crashed = False
        super().__init__(host, port, name="repro-shard-worker")

    # -- announce (elastic roster membership) --------------------------
    def _launch(self) -> None:
        super()._launch()
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

    def _announce_call(self, **fields: Any) -> bool:
        """One announce-protocol exchange with the query server."""
        if self._announce is None:
            return False
        return acknowledged(
            self._announce,
            {"op": "announce", "id": 1, "address": format_address(*self.address), **fields},
            timeout=10.0,
            role=None,
            version=PROTOCOL_VERSION,
        )

    def announce_now(self) -> bool:
        """Send one announce to the configured query server.

        Returns True when the server acknowledged; False when there is
        no announce target, nothing answered, or the reply was an error
        (the periodic announcer just tries again next interval).
        """
        return self._announce_call(
            graphs=self.fingerprints(), workers=self.workers, pid=os.getpid()
        )

    def _teardown(self) -> None:
        self._announce_stop.set()
        # A worker announcing to a query server withdraws its registry
        # entry first — unless it is dying via crash(), which must look
        # exactly like a killed host (the entry goes stale instead).
        if not self._crashed:
            self._announce_call(withdraw=True)
        if self._announce_thread is not None:
            self._announce_thread.join(timeout=5)
            self._announce_thread = None
        super()._teardown()

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

    @contextlib.contextmanager
    def _connection(
        self, send: Callable[[dict], None], sock: socket.socket, hello: dict
    ):
        ctx = _Connection(self, sock, send, hello.get("challenge"))
        with self._lock:
            crashed = self._crashed
            if not crashed:
                self._contexts.add(ctx)
        if crashed:
            self._sever(ctx)
        try:
            yield ctx.answer
        finally:
            with self._lock:
                self._contexts.discard(ctx)
            ctx.close()

    # ------------------------------------------------------------------
    # Shared state behind the connections
    # ------------------------------------------------------------------
    def _hello(self) -> dict[str, Any]:
        hello = {
            "kind": "hello",
            "ok": True,
            "version": protocol.WORKER_PROTOCOL_VERSION,
            "role": protocol.WORKER_ROLE,
            "graphs": self.fingerprints(),
            "workers": self.workers,
            "pid": os.getpid(),
        }
        if self._authkey is not None:
            hello["challenge"] = secrets.token_hex(16)
        return hello

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
        self, graph: Graph, owner: np.ndarray, machines: int
    ) -> GraphPartition:
        """The worker-local partition for (graph, owner, machines), cached."""
        key = (graph.fingerprint(), owner_digest(owner), machines)
        with self._lock:
            partition = _touch_lru(self._partitions, key)
            if partition is None:
                partition = GraphPartition(graph, owner, machines)
                while len(self._partitions) >= _DAEMON_CACHE_LIMIT:
                    self._partitions.pop(next(iter(self._partitions)))
                self._partitions[key] = partition
            return partition


def stop_worker(
    address: "tuple[str, int] | str | int", *, timeout: float = 10.0
) -> bool:
    """Politely stop a shard worker via the protocol's ``shutdown`` op.

    Returns True when the worker acknowledged; False when nothing
    answered (already dead), what answered is not a shard worker, or
    the worker holds a key (only its owner may stop it).
    Convenience for scripts and CI teardown.
    """
    return acknowledged(
        protocol.parse_address(address),
        {"op": "shutdown", "id": 0},
        timeout=timeout,
        role=protocol.WORKER_ROLE,
        # A daemon left over from another checkout still has to be
        # stoppable: ``shutdown`` is the same line in every version.
        version=None,
    )
