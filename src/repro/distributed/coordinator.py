"""Fault-tolerant shard roster: handshakes, heartbeats, batch dispatch.

:class:`ShardCoordinator` owns the coordinator side of the socket
backend.  It connects to a roster of :class:`~repro.distributed.worker.ShardWorker`
daemons, verifies each handshake (protocol version + role), binds every
worker to the active cluster's partition (shipping the graph once per
worker, cached by fingerprint), and drives batches of tasks with a
bounded per-shard in-flight window.

Fault tolerance is scoped to *connection-level* failures — a worker that
dies (EOF, reset) or hangs past ``task_timeout`` is removed from the
roster and its outstanding tasks are resubmitted to the survivors.
Re-execution is safe because every task is a pure function of the
shipped base snapshot, so results stay bit-identical whether or not a
resubmission happened.  Failures *reported by* a healthy worker (a task
raised, a payload would not pickle) are not retried: they propagate in
task order exactly like the process backend.  Losing the whole roster
raises :class:`DistributedError`.

The coordinator keeps cumulative fault counters
(``distributed.resubmits``, ``distributed.lost_workers``) which
:class:`~repro.distributed.executor.SocketExecutor` surfaces on
``RunResult.counters`` whenever they advance.
"""

from __future__ import annotations

import socket
import threading
import time
import weakref
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.distributed import protocol
from repro.distributed.errors import DistributedError
from repro.obs import events as _events
from repro.runtime.delta import capture_state
from repro.service.protocol import format_address
from repro.service.transport import dial

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.cluster import Cluster
    from repro.distributed.registry import ShardRegistry
    from repro.partition.partition import GraphPartition

__all__ = ["DistributedError", "ShardCoordinator"]

#: Counter names surfaced on RunResult.counters by the socket backend.
RESUBMITS = "distributed.resubmits"
LOST_WORKERS = "distributed.lost_workers"


class _Shard:
    """One worker connection: socket, streams, liveness, bind state."""

    def __init__(self, address: tuple[str, int], *, managed: bool = False):
        self.address = address
        self.sock: socket.socket | None = None
        self.rfile: Any = None
        self.wfile: Any = None
        self.hello: dict[str, Any] = {}
        self.alive = False
        self.bound_key: tuple | None = None
        self.last_error: str | None = None
        #: True for shards owned by the announce registry (joined via
        #: :meth:`ShardCoordinator._sync_registry`); they leave the
        #: roster politely on withdrawal, unlike configured shards.
        self.managed = managed
        #: The registry announce count last acted on — a dead shard whose
        #: count advanced has restarted and is worth reconnecting.
        self.announces_seen = 0
        #: Serializes use of the connection: a batch drive thread holds it
        #: for the whole batch; the heartbeat probes with a non-blocking
        #: acquire and skips busy shards.
        self.lock = threading.Lock()
        self._next_id = 0

    @property
    def name(self) -> str:
        return format_address(*self.address)

    def next_id(self) -> int:
        self._next_id += 1
        return self._next_id

    def close(self) -> None:
        for stream in (self.rfile, self.wfile, self.sock):
            if stream is not None:
                try:
                    stream.close()
                except OSError:
                    pass
        self.sock = self.rfile = self.wfile = None
        self.alive = False


class _Batch:
    """Shared state of one :meth:`ShardCoordinator.run_batch` call.

    Task indices are dealt round-robin into one dedicated *share* per
    shard — so every listed shard is actually exercised each batch and a
    dead one cannot hide behind faster peers — plus a shared overflow
    ``pool`` that receives a failed shard's outstanding work and feeds
    any shard whose own share has drained (work stealing keeps the batch
    work-conserving after a loss).

    ``ctx_data`` is the packed ``(base snapshot, task fn)`` pair — packed
    once here and shipped once per shard (on its first task message,
    tagged ``token``), never once per task: the snapshot grows with the
    cluster, so per-task shipping would make batch serialization and wire
    bytes quadratic in the machine count.

    ``trace`` is the JSON-safe span-propagation context of a traced run
    (:func:`repro.obs.trace.wire_context`) or ``None``; when set it rides
    on every task message, and the workers' finished span dicts shipped
    back beside results accumulate in ``spans``.  ``profile`` marks a
    profiled batch the same way: every task message carries
    ``profile: true``, and the workers' rusage rows shipped back beside
    results accumulate in ``usage``.
    """

    def __init__(
        self,
        token: str,
        ctx_data: bytes,
        tasks: Sequence[Any],
        shard_names: Sequence[str],
        trace: "dict[str, str] | None" = None,
        profile: bool = False,
    ):
        self.token = token
        self.ctx_data = ctx_data
        self.tasks = tasks
        self.trace = trace
        self.profile = profile
        self.spans: list[dict] = []
        self.usage: list[dict] = []
        self.cond = threading.Condition()
        self.shares: dict[str, deque[int]] = {
            name: deque() for name in shard_names
        }
        for index in range(len(tasks)):
            self.shares[shard_names[index % len(shard_names)]].append(index)
        self.pool: deque[int] = deque()
        self.results: dict[int, tuple] = {}
        self.failure: BaseException | None = None
        #: True when the failure was a total roster loss — the one
        #: failure mode a registry-backed run_batch may retry (pure
        #: tasks; nothing was delivered).
        self.roster_lost = False
        self.done = not tasks

    def take(self, name: str) -> int | None:
        """Next task index for shard ``name`` (own share, then the pool)."""
        share = self.shares[name]
        if share:
            return share.popleft()
        if self.pool:
            return self.pool.popleft()
        return None


class ShardCoordinator:
    """Manages the worker roster and dispatches task batches.

    Parameters
    ----------
    shards:
        Worker addresses — ``(host, port)`` tuples, ``"host:port"``
        strings, or bare port numbers (localhost).
    window:
        Per-shard in-flight task cap (pipelining depth).
    connect_timeout:
        Seconds allowed for TCP connect + handshake per worker.
    task_timeout:
        Seconds to wait for any single response before declaring the
        shard *hung* and resubmitting its work (``None`` = trust EOF).
    ship_graph:
        Ship the data graph to workers that do not hold it (cached by
        fingerprint, so each worker receives it at most once).  With
        ``False`` a worker lacking the graph is a handshake rejection:
        :class:`DistributedError` naming the expected and held
        fingerprints.
    heartbeat_interval:
        Seconds between background pings of idle workers (``None`` = no
        heartbeat thread); a worker that fails a ping leaves the roster.
    registry:
        A :class:`~repro.distributed.registry.ShardRegistry` making the
        roster *elastic*: announced workers join as managed shards at
        batch boundaries, withdrawn (or stale-and-dead) managed shards
        leave politely, and a dead shard whose announce count advanced
        is reconnected (a restart/replacement on the same address).
        With a registry ``shards`` may be empty and an unreachable
        initial roster is not fatal — the coordinator waits for
        announcements instead.
    rejoin_timeout:
        Seconds :meth:`run_batch` waits for a replacement worker to
        announce after the whole roster is lost (registry mode only)
        before giving up with :class:`DistributedError`.
    authkey:
        The key of workers started with one, proved on every connection.
    """

    def __init__(
        self,
        shards: Sequence["tuple[str, int] | str | int"],
        *,
        window: int = 4,
        connect_timeout: float = 10.0,
        task_timeout: float | None = 600.0,
        ship_graph: bool = True,
        heartbeat_interval: float | None = None,
        registry: "ShardRegistry | None" = None,
        rejoin_timeout: float = 10.0,
        authkey: bytes | None = None,
    ):
        if not shards and registry is None:
            raise DistributedError("the shard roster is empty")
        if window < 1:
            raise ValueError(f"window must be >= 1, got {window}")
        self.window = window
        self.connect_timeout = connect_timeout
        self.task_timeout = task_timeout
        self.ship_graph = ship_graph
        self.registry = registry
        self.rejoin_timeout = rejoin_timeout
        self.authkey = authkey
        self._shards = [_Shard(protocol.parse_address(a)) for a in shards]
        self._counters = {RESUBMITS: 0, LOST_WORKERS: 0}
        self._counter_lock = threading.Lock()
        self._batch_lock = threading.Lock()
        #: Worker span dicts from the most recent traced batch, consumed
        #: by :meth:`take_worker_spans` (guarded by ``_batch_lock``).
        self._worker_spans: list[dict] = []
        #: Worker rusage rows from the most recent profiled batch,
        #: consumed by :meth:`take_worker_usage` (same guard).
        self._worker_usage: list[dict] = []
        #: Serializes roster edits (registry syncs) against each other;
        #: readers (live_shards, close) see atomic list swaps.
        self._roster_lock = threading.Lock()
        self._batch_seq = 0
        self._closed = False
        # Fingerprint/owner digests are cached per partition object (the
        # hashes cover whole CSR/owner arrays; compute once, not per batch).
        self._bind_cache: "weakref.WeakKeyDictionary[GraphPartition, tuple[str, str]]" = (
            weakref.WeakKeyDictionary()
        )
        for shard in self._shards:
            try:
                self._connect(shard)
            except (OSError, protocol.ProtocolError) as exc:
                self._lose(shard, exc)
        self._sync_registry()
        if not self.live_shards() and registry is None:
            detail = "; ".join(
                f"{s.name}: {s.last_error}" for s in self._shards
            )
            raise DistributedError(
                f"no shard worker reachable out of {len(self._shards)} "
                f"({detail})"
            )
        self._heartbeat_stop = threading.Event()
        self._heartbeat_thread: threading.Thread | None = None
        if heartbeat_interval is not None:
            self._heartbeat_thread = threading.Thread(
                target=self._heartbeat_loop,
                args=(heartbeat_interval,),
                name="repro-shard-heartbeat",
                daemon=True,
            )
            self._heartbeat_thread.start()

    # ------------------------------------------------------------------
    # Roster
    # ------------------------------------------------------------------
    def live_shards(self) -> list[_Shard]:
        """Roster members still believed alive."""
        return [shard for shard in self._shards if shard.alive]

    @property
    def counters(self) -> dict[str, int]:
        """Cumulative fault counters (resubmits, lost workers)."""
        with self._counter_lock:
            return dict(self._counters)

    def _bump(self, counter: str, amount: int = 1) -> None:
        with self._counter_lock:
            self._counters[counter] += amount

    def _connect(self, shard: _Shard) -> None:
        """TCP connect + handshake (role, version, then the key if any)."""
        shard.sock, shard.rfile, shard.wfile, shard.hello = dial(
            shard.address,
            timeout=self.connect_timeout,
            role=protocol.WORKER_ROLE,
            version=protocol.WORKER_PROTOCOL_VERSION,
        )
        if self.authkey is not None:
            challenge = str(shard.hello.get("challenge", ""))
            response = self._request(shard, {
                "op": "auth",
                "id": shard.next_id(),
                "digest": protocol.auth_digest(self.authkey, challenge),
            })
            if not response.get("ok"):
                raise protocol.ProtocolError(
                    f"shard {shard.name} refused the key: "
                    f"{response.get('error')}"
                )
        shard.sock.settimeout(self.task_timeout)
        shard.alive = True
        shard.bound_key = None  # a fresh connection has nothing bound
        shard.last_error = None

    def _join(self, shard: _Shard, **attrs: Any) -> None:
        """Connect an announced shard; one not reachable yet is no fault."""
        try:
            self._connect(shard)
            _events.emit(
                "info", "coordinator", _events.WORKER_JOINED,
                address=shard.name, **attrs,
            )
        except (OSError, protocol.ProtocolError) as exc:
            self._lose(shard, exc, count=False)

    def _lose(
        self,
        shard: _Shard,
        exc: BaseException,
        *,
        count: bool = True,
        trace_id: str | None = None,
    ) -> None:
        """Remove a shard from the roster (fault path).

        Counted whether the shard died mid-service or never answered the
        initial handshake: a roster member the operator configured but
        cannot be used is a lost worker either way (the executor surfaces
        the counter on the next run's results).  Idempotent — a shard the
        heartbeat already buried (callers race it for ``shard.lock``) is
        not re-counted and keeps its original cause of death.  With
        ``count=False`` (a managed shard whose announced join could not
        be connected yet) the removal is not a fault.

        Counted losses are journaled as ``worker.lost``; ``trace_id``
        ties the event to the request whose batch hit the fault (drive
        threads pass the batch's wire context id — context variables do
        not cross into them).
        """
        shard.close()  # a dial that failed past its hello left it open
        if shard.last_error is not None and not shard.alive:
            return
        shard.last_error = f"{type(exc).__name__}: {exc}"
        if count:
            self._bump(LOST_WORKERS)
            _events.emit(
                "error",
                "coordinator",
                _events.WORKER_LOST,
                trace_id=trace_id,
                address=shard.name,
                error=shard.last_error,
                managed=shard.managed,
            )

    # ------------------------------------------------------------------
    # Elastic roster (announce registry)
    # ------------------------------------------------------------------
    def _sync_registry(self) -> None:
        """Reconcile the connection roster with the announce registry.

        Runs at batch boundaries (and from :meth:`run_batch`'s rejoin
        wait): a newly announced address joins as a managed shard; a
        dead shard — managed or configured — whose announce count
        advanced since its death is reconnected (the worker restarted or
        was replaced on the same address; it must rebind); a managed
        shard withdrawn from the registry, or both stale there and dead
        here, leaves politely without touching the fault counters.
        """
        if self.registry is None:
            return
        with self._roster_lock:
            entries = {
                entry["address"]: entry
                for entry in self.registry.snapshot()
            }
            kept: list[_Shard] = []
            for shard in self._shards:
                entry = entries.get(shard.name)
                if shard.managed and (
                    entry is None or (entry["stale"] and not shard.alive)
                ):
                    with shard.lock:
                        shard.close()
                    if entry is None:
                        _events.emit(
                            "info",
                            "coordinator",
                            _events.WORKER_LEFT,
                            address=shard.name,
                        )
                    else:
                        _events.emit(
                            "warning",
                            "coordinator",
                            _events.WORKER_STALE,
                            address=shard.name,
                            age_seconds=entry.get("age_seconds"),
                        )
                    continue
                kept.append(shard)
            self._shards = kept
            known = {shard.name: shard for shard in self._shards}
            for name, entry in entries.items():
                if entry["stale"]:
                    continue
                shard = known.get(name)
                if shard is None:
                    shard = _Shard(
                        protocol.parse_address(name), managed=True
                    )
                    shard.announces_seen = entry["announces"]
                    self._shards.append(shard)
                    self._join(shard)
                elif not shard.alive and (
                    entry["announces"] > shard.announces_seen
                ):
                    shard.announces_seen = entry["announces"]
                    with shard.lock:
                        shard.close()
                        self._join(shard, rejoined=True)
                elif shard.alive:
                    shard.announces_seen = max(
                        shard.announces_seen, entry["announces"]
                    )

    def _await_roster(self, cluster: "Cluster") -> bool:
        """Wait for a usable (live, bound) shard via the registry.

        Polls the registry for up to ``rejoin_timeout`` seconds; returns
        True once a live shard is connected and bound, False on timeout
        (or immediately when there is no registry to wait on).
        """
        if self.registry is None:
            return False
        deadline = time.monotonic() + self.rejoin_timeout
        while True:
            self._sync_registry()
            self._ensure_bound(cluster)
            if self.live_shards():
                return True
            if time.monotonic() >= deadline or self._closed:
                return False
            time.sleep(0.2)

    # ------------------------------------------------------------------
    # Request/response plumbing (caller holds shard.lock)
    # ------------------------------------------------------------------
    def _request(
        self, shard: _Shard, message: dict[str, Any]
    ) -> dict[str, Any]:
        """One synchronous request on an otherwise idle connection."""
        protocol.write_message(shard.wfile, message)
        return self._read(shard, expect=message["id"])

    def _read(
        self, shard: _Shard, *, expect: int | None = None
    ) -> dict[str, Any]:
        response = protocol.read_message(shard.rfile)
        if response is None:
            raise protocol.ProtocolError(
                f"shard {shard.name} closed the connection"
            )
        if expect is not None and response.get("id") != expect:
            raise protocol.ProtocolError(
                f"out-of-sync response from {shard.name}: expected id "
                f"{expect}, got {response.get('id')}"
            )
        return response

    # ------------------------------------------------------------------
    # Binding
    # ------------------------------------------------------------------
    def _bind_payload(self, cluster: "Cluster") -> tuple[str, str]:
        """(graph fingerprint, owner digest) for a cluster's partition."""
        from repro.distributed.worker import owner_digest

        partition = cluster.partition
        cached = self._bind_cache.get(partition)
        if cached is None:
            cached = (
                partition.graph.fingerprint(),
                owner_digest(partition.owner),
            )
            self._bind_cache[partition] = cached
        return cached

    def _ensure_bound(self, cluster: "Cluster") -> None:
        """Bind every live shard to ``cluster``'s partition + cost model."""
        fingerprint, owners = self._bind_payload(cluster)
        key = (fingerprint, owners, cluster.num_machines, cluster.cost_model,
               cluster.memory_capacity)
        # Bind payloads packed at most once per sweep, not once per shard
        # — the ownership map is O(|V|) and a shipped graph is the whole
        # CSR.  Scoped to this call so the coordinator never retains a
        # second full-graph encoding between binds.
        packed: dict[str, bytes] = {}
        for shard in self.live_shards():
            if shard.bound_key == key:
                continue
            with shard.lock:
                if not shard.alive:
                    continue  # lost by the heartbeat since the snapshot
                try:
                    self._bind(shard, cluster, fingerprint, packed)
                    shard.bound_key = key
                except (OSError, protocol.ProtocolError) as exc:
                    self._lose(shard, exc)

    def _bind(
        self,
        shard: _Shard,
        cluster: "Cluster",
        fingerprint: str,
        packed: dict[str, bytes],
    ) -> None:
        data = packed.get("data")
        if data is None:
            data = packed["data"] = protocol.pack({
                "owner": cluster.partition.owner,
                "machines": cluster.num_machines,
                "cost_model": cluster.cost_model,
                "memory_capacity": cluster.memory_capacity,
            })
        message = {
            "op": "bind",
            "id": shard.next_id(),
            "fingerprint": fingerprint,
            "data": data,
        }
        response = self._request(shard, message)
        if response.get("ok"):
            return
        if response.get("code") != "need-graph":
            raise DistributedError(
                f"shard {shard.name} rejected the bind: "
                f"{response.get('error')}"
            )
        if not self.ship_graph:
            held = response.get("have") or []
            raise DistributedError(
                f"graph fingerprint mismatch at shard {shard.name}: "
                f"coordinator expects {fingerprint!r} but the worker "
                f"holds {held!r} (and graph shipping is disabled)"
            )
        message = dict(message, id=shard.next_id())
        graph_payload = packed.get("graph")
        if graph_payload is None:
            graph_payload = packed["graph"] = protocol.pack(cluster.graph)
        message["graph"] = graph_payload
        response = self._request(shard, message)
        if not response.get("ok"):
            raise DistributedError(
                f"shard {shard.name} rejected the shipped graph: "
                f"{response.get('error')}"
            )

    # ------------------------------------------------------------------
    # Batch execution
    # ------------------------------------------------------------------
    def run_batch(
        self,
        cluster: "Cluster",
        fn: Callable,
        tasks: Sequence[Any],
        *,
        trace: "dict[str, str] | None" = None,
        profile: bool = False,
    ) -> list[tuple]:
        """Run one batch; ``(status, payload, delta)`` per task, in order.

        Tasks are dealt to shard drive threads from one shared queue
        (each thread pipelines up to ``window`` in-flight tasks on its
        connection); a shard that fails mid-batch has its outstanding
        tasks requeued for the survivors.

        ``trace`` (a :func:`repro.obs.trace.wire_context` dict) makes the
        batch *traced*: it rides on every task message, workers emit one
        span per task and ship the finished span dicts back beside their
        results, and the caller collects them afterwards via
        :meth:`take_worker_spans`.  ``profile`` makes it *profiled* the
        same way: workers measure their own rusage delta per task and
        ship the rows back, collected via :meth:`take_worker_usage`.
        """
        if self._closed:
            raise DistributedError("coordinator is closed")
        if not tasks:
            return []
        with self._batch_lock:
            try:
                ctx_data = protocol.pack((capture_state(cluster), fn))
            except Exception as exc:
                # Affects every task identically: fail the batch loudly.
                raise DistributedError(
                    f"batch context (cluster snapshot + task fn) is not "
                    f"serializable: {exc}"
                ) from exc
            attempts = 0
            while True:
                attempts += 1
                self._sync_registry()
                self._ensure_bound(cluster)
                if not self.live_shards() and not self._await_roster(
                    cluster
                ):
                    raise DistributedError(self._roster_obituary())
                live = self.live_shards()
                self._batch_seq += 1
                batch = _Batch(
                    f"batch-{self._batch_seq}", ctx_data, tasks,
                    [shard.name for shard in live],
                    trace=trace,
                    profile=profile,
                )
                threads = [
                    threading.Thread(
                        target=self._drive,
                        args=(shard, batch),
                        name=f"repro-shard-{shard.name}",
                        daemon=True,
                    )
                    for shard in live
                ]
                for thread in threads:
                    thread.start()
                with batch.cond:
                    while not batch.done:
                        batch.cond.wait()
                    batch.cond.notify_all()
                for thread in threads:
                    thread.join()
                if batch.failure is not None:
                    if (
                        batch.roster_lost
                        and self.registry is not None
                        and attempts < 2
                        and self._await_roster(cluster)
                    ):
                        # The whole roster died mid-batch but a
                        # replacement announced within rejoin_timeout:
                        # tasks are pure functions of the shipped
                        # snapshot, so rerunning the batch is safe (and
                        # bit-identical).
                        _events.emit(
                            "warning",
                            "coordinator",
                            _events.BATCH_RETRY,
                            trace_id=(
                                trace.get("trace_id") if trace else None
                            ),
                            batch=batch.token,
                            tasks=len(tasks),
                            attempt=attempts,
                        )
                        continue
                    raise batch.failure
                self._worker_spans = list(batch.spans)
                self._worker_usage = list(batch.usage)
                return [batch.results[i] for i in range(len(tasks))]

    def take_worker_spans(self) -> list[dict]:
        """Span dicts shipped back by the last traced batch (consumed).

        Empty for untraced batches.  Called by
        :class:`~repro.distributed.executor.SocketExecutor` right after
        :meth:`run_batch` returns, while the batch span is still open,
        so the worker spans fold into the live trace.
        """
        with self._batch_lock:
            spans, self._worker_spans = self._worker_spans, []
            return spans

    def take_worker_usage(self) -> list[dict]:
        """Rusage rows shipped back by the last profiled batch (consumed).

        Empty for unprofiled batches.  The executor folds these into the
        active :class:`~repro.obs.profile.Profiler` right after
        :meth:`run_batch` returns.
        """
        with self._batch_lock:
            usage, self._worker_usage = self._worker_usage, []
            return usage

    def _drive(self, shard: _Shard, batch: _Batch) -> None:
        """One shard's batch loop: deal, pipeline, collect, survive."""
        inflight: dict[int, int] = {}
        ctx_sent = False
        with shard.lock:
            try:
                if not shard.alive:
                    # The heartbeat buried this shard between run_batch's
                    # roster snapshot and this thread acquiring the lock:
                    # take the fault path so its share is rerouted.
                    raise protocol.ProtocolError(
                        "lost before the batch reached it"
                    )
                while True:
                    send_now: list[int] = []
                    with batch.cond:
                        while True:
                            if batch.done:
                                return
                            while len(inflight) + len(send_now) < self.window:
                                index = batch.take(shard.name)
                                if index is None:
                                    break
                                send_now.append(index)
                            if send_now or inflight:
                                break
                            # Idle but the batch is unfinished: stay
                            # available for resubmitted work.
                            batch.cond.wait(timeout=0.1)
                    # Register every dealt index as in-flight *before*
                    # packing or writing anything: if a write fails
                    # mid-loop, the except path below requeues the whole
                    # remainder instead of losing it (which would hang
                    # the batch).
                    dealt = []
                    for index in send_now:
                        message_id = shard.next_id()
                        inflight[message_id] = index
                        dealt.append((message_id, index))
                    for message_id, index in dealt:
                        try:
                            data = protocol.pack(batch.tasks[index])
                        except Exception as exc:
                            # Unserializable task: a per-task failure
                            # (surfaced in task order, like the process
                            # backend), not a shard fault.
                            inflight.pop(message_id)
                            self._record(batch, index, (
                                "transport_error",
                                RuntimeError(
                                    f"task {index} not serializable: {exc}"
                                ),
                                None,
                            ))
                            continue
                        message = {
                            "op": "task", "id": message_id,
                            "batch": batch.token, "data": data,
                        }
                        if batch.trace is not None:
                            message["trace"] = batch.trace
                        if batch.profile:
                            message["profile"] = True
                        if not ctx_sent:
                            # First task this connection sees for the
                            # batch carries the shared (base, fn) context.
                            message["ctx"] = batch.ctx_data
                            ctx_sent = True
                        protocol.write_message(shard.wfile, message)
                    if not inflight:
                        continue
                    response = self._read(shard)
                    if response.get("id") not in inflight:
                        raise protocol.ProtocolError(
                            f"shard {shard.name} answered unknown task id "
                            f"{response.get('id')}"
                        )
                    index = inflight.pop(response["id"])
                    if response.get("ok"):
                        triple = protocol.unpack(response["data"])
                        worker_spans = response.get("spans")
                        worker_usage = response.get("usage")
                        if worker_spans or worker_usage:
                            with batch.cond:
                                if worker_spans:
                                    batch.spans.extend(worker_spans)
                                if worker_usage:
                                    batch.usage.extend(worker_usage)
                    else:
                        # The worker is healthy but the task failed there
                        # (malformed task, unserializable result).  Surfaced
                        # in task order, like the process backend; never
                        # resubmitted (a poison task would cascade).
                        triple = (
                            "transport_error",
                            RuntimeError(
                                f"shard {shard.name}: "
                                f"{response.get('error')}"
                            ),
                            None,
                        )
                    self._record(batch, index, triple)
            except (
                OSError, ValueError, AttributeError, protocol.ProtocolError
            ) as exc:
                # ValueError/AttributeError cover streams a concurrent
                # loss already closed or nulled ("I/O operation on closed
                # file", NoneType writes) — a shard fault, not a bug.
                trace_id = (
                    batch.trace.get("trace_id") if batch.trace else None
                )
                self._lose(shard, exc, trace_id=trace_id)
                with batch.cond:
                    # Outstanding (sent but unanswered) tasks are
                    # resubmitted to the survivors; the dead shard's
                    # unsent share is simply rerouted.
                    if inflight:
                        batch.pool.extend(sorted(inflight.values()))
                        self._bump(RESUBMITS, len(inflight))
                        _events.emit(
                            "warning",
                            "coordinator",
                            _events.BATCH_RESUBMIT,
                            trace_id=trace_id,
                            address=shard.name,
                            batch=batch.token,
                            tasks=len(inflight),
                        )
                    share = batch.shares[shard.name]
                    batch.pool.extend(share)
                    share.clear()
                    if not self.live_shards() and not batch.done:
                        batch.failure = DistributedError(
                            "all shard workers lost mid-batch: "
                            + self._roster_obituary()
                        )
                        batch.roster_lost = True
                        batch.done = True
                    batch.cond.notify_all()
            except BaseException as exc:  # noqa: BLE001 - must not hang
                # A coordinator-side failure (MemoryError, a bug): fail
                # the whole batch loudly — a silently dead drive thread
                # would leave run_batch waiting forever.
                with batch.cond:
                    if not batch.done:
                        batch.failure = exc
                        batch.done = True
                    batch.cond.notify_all()

    @staticmethod
    def _record(batch: _Batch, index: int, triple: tuple) -> None:
        """File one task's result and complete the batch when it is last."""
        with batch.cond:
            batch.results[index] = triple
            if len(batch.results) == len(batch.tasks):
                batch.done = True
            batch.cond.notify_all()

    def _roster_obituary(self) -> str:
        dead = "; ".join(
            f"{shard.name}: {shard.last_error or 'lost'}"
            for shard in self._shards
            if not shard.alive
        )
        if dead:
            return dead
        if self.registry is not None:
            return "no shard workers announced to the registry"
        return "no shards configured"

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def heartbeat(self) -> int:
        """Ping idle live shards once; returns how many answered.

        Busy shards (mid-batch) are skipped — their liveness is proven by
        the batch traffic itself.  A shard failing its ping leaves the
        roster (``distributed.lost_workers``).
        """
        answered = 0
        for shard in self.live_shards():
            if not shard.lock.acquire(blocking=False):
                answered += 1  # busy == demonstrably alive
                continue
            try:
                if not shard.alive:
                    continue  # buried since the roster snapshot
                response = self._request(
                    shard, {"op": "ping", "id": shard.next_id()}
                )
                if not response.get("ok"):
                    raise protocol.ProtocolError(
                        f"ping rejected: {response.get('error')}"
                    )
                answered += 1
            except (OSError, protocol.ProtocolError) as exc:
                self._lose(shard, exc)
            finally:
                shard.lock.release()
        return answered

    def _heartbeat_loop(self, interval: float) -> None:
        while not self._heartbeat_stop.wait(interval):
            if self._closed:
                return
            self.heartbeat()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Disconnect from every worker (the daemons keep running).

        Sockets are shut down *before* taking the per-shard locks: a
        heartbeat (or batch) thread blocked in ``recv`` on a hung shard
        holds its lock for up to ``task_timeout`` — the shutdown forces
        that read to return immediately instead of waiting it out.
        """
        self._closed = True
        self._heartbeat_stop.set()
        for shard in self._shards:
            sock = shard.sock
            if sock is not None:
                try:
                    sock.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        if self._heartbeat_thread is not None:
            self._heartbeat_thread.join(timeout=5)
            self._heartbeat_thread = None
        for shard in self._shards:
            with shard.lock:
                shard.close()

    def __enter__(self) -> "ShardCoordinator":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
