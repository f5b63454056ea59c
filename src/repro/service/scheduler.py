"""Concurrent query scheduler: many submissions over one data graph.

:class:`QueryScheduler` turns the one-shot :class:`repro.api.session.Session`
execution path into an always-on serving loop.  Submissions go into a
priority queue; a fixed pool of worker threads executes them over the
existing engine/:class:`~repro.runtime.executor.Executor` machinery, each
run on a fresh-stats cluster over one shared partition (so results are
bit-identical to a standalone ``Session.run()``).

Serving features, each deterministic and independently testable:

- **Priorities** — higher ``priority`` runs first; ties are FIFO.  A
  dedup rider that raises a queued execution's priority re-queues it
  behind the work already waiting at that priority.
- **Admission control** — every request reserves an estimated memory
  footprint (default: the worst case of its simulated cluster,
  ``machines x memory_mb``) against a host budget derived from
  :attr:`RunConfig.memory_mb` (default: one worst-case query per worker
  thread).  The queue head waits until enough reservations are released;
  a request that can *never* fit is rejected at submit time with
  :class:`AdmissionError`.  With ``memory_mb=None`` the budget is
  unlimited.
- **Deduplication** — a submission whose cache key (graph fingerprint,
  ``canonical_key()``, engine, config digest, collect flag) matches an
  in-flight request does not enqueue new work: it attaches to the running
  execution and receives the same result, remapped to its own pattern.
- **Result cache** — finished runs go into a :class:`~repro.service.cache.ResultCache`;
  later submissions of the same key (including isomorphic rewrites) are
  answered immediately, without touching the queue.
- **Timeout / cancellation** — ``timeout=`` bounds *waiting*: a timer
  fails the ticket with :class:`ServiceTimeout` at its deadline, so a
  blocked ``result()`` returns on time no matter how busy the workers
  are.  Expired queued work is skipped entirely; a run already
  executing is not preempted — its result still lands in the cache for
  the next requester.  :meth:`QueryTicket.cancel` works any time
  before delivery.
- **Tenant quotas** — ``submit(tenant=...)`` attributes the request to
  a tenant; ``tenants=`` / ``default_quota=`` attach
  :class:`~repro.service.tenancy.TenantQuota` limits: token-bucket
  submission rates (rejected loudly at submit with
  :class:`~repro.service.tenancy.QuotaExceeded`), per-tenant
  concurrent-memory budgets (an over-budget tenant's work is *deferred*
  at claim time without blocking other tenants — unlike the global
  budget, which is strict), and weighted fair-share claiming among
  equal-priority queued requests (least reserved bytes per unit weight
  runs first, FIFO within a tenant).

Engines are built per worker thread (they keep per-run state), and each
worker owns one executor from :meth:`RunConfig.make_executor` — with
``RunConfig(backend="socket", shards=[...])`` every worker thread holds
its own connections to the shard roster, so a served session fans
concurrent queries out across hosts.  Submitting an engine whose
registry entry has ``distributed=False`` on the socket backend raises
:class:`~repro.api.registry.CapabilityError` at submit time.
"""

from __future__ import annotations

import dataclasses
import itertools
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from typing import TYPE_CHECKING, Any, Callable

from repro.api.config import MIB, RunConfig, normalize_collect
from repro.api.execute import execute_once
from repro.api.registry import EngineRegistry, default_registry
from repro.distributed.errors import DistributedError
from repro.engines.base import RunResult
from repro.enumeration.labeled import LabeledPattern
from repro.obs import events as _events
from repro.obs.hist import Histogram, SlowQueryLog
from repro.obs.trace import Tracer
from repro.query.pattern import Pattern
from repro.service import protocol
from repro.service.cache import (
    DEDUP_COUNTER,
    STORE_HIT_COUNTER,
    ResultCache,
    cache_key,
    config_digest,
    serve_copy,
)
from repro.service.tenancy import QuotaExceeded, TenantLedger, TenantQuota

if TYPE_CHECKING:  # pragma: no cover - types only
    from typing import Mapping

    from repro.distributed.registry import ShardRegistry
    from repro.graph.graph import Graph
    from repro.store import EmbeddingStore

__all__ = [
    "AdmissionError",
    "QueryScheduler",
    "QueryTicket",
    "QuotaExceeded",
    "SchedulerClosed",
    "ServiceTimeout",
]


class SchedulerClosed(RuntimeError):
    """Submission after :meth:`QueryScheduler.close`."""


class AdmissionError(RuntimeError):
    """A request's memory estimate exceeds the whole admission budget."""


class ServiceTimeout(TimeoutError):
    """A request was not delivered within its ``timeout``."""


class QueryTicket:
    """Handle for one submission: a future plus serving metadata.

    ``cache_hit`` is True when the submission was answered from the
    result cache without queueing; ``deduped`` when it attached to an
    identical in-flight execution.  :meth:`result` blocks (with an
    optional *wait* timeout, independent of the submission's own
    ``timeout``); :meth:`cancel` succeeds any time before delivery.
    """

    def __init__(
        self,
        pattern: Pattern,
        engine: str,
        *,
        priority: int,
        deadline: float | None,
        limit: int | None,
        tenant: "str | None" = None,
        trace: bool = False,
        profile: bool = False,
    ):
        self.pattern = pattern
        self.engine = engine
        self.priority = priority
        self.deadline = deadline
        self.limit = limit
        self.tenant = tenant
        #: The request asked for a span tree (``RunResult.trace``).
        self.trace = trace
        #: The request asked for a resource profile (``RunResult.profile``).
        self.profile = profile
        self.cache_hit = False
        self.deduped = False
        #: Store disposition for ``collect="store"`` submissions:
        #: ``"hit"`` (answered from the persisted set) or ``"stored"``
        #: (enumerated and persisted by this submission); None otherwise.
        self.store: "str | None" = None
        self._future: "Future[RunResult]" = Future()
        self._timer: "threading.Timer | None" = None

    def result(self, timeout: float | None = None) -> RunResult:
        """The run's :class:`RunResult` (raises what the run raised)."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """True once delivered, failed or cancelled."""
        return self._future.done()

    def cancelled(self) -> bool:
        """True when :meth:`cancel` won."""
        return self._future.cancelled()

    def cancel(self) -> bool:
        """Abandon the request; True unless already delivered."""
        cancelled = self._future.cancel()
        if cancelled:
            self._drop_timer()  # reap the deadline timer right away
        return cancelled

    # -- scheduler side -------------------------------------------------
    def _expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    def _claim_resolution(self) -> bool:
        """Atomically win the right to resolve the future (or lose)."""
        if self._future.done():
            # Already resolved — the deadline timer, a canceller or
            # another deliverer got here first.  (Also checked below:
            # done() is only a fast path, the transition is what counts.)
            return False
        try:
            return self._future.set_running_or_notify_cancel()
        except RuntimeError:
            return False

    def _deliver(self, build: Callable[[], RunResult]) -> bool:
        """Resolve the future unless cancellation/timeout already won."""
        if not self._claim_resolution():
            return False
        try:
            self._future.set_result(build())
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiter
            self._future.set_exception(exc)
        self._drop_timer()
        return True

    def _fail(self, exc: BaseException) -> bool:
        if not self._claim_resolution():
            return False
        self._future.set_exception(exc)
        self._drop_timer()
        return True

    def _drop_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class _Execution:
    """One unit of queue work: a primary request plus dedup followers.

    ``graph``/``partition`` pin the snapshot the execution runs against:
    they are captured at submit time, so a :meth:`QueryScheduler.rebind_graph`
    between submission and execution cannot mix versions — the cache key
    (which leads with the pinned graph's fingerprint) and the data the
    engine reads always describe the same snapshot.  ``job`` carries an
    opaque callable instead of a query (see
    :meth:`QueryScheduler.submit_job`).
    """

    def __init__(
        self,
        key: tuple,
        ticket: QueryTicket,
        cost: int,
        *,
        graph: "Graph | None" = None,
        partition: Any = None,
        seq: int,
        job: "Callable[[], Any] | None" = None,
        submitted_at: float = 0.0,
    ):
        self.key = key
        self.engine = ticket.engine
        self.cost = cost
        self.graph = graph
        self.partition = partition
        self.job = job
        #: Scheduler-clock reading at submit; queue-wait is measured
        #: from here to the claim.
        self.submitted_at = submitted_at
        #: The run records a span tree (the primary asked, or a dedup
        #: rider escalated it before a worker claimed the execution).
        self.traced = ticket.trace
        #: The run records a resource profile (same escalation rule).
        self.profiled = ticket.profile
        self.requests: list[QueryTicket] = [ticket]
        #: The pattern actually enumerated (the primary's spelling).
        self.pattern = ticket.pattern
        self.collect = False if job is not None else key[-1]
        #: The tenant whose budget/fair share the execution runs under
        #: (the primary's; dedup riders from other tenants ride free).
        self.tenant = ticket.tenant
        #: Queue order: highest ``priority`` first, then fair share, then
        #: ``seq`` (redrawn when a rider raises the priority).
        self.priority = ticket.priority
        self.seq = seq


class QueryScheduler:
    """Thread-pool query service over one data graph.

    Parameters
    ----------
    graph:
        The data graph every query runs against.
    config:
        Cluster/backend configuration (one shared partition is built from
        it up front; every run gets a fresh-stats cluster over it).
    registry:
        Engine registry (default: :func:`repro.api.default_registry`).
    threads:
        Worker threads executing queued queries concurrently.
    cache:
        A :class:`ResultCache`, ``None`` for the default (128 entries, no
        TTL), or ``False`` to disable caching entirely.
    memory_budget_mb:
        Admission budget in MiB.  Default: ``machines * memory_mb *
        threads`` when the config caps memory, else unlimited.
    partition:
        A prebuilt partition of ``graph`` under this config (e.g. a
        Session's cached one), reused instead of partitioning again.
    tenants / default_quota:
        Per-tenant :class:`~repro.service.tenancy.TenantQuota` limits
        (explicit mapping plus a default for unlisted tenants); see the
        module docstring's tenant-quota bullet.
    shard_registry:
        A :class:`~repro.distributed.registry.ShardRegistry` for the
        socket backend: worker-thread executors reconcile their shard
        rosters against it at batch boundaries, so announced workers
        join (and withdrawn ones leave) a running scheduler.  With a
        registry the roster may start empty — the startup probe is
        skipped and submissions fail with ``DistributedError`` until a
        worker announces.

    Deadlines (``submit(timeout=...)``) are wall-clock
    (:func:`time.monotonic`) throughout — both the queue-side expiry
    checks and the ticket's deadline timer — so the two mechanisms can
    never disagree.
    """

    def __init__(
        self,
        graph: "Graph",
        config: RunConfig | None = None,
        registry: EngineRegistry | None = None,
        *,
        threads: int = 4,
        cache: "ResultCache | None | bool" = None,
        memory_budget_mb: float | None = None,
        partition: Any = None,
        tenants: "Mapping[str, TenantQuota] | None" = None,
        default_quota: "TenantQuota | None" = None,
        shard_registry: "ShardRegistry | None" = None,
        store: "EmbeddingStore | None" = None,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        self.graph = graph
        self.config = config or RunConfig()
        self.registry = registry or default_registry()
        self.shard_registry = shard_registry
        #: Persistent embedding store backing ``collect="store"``
        #: submissions and the page/lookup/aggregate ops (None = the
        #: store tier is off and store-mode submissions are rejected).
        self.store = store
        if cache is False:
            self.cache: ResultCache | None = None
        else:
            self.cache = cache if isinstance(cache, ResultCache) else ResultCache()
        self._clock = time.monotonic
        self._threads = threads
        # The config is immutable, so the digest half of every cache key
        # is computed once here, not per submission.
        self._config_digest = config_digest(self.config)
        # Shared, immutable once built: every run reuses this partition.
        self._partition = (
            partition if partition is not None
            else self.config.make_partition(graph)
        )
        if self.config.backend == "socket" and (
            self.config.shards or shard_registry is None
        ):
            # Fail fast on a dead/misconfigured static shard roster: the
            # per-worker executor fallback below (meant for local worker
            # start failures, where serial is a silent-but-equivalent
            # degradation) must not quietly turn a distributed server
            # into a local one.  DistributedError propagates to whoever
            # is starting the service.  With a shard registry and no
            # static shards the roster is elastic — it may legitimately
            # be empty until a worker announces — so there is nothing to
            # probe at startup.
            self.config.make_executor(registry=shard_registry).close()
        self._tenants = TenantLedger(
            tenants, default=default_quota, clock=time.monotonic
        )
        # -- admission budget ------------------------------------------
        per_query = self.config.memory_bytes
        self._default_cost = (
            0 if per_query is None else per_query * self.config.machines
        )
        if memory_budget_mb is not None:
            if per_query is None:
                raise ValueError(
                    "memory_budget_mb needs RunConfig.memory_mb to meter "
                    "requests: without it every query costs 0 bytes and "
                    "the budget would silently admit unlimited work"
                )
            self._budget: int | None = int(memory_budget_mb * MIB)
        elif per_query is not None:
            self._budget = self._default_cost * threads
        else:
            self._budget = None
        self._reserved = 0
        # -- queue ------------------------------------------------------
        self._cond = threading.Condition()
        #: Unclaimed executions, in submission order.
        self._queue: dict[tuple, _Execution] = {}
        #: Queued and running executions, by key, for deduplication.
        self._inflight: dict[tuple, _Execution] = {}
        self._seq = itertools.count()
        self._closed = False
        self._stats = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "deduped": 0,
            "timeouts": 0,
            "cancelled": 0,
            "rejected": 0,
            "quota_rejected": 0,
            "executor_fallbacks": 0,
            "store_hits": 0,
            "store_stored": 0,
        }
        self._running = 0
        self._max_in_flight = 0
        # -- observability ---------------------------------------------
        # End-to-end submit->deliver latency (fast-path hits included),
        # queue wait (submit->claim, queued executions only) and the 16
        # slowest executions with their span trees; surfaced through
        # observability() / the server's ``metrics`` op.
        self.latency = Histogram("latency")
        self.queue_wait = Histogram("queue_wait")
        self.slow_queries = SlowQueryLog()
        self._workers = [
            threading.Thread(
                target=self._worker, name=f"repro-query-{i}", daemon=True
            )
            for i in range(threads)
        ]
        for worker in self._workers:
            worker.start()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(
        self,
        query: "str | Pattern",
        engine: str = "RADS",
        *,
        priority: int = 0,
        timeout: float | None = None,
        collect: "bool | str | None" = None,
        limit: int | None = None,
        memory_mb: float | None = None,
        tenant: "str | None" = None,
        trace: bool = False,
        profile: bool = False,
    ) -> QueryTicket:
        """Enqueue one query; returns immediately with a :class:`QueryTicket`.

        ``query`` is anything :func:`repro.api.session.resolve_query`
        accepts except labeled patterns; ``engine`` any registry
        name/alias.  ``collect``/``limit`` default to the scheduler
        config's result mode; ``memory_mb`` overrides the request's
        admission estimate; ``tenant`` attributes it to a tenant's
        quota/fair share.  Per-request overrides pass the same checkers
        as the wire fields (:data:`repro.service.protocol.OPS`) — a
        negative ``memory_mb`` must not *credit* the admission budget —
        and are rejected loudly here, at submit time.

        ``collect="store"`` (needs a configured embedding store)
        persists the enumeration: a submission whose key already names a
        stored set is answered from it without queueing
        (``ticket.store == "hit"``), otherwise the run is enumerated
        with embeddings, written to the store and served count-only
        (``ticket.store == "stored"``); pages come from :meth:`page`.

        ``trace=True`` / ``profile=True`` attach the execution's span
        tree (rooted at ``service.execute``) and resource profile as
        ``result.trace`` / ``result.profile`` — see
        :func:`repro.api.execute.execute_once`; cache and store
        fast-path answers carry neither (nothing ran).
        """
        from repro.api.session import resolve_query

        priority = protocol.check_fields(
            "submit", priority=priority, timeout=timeout,
            memory_mb=memory_mb, limit=limit, tenant=tenant,
        )["priority"]
        pattern = resolve_query(query)
        if isinstance(pattern, LabeledPattern):
            raise ValueError(
                "the query service serves unlabeled queries; run labeled "
                "queries through Session.run() instead"
            )
        # Enforced here, at submission time (same rule as Session's): a
        # non-distributed engine on the socket backend is rejected before
        # it consumes queue or budget, not inside a worker thread.
        needs = {"distributed": True} if self.config.backend == "socket" else {}
        engine_name = self.registry.require(engine, **needs).name
        collect = (
            self.config.collect
            if collect is None
            else normalize_collect(collect)
        )
        if collect == "store" and self.store is None:
            raise ValueError(
                "collect='store' needs an embedding store; serve with "
                "--store-dir (or pass store= to the scheduler)"
            )
        limit = self.config.limit if limit is None else limit
        cost = (
            self._default_cost if memory_mb is None else int(memory_mb * MIB)
        )
        if self._budget is not None and cost > self._budget:
            self._rejected(
                "rejected", _events.ADMISSION_REJECTED, pattern=pattern.name,
                tenant=tenant, cost_bytes=cost, budget_bytes=self._budget,
            )
            raise AdmissionError(
                f"query {pattern.name!r} needs {cost} bytes but the "
                f"admission budget is {self._budget} bytes"
            )
        # Tenant gates, both before the cache fast path: the token bucket
        # shapes *request* rate (cache hits and dedup riders are requests
        # too), and a request that can never fit the tenant's own memory
        # budget must fail loudly now, not wait forever at claim time.
        self._admit(tenant, pattern=pattern.name)
        tenant_budget = self._tenants.memory_bytes(tenant)
        if tenant_budget is not None and cost > tenant_budget:
            self._tenants.reject_memory(tenant)
            self._rejected(
                "rejected", _events.ADMISSION_REJECTED, pattern=pattern.name,
                tenant=tenant, cost_bytes=cost, budget_bytes=tenant_budget,
            )
            raise AdmissionError(
                f"query {pattern.name!r} needs {cost} bytes but tenant "
                f"{tenant!r}'s memory budget is {tenant_budget} bytes"
            )
        submitted = self._clock()
        deadline = None if timeout is None else submitted + timeout
        ticket = QueryTicket(
            pattern,
            engine_name,
            priority=priority,
            deadline=deadline,
            limit=limit,
            tenant=tenant,
            trace=bool(trace),
            profile=bool(profile),
        )
        # Pin the snapshot this submission runs against: the cache key
        # below and the execution's graph/partition must describe the
        # same version even if rebind_graph swaps mid-submit.
        with self._cond:
            graph, partition = self.graph, self._partition
        key = cache_key(
            graph,
            pattern,
            engine_name,
            self.config,
            collect=collect,
            digest=self._config_digest,
        )
        # Fast path: a store-mode submission whose set is already
        # persisted is answered from the store without queueing (the
        # ResultCache is bypassed for store keys — the store *is* their
        # serve tier, and it survives restarts).
        if collect == "store":
            served = self.store.result_for(key, pattern)
            if served is not None:
                ticket.store = "hit"
                return self._serve_now(ticket, served, submitted)
        # Fast path: answer from the cache without queueing.
        elif self.cache is not None:
            served = self.cache.get(key, pattern, limit)
            if served is not None:
                ticket.cache_hit = True
                return self._serve_now(ticket, served, submitted)
        with self._cond:
            self._count_submitted(tenant)
            running = self._inflight.get(key)
            if running is None:
                self._enqueue(
                    key, ticket, cost, graph=graph, partition=partition,
                    submitted_at=submitted,
                )
            else:
                # Deduplicate: ride the in-flight execution.
                ticket.deduped = True
                running.requests.append(ticket)
                self._stats["deduped"] += 1
                self._tenants.note(tenant, "deduped")
                if key in self._queue:
                    # A rider asking for a span tree or a profile upgrades
                    # the shared execution (every follower shares them);
                    # one with a higher priority re-queues it behind the
                    # work already waiting at that priority.
                    running.traced |= ticket.trace
                    running.profiled |= ticket.profile
                    if priority > running.priority:
                        running.priority = priority
                        running.seq = next(self._seq)
                        self._cond.notify()
            self._arm_timer(ticket, timeout)
        return ticket

    def _count_submitted(self, tenant: "str | None") -> None:
        """Count one accepted submission (caller holds the lock)."""
        if self._closed:
            raise SchedulerClosed("scheduler is closed")
        self._stats["submitted"] += 1
        self._tenants.note(tenant, "submitted")

    def _enqueue(
        self, key: tuple, ticket: QueryTicket, cost: int, **fields: Any
    ) -> None:
        """Queue a new execution for ``ticket`` (caller holds the lock)."""
        execution = _Execution(
            key, ticket, cost, seq=next(self._seq), **fields
        )
        self._inflight[key] = self._queue[key] = execution
        self._cond.notify()

    def _admit(self, tenant: "str | None", **attrs: Any) -> None:
        """Take one of ``tenant``'s rate tokens, or count, journal and
        raise the :class:`QuotaExceeded`."""
        try:
            self._tenants.admit(tenant)
        except QuotaExceeded:
            self._rejected(
                "quota_rejected", _events.QUOTA_REJECTED, **attrs, tenant=tenant
            )
            raise

    def _rejected(self, counter: str, event: str, **attrs: Any) -> None:
        """Count and journal a submission refused at the door."""
        with self._cond:
            self._stats[counter] += 1
        _events.emit("warning", "scheduler", event, **attrs)

    def _serve_now(
        self, ticket: QueryTicket, served: RunResult, submitted: float
    ) -> QueryTicket:
        """Deliver a store or cache hit on the submitting thread."""
        hit = ticket.cache_hit
        with self._cond:
            self._count_submitted(ticket.tenant)
            self._stats["cache_hits" if hit else "store_hits"] += 1
            if hit:
                self._tenants.note(ticket.tenant, "cache_hits")
        ticket._deliver(lambda: self._finish_result(served, ticket, hit=hit))
        self.latency.observe(self._clock() - submitted)
        return ticket

    def _arm_timer(self, ticket: QueryTicket, timeout: float | None) -> None:
        """Fail the ticket at its deadline even while workers are busy.

        The timer bounds *waiting* precisely — a blocked ``result()``
        returns at the deadline no matter how long the queue is.  The
        execution itself is not preempted; its result is still delivered
        to other requesters and cached.

        Cost: one (daemon) Timer thread per timed request, alive until
        delivery, cancellation or the deadline — a deliberate trade: it
        keeps the deadline authoritative on the ticket itself (observers
        beyond ``result()`` see the failure too) instead of pushing
        deadline math into every waiter.
        """
        if timeout is None:
            return

        def expire() -> None:
            if self._time_out(ticket, f"was not served within {timeout}s"):
                _events.emit(
                    "warning",
                    "scheduler",
                    _events.ADMISSION_TIMEOUT,
                    pattern=ticket.pattern.name,
                    tenant=ticket.tenant,
                    timeout_seconds=timeout,
                )

        ticket._timer = timer = threading.Timer(timeout, expire)
        timer.daemon = True
        timer.start()

    def _time_out(self, ticket: QueryTicket, why: str) -> bool:
        """Fail ``ticket`` with :class:`ServiceTimeout`; count it if
        that resolved it (a canceller or deliverer may have won)."""
        if not ticket._fail(
            ServiceTimeout(f"query {ticket.pattern.name!r} {why}")
        ):
            return False
        with self._cond:
            self._stats["timeouts"] += 1
        return True

    def submit_job(
        self,
        fn: Callable[[], Any],
        *,
        priority: int = 0,
        tenant: "str | None" = None,
        description: str = "job",
    ) -> QueryTicket:
        """Run an opaque callable on the worker pool; returns a ticket.

        The serving features that make sense for non-query work apply:
        tenant token-bucket admission (:class:`QuotaExceeded` at submit),
        priority ordering against queued queries, and the shared stats
        counters.  There is no caching, deduplication or admission cost —
        jobs are assumed light relative to queries (the streaming layer's
        per-batch delta computations ride here).  ``ticket.result()``
        returns whatever ``fn`` returned.
        """
        if not callable(fn):
            raise TypeError(f"fn must be callable, got {fn!r}")
        priority = protocol.check_fields(
            "submit", priority=priority, tenant=tenant
        )["priority"]
        self._admit(tenant, job=description)
        ticket = QueryTicket(
            Pattern(1, [], name=description),
            "job",
            priority=priority,
            deadline=None,
            limit=None,
            tenant=tenant,
        )
        with self._cond:
            self._count_submitted(tenant)
            self._enqueue(
                ("job", next(self._seq)), ticket, 0, job=fn,
                submitted_at=self._clock(),
            )
        return ticket

    def rebind_graph(self, graph: "Graph") -> None:
        """Serve subsequent submissions against a new graph snapshot.

        The streaming ingest path calls this after every applied batch.
        In-flight and queued executions keep the snapshot they were
        submitted against (each execution pins graph + partition at
        submit time, and its cache key leads with that snapshot's
        fingerprint), so a rebind never mixes versions — entries cached
        under the old fingerprint simply become unreachable rather than
        being flushed (reclaim their memory with
        :meth:`ResultCache.evict_graph` if desired).
        """
        partition = self.config.make_partition(graph)
        with self._cond:
            if self._closed:
                raise SchedulerClosed("scheduler is closed")
            self.graph = graph
            self._partition = partition

    # ------------------------------------------------------------------
    # Store serving (index scans; answered inline, never queued)
    # ------------------------------------------------------------------
    def _stored(
        self, op: str, query: "str | Pattern", engine: str, **fields: Any
    ) -> "dict[str, Any]":
        """Answer one store op for (query, engine) on the current graph."""
        from repro.api.session import resolve_query

        protocol.check_fields(op, **fields)
        if self.store is None:
            raise ValueError(
                "no embedding store configured; serve with --store-dir "
                "(or pass store= to the scheduler)"
            )
        pattern = resolve_query(query)
        if isinstance(pattern, LabeledPattern):
            raise ValueError(
                "the embedding store serves unlabeled queries"
            )
        engine_name = self.registry.resolve(engine).name
        with self._cond:
            graph = self.graph
        key = cache_key(
            graph,
            pattern,
            engine_name,
            self.config,
            collect="store",
            digest=self._config_digest,
        )
        result = getattr(self.store, op)(key, pattern, **fields)
        if result is None:
            raise LookupError(
                f"no stored set for {pattern.name!r} on the current graph; "
                f"submit it with collect='store' first"
            )
        result["store"] = "hit"
        return result

    def page(
        self,
        query: "str | Pattern",
        engine: str = "RADS",
        *,
        limit: int,
        offset: int = 0,
    ) -> "dict[str, Any]":
        """One page of a stored set, in its sorted leaf order.

        An index range scan over the persisted columns — only the
        ``limit`` requested embeddings are decompressed.  Raises
        :class:`LookupError` when no set is stored for the key.
        """
        return self._stored("page", query, engine, limit=limit, offset=offset)

    def lookup(
        self, query: "str | Pattern", engine: str = "RADS", *, vertex: int
    ) -> "dict[str, Any]":
        """Stored embeddings containing data vertex ``vertex``
        (inverted-postings scan)."""
        return self._stored("lookup", query, engine, vertex=vertex)

    def aggregate(
        self,
        query: "str | Pattern",
        engine: str = "RADS",
        *,
        group_by: str = "root",
    ) -> "dict[str, Any]":
        """Group counts over a stored set (node ranges; no leaf reads).

        ``group_by``: ``"root"``, ``"vertex"`` or ``"orbit"`` — see
        :meth:`repro.store.EmbeddingStore.aggregate`.
        """
        return self._stored("aggregate", query, engine, group_by=group_by)

    # ------------------------------------------------------------------
    # Worker side
    # ------------------------------------------------------------------
    def _worker(self) -> None:
        engines: "OrderedDict[tuple, Any]" = OrderedDict()
        # The executor rides in a one-slot holder: for the socket
        # backend it is built lazily inside _execute's failure guard, so
        # a shard roster dying after the init-time probe fails the
        # waiting tickets with a visible DistributedError (and is
        # retried on the next claim once the roster heals) instead of
        # silently degrading the "distributed" server to local serial
        # execution.
        holder: list[Any] = [None]
        if self.config.backend != "socket":
            try:
                holder[0] = self.config.make_executor(graph=self.graph)
            except Exception:
                # A process backend that cannot start its local shard
                # workers (fork refused, no free port) must not silently
                # kill the worker and wedge submissions: results are
                # backend-independent, so serial execution is a safe
                # degradation there.
                from repro.runtime.executor import SerialExecutor

                holder[0] = SerialExecutor()
                with self._cond:
                    self._stats["executor_fallbacks"] += 1
        try:
            while True:
                with self._cond:
                    execution = self._claim()
                    while execution is None:
                        if self._closed:
                            return
                        self._cond.wait()
                        execution = self._claim()
                try:
                    self._execute(execution, engines, holder)
                finally:
                    with self._cond:
                        self._reserved -= execution.cost
                        self._tenants.release(
                            execution.tenant, execution.cost
                        )
                        self._running -= 1
                        self._cond.notify_all()
        finally:
            if holder[0] is not None:
                holder[0].close()

    def _prune(self, execution: _Execution, now: float) -> bool:
        """Drop dead tickets from ``execution``; True while any remain.

        Requests that died while queued (timeout / cancel) are counted
        here; :meth:`_claim` drops an execution left with no live
        waiters.  Caller holds the lock.
        """
        live: list[QueryTicket] = []
        for ticket in execution.requests:
            if ticket.cancelled():
                self._stats["cancelled"] += 1
            elif ticket.done():
                pass  # the deadline timer already failed it
            elif not (ticket._expired(now) and self._time_out(
                ticket, "timed out after waiting in the service queue"
            )):
                live.append(ticket)
        execution.requests = live
        return bool(live)

    def _claim(self) -> _Execution | None:
        """Pick the next runnable execution (holding the lock), or None.

        One pass over the queue: executions whose waiters all died are
        dropped; of those whose tenant has headroom under its own memory
        budget, the highest priority wins, then the tenant holding the
        least reserved bytes per unit weight, then the earliest ``seq``
        (FIFO).  A tenant over its budget is deferred until its running
        work releases, without blocking other tenants — the one
        sanctioned bypass.  The *global* budget is strict: when the
        winner does not fit what remains, the worker waits instead of
        claiming something smaller, so a large request cannot be starved
        by a stream of small ones (progress is guaranteed because no
        admitted request costs more than the whole budget).
        """
        now = self._clock()
        for key, execution in list(self._queue.items()):
            if not self._prune(execution, now):
                del self._queue[key]
                self._inflight.pop(key, None)
                self._cond.notify_all()  # a draining close() may be waiting
        ready = [
            e for e in self._queue.values()
            if self._tenants.has_headroom(e.tenant, e.cost)
        ]
        execution = min(ready, default=None, key=lambda e: (
            -e.priority, self._tenants.fair_key(e.tenant), e.seq
        ))
        if execution is None or (
            self._budget is not None
            and self._reserved + execution.cost > self._budget
        ):
            return None
        del self._queue[execution.key]
        self._reserved += execution.cost
        self._tenants.reserve(execution.tenant, execution.cost)
        self._running += 1
        self._max_in_flight = max(self._max_in_flight, self._running)
        self.queue_wait.observe(now - execution.submitted_at)
        return execution

    def _execute(
        self,
        execution: _Execution,
        engines: "OrderedDict[tuple, Any]",
        holder: list[Any],
    ) -> None:
        if execution.job is not None:
            self._execute_job(execution)
            return
        # Made here, not in execute_once: the slow-query log wants the
        # trace id even when only a profile was asked for.
        tracer = Tracer() if execution.traced or execution.profiled else None
        try:
            # Construction is inside the guard too: a failing engine
            # factory, executor (dead shard roster) or partition/cluster
            # problem must fail the waiting tickets, not unwind (and
            # permanently kill) the worker.
            if holder[0] is None:
                holder[0] = self.config.make_executor(
                    registry=self.shard_registry, graph=execution.graph
                )
            # Engines hold a graph reference, so the per-worker cache is
            # keyed by (engine, snapshot fingerprint) — a rebind must not
            # serve a new version through an engine built over the old
            # one.  key[0] is the pinned snapshot's fingerprint.  Bounded
            # (oldest out): a long ingest history must not pin every old
            # graph alive.
            engine_key = (execution.engine, execution.key[0])
            engine = engines.get(engine_key)
            if engine is None:
                if len(engines) >= 8:
                    engines.popitem(last=False)
                engine = self.registry.create(
                    execution.engine, graph=execution.graph
                )
                engines[engine_key] = engine
            # Persisting inside the guard as well: an unwritable store
            # must fail the waiting tickets, not unwind the worker.
            raw = execute_once(
                engine,
                self.config.make_cluster(
                    execution.graph, partition=execution.partition
                ),
                execution.pattern,
                collect=execution.collect,
                executor=holder[0],
                store=self.store,
                key=execution.key,
                trace=execution.traced,
                profile=execution.profiled,
                root="service.execute",
                tracer=tracer,
            )
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiters
            if isinstance(exc, DistributedError) and holder[0] is not None:
                # The roster died under this executor: drop it so the
                # next claim reconnects (and heals once workers return).
                try:
                    holder[0].close()
                finally:
                    holder[0] = None
            self._fail_all(execution, exc)
            return
        requests = self._seal(execution)
        stored_mode = execution.collect == "store" and not raw.failed
        if self.cache is not None and execution.collect != "store":
            # Fault counters (distributed.*) describe how *this*
            # execution was transported, not the result: strip them from
            # the cached copy so later requesters of a healthy roster do
            # not inherit phantom faults.  The current requesters, whose
            # run did experience the fault, still see them (served from
            # ``raw`` below).
            healthy = {
                key: value
                for key, value in raw.counters.items()
                if not key.startswith("distributed.")
            }
            self.cache.put(
                execution.key,
                execution.pattern,
                dataclasses.replace(raw, counters=healthy),  # put() copies
            )
        now = self._clock()

        def deliver(ticket: QueryTicket) -> bool:
            if ticket._expired(now):
                self._time_out(ticket, "finished after its deadline")
                return False
            if stored_mode:
                ticket.store = "stored"
            return ticket._deliver(
                lambda: self._finish_result(
                    serve_copy(
                        raw, execution.pattern, ticket.pattern, ticket.limit
                    ),
                    ticket,
                    hit=False,
                )
            )

        self._settle(requests, deliver, "completed")
        if stored_mode:
            with self._cond:
                self._stats["store_stored"] += 1
        duration = now - execution.submitted_at
        self.latency.observe(duration)
        self.slow_queries.record({
            "pattern": execution.pattern.name,
            "engine": execution.engine,
            "tenant": execution.tenant,
            "duration": duration,
            "trace_id": None if tracer is None else tracer.trace_id,
            "trace": raw.trace,
        })

    def _seal(self, execution: _Execution) -> list[QueryTicket]:
        """Close the follower list; everyone on it gets the outcome.

        A dedup submission can only attach while the key is in
        ``_inflight``, so popping it here (under the lock) guarantees
        later identical submissions start a fresh execution.
        """
        with self._cond:
            self._inflight.pop(execution.key, None)
            return list(execution.requests)

    def _settle(
        self,
        requests: list[QueryTicket],
        resolve: Callable[[QueryTicket], bool],
        counter: str,
    ) -> None:
        """Resolve each ticket; count under ``counter`` only the ones
        ``resolve`` won — tickets already timed out or cancelled are in
        those counters."""
        settled = 0
        for ticket in requests:
            if resolve(ticket):
                settled += 1
                self._tenants.note(ticket.tenant, counter)
        with self._cond:
            self._stats[counter] += settled

    def _fail_all(self, execution: _Execution, exc: BaseException) -> None:
        self._settle(
            self._seal(execution), lambda ticket: ticket._fail(exc), "failed"
        )

    def _execute_job(self, execution: _Execution) -> None:
        """Run an opaque job on this worker; deliver its return value."""
        try:
            value = execution.job()
        except BaseException as exc:  # noqa: BLE001 - forwarded to waiter
            self._fail_all(execution, exc)
            return
        self._settle(
            self._seal(execution),
            lambda ticket: ticket._deliver(lambda: value),
            "completed",
        )

    # ------------------------------------------------------------------
    # Result shaping
    # ------------------------------------------------------------------
    def _finish_result(
        self, served: RunResult, ticket: QueryTicket, *, hit: bool
    ) -> RunResult:
        """Apply the request's counter annotations in place (its limit
        was applied when the copy was cut: ``cache.get`` / ``serve_copy``)."""
        if self.cache is not None:
            self.cache.annotate(served, hit=hit)
        served.counters[DEDUP_COUNTER] = 1 if ticket.deduped else 0
        if self.store is not None:
            # Store hits set 1 in result_for; everything else serves 0.
            served.counters.setdefault(STORE_HIT_COUNTER, 0)
        return served

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, Any]:
        """JSON-safe snapshot of scheduler (and cache) counters."""
        with self._cond:
            snapshot: dict[str, Any] = dict(self._stats)
            # Live queued work: executions whose waiters all timed out or
            # cancelled stay queued until the next claim drops them.
            snapshot["queued"] = sum(
                any(not ticket.done() for ticket in execution.requests)
                for execution in self._queue.values()
            )
            snapshot["running"] = self._running
            snapshot["max_in_flight"] = self._max_in_flight
            snapshot["threads"] = self._threads
            snapshot["budget_bytes"] = self._budget
            snapshot["reserved_bytes"] = self._reserved
        snapshot["cache"] = None if self.cache is None else self.cache.stats()
        snapshot["store"] = None if self.store is None else self.store.stats()
        snapshot["tenants"] = self._tenants.stats()
        return snapshot

    def observability(self) -> dict[str, Any]:
        """Timing histograms (p50/p95/p99) and the slow-query log.

        JSON-safe; the server merges it into the ``metrics`` op.  The
        ``cache_lookup`` histogram appears only when a cache is
        configured (it lives on the cache, timing every ``get``).
        """
        histograms = {
            "latency": self.latency.snapshot(),
            "queue_wait": self.queue_wait.snapshot(),
        }
        if self.cache is not None:
            histograms["cache_lookup"] = self.cache.lookups.snapshot()
        return {
            "histograms": histograms,
            "slow_queries": self.slow_queries.snapshot(),
        }

    def close(self, *, cancel_pending: bool = True) -> None:
        """Stop the workers (idempotent).

        Pending queued requests are cancelled (or, with
        ``cancel_pending=False``, the call blocks until the workers have
        drained the queue before shutting them down).
        """
        with self._cond:
            if self._closed:
                return
            if cancel_pending:
                for key, execution in self._queue.items():
                    for ticket in execution.requests:
                        if ticket.cancel():
                            self._stats["cancelled"] += 1
                    self._inflight.pop(key, None)
                self._queue.clear()
            else:
                # Workers notify whenever they finish or drop queued work.
                while self._queue or self._running:
                    self._cond.wait()
            self._closed = True
            self._cond.notify_all()
        for worker in self._workers:
            worker.join()

    def __enter__(self) -> "QueryScheduler":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
