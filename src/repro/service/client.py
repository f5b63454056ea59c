"""Thin client for the query service: a socket, JSON lines, typed results.

:func:`connect` (also exported as ``repro.connect``) opens a TCP
connection and returns a :class:`ServiceClient` whose methods mirror the
session API — ``submit`` returns a real
:class:`~repro.engines.base.RunResult` (rebuilt via ``from_dict``),
``explain`` a :class:`~repro.query.explain.QueryExplanation` — so code
written against a local :class:`~repro.api.session.Session` ports to the
service by swapping the object::

    with repro.connect(("127.0.0.1", 7463)) as client:
        result = client.submit("a-b, b-c, c-a", engine="rads")
        print(result.summary(), client.last_cache)  # "hit" on repeats

One client drives one connection and is not itself thread-safe; open one
client per thread (the server multiplexes all of them onto one scheduler,
which is where cross-client caching and dedup happen).
"""

from __future__ import annotations

from typing import Any

from repro.engines.base import RunResult
from repro.query.explain import QueryExplanation
from repro.service import protocol
from repro.service.transport import dial

__all__ = ["ServiceClient", "ServiceError", "Subscription", "connect"]


class ServiceError(RuntimeError):
    """The server answered ``ok: false`` (the message is its ``error``)."""


def connect(
    address: "tuple[str, int] | str | int", *, timeout: float | None = None
) -> "ServiceClient":
    """Open a :class:`ServiceClient` to a running query server.

    ``timeout`` bounds the TCP connect and every subsequent response
    read (``None`` = wait forever; long enumerations need that or a
    generous value).
    """
    return ServiceClient(protocol.parse_address(address), timeout=timeout)


class ServiceClient:
    """One JSON-lines connection to a :class:`~repro.service.server.QueryServer`."""

    def __init__(
        self, address: tuple[str, int], *, timeout: float | None = None
    ):
        self.address = address
        try:
            self._sock, self._rfile, self._wfile, self.hello = dial(
                address,
                timeout=timeout,
                role=None,
                version=protocol.PROTOCOL_VERSION,
            )
        except protocol.ProtocolError as exc:
            # Not a query server (or not this version of one): callers
            # catch the client's error type, as for any other refusal.
            raise ServiceError(str(exc)) from exc
        self._next_id = 1
        #: Cache disposition of the most recent submit: hit/miss/dedup.
        self.last_cache: str | None = None
        #: Store disposition of the most recent submit: ``"hit"`` /
        #: ``"stored"`` for ``collect="store"``, else None.
        self.last_store: str | None = None
        #: Pushed delta lines that arrived while waiting for a response
        #: (push-mode watches share the connection); drained by
        #: :class:`Subscription`.
        self._pushed: list[dict[str, Any]] = []

    # ------------------------------------------------------------------
    def _call(self, op: str, **fields: Any) -> dict[str, Any]:
        request_id = self._next_id
        self._next_id += 1
        message = {"op": op, "id": request_id}
        message.update(
            {key: value for key, value in fields.items() if value is not None}
        )
        protocol.write_message(self._wfile, message)
        while True:
            response = protocol.read_message(self._rfile)
            if response is None:
                raise ServiceError(
                    f"server at {protocol.format_address(*self.address)} "
                    f"closed the connection"
                )
            if "id" not in response and response.get("kind") == "delta":
                # An unsolicited push-mode delta interleaved with this
                # request's response: buffer it for the subscription.
                self._pushed.append(response)
                continue
            break
        if "id" in response and response["id"] != request_id:
            # A stale response (e.g. from an earlier read that timed
            # out): the stream is desynchronized, so the connection is
            # unusable — close rather than hand back wrong answers.
            self.close()
            raise ServiceError(
                f"out-of-sync response from "
                f"{protocol.format_address(*self.address)}: expected id "
                f"{request_id}, got {response['id']}; connection closed"
            )
        if not response.get("ok"):
            raise ServiceError(response.get("error") or "unknown error")
        return response

    # ------------------------------------------------------------------
    def submit(
        self,
        query: str,
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
    ) -> RunResult:
        """Run one query on the server; blocks until the result arrives.

        Mirrors :meth:`QueryScheduler.submit` (``tenant`` attributes the
        request to a server-side quota); the cache disposition of the
        answer lands in :attr:`last_cache` (``"hit"``, ``"miss"`` or
        ``"dedup"``).  ``collect="store"`` persists the enumeration in
        the server's embedding store (needs ``--store-dir``); the store
        disposition lands in :attr:`last_store` (``"hit"`` or
        ``"stored"``) and pages come from :meth:`page`.

        ``trace=True`` asks the server to record the execution's span
        tree; it comes back on ``result.trace`` (``None`` for fast-path
        cache/store hits, where nothing ran).  ``profile=True`` asks for
        the execution's resource profile — CPU, peak memory, GC deltas,
        flame table, per-worker attribution — on ``result.profile``
        (same fast-path caveat; counts and stats are unaffected).
        """
        response = self._call(
            "submit",
            query=str(query),
            engine=engine,
            priority=priority or None,
            timeout=timeout,
            collect=collect,
            limit=limit,
            memory_mb=memory_mb,
            tenant=tenant,
            trace=trace or None,
            profile=profile or None,
        )
        self.last_cache = response.get("cache")
        self.last_store = response.get("store")
        return RunResult.from_dict(response["result"])

    # -- embedding store ------------------------------------------------
    @staticmethod
    def _tupled(result: "dict[str, Any]") -> "dict[str, Any]":
        """JSON embedding rows back to tuples (the RunResult spelling)."""
        if result.get("embeddings") is not None:
            result["embeddings"] = [
                tuple(row) for row in result["embeddings"]
            ]
        return result

    def page(
        self,
        query: str,
        engine: str = "RADS",
        *,
        limit: int,
        offset: int = 0,
    ) -> dict[str, Any]:
        """One page of a stored set (``collect="store"`` submissions),
        in its sorted leaf order: ``{"embeddings", "total", "offset",
        "limit", "store"}``."""
        response = self._call(
            "page",
            query=str(query),
            engine=engine,
            limit=limit,
            offset=offset,
        )
        return self._tupled(response["result"])

    def lookup(
        self, query: str, engine: str = "RADS", *, vertex: int
    ) -> dict[str, Any]:
        """Stored embeddings containing data vertex ``vertex``:
        ``{"embeddings", "count", "total", "vertex", "store"}``."""
        response = self._call(
            "lookup", query=str(query), engine=engine, vertex=vertex
        )
        return self._tupled(response["result"])

    def aggregate(
        self, query: str, engine: str = "RADS", *, group_by: str = "root"
    ) -> dict[str, Any]:
        """Group counts over a stored set (no decompression):
        ``{"group_by", "total", "groups", "store"}``."""
        response = self._call(
            "aggregate", query=str(query), engine=engine, group_by=group_by
        )
        return response["result"]

    def explain(
        self, query: str, engine: str = "RADS", *, estimates: bool = True
    ) -> QueryExplanation:
        """The engine's :class:`QueryExplanation` for ``query``."""
        response = self._call(
            "explain",
            query=str(query),
            engine=engine,
            estimates=estimates,
        )
        return QueryExplanation.from_dict(response["result"])

    def stats(self) -> dict[str, Any]:
        """Scheduler + cache counter snapshot (see ``QueryScheduler.stats``)."""
        return self._call("stats")["result"]

    def metrics(self, *, format: "str | None" = None) -> "dict[str, Any] | str":
        """Structured service metrics: uptime, scheduler/cache counters,
        timing histograms (p50/p95/p99), the slow-query log, per-tenant
        usage and the shard-roster health snapshot.  With
        ``format="text"`` the server renders the same snapshot as
        Prometheus-style exposition text and a ``str`` is returned."""
        return self._call("metrics", format=format)["result"]

    def events(
        self,
        *,
        level: "str | None" = None,
        component: "str | None" = None,
        since: "int | None" = None,
        limit: "int | None" = None,
    ) -> dict[str, Any]:
        """A filtered slice of the server's event journal.

        Returns ``{"events": [...], "last_seq": N, "capacity": C}``;
        ``level`` is a minimum severity (``debug`` .. ``error``),
        ``component`` matches exactly, ``since`` keeps events with
        ``seq`` strictly greater (poll incrementally by passing the last
        ``last_seq`` you saw), ``limit`` keeps the newest N.
        """
        return self._call(
            "events",
            level=level,
            component=component,
            since=since,
            limit=limit,
        )["result"]

    def health(self) -> dict[str, Any]:
        """The server's SLO verdict over its live metrics snapshot:
        ``{"status": "ok"|"degraded"|"critical", "rules": [...],
        "firing": [...]}`` (see :mod:`repro.obs.health`)."""
        return self._call("health")["result"]

    def ping(self) -> bool:
        """Round-trip health check."""
        return self._call("ping")["kind"] == "pong"

    def shutdown(self) -> None:
        """Ask the server to stop serving (it finishes in the background)."""
        self._call("shutdown")

    # -- streaming / continuous queries --------------------------------
    def register(
        self,
        query: str,
        *,
        tenant: "str | None" = None,
        collect: bool | None = None,
        push: bool = False,
    ) -> dict[str, Any]:
        """Register a continuous query; returns the watch info dict.

        The ``"watch"`` key carries the id for :meth:`poll` /
        :meth:`unregister`.  With ``push=True`` the server additionally
        pushes every delta down *this* connection as it fires (see
        :meth:`subscribe` for the iterator spelling).
        """
        response = self._call(
            "register",
            query=str(query),
            tenant=tenant,
            collect=collect,
            push=push or None,
        )
        return response["result"]

    def unregister(self, watch: str) -> bool:
        """Remove a watch; False when the server no longer knows the id."""
        return bool(
            self._call("unregister", watch=str(watch))["result"]["known"]
        )

    def ingest(
        self,
        additions: "list[tuple[int, int]] | None" = None,
        deletions: "list[tuple[int, int]] | None" = None,
    ) -> dict[str, Any]:
        """Apply one edge batch on the server; returns the ingest report.

        The report carries the new ``version``/``fingerprint`` and a
        per-watch outcome map.  Invalid batches (edge already present,
        edge missing, overlap, endpoint out of range) raise
        :class:`ServiceError` naming the offending edge.
        """
        response = self._call(
            "ingest",
            additions=(
                None if additions is None
                else [[int(u), int(v)] for u, v in additions]
            ),
            deletions=(
                None if deletions is None
                else [[int(u), int(v)] for u, v in deletions]
            ),
        )
        return response["result"]

    def poll(self, watch: str, *, wait: float | None = None):
        """Drain a watch's pending deltas as :class:`DeltaRecord` objects.

        ``wait`` blocks up to that many seconds for the first record
        (bound it below the client's socket timeout).
        """
        from repro.streaming.records import DeltaRecord

        result = self._call("poll", watch=str(watch), wait=wait)["result"]
        return [DeltaRecord.from_dict(data) for data in result["deltas"]]

    def subscribe(
        self,
        query: str,
        *,
        tenant: "str | None" = None,
        collect: bool | None = None,
    ) -> "Subscription":
        """Register with push mode and iterate deltas as they fire::

            with connect(addr) as client:
                for record in client.subscribe("a-b, b-c, c-a"):
                    alert(record.added_count)

        The iterator blocks on the connection (bounded by the client's
        socket timeout); ``Subscription.close()`` unregisters the watch.
        """
        info = self.register(
            query, tenant=tenant, collect=collect, push=True
        )
        return Subscription(self, info)

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close the connection (idempotent)."""
        for closer in (self._rfile.close, self._wfile.close, self._sock.close):
            try:
                closer()
            except OSError:
                pass

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


class Subscription:
    """Iterator over one push-mode watch's delta stream.

    Yields :class:`~repro.streaming.records.DeltaRecord` objects in
    ingest order.  Deltas buffered while other calls were in flight are
    drained first; then the iterator blocks reading the connection.  The
    stream ends (``StopIteration``) when the server closes the
    connection; a socket timeout propagates as-is so callers can poll.
    """

    def __init__(self, client: ServiceClient, info: dict[str, Any]):
        self.client = client
        self.info = info
        self.watch = info["watch"]
        self._closed = False

    def __iter__(self) -> "Subscription":
        return self

    def __next__(self):
        from repro.streaming.records import DeltaRecord

        if self._closed:
            raise StopIteration
        while True:
            for i, message in enumerate(self.client._pushed):
                if message.get("watch") == self.watch:
                    del self.client._pushed[i]
                    return DeltaRecord.from_dict(message["result"])
            message = protocol.read_message(self.client._rfile)
            if message is None:
                raise StopIteration
            if "id" not in message and message.get("kind") == "delta":
                self.client._pushed.append(message)
                continue
            # A response line with an id here means someone interleaved
            # a request on this connection while iterating — the client
            # is documented single-threaded, treat it as desync.
            self.client.close()
            raise ServiceError(
                "unexpected response while subscribed; one client drives "
                "one connection — use a separate client for requests"
            )

    def close(self) -> None:
        """Unregister the watch (idempotent; the connection stays open)."""
        if not self._closed:
            self._closed = True
            try:
                self.client.unregister(self.watch)
            except (ServiceError, OSError):
                # OSError covers a timed-out or torn-down socket: the
                # server reaps the watch's push sink when the connection
                # drops, so a failed goodbye is not a leak.
                pass

    def __enter__(self) -> "Subscription":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
