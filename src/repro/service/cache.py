"""Canonical-pattern result cache: share work across isomorphic queries.

The RADS paper motivates sharing enumeration work across queries; this
module implements the serving-side half of that idea.  Results are keyed
by the *isomorphism class* of the query pattern — via
:meth:`repro.query.pattern.Pattern.canonical_key` — together with the data
graph's content fingerprint, the engine name and a digest of the
stats-affecting :class:`~repro.api.config.RunConfig` fields.  A cache hit
for ``"a-b, b-c, c-a"`` therefore serves ``"x-y, y-z, z-x"`` too: the
stored embeddings are remapped through an explicit isomorphism so every
served tuple is a genuine embedding of the *requested* pattern.

Eviction is LRU with an optional TTL; ``hits`` / ``misses`` / ``evictions``
counters are kept per cache and surfaced on every served
:class:`~repro.engines.base.RunResult` under ``counters["service.*"]``.
TTL-expired entries are swept out *before* any live entry is evicted
for capacity, and they count as ``expirations``, not ``evictions``.

With ``disk_dir`` the memory LRU gains a persistent second tier: every
stored result is also spilled to one JSON file (written atomically)
whose name is the SHA-256 of the canonical cache key and whose body
repeats the full key for verification.  A memory miss falls through to
disk; a verified, unexpired file is promoted back into memory and
served — and because the spill format is exactly the
``RunResult.to_dict()`` round-trip every served copy already uses, a
disk-served result is byte-identical to a memory-served one.  The tier
survives server restarts: a fresh cache pointed at the same directory
reloads entries lazily, re-verifying the stored key (graph fingerprint,
canonical pattern, engine, config digest, collect flag) before serving.
Disk TTLs use wall-clock time (``time.time``), since monotonic clocks
do not survive restarts.

What is deliberately **not** in the key:

- ``workers`` — results are backend-independent (asserted by the runtime
  test suite), so a serial run can serve a ``--workers 8`` client.
- ``limit`` — collected embeddings are truncated at serve time, exactly
  like :meth:`repro.api.session.Session.run` does after an uncached run.

Failed (simulated-OOM) runs are never cached: they are cheap to reproduce
and a capacity change should take effect immediately.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.engines.base import RunResult
from repro.obs import events as _events
from repro.obs.hist import Histogram
from repro.query.isomorphism import find_isomorphism
from repro.query.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.api.config import RunConfig
    from repro.graph.graph import Graph

#: Counter names merged into served ``RunResult.counters``.
HIT_COUNTER = "service.cache_hit"
DEDUP_COUNTER = "service.dedup"
STORE_HIT_COUNTER = "service.store_hit"


def config_digest(config: "RunConfig") -> str:
    """Digest of the RunConfig fields that can change run *statistics*.

    Machines, memory cap, partitioner, cost model, stragglers and seed all
    change the simulated timings/communication (and the OOM outcome), so
    they key the cache.  ``workers``, ``backend`` and ``shards`` are
    excluded — results are backend-independent, so a socket-backed server
    serves cache hits for results computed serially and vice versa — as
    are the result-mode fields (``collect`` keys separately per request;
    ``limit`` is applied at serve time).

    Partitioner/cost-model *instances* are reduced to their type names
    (mirroring ``RunConfig.to_dict``): two differently-parameterised
    instances of one class should be given distinct classes — or distinct
    caches — to be distinguished.
    """
    record = config.to_dict()
    record.pop("workers", None)
    record.pop("backend", None)
    record.pop("shards", None)
    record.pop("collect", None)
    record.pop("limit", None)
    if record.get("stragglers") is not None:
        record["stragglers"] = {
            str(machine): float(factor)
            for machine, factor in sorted(record["stragglers"].items())
        }
    payload = json.dumps(record, sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def cache_key(
    graph: "Graph",
    pattern: Pattern,
    engine: str,
    config: "RunConfig",
    *,
    collect: "bool | str",
    digest: str | None = None,
) -> tuple:
    """The full, hashable cache key for one (graph, query, engine, config).

    ``(graph fingerprint, pattern.canonical_key(), engine, config digest,
    collect)`` — equal for isomorphic patterns, different for anything
    that could change the served bytes.  ``collect`` is the tri-state
    result mode (``False``/``True``/``"store"``); store-mode keys also
    name the persistent :class:`~repro.store.EmbeddingStore` sets.  Pass
    a precomputed ``digest`` (from :func:`config_digest` of the same
    config) to skip rehashing an immutable config on a hot path.
    """
    from repro.api.config import normalize_collect

    return (
        graph.fingerprint(),
        pattern.canonical_key(),
        str(engine),
        config_digest(config) if digest is None else digest,
        normalize_collect(collect),
    )


#: Version tag written into every spill file; bumped on layout changes
#: (a mismatching file is treated as a miss, never misread).
DISK_FORMAT = 1


def _key_record(key: tuple) -> list:
    """The cache key as JSON-safe nested lists (tuples recursed)."""
    return [
        _key_record(part) if isinstance(part, tuple) else part
        for part in key
    ]


def key_digest(key: tuple) -> str:
    """Stable filename digest of a cache key (SHA-256 of its JSON form)."""
    payload = json.dumps(_key_record(key), sort_keys=True).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


def remap_embeddings(
    embeddings: list[tuple[int, ...]],
    stored_pattern: Pattern,
    requested_pattern: Pattern,
) -> list[tuple[int, ...]]:
    """Re-index embeddings of ``stored_pattern`` for ``requested_pattern``.

    An embedding is a tuple indexed by pattern vertex; serving a cached
    result for an isomorphic rewrite must permute each tuple through an
    isomorphism ``requested -> stored`` so that position ``u`` holds the
    data vertex matched to *requested* vertex ``u``.  Structurally equal
    patterns use the identity (so exact repeats are byte-identical even
    when the pattern has non-trivial automorphisms).
    """
    if stored_pattern == requested_pattern:
        return list(embeddings)
    mapping = find_isomorphism(requested_pattern, stored_pattern)
    if mapping is None:
        raise ValueError(
            f"cannot remap embeddings: {requested_pattern.name!r} is not "
            f"isomorphic to cached {stored_pattern.name!r}"
        )
    order = [mapping[u] for u in range(requested_pattern.num_vertices)]
    return [tuple(emb[v] for v in order) for emb in embeddings]


def copy_result(result: RunResult) -> RunResult:
    """A deep, independent copy (via the serialization round-trip).

    The one copy idiom shared by the cache and the scheduler: every
    served result is detached from the stored/raw one, so callers can
    mutate counters or embeddings freely.
    """
    return RunResult.from_dict(result.to_dict())


def serve_copy(
    stored: RunResult,
    executed: Pattern,
    requested: Pattern,
    limit: int | None = None,
) -> RunResult:
    """An independent copy of ``stored`` — a run of ``executed`` — served
    for ``requested``: renamed, embeddings remapped, at most ``limit`` of
    them (and only those are copied and remapped: the remap permutes
    columns row by row, so the first rows stay the first rows)."""
    if limit is not None and stored.embeddings is not None:
        stored = dataclasses.replace(
            stored, embeddings=stored.embeddings[:limit]
        )
    served = copy_result(stored)
    served.pattern_name = requested.name
    if served.embeddings is not None:
        served.embeddings = remap_embeddings(
            served.embeddings, executed, requested
        )
    return served


@dataclass
class _Entry:
    """One cached run: the executed pattern plus its result and deadline."""

    pattern: Pattern
    result: RunResult
    expires_at: float | None


class ResultCache:
    """Thread-safe LRU + TTL cache of :class:`RunResult` records.

    ``capacity`` bounds the number of memory entries
    (least-recently-*used* is evicted first, after TTL-expired entries
    are swept); ``ttl`` (seconds, ``None`` = forever) expires entries
    lazily at lookup and insertion time.  ``clock`` is injectable for
    deterministic tests and defaults to :func:`time.monotonic`.

    ``disk_dir`` enables the persistent second tier (see the module
    docstring): every stored result is spilled to a key-digest-named
    JSON file there, memory misses fall through to disk, and a fresh
    cache over the same directory serves earlier runs after a restart.
    ``disk_capacity`` bounds the file count (oldest spilled evicted
    first); ``wall_clock`` feeds disk TTLs and is injectable too.
    """

    def __init__(
        self,
        capacity: int = 128,
        ttl: float | None = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        disk_dir: "str | Path | None" = None,
        disk_capacity: int | None = None,
        wall_clock: Callable[[], float] = time.time,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        if ttl is not None and ttl <= 0:
            raise ValueError(f"ttl must be positive or None, got {ttl}")
        if disk_capacity is not None and disk_capacity < 1:
            raise ValueError(
                f"disk_capacity must be >= 1 or None, got {disk_capacity}"
            )
        self.capacity = capacity
        self.ttl = ttl
        self._clock = clock
        self._wall = wall_clock
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()
        self._lock = threading.Lock()
        #: Wall time of every :meth:`get` (hit or miss, disk included);
        #: surfaced as the ``cache_lookup`` histogram in the metrics op.
        self.lookups = Histogram("cache_lookup")
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.expirations = 0
        self.invalidations = 0
        # -- disk tier --------------------------------------------------
        self.disk_dir = None if disk_dir is None else Path(disk_dir)
        self.disk_capacity = disk_capacity
        self.disk_hits = 0
        self.disk_writes = 0
        self.disk_evictions = 0
        self.disk_expirations = 0
        self.disk_errors = 0
        #: digest -> spill order proxy (mtime at scan, then insertion
        #: order); bounds the tier without re-listing the directory.
        self._disk_index: "OrderedDict[str, float]" = OrderedDict()
        if self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            self._scan_disk()

    # ------------------------------------------------------------------
    def get(
        self, key: tuple, pattern: Pattern, limit: int | None = None
    ) -> RunResult | None:
        """The cached result for ``key``, served *for* ``pattern``.

        Returns an independent :class:`RunResult` copy whose
        ``pattern_name`` and (when collected) ``embeddings`` are remapped
        to the requested pattern, or ``None`` on a miss.  Counts, timings
        and communication stats are the stored run's, bit-identical to
        re-running the query.  ``limit`` serves only the first ``limit``
        embeddings — and copies and remaps only those.
        """
        started = time.perf_counter()
        try:
            return self._get(key, pattern, limit)
        finally:
            self.lookups.observe(time.perf_counter() - started)

    def _get(
        self, key: tuple, pattern: Pattern, limit: int | None
    ) -> RunResult | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None and self._expired(entry):
                del self._entries[key]
                self.expirations += 1
                entry = None
            if entry is None and self.disk_dir is not None:
                entry = self._load_from_disk(key)
                if entry is not None:
                    # Promote: the disk hit becomes the freshest memory
                    # entry (expired peers swept first, then LRU).
                    self._insert(key, entry)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
        return serve_copy(entry.result, entry.pattern, pattern, limit)

    def put(self, key: tuple, pattern: Pattern, result: RunResult) -> bool:
        """Store a finished run; returns False when it is not cacheable."""
        if result.failed:
            return False
        entry = _Entry(
            pattern=pattern,
            result=copy_result(result),
            expires_at=(
                None if self.ttl is None else self._clock() + self.ttl
            ),
        )
        # Per-request diagnostics never enter the shared tier: a later
        # requester gets the stored run's counts and stats, not this
        # request's span tree or resource profile (and spill files stay
        # byte-stable).
        entry.result.trace = None
        entry.result.profile = None
        with self._lock:
            self._insert(key, entry)
            if self.disk_dir is not None:
                self._spill(key, entry)
        return True

    def evict_graph(self, fingerprint: str) -> int:
        """Drop memory *and* disk entries keyed to one graph fingerprint.

        Version-targeted invalidation for the streaming ingest path:
        cache keys lead with the graph fingerprint, so entries for a
        superseded snapshot can never be served again — reclaim their
        memory without flushing results for other graphs.  Spilled disk
        files whose stored key names the fingerprint are unlinked too:
        a fingerprint can recur (ingest an edge batch, then delete the
        same batch), and a stale spill surviving a restart would then
        serve the old run's bytes for a graph it never saw.  Returns the
        number of memory entries plus spill files dropped, all counted
        as ``invalidations``, not ``evictions``.
        """
        with self._lock:
            dead = [k for k in self._entries if k[0] == fingerprint]
            for key in dead:
                del self._entries[key]
            dropped = len(dead)
            if self.disk_dir is not None:
                # Spill filenames are full-key digests, so the
                # fingerprint is only recoverable from each file's
                # embedded key record.
                for digest in list(self._disk_index):
                    try:
                        record = json.loads(
                            self._disk_path(digest).read_text()
                        )
                        stored_key = (
                            record.get("key")
                            if isinstance(record, dict)
                            else None
                        )
                    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                        self._drop_disk(digest, counter="disk_errors")
                        continue
                    if (
                        isinstance(stored_key, list)
                        and stored_key
                        and stored_key[0] == fingerprint
                    ):
                        self._disk_index.pop(digest, None)
                        try:
                            self._disk_path(digest).unlink()
                        except OSError:
                            pass
                        dropped += 1
            self.invalidations += dropped
            return dropped

    # ------------------------------------------------------------------
    def _insert(self, key: tuple, entry: _Entry) -> None:
        """File one entry (caller holds the lock): sweep, insert, evict.

        TTL-expired entries are swept *first* and counted as
        ``expirations`` — capacity pressure must evict dead weight, not
        live least-recently-used entries sharing the cache with expired
        ones that merely had not been looked up since their deadline.
        """
        self._entries.pop(key, None)
        if len(self._entries) >= self.capacity:
            for stale_key in [
                k for k, e in self._entries.items() if self._expired(e)
            ]:
                del self._entries[stale_key]
                self.expirations += 1
        self._entries[key] = entry
        evicted = 0
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
            evicted += 1
        if evicted:
            _events.emit(
                "debug",
                "cache",
                _events.CACHE_EVICTED,
                evicted=evicted,
                entries=len(self._entries),
                capacity=self.capacity,
            )

    def _expired(self, entry: _Entry) -> bool:
        return entry.expires_at is not None and self._clock() >= entry.expires_at

    # ------------------------------------------------------------------
    # Disk tier (every helper below is called with the lock held)
    # ------------------------------------------------------------------
    def _scan_disk(self) -> None:
        """Index existing spill files (restart path), oldest first."""
        try:
            files = sorted(
                (
                    (path.stat().st_mtime, path.stem)
                    for path in self.disk_dir.glob("*.json")
                ),
            )
        except OSError:
            self.disk_errors += 1
            return
        for mtime, digest in files:
            self._disk_index[digest] = mtime

    def _disk_path(self, digest: str) -> Path:
        return self.disk_dir / f"{digest}.json"

    def _drop_disk(self, digest: str, *, counter: str) -> None:
        self._disk_index.pop(digest, None)
        try:
            self._disk_path(digest).unlink()
        except OSError:
            pass
        setattr(self, counter, getattr(self, counter) + 1)
        if counter == "disk_errors":
            _events.emit(
                "error",
                "cache",
                _events.CACHE_DISK_ERROR,
                digest=digest,
                errors=self.disk_errors,
            )

    def _spill(self, key: tuple, entry: _Entry) -> None:
        """Write-through one entry to its spill file (atomically)."""
        digest = key_digest(key)
        record = {
            "format": DISK_FORMAT,
            "key": _key_record(key),
            "pattern": str(entry.pattern),
            "pattern_name": entry.pattern.name,
            "stored_at": self._wall(),
            "ttl": self.ttl,
            "result": entry.result.to_dict(),
        }
        path = self._disk_path(digest)
        tmp = path.with_suffix(".tmp")
        try:
            tmp.write_text(json.dumps(record, sort_keys=True))
            os.replace(tmp, path)
        except OSError:
            self.disk_errors += 1
            _events.emit(
                "error",
                "cache",
                _events.CACHE_DISK_ERROR,
                digest=digest,
                op="spill",
                errors=self.disk_errors,
            )
            return
        self._disk_index.pop(digest, None)
        self._disk_index[digest] = record["stored_at"]
        self.disk_writes += 1
        if self.disk_capacity is not None:
            while len(self._disk_index) > self.disk_capacity:
                oldest = next(iter(self._disk_index))
                self._drop_disk(oldest, counter="disk_evictions")

    def _load_from_disk(self, key: tuple) -> "_Entry | None":
        """Verified reload of one spilled entry, or None (a miss)."""
        digest = key_digest(key)
        if digest not in self._disk_index:
            return None
        try:
            record = json.loads(self._disk_path(digest).read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            self._drop_disk(digest, counter="disk_errors")
            return None
        # Fingerprint-verified reload: the file must repeat the exact
        # key — graph fingerprint, canonical pattern, engine, config
        # digest, collect flag — not merely sit at the right filename.
        if (
            not isinstance(record, dict)
            or record.get("format") != DISK_FORMAT
            or record.get("key") != _key_record(key)
        ):
            self._drop_disk(digest, counter="disk_errors")
            return None
        ttl = record.get("ttl")
        remaining: float | None = None
        if ttl is not None:
            remaining = record.get("stored_at", 0.0) + ttl - self._wall()
            if remaining <= 0:
                self._drop_disk(digest, counter="disk_expirations")
                return None
        try:
            from repro.api.session import resolve_query

            pattern = resolve_query(record["pattern"]).copy_with_name(
                record.get("pattern_name")
            )
            result = RunResult.from_dict(record["result"])
        except Exception:
            self._drop_disk(digest, counter="disk_errors")
            return None
        self.disk_hits += 1
        return _Entry(
            pattern=pattern,
            result=result,
            expires_at=(
                None if remaining is None else self._clock() + remaining
            ),
        )

    def stats(self) -> dict:
        """Counter snapshot (JSON-safe; keys match the served counters).

        With the disk tier enabled a nested ``"disk"`` dict reports the
        tier's entry count and hit/spill/eviction/error counters
        (``None`` when the cache is memory-only).
        """
        with self._lock:
            snapshot: dict = {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "expirations": self.expirations,
                "invalidations": self.invalidations,
            }
            snapshot["disk"] = (
                None
                if self.disk_dir is None
                else {
                    "dir": str(self.disk_dir),
                    "entries": len(self._disk_index),
                    "capacity": self.disk_capacity,
                    "hits": self.disk_hits,
                    "writes": self.disk_writes,
                    "evictions": self.disk_evictions,
                    "expirations": self.disk_expirations,
                    "errors": self.disk_errors,
                }
            )
            return snapshot

    def annotate(self, result: RunResult, *, hit: bool) -> RunResult:
        """Merge this cache's counters into ``result.counters`` in place.

        Adds ``service.cache_hit`` (0/1 for *this* request) and the
        cumulative ``service.cache_hits`` / ``service.cache_misses`` /
        ``service.cache_evictions`` totals, so every served RunResult
        carries the cache's state without a second round-trip.
        """
        snapshot = self.stats()
        result.counters[HIT_COUNTER] = 1 if hit else 0
        result.counters["service.cache_hits"] = snapshot["hits"]
        result.counters["service.cache_misses"] = snapshot["misses"]
        result.counters["service.cache_evictions"] = (
            snapshot["evictions"] + snapshot["expirations"]
        )
        return result


__all__ = [
    "DEDUP_COUNTER",
    "HIT_COUNTER",
    "STORE_HIT_COUNTER",
    "ResultCache",
    "cache_key",
    "config_digest",
    "key_digest",
    "remap_embeddings",
]
