"""Persistent, indexed embedding store (trie-compressed result sets).

:class:`EmbeddingStore` persists one :class:`~repro.store.columnar.TrieColumns`
per stored run as a NumPy ``.npz`` archive — per-level vertex columns and
parent-pointer arrays (the paper's Def. 11 trie, flattened) plus a JSON
metadata record.  Files are written atomically (tmp + ``os.replace``, the
PR 6 disk-cache idiom), format-versioned, and keyed by the PR 4 cache
key, so an isomorphic rewrite of a stored query hits the same set and is
served through an explicit isomorphism remap.

Filenames are ``<fingerprint16>_<key-digest>.npz``: the leading graph
fingerprint prefix lets :meth:`EmbeddingStore.evict_graph` drop every
set of a superseded snapshot without opening a single file (the
streaming rebind path), while the digest names the exact key, which the
file body repeats for verification on reload.

The store is the *serve* tier for ``collect="store"`` runs: ``page`` /
``lookup`` / ``aggregate`` answer from the columnar indexes without
decompressing the full set, and a fresh store over the same directory
serves identical pages after a restart.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.engines.base import RunResult
from repro.query.isomorphism import find_isomorphism
from repro.query.pattern import Pattern
from repro.service.cache import (
    STORE_HIT_COUNTER,
    _key_record,
    copy_result,
    key_digest,
    remap_embeddings,
)
from repro.store.columnar import AGGREGATE_MODES, TrieColumns

__all__ = ["EmbeddingStore", "StoredSet", "STORE_FORMAT"]

#: Version tag written into every stored set; bumped on layout changes
#: (a mismatching file is treated as a miss, never misread).
STORE_FORMAT = 1

#: Filename prefix length taken from the graph fingerprint (hex chars).
_FP_PREFIX = 16

#: Parsed sets an :class:`EmbeddingStore` keeps in memory (LRU).
CAPACITY = 8


@dataclass
class StoredSet:
    """One persisted result set: key, executed pattern, columns, run."""

    key: tuple
    pattern: Pattern
    columns: TrieColumns
    #: The stored run with ``embeddings`` stripped (counts/timings only);
    #: always served as a copy.
    result: RunResult
    stored_at: float


def pattern_orbits(pattern: Pattern) -> "list[tuple[int, ...]]":
    """Automorphism orbits of the pattern's query-vertex positions.

    Positions in one orbit are structurally interchangeable (e.g. the
    two path endpoints of ``q2``), so per-orbit aggregates are the
    finest grouping that is invariant under query rewrites.
    """
    n = pattern.num_vertices
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for perm in pattern.automorphism_group():
        for u, v in enumerate(perm):
            ru, rv = find(u), find(int(v))
            if ru != rv:
                parent[ru] = rv
    groups: dict[int, list[int]] = {}
    for u in range(n):
        groups.setdefault(find(u), []).append(u)
    return sorted(tuple(sorted(g)) for g in groups.values())


class EmbeddingStore:
    """Directory of trie-compressed result sets with index-scan serving.

    ``CAPACITY`` bounds how many *parsed* sets stay in memory (LRU); the
    directory itself is unbounded — stored sets are the product being
    persisted, not a cache.  All methods are thread-safe.
    """

    def __init__(
        self,
        store_dir: "str | Path",
    ):
        self.store_dir = Path(store_dir)
        self.store_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        #: key digest -> on-disk path (filenames carry the fingerprint
        #: prefix, so eviction by graph never opens a file).
        self._index: dict[str, Path] = {}
        #: digest -> parsed StoredSet, LRU-bounded by ``CAPACITY``.
        self._loaded: "OrderedDict[str, StoredSet]" = OrderedDict()
        self.writes = 0
        self.hits = 0
        self.misses = 0
        self.errors = 0
        self.invalidations = 0
        self.pages = 0
        self.lookups = 0
        self.aggregates = 0
        self._scan()

    # -- directory layout ----------------------------------------------
    def _path_for(self, key: tuple) -> Path:
        return self.store_dir / f"{key[0][:_FP_PREFIX]}_{key_digest(key)}.npz"

    def _scan(self) -> None:
        """Index existing set files (restart path); bodies load lazily."""
        with self._lock:
            for path in sorted(self.store_dir.glob("*.npz")):
                name = path.stem
                if "_" in name:
                    self._index[name.split("_", 1)[1]] = path

    # -- persistence ----------------------------------------------------
    def put(self, key: tuple, pattern: Pattern, result: RunResult) -> StoredSet:
        """Persist one collected run's embeddings under ``key``.

        ``result.embeddings`` must hold the full enumeration; the stored
        record keeps the run's counts/timings with embeddings stripped
        (they live in the columns).  Failed runs are not storable.
        """
        if result.failed:
            raise ValueError("cannot store a failed run")
        if result.embeddings is None:
            raise ValueError(
                "cannot store a result without collected embeddings; "
                "run with collect_embeddings=True"
            )
        columns = TrieColumns.from_embeddings(
            result.embeddings, pattern.num_vertices
        )
        stripped = copy_result(result)
        stripped.embeddings = None
        stored_at = time.time()
        meta = {
            "format": STORE_FORMAT,
            "key": _key_record(key),
            "pattern": str(pattern),
            "pattern_name": pattern.name,
            "num_vertices": pattern.num_vertices,
            "leaf_count": columns.leaf_count,
            "stored_at": stored_at,
            "result": stripped.to_dict(),
        }
        arrays: dict[str, np.ndarray] = {
            "meta": np.asarray(json.dumps(meta, sort_keys=True)),
        }
        for level in range(columns.depth):
            arrays[f"level{level}_values"] = columns.values[level]
            arrays[f"level{level}_parents"] = columns.parents[level]
        path = self._path_for(key)
        tmp = path.with_suffix(".tmp")
        with self._lock:
            try:
                with open(tmp, "wb") as handle:
                    np.savez(handle, **arrays)
                os.replace(tmp, path)
            except OSError:
                self.errors += 1
                raise
            stored = StoredSet(
                key=key,
                pattern=pattern,
                columns=columns,
                result=stripped,
                stored_at=stored_at,
            )
            self._index[key_digest(key)] = path
            self._remember(key_digest(key), stored)
            self.writes += 1
            return stored

    def get(self, key: tuple) -> "StoredSet | None":
        """The stored set for ``key`` (loaded-LRU first, then disk)."""
        digest = key_digest(key)
        with self._lock:
            stored = self._loaded.get(digest)
            if stored is not None:
                self._loaded.move_to_end(digest)
                self.hits += 1
                return stored
            path = self._index.get(digest)
            if path is None:
                self.misses += 1
                return None
            stored = self._load(key, digest, path)
            if stored is None:
                self.misses += 1
                return None
            self._remember(digest, stored)
            self.hits += 1
            return stored

    def _remember(self, digest: str, stored: StoredSet) -> None:
        self._loaded.pop(digest, None)
        self._loaded[digest] = stored
        while len(self._loaded) > CAPACITY:
            self._loaded.popitem(last=False)

    def _load(self, key: tuple, digest: str, path: Path) -> "StoredSet | None":
        """Verified reload of one set file, or None (file dropped)."""
        try:
            with np.load(path, allow_pickle=False) as archive:
                meta = json.loads(str(archive["meta"][()]))
                depth = int(meta["num_vertices"])
                values = [archive[f"level{j}_values"] for j in range(depth)]
                parents = [archive[f"level{j}_parents"] for j in range(depth)]
        except Exception:
            self._drop(digest, path)
            return None
        # Key-verified reload (PR 6 idiom): the body must repeat the
        # exact key, not merely sit at the right filename.
        if (
            not isinstance(meta, dict)
            or meta.get("format") != STORE_FORMAT
            or meta.get("key") != _key_record(key)
        ):
            self._drop(digest, path)
            return None
        try:
            from repro.api.session import resolve_query

            pattern = resolve_query(meta["pattern"]).copy_with_name(
                meta.get("pattern_name")
            )
            columns = TrieColumns.from_arrays(values, parents)
            result = RunResult.from_dict(meta["result"])
        except Exception:
            self._drop(digest, path)
            return None
        return StoredSet(
            key=key,
            pattern=pattern,
            columns=columns,
            result=result,
            stored_at=float(meta.get("stored_at", 0.0)),
        )

    def _drop(self, digest: str, path: Path) -> None:
        self._index.pop(digest, None)
        self._loaded.pop(digest, None)
        try:
            path.unlink()
        except OSError:
            pass
        self.errors += 1

    def evict_graph(self, fingerprint: str) -> int:
        """Unlink every set stored for one graph fingerprint.

        The streaming-rebind invalidation (mirrors
        :meth:`~repro.service.cache.ResultCache.evict_graph`): filenames
        lead with the fingerprint prefix, so no file is opened.  Returns
        the number of sets dropped, counted as ``invalidations``.
        """
        prefix = f"{fingerprint[:_FP_PREFIX]}_"
        with self._lock:
            dead = [
                (digest, path)
                for digest, path in self._index.items()
                if path.name.startswith(prefix)
            ]
            for digest, path in dead:
                self._index.pop(digest, None)
                self._loaded.pop(digest, None)
                try:
                    path.unlink()
                except OSError:
                    pass
            self.invalidations += len(dead)
            return len(dead)

    # -- serving --------------------------------------------------------
    def result_for(self, key: tuple, pattern: Pattern) -> "RunResult | None":
        """The stored run served for ``pattern`` (embeddings stay in the
        store; the copy carries counts/timings and the store-hit counter).
        """
        stored = self.get(key)
        if stored is None:
            return None
        served = copy_result(stored.result)
        served.pattern_name = pattern.name
        served.counters[STORE_HIT_COUNTER] = 1
        return served

    def _mapping(self, stored: StoredSet, pattern: Pattern) -> "list[int]":
        """requested-position -> stored-level mapping (identity if equal)."""
        if stored.pattern == pattern:
            return list(range(pattern.num_vertices))
        mapping = find_isomorphism(pattern, stored.pattern)
        if mapping is None:
            raise ValueError(
                f"stored set for {stored.pattern.name!r} is not "
                f"isomorphic to requested {pattern.name!r}"
            )
        return [mapping[u] for u in range(pattern.num_vertices)]

    def page(
        self,
        key: tuple,
        pattern: Pattern,
        *,
        limit: int,
        offset: int = 0,
    ) -> "dict[str, Any] | None":
        """One contiguous page of the sorted leaf order, remapped to
        ``pattern``; ``None`` when ``key`` has no stored set."""
        stored = self.get(key)
        if stored is None:
            return None
        rows = stored.columns.decompress_range(offset, limit)
        with self._lock:
            self.pages += 1
        return {
            "embeddings": remap_embeddings(rows, stored.pattern, pattern),
            "total": stored.columns.leaf_count,
            "offset": offset,
            "limit": limit,
        }

    def lookup(
        self, key: tuple, pattern: Pattern, vertex: int
    ) -> "dict[str, Any] | None":
        """Embeddings containing data vertex ``vertex`` (postings scan)."""
        stored = self.get(key)
        if stored is None:
            return None
        rows = stored.columns.lookup(int(vertex))
        with self._lock:
            self.lookups += 1
        return {
            "embeddings": remap_embeddings(rows, stored.pattern, pattern),
            "count": len(rows),
            "total": stored.columns.leaf_count,
            "vertex": int(vertex),
        }

    def aggregate(
        self, key: tuple, pattern: Pattern, group_by: str
    ) -> "dict[str, Any] | None":
        """Group counts from the node ranges (leaves never decompressed).

        ``group_by`` is ``"root"`` (per first-*requested*-vertex match),
        ``"vertex"`` (per contained data vertex) or ``"orbit"`` (per
        automorphism orbit of the requested pattern's positions).  For
        isomorphic rewrites, requested positions are translated to
        stored trie levels through the isomorphism, so the answer is
        always in the caller's frame.
        """
        stored = self.get(key)
        if stored is None:
            return None
        if group_by == "root":
            level = self._mapping(stored, pattern)[0]
            groups: Any = stored.columns.vertex_counts([level])
        elif group_by == "vertex":
            groups = stored.columns.vertex_counts(range(stored.columns.depth))
        elif group_by == "orbit":
            mapping = self._mapping(stored, pattern)
            groups = {
                ",".join(str(p) for p in orbit): stored.columns.vertex_counts(
                    sorted(mapping[p] for p in orbit)
                )
                for orbit in pattern_orbits(pattern)
            }
        else:
            raise ValueError(
                f"unknown group_by {group_by!r}; choose from "
                f"{', '.join(AGGREGATE_MODES)}"
            )
        with self._lock:
            self.aggregates += 1
        return {
            "group_by": group_by,
            "total": stored.columns.leaf_count,
            "groups": groups,
        }

    # -- introspection --------------------------------------------------
    def stats(self) -> "dict[str, Any]":
        """Counter snapshot (JSON-safe), including on-disk set count."""
        with self._lock:
            return {
                "dir": str(self.store_dir),
                "sets": len(self._index),
                "loaded": len(self._loaded),
                "capacity": CAPACITY,
                "writes": self.writes,
                "hits": self.hits,
                "misses": self.misses,
                "errors": self.errors,
                "invalidations": self.invalidations,
                "pages": self.pages,
                "lookups": self.lookups,
                "aggregates": self.aggregates,
            }
