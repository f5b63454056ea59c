"""Immutable undirected graph stored in CSR (compressed sparse row) form.

Vertex ids are dense integers ``0..n-1``.  Neighbour lists are sorted
``numpy.int64`` arrays, which makes neighbourhood intersection (the hot
operation of every subgraph-enumeration engine in this repository) a sorted
merge instead of a hash probe.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def _frozen(array: np.ndarray) -> np.ndarray:
    """A read-only view of ``array`` (zero-copy).

    The CSR arrays back cached state all over the repository — the
    :meth:`Graph.fingerprint` digest, result-cache keys, the partitions
    shard workers cache per fingerprint.  Freezing a *view* (not a
    copy) keeps those zero-copy paths intact while making accidental
    in-place mutation raise instead of silently serving a stale digest.
    """
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


def canonical_edge_array(
    edges: Iterable[tuple[int, int]], num_vertices: int, *, field: str = "edges"
) -> np.ndarray:
    """Normalise an edge iterable to a ``(k, 2)`` int64 array, ``u < v``.

    Shared by :meth:`Graph.from_edges`, :meth:`Graph.apply_batch` and the
    streaming ingest, so all agree on the canonical orientation and
    deduplication.  ``field`` names the offending argument in error messages.
    """
    if not isinstance(edges, np.ndarray):  # an array is taken as it is
        edges = list(edges)
    arr = np.asarray(edges, dtype=np.int64)
    if len(arr) == 0:
        return np.empty((0, 2), dtype=np.int64)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{field} must be (u, v) pairs")
    if (arr[:, 0] == arr[:, 1]).any():
        raise ValueError(f"{field}: self loops are not allowed")
    if arr.min() < 0 or arr.max() >= num_vertices:
        raise ValueError(f"{field}: edge endpoint out of range")
    lo = np.minimum(arr[:, 0], arr[:, 1])
    hi = np.maximum(arr[:, 0], arr[:, 1])
    keys = np.unique(lo * np.int64(num_vertices) + hi)
    return np.column_stack([keys // num_vertices, keys % num_vertices])


def gather_ranges(
    starts: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten the ranges ``[starts[i], starts[i] + counts[i])``.

    Returns ``(row, flat)``: for every position in every range, in range
    order, the index ``i`` of its range and the position itself.  With
    ``starts``/``counts`` read off a CSR ``indptr`` this gathers many
    neighbour lists at once: ``indices[flat]`` are the neighbours and
    ``row`` says whose.
    """
    ends = counts.cumsum()
    row = np.arange(counts.size).repeat(counts)
    return row, np.arange(row.size) + (starts - ends + counts)[row]


class Graph:
    """An immutable, unlabeled, undirected graph.

    Parameters
    ----------
    indptr:
        CSR row-pointer array of length ``n + 1``.
    indices:
        CSR column-index array; ``indices[indptr[v]:indptr[v+1]]`` is the
        sorted neighbour list of ``v``.

    Use :meth:`from_edges` or :class:`repro.graph.builder.GraphBuilder`
    instead of calling the constructor directly.
    """

    __slots__ = (
        "_indptr", "_indices", "_num_edges", "_fingerprint", "_edge_keys",
        "_degrees",
    )

    def __init__(self, indptr: np.ndarray, indices: np.ndarray):
        self._indptr = _frozen(np.asarray(indptr, dtype=np.int64))
        self._indices = _frozen(np.asarray(indices, dtype=np.int64))
        self._num_edges = int(len(self._indices) // 2)
        self._fingerprint: str | None = None
        self._edge_keys: np.ndarray | None = None
        self._degrees: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(
        cls, num_vertices: int, edges: Iterable[tuple[int, int]]
    ) -> "Graph":
        """Build a graph from an iterable of undirected edges.

        Self loops are rejected; duplicate edges are collapsed.
        """
        lo, hi = canonical_edge_array(edges, num_vertices).T
        src = np.concatenate([lo, hi])
        dst = np.concatenate([hi, lo])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(indptr, dst)

    def apply_batch(
        self,
        additions: Iterable[tuple[int, int]] = (),
        deletions: Iterable[tuple[int, int]] = (),
    ) -> "Graph":
        """A new snapshot with ``additions`` inserted and ``deletions`` removed.

        This is the streaming mutation primitive: ``self`` is untouched
        (in-flight queries keep reading their snapshot) and the result is
        a fresh CSR built by *delta merge* — unaffected neighbour lists
        are copied in bulk and only the batch pays a sort — rather than a
        full :meth:`from_edges` rebuild.  The merge is one sorted
        insertion: deleted slots are dropped, and the batch's directed
        entries go in at their ranks among the surviving entries.

        Batches are validated strictly so delta semantics stay exact:
        adding an edge that already exists, deleting one that does not,
        or listing the same edge in both sets raises ``ValueError``
        naming the offending argument.
        """
        n = self.num_vertices
        add = canonical_edge_array(additions, n, field="additions")
        delete = canonical_edge_array(deletions, n, field="deletions")
        if len(add) == 0 and len(delete) == 0:
            return Graph(self._indptr, self._indices)
        # Directed entries of the batch as sorted keys src * n + dst: a
        # key's rank in edge_keys() is its slot in the old indices array.
        add_keys, del_keys = (
            np.sort(np.concatenate([
                edges[:, 0] * n + edges[:, 1], edges[:, 1] * n + edges[:, 0]
            ]))
            for edges in (add, delete)
        )
        # The smallest shared key is the canonical (u < v) entry of the
        # first overlapping edge in canonical order.
        overlap = np.intersect1d(add_keys, del_keys, assume_unique=True)
        if len(overlap):
            u, v = int(overlap[0]) // n, int(overlap[0]) % n
            raise ValueError(
                f"additions and deletions overlap on edge ({u}, {v})"
            )
        present = self.has_edges(add[:, 0], add[:, 1])
        if present.any():
            u, v = add[np.argmax(present)]
            raise ValueError(
                f"additions: edge ({int(u)}, {int(v)}) already present"
            )
        missing = ~self.has_edges(delete[:, 0], delete[:, 1])
        if missing.any():
            u, v = delete[np.argmax(missing)]
            raise ValueError(
                f"deletions: edge ({int(u)}, {int(v)}) not present"
            )

        keys = self.edge_keys()
        keep = np.ones(len(self._indices), dtype=bool)
        keep[keys.searchsorted(del_keys)] = False
        # Rank among the survivors: old keys below, less deleted keys below.
        ranks = keys.searchsorted(add_keys) - del_keys.searchsorted(add_keys)
        indices = np.insert(self._indices[keep], ranks, add_keys % n)
        degrees = (
            self.degrees()
            + np.bincount(add_keys // n, minlength=n)
            - np.bincount(del_keys // n, minlength=n)
        )
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])
        return Graph(indptr, indices)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self._indptr) - 1

    @property
    def num_edges(self) -> int:
        """Number of undirected edges."""
        return self._num_edges

    @property
    def indptr(self) -> np.ndarray:
        """CSR row pointer (read-only view)."""
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        """CSR column indices (read-only view)."""
        return self._indices

    def vertices(self) -> range:
        """Iterate vertex ids ``0..n-1``."""
        return range(self.num_vertices)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of ``v`` (zero-copy view)."""
        return self._indices[self._indptr[v]:self._indptr[v + 1]]

    def degree(self, v: int) -> int:
        """Degree of ``v``."""
        return int(self._indptr[v + 1] - self._indptr[v])

    def degrees(self) -> np.ndarray:
        """Degree array for all vertices (cached, read-only)."""
        if self._degrees is None:
            self._degrees = _frozen(np.diff(self._indptr))
        return self._degrees

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the undirected edge ``(u, v)`` exists."""
        nbrs = self.neighbors(u)
        i = int(np.searchsorted(nbrs, v))
        return i < len(nbrs) and int(nbrs[i]) == v

    def edge_keys(self) -> np.ndarray:
        """``src * |V| + dst`` of every CSR entry, then one sentinel above
        them all (cached, read-only).

        CSR order is ``(src, dst)`` order, so the keys ascend and an
        entry's rank is its slot in ``indices``.  For ids in range a key
        looks itself up as ``keys[keys.searchsorted(key)] == key``: the
        sentinel ends every search inside the array, so there is no clamp.
        """
        if self._edge_keys is None:
            n = self.num_vertices
            src = np.arange(n, dtype=np.int64).repeat(self.degrees())
            self._edge_keys = _frozen(
                np.append(src * n + self._indices, np.iinfo(np.int64).max)
            )
        return self._edge_keys

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Elementwise :meth:`has_edge` over arrays of vertex ids.

        One binary search per pair in :meth:`edge_keys`.  A pair with an
        endpoint outside ``[0, |V|)`` is not an edge: False.
        """
        keys, n = self.edge_keys(), self.num_vertices
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        wanted = us * n + vs
        found = keys[keys.searchsorted(wanted)] == wanted
        return found & (us >= 0) & (us < n) & (vs >= 0) & (vs < n)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each undirected edge once, as ``(u, v)`` with ``u < v``."""
        for u in self.vertices():
            for v in self.neighbors(u):
                if u < v:
                    yield u, int(v)

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content hash of the adjacency structure (hex SHA-256).

        Equal iff the CSR arrays are equal, i.e. iff the graphs compare
        ``==``.  Computed once and cached; the CSR arrays are frozen
        read-only at construction, so the cached digest cannot go stale —
        derived snapshots (:meth:`apply_batch`) are new ``Graph`` objects
        with their own cache.  Used by :mod:`repro.service` as the graph
        component of result-cache keys.
        """
        if self._fingerprint is None:
            import hashlib

            digest = hashlib.sha256()
            digest.update(b"csr-graph-v1")
            digest.update(np.ascontiguousarray(self._indptr).tobytes())
            digest.update(np.ascontiguousarray(self._indices).tobytes())
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def average_degree(self) -> float:
        """Mean vertex degree."""
        if self.num_vertices == 0:
            return 0.0
        return 2.0 * self.num_edges / self.num_vertices

    def storage_bytes(self) -> int:
        """Bytes needed to store the adjacency structure (CSR arrays)."""
        return int(self._indptr.nbytes + self._indices.nbytes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(|V|={self.num_vertices}, |E|={self.num_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self.num_edges))
