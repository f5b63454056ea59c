"""R-Meef: region-grouped multi-round expand, verify & filter
(paper Sec. 3.2, Algorithms 1-2, Appendix B).

One :class:`RMeefWorker` runs on one *executor* machine.  It processes a
region group of start candidates through ``|PL|`` rounds; in round ``i`` the
embeddings of ``P_{i-1}`` (stored in the embedding trie) are expanded through
decomposition unit ``dp_i``:

- the adjacency lists of foreign pivots are batch-fetched (`fetchV`) and
  cached;
- candidates for each leaf come from intersecting the locally-known
  adjacency of already-matched neighbours;
- verification edges whose endpoints both lack local adjacency become
  *undetermined* and are registered in the edge-verification index;
- one `verifyE` batch per remote machine then filters failed embedding
  candidates out of the trie (cascade removal).

No intermediate results ever leave the executor machine.

Region groups are independent units of work: under the serial backend the
RADS scheduler interleaves workers by virtual clock, while under the
process backend (:mod:`repro.runtime`) each worker is constructed inside
an OS worker process against a shared-memory replica of the cluster and
drains one machine's whole queue; either way the per-group computation —
and therefore the embedding count — is identical.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine, SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.embedding_trie import NODE_BYTES, EmbeddingTrie, TrieNode
from repro.core.evi import EdgeVerificationIndex
from repro.query.pattern import Pattern
from repro.query.plan import ExecutionPlan
from repro.query.symmetry import constraint_map


@dataclass
class _PositionInfo:
    """Static per-matching-order-position expansion metadata."""

    vertex: int
    unit_index: int
    pivot_position: int
    # Earlier positions adjacent in the pattern (excluding the pivot).
    refine_positions: list[int]
    # Symmetry breaking: f(here) must be greater than these positions' images.
    lower_positions: list[int]
    # ... and smaller than these.
    upper_positions: list[int]
    min_degree: int


class RMeefWorker:
    """Executes region groups of query ``pattern`` on machine ``executor``."""

    def __init__(
        self,
        cluster: Cluster,
        pattern: Pattern,
        plan: ExecutionPlan,
        constraints: list[tuple[int, int]],
        executor_id: int,
        cache: ForeignVertexCache,
        flush_threshold: float = 4 * 1024 * 1024,
    ):
        self._flush_threshold = flush_threshold
        self._cluster = cluster
        self._pattern = pattern
        self._plan = plan
        self._executor_id = executor_id
        self._machine: Machine = cluster.machine(executor_id)
        self._local = cluster.partition.machine(executor_id)
        self._cache = cache
        self._order = plan.matching_order()
        self._position = {u: q for q, u in enumerate(self._order)}
        self._prefix_len = [
            len(plan.subpattern_vertices(i)) for i in range(plan.num_rounds)
        ]
        self._info = self._build_position_info(constraints)
        # Mutable per-round state.
        self._ops = 0
        self._trie_bytes_outstanding = 0
        self._trie_delta = 0
        self.embeddings_found = 0
        self.last_group_count = 0

    # ------------------------------------------------------------------
    # Static plan analysis
    # ------------------------------------------------------------------
    def _build_position_info(
        self, constraints: list[tuple[int, int]]
    ) -> list[_PositionInfo]:
        pattern, plan = self._pattern, self._plan
        smaller, greater = constraint_map(constraints, pattern.num_vertices)
        unit_of: dict[int, int] = {}
        for i, unit in enumerate(plan.units):
            for leaf in unit.leaves:
                unit_of[leaf] = i
        infos: list[_PositionInfo] = []
        for q, u in enumerate(self._order):
            if q == 0:
                infos.append(
                    _PositionInfo(u, 0, -1, [], [], [], pattern.degree(u))
                )
                continue
            unit_index = unit_of[u]
            pivot = plan.units[unit_index].pivot
            pivot_position = self._position[pivot]
            refine = [
                self._position[w]
                for w in pattern.adj(u)
                if self._position[w] < q and w != pivot
            ]
            lower = [
                self._position[w] for w in greater[u] if self._position[w] < q
            ]
            upper = [
                self._position[w] for w in smaller[u] if self._position[w] < q
            ]
            # Constraints whose partner comes later are handled at the
            # partner's position.
            infos.append(
                _PositionInfo(
                    u, unit_index, pivot_position, sorted(refine),
                    lower, upper, pattern.degree(u),
                )
            )
        return infos

    # ------------------------------------------------------------------
    # Adjacency access (owned / cached / fetch)
    # ------------------------------------------------------------------
    def _known_adjacency(self, v: int) -> np.ndarray | None:
        """Adjacency if locally decidable (owned or cached), else None."""
        if self._local.is_owned(v):
            return self._local.graph.neighbors(v)
        return self._cache.peek(v)

    def _fetch_vertices(self, vertices: list[int]) -> None:
        """Batched `fetchV`: one request per remote owner machine."""
        need = [
            v for v in vertices
            if not self._local.is_owned(v) and v not in self._cache
        ]
        if not need:
            return
        by_owner: dict[int, list[int]] = defaultdict(list)
        for v in need:
            by_owner[self._cluster.partition.owner_of(v)].append(v)
        graph = self._cluster.graph
        model = self._cluster.cost_model
        for owner, verts in sorted(by_owner.items()):
            response_bytes = sum(
                model.adjacency_bytes(graph.degree(v)) for v in verts
            )
            self._cluster.network.rpc(
                requester=self._machine,
                responder=self._cluster.machine(owner),
                request_bytes=len(verts) * model.bytes_per_vertex_id,
                response_bytes=response_bytes,
                service_ops=float(len(verts)),
            )
            for v in verts:
                # Charge first: an allocation that raises must not leave
                # the entry cached for free.
                adjacency = graph.neighbors(v)
                cost = ForeignVertexCache.entry_bytes(adjacency)
                held = self._cache.bytes_used
                self._cache.make_room(cost)
                self._machine.free(held - self._cache.bytes_used)
                self._machine.allocate(cost, "cache_bytes")
                self._cache.put(v, adjacency)

    #: Allocation buffering granularity: per-node accounting calls would
    #: dominate the Python hot loop, so deltas are flushed to the simulated
    #: machine in 16 KiB steps (OOM detection is delayed by at most that).
    _FLUSH_BYTES = 16384

    def _alloc_trie(self, nbytes: int) -> None:
        # Trie maintenance is real work the SM-E path does not pay:
        # one op per node created or released.
        self._ops += nbytes // NODE_BYTES
        self._trie_bytes_outstanding += nbytes
        self._trie_delta += nbytes
        if self._trie_delta >= self._FLUSH_BYTES:
            self._flush_trie_delta()

    def _free_trie(self, nbytes: int) -> None:
        self._ops += nbytes // NODE_BYTES
        self._trie_bytes_outstanding -= nbytes
        self._trie_delta -= nbytes
        if self._trie_delta <= -self._FLUSH_BYTES:
            self._flush_trie_delta()

    def _flush_trie_delta(self) -> None:
        if self._trie_delta > 0:
            self._machine.allocate(self._trie_delta, "trie_bytes")
        elif self._trie_delta < 0:
            self._machine.free(-self._trie_delta)
        self._trie_delta = 0

    # ------------------------------------------------------------------
    # Group processing
    # ------------------------------------------------------------------
    def process_group(
        self, group: list[int], collect: bool = True
    ) -> list[tuple[int, ...]]:
        """Run all rounds for one region group; returns final embeddings.

        On simulated OOM the group's trie memory is rolled back before the
        exception propagates, so the engine can split the group and retry
        (``self.last_group_count`` reports the embeddings of the last
        *successful* group, for count-only runs).
        """
        try:
            return self._process_group(group, collect)
        except SimulatedMemoryError:
            # Only `outstanding - delta` has actually been charged to the
            # machine (the rest sits in the unflushed buffer).
            self._machine.free(
                self._trie_bytes_outstanding - self._trie_delta
            )
            self._trie_bytes_outstanding = 0
            self._trie_delta = 0
            self._machine.charge_ops(self._ops, "rmeef_ops")
            self._ops = 0
            raise

    def _process_group(
        self, group: list[int], collect: bool
    ) -> list[tuple[int, ...]]:
        trie = EmbeddingTrie()
        self._trie_bytes_outstanding = 0
        results: list[tuple[int, ...]] = []
        emitted = 0

        def emit(leaves: list[TrieNode]) -> None:
            """Stream verified final-round results out of the trie.

            Final embeddings are *output*, not intermediate state, so they
            are converted and their trie nodes freed immediately — this is
            what keeps the per-group peak within the region-group budget.
            """
            nonlocal emitted
            n = self._pattern.num_vertices
            for leaf in leaves:
                if collect:
                    emb = [0] * n
                    for q, v in enumerate(leaf.path()):
                        emb[self._order[q]] = v
                    results.append(tuple(emb))
                emitted += 1
                self._free_trie(trie.remove_leaf(leaf) * NODE_BYTES)

        num_rounds = self._plan.num_rounds
        mapping: list[int] = [-1] * self._pattern.num_vertices
        # Round 0: start candidates (foreign when the group was stolen).
        self._fetch_vertices(list(group))
        final = num_rounds == 1
        frontier: list[TrieNode] = []
        evi = EdgeVerificationIndex()
        for v in sorted(group):
            adjacency = self._known_adjacency(v)
            if adjacency is None:
                # The batch fetch above may have been evicted already on a
                # memory-starved cache (or the group was stolen): re-fetch
                # rather than silently dropping the candidate.
                self._fetch_vertices([v])
                adjacency = self._known_adjacency(v)
            self._ops += 1
            if adjacency is None or len(adjacency) < self._info[0].min_degree:
                continue
            root = trie.add_root(v)
            self._alloc_trie(NODE_BYTES)
            mapping[0] = v
            used = {v}
            self._expand_unit(
                trie, evi, 0, root, 1, mapping, used, frontier
            )
            if root.child_count == 0:
                self._free_trie(trie.remove_leaf(root) * NODE_BYTES)
            if final and self._trie_bytes_outstanding > self._flush_threshold:
                emit(self._verify_and_filter(trie, evi, frontier))
                frontier = []
                evi = EdgeVerificationIndex()
        frontier = self._verify_and_filter(trie, evi, frontier)
        if final:
            emit(frontier)
        # Rounds 1..l.
        for i in range(1, num_rounds):
            final = i == num_rounds - 1
            evi = EdgeVerificationIndex()
            pivot_position = self._position[self._plan.units[i].pivot]
            self._fetch_vertices(
                sorted({leaf.path()[pivot_position] for leaf in frontier})
            )
            next_frontier: list[TrieNode] = []
            for leaf in frontier:
                path = leaf.path()
                for q, v in enumerate(path):
                    mapping[q] = v
                used = set(path)
                start = self._prefix_len[i - 1]
                self._expand_unit(
                    trie, evi, i, leaf, start, mapping, used, next_frontier
                )
                if leaf.child_count == 0:
                    self._free_trie(trie.remove_leaf(leaf) * NODE_BYTES)
                if (
                    final
                    and self._trie_bytes_outstanding > self._flush_threshold
                ):
                    emit(self._verify_and_filter(trie, evi, next_frontier))
                    next_frontier = []
                    evi = EdgeVerificationIndex()
            frontier = self._verify_and_filter(trie, evi, next_frontier)
            if final:
                emit(frontier)
        self._machine.charge_ops(self._ops, "rmeef_ops")
        self._ops = 0
        self.embeddings_found += emitted
        self.last_group_count = emitted
        self._free_trie(trie.memory_bytes())
        self._flush_trie_delta()
        return results

    # ------------------------------------------------------------------
    def _expand_unit(
        self,
        trie: EmbeddingTrie,
        evi: EdgeVerificationIndex,
        unit_index: int,
        node: TrieNode,
        position: int,
        mapping: list[int],
        used: set[int],
        out: list[TrieNode],
        pending: tuple = (),
    ) -> None:
        """Recursive leaf matching for unit ``unit_index`` (Algorithm 2).

        ``pending`` carries the undetermined edges accumulated along the
        current partial path; they are registered against the completed EC's
        leaf node.
        """
        info = self._info[position]
        end = self._prefix_len[unit_index]
        pivot_value = mapping[info.pivot_position]
        pivot_adj = self._known_adjacency(pivot_value)
        if pivot_adj is None:
            # Batched at round start, but a tiny cache may have evicted the
            # entry before use — re-fetch on demand (extra RPC, as a real
            # cache-starved machine would pay).
            self._fetch_vertices([pivot_value])
            pivot_adj = self._known_adjacency(pivot_value)
        if pivot_adj is None:  # pragma: no cover - fetch always caches one
            raise AssertionError("pivot adjacency must be known")
        candidates = pivot_adj
        deferred: list[int] = []
        for p in info.refine_positions:
            other_adj = self._known_adjacency(mapping[p])
            if other_adj is None:
                deferred.append(p)
            else:
                self._ops += min(len(candidates), len(other_adj))
                candidates = np.intersect1d(
                    candidates, other_adj, assume_unique=True
                )
                if len(candidates) == 0:
                    return
        lo = -1
        hi: int | None = None
        for p in info.lower_positions:
            lo = max(lo, mapping[p])
        for p in info.upper_positions:
            hi = mapping[p] if hi is None else min(hi, mapping[p])
        if lo >= 0:
            candidates = candidates[np.searchsorted(candidates, lo + 1):]
        if hi is not None:
            candidates = candidates[: np.searchsorted(candidates, hi)]
        self._ops += len(candidates)
        for v in candidates:
            v = int(v)
            if v in used:
                continue
            v_adj = self._known_adjacency(v)
            if v_adj is not None and len(v_adj) < info.min_degree:
                continue
            new_pending = pending
            ok = True
            for p in deferred:
                w = mapping[p]
                if v_adj is not None:
                    idx = int(np.searchsorted(v_adj, w))
                    self._ops += 1
                    if idx >= len(v_adj) or int(v_adj[idx]) != w:
                        ok = False
                        break
                else:
                    new_pending = new_pending + ((v, w),)
            if not ok:
                continue
            child = trie.add_child(node, v)
            self._alloc_trie(NODE_BYTES)
            mapping[position] = v
            used.add(v)
            if position + 1 == end:
                for edge in new_pending:
                    evi.add(edge, child)
                out.append(child)
            else:
                self._expand_unit(
                    trie, evi, unit_index, child, position + 1,
                    mapping, used, out, new_pending,
                )
                if child.child_count == 0:
                    # Non-cascading: `node` is still being extended.
                    self._free_trie(
                        trie.detach_childless(child) * NODE_BYTES
                    )
            used.discard(v)
            mapping[position] = -1

    # ------------------------------------------------------------------
    def _verify_and_filter(
        self,
        trie: EmbeddingTrie,
        evi: EdgeVerificationIndex,
        frontier: list[TrieNode],
    ) -> list[TrieNode]:
        """Batch `verifyE` per remote machine; drop failed ECs (Prop. 2)."""
        if len(evi) == 0:
            return frontier
        failed: list[tuple[int, int]] = []
        model = self._cluster.cost_model
        groups = evi.group_by_machine(self._cluster.partition.owner_of)
        for owner, edges in sorted(groups.items()):
            self._cluster.network.rpc(
                requester=self._machine,
                responder=self._cluster.machine(owner),
                request_bytes=len(edges) * 2 * model.bytes_per_vertex_id,
                response_bytes=len(edges),
                service_ops=2.0 * len(edges),
            )
            graph = self._cluster.graph
            failed.extend(
                edge for edge in edges if not graph.has_edge(*edge)
            )
        dead = evi.failed_leaves(failed)
        dead_ids = {id(n) for n in dead}
        for leaf in dead:
            self._free_trie(trie.remove_leaf(leaf) * NODE_BYTES)
        if not dead_ids:
            return frontier
        return [n for n in frontier if id(n) not in dead_ids]
