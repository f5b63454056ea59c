"""Crystal baseline (Qiao et al., PVLDB 2017).

Crystal decomposes the query into a *core* (a vertex cover) plus *crystals*
(independent bud vertices attached to core subsets), pre-builds an index of
all data-graph cliques, and assembles results in compressed (VCBC) form:

- bud vertices whose attachment is a clique are resolved by a cheap clique
  *index lookup* (the paper: "the triangle crystal can be directly loaded
  from index without any computation");
- everything else falls back to adjacency intersections, where Crystal loses
  its advantage (triangle-free queries q1, q3, q6-q8).

The index is many times larger than the graph (Table 2) and is charged to
simulated disk I/O; intermediate results are charged in compressed form
(core embeddings + bud candidate sets), which is why Crystal holds up on
dense graphs until the core itself explodes.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.engines.join_common import ConstraintChecker
from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
    compute_matching_order,
)
from repro.graph.cliques import maximal_cliques
from repro.graph.graph import Graph
from repro.query.pattern import Pattern
from repro.runtime.executor import Executor


def _core_general_task(cluster: Cluster, args: tuple) -> tuple:
    """Enumerate one machine's core embeddings via backtracking
    (the general, index-free path — independent per machine)."""
    (
        t, sub_pattern, sub_constraints, order, core_list, remap,
        start_degree,
    ) = args
    graph = cluster.graph
    local = cluster.partition.machine(t)
    machine = cluster.machine(t)
    model = cluster.cost_model
    stats = EnumerationStats()
    enumerator = BacktrackingEnumerator(
        pattern=sub_pattern,
        adjacency=graph,
        constraints=sub_constraints,
        order=order,
        stats=stats,
    )
    starts = local.owned_vertices[local.owned_degrees >= start_degree]
    seen: set[tuple[int, ...]] = set()
    found: list[dict[int, int]] = []
    for emb in enumerator.run(starts):
        key = tuple(emb[remap[u]] for u in core_list)
        if key in seen:
            continue
        seen.add(key)
        found.append(dict(zip(core_list, key)))
    machine.charge_ops(stats.total_ops, "core_ops")
    machine.allocate(len(found) * len(core_list) * 8, "core_bytes")
    # Reading adjacency beyond owned vertices is an index/HDFS scan.
    machine.advance(model.disk_time(stats.candidates_scanned * 8))
    return t, found


def _bud_combine_task(cluster: Cluster, args: tuple) -> tuple:
    """Attach bud candidates to one machine's core embeddings and
    decompress into full embeddings (independent per machine)."""
    (
        t, core_embs_t, bud_order, att_lists, clique_flags, bud_degrees,
        all_pairs, num_vertices, collect,
    ) = args
    graph = cluster.graph
    model = cluster.cost_model
    machine = cluster.machine(t)
    results: list[tuple[int, ...]] = []
    count = 0
    ops = 0
    disk_bytes = 0
    cand_bytes = 0
    for core_emb in core_embs_t:
        bud_cands: list[np.ndarray] = []
        dead = False
        for i, u in enumerate(bud_order):
            att = att_lists[i]
            arrays = sorted(
                (graph.neighbors(core_emb[w]) for w in att), key=len
            )
            cands = arrays[0]
            for arr in arrays[1:]:
                cands = np.intersect1d(cands, arr, assume_unique=True)
            if clique_flags[i]:
                # Index lookup: pay only for streaming the entry.
                disk_bytes += (len(cands) + len(att)) * 8
                ops += len(cands) // 8 + 1
            else:
                ops += sum(len(a) for a in arrays)
            degree_u = bud_degrees[i]
            cands = cands[
                np.fromiter(
                    (graph.degree(int(v)) >= degree_u for v in cands),
                    dtype=bool,
                    count=len(cands),
                )
            ] if len(cands) else cands
            if len(cands) == 0:
                dead = True
                break
            bud_cands.append(cands)
            cand_bytes += len(cands) * 8
        if dead:
            continue
        # Combine buds (decompression): injectivity + constraints.
        base = [0] * num_vertices
        for u, v in core_emb.items():
            base[u] = v
        core_values = set(core_emb.values())

        def combine(idx: int) -> None:
            nonlocal count, ops
            if idx == len(bud_order):
                tup = tuple(base)
                if ConstraintChecker.ok_tuple(tup, all_pairs):
                    count += 1
                    if collect:
                        results.append(tup)
                return
            u = bud_order[idx]
            for v in bud_cands[idx]:
                v = int(v)
                ops += 1
                if v in core_values:
                    continue
                if any(base[w] == v for w in bud_order[:idx]):
                    continue
                base[u] = v
                combine(idx + 1)
            base[u] = 0

        combine(0)
    machine.charge_ops(ops, "crystal_ops")
    machine.advance(model.disk_time(disk_bytes))
    machine.allocate(cand_bytes, "candidate_bytes")
    machine.free(cand_bytes)
    return t, count, results


#: Per-entry on-disk overhead of the index: besides the member ids, Crystal
#: stores instance codes, bud-candidate postings and pointers for each
#: indexed clique, which is what makes the index files many times larger
#: than the data graph (paper Table 2).
INDEX_ENTRY_OVERHEAD = 64


class CliqueIndex:
    """Offline index of all data-graph cliques up to ``max_size``."""

    def __init__(self, graph: Graph, max_size: int = 4,
                 max_entries: int = 5_000_000):
        self._graph = graph
        self.max_size = max_size
        self._by_size: dict[int, list[tuple[int, ...]]] = {
            2: [tuple(e) for e in graph.edges()]
        }
        if max_size >= 3:
            seen: dict[int, set[tuple[int, ...]]] = {
                k: set() for k in range(3, max_size + 1)
            }
            total = 0
            for clique in maximal_cliques(graph):
                for k in range(3, min(max_size, len(clique)) + 1):
                    for sub in combinations(clique, k):
                        if sub not in seen[k]:
                            seen[k].add(sub)
                            total += 1
                            if total >= max_entries:
                                break
                    if total >= max_entries:
                        break
                if total >= max_entries:
                    break
            for k in range(3, max_size + 1):
                self._by_size[k] = sorted(seen[k])

    @property
    def graph(self) -> Graph:
        """The indexed data graph."""
        return self._graph

    def cliques(self, size: int) -> list[tuple[int, ...]]:
        """All cliques of exactly ``size`` vertices."""
        return self._by_size.get(size, [])

    def count(self, size: int) -> int:
        """Number of indexed cliques of ``size``."""
        return len(self._by_size.get(size, []))

    def size_bytes(self) -> int:
        """Simulated on-disk footprint of the index (ids + postings)."""
        return sum(
            len(cliques) * (size * 8 + INDEX_ENTRY_OVERHEAD)
            for size, cliques in self._by_size.items()
        )


def minimum_vertex_covers(pattern: Pattern, size: int) -> list[frozenset[int]]:
    """All vertex covers of exactly ``size`` vertices."""
    covers = []
    for combo in combinations(pattern.vertices(), size):
        cover = frozenset(combo)
        if all(a in cover or b in cover for a, b in pattern.edges()):
            covers.append(cover)
    return covers


def choose_core(pattern: Pattern) -> tuple[frozenset[int], list[int]]:
    """Pick a core (vertex cover) plus the bud list, Crystal-style.

    Among covers of minimum and minimum+1 size, prefer the one with the most
    buds attached to a clique (those get index lookups), then connected
    cores, then small cores.
    """
    for mvc_size in range(1, pattern.num_vertices + 1):
        if minimum_vertex_covers(pattern, mvc_size):
            break
    candidates: list[frozenset[int]] = []
    for size in (mvc_size, min(mvc_size + 1, pattern.num_vertices)):
        candidates.extend(minimum_vertex_covers(pattern, size))

    def is_clique(subset: frozenset[int]) -> bool:
        return all(
            pattern.has_edge(a, b) for a, b in combinations(sorted(subset), 2)
        )

    def connected(subset: frozenset[int]) -> bool:
        members = sorted(subset)
        if not members:
            return False
        seen = {members[0]}
        stack = [members[0]]
        while stack:
            v = stack.pop()
            for w in pattern.adj(v):
                if w in subset and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(subset)

    def score(cover: frozenset[int]) -> tuple:
        buds = [u for u in pattern.vertices() if u not in cover]
        clique_buds = sum(
            1 for u in buds if is_clique(pattern.adj(u) & cover)
        )
        return (clique_buds, connected(cover), -len(cover), tuple(sorted(cover)))

    core = max(candidates, key=score)
    buds = [u for u in pattern.vertices() if u not in core]
    return core, buds


class CrystalEngine(EnumerationEngine):
    """Core + crystals with a precomputed clique index.

    Pass a prebuilt :class:`CliqueIndex` to amortise the (expensive) offline
    index construction across queries, as the paper does.
    """

    name = "Crystal"
    explain_note = (
        "enumerates the core (a vertex cover, see extras) distributedly, "
        "then attaches each bud's candidate set from the precomputed "
        "clique index without materialising the cross product"
    )

    def __init__(self, index: CliqueIndex | None = None):
        self._index = index

    def _explain_extras(self, pattern: Pattern) -> dict:
        core, buds = choose_core(pattern)
        return {
            "core": sorted(core),
            "buds": list(buds),
            "index_prebuilt": self._index is not None,
        }

    # ------------------------------------------------------------------
    def _core_embeddings(
        self,
        cluster: Cluster,
        pattern: Pattern,
        core: frozenset[int],
        checker: ConstraintChecker,
        index: CliqueIndex,
        executor: Executor,
    ) -> dict[int, list[dict[int, int]]]:
        """Distinct core embeddings per machine (keyed by anchor owner)."""
        graph = cluster.graph
        partition = cluster.partition
        model = cluster.cost_model
        core_list = sorted(core)
        pairs = checker.pairs(tuple(core_list))

        def is_clique_core() -> bool:
            return all(
                pattern.has_edge(a, b) for a, b in combinations(core_list, 2)
            )

        per_machine: dict[int, list[dict[int, int]]] = {
            t: [] for t in range(cluster.num_machines)
        }
        if len(core_list) == 1:
            u = core_list[0]
            min_degree = pattern.degree(u)
            for t in range(cluster.num_machines):
                local = partition.machine(t)
                machine = cluster.machine(t)
                found = [
                    {u: int(v)}
                    for v in local.owned_vertices
                    if local.degree(int(v)) >= min_degree
                ]
                machine.charge_ops(len(local.owned_vertices), "core_ops")
                machine.allocate(len(found) * 8, "core_bytes")
                per_machine[t] = found
            return per_machine
        if is_clique_core() and len(core_list) <= index.max_size:
            # Fast path: core instances come straight off the clique index.
            instances = index.cliques(len(core_list))
            load_bytes = len(instances) * len(core_list) * 8
            degrees = [pattern.degree(u) for u in core_list]
            buckets: dict[int, list[tuple[int, ...]]] = {
                t: [] for t in range(cluster.num_machines)
            }
            for inst in instances:
                buckets[partition.owner_of(min(inst))].append(inst)
            for t in range(cluster.num_machines):
                machine = cluster.machine(t)
                machine.advance(model.disk_time(load_bytes / cluster.num_machines))
                ops = 0
                found = []
                for inst in buckets[t]:
                    for perm in _permutations(inst):
                        ops += 1
                        if any(
                            graph.degree(perm[i]) < degrees[i]
                            for i in range(len(core_list))
                        ):
                            continue
                        if checker.ok_tuple(perm, pairs):
                            found.append(dict(zip(core_list, perm)))
                machine.charge_ops(ops, "core_ops")
                machine.allocate(len(found) * len(core_list) * 8, "core_bytes")
                per_machine[t] = found
            return per_machine
        # General path: enumerate a connected superset S of the core with
        # plain backtracking, project to the core, deduplicate.
        s_vertices = _connecting_superset(pattern, core)
        sub_pattern, remap = _induced_pattern(pattern, s_vertices)
        # pairs() returns positional pairs over the sorted vertex tuple;
        # positions in a sorted list coincide with the dense relabelling.
        sorted_s = sorted(s_vertices)
        sub_constraints = [
            (remap[sorted_s[i]], remap[sorted_s[j]])
            for i, j in checker.pairs(tuple(sorted_s))
        ]
        core_start = max(
            (remap[u] for u in core_list),
            key=lambda u: sub_pattern.degree(u),
        )
        order = compute_matching_order(sub_pattern, start=core_start)
        for t, found in executor.run_tasks(
            cluster,
            _core_general_task,
            [
                (
                    t, sub_pattern, sub_constraints, order, core_list,
                    remap, sub_pattern.degree(core_start),
                )
                for t in range(cluster.num_machines)
            ],
        ):
            per_machine[t] = found
        return per_machine

    # ------------------------------------------------------------------
    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        graph = cluster.graph
        index = self._index
        if index is None or index.graph is not graph:
            index = CliqueIndex(
                graph, max_size=max(2, min(4, pattern.max_clique_size()))
            )
        checker = ConstraintChecker(pattern, constraints)
        core, buds = choose_core(pattern)
        core_embs = self._core_embeddings(
            cluster, pattern, core, checker, index, executor
        )
        cluster.barrier()

        # Order buds: clique-attached first (cheap index lookups prune most).
        def attachment(u: int) -> list[int]:
            return sorted(pattern.adj(u) & core)

        def is_clique_attachment(u: int) -> bool:
            att = attachment(u)
            return len(att) >= 2 and all(
                pattern.has_edge(a, b) for a, b in combinations(att, 2)
            )

        bud_order = sorted(
            buds, key=lambda u: (not is_clique_attachment(u), -len(attachment(u)))
        )
        # Bud-bud pattern edges cannot exist (buds are an independent set).
        all_pairs = checker.pairs(tuple(range(pattern.num_vertices)))
        results: list[tuple[int, ...]] = []
        count = 0
        for t, machine_count, found in executor.run_tasks(
            cluster,
            _bud_combine_task,
            [
                (
                    t, core_embs[t], bud_order,
                    [attachment(u) for u in bud_order],
                    [is_clique_attachment(u) for u in bud_order],
                    [pattern.degree(u) for u in bud_order],
                    all_pairs, pattern.num_vertices, collect,
                )
                for t in range(cluster.num_machines)
            ],
        ):
            count += machine_count
            results.extend(found)
        # One MapReduce round shuffles the compressed representation when
        # assembling final output (core embeddings + candidate sets).
        payload = np.zeros(
            (cluster.num_machines, cluster.num_machines), dtype=np.int64
        )
        for t in range(cluster.num_machines):
            nbytes = len(core_embs[t]) * len(core) * 8
            dst = (t + 1) % cluster.num_machines
            if dst != t:
                payload[t, dst] = nbytes
        cluster.network.shuffle(cluster.machines, payload)
        self._count = count
        return results


def _permutations(values: tuple[int, ...]):
    """itertools.permutations, localised for the hot loop."""
    from itertools import permutations as _perms

    return _perms(values)


def _connecting_superset(pattern: Pattern, core: frozenset[int]) -> set[int]:
    """Core plus the fewest buds needed to make the set connected."""
    s = set(core)

    def components(subset: set[int]) -> int:
        seen: set[int] = set()
        parts = 0
        for v in sorted(subset):
            if v in seen:
                continue
            parts += 1
            stack = [v]
            seen.add(v)
            while stack:
                x = stack.pop()
                for w in pattern.adj(x):
                    if w in subset and w not in seen:
                        seen.add(w)
                        stack.append(w)
        return parts

    while components(s) > 1:
        outside = [u for u in pattern.vertices() if u not in s]
        best = max(
            outside,
            key=lambda u: (len(pattern.adj(u) & s), pattern.degree(u), -u),
        )
        s.add(best)
    return s


def _induced_pattern(
    pattern: Pattern, vertices: set[int]
) -> tuple[Pattern, dict[int, int]]:
    """Induced subpattern with a dense relabelling."""
    ordered = sorted(vertices)
    remap = {v: i for i, v in enumerate(ordered)}
    edges = [
        (remap[a], remap[b])
        for a, b in pattern.edges()
        if a in vertices and b in vertices
    ]
    return Pattern(len(ordered), edges, name="core"), remap
