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

**Layout.**  A machine's core embeddings are an ``(n, |core|)`` int64
block, columns in ascending core-vertex order; that block is what the core
task returns and the bud task takes.  A bud's candidate sets are one flat
array with a count per core row (the VCBC form: never a cross product);
decompression appends one bud column at a time, so full embeddings are
``(m, |V_P|)`` blocks with schema ``core + buds``, permuted to pattern
order — and turned into tuples — only by the final gather under
``collect``.

**Ordering guarantee.**  Machines in order; core rows as the core path
yields them (single vertex: owned vertices ascending; index: index order,
each clique's permutations lexicographic by position; general: the
backtracking kernel's depth-first order, a projected row kept at its first
appearance); below a core row, buds in ``bud_order``, candidates
ascending.

**Accounting** (what the row-at-a-time loop charged).  Per core row and
bud, with ``C`` the common neighbours of the attachment's images: an
index-served bud (clique attachment) costs ``|C| // 8 + 1`` ops and
``(|C| + |att|) * 8`` disk bytes, any other the sum of its attachment
vertices' degrees.  ``candidate_bytes`` counts the sets.  A row
whose bud ``i`` comes out empty is dead: it pays nothing for later buds,
keeps what it was charged for earlier ones, and is not decompressed.
Decompression costs one op per (partial row, candidate) pair, injective or
not; symmetry breaking filters finished rows only.
"""

from __future__ import annotations

from itertools import combinations, permutations

import numpy as np

import repro.enumeration.block as kernel
from repro.cluster.cluster import Cluster
from repro.engines.base import EnumerationEngine
from repro.engines.join_common import ConstraintChecker, key_codes
from repro.enumeration.backtracking import (
    BacktrackingEnumerator,
    EnumerationStats,
    compute_matching_order,
)
from repro.graph.cliques import maximal_cliques
from repro.graph.graph import Graph, gather_ranges
from repro.query.pattern import Pattern
from repro.runtime.executor import Executor

#: Full rows one decompression chunk may reach (an upper bound: the
#: product of a core row's candidate counts).
_ROWS_PER_CHUNK = 32 * kernel.ROWS_PER_BLOCK


def _core_general_task(cluster: Cluster, args: tuple) -> np.ndarray:
    """Enumerate one machine's core embeddings via backtracking
    (the general, index-free path — independent per machine)."""
    t, sub_pattern, sub_constraints, order, core_columns, start_degree = args
    local = cluster.partition.machine(t)
    machine = cluster.machine(t)
    stats = EnumerationStats()
    enumerator = BacktrackingEnumerator(
        pattern=sub_pattern,
        adjacency=cluster.graph,
        constraints=sub_constraints,
        order=order,
        stats=stats,
    )
    starts = local.owned_vertices[local.owned_degrees >= start_degree]
    rows = np.concatenate([
        np.empty((0, sub_pattern.num_vertices), dtype=np.int64),
        *enumerator.run_blocks(starts),
    ])[:, core_columns]
    # Distinct projections, each where it first appeared.
    found = rows[np.sort(np.unique(key_codes(rows), return_index=True)[1])]
    machine.charge_ops(stats.total_ops, "core_ops")
    machine.allocate(found.size * 8, "core_bytes")
    # Reading adjacency beyond owned vertices is an index/HDFS scan.
    machine.advance(cluster.cost_model.disk_time(stats.candidates_scanned * 8))
    return found


def _bud_combine_task(cluster: Cluster, args: tuple) -> tuple:
    """Attach bud candidates to one machine's core embeddings and
    decompress into full embeddings (independent per machine).

    ``buds`` holds, per bud in order, its attachment's core columns and
    whether the clique index serves it.  (A bud's pattern degree is its
    attachment's size, which every common neighbour of the attachment has:
    there is no degree filter to apply.)  Returns the count and, under
    ``collect``, the ``core + buds`` block.
    """
    t, core, buds, pairs, collect = args
    graph = cluster.graph
    indptr = graph.indptr
    machine = cluster.machine(t)
    found = [np.empty((0, core.shape[1] + len(buds)), dtype=np.int64)]
    count = ops = disk_bytes = cand_bytes = 0
    for lo in range(0, len(core), kernel.ROWS_PER_BLOCK):
        chunk = core[lo:lo + kernel.ROWS_PER_BLOCK]
        live = np.arange(len(chunk))  # rows no bud has emptied yet
        crystals = []  # per bud: each chunk row's range of the flat candidates
        for columns, indexed in buds:
            anchors = chunk[live][:, columns]
            degrees = indptr[anchors + 1] - indptr[anchors]
            anchors = kernel.smallest_first(anchors, degrees)
            row, cand = kernel.neighbors(graph, anchors[:, 0])
            row, cand, _ = kernel.member(graph, anchors[:, 1:], row, cand)
            if indexed:  # index lookup: pay only for streaming the entry
                sizes = np.bincount(row, minlength=len(live))
                disk_bytes += (len(cand) + anchors.size) * 8
                ops += int((sizes // 8 + 1).sum())
            else:
                ops += int(degrees.sum())
            cand_bytes += len(cand) * 8
            counts = np.zeros(len(chunk), dtype=np.int64)
            counts[live] = np.bincount(row, minlength=len(live))
            crystals.append((np.cumsum(counts) - counts, counts, cand))
            live = live[counts[live] > 0]
        # Decompress the surviving rows, a bounded number of full rows at
        # a time: chunks end where the running bound crosses a multiple.
        bound = np.ones(len(live), dtype=np.int64)
        for _, counts, _ in crystals:
            bound *= counts[live]
        crossed = np.diff((np.cumsum(bound) - 1) // _ROWS_PER_CHUNK)
        ends = np.concatenate(([0], np.flatnonzero(crossed) + 1, [len(live)]))
        for a, b in zip(ends, ends[1:]):
            origin = live[a:b]
            block = chunk[origin]
            for starts, counts, cands in crystals:
                row, at = gather_ranges(starts[origin], counts[origin])
                ops += len(at)
                keep = kernel.injective(block, row, cands[at])
                row = row[keep]
                block = kernel.append(block, row, cands[at[keep]])
                origin = origin[row]
            block = block[kernel.ordered(block, pairs)]
            count += len(block)
            if collect:
                found.append(block)
    machine.charge_ops(ops, "crystal_ops")
    machine.advance(cluster.cost_model.disk_time(disk_bytes))
    machine.allocate(cand_bytes, "candidate_bytes")
    machine.free(cand_bytes)
    return count, np.concatenate(found)


#: Per-entry on-disk overhead of the index: besides the member ids, Crystal
#: stores instance codes, bud-candidate postings and pointers for each
#: indexed clique, which is what makes the index files many times larger
#: than the data graph (paper Table 2).
INDEX_ENTRY_OVERHEAD = 64


class CliqueIndex:
    """Offline index of all data-graph cliques up to ``max_size``.

    ``complete`` is false when ``max_entries`` stopped construction: the
    index then holds *some* cliques of each size, and nothing may read it
    as all of them.
    """

    def __init__(self, graph: Graph, max_size: int = 4,
                 max_entries: int = 5_000_000):
        self._graph = graph
        self.max_size = max_size
        self.complete = True
        v, w = kernel.neighbors(graph, np.arange(graph.num_vertices))
        distinct: dict[int, set[tuple[int, ...]]] = {
            k: set() for k in range(3, max_size + 1)
        }
        subsets = (
            sub
            for clique in (maximal_cliques(graph) if max_size >= 3 else ())
            for k in range(3, min(max_size, len(clique)) + 1)
            for sub in combinations(clique, k)
        )
        entries = 0
        for sub in subsets:
            if sub not in distinct[len(sub)]:
                distinct[len(sub)].add(sub)
                entries += 1
                if entries >= max_entries:
                    self.complete = False
                    break
        #: size -> the ``(count, size)`` array of cliques, rows ascending.
        self._by_size: dict[int, np.ndarray] = {
            2: np.stack((v, w), axis=1)[v < w],
            **{
                k: np.array(sorted(subs), dtype=np.int64).reshape(-1, k)
                for k, subs in distinct.items()
            },
        }

    @property
    def graph(self) -> Graph:
        """The indexed data graph."""
        return self._graph

    def cliques(self, size: int) -> np.ndarray:
        """The indexed cliques of exactly ``size`` vertices, one sorted
        clique per row, rows in lexicographic order."""
        return self._by_size.get(size, np.empty((0, size), dtype=np.int64))

    def count(self, size: int) -> int:
        """Number of indexed cliques of ``size``."""
        return len(self.cliques(size))

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


def _is_clique(pattern: Pattern, vertices) -> bool:
    """True iff ``vertices`` are pairwise adjacent in ``pattern``."""
    return all(pattern.has_edge(a, b) for a, b in combinations(vertices, 2))


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

    def score(cover: frozenset[int]) -> tuple:
        buds = [u for u in pattern.vertices() if u not in cover]
        clique_buds = sum(
            1 for u in buds if _is_clique(pattern, pattern.adj(u) & cover)
        )
        connected = _induced_pattern(pattern, cover)[0].is_connected()
        return (clique_buds, connected, -len(cover), tuple(sorted(cover)))

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
        core_list: list[int],
        checker: ConstraintChecker,
        index: CliqueIndex,
        executor: Executor,
    ) -> list[np.ndarray]:
        """Distinct core embeddings per machine (at the anchor's owner),
        columns in ``core_list`` order."""
        partition = cluster.partition
        machines = range(cluster.num_machines)
        width = len(core_list)
        degrees = np.array([pattern.degree(u) for u in core_list])

        def local_cores(t: int, rows: np.ndarray, keep: np.ndarray) -> np.ndarray:
            """Machine ``t`` scanned ``rows`` and holds those under ``keep``."""
            cluster.machine(t).charge_ops(len(rows), "core_ops")
            cluster.machine(t).allocate(int(keep.sum()) * width * 8, "core_bytes")
            return rows[keep]

        if width == 1:
            return [
                local_cores(
                    t, local.owned_vertices[:, None],
                    local.owned_degrees >= degrees[0],
                )
                for t, local in enumerate(partition.machines())
            ]
        if (
            _is_clique(pattern, core_list)
            and width <= index.max_size
            and index.complete
        ):
            # Fast path: core instances come straight off the clique index,
            # each at the owner of its smallest vertex, in every order.
            instances = index.cliques(width)
            home = partition.owner[instances[:, 0]]
            orders = np.array(list(permutations(range(width))))
            pairs = checker.pairs(tuple(core_list))
            load_time = cluster.cost_model.disk_time(
                instances.size * 8 / cluster.num_machines
            )
            data_degrees = cluster.graph.degrees()
            found = []
            for t in machines:
                cluster.machine(t).advance(load_time)
                rows = instances[home == t][:, orders].reshape(-1, width)
                keep = (data_degrees[rows] >= degrees).all(axis=1)
                found.append(local_cores(t, rows, keep & kernel.ordered(rows, pairs)))
            return found
        # General path: enumerate a connected superset S of the core with
        # plain backtracking, project to the core, deduplicate.
        s_vertices = _connecting_superset(pattern, core_list)
        sub_pattern, remap = _induced_pattern(pattern, s_vertices)
        # pairs() returns positional pairs over the sorted vertex tuple;
        # positions in a sorted list coincide with the dense relabelling.
        sub_constraints = checker.pairs(tuple(sorted(s_vertices)))
        core_start = max(
            (remap[u] for u in core_list),
            key=lambda u: sub_pattern.degree(u),
        )
        order = compute_matching_order(sub_pattern, start=core_start)
        return executor.run_tasks(
            cluster,
            _core_general_task,
            [
                (
                    t, sub_pattern, sub_constraints, order,
                    [remap[u] for u in core_list],
                    sub_pattern.degree(core_start),
                )
                for t in machines
            ],
        )

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
        core_list = sorted(core)
        core_embs = self._core_embeddings(
            cluster, pattern, core_list, checker, index, executor
        )
        cluster.barrier()

        def attachment(u: int) -> list[int]:
            return sorted(pattern.adj(u) & core)

        def indexed(u: int) -> bool:
            """A clique attachment: the bud's candidates are an index entry."""
            return len(attachment(u)) >= 2 and _is_clique(pattern, attachment(u))

        # Order buds: clique-attached first (cheap index lookups prune most).
        # Bud-bud pattern edges cannot exist (buds are an independent set).
        bud_order = sorted(
            buds, key=lambda u: (not indexed(u), -len(attachment(u)))
        )
        schema = (*core_list, *bud_order)
        bud_args = [
            ([core_list.index(w) for w in attachment(u)], indexed(u))
            for u in bud_order
        ]
        counts, blocks = zip(*executor.run_tasks(
            cluster,
            _bud_combine_task,
            [
                (t, core_embs[t], bud_args, checker.pairs(schema), collect)
                for t in range(cluster.num_machines)
            ],
        ))
        # One MapReduce round shuffles the compressed representation when
        # assembling final output (core embeddings + candidate sets).
        payload = np.zeros(
            (cluster.num_machines, cluster.num_machines), dtype=np.int64
        )
        for t in range(cluster.num_machines):
            dst = (t + 1) % cluster.num_machines
            if dst != t:
                payload[t, dst] = core_embs[t].size * 8
        cluster.network.shuffle(cluster.machines, payload)
        self._count = sum(counts)
        # Columns are core then buds; the result is in pattern order.
        found = np.concatenate(blocks)[:, np.argsort(schema)]
        return list(map(tuple, found.tolist()))


def _connecting_superset(pattern: Pattern, core: list[int]) -> set[int]:
    """Core plus the fewest buds needed to make the set connected."""
    s = set(core)
    while not _induced_pattern(pattern, s)[0].is_connected():
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
