"""Shared machinery for the join-based baselines (TwinTwig, SEED) — and the
relation helpers the other baselines borrow: :func:`claim` (Multiway,
Replication), :func:`key_codes` and :class:`ConstraintChecker` (Crystal).

TwinTwig and SEED follow the same MapReduce skeleton: compute per-machine
instances of each decomposition unit locally, then run multi-round hash
joins where *both* join sides are shuffled by join key — the intermediate
result explosion and synchronisation delay the paper attributes to them.

**Relation layout.**  A relation is one ``(n, k)`` int64 array per machine
plus a schema, the tuple of the ``k`` query vertices its columns match.
Unit instances, routed slices and join outputs are such arrays: what a
task takes and returns, hence what crosses a process or socket boundary.
A Python tuple is built only by the final gather, only under ``collect``.

**Ordering guarantee.**  Every stage emits, as an ordered list, what a
tuple-at-a-time implementation would.  Unit instances come depth-first:
owned vertices ascending, then each further column's neighbours ascending
(:mod:`repro.enumeration.block` steps, stable masks).  A reducer receives
its rows in source-machine order, then source row order, and emits by key
in order of the key's first appearance in its left input, then left row
order, then right row order.  The final gather is ``block[:, perm]`` per
machine in machine order, ``perm`` putting columns in query-vertex order.

**Accounting.**  The simulated numbers count what the tuple loop did.

- ``unit_ops``: one per owned vertex; per star level one per neighbour
  scanned; per clique level ``|C| + sum(min(|C|, deg(w)) for w in C)``
  over each partial clique's common-neighbour set ``C`` (its sorted-list
  intersections).  Symmetry pairs only filter finished instances.
- ``shuffle_ops``: one per row leaving the map side.  ``join_ops``: one
  per (left, right) pair sharing a key, whether or not it survives.
- Memory is claimed ``ALLOC_CHUNK`` rows at a time as rows are produced,
  the remainder at the end (:func:`claim`): an over-capacity run raises
  at the allocation the loop raised at, before ``charge_ops``.  Real work
  goes a chunk at a time (``ROWS_PER_BLOCK`` rows of a unit level,
  ``_PAIRS_PER_CHUNK`` pairs of a join), so it stops within one chunk.
- Shuffle bytes are *grouped by key* (the paper, Exp-1: "the grouped
  intermediate results of TwinTwig and SEED significantly reduced the cost
  of network traffic"): a source ships each distinct key once and each row
  only its non-key columns.  A star joined on its pivot alone is
  *star-compressed*: its rows ship nothing, each distinct centre ships one
  adjacency list.
- **The left-sent-key quirk.**  A star-compressed right key ships its
  adjacency list only when the left side of the same source has not
  already sent that key: the loop charged key and adjacency together at a
  key's first sighting, and saw the left side first.  Kept: every reported
  communication volume includes it.

Rows are routed by :func:`tuple_hash`, CPython's tuple hash in uint64
arithmetic: where a key goes is a tested statement, not a hidden builtin.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import repro.enumeration.block as kernel
from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine
from repro.graph.graph import gather_ranges
from repro.obs.trace import span as _obs_span
from repro.query.pattern import Pattern
from repro.runtime.executor import Executor, SerialExecutor

#: Allocation granularity while materialising tuples: memory is claimed in
#: chunks so an over-capacity run fails fast instead of materialising
#: everything first.
ALLOC_CHUNK = 4096

#: Pairs a reducer materialises at a time (the kernel's row budget times a
#: typical fan-out): the transient arrays stay in the tens of megabytes.
_PAIRS_PER_CHUNK = 32 * kernel.ROWS_PER_BLOCK

_XXPRIME_1 = np.uint64(11400714785074694791)
_XXPRIME_2 = np.uint64(14029467366897019727)
_XXPRIME_5 = np.uint64(2870177450012600261)


def tuple_hash(block: np.ndarray) -> np.ndarray:
    """The builtin hash of ``tuple(row)`` for every row of ``block``, as int64.

    CPython >= 3.8 on a 64-bit build (xxHash lanes; an id is its own hash):
    exact for non-negative ids below ``2**61 - 1``.  The result is the
    signed view, so ``% machines`` lands where Python's ``%`` does.
    """
    acc = np.full(len(block), _XXPRIME_5, dtype=np.uint64)
    high = np.empty_like(acc)
    for column in range(block.shape[1]):
        np.multiply(block[:, column].astype(np.uint64), _XXPRIME_2, out=high)
        acc += high
        np.left_shift(acc, np.uint64(31), out=high)  # rotate left by 31
        acc >>= np.uint64(33)
        acc |= high
        acc *= _XXPRIME_1
    acc += np.uint64(block.shape[1]) ^ (_XXPRIME_5 ^ np.uint64(3527539))
    acc[acc == np.uint64(2**64 - 1)] = 1546275796
    return acc.view(np.int64)


def claim(machine: Machine, claimed: int, rows: int, row_bytes: int, counter: str) -> int:
    """Replay the loop's allocations up to ``rows`` rows produced: one
    ``ALLOC_CHUNK`` claim per multiple crossed.  Returns the rows claimed."""
    while rows - claimed >= ALLOC_CHUNK:
        machine.allocate(ALLOC_CHUNK * row_bytes, counter)
        claimed += ALLOC_CHUNK
    return claimed


def key_codes(keys: np.ndarray) -> np.ndarray:
    """One integer per row of ``keys``, equal exactly where the rows are.

    Columns are folded in mixed radix, re-ranking first wherever the next
    fold could overflow.  The narrowest unsigned dtype is returned: numpy
    sorts 16-bit codes by radix, in linear time.
    """
    codes = keys[:, 0]
    for column in keys.T[1:]:
        span = int(column.max(initial=0)) + 1
        if int(codes.max(initial=0)) >= 2**63 // span:
            codes = np.unique(codes, return_inverse=True)[1]
        codes = codes * span + column
    return codes.astype(np.min_scalar_type(int(codes.max(initial=0))))


def _instances_task(cluster: Cluster, args: tuple) -> np.ndarray:
    """Generate one machine's instances of one unit (independent task).

    Blocks are expanded depth-first, ``ROWS_PER_BLOCK`` rows at a time, so
    finished instances arrive — and claim memory — in the loop's order.
    A clique's members come from common neighbours without communication:
    SEED's star-clique-preserved storage replicates a vertex's neighbours'
    edges.
    """
    t, unit, clique, min_degree, pairs = args
    graph = cluster.graph
    local = cluster.partition.machine(t)
    machine = cluster.machine(t)
    width = len(unit.vertices)
    row_bytes = cluster.cost_model.embedding_bytes(width)
    seeds = local.owned_vertices[local.owned_degrees >= min_degree]
    ops = len(local.owned_vertices)
    found = [np.empty((0, width), dtype=np.int64)]
    rows = claimed = 0
    stack = [seeds[:, None]]
    while stack:
        block = stack.pop()
        if block.shape[1] == width:
            block = block[kernel.ordered(block, pairs)]
            found.append(block)
            rows += len(block)
            claimed = claim(machine, claimed, rows, row_bytes, "unit_bytes")
        elif len(block) > kernel.ROWS_PER_BLOCK:
            stack.extend(
                block[lo:lo + kernel.ROWS_PER_BLOCK]
                for lo in reversed(range(0, len(block), kernel.ROWS_PER_BLOCK))
            )
        else:
            row, cand = kernel.neighbors(graph, block[:, 0])
            if clique:
                # Candidates: the common neighbours of every chosen member.
                row, cand, _ = kernel.member(graph, block[:, 1:], row, cand)
                common = np.bincount(row, minlength=len(block))[row]
                degree = graph.indptr[cand + 1] - graph.indptr[cand]
                ops += len(cand) + int(np.minimum(common, degree).sum())
            else:
                ops += len(cand)
                keep = kernel.injective(block, row, cand)
                row, cand = row[keep], cand[keep]
            stack.append(kernel.append(block, row, cand))
    machine.allocate((rows - claimed) * row_bytes, "unit_bytes")
    machine.charge_ops(ops, "unit_ops")
    return np.concatenate(found)


def _shuffle_map_task(cluster: Cluster, args: tuple) -> tuple:
    """Route one source machine's rows by join key (independent task).

    Returns each side as one slice per destination, and the bytes metered
    per destination (module docstring).  Reads only machine ``t``'s rows
    and charges only machine ``t``: the single-writer discipline.
    """
    t, left, right, left_key, right_key, star_compressed = args
    model = cluster.cost_model
    num_machines = cluster.num_machines
    indptr = cluster.graph.indptr
    keys = np.concatenate((left[:, left_key], right[:, right_key]))
    dst = tuple_hash(keys) % num_machines
    # Per row its non-key columns; per distinct key, at its first row (left
    # rows come first), the key and a compressed star's adjacency list.
    nbytes = np.repeat(
        [
            model.embedding_bytes(left.shape[1] - len(left_key)),
            0 if star_compressed
            else model.embedding_bytes(right.shape[1] - len(right_key)),
        ],
        [len(left), len(right)],
    )
    first = np.unique(key_codes(keys), return_index=True)[1]
    nbytes[first] += model.embedding_bytes(len(left_key))
    if star_compressed:
        fresh = first[first >= len(left)]
        centres = keys[fresh, 0]
        nbytes[fresh] += model.adjacency_bytes(
            indptr[centres + 1] - indptr[centres]
        )
    payload = np.zeros(num_machines, dtype=np.int64)
    np.add.at(payload, dst, nbytes)
    machine = cluster.machine(t)
    machine.charge_ops(len(keys), "shuffle_ops")
    machine.free(model.embedding_bytes(left.size + right.size))
    return (
        kernel.split(left, dst[:len(left)], num_machines),
        kernel.split(right, dst[len(left):], num_machines),
        payload,
    )


def _join_reduce_task(cluster: Cluster, args: tuple) -> np.ndarray:
    """Local sort-merge join at one reducer (independent task).

    Output order: key by first appearance in ``left``, then left row
    order, then right row order.  Left rows are joined a chunk of pairs
    at a time, so the cross product is never materialised whole.
    """
    t, lefts, rights, left_key, right_key, new_columns, out_pairs = args
    left, right = np.concatenate(lefts), np.concatenate(rights)
    machine = cluster.machine(t)
    out_width = left.shape[1] + len(new_columns)
    out_bytes = cluster.cost_model.embedding_bytes(out_width)
    codes = key_codes(np.concatenate((left[:, left_key], right[:, right_key])))
    left_codes, right_codes = codes[:len(left)], codes[len(left):]
    # The right side as a table: distinct keys ascending, each key's rows
    # together in arrival order.  Left rows without a key in it drop out.
    right_order = np.argsort(right_codes, kind="stable")
    table, right_starts, run_rights = np.unique(
        right_codes[right_order], return_index=True, return_counts=True
    )
    slot = np.searchsorted(table, left_codes)
    matched = np.flatnonzero(slot < len(table))
    matched = matched[table[slot[matched]] == left_codes[matched]]
    slot = slot[matched].astype(np.min_scalar_type(len(table)))
    run_lefts = np.bincount(slot, minlength=len(table))
    ops = int((run_lefts * run_rights).sum())
    # Matched left rows key by key, and the keys by first left appearance.
    by_key = matched[np.argsort(slot, kind="stable")]
    left_starts = np.cumsum(run_lefts) - run_lefts
    live = np.flatnonzero(run_lefts)
    live = live[np.argsort(by_key[left_starts[live]])]
    of_live, at = gather_ranges(left_starts[live], run_lefts[live])
    left_at, key = by_key[at], live[of_live]  # left rows in output order
    # Chunks end where the running pair count crosses a multiple of the
    # budget, so one holds under a budget of pairs plus one row's.
    pairs = (np.cumsum(run_rights[key]) - 1) // _PAIRS_PER_CHUNK
    bounds = np.concatenate(([0], np.flatnonzero(np.diff(pairs)) + 1, [len(key)]))
    joined = [np.empty((0, out_width), dtype=np.int64)]
    rows = claimed = 0
    for lo, hi in zip(bounds, bounds[1:]):
        row, right_at = gather_ranges(right_starts[key[lo:hi]], run_rights[key[lo:hi]])
        left_rows = np.take(left, left_at[lo:hi][row], axis=0)
        right_rows = np.take(right, right_order[right_at], axis=0)[:, new_columns]
        out = np.concatenate((left_rows, right_rows), axis=1)
        keep = kernel.ordered(out, out_pairs)
        for j in range(left.shape[1], out_width):  # injectivity
            for i in range(j):
                keep &= out[:, i] != out[:, j]
        joined.append(np.take(out, np.flatnonzero(keep), axis=0))
        rows += len(joined[-1])
        claimed = claim(machine, claimed, rows, out_bytes, "joined_bytes")
    machine.allocate((rows - claimed) * out_bytes, "joined_bytes")
    machine.charge_ops(ops, "join_ops")
    # Inputs grouped at this reducer are released after the join.
    machine.free(cluster.cost_model.embedding_bytes(left.size + right.size))
    return np.concatenate(joined)


@dataclass
class JoinUnit:
    """One decomposition unit: ordered query vertices + the edges it covers."""

    vertices: tuple[int, ...]
    covered_edges: tuple[tuple[int, int], ...]
    kind: str  # "star" or "clique"

    @property
    def pivot(self) -> int:
        """First vertex (the star centre / clique anchor)."""
        return self.vertices[0]


class ConstraintChecker:
    """Symmetry-breaking checks compiled to positional pairs per schema."""

    def __init__(self, pattern: Pattern, constraints: list[tuple[int, int]]):
        self._constraints = constraints
        self._pair_cache: dict[tuple[int, ...], list[tuple[int, int]]] = {}

    def pairs(self, vertices: tuple[int, ...]) -> list[tuple[int, int]]:
        """Positional pairs ``(i, j)`` requiring ``tup[i] < tup[j]``."""
        cached = self._pair_cache.get(vertices)
        if cached is None:
            pos = {u: i for i, u in enumerate(vertices)}
            cached = [
                (pos[u], pos[v])
                for u, v in self._constraints
                if u in pos and v in pos
            ]
            self._pair_cache[vertices] = cached
        return cached


class DistributedJoinRunner:
    """Executes a unit sequence as synchronised hash-join rounds."""

    def __init__(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        executor: Executor | None = None,
    ):
        self.cluster = cluster
        self.pattern = pattern
        self.checker = ConstraintChecker(pattern, constraints)
        self.executor = executor or SerialExecutor()

    def _unit_task(self, machine_id: int, unit: JoinUnit, clique: bool) -> tuple:
        return (
            machine_id, unit, clique, self.pattern.degree(unit.pivot),
            self.checker.pairs(unit.vertices),
        )

    def _instances(self, unit: JoinUnit) -> list[np.ndarray]:
        """Every machine's instances of ``unit``, one task per machine."""
        clique = unit.kind == "clique" and len(unit.vertices) > 2
        per_machine = self.executor.run_tasks(
            self.cluster,
            _instances_task,
            [
                self._unit_task(t, unit, clique)
                for t in range(self.cluster.num_machines)
            ],
        )
        self.cluster.barrier()
        return per_machine

    def join_round(
        self,
        left: list[np.ndarray],
        left_vertices: tuple[int, ...],
        right: list[np.ndarray],
        right_unit: JoinUnit,
    ) -> tuple[list[np.ndarray], tuple[int, ...]]:
        """One MapReduce join: shuffle both sides by key, join locally.

        Returns the partitioned result and its query-vertex schema.
        Consumes ``left`` and ``right``: both lists are emptied once routed,
        so the reduce holds one copy of each relation, not two.
        """
        cluster = self.cluster
        num_machines = cluster.num_machines
        right_vertices = right_unit.vertices
        shared = tuple(v for v in right_vertices if v in left_vertices)
        if not shared:
            raise ValueError("join units must share at least one vertex")
        left_key = [left_vertices.index(v) for v in shared]
        right_key = [right_vertices.index(v) for v in shared]
        new_columns = [i for i, v in enumerate(right_vertices) if v not in left_vertices]
        out_vertices = left_vertices + tuple(right_vertices[i] for i in new_columns)
        star_compressed = right_unit.kind == "star" and shared == (right_unit.pivot,)

        # Shuffle phase: one map task per source machine; a reducer's
        # input is its slices concatenated in source-machine order.
        mapped = self.executor.run_tasks(
            cluster,
            _shuffle_map_task,
            [
                (t, left[t], right[t], left_key, right_key, star_compressed)
                for t in range(num_machines)
            ],
        )
        lefts, rights, payload = zip(*mapped)
        del mapped
        left.clear()
        right.clear()
        lefts, rights = list(zip(*lefts)), list(zip(*rights))  # per reducer
        for t in range(num_machines):
            arrived = sum(part.size for part in lefts[t] + rights[t])
            cluster.machine(t).allocate(
                cluster.cost_model.embedding_bytes(arrived), "grouped_bytes"
            )
        cluster.network.shuffle(cluster.machines, np.stack(payload))

        # Reduce phase: local join with injectivity + constraints — one
        # independent task per reducer.
        out_pairs = self.checker.pairs(out_vertices)
        result = self.executor.run_tasks(
            cluster,
            _join_reduce_task,
            [
                (t, lefts[t], rights[t], left_key, right_key, new_columns, out_pairs)
                for t in range(num_machines)
            ],
        )
        cluster.barrier()
        return result, out_vertices

    def run_units(
        self, units: list[JoinUnit], collect: bool
    ) -> tuple[list[tuple[int, ...]], int]:
        """Left-deep evaluation of the unit sequence; returns (results, count)."""
        with _obs_span("round.unit", unit=0, kind=units[0].kind) as span:
            current = self._instances(units[0])
            count = sum(map(len, current))
            span.set(rows_left=0, rows_right=count, rows_out=count)
        current_vertices = units[0].vertices
        for index, unit in enumerate(units[1:], start=1):
            with _obs_span("round.join", unit=index, kind=unit.kind) as span:
                right = self._instances(unit)
                span.set(rows_left=count, rows_right=sum(map(len, right)))
                current, current_vertices = self.join_round(
                    current, current_vertices, right, unit
                )
                count = sum(map(len, current))
                span.set(rows_out=count)
        # Gather final embeddings (canonical tuples indexed by query vertex).
        if not collect:
            return [], count
        found = np.concatenate(current)[:, np.argsort(current_vertices)]
        return list(map(tuple, found.tolist())), count
