"""R-Meef: region-grouped multi-round expand, verify & filter
(paper Sec. 3.2, Algorithms 1-2, Appendix B) — one block kernel per round.

One :class:`RMeefWorker` runs on one *executor* machine and takes a region
group of start candidates through ``|PL|`` rounds; round ``i`` expands the
embeddings of ``P_{i-1}`` through decomposition unit ``dp_i``.  No
intermediate result ever leaves the executor; what crosses the wire is
`fetchV` (adjacency of foreign pivots, cached) and `verifyE` (edges neither
endpoint of which is known locally).

**Block layout.**  A round's frontier is an ``(n, k)`` int64 array, one row
per embedding of ``P_{i-1}``, columns in matching order, rows in depth-first
order — the block of :mod:`repro.enumeration.block`, which owns the step
(gather, membership filter and its cost, bounds, injectivity, append) and
``first_diff``, the Def. 11 trie such a block is.

**One step per unit position** (:meth:`RMeefWorker._expand`) adds what is
R-Meef's: the pivot is the anchor; a refine vertex filters only where its
adjacency is *known* (``owned | cached``, a boolean vertex mask kept in step
with the :class:`ForeignVertexCache`) and is deferred elsewhere; the degree
filter applies to known candidates; and the deferred edges are settled by
``has_edges`` where the candidate is known, or carried as undetermined
edge-key columns to the unit's last position.

**Counter arithmetic.**  ``rmeef_ops`` feeds the simulated clocks, so the
recursion's count is reproduced from block shapes, not redefined: the
membership cost over the known refines, the pairs surviving the bounds, one
per deferred check actually made (a candidate stops at its first failed
check), one per start candidate, and one per trie node created or released.
The last two come from conservation, on every chunk: with ``made`` the nodes
a chunk creates and ``delta`` the change in live nodes across it, its
entries sum to ``delta`` and their sizes to ``2 * made - delta`` — and
``delta`` is a closed form: the per-row gains while a round continues, the
trie the verified next frontier is when it ends, the emit boundaries'
running count in the final round.

**Entry timeline.**  Trie memory reaches the machine through a 16 KiB
hysteresis, so the *order* of node creations and releases decides
``trie_bytes``, ``peak_memory`` and which allocation raises — and nothing
else reads it.  A chunk therefore builds the sequence only where a flush
can see it.  The certificate (:func:`_within_step`) is an interval around
the nodes the machine holds: live nodes peak inside some row, at most at
its creations over what the rows before it left, and never fall below the
count before the chunk less everything it releases (nor below zero); with
both ends inside the step no entry flushes, so none raises, and the chunk
is its two sums, its `verifyE` requests sent in segment order.  Elsewhere
the chunk rebuilds the sequence of signed node counts the recursion would
have produced, from subtree lengths: a node's creation is ``+1`` at its
pre-order slot; a dead end (no descendant reached the unit's last
position) is detached ``-1`` at its post-order slot; a frontier row left
childless, a leaf whose `verifyE` failed and an emitted leaf are released
``-(1 + cascade)``.  The cascade is attribution: an ancestor goes with the
last of its descendants to go — the maximum slot over its run — so one
``np.maximum.reduceat`` per level tells each release how many ancestors it
takes along.  The cumulative sum of the timeline runs through the
hysteresis into the same :meth:`Machine.allocate` / :meth:`Machine.free`
calls in the same order; when one raises, the operations charged up to
exactly that entry are read off the same slots.

**Emit boundaries.**  In the final round verified rows are output, not
state: once the trie outgrows ``flush_threshold`` after a frontier row, the
segment since the last emit is verified, emitted and dropped.  Alive nodes
after row ``r`` of a segment started at ``a`` have a closed form — the rows
not yet processed and their ancestors, plus a cumulative sum of what each
row left behind (its live subtree, or minus itself and its cascade) — so a
boundary is one vector comparison, and the common case of a frontier that
is over the threshold by itself (every row its own segment) is found as
one prefix.  One ``np.unique`` per segment that has undetermined edges is
the EVI of Def. 5: one `verifyE` per owner of the smaller endpoint, failed
rows released in (owner, first registration, row) order.

**Chunks and known-epochs.**  A round is expanded ``ROWS_PER_BLOCK``
frontier rows at a time, and segments that close are accounted and dropped
before the next chunk.  That bounds the frontier rows a chunk starts from,
not the pairs below them: a unit with several leaf positions expands all
of them inside one chunk, and an edge between two foreign leaves is
deferred to `verifyE`, so a hub's chunk can grow like its degree to the
power of the leaf count.  A chunk computes its leaves' ``first_diff``
once: it sizes what each row keeps alive, and travels with the leaves
still open in a segment, so the timeline's release cascade reads it
instead of deriving it again (only where two chunks' leaves meet is the
entry recomputed, from those two rows).  The
known mask only changes at a `fetchV`, which happens at round start or at
a row's first position when a starved cache has evicted its pivot; a chunk
ends at such a miss, so every chunk sees one mask and the same block code
serves a one-entry cache.

Region groups are independent units of work: the serial backend interleaves
workers by virtual clock, the process and socket backends
(:mod:`repro.distributed`) run one machine's queue per task on a shard
worker; the per-group computation is identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import repro.enumeration.block as kernel
from repro.cluster.cluster import Cluster
from repro.cluster.machine import Machine, SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.embedding_trie import NODE_BYTES
from repro.query.pattern import Pattern
from repro.query.plan import ExecutionPlan
from repro.query.symmetry import bound_columns

#: Trie bytes reach the simulated machine in steps of this size.  The step
#: is part of the model, not a shortcut: ``trie_bytes``, ``peak_memory``
#: and the allocation that raises are defined by it.
_FLUSH_BYTES = 16384
_FLUSH_NODES = -(-_FLUSH_BYTES // NODE_BYTES)

_NEVER = np.iinfo(np.int64).max  # release slot of a row that survives


@dataclass
class _PositionInfo:
    """Static per-matching-order-position expansion metadata."""

    pivot_position: int
    # Earlier positions adjacent in the pattern (excluding the pivot).
    refine_positions: list[int]
    # Symmetry breaking (``bound_columns``): above / below these positions' images.
    lower_positions: list[int]
    upper_positions: list[int]
    min_degree: int


@dataclass
class _Level:
    """One unit position of one chunk.

    ``parent`` indexes the rows of the level above, one entry per pair that
    reached the deferred checks; ``passed`` marks the pairs that became
    nodes (None: all of them).
    """

    parent: np.ndarray
    passed: np.ndarray | None
    checks: np.ndarray | None     # deferred checks made, per pair
    pre_ops: np.ndarray           # ops charged before the pairs, per parent row
    made: np.ndarray              # the parent of every node created
    block: np.ndarray             # the nodes created, one row each
    pending: np.ndarray | None    # their undetermined edge keys (-1: none)


@dataclass
class _Round:
    """One round's frontier and the emit segment left open between chunks."""

    frontier: np.ndarray
    diff: np.ndarray              # first_diff of the frontier, two 0s appended
    above: np.ndarray             # nodes above the frontier over rows >= a
    rooted: bool                  # round 0 creates its frontier rows
    final: bool
    width: int                    # columns once the unit is matched
    begin: int = 0                # first row of the open segment
    alive: int = 0                # trie nodes after the last row processed
    prior: int = -1               # last row so far that kept leaves
    reach: int = 0                # min diff over the rows after `prior`
    open: list = field(default_factory=list)   # (leaves, rows, pending) pieces
    diffs: list = field(default_factory=list)  # first_diff of each open piece
    kept: list = field(default_factory=list)   # verified next-frontier blocks
    next: tuple | None = None     # the verified next frontier and its first_diff

    def standing(self, a) -> np.ndarray:
        """Nodes alive when a segment starts at row ``a``: the rows not yet
        processed and their ancestors (round 0 creates rows as it goes)."""
        if self.rooted:
            return np.zeros_like(a)
        return self.above[a] + (len(self.frontier) - a)


def _first_true(mask: np.ndarray) -> int:
    """Index of the first True, or ``len(mask)``."""
    if not len(mask):
        return 0
    hit = int(mask.argmax())
    return hit if mask[hit] else len(mask)


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Exclusive prefix sums."""
    return np.cumsum(counts) - counts


def _join(arrays: list[np.ndarray]) -> np.ndarray:
    """Concatenation that does not copy a single array."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _subtrees(parents: list[np.ndarray]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per level of a chunk's expansion, bottom-up: which nodes are live
    (some descendant reached the unit's last position; the others are
    detached on the way back) and how many timeline entries each subtree
    produces (its creation, its descendants', its detach if dead)."""
    depth = len(parents)
    live = [np.ones(len(parents[-1]), dtype=bool)] * depth
    span = [np.ones(len(parents[-1]), dtype=np.int64)] * depth
    for lv in range(depth - 2, -1, -1):
        below, size = parents[lv + 1], len(parents[lv])
        live[lv] = np.bincount(below[live[lv + 1]], minlength=size) > 0
        span[lv] = 1 + ~live[lv] + np.bincount(
            below, weights=span[lv + 1], minlength=size
        ).astype(np.int64)
    return live, span


def _within_step(low: int, high: int) -> bool:
    """The certificate: a balance that stays in ``[low, high]`` nodes of
    what the machine holds never reaches a flush step."""
    return -_FLUSH_NODES < low and high < _FLUSH_NODES


def _place(
    entries: np.ndarray,
    levels: list[_Level],
    live: list[np.ndarray],
    span: list[np.ndarray],
    child_base: np.ndarray,
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Write creations (+1, pre-order) and detaches (-1, post-order) into
    ``entries``, top-down from ``child_base`` (per frontier row, the slot
    of its first child).  Returns per level the slot of every node and,
    per checked pair, the slot its node takes or would have taken."""
    slots, times = [], []
    for lv, level in enumerate(levels):
        weight = span[lv]
        if level.passed is not None:
            weight = np.zeros(len(level.parent), dtype=np.int64)
            weight[level.passed] = span[lv]
        before = _offsets(weight)
        heads = _offsets(np.bincount(level.parent, minlength=len(child_base)))
        heads = np.append(before, 0)[heads]
        when = child_base[level.parent] + before - heads[level.parent]
        slot = when if level.passed is None else when[level.passed]
        entries[slot] = 1
        dead = ~live[lv]
        entries[slot[dead] + span[lv][dead] - 1] = -1
        slots.append(slot)
        times.append(when)
        child_base = slot + 1
    return slots, times


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
        self._graph = cluster.graph
        self._degrees = self._graph.degrees()
        self._owner = cluster.partition.owner
        # Vertices whose adjacency is decidable here: owned or cached.
        self._known = self._local.owned_mask.copy()
        self._known[cache.vertices()] = True
        self._order = plan.matching_order()
        self._position = {u: q for q, u in enumerate(self._order)}
        self._columns = [self._position[u] for u in pattern.vertices()]
        self._prefix_len = [
            len(plan.subpattern_vertices(i)) for i in range(plan.num_rounds)
        ]
        self._info = self._build_position_info(constraints)
        # Mutable per-group state.
        self._ops = 0
        self._trie_delta = 0      # nodes not yet flushed to the machine
        self._trie_charged = 0    # bytes the machine holds for the trie
        self._oom_entry = 0       # entry of the last `_feed` that raised
        self._collect = True
        self._emitted: list[np.ndarray] = []   # final-round rows, per segment
        self._emit_count = 0
        self.last_group_count = 0

    # ------------------------------------------------------------------
    # Static plan analysis
    # ------------------------------------------------------------------
    def _build_position_info(
        self, constraints: list[tuple[int, int]]
    ) -> list[_PositionInfo]:
        pattern, position = self._pattern, self._position
        lower, upper = bound_columns(constraints, self._order)
        pivot_of = {leaf: unit.pivot for unit in self._plan.units for leaf in unit.leaves}
        infos = [_PositionInfo(-1, [], [], [], pattern.degree(self._order[0]))]
        for q, u in enumerate(self._order[1:], 1):
            pivot = pivot_of[u]
            refine = sorted(
                position[w] for w in pattern.adj(u) if position[w] < q and w != pivot
            )
            infos.append(
                _PositionInfo(position[pivot], refine, lower[q], upper[q], pattern.degree(u))
            )
        return infos

    # ------------------------------------------------------------------
    # Foreign adjacency: fetch, cache, known mask
    # ------------------------------------------------------------------
    def _fetch_vertices(self, vertices) -> None:
        """Batched `fetchV`: one request per remote owner machine."""
        vertices = np.asarray(vertices, dtype=np.int64)
        need = vertices[~self._known[vertices]]
        if not len(need):
            return
        owners = self._owner[need]
        graph = self._graph
        model = self._cluster.cost_model
        for owner in np.unique(owners).tolist():
            verts = need[owners == owner]
            self._cluster.network.rpc(
                requester=self._machine,
                responder=self._cluster.machine(owner),
                request_bytes=len(verts) * model.bytes_per_vertex_id,
                response_bytes=int((self._degrees[verts] + 1).sum())
                * model.bytes_per_vertex_id,
                service_ops=float(len(verts)),
            )
            for v in verts.tolist():
                # Charge first: an allocation that raises must not leave
                # the entry cached for free.
                adjacency = graph.neighbors(v)
                cost = ForeignVertexCache.entry_bytes(adjacency)
                held = self._cache.bytes_used
                self._known[self._cache.make_room(cost)] = False
                self._machine.free(held - self._cache.bytes_used)
                self._machine.allocate(cost, "cache_bytes")
                self._cache.put(v, adjacency)
                self._known[v] = True

    # ------------------------------------------------------------------
    # Trie memory: the entry timeline through the flush hysteresis
    # ------------------------------------------------------------------
    def _feed(self, entries: np.ndarray) -> None:
        """Account a run of signed node counts, in order.

        An entry is one node creation (``+1``) or one release call
        (``-nodes``); the machine is charged whenever the unflushed balance
        reaches a flush step.  On simulated OOM ``self._oom_entry`` names
        the entry that raised.
        """
        # Running balance against the last flush; a flush needs at least
        # `_FLUSH_NODES` entries' worth of nodes, so search window by window.
        balance = np.cumsum(entries)
        flushed = -self._trie_delta
        start = 0
        while start < len(entries):
            window = balance[start:start + 4 * _FLUSH_NODES] - flushed
            hit = start + _first_true(np.abs(window) >= _FLUSH_NODES)
            if hit < start + len(window):
                nodes = int(balance[hit]) - flushed
                try:
                    self._flush(nodes)
                except SimulatedMemoryError:
                    self._oom_entry = hit
                    raise
                flushed += nodes
                hit += 1
            start = hit
        if len(entries):
            self._trie_delta = int(balance[-1]) - flushed

    def _flush(self, nodes: int) -> None:
        nbytes = nodes * NODE_BYTES
        if nodes > 0:
            self._machine.allocate(nbytes, "trie_bytes")
        else:
            self._machine.free(-nbytes)
        self._trie_charged += nbytes

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
        self._trie_delta = 0
        self._trie_charged = 0
        try:
            return self._process_group(group, collect)
        except SimulatedMemoryError:
            # Only what was flushed has been charged to the machine.
            self._machine.free(self._trie_charged)
            self._machine.charge_ops(self._ops, "rmeef_ops")
            self._ops = 0
            raise

    def _process_group(
        self, group: list[int], collect: bool
    ) -> list[tuple[int, ...]]:
        self._emitted, self._emit_count, self._collect = [], 0, collect
        # Round 0: start candidates (foreign when the group was stolen).
        self._fetch_vertices(group)
        frontier = np.sort(np.asarray(group, dtype=np.int64))[:, None]
        diff = kernel.first_diff(frontier)
        last = self._plan.num_rounds - 1
        for unit in range(self._plan.num_rounds):
            if unit:
                pivot = self._position[self._plan.units[unit].pivot]
                self._fetch_vertices(np.unique(frontier[:, pivot]))
            frontier, diff = self._round(frontier, diff, unit, unit == last)
        self._machine.charge_ops(self._ops, "rmeef_ops")
        self._ops = 0
        # Every node has been released by now; settle the balance.
        self._flush(self._trie_delta)
        self.last_group_count = self._emit_count
        return [
            row
            for block in self._emitted
            for row in map(tuple, block[:, self._columns].tolist())
        ]

    def _round(
        self, frontier: np.ndarray, diff: np.ndarray, unit: int, final: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """Expand ``frontier`` (``diff``: its ``first_diff``) through one
        unit, chunk by chunk.

        Returns the verified next frontier and its ``first_diff`` (empty
        after the final round, whose rows are emitted segment by segment).
        """
        n, k = frontier.shape
        rooted = unit == 0
        diff = np.concatenate((diff, [0, 0]))
        # Nodes above the frontier that are ancestors of some row >= a:
        # the k - 1 on row a's path, and those the later rows open.
        opened = np.append(k - 1 - diff[1:n], 0)
        above = np.append((k - 1) + np.cumsum(opened[::-1])[::-1], 0)
        state = _Round(
            frontier, diff, above, rooted, final, self._prefix_len[unit],
            reach=k,
        )
        state.alive = int(state.standing(np.int64(0)))
        pivot_column = self._info[1 if rooted else k].pivot_position
        c0 = 0
        while c0 < n:
            pivots = frontier[c0:c0 + kernel.ROWS_PER_BLOCK, pivot_column]
            if not self._known[pivots[0]]:
                # Fetched at round start, but a starved cache has evicted
                # it since: fetch again on demand (an extra RPC, as a real
                # cache-starved machine would pay).
                self._fetch_vertices(pivots[:1])
            # The known mask is constant up to the next pivot miss.
            c1 = c0 + _first_true(~self._known[pivots])
            self._chunk(state, c0, c1)
            c0 = c1
        empty = np.empty((0, state.width), dtype=np.int64)
        return state.next or (empty, empty[:, 0])

    # ------------------------------------------------------------------
    # One unit position (Algorithm 2), for every row of a block
    # ------------------------------------------------------------------
    def _expand(
        self,
        block: np.ndarray,
        pending: np.ndarray | None,
        position: int,
        valid: np.ndarray | None,
    ) -> _Level:
        info = self._info[position]
        graph, known, degrees = self._graph, self._known, self._degrees
        pivots = block[:, info.pivot_position]
        counts = degrees[pivots] if valid is None else degrees[pivots] * valid
        row, cand = kernel.neighbors(graph, pivots, counts)
        refine = info.refine_positions
        others = block[:, refine]
        decided = known[others]
        row, cand, pre_ops = kernel.member(graph, others, row, cand, decided)
        deferred = None if decided.all() else ~decided
        row, cand = kernel.bounded(
            block, row, cand, info.lower_positions, info.upper_positions
        )
        pre_ops += np.bincount(row, minlength=len(block))
        # Injectivity, and the degree filter where the degree is known.
        known_cand = known[cand]
        keep = kernel.injective(block, row, cand)
        keep &= ~(known_cand & (degrees[cand] < info.min_degree))
        row, cand, known_cand = row[keep], cand[keep], known_cand[keep]
        passed = checks = fresh = None
        if deferred is not None and deferred[row].any():
            # A known candidate settles its deferred edges itself, one
            # check each up to the first that fails; an unknown one
            # carries them all as undetermined edges.
            waits = deferred[row]
            other = others[row]
            passed = np.ones(len(cand), dtype=bool)
            checks = np.zeros(len(cand), dtype=np.int64)
            for j in range(len(refine)):
                active = np.flatnonzero(passed & waits[:, j] & known_cand)
                checks[active] += 1
                ok = graph.has_edges(cand[active], other[active, j])
                passed[active[~ok]] = False
            undetermined = waits & ~known_cand[:, None]
            if undetermined.any():
                mate = cand[:, None]
                keys = (
                    np.minimum(mate, other) * graph.num_vertices
                    + np.maximum(mate, other)
                )
                fresh = np.where(undetermined, keys, -1)[passed]
            cand = cand[passed]
        made = row if passed is None else row[passed]
        if pending is None or fresh is None:
            pending = fresh if pending is None else pending[made]
        else:
            pending = np.concatenate((pending[made], fresh), axis=1)
        return _Level(
            row, passed, checks, pre_ops, made,
            kernel.append(block, made, cand), pending,
        )

    # ------------------------------------------------------------------
    # One chunk of frontier rows: expand, then account
    # ------------------------------------------------------------------
    def _chunk(self, state: _Round, c0: int, c1: int) -> None:
        rows = c1 - c0
        k = state.frontier.shape[1]
        block, pending = state.frontier[c0:c1], None
        created = np.zeros(rows, dtype=np.int64)
        if state.rooted:  # start candidates become roots if their degree allows
            created += self._degrees[block[:, 0]] >= self._info[0].min_degree
        levels: list[_Level] = []
        for position in range(1 if state.rooted else k, state.width):
            level = self._expand(
                block, pending, position,
                created if state.rooted and not levels else None,
            )
            levels.append(level)
            block, pending = level.block, level.pending
        # The frontier row of every node, and what each row keeps alive:
        # its nodes of the trie the leaves are.
        roots = [levels[0].made]
        for level in levels[1:]:
            roots.append(roots[-1][level.made])
        leaves, leaf_rows, leaf_diff = block, roots[-1] + c0, kernel.first_diff(block)
        left = np.bincount(
            roots[-1], state.width - np.maximum(leaf_diff, k), rows
        ).astype(np.int64)
        has = left > 0
        childless = ~has & (created > 0) if state.rooted else ~has

        # What the trie gains or loses per row.  A row with leaves stays,
        # with its live subtree.  A childless row goes and takes along the
        # ancestors whose run it ends: all of those if no row of its
        # segment has kept leaves yet (`lone`), else only the ones it does
        # not share with the last row that did (`after`; `reach` is the
        # first column in which a row differs from that one).
        diff = state.diff
        ends = np.maximum(k - 1 - diff[c0 + 1:c1 + 1], 0)
        since = _offsets(has)
        reach = np.minimum.accumulate(diff[c0:c1] - since * k) + since * k
        reach[since == 0] = np.minimum(reach[since == 0], state.reach)
        lone = -1 - ends
        after = -1 - np.maximum(np.minimum(ends, k - 1 - reach), 0)
        gain = has * (created + left)
        prior = np.maximum.accumulate(np.where(has, np.arange(c0, c1), state.prior))
        prior = np.concatenate(([state.prior], prior[:-1]))

        begin, before = state.begin, state.alive
        if state.final:
            closes = self._boundaries(
                state, c0, c1, has,
                gain + childless * (created + lone),
                gain + childless * (created + after),
            )
        elif c1 == len(state.frontier):
            closes = np.array([rows - 1])   # a round is one segment
        else:
            closes = np.zeros(0, dtype=np.int64)
        segment = np.searchsorted(closes, np.arange(rows))
        begins = np.concatenate(([begin], closes + (c0 + 1)))
        cascade = np.where(prior >= begins[segment], after, lone)
        net = gain + childless * (created + cascade)

        # Leaves of the segments that close here: verify them, emit or
        # keep the survivors.
        rpcs: list[tuple[int, list[tuple[int, int]]]] = []
        if len(closes):
            cut = int(np.searchsorted(leaf_rows, c0 + closes[-1], side="right"))
            pieces = state.open + [
                (leaves[:cut], leaf_rows[:cut], None if pending is None else pending[:cut])
            ]
            diffs = state.diffs + [leaf_diff[:cut]]
            state.open, state.diffs = [], []
            leaves, leaf_rows, leaf_diff = leaves[cut:], leaf_rows[cut:], leaf_diff[cut:]
            pending = None if pending is None else pending[cut:]
            done = _join([p[0] for p in pieces])
            done_rows = _join([p[1] for p in pieces])
            done_segment = segment[np.maximum(done_rows - c0, 0)]
            failed, missed = self._verify(pieces, done_segment, rpcs)
            if state.final:  # counted; gathered only to be collected
                self._emit_count += len(done) - int(failed.sum())
            if self._collect or not state.final:
                survivors = done[~failed] if missed else done
                (self._emitted if state.final else state.kept).append(survivors)
        if len(leaves):
            state.open.append((leaves, leaf_rows, pending))
            state.diffs.append(leaf_diff)
        if not state.final and len(closes):
            # The round ends: what stays is the trie its verified rows are.
            frontier = _join(state.kept)
            state.next = frontier, kernel.first_diff(frontier)
            state.alive = frontier.size - int(state.next[1].sum())
        elif not state.final:
            state.alive += int(net.sum())

        # Conservation gives the chunk's two sums; `climb` bounds, per row,
        # the live nodes over `before` while the row is expanded.
        made = int(created.sum()) + sum(map(len, roots))
        delta = state.alive - before
        held = self._trie_charged // NODE_BYTES
        climb = _offsets(net) + created + np.bincount(_join(roots), minlength=rows)
        if _within_step(
            max(before - (made - delta), 0) - held, before + int(climb.max()) - held
        ):
            self._trie_delta += delta
            for _, requests in rpcs:
                self._send_verify(requests)
        else:
            # The hysteresis can be reached: the order of entries decides.
            assert before == self._trie_delta + held
            live, span = _subtrees([level.made for level in levels])
            total = created + childless + np.bincount(
                roots[0], weights=span[0], minlength=rows
            ).astype(np.int64)
            # Slots: every row's entries, then the releases that follow it.
            removal = np.zeros(rows, dtype=np.int64)
            if len(closes):
                per_segment = np.bincount(done_segment, minlength=len(closes))
                removal[closes] = per_segment if state.final else np.bincount(
                    done_segment[failed], minlength=len(closes)
                )
            extent = total + removal
            base = _offsets(extent)
            entries = np.zeros(int(extent.sum()), dtype=np.int64)
            entries[base[created > 0]] = 1
            gone = np.flatnonzero(childless)
            entries[base[gone] + total[gone] - 1] = cascade[gone]
            slots, times = _place(entries, levels, live, span, base + created)
            if len(closes) and len(done) and (state.final or missed):
                # Within a segment the failed leaves go first, in `verifyE`
                # order; in the final round the others follow, in row order.
                rank = self._release_rank(missed, len(done))
                turn = np.empty(len(done), dtype=np.int64)
                turn[np.lexsort((rank, done_segment))] = np.arange(len(done))
                when = ((base + total)[closes] - _offsets(per_segment))[done_segment] + turn
                if not state.final:
                    when = np.where(failed, when, _NEVER)
                # The leaves' first_diff, a copy `_release` may write: each
                # piece's own, and at a seam the two rows that meet there.
                diff = np.concatenate(diffs)
                if len(diffs) > 1:
                    seams = np.cumsum([len(d) for d in diffs[:-1]])
                    seams = seams[seams < len(done)]
                    diff[seams] = (done[seams] != done[seams - 1]).argmax(axis=1)
                self._release(
                    state, entries, done, done_rows, done_segment, when, closes + c0,
                    diff, per_segment,
                )
            assert entries.sum() == delta and np.abs(entries).sum() == 2 * made - delta
            # Feed the timeline; a `verifyE` goes out where its segment closes.
            fed = 0
            try:
                for s, requests in rpcs:
                    stop = int(base[closes[s]] + total[closes[s]])
                    self._feed(entries[fed:stop])
                    fed = stop
                    self._send_verify(requests)
                self._feed(entries[fed:])
            except SimulatedMemoryError:
                # What the recursion has charged when entry `at` raises: the
                # entries so far, a start candidate when its turn comes, a
                # call's intersections and bounds when its node exists, a
                # candidate's deferred checks before its node does.
                at = fed + self._oom_entry
                self._ops += int(np.abs(entries[:at + 1]).sum())
                if state.rooted:
                    self._ops += int((base <= at).sum())
                begun = [base + created <= at] + [slot < at for slot in slots]
                for level, call, when in zip(levels, begun, times):
                    self._ops += int(level.pre_ops[call].sum())
                    if level.checks is not None:
                        self._ops += int(level.checks[when <= at].sum())
                raise
        self._ops += 2 * made - delta + rows * state.rooted
        for level in levels:
            self._ops += int(level.pre_ops.sum())
            if level.checks is not None:
                self._ops += int(level.checks.sum())

        # What the next chunk needs to know about this one.
        if has.any():
            state.prior = int(prior[-1]) if not has[-1] else c1 - 1
        state.reach = k if has[-1] else int(reach[-1])

    def _boundaries(
        self,
        state: _Round,
        c0: int,
        c1: int,
        has: np.ndarray,
        net_lone: np.ndarray,
        net_after: np.ndarray,
    ) -> np.ndarray:
        """Chunk rows after which the final round emits (Algorithm 1's
        memory control): the trie has outgrown ``flush_threshold``."""
        rows = c1 - c0
        limit = self._flush_threshold
        standing = state.standing(np.arange(c0, c1 + 1))
        # Rows that are over the limit as a segment of their own.
        alone = (standing[:rows] + net_lone) * NODE_BYTES > limit
        joined = np.flatnonzero(~alone)
        with_leaves = np.flatnonzero(has)
        closes: list[np.ndarray] = []
        at, alive = 0, state.alive
        fresh = state.prior < state.begin
        while at < rows:
            if state.begin == c0 + at and alone[at]:
                stop = int(joined[np.searchsorted(joined, at)]) if len(joined) and joined[-1] > at else rows
                closes.append(np.arange(at, stop))
            else:
                net = net_after[at:]
                if fresh:
                    turn = np.searchsorted(with_leaves, at)
                    turn = int(with_leaves[turn]) if turn < len(with_leaves) else rows
                    net = np.concatenate((net_lone[at:turn], net_after[turn:]))
                    fresh = turn == rows
                level = alive + np.cumsum(net)
                stop = at + _first_true(level * NODE_BYTES > limit)
                if stop == rows:
                    state.alive = int(level[-1])
                    break
                closes.append(np.arange(stop, stop + 1))
                stop += 1
            at, alive, fresh = stop, int(standing[stop]), True
            state.begin, state.alive = c0 + at, alive
        if c1 == len(state.frontier) and state.begin < c1:
            closes.append(np.arange(rows - 1, rows))  # the round's last emit
            state.alive = 0                           # leaves nothing behind
        return np.concatenate(closes) if closes else np.zeros(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # verifyE: the edge verification index of Def. 5, per emit segment
    # ------------------------------------------------------------------
    def _verify(
        self,
        pieces: list[tuple],
        segment: np.ndarray,
        rpcs: list[tuple[int, list[tuple[int, int]]]],
    ) -> tuple[np.ndarray, list[tuple]]:
        """Settle the undetermined edges of the closing segments.

        Appends ``(s, [(owner, edges), ...])`` — one request per machine —
        for every segment ``s`` that has such edges, and returns the mask
        of the leaves that depend on an edge that does not exist (Prop. 2)
        with, per segment that has one, what :meth:`_release_rank` needs.
        """
        failed = np.zeros(len(segment), dtype=bool)
        missed: list[tuple] = []
        holders, keys, offset = [], [], 0
        for leaves, _, pending in pieces:
            if pending is not None:
                leaf, column = np.nonzero(pending >= 0)
                holders.append(leaf + offset)
                keys.append(pending[leaf, column])
            offset += len(leaves)
        if not sum(map(len, holders)):
            return failed, missed
        holders, keys = _join(holders), _join(keys)
        graph = self._graph
        where = segment[holders]
        bounds = [0, *(np.flatnonzero(where[1:] != where[:-1]) + 1).tolist(), len(where)]
        for lo, hi in zip(bounds, bounds[1:]):
            edges = np.unique(keys[lo:hi])
            small, big = np.divmod(edges, graph.num_vertices)
            asked = np.bincount(self._owner[small])
            rpcs.append((
                int(where[lo]),
                [(m, int(asked[m])) for m in np.flatnonzero(asked).tolist()],
            ))
            missing = ~graph.has_edges(small, big)
            if missing.any():
                lost = missing[np.searchsorted(edges, keys[lo:hi])]
                failed[holders[lo:hi][lost]] = True
                missed.append((holders[lo:hi], keys[lo:hi], missing))
        return failed, missed

    def _release_rank(self, missed: list[tuple], leaves: int) -> np.ndarray:
        """Per leaf, what its segment's failed leaves are released by, rows
        breaking ties: (owner, first registration) of the first failed edge
        it depends on, as one number — ``_NEVER`` if it has none."""
        worst = np.full(leaves, _NEVER)
        for holder, keys, missing in missed:
            edges, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            owner = self._owner[edges // self._graph.num_vertices]
            place = np.full(len(edges), _NEVER)
            place[np.lexsort((first, owner))] = np.arange(len(edges))
            place[~missing] = _NEVER
            # A leaf dies with the first failed edge it registered under.
            starts = np.flatnonzero(np.diff(holder, prepend=-1))
            worst[holder[starts]] = np.minimum.reduceat(place[inverse], starts)
        return worst

    def _send_verify(self, requests: list[tuple[int, int]]) -> None:
        """One `verifyE` per remote machine (owner of the smaller endpoint)."""
        model = self._cluster.cost_model
        for owner, edges in requests:
            self._cluster.network.rpc(
                requester=self._machine,
                responder=self._cluster.machine(owner),
                request_bytes=edges * 2 * model.bytes_per_vertex_id,
                response_bytes=edges,
                service_ops=2.0 * edges,
            )

    def _release(
        self,
        state: _Round,
        entries: np.ndarray,
        leaves: np.ndarray,
        leaf_rows: np.ndarray,
        segment: np.ndarray,
        when: np.ndarray,
        closes: np.ndarray,
        diff: np.ndarray,
        per_segment: np.ndarray,
    ) -> None:
        """Write the release entries of the closing segments' leaves.

        ``when`` is each leaf's slot (``_NEVER``: it survives), ``diff`` the
        leaves' ``first_diff`` (overwritten) and ``per_segment`` how many
        leaves each closing segment holds.  Releasing
        a leaf cascades to every ancestor left without children, so each
        ancestor goes with the last of its leaves to go: per level, the
        maximum slot over the run of leaves below it — unless a later
        frontier row still hangs off it.
        """
        gone = when != _NEVER
        entries[when[gone]] = -1
        k = state.frontier.shape[1]
        present = np.flatnonzero(per_segment)
        starts = _offsets(per_segment)[present]
        diff[starts] = 0
        # Levels above the frontier outlive a segment while rows after it
        # share them: up to the first column in which the rows between the
        # segment's last leaf and the next segment's first row differ.
        ends = starts + per_segment[present] - 1
        bounds = np.column_stack((leaf_rows[ends] + 1, closes[present] + 2))
        shared = np.zeros(len(closes), dtype=np.int64)
        shared[present] = np.minimum.reduceat(state.diff, bounds.ravel())[::2]
        for level in range(leaves.shape[1] - 2, -1, -1):
            runs = np.flatnonzero(diff <= level)
            when = np.maximum.reduceat(when, runs)
            diff, segment = diff[runs], segment[runs]
            going = when != _NEVER
            if level < k - 1:
                last = np.append(segment[1:] != segment[:-1], True)
                going &= ~(last & (shared[segment] > level))
            entries[when[going]] -= 1
