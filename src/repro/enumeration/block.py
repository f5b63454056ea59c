"""One block step of expand -> verify -> filter (paper Sec. 3.2, Alg. 2).

Every engine extends many partial embeddings by one query vertex with the
functions below: the backtracking kernel (SM-E, the oracle, streaming, the
labeled matcher, Crystal's general core path), R-Meef's rounds, BigJoin's
extension, ``join_common``'s unit instances (TwinTwig, SEED), PSgL's
supersteps, Multiway's reducers, Crystal's buds, and the partitioner's
border scan.  They are pure functions of arrays and charge nothing: each
caller keeps its own accounting (``EnumerationStats``, ``rmeef_ops``,
``intersect_ops``, ``unit_ops``, ``verify_ops``, ``reduce_ops``,
``crystal_ops``).

**Block layout.**  Partial embeddings are the rows of an ``(n, k)`` int64
array, columns in matching order.  A step works on ``(row, cand)`` pairs —
candidate ``cand[i]`` proposed for row ``row[i]`` — produced by
:func:`neighbors` from the CSR range of one anchor column, narrowed by
:func:`member` (one binary search in :meth:`Graph.edge_keys` per further
anchor column), :func:`bounded` (symmetry-breaking bounds) and the
:func:`injective` mask, and turned into the ``(m, k + 1)`` block by
:func:`append`.

**Dispatch.**  On blocks of tens of rows a step costs numpy's per-call
overhead, not work, so each helper pays it once per array operation:
ndarray methods rather than the ``np.*`` wrappers, degrees and edge keys
from the arrays :class:`Graph` caches, and no re-validation — every id a
step sees came out of the CSR or out of a seed block already checked to be
in range, so membership is ``keys[keys.searchsorted(k)] == k`` on the
sentinel-terminated key array, with no clamp and no range check
(:meth:`Graph.has_edges` keeps both, for ids from anywhere).  A pair
filter or block build works one column at a time: :func:`injective` ands
``block[:, j][row] != cand`` per column and :func:`append` writes each
gathered column into one preallocated output, so neither holds a
``(pairs, k)`` temporary beyond the block it returns; :func:`within`'s
column lists take their max / min the same way.  (Its ``(n, k)`` mask
form is over block rows, not pairs.)
:class:`~repro.enumeration.backtracking.MatchingTables` fuses a whole step
into one function on the same terms.

**Ordering guarantee.**  Pairs are generated row by row, candidates
ascending, and every later stage is a stable filter, so a block whose rows
are in depth-first order yields a block in depth-first order: output
equals a recursive backtracker's as an ordered list.  Such a block *is* the
embedding trie of Def. 11 — a level-``j`` node is a maximal run of rows
sharing their first ``j + 1`` columns — and :func:`first_diff` is its whole
structure: a row opens new nodes at every level from there down.

**Counter arithmetic.**  The simulated cost models count what a recursive
matcher does, so :func:`member` returns, per row, what intersecting one
sorted list at a time would have cost: ``min(pairs alive in the row,
degree of the anchor)`` per anchor column — an emptied row adds zero, the
recursion's early exit.  The pairs surviving :func:`bounded` are the
candidates a matcher scans; rows entering a step are its calls.

Blocks above ``ROWS_PER_BLOCK`` rows are expanded in row chunks, each taken
to full depth before the next, and order is kept.  The backtracking kernel
re-chunks at every level, so its transient pair arrays stay bounded
(depth x ``ROWS_PER_BLOCK`` x max degree).  R-Meef chunks frontier rows
only: a unit with several leaf positions expands all of them inside one
chunk, whose pairs are not bounded that way (see "Chunks and known-epochs"
in :mod:`repro.core.rmeef`).
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph, gather_ranges

#: Rows expanded per step by the backtracking kernel, R-Meef, the join
#: baselines' unit instances and Crystal's buds.
ROWS_PER_BLOCK = 2048

_TOP = np.iinfo(np.int64).max


def neighbors(
    graph: Graph, anchors: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, cand)``: each row paired with its anchor's neighbours, ascending.

    ``counts`` caps the neighbours taken per row (default: the degree).
    """
    starts = graph.indptr[anchors]
    if counts is None:
        counts = graph.degrees()[anchors]
    row, flat = gather_ranges(starts, counts)
    return row, graph.indices[flat]


def smallest_first(anchors: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``anchors`` (``(n, a)``) with each row's columns by ascending ``sizes``,
    ties in column order: the order a matcher intersects its lists in."""
    if anchors.shape[1] < 2:
        return anchors
    rows = np.arange(anchors.shape[0])[:, None]
    return anchors[rows, sizes.argsort(axis=1, kind="stable")]


def member(
    graph: Graph,
    others: np.ndarray,
    row: np.ndarray,
    cand: np.ndarray,
    decided: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Keep the pairs adjacent to every vertex of their row of ``others``.

    ``others`` is ``(n, a)``: per row, the further anchors, in the order a
    matcher would intersect them.  Where ``decided`` (same shape; default
    all true) is false the edge cannot be tested here: the pair stays and
    nothing is charged.  Returns ``(row, cand, cost)`` with the per-row
    intersection cost of the module docstring.
    """
    rows = others.shape[0]
    cost = np.zeros(rows, dtype=np.int64)
    degrees, keys, n = graph.degrees(), graph.edge_keys(), graph.num_vertices
    for j in range(others.shape[1]):
        if decided is not None and not decided[:, j].any():
            continue
        column = others[:, j]
        charge = np.minimum(np.bincount(row, minlength=rows), degrees[column])
        wanted = column[row] * n + cand
        keep = keys[keys.searchsorted(wanted)] == wanted
        if decided is not None:
            charge *= decided[:, j]
            keep |= ~decided[row, j]
        cost += charge
        row, cand = row[keep], cand[keep]
    return row, cand, cost


def within(
    block: np.ndarray,
    row: np.ndarray,
    cand: np.ndarray,
    lower: list[int] | np.ndarray | None,
    upper: list[int] | np.ndarray | None,
) -> np.ndarray | None:
    """Mask of the pairs above every ``lower`` column and below every
    ``upper`` column of their row (the symmetry-breaking bounds of one
    position), or ``None`` where nothing binds.  Each side is a list of
    columns, ``None``, or — rows of several matching orders in one block —
    an ``(n, k)`` 0/1 or boolean mask of the columns that bind each row."""
    keep = None
    if lower is not None and len(lower):
        if isinstance(lower, list):
            floor = block[:, lower[0]]
            for j in lower[1:]:
                floor = np.maximum(floor, block[:, j])
            floor = floor + 1
        else:  # one above the largest bound image, 0 where none binds
            floor = ((block + 1) * lower).max(1, initial=0)
        keep = cand >= floor[row]
    if upper is not None and len(upper):
        if isinstance(upper, list):
            ceiling = block[:, upper[0]]
            for j in upper[1:]:
                ceiling = np.minimum(ceiling, block[:, j])
        else:  # the smallest bound image, _TOP where none binds
            ceiling = ((block - _TOP) * upper).min(1, initial=0) + _TOP
        below = cand < ceiling[row]
        keep = below if keep is None else keep & below
    return keep


def bounded(
    block: np.ndarray,
    row: np.ndarray,
    cand: np.ndarray,
    lower: list[int] | np.ndarray,
    upper: list[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The pairs :func:`within` their row's bounds."""
    keep = within(block, row, cand, lower, upper)
    return (row, cand) if keep is None else (row[keep], cand[keep])


def injective(block: np.ndarray, row: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the pairs whose candidate is not already in their row."""
    keep = np.ones(cand.shape, dtype=bool)
    for j in range(block.shape[1]):
        keep &= block[:, j][row] != cand
    return keep


def append(block: np.ndarray, row: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The next block: row ``row[i]`` extended by ``cand[i]``."""
    k = block.shape[1]
    out = np.empty((cand.shape[0], k + 1), dtype=np.result_type(block, cand))
    for j in range(k):
        out[:, j] = block[:, j][row]
    out[:, k] = cand
    return out


def ordered(block: np.ndarray, pairs: list[tuple[int, int]]) -> np.ndarray:
    """Mask of the rows with ``row[i] < row[j]`` for every positional pair
    (symmetry breaking on finished rows)."""
    keep = np.ones(len(block), dtype=bool)
    for i, j in pairs:
        keep &= block[:, i] < block[:, j]
    return keep


def split(block: np.ndarray, dst: np.ndarray, parts: int) -> list[np.ndarray]:
    """``block``'s rows per destination ``dst[i]`` in ``[0, parts)``, each
    part in row order: how every engine routes rows to machines."""
    # A small dtype takes numpy's radix sort.
    order = np.argsort(dst.astype(np.min_scalar_type(parts)), kind="stable")
    bounds = np.searchsorted(dst[order], np.arange(parts + 1))
    routed = np.take(block, order, axis=0)
    return [routed[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def first_diff(block: np.ndarray) -> np.ndarray:
    """Per row, the first column differing from the row before (row 0: 0).

    Rows must be distinct and grouped by prefix (depth-first or sorted).
    """
    diff = np.zeros(len(block), dtype=np.int64)
    if len(block) > 1:
        diff[1:] = (block[1:] != block[:-1]).argmax(axis=1)
    return diff
