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
:func:`member` (one :meth:`Graph.has_edges` per further anchor column),
:func:`bounded` (symmetry-breaking bounds) and the :func:`injective` mask,
and turned into the ``(m, k + 1)`` block by :func:`append`.

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
to full depth before the next, so the transient pair arrays stay bounded
(depth x ``ROWS_PER_BLOCK`` x max degree) and order is kept.
"""

from __future__ import annotations

import numpy as np

from repro.graph.graph import Graph, gather_ranges

#: Rows expanded per step by the backtracking kernel, R-Meef, the join
#: baselines' unit instances and Crystal's buds.
ROWS_PER_BLOCK = 2048


def neighbors(
    graph: Graph, anchors: np.ndarray, counts: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """``(row, cand)``: each row paired with its anchor's neighbours, ascending.

    ``counts`` caps the neighbours taken per row (default: the degree).
    """
    starts = graph.indptr[anchors]
    if counts is None:
        counts = graph.indptr[anchors + 1] - starts
    row, flat = gather_ranges(starts, counts)
    return row, graph.indices[flat]


def smallest_first(anchors: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """``anchors`` (``(n, a)``) with each row's columns by ascending ``sizes``,
    ties in column order: the order a matcher intersects its lists in."""
    if anchors.shape[1] < 2:
        return anchors
    return np.take_along_axis(anchors, np.argsort(sizes, axis=1, kind="stable"), axis=1)


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
    rows = len(others)
    cost = np.zeros(rows, dtype=np.int64)
    for j in range(others.shape[1]):
        if decided is not None and not decided[:, j].any():
            continue
        column = others[:, j]
        charge = np.minimum(
            np.bincount(row, minlength=rows),
            graph.indptr[column + 1] - graph.indptr[column],
        )
        keep = graph.has_edges(column[row], cand)
        if decided is not None:
            charge *= decided[:, j]
            keep |= ~decided[row, j]
        cost += charge
        row, cand = row[keep], cand[keep]
    return row, cand, cost


def bounded(
    block: np.ndarray,
    row: np.ndarray,
    cand: np.ndarray,
    lower: list[int] | np.ndarray,
    upper: list[int] | np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Pairs above every ``lower`` column and below every ``upper`` column
    of their row (the symmetry-breaking bounds of one position): each a list
    of columns, or — rows of several matching orders in one block — an
    ``(n, k)`` mask of the columns that bind each row."""
    if not len(lower) and not len(upper):
        return row, cand

    def extreme(columns, reduce, free):  # per pair, over what binds its row
        if isinstance(columns, list):
            return reduce(block[:, columns], axis=1)[row]
        return reduce(np.where(columns, block, free), axis=1, initial=free)[row]

    keep = np.ones(len(cand), dtype=bool)
    if len(lower):
        keep &= cand > extreme(lower, np.ndarray.max, -1)
    if len(upper):
        keep &= cand < extreme(upper, np.ndarray.min, np.iinfo(np.int64).max)
    return row[keep], cand[keep]


def injective(block: np.ndarray, row: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """Mask of the pairs whose candidate is not already in their row."""
    return (block[row] != cand[:, None]).all(axis=1)


def append(block: np.ndarray, row: np.ndarray, cand: np.ndarray) -> np.ndarray:
    """The next block: row ``row[i]`` extended by ``cand[i]``."""
    return np.concatenate((block[row], cand[:, None]), axis=1)


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
