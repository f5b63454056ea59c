"""Query pattern: a small, connected, unlabeled, undirected graph.

Patterns are tiny (the paper's largest query has 6 vertices, plus the
running example with 10), so this class favours clarity over raw speed:
adjacency is a tuple of frozensets.
"""

from __future__ import annotations

import functools
from collections import deque
from typing import Iterable, Iterator


class Pattern:
    """Immutable query graph with vertices ``0..k-1``."""

    __slots__ = ("_adjacency", "_edges", "_name")

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[tuple[int, int]],
        name: str | None = None,
    ):
        adjacency: list[set[int]] = [set() for _ in range(num_vertices)]
        edge_set: set[tuple[int, int]] = set()
        for u, v in edges:
            if u == v:
                raise ValueError("self loops are not allowed in patterns")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise ValueError("pattern edge endpoint out of range")
            adjacency[u].add(v)
            adjacency[v].add(u)
            edge_set.add((min(u, v), max(u, v)))
        self._adjacency: tuple[frozenset[int], ...] = tuple(
            frozenset(s) for s in adjacency
        )
        self._edges: tuple[tuple[int, int], ...] = tuple(sorted(edge_set))
        self._name = name

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """Human-readable name (falls back to a structural tag)."""
        if self._name is not None:
            return self._name
        return f"pattern<{self.num_vertices}v,{self.num_edges}e>"

    @property
    def num_vertices(self) -> int:
        """Number of query vertices."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of query edges."""
        return len(self._edges)

    def vertices(self) -> range:
        """Iterate vertex ids."""
        return range(self.num_vertices)

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate each edge once as ``(u, v)`` with ``u < v``."""
        return iter(self._edges)

    def adj(self, u: int) -> frozenset[int]:
        """Neighbour set of ``u``."""
        return self._adjacency[u]

    def degree(self, u: int) -> int:
        """Degree of ``u``."""
        return len(self._adjacency[u])

    def has_edge(self, u: int, v: int) -> bool:
        """True iff the edge exists."""
        return v in self._adjacency[u]

    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Connectivity check (patterns are required to be connected)."""
        if self.num_vertices == 0:
            return True
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for w in self._adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(seen) == self.num_vertices

    def distances_from(self, u: int) -> list[int]:
        """BFS distances from ``u`` (-1 for unreachable)."""
        dist = [-1] * self.num_vertices
        dist[u] = 0
        queue = deque([u])
        while queue:
            v = queue.popleft()
            for w in self._adjacency[v]:
                if dist[w] == -1:
                    dist[w] = dist[v] + 1
                    queue.append(w)
        return dist

    def span(self, u: int) -> int:
        """Paper Def. 2: the eccentricity of ``u`` within the pattern."""
        return max(self.distances_from(u))

    def diameter(self) -> int:
        """Longest shortest path between any two pattern vertices."""
        return max(self.span(u) for u in self.vertices())

    def max_clique_size(self) -> int:
        """Size of the largest clique (exhaustive; patterns are tiny)."""
        best = 1 if self.num_vertices else 0

        def grow(clique: list[int], candidates: set[int]) -> None:
            nonlocal best
            best = max(best, len(clique))
            for v in sorted(candidates):
                grow(clique + [v], candidates & self._adjacency[v])

        grow([], set(self.vertices()))
        return best

    def relabel(self, mapping: dict[int, int]) -> "Pattern":
        """Return an isomorphic pattern with vertices renamed by ``mapping``."""
        edges = [(mapping[u], mapping[v]) for u, v in self._edges]
        return Pattern(self.num_vertices, edges, name=self._name)

    def copy_with_name(self, name: str | None) -> "Pattern":
        """The same structure under a different (or cleared) name.

        Equality and hashing are structural, so the copy compares equal to
        the original — the name is purely cosmetic.
        """
        return Pattern(self.num_vertices, self._edges, name=name)

    # -- canonicalization ----------------------------------------------
    def automorphism_group(self) -> list[tuple[int, ...]]:
        """All automorphisms as tuples ``sigma[u] = image``.

        Delegates to :func:`repro.query.symmetry.automorphisms`; exposed
        here so DSL-built patterns can be deduplicated and symmetry-broken
        without reaching into the symmetry module.
        """
        from repro.query.symmetry import automorphisms

        return automorphisms(self)

    def canonical_form(self) -> "Pattern":
        """An isomorphic relabeling that is identical for isomorphic inputs.

        Two patterns are isomorphic iff their canonical forms have equal
        edge sets (i.e. compare ``==``).  The canonical vertex order sorts
        by a degree invariant first, then minimises the adjacency encoding
        by backtracking — exact, and fast for query-sized graphs.
        """
        perm = _canonical_permutation(self)
        return self.relabel(dict(enumerate(perm)))

    def canonical_key(self) -> tuple:
        """Hashable isomorphism-class key (equal iff patterns isomorphic)."""
        form = self.canonical_form()
        return (form.num_vertices, form._edges)

    def isomorphic_to(self, other: "Pattern") -> bool:
        """True iff ``self`` and ``other`` are isomorphic."""
        return self.canonical_key() == other.canonical_key()

    def to_dsl(self) -> str:
        """The pattern in the edge-list DSL (``repro.pattern`` inverts)."""
        from repro.query.dsl import format_pattern

        return format_pattern(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Pattern):
            return NotImplemented
        return (
            self.num_vertices == other.num_vertices
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((self.num_vertices, self._edges))

    def __str__(self) -> str:
        return self.to_dsl()


@functools.lru_cache(maxsize=1024)
def _canonical_permutation(pattern: "Pattern") -> tuple[int, ...]:
    """``perm[u]`` = canonical id of vertex ``u`` (memoised: patterns hash by structure).

    Canonical position ``i`` must host a vertex of the ``i``-th smallest
    invariant class (degree, then sorted neighbour degrees); within that
    constraint the sequence of lower-adjacency bitmasks (``row[i]`` has bit
    ``j`` set iff canonical vertices ``i`` and ``j < i`` are adjacent) is
    minimised lexicographically by backtracking with prefix pruning.
    """
    n = pattern.num_vertices
    if n == 0:
        return ()
    invariant = {
        u: (
            pattern.degree(u),
            tuple(sorted(pattern.degree(w) for w in pattern.adj(u))),
        )
        for u in pattern.vertices()
    }
    # The invariant each canonical position must carry, smallest first.
    slots = sorted(invariant[u] for u in pattern.vertices())
    best_rows: list[int] | None = None
    best_placement: list[int] = []
    placement: list[int] = []
    rows: list[int] = []
    used = [False] * n

    def place(i: int) -> None:
        nonlocal best_rows, best_placement
        if i == n:
            if best_rows is None or rows < best_rows:
                best_rows = list(rows)
                best_placement = list(placement)
            return
        for v in range(n):
            if used[v] or invariant[v] != slots[i]:
                continue
            row = 0
            for j, w in enumerate(placement):
                if pattern.has_edge(v, w):
                    row |= 1 << j
            if best_rows is not None:
                prefix = best_rows[: i + 1]
                if rows + [row] > prefix:
                    continue
            used[v] = True
            placement.append(v)
            rows.append(row)
            place(i + 1)
            rows.pop()
            placement.pop()
            used[v] = False

    place(0)
    perm = [0] * n
    for position, vertex in enumerate(best_placement):
        perm[vertex] = position
    return tuple(perm)
