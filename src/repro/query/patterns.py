"""Named query patterns.

``q1``-``q8`` reconstruct the paper's Fig. 7 query set from the textual
constraints in Sec. 7 (the figure itself is not part of the provided text):

- q2, q4, q5 contain a triangle on vertices (u0, u1, u2); q1, q3, q6, q7, q8
  are triangle-free ("no cliques with more than two vertices").
- q5 extends q4 with an *end vertex* u5 (degree-1), per Exp-3.
- Queries grow from 4 to 6 vertices ("communication ... beyond control when
  the query vertices reach 6").

``cq1``-``cq4`` reconstruct Fig. 14 (queries "all of which have cliques",
borrowed from the Crystal paper).
"""

from __future__ import annotations

import functools

from repro.query.pattern import Pattern


def _p(name: str, n: int, edges: list[tuple[int, int]]) -> Pattern:
    pattern = Pattern(n, edges, name=name)
    if not pattern.is_connected():
        raise AssertionError(f"{name} must be connected")
    return pattern


def square() -> Pattern:
    """4-cycle."""
    return _p("square", 4, [(0, 1), (1, 2), (2, 3), (3, 0)])


def triangle() -> Pattern:
    """3-clique."""
    return _p("triangle", 3, [(0, 1), (1, 2), (0, 2)])


def tailed_triangle() -> Pattern:
    """Triangle (u0,u1,u2) plus a tail u3 attached to u0."""
    return _p("tailed_triangle", 4, [(0, 1), (1, 2), (0, 2), (0, 3)])


def five_cycle() -> Pattern:
    """5-cycle."""
    return _p("five_cycle", 5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])


def house() -> Pattern:
    """4-cycle (u1,u2,u4,u3) with an apex u0 forming triangle (u0,u1,u2)."""
    return _p(
        "house", 5,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4)],
    )


def house_with_tail() -> Pattern:
    """House plus the pendant *end vertex* u5 hanging off the apex."""
    return _p(
        "house_with_tail", 6,
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4), (0, 5)],
    )


def theta_graph() -> Pattern:
    """Theta graph: poles u0, u2 joined by three paths (lengths 2, 2, 3).

    Triangle-free.  Not isomorphic to the domino (q7): the theta graph has
    no Hamiltonian cycle (longest cycle length 5), while the domino is a
    6-cycle plus a chord.
    """
    return _p(
        "theta_graph", 6,
        [(0, 1), (1, 2), (0, 3), (3, 2), (0, 4), (4, 5), (5, 2)],
    )


def domino() -> Pattern:
    """Two 4-cycles sharing an edge (2x1 grid; triangle-free)."""
    return _p(
        "domino", 6,
        [(0, 1), (1, 2), (3, 4), (4, 5), (0, 3), (1, 4), (2, 5)],
    )


def k33() -> Pattern:
    """Complete bipartite K3,3 (densest triangle-free 6-vertex query)."""
    return _p(
        "k33", 6,
        [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)],
    )


def k4() -> Pattern:
    """4-clique."""
    return _p("k4", 4, [(u, v) for u in range(4) for v in range(u + 1, 4)])


def k4_with_tail() -> Pattern:
    """4-clique plus pendant vertex."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    return _p("k4_with_tail", 5, edges + [(0, 4)])


def bowtie() -> Pattern:
    """Two triangles sharing vertex u0."""
    return _p("bowtie", 5, [(0, 1), (0, 2), (1, 2), (0, 3), (0, 4), (3, 4)])


def double_k4() -> Pattern:
    """Two 4-cliques sharing the edge (u0, u1)."""
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(0, 4), (0, 5), (1, 4), (1, 5), (4, 5)]
    return _p("double_k4", 6, edges)


def path(n: int) -> Pattern:
    """Simple path with ``n`` vertices."""
    return _p(f"path{n}", n, [(i, i + 1) for i in range(n - 1)])


def star(leaves: int) -> Pattern:
    """Star with ``leaves`` leaves around centre 0."""
    return _p(f"star{leaves}", leaves + 1, [(0, i + 1) for i in range(leaves)])


def clique(n: int) -> Pattern:
    """Complete graph K_n."""
    return _p(f"k{n}", n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def running_example() -> Pattern:
    """The 10-vertex pattern of the paper's Fig. 2 running example.

    Edges recovered from Examples 3-4: decomposition units dp0 = (u0; u1, u2,
    u7), dp1 = (u1; u3, u4), dp2 = (u2; u5, u6), dp3 = (u0; u8, u9) plus the
    verification edges (u1,u2), (u3,u4), (u4,u5), (u5,u6), (u8,u9) that the
    MLST of Example 4 erases.
    """
    return _p(
        "running_example", 10,
        [
            (0, 1), (0, 2), (0, 7), (0, 8), (0, 9),
            (1, 3), (1, 4), (2, 5), (2, 6),
            (1, 2), (3, 4), (4, 5), (5, 6), (8, 9),
        ],
    )


PAPER_QUERIES: dict[str, Pattern] = {
    "q1": square(),
    "q2": tailed_triangle(),
    "q3": five_cycle(),
    "q4": house(),
    "q5": house_with_tail(),
    "q6": theta_graph(),
    "q7": domino(),
    "q8": k33(),
}

CLIQUE_QUERIES: dict[str, Pattern] = {
    "cq1": k4(),
    "cq2": k4_with_tail(),
    "cq3": bowtie(),
    "cq4": double_k4(),
}


def paper_query(name: str) -> Pattern:
    """Look up one of q1..q8."""
    return PAPER_QUERIES[name]


def clique_query(name: str) -> Pattern:
    """Look up one of cq1..cq4."""
    return CLIQUE_QUERIES[name]


#: Every accepted name -> pattern, built once (patterns are immutable).
_CATALOGUE: dict[str, Pattern] = {
    **PAPER_QUERIES,
    **CLIQUE_QUERIES,
    "triangle": triangle(),
    "path3": path(3),
    "path4": path(4),
    "star3": star(3),
    "k5": clique(5),
    "running_example": running_example(),
}
# Human aliases: each paper/clique query is also reachable under its
# pattern's structural name ("q4" <-> "house").
for _query in (*PAPER_QUERIES.values(), *CLIQUE_QUERIES.values()):
    _CATALOGUE.setdefault(_query.name, _query)


def named_patterns() -> dict[str, Pattern]:
    """All registered patterns, keyed by every accepted name.

    The paper's opaque ids (``q4``, ``cq1``) and the patterns' human
    names (``house``, ``k4``) are both keys, mapping to the same objects
    — ``named_patterns()["house"] == named_patterns()["q4"]`` — in a dict
    of the caller's own.

    >>> from repro.query.patterns import named_patterns
    >>> named_patterns()["house"] is named_patterns()["q4"]
    True
    """
    return dict(_CATALOGUE)


@functools.cache
def _canonical_names() -> dict[tuple, str]:
    """Canonical key -> preferred registered name."""
    # Reversed insertion order, so earlier (paper-id) keys overwrite
    # later aliases and win the lookup.
    return {q.canonical_key(): name for name, q in reversed(list(_CATALOGUE.items()))}


def find_named(pattern: Pattern) -> str | None:
    """The registered name of the pattern isomorphic to ``pattern``, if any.

    Matching is by canonical form (:meth:`Pattern.canonical_key`), so a
    DSL-built or generated pattern dedupes against the catalogue no matter
    how its vertices are numbered.  Paper ids win over human aliases when
    both name the same structure.

    >>> from repro.query.patterns import find_named, house
    >>> find_named(house().relabel({0: 4, 1: 3, 2: 2, 3: 1, 4: 0}))
    'q4'
    """
    return _canonical_names().get(pattern.canonical_key())
