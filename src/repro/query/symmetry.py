"""Automorphism-based symmetry breaking (paper Sec. 2, following
Grochow & Kellis, RECOMB 2007).

Duplicate embeddings (automorphic images of the same subgraph instance) are
eliminated by imposing a *preserved order*: a set of constraints
``f(u) < f(u')`` over data-vertex ids.  The constraints are derived by
iterative orbit stabilisation, which guarantees each orbit of embeddings
under ``Aut(P)`` retains exactly one representative.
"""

from __future__ import annotations

from repro.query.pattern import Pattern


def automorphisms(pattern: Pattern) -> list[tuple[int, ...]]:
    """All automorphisms of ``pattern`` as tuples ``sigma[u] = image``."""
    n = pattern.num_vertices
    degrees = [pattern.degree(u) for u in range(n)]
    result: list[tuple[int, ...]] = []
    mapping = [-1] * n
    used = [False] * n

    def backtrack(u: int) -> None:
        if u == n:
            result.append(tuple(mapping))
            return
        for v in range(n):
            if used[v] or degrees[v] != degrees[u]:
                continue
            ok = True
            for w in pattern.adj(u):
                if w < u and not pattern.has_edge(v, mapping[w]):
                    ok = False
                    break
            if not ok:
                continue
            # Non-edges must map to non-edges (bijectivity on same graph).
            for w in range(u):
                if not pattern.has_edge(u, w) and pattern.has_edge(v, mapping[w]):
                    ok = False
                    break
            if not ok:
                continue
            mapping[u] = v
            used[v] = True
            backtrack(u + 1)
            mapping[u] = -1
            used[v] = False

    backtrack(0)
    return result


def orbits(pattern: Pattern) -> list[frozenset[int]]:
    """Vertex orbits under the full automorphism group."""
    autos = automorphisms(pattern)
    seen: set[int] = set()
    result: list[frozenset[int]] = []
    for u in pattern.vertices():
        if u in seen:
            continue
        orbit = frozenset(sigma[u] for sigma in autos)
        seen |= orbit
        result.append(orbit)
    return result


def symmetry_breaking_constraints(pattern: Pattern) -> list[tuple[int, int]]:
    """Pairwise constraints ``(u, u')`` meaning ``f(u) < f(u')``.

    Property (verified by tests): the number of embeddings satisfying the
    constraints times ``|Aut(P)|`` equals the unconstrained embedding count.
    """
    group = automorphisms(pattern)
    constraints: list[tuple[int, int]] = []
    for u in pattern.vertices():
        orbit = {sigma[u] for sigma in group}
        constraints.extend((u, v) for v in sorted(orbit) if v != u)
        group = [sigma for sigma in group if sigma[u] == u]
        if len(group) == 1:
            break
    return constraints


def satisfies_constraints(
    embedding: tuple[int, ...], constraints: list[tuple[int, int]]
) -> bool:
    """Check ``f(u) < f(u')`` for every constraint pair."""
    return all(embedding[u] < embedding[v] for u, v in constraints)


def bound_columns(
    constraints: list[tuple[int, int]], order: list[int]
) -> tuple[list[list[int]], list[list[int]]]:
    """Constraints as ``(lower, upper)`` bounds per position of a matching order:
    the earlier columns whose images a candidate for position ``q`` must exceed
    (``lower[q]``) and stay below (``upper[q]``) — ``block.bounded``'s arguments.
    A constraint binds where the later of its two vertices is matched."""
    position = {u: q for q, u in enumerate(order)}
    lower: list[list[int]] = [[] for _ in order]
    upper: list[list[int]] = [[] for _ in order]
    for u, v in constraints:  # f(u) < f(v)
        if position[u] < position[v]:
            lower[position[v]].append(position[u])
        else:
            upper[position[u]].append(position[v])
    return lower, upper
