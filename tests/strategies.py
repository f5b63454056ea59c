"""Pattern generators and a catalogue of classic motifs (test
infrastructure: imported as ``from strategies import ...``).

Random connected patterns power the property-based tests (and fuzzing
engines against the oracle); the parametric families (cycles, wheels,
books, complete bipartite) extend the fixed paper query set when a test
wants to stress specific plan shapes.
"""

from __future__ import annotations

import random

from repro.query.pattern import Pattern


def random_connected_pattern(
    num_vertices: int,
    extra_edges: int = 0,
    seed: int = 0,
) -> Pattern:
    """A uniformly-random tree plus ``extra_edges`` random chords.

    Connectivity is guaranteed by construction (random recursive tree);
    chords are sampled without replacement from the non-edges.
    """
    if num_vertices < 2:
        raise ValueError("patterns need at least two vertices")
    rng = random.Random(seed)
    edges = {
        (rng.randrange(v), v) for v in range(1, num_vertices)
    }
    non_edges = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
        if (u, v) not in edges
    ]
    rng.shuffle(non_edges)
    edges.update(non_edges[: max(0, extra_edges)])
    return Pattern(
        num_vertices, sorted(edges), name=f"random{num_vertices}s{seed}"
    )


def cycle(n: int) -> Pattern:
    """The n-cycle C_n."""
    if n < 3:
        raise ValueError("cycles need at least three vertices")
    return Pattern(
        n, [(i, (i + 1) % n) for i in range(n)], name=f"cycle{n}"
    )


def wheel(spokes: int) -> Pattern:
    """A hub connected to every vertex of a ``spokes``-cycle."""
    if spokes < 3:
        raise ValueError("wheels need at least three spokes")
    rim = [(1 + i, 1 + (i + 1) % spokes) for i in range(spokes)]
    hub = [(0, 1 + i) for i in range(spokes)]
    return Pattern(spokes + 1, rim + hub, name=f"wheel{spokes}")


def book(pages: int) -> Pattern:
    """``pages`` triangles sharing one common edge (the book graph)."""
    if pages < 1:
        raise ValueError("books need at least one page")
    edges = [(0, 1)]
    for p in range(pages):
        v = 2 + p
        edges.extend([(0, v), (1, v)])
    return Pattern(pages + 2, edges, name=f"book{pages}")


def complete_bipartite(a: int, b: int) -> Pattern:
    """K_{a,b}."""
    if a < 1 or b < 1:
        raise ValueError("both sides need at least one vertex")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return Pattern(a + b, edges, name=f"k{a}{b}")
