"""Property tests: cache hits for isomorphic rewrites are always correct.

For random connected patterns (the ``tests/strategies.py``
generators), any isomorphic rewrite of a previously served query must hit
the :class:`repro.service.ResultCache` and come back with *identical*
counts — and, when embeddings are collected, with tuples that are (a)
genuine embeddings of the rewritten pattern and (b) the same set of
matches, up to the pattern's automorphisms, as enumerating the rewrite
directly.
"""

from __future__ import annotations

import random

import pytest

from repro.api import RunConfig
from repro.graph import erdos_renyi
from repro.query.pattern import Pattern
from strategies import random_connected_pattern
from repro.service import QueryScheduler


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(40, 0.15, seed=23)


def random_relabeling(pattern: Pattern, seed: int) -> Pattern:
    perm = list(range(pattern.num_vertices))
    random.Random(seed).shuffle(perm)
    return pattern.relabel(dict(enumerate(perm))).copy_with_name(
        f"{pattern.name}-rewrite"
    )


def orbit_representative(emb: tuple, automorphisms: list) -> tuple:
    """Canonical representative of an embedding's automorphism orbit."""
    return min(
        tuple(emb[sigma[u]] for u in range(len(emb)))
        for sigma in automorphisms
    )


CASES = [
    (3, 0, 0), (3, 1, 1), (4, 0, 2), (4, 2, 3), (5, 1, 4),
    (5, 3, 5), (6, 0, 6), (6, 2, 7),
]


@pytest.mark.parametrize("num_vertices,extra_edges,seed", CASES)
def test_isomorphic_hit_serves_identical_counts_and_valid_embeddings(
    graph, num_vertices, extra_edges, seed
):
    pattern = random_connected_pattern(num_vertices, extra_edges, seed=seed)
    rewrite = random_relabeling(pattern, seed=seed + 100)
    config = RunConfig(machines=2)
    with QueryScheduler(graph, config, threads=2) as scheduler:
        original = scheduler.run(pattern, "single", collect=True)
        ticket = scheduler.submit(rewrite, "single", collect=True)
        served = ticket.result(60)
        # Uncached ground truth for the rewrite itself (cache disabled).
        with QueryScheduler(
            graph, config, threads=1, cache=False
        ) as uncached:
            direct = uncached.run(rewrite, "single", collect=True)

    assert ticket.cache_hit, "isomorphic rewrite must hit the cache"
    assert served.counters["service.cache_hit"] == 1
    # Identical counts — for the cached hit and the uncached rerun.
    assert served.embedding_count == original.embedding_count
    assert served.embedding_count == direct.embedding_count

    # Every served tuple is a genuine embedding of the *rewritten* pattern
    # (all pattern edges present, vertices distinct).
    for emb in served.embeddings:
        assert len(set(emb)) == rewrite.num_vertices
        for u, v in rewrite.edges():
            assert graph.has_edge(emb[u], emb[v])

    # Same matches as direct enumeration, up to automorphisms of the
    # pattern (symmetry breaking may pick different orbit representatives).
    automorphisms = rewrite.automorphism_group()
    assert {
        orbit_representative(emb, automorphisms)
        for emb in served.embeddings
    } == {
        orbit_representative(emb, automorphisms)
        for emb in direct.embeddings
    }
    assert len(served.embeddings) == len(direct.embeddings)


def test_exact_repeat_is_byte_identical(graph):
    """The same spelling twice: embeddings equal tuple-for-tuple."""
    pattern = random_connected_pattern(5, 2, seed=9)
    with QueryScheduler(
        graph, RunConfig(machines=2), threads=1
    ) as scheduler:
        first = scheduler.run(pattern, "single", collect=True)
        second = scheduler.run(pattern, "single", collect=True)
    assert second.counters["service.cache_hit"] == 1
    assert second.embeddings == first.embeddings
    assert second.embedding_count == first.embedding_count
    assert second.makespan == first.makespan
