"""Statements about ``repro.engines.join_common`` that the goldens imply
but do not spell: where a key is routed, which rows share a key, that an
over-capacity join stops early, and what a traced round reports."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Cluster
from repro.engines import SingleMachineEngine, join_common
from repro.engines.join_common import key_codes, tuple_hash
from repro.engines.seed import SEEDEngine
from repro.engines.twintwig import TwinTwigEngine
from repro.graph import community_graph, grid_road_network, powerlaw_cluster
from repro.obs.trace import Tracer
from repro.query.patterns import PAPER_QUERIES


class TestTupleHash:
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_equals_cpython_and_routes_like_python_modulo(self, width):
        rng = np.random.default_rng(width)
        block = rng.integers(0, 10**6 + 1, size=(16000, width))
        block[:8] = 0
        block[8:16] = 10**6
        expected = np.array(
            [hash(tuple(row)) for row in block.tolist()], dtype=np.int64
        )
        hashed = tuple_hash(block)
        assert hashed.dtype == np.int64
        assert (hashed == expected).all()
        assert (hashed < 0).any()  # the signed view is what gets divided
        for machines in range(1, 11):
            routed = [value % machines for value in expected.tolist()]
            assert (hashed % machines).tolist() == routed

    def test_minus_one_becomes_cpythons_replacement(self):
        """A pair whose lanes mix to all ones: solved by inverting the
        last round of the hash, as CPython never returns -1."""
        mask = 2**64 - 1
        prime_1, prime_2, prime_5 = (
            int(join_common._XXPRIME_1), int(join_common._XXPRIME_2),
            int(join_common._XXPRIME_5),
        )

        def rotated(acc, lane):
            acc = (acc + lane * prime_2) & mask
            return ((acc << 31) | (acc >> 33)) & mask

        wanted = (mask - (2 ^ prime_5 ^ 3527539)) & mask
        wanted = (wanted * pow(prime_1, -1, 2**64)) & mask
        wanted = ((wanted >> 31) | (wanted << 33)) & mask  # before rotating
        for first in range(64):
            acc = (rotated(prime_5, first) * prime_1) & mask
            second = ((wanted - acc) * pow(prime_2, -1, 2**64)) & mask
            if second < 2**61 - 1:  # where hash(int) is the int itself
                break
        assert hash((first, second)) == 1546275796
        assert tuple_hash(np.array([[first, second]])).tolist() == [1546275796]

    def test_empty_block(self):
        assert tuple_hash(np.empty((0, 2), dtype=np.int64)).shape == (0,)


class TestKeyCodes:
    @pytest.mark.parametrize("high", [7, 10**6, 2**40])
    @pytest.mark.parametrize("width", [1, 2, 4])
    def test_codes_are_equal_exactly_where_rows_are(self, width, high):
        """Ids up to 2**40 at width 4 cannot fold into 63 bits without the
        re-ranking step."""
        rng = np.random.default_rng(width)
        keys = rng.integers(0, high, size=(400, width))
        keys = keys[rng.integers(0, 40, size=3000)]  # 40 keys, repeated
        codes = key_codes(keys)
        same_rows = (keys[:, None, :] == keys[None, :, :]).all(axis=2)
        assert ((codes[:, None] == codes[None, :]) == same_rows).all()
        assert codes.dtype.kind == "u"


@pytest.mark.parametrize("engine", [TwinTwigEngine, SEEDEngine])
def test_two_column_keys_past_32_bits_of_code(engine):
    """67 600 vertices: a two-vertex join key folds past 2**32, where the
    codes are uint64 and must never meet a signed integer."""
    graph = grid_road_network(260, 260, extra_edge_prob=0.05, seed=1)
    base = Cluster.create(graph, 3)
    for query in ("q1", "q2"):
        counts = [
            e.run(
                base.fresh_copy(), PAPER_QUERIES[query],
                collect_embeddings=False,
            ).embedding_count
            for e in (engine(), SingleMachineEngine())
        ]
        assert counts[0] == counts[1] > 0, query


def test_an_over_capacity_join_stops_within_a_chunk(monkeypatch):
    """Fail-fast, counted: under a cap the reducers claim memory for a few
    chunks and raise, instead of joining every chunk and failing after."""
    claims = []
    claim = join_common.claim

    def counted(*args):
        claims.append(args)
        return claim(*args)

    monkeypatch.setattr(join_common, "claim", counted)
    graph = powerlaw_cluster(120, 4, seed=45)
    pattern = PAPER_QUERIES["q5"]
    fits = TwinTwigEngine().run(
        Cluster.create(graph, 3), pattern, collect_embeddings=False
    )
    uncapped = len(claims)
    del claims[:]
    capped = TwinTwigEngine().run(
        Cluster.create(graph, 3, memory_capacity=2**20), pattern,
        collect_embeddings=False,
    )
    assert not fits.failed and capped.failed
    assert "join_ops" in fits.counters
    assert 0 < len(claims) < uncapped / 4, (len(claims), uncapped)


def test_traced_rounds_report_their_row_counts():
    graph = community_graph(10, 10, 0.6, 2, seed=3)
    tracer = Tracer()
    with tracer.root("test"):
        result = TwinTwigEngine().run(
            Cluster.create(graph, 3), PAPER_QUERIES["q1"],
            collect_embeddings=False,
        )
    rounds = [
        s for s in tracer._spans if s["name"] in ("round.unit", "round.join")
    ]
    assert [s["name"] for s in rounds][:2] == ["round.unit", "round.join"]
    unit, *joins = (s["attributes"] for s in rounds)
    assert unit["rows_left"] == 0
    assert unit["rows_right"] == unit["rows_out"] > 0
    carried = unit["rows_out"]
    for join in joins:  # left-deep: a round's output is the next one's left
        assert join["rows_left"] == carried and join["rows_right"] > 0
        carried = join["rows_out"]
    assert carried == result.embedding_count
