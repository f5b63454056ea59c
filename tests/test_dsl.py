"""The pattern DSL, PatternBuilder and canonicalization layer."""

import pytest

import repro
from repro.enumeration.labeled import LabeledPattern
from repro.query.dsl import (
    PatternBuilder,
    PatternSyntaxError,
    format_pattern,
    parse_pattern,
)
from repro.query.isomorphism import are_isomorphic
from repro.query.pattern import Pattern
from strategies import cycle, random_connected_pattern, wheel
from repro.query.patterns import (
    find_named,
    house,
    k4,
    named_patterns,
    square,
    triangle,
)


class TestParse:
    def test_triangle_equals_named(self):
        assert parse_pattern("a-b, b-c, c-a") == triangle()

    def test_repro_pattern_is_the_facade_spelling(self):
        assert repro.pattern("a-b, b-c, c-a") == triangle()

    def test_first_appearance_order(self):
        p = parse_pattern("x-y, z-x")
        # x=0, y=1, z=2
        assert set(p.edges()) == {(0, 1), (0, 2)}

    def test_path_chains(self):
        assert parse_pattern("a-b-c-d-a") == square()

    def test_semicolons_newlines_and_whitespace(self):
        assert parse_pattern(" a - b ;\n b-c,, c-a ") == triangle()

    def test_duplicate_edges_idempotent(self):
        assert parse_pattern("a-b, b-a, a-b") == parse_pattern("a-b")

    def test_lone_vertex_term(self):
        p = parse_pattern("hub, hub-a, hub-b")
        assert p.num_vertices == 3
        assert p.degree(0) == 2

    def test_single_vertex_pattern(self):
        p = parse_pattern("a")
        assert (p.num_vertices, p.num_edges) == (1, 0)

    def test_name_argument(self):
        builder = PatternBuilder(name="wedge").edge("a", "b").edge("b", "c")
        assert builder.build().name == "wedge"

    def test_unnamed_adopts_registered_name(self):
        assert parse_pattern("a-b, b-c, c-a").name == "triangle"
        # Isomorphic, differently-spelled square is recognised as q1.
        assert parse_pattern("d-c, a-d, b-a, c-b").name == "q1"

    @pytest.mark.parametrize("bad", [
        "", "   ", ",", "a-a", "a--b", "a-b, c-d", "a%-b", "a-b:!",
    ])
    def test_rejected_text(self, bad):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(bad)

    def test_non_string_rejected(self):
        with pytest.raises(TypeError):
            parse_pattern(triangle())


class TestLabels:
    def test_integer_labels(self):
        lp = parse_pattern("a:0-b:1, b-c:0, c-a")
        assert isinstance(lp, LabeledPattern)
        assert lp.labels == (0, 1, 0)
        assert lp.pattern == triangle()

    def test_symbolic_labels_auto_numbered(self):
        lp = parse_pattern("a:person-b:org, b-c:person, c-a")
        assert lp.labels == (0, 1, 0)

    def test_symbolic_labels_with_map(self):
        lp = parse_pattern(
            "a:person-b:org, b-c:person, c-a",
            label_map={"person": 7, "org": 3},
        )
        assert lp.labels == (7, 3, 7)

    def test_symbol_missing_from_map_rejected(self):
        with pytest.raises(PatternSyntaxError, match="missing from label_map"):
            parse_pattern("a:person-b:org", label_map={"person": 1})

    def test_partial_labels_rejected(self):
        with pytest.raises(PatternSyntaxError, match="partially labeled"):
            parse_pattern("a:0-b, b-c")

    def test_conflicting_labels_rejected(self):
        with pytest.raises(PatternSyntaxError, match="conflicting"):
            parse_pattern("a:0-b:1, a:1-c:0")

    def test_repeated_consistent_labels_fine(self):
        lp = parse_pattern("a:0-b:1, a:0-c:1")
        assert lp.labels == (0, 1, 1)

    def test_labeled_pattern_equality_and_hash(self):
        a = parse_pattern("a:0-b:1")
        b = LabeledPattern(Pattern(2, [(0, 1)]), (0, 1))
        assert a == b and hash(a) == hash(b)
        assert a != LabeledPattern(Pattern(2, [(0, 1)]), (1, 0))


class TestBuilder:
    def test_fluent_build(self):
        p = (
            PatternBuilder(name="wedge")
            .vertex("a").vertex("b").vertex("c")
            .edge("a", "b").edge("b", "c")
            .build()
        )
        assert p.name == "wedge" and p.num_edges == 2

    def test_edge_declares_vertices(self):
        assert PatternBuilder().edge("a", "b").build().num_vertices == 2

    def test_path_helper(self):
        assert PatternBuilder().path("a", "b", "c", "d", "a").build() == square()

    def test_labeled_build(self):
        lp = (
            PatternBuilder()
            .vertex("x", label="person").vertex("y", label="org")
            .edge("x", "y")
            .build()
        )
        assert isinstance(lp, LabeledPattern) and lp.labels == (0, 1)

    def test_self_loop_rejected(self):
        with pytest.raises(PatternSyntaxError):
            PatternBuilder().edge("a", "a")

    def test_empty_rejected(self):
        with pytest.raises(PatternSyntaxError):
            PatternBuilder().build()

    def test_disconnected_rejected_by_default(self):
        builder = PatternBuilder().edge("a", "b").edge("c", "d")
        with pytest.raises(PatternSyntaxError, match="not connected"):
            builder.build()

    def test_negative_label_rejected(self):
        with pytest.raises(PatternSyntaxError):
            PatternBuilder().vertex("a", label=-1)


class TestRoundTrip:
    """The acceptance property: ``parse(str(p)) == p``."""

    @pytest.mark.parametrize("seed", range(25))
    def test_random_patterns_round_trip(self, seed):
        n = 2 + seed % 6
        p = random_connected_pattern(n, extra_edges=seed % 4, seed=seed)
        assert parse_pattern(str(p)) == p

    @pytest.mark.parametrize("name", sorted(set(named_patterns())))
    def test_named_patterns_round_trip(self, name):
        p = named_patterns()[name]
        assert parse_pattern(str(p)) == p

    @pytest.mark.parametrize("seed", range(10))
    def test_labeled_round_trip(self, seed):
        p = random_connected_pattern(2 + seed % 5, extra_edges=seed % 3,
                                     seed=seed)
        labels = tuple(i % 3 for i in range(p.num_vertices))
        lp = LabeledPattern(p, labels)
        assert parse_pattern(str(lp)) == lp

    def test_format_pattern_pins_appearance_order(self):
        # Star centred on the *last* vertex: sorted edges alone would
        # renumber on re-parse, so declarations must be emitted.
        star_last = Pattern(4, [(0, 3), (1, 3), (2, 3)])
        text = format_pattern(star_last)
        assert text.startswith("v0, v1, v2, v3")
        assert parse_pattern(text) == star_last


class TestCanonicalization:
    @pytest.mark.parametrize("seed", range(15))
    def test_relabelings_share_canonical_key(self, seed):
        import random

        p = random_connected_pattern(6, extra_edges=seed % 5, seed=seed)
        perm = list(range(6))
        random.Random(seed).shuffle(perm)
        q = p.relabel(dict(enumerate(perm)))
        assert p.canonical_key() == q.canonical_key()
        assert p.isomorphic_to(q)
        assert are_isomorphic(p, p.canonical_form())

    def test_non_isomorphic_keys_differ(self):
        q6, q7 = named_patterns()["q6"], named_patterns()["q7"]
        assert q6.canonical_key() != q7.canonical_key()
        assert not q6.isomorphic_to(q7)
        assert cycle(6).canonical_key() != wheel(5).canonical_key()

    def test_canonical_form_is_idempotent(self):
        p = house().canonical_form()
        assert p.canonical_form() == p

    def test_automorphism_group_exposed(self):
        group = triangle().automorphism_group()
        assert len(group) == 6
        assert k4().automorphism_group() == k4().canonical_form(
        ).automorphism_group()

    def test_copy_with_name(self):
        renamed = house().copy_with_name("casa")
        assert renamed == house() and renamed.name == "casa"
        assert hash(renamed) == hash(house())
        assert house().copy_with_name(None).name.startswith("pattern<")


class TestNamedAliases:
    @pytest.mark.parametrize("alias,paper_id", [
        ("square", "q1"),
        ("tailed_triangle", "q2"),
        ("five_cycle", "q3"),
        ("house", "q4"),
        ("house_with_tail", "q5"),
        ("theta_graph", "q6"),
        ("domino", "q7"),
        ("k33", "q8"),
        ("k4", "cq1"),
        ("bowtie", "cq3"),
    ])
    def test_human_aliases_resolve(self, alias, paper_id):
        catalogue = named_patterns()
        assert catalogue[alias] is catalogue[paper_id]

    def test_find_named_prefers_paper_ids(self):
        shuffled = house().relabel({0: 4, 1: 3, 2: 2, 3: 1, 4: 0})
        assert find_named(shuffled) == "q4"
        assert find_named(triangle()) == "triangle"

    def test_find_named_misses_unregistered(self):
        assert find_named(cycle(7)) is None
