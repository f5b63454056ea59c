"""Compact edge-list DSL and fluent builder for query patterns.

The grammar (documented in docs/api.md):

.. code-block:: text

    pattern := term ("," term)*
    term    := vertex ("-" vertex)*      # a lone vertex, an edge, or a path
    vertex  := NAME (":" LABEL)?
    NAME    := [A-Za-z0-9_]+             # opaque token; ids by first appearance
    LABEL   := [A-Za-z0-9_]+             # integer literal or symbolic label

Vertex names are opaque: query-vertex ids ``0..k-1`` are assigned in order
of first appearance.  ``a-b-c`` is the path ``a-b, b-c``; repeating an edge
is idempotent; ``a-a`` (a self loop) is rejected.  A label may be attached
at any occurrence of a vertex, but conflicting labels are an error; once
one vertex is labeled, every vertex must be.  Symbolic labels are resolved
through ``label_map`` when given, otherwise they are auto-numbered
``0, 1, ...`` in order of first appearance, skipping integers the text
already uses explicitly (``"a:0-b:person"`` gives ``person`` the value 1).

>>> from repro.query.dsl import pattern
>>> p = pattern("a-b, b-c, c-a")
>>> p.num_vertices, p.num_edges, p.name
(3, 3, 'triangle')
>>> from repro.query.patterns import named_patterns
>>> p == named_patterns()["triangle"]
True
>>> pattern("a-b-c-d-a").isomorphic_to(named_patterns()["q1"])
True
>>> lp = pattern("a:person-b:org, b-c:person, c-a")
>>> lp.labels
(0, 1, 0)
>>> pattern(str(p)) == p
True
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Mapping

from repro.query.pattern import Pattern

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.enumeration.labeled import LabeledPattern

_TOKEN = re.compile(r"[A-Za-z0-9_]+\Z")

#: Separators between terms: commas, semicolons and newlines.
_TERM_SPLIT = re.compile(r"[,;\n]")


class PatternSyntaxError(ValueError):
    """The DSL text (or builder state) does not describe a valid pattern."""


def _check_token(token: str, what: str) -> str:
    if not _TOKEN.match(token):
        raise PatternSyntaxError(
            f"invalid {what} {token!r}: expected letters, digits or '_'"
        )
    return token


def _resolve_labels(
    order: "list[str]",
    raw: "dict[str, int | str]",
    vertex_names: "list[str]",
    label_map: "Mapping[str, int] | None",
) -> tuple[int, ...]:
    """Integer label per vertex id, auto-numbering symbolic labels.

    ``order`` lists the distinct raw symbolic labels in first-appearance
    order; ``raw`` maps vertex name -> integer or symbolic label.
    """
    unlabeled = [name for name in vertex_names if name not in raw]
    if unlabeled:
        raise PatternSyntaxError(
            f"partially labeled pattern: vertices "
            f"{', '.join(sorted(unlabeled))} have no label "
            f"(label all vertices or none)"
        )
    symbol_values: dict[str, int] = {}
    if label_map is not None:
        for symbol in order:
            if symbol not in label_map:
                raise PatternSyntaxError(
                    f"label {symbol!r} missing from label_map "
                    f"(known: {', '.join(sorted(map(str, label_map)))})"
                )
            symbol_values[symbol] = int(label_map[symbol])
    else:
        # Auto-numbering must never merge a symbol with an explicitly
        # numbered label ("a:0-b:person" means two distinct labels), so
        # integers already spent are skipped.
        used = {value for value in raw.values() if isinstance(value, int)}
        next_value = 0
        for symbol in order:
            while next_value in used:
                next_value += 1
            symbol_values[symbol] = next_value
            used.add(next_value)
    return tuple(
        value if isinstance(value, int) else symbol_values[value]
        for value in (raw[name] for name in vertex_names)
    )


class PatternBuilder:
    """Fluent construction of (optionally labeled) patterns.

    >>> from repro.query.dsl import PatternBuilder
    >>> p = (PatternBuilder(name="wedge")
    ...      .vertex("a").vertex("b").vertex("c")
    ...      .edge("a", "b").edge("b", "c")
    ...      .build())
    >>> p.name, p.num_edges
    ('wedge', 2)
    >>> lp = (PatternBuilder()
    ...       .vertex("x", label="person").vertex("y", label="org")
    ...       .edge("x", "y").build())
    >>> lp.labels
    (0, 1)
    """

    def __init__(self, name: str | None = None):
        self._name = name
        self._order: list[str] = []
        self._ids: dict[str, int] = {}
        self._edges: set[tuple[int, int]] = set()
        self._labels: dict[str, int | str] = {}
        self._label_order: list[str] = []

    # ------------------------------------------------------------------
    def vertex(
        self, name: str, *, label: "int | str | None" = None
    ) -> "PatternBuilder":
        """Declare a vertex (idempotent), optionally attaching a label."""
        name = _check_token(str(name), "vertex name")
        if name not in self._ids:
            self._ids[name] = len(self._order)
            self._order.append(name)
        if label is not None:
            if isinstance(label, str):
                _check_token(label, "label")
                if label not in self._label_order:
                    self._label_order.append(label)
            elif int(label) < 0:
                raise PatternSyntaxError(
                    f"labels must be non-negative, got {label!r}"
                )
            else:
                label = int(label)
            previous = self._labels.setdefault(name, label)
            if previous != label:
                raise PatternSyntaxError(
                    f"conflicting labels for vertex {name!r}: "
                    f"{previous!r} vs {label!r}"
                )
        return self

    def edge(
        self,
        u: str,
        v: str,
        *,
        u_label: "int | str | None" = None,
        v_label: "int | str | None" = None,
    ) -> "PatternBuilder":
        """Add an undirected edge, declaring endpoints as needed."""
        self.vertex(u, label=u_label)
        self.vertex(v, label=v_label)
        a, b = self._ids[str(u)], self._ids[str(v)]
        if a == b:
            raise PatternSyntaxError(f"self loop {u!r}-{v!r} not allowed")
        self._edges.add((min(a, b), max(a, b)))
        return self

    def path(self, *names: str) -> "PatternBuilder":
        """Chain ``names`` with consecutive edges (the DSL's ``a-b-c``)."""
        if len(names) < 2:
            raise PatternSyntaxError("a path needs at least two vertices")
        for u, v in zip(names, names[1:]):
            self.edge(u, v)
        return self

    # ------------------------------------------------------------------
    def build(
        self,
        *,
        label_map: "Mapping[str, int] | None" = None,
    ) -> "Pattern | LabeledPattern":
        """The finished pattern (labeled iff any vertex carries a label;
        a pattern that is not connected is a :class:`PatternSyntaxError`).

        Unnamed patterns that are structurally one of the registered named
        queries adopt that name (``a-b, b-c, c-a`` builds ``triangle``).
        """
        if not self._order:
            raise PatternSyntaxError("empty pattern")
        pattern = Pattern(
            len(self._order), sorted(self._edges), name=self._name
        )
        if not pattern.is_connected():
            raise PatternSyntaxError(
                f"pattern is not connected: {format_pattern(pattern)!r}"
            )
        if self._name is None:
            named = _find_registered_name(pattern)
            if named is not None:
                pattern = pattern.copy_with_name(named)
        if not self._labels:
            return pattern
        from repro.enumeration.labeled import LabeledPattern

        labels = _resolve_labels(
            self._label_order, self._labels, self._order, label_map
        )
        return LabeledPattern(pattern, labels)


def _find_registered_name(pattern: Pattern) -> str | None:
    """Name of the registered pattern isomorphic to ``pattern``, if any."""
    from repro.query.patterns import find_named

    return find_named(pattern)


def parse_pattern(
    text: str,
    *,
    label_map: "Mapping[str, int] | None" = None,
) -> "Pattern | LabeledPattern":
    """Parse DSL ``text`` into a :class:`Pattern` (or ``LabeledPattern``).

    See the module docstring for the grammar.  ``label_map`` resolves
    symbolic labels to integers; without it they are auto-numbered in
    first-appearance order.
    """
    if not isinstance(text, str):
        raise TypeError(f"pattern text must be a string, got {type(text).__name__}")
    builder = PatternBuilder()
    terms = [t.strip() for t in _TERM_SPLIT.split(text)]
    if not any(terms):
        raise PatternSyntaxError(f"empty pattern text: {text!r}")
    for term in terms:
        if not term:
            continue
        stops = [s.strip() for s in term.split("-")]
        parsed: list[tuple[str, str | None]] = []
        for stop in stops:
            token, _, label = stop.partition(":")
            parsed.append((token.strip(), label.strip() if label else None))
        if len(parsed) == 1:
            vertex, label = parsed[0]
            builder.vertex(vertex, label=_coerce_label(label))
            continue
        for (u, u_label), (v, v_label) in zip(parsed, parsed[1:]):
            builder.edge(
                u, v,
                u_label=_coerce_label(u_label),
                v_label=_coerce_label(v_label),
            )
    return builder.build(label_map=label_map)


#: ``repro.pattern(...)`` — the facade's documented spelling.
pattern = parse_pattern


def _coerce_label(label: str | None) -> "int | str | None":
    if label is None:
        return None
    _check_token(label, "label")
    return int(label) if label.isdigit() else label


def format_pattern(
    target: Pattern, labels: "Iterable[int] | None" = None
) -> str:
    """DSL text for ``target`` — the inverse of :func:`parse_pattern`.

    Vertex ``u`` prints as ``v{u}``; labels (when given) are attached at
    each vertex's first occurrence.  When listing the sorted edges alone
    would make first-appearance order disagree with vertex ids, explicit
    lone-vertex terms pin the ordering, so
    ``parse_pattern(format_pattern(p)) == p`` always holds.

    >>> from repro.query.patterns import triangle
    >>> format_pattern(triangle())
    'v0-v1, v0-v2, v1-v2'
    """
    n = target.num_vertices
    label_list = None if labels is None else list(labels)
    seen: list[int] = []
    for u, v in target.edges():
        for x in (u, v):
            if x not in seen:
                seen.append(x)

    emitted: set[int] = set()

    def stop(u: int) -> str:
        if label_list is not None and u not in emitted:
            emitted.add(u)
            return f"v{u}:{label_list[u]}"
        return f"v{u}"

    terms: list[str] = []
    if seen != list(range(n)):
        terms.extend(stop(u) for u in range(n))
    terms.extend(f"{stop(u)}-{stop(v)}" for u, v in target.edges())
    return ", ".join(terms)
