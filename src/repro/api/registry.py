"""Engine registry: the one place that knows every enumeration approach.

Each engine is registered once with a canonical name, aliases,
capability metadata and a factory (which owns construction details such
as Crystal's prebuilt clique index or RADS's plan provider), and every
entry point (CLI, bench harness, :class:`repro.api.session.Session`)
resolves engines here.

Lookups are case-insensitive over canonical names and aliases::

    reg = default_registry()
    reg.resolve("rads").name          # "RADS"
    reg.create("crystal", index=idx)  # CrystalEngine with a prebuilt index
    reg.create_all(paper=True)        # the five engines of the paper's Sec. 7

Third-party engines plug in with the decorator::

    @register_engine("MyEngine", aliases=("mine",), description="...")
    class MyEngine(EnumerationEngine):
        ...
"""

from __future__ import annotations

import difflib
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Mapping

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, types only
    from repro.engines.base import EnumerationEngine
    from repro.graph.graph import Graph

#: A factory builds one engine instance.  It is called with the data
#: ``graph`` as declarative context (may be ``None``) plus any per-engine
#: keyword arguments supplied by the caller.
EngineFactory = Callable[..., "EnumerationEngine"]


def suggest_names(name: str, known: "Iterable[str]") -> list[str]:
    """Close matches for a mistyped ``name`` (case-insensitive difflib)."""
    known = sorted(set(known))
    by_lower = {}
    for candidate in known:
        by_lower.setdefault(candidate.lower(), candidate)
    matches = difflib.get_close_matches(
        str(name).lower(), list(by_lower), n=3, cutoff=0.6
    )
    return [by_lower[match] for match in matches]


def _did_you_mean(suggestions: list[str]) -> str:
    if not suggestions:
        return ""
    return f" did you mean {' or '.join(map(repr, suggestions))}?"


class UnknownEngineError(KeyError):
    """An engine name that no registry entry (or alias) matches."""

    def __init__(self, name: str, registry: "EngineRegistry"):
        self.name = name
        self.choices = registry.describe()
        self.suggestions = suggest_names(name, registry.known_names())
        super().__init__(name)

    def __str__(self) -> str:
        return (
            f"unknown engine {self.name!r};{_did_you_mean(self.suggestions)}"
            f" choose from: {self.choices}"
        )


class CapabilityError(ValueError):
    """A resolved engine lacks a capability the request requires."""

    def __init__(self, spec: "EngineSpec", capability: str,
                 qualified: list[str]):
        self.spec = spec
        self.capability = capability
        self.qualified = qualified
        nice = {
            "supports_labels": "labeled queries",
            "needs_index": "a prebuilt index",
            "distributed": "distributed execution",
        }.get(capability, capability)
        super().__init__(
            f"engine {spec.name!r} does not support {nice} "
            f"({capability}); "
            + (
                f"engines that qualify: {', '.join(qualified)}"
                if qualified
                else "no registered engine qualifies"
            )
        )


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: identity, capabilities and construction.

    ``paper`` marks the five approaches raced in the paper's Sec. 7;
    ``extension`` the Sec. 8 related-work engines.  ``needs_index``
    advertises that the engine can exploit a prebuilt offline index
    (Crystal's clique index) passed via factory kwargs; ``supports_labels``
    that it can serve the labeled-matching layer; ``distributed`` is False
    for single-machine oracles — those are rejected on the socket backend
    (``RunConfig(backend="socket")``) with a :class:`CapabilityError`
    naming the engines that qualify, enforced at resolution time by
    :class:`repro.api.session.Session` and
    :class:`repro.service.scheduler.QueryScheduler`.
    """

    name: str
    engine_cls: type
    factory: EngineFactory | None = None
    aliases: tuple[str, ...] = ()
    paper: bool = False
    extension: bool = False
    needs_index: bool = False
    supports_labels: bool = False
    distributed: bool = True
    description: str = ""

    def create(
        self, *, graph: "Graph | None" = None, **kwargs: Any
    ) -> "EnumerationEngine":
        """Build an engine instance.

        ``graph`` is passed through to custom factories as declarative
        context (e.g. so Crystal can build its clique index); engines
        registered without a factory are constructed as
        ``engine_cls(**kwargs)``.
        """
        if self.factory is not None:
            return self.factory(graph=graph, **kwargs)
        return self.engine_cls(**kwargs)

    def describe(self) -> str:
        """``Name (aliases: a, b)`` — the error/help listing form."""
        if not self.aliases:
            return self.name
        return f"{self.name} (aliases: {', '.join(self.aliases)})"


class EngineRegistry:
    """Case-insensitive name/alias -> :class:`EngineSpec` mapping.

    Safe for concurrent use: registration and every lookup/iteration
    path hold an internal lock (specs themselves are frozen dataclasses),
    so the query service's worker threads — and any other concurrent
    ``Session`` users — can resolve engines while a plugin registers.
    """

    def __init__(self) -> None:
        self._specs: dict[str, EngineSpec] = {}
        self._lookup: dict[str, str] = {}
        self._lock = threading.RLock()

    # -- registration --------------------------------------------------
    def register(self, spec: EngineSpec) -> EngineSpec:
        """Add ``spec``; canonical name and aliases must be unclaimed."""
        keys = [spec.name.lower(), *(a.lower() for a in spec.aliases)]
        with self._lock:
            for key in keys:
                if key in self._lookup:
                    raise ValueError(
                        f"engine name {key!r} already registered "
                        f"(by {self._lookup[key]!r})"
                    )
            self._specs[spec.name] = spec
            for key in keys:
                self._lookup[key] = spec.name
        return spec

    # -- lookup --------------------------------------------------------
    def resolve(self, name: str) -> EngineSpec:
        """Spec for ``name`` (canonical or alias, any case)."""
        with self._lock:
            canonical = self._lookup.get(str(name).lower())
            if canonical is None:
                raise UnknownEngineError(str(name), self)
            return self._specs[canonical]

    def __iter__(self) -> Iterator[EngineSpec]:
        # Iterate a snapshot so concurrent registration cannot blow up a
        # caller mid-loop (dict mutation during iteration).
        with self._lock:
            return iter(list(self._specs.values()))

    def __len__(self) -> int:
        with self._lock:
            return len(self._specs)

    def names(self) -> list[str]:
        """Canonical names in registration order."""
        with self._lock:
            return list(self._specs)

    def known_names(self) -> list[str]:
        """Every accepted lookup key (canonical names and aliases)."""
        names: list[str] = []
        with self._lock:
            for spec in self._specs.values():
                names.append(spec.name)
                names.extend(spec.aliases)
        return names

    def require(self, name: str, **capabilities: Any) -> EngineSpec:
        """Resolve ``name`` and check it carries every given capability.

        Raises :class:`CapabilityError` naming the engines that qualify —
        e.g. ``registry.require("rads", supports_labels=True)`` explains
        that only label-capable engines can serve labeled queries.
        """
        spec = self.resolve(name)
        for capability, want in capabilities.items():
            if getattr(spec, capability) != want:
                qualified = [
                    s.name for s in self.specs(**{capability: want})
                ]
                raise CapabilityError(spec, capability, qualified)
        return spec

    def specs(self, **capabilities: Any) -> list[EngineSpec]:
        """Specs whose attributes match every ``capabilities`` item.

        ``specs()`` lists everything; ``specs(paper=True)`` the five raced
        engines; ``specs(needs_index=True)`` the index-backed ones.
        """
        return [
            spec
            for spec in self
            if all(
                getattr(spec, key) == want
                for key, want in capabilities.items()
            )
        ]

    def describe(self) -> str:
        """All engines with their aliases, sorted, one comma-joined line."""
        return ", ".join(
            spec.describe() for spec in sorted(self, key=lambda s: s.name)
        )

    # -- construction --------------------------------------------------
    def create(
        self, name: str, *, graph: "Graph | None" = None, **kwargs: Any
    ) -> "EnumerationEngine":
        """Build one engine by name with declarative factory kwargs."""
        return self.resolve(name).create(graph=graph, **kwargs)

    def create_all(
        self,
        names: list[str] | None = None,
        *,
        graph: "Graph | None" = None,
        engine_kwargs: Mapping[str, Mapping[str, Any]] | None = None,
        **capabilities: Any,
    ) -> "dict[str, EnumerationEngine]":
        """Canonical name -> fresh instance for a set of engines.

        ``names`` selects explicitly (aliases fine); otherwise every spec
        matching ``capabilities`` is built (``paper=True`` for the Sec. 7
        grid).  ``engine_kwargs`` holds per-engine factory kwargs keyed by
        canonical name — e.g. ``{"Crystal": {"index": prebuilt}}`` — which
        is how formerly special-cased construction is now configured.
        """
        if names is not None:
            specs = [self.resolve(name) for name in names]
        else:
            specs = self.specs(**capabilities)
        # Keys resolve like engine names (any case, aliases); typos and
        # entries for unselected engines raise instead of silently
        # configuring nothing.
        selected = {spec.name for spec in specs}
        per_engine: dict[str, dict[str, Any]] = {}
        for key, kwargs in (engine_kwargs or {}).items():
            canonical = self.resolve(str(key)).name
            if canonical not in selected:
                raise ValueError(
                    f"engine_kwargs for {canonical!r} but that engine is "
                    f"not selected ({sorted(selected)})"
                )
            per_engine.setdefault(canonical, {}).update(dict(kwargs))
        return {
            spec.name: spec.create(
                graph=graph, **per_engine.get(spec.name, {})
            )
            for spec in specs
        }


# ----------------------------------------------------------------------
# The default registry and the plug-in decorator
# ----------------------------------------------------------------------
_default_registry: EngineRegistry | None = None
_default_registry_lock = threading.Lock()


def register_engine(
    name: str,
    *,
    aliases: tuple[str, ...] = (),
    paper: bool = False,
    extension: bool = False,
    needs_index: bool = False,
    supports_labels: bool = False,
    distributed: bool = True,
    description: str = "",
    engine_cls: type | None = None,
    registry: EngineRegistry | None = None,
):
    """Class/factory decorator registering an engine (default registry).

    Decorate an :class:`EnumerationEngine` subclass directly, or a factory
    function (then pass ``engine_cls`` so introspection still sees the
    class)::

        @register_engine("Crystal", needs_index=True, engine_cls=CrystalEngine)
        def _make_crystal(*, graph=None, index=None, ...):
            ...
    """

    def decorate(target):
        cls = engine_cls
        factory: EngineFactory | None
        if isinstance(target, type):
            cls, factory = target, None
        else:
            factory = target
            if cls is None:
                raise TypeError(
                    "register_engine on a factory function requires "
                    "engine_cls=..."
                )
        # NB: not `registry or ...` — an empty registry is len() == 0, falsy.
        target_registry = (
            registry if registry is not None else default_registry()
        )
        target_registry.register(
            EngineSpec(
                name=name,
                engine_cls=cls,
                factory=factory,
                aliases=tuple(aliases),
                paper=paper,
                extension=extension,
                needs_index=needs_index,
                supports_labels=supports_labels,
                distributed=distributed,
                description=description,
            )
        )
        return target

    return decorate


def _register_builtins(reg: EngineRegistry) -> None:
    """Populate ``reg`` with the repo's engines (paper + extensions).

    Imports happen here, not at module top, to keep the import graph
    acyclic (``repro.core`` imports ``repro.engines.base`` and vice versa).
    Registration order is the paper's (Sec. 7 engines, then the Sec. 8
    extensions) so tables keep their row order.
    """
    from repro.core.rads import RADSEngine
    from repro.engines.bigjoin import BigJoinEngine
    from repro.engines.crystal import CliqueIndex, CrystalEngine
    from repro.engines.multiway import MultiwayJoinEngine
    from repro.engines.psgl import PSgLEngine
    from repro.engines.replication import ReplicationEngine
    from repro.engines.seed import SEEDEngine
    from repro.engines.single import SingleMachineEngine
    from repro.engines.twintwig import TwinTwigEngine

    reg.register(EngineSpec(
        name="RADS",
        engine_cls=RADSEngine,
        aliases=("r-meef", "rmeef"),
        paper=True,
        description="Robust asynchronous distributed subgraph enumeration "
                    "(the paper's system; plan_provider/grouping kwargs).",
    ))
    reg.register(EngineSpec(
        name="PSgL",
        engine_cls=PSgLEngine,
        aliases=("pregel",),
        paper=True,
        description="Pregel-style vertex-expansion baseline (Shao et al.).",
    ))
    reg.register(EngineSpec(
        name="TwinTwig",
        engine_cls=TwinTwigEngine,
        aliases=("tt",),
        paper=True,
        description="Left-deep twin-twig join baseline (Lai et al.).",
    ))
    reg.register(EngineSpec(
        name="SEED",
        engine_cls=SEEDEngine,
        paper=True,
        description="Bushy join over stars and cliques (Lai et al.).",
    ))

    def _make_crystal(
        *,
        graph: "Graph | None" = None,
        index: "CliqueIndex | bool | None" = None,
        max_size: int = 4,
        **kwargs: Any,
    ) -> CrystalEngine:
        """Crystal with a declaratively configured clique index.

        ``index`` may be a prebuilt :class:`CliqueIndex`, ``True`` (build
        one from ``graph`` now, amortising it across this instance's runs)
        or ``None`` (the engine indexes lazily at run time, matching a bare
        ``CrystalEngine()``).
        """
        if index is True:
            if graph is None:
                raise ValueError(
                    "Crystal index=True needs a graph to index"
                )
            index = CliqueIndex(graph, max_size=max_size)
        return CrystalEngine(index=index or None, **kwargs)

    reg.register(EngineSpec(
        name="Crystal",
        engine_cls=CrystalEngine,
        factory=_make_crystal,
        aliases=("crystaljoin",),
        paper=True,
        needs_index=True,
        description="Core/crystal decomposition over a precomputed clique "
                    "index (Qiao et al.).",
    ))
    reg.register(EngineSpec(
        name="BigJoin",
        engine_cls=BigJoinEngine,
        aliases=("wcoj",),
        extension=True,
        description="Worst-case-optimal one-vertex-at-a-time join "
                    "(Ammar et al.).",
    ))
    reg.register(EngineSpec(
        name="Multiway",
        engine_cls=MultiwayJoinEngine,
        aliases=("shares", "afrati-ullman"),
        extension=True,
        description="Single-round hypercube shares join (Afrati-Ullman).",
    ))
    reg.register(EngineSpec(
        name="Replication",
        engine_cls=ReplicationEngine,
        aliases=("d-hop", "dhop"),
        extension=True,
        description="d-hop neighbourhood replication (Fan et al.).",
    ))
    reg.register(EngineSpec(
        name="Single",
        engine_cls=SingleMachineEngine,
        aliases=("oracle", "local"),
        distributed=False,
        supports_labels=True,
        description="Single-machine backtracking oracle (ground truth).",
    ))


def default_registry() -> EngineRegistry:
    """The process-wide registry, populated with built-ins on first use.

    First use may happen on any thread (e.g. a query-service worker), so
    creation is guarded: exactly one caller populates the built-ins and
    everyone else sees the finished registry.
    """
    global _default_registry
    if _default_registry is None:
        with _default_registry_lock:
            if _default_registry is None:
                reg = EngineRegistry()
                _register_builtins(reg)
                _default_registry = reg
    return _default_registry
