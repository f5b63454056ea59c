"""Validated run configuration shared by every entry point.

:class:`RunConfig` replaces the long positional-argument tails that used
to be threaded through ``EnumerationEngine.run`` and the benchmark
harness: one frozen, validated dataclass describes the
simulated cluster (machines, per-machine memory, partitioner, cost model,
stragglers), the execution backend (workers) and the result mode
(collect/limit).  Invalid values raise :class:`ConfigError` at
construction time, not deep inside a run.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping

from repro.cluster.costmodel import CostModel

if TYPE_CHECKING:  # pragma: no cover - types only
    from repro.cluster.cluster import Cluster
    from repro.graph.graph import Graph
    from repro.partition.partitioner import Partitioner
    from repro.runtime.executor import Executor

#: Bytes per mebibyte (``memory_mb`` is expressed in MiB).
MIB = 1024 * 1024

#: Named partitioner strategies accepted by :attr:`RunConfig.partitioner`.
PARTITIONER_NAMES = ("metis", "hash", "labelprop")

#: Execution backends accepted by :attr:`RunConfig.backend`.
BACKEND_NAMES = ("auto", "serial", "process", "socket")


#: Legal values of the tri-state ``collect`` result mode.
COLLECT_MODES = (False, True, "store")


class ConfigError(ValueError):
    """A RunConfig field failed validation."""


def normalize_collect(value: Any) -> "bool | str":
    """Validate the tri-state result mode: ``False``/``True``/``"store"``.

    Truthy non-bools (``collect=1``) are rejected rather than coerced —
    silently treating them as ``True`` used to mask caller bugs, and
    ``"store"`` must stay distinguishable from plain truthiness.
    """
    if value is True or value is False:
        return value
    if value == "store":
        return "store"
    raise ConfigError(
        f"collect must be True, False or 'store', got {value!r}"
    )


@dataclass(frozen=True)
class RunConfig:
    """Everything about *how* to run, separate from graph/engine/query.

    - ``machines``: simulated cluster size (>= 1).
    - ``memory_mb``: per-machine memory cap in MiB (``None`` = unlimited).
    - ``partitioner``: ``"metis"`` (default), ``"hash"``, ``"labelprop"``
      or a ready :class:`~repro.partition.partitioner.Partitioner`.
    - ``cost_model``: simulated hardware; ``None`` = default testbed.
    - ``stragglers``: machine id -> slowdown factor (2.0 = half speed).
    - ``workers``: OS processes for independent per-machine work
      (0 = serial; results are backend-independent).
    - ``backend``: execution backend — ``"auto"`` (default: serial for
      ``workers == 0``, else ``"process"``), ``"serial"``, ``"process"``
      (``workers`` shard workers forked on this host; ``workers == 0``
      starts one per CPU), or ``"socket"`` (dispatch to remote
      ``repro worker`` shard daemons; needs ``shards`` or a shard
      registry passed to :meth:`make_executor`).
    - ``shards``: shard-worker addresses for the socket backend
      (``"host:port"`` strings or ``(host, port)`` tuples); may be
      omitted when an elastic registry supplies the roster.
    - ``seed``: feeds the named partitioners (and future stochastic knobs).
    - ``collect``: result mode — ``False`` (counts only, default),
      ``True`` (keep full embeddings on the result) or ``"store"``
      (enumerate with embeddings and persist them to the session's or
      server's :class:`~repro.store.EmbeddingStore`; the returned result
      carries counts only, with pages served from the store).
    - ``limit``: keep at most this many collected embeddings.
    """

    machines: int = 10
    memory_mb: float | None = None
    partitioner: "str | Partitioner" = "metis"
    cost_model: CostModel | None = None
    stragglers: Mapping[int, float] | None = None
    workers: int = 0
    backend: str = "auto"
    shards: "tuple[str, ...] | None" = None
    seed: int = 0
    collect: "bool | str" = False
    limit: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.machines, int) or self.machines < 1:
            raise ConfigError(
                f"machines must be a positive integer, got {self.machines!r}"
            )
        if self.memory_mb is not None and not (
            isinstance(self.memory_mb, (int, float)) and self.memory_mb > 0
        ):
            raise ConfigError(
                f"memory_mb must be positive or None, got {self.memory_mb!r}"
            )
        if isinstance(self.partitioner, str):
            if self.partitioner not in PARTITIONER_NAMES:
                raise ConfigError(
                    f"unknown partitioner {self.partitioner!r}; choose from "
                    f"{', '.join(PARTITIONER_NAMES)} or pass a Partitioner"
                )
        elif not hasattr(self.partitioner, "assign"):
            raise ConfigError(
                f"partitioner must be a name or Partitioner, "
                f"got {self.partitioner!r}"
            )
        if not isinstance(self.workers, int) or self.workers < 0:
            raise ConfigError(
                f"workers must be a non-negative integer, got {self.workers!r}"
            )
        if self.backend not in BACKEND_NAMES:
            raise ConfigError(
                f"unknown backend {self.backend!r}; choose from "
                f"{', '.join(BACKEND_NAMES)}"
            )
        if self.shards is not None:
            if isinstance(self.shards, (str, bytes)) or not hasattr(
                self.shards, "__iter__"
            ):
                raise ConfigError(
                    f"shards must be a sequence of addresses, "
                    f"got {self.shards!r}"
                )
            normalized_shards = tuple(
                self._normalize_shard(shard) for shard in self.shards
            )
            if not normalized_shards:
                raise ConfigError("shards must not be empty when given")
            object.__setattr__(self, "shards", normalized_shards)
        if self.shards and self.backend != "socket":
            raise ConfigError(
                f"shards only apply to the socket backend "
                f"(got backend={self.backend!r})"
            )
        if self.stragglers is not None:
            normalized = dict(self.stragglers)
            for machine, factor in normalized.items():
                if not isinstance(machine, int) or machine < 0:
                    raise ConfigError(
                        f"straggler machine ids must be non-negative "
                        f"integers, got {machine!r}"
                    )
                if machine >= self.machines:
                    raise ConfigError(
                        f"straggler machine {machine} out of range for "
                        f"{self.machines} machines"
                    )
                if not (isinstance(factor, (int, float)) and factor > 0):
                    raise ConfigError(
                        f"straggler slowdown factors must be positive, "
                        f"got {factor!r} for machine {machine}"
                    )
            object.__setattr__(self, "stragglers", normalized)
        object.__setattr__(self, "collect", normalize_collect(self.collect))
        if self.limit is not None and (
            not isinstance(self.limit, int) or self.limit < 1
        ):
            raise ConfigError(
                f"limit must be a positive integer or None, got {self.limit!r}"
            )

    @staticmethod
    def _normalize_shard(shard: Any) -> str:
        """One shard address as a canonical ``host:port`` string."""
        from repro.service.protocol import format_address, parse_address

        try:
            host, port = parse_address(
                tuple(shard) if isinstance(shard, (list, tuple)) else shard
            )
        except (TypeError, ValueError) as exc:
            raise ConfigError(
                f"invalid shard address {shard!r}: {exc}"
            ) from exc
        return format_address(host, port)

    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int | None:
        """Per-machine cap in bytes (what the simulator accounts in)."""
        if self.memory_mb is None:
            return None
        return int(self.memory_mb * MIB)

    def replace(self, **updates: Any) -> "RunConfig":
        """A copy with ``updates`` applied (re-validated)."""
        return dataclasses.replace(self, **updates)

    def build_partitioner(self) -> "Partitioner":
        """The configured partitioner instance (named ones get ``seed``)."""
        if not isinstance(self.partitioner, str):
            return self.partitioner
        from repro.partition.label_propagation import (
            LabelPropagationPartitioner,
        )
        from repro.partition.metis_like import MetisLikePartitioner
        from repro.partition.partitioner import HashPartitioner

        cls = {
            "metis": MetisLikePartitioner,
            "hash": HashPartitioner,
            "labelprop": LabelPropagationPartitioner,
        }[self.partitioner]
        return cls(seed=self.seed)

    def make_partition(self, graph: "Graph"):
        """Partition ``graph`` over ``machines`` with the configured
        partitioner (the expensive, reusable part of cluster setup)."""
        from repro.partition.partition import GraphPartition

        owner = self.build_partitioner().assign(graph, self.machines)
        return GraphPartition(graph, owner, self.machines)

    def make_cluster(self, graph: "Graph", *, partition=None) -> "Cluster":
        """Partition ``graph`` and build the simulated cluster.

        Pass a prebuilt ``partition`` (from :meth:`make_partition`, for
        this graph and machine count) to reuse it across memory-cap or
        straggler sweeps.  Straggler slowdown factors are applied as
        machine speed factors (they survive
        :meth:`~repro.cluster.cluster.Cluster.fresh_copy`).
        """
        from repro.cluster.cluster import Cluster

        if partition is None:
            partition = self.make_partition(graph)
        cluster = Cluster(
            partition,
            self.cost_model or CostModel(),
            self.memory_bytes,
        )
        for machine, factor in (self.stragglers or {}).items():
            cluster.set_speed_factor(machine, 1.0 / factor)
        return cluster

    def make_executor(self, registry: Any = None, graph: Any = None) -> "Executor":
        """The configured execution backend (caller owns closing it).

        ``backend="auto"`` keeps the historic ``workers`` semantics
        (0 = serial, N = ``"process"``).  ``"process"`` forks ``workers``
        local shard workers (one per CPU when ``workers`` is 0) behind a
        :class:`~repro.distributed.executor.ProcessExecutor`; ``"socket"``
        connects a
        :class:`~repro.distributed.executor.SocketExecutor` to the
        configured ``shards`` (handshakes eagerly, so unreachable rosters
        fail here, not mid-run).  ``registry`` (socket backend only) is a
        :class:`~repro.distributed.registry.ShardRegistry` the executor's
        coordinator reconciles its roster against at batch boundaries —
        with one, ``shards`` may be omitted and the roster starts from
        whatever workers have announced.  ``graph`` (process backend)
        is the data graph the forked workers inherit, unshipped.
        """
        from repro.runtime.executor import SerialExecutor

        if self.backend == "serial" or (
            self.backend == "auto" and not self.workers
        ):
            return SerialExecutor()
        if self.backend == "socket":
            from repro.distributed.executor import SocketExecutor

            if not self.shards and registry is None:
                raise ConfigError(
                    "backend='socket' needs shards=[...] (repro worker "
                    "addresses like '127.0.0.1:7471') or an attached "
                    "shard registry (workers announce via "
                    "'repro worker --announce')"
                )
            return SocketExecutor(self.shards or (), registry=registry)
        from repro.distributed.executor import ProcessExecutor

        return ProcessExecutor(self.workers, graph=graph)

    def to_dict(self) -> dict[str, Any]:
        """JSON-friendly form (objects reduced to their type names)."""
        return {
            "machines": self.machines,
            "memory_mb": self.memory_mb,
            "partitioner": (
                self.partitioner
                if isinstance(self.partitioner, str)
                else type(self.partitioner).__name__
            ),
            "cost_model": (
                None if self.cost_model is None
                else type(self.cost_model).__name__
            ),
            "stragglers": (
                None if self.stragglers is None else dict(self.stragglers)
            ),
            "workers": self.workers,
            "backend": self.backend,
            "shards": None if self.shards is None else list(self.shards),
            "seed": self.seed,
            "collect": self.collect,
            "limit": self.limit,
        }
