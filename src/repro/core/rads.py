"""RADS engine: SM-E split + asynchronous R-Meef with region-group
work stealing (paper Sec. 3, 6 and the checkR/shareR protocol).

Machines run independently on their own virtual clocks — there are no
barriers anywhere.  Phase 1 (SM-E + region grouping) is one independent
task per machine and fans out through the executor.  Phase 2 runs on the
caller's cluster, which holds phase 1's merged deltas: the scheduler
always advances the machine with the smallest clock, which is exactly how
an asynchronous cluster interleaves; an idle machine broadcasts `checkR`
and steals a region group (`shareR`) from the most loaded peer.  Counts
and reported stats are identical on every backend and worker count.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.cluster.cluster import Cluster
from repro.cluster.machine import SimulatedMemoryError
from repro.core.cache import ForeignVertexCache
from repro.core.region import MemoryEstimator, RegionGrouper
from repro.core.rmeef import RMeefWorker
from repro.core.sme import SingleMachineSplit
from repro.engines.base import EnumerationEngine
from repro.query.pattern import Pattern
from repro.query.plan import ExecutionPlan, best_execution_plan
from repro.runtime.executor import Executor

#: Default simulated memory budget when the cluster has no explicit cap.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024
#: Plans an engine keeps (least recently used out): distinct patterns cannot grow it.
PLAN_MEMO = 256


def _process_group_splitting(
    worker: RMeefWorker,
    group: list[int],
    collect: bool,
    results: list[tuple[int, ...]],
) -> int:
    """Process one region group, splitting and retrying on simulated OOM.

    The memory estimate behind region grouping is only an estimate
    (Sec. 6); when a group's actual trie outgrows the capacity, halving
    it restores the invariant the estimate was meant to uphold.  A
    single-candidate group that still does not fit is a genuine OOM.
    Returns the number of embeddings the group produced.
    """
    try:
        found = worker.process_group(group, collect)
    except SimulatedMemoryError:
        if len(group) <= 1:
            raise
        mid = len(group) // 2
        count = _process_group_splitting(worker, group[:mid], collect, results)
        count += _process_group_splitting(worker, group[mid:], collect, results)
        return count
    if collect:
        results.extend(found)
    return worker.last_group_count


def _steal(cluster: Cluster, thief: int, victims: list[int], queues) -> list[int]:
    """``thief`` takes the next group of the most backlogged of ``victims``."""
    # checkR: broadcast probe for unprocessed group counts.
    cluster.network.broadcast(cluster.machine(thief), cluster.machines, nbytes=8)
    victim = max(victims, key=lambda t: len(queues[t]))
    group = queues[victim].popleft()
    # shareR: the stolen group's candidate ids cross the wire.
    cluster.network.rpc(
        requester=cluster.machine(thief),
        responder=cluster.machine(victim),
        request_bytes=8,
        response_bytes=len(group) * cluster.cost_model.bytes_per_vertex_id,
        service_ops=float(len(group)),
    )
    return group


def _phase1_task(cluster: Cluster, args: tuple) -> tuple:
    """SM-E split + region grouping for one machine (independent unit)."""
    (
        t, split, leaves, enable_sme, collect,
        results_budget, min_groups, grouping,
    ) = args
    local = cluster.partition.machine(t)
    machine = cluster.machine(t)
    estimator = MemoryEstimator(leaves)
    embeddings: list[tuple[int, ...]] = []
    sme_count = 0
    if enable_sme:
        sme = split.run(local, machine, estimator, collect)
        sme_count, embeddings = sme.count, sme.embeddings
        distributed = sme.distributed_candidates
    else:
        distributed = split.candidates(local)
    machine.charge_ops(len(distributed), "grouping_ops")
    costs = estimator.estimate_many(local.graph.degrees()[distributed])
    budget = min(results_budget, max(1.0, int(costs.sum()) / min_groups))
    grouper = RegionGrouper(
        graph=local.graph,
        estimator=estimator,
        budget_bytes=budget,
        seed=t,
        strategy=grouping,
    )
    return t, sme_count, embeddings, grouper.groups(distributed, costs)


class RADSEngine(EnumerationEngine):
    """Robust Asynchronous Distributed Subgraph enumeration."""

    name = "RADS"
    explain_note = (
        "round 0 splits off single-machine embeddings (SM-E), then one "
        "asynchronous R-Meef round per unit expands the pivot's leaves "
        "and checks the verification edges; idle machines steal region "
        "groups (checkR/shareR)"
    )

    def __init__(
        self,
        plan_provider: Callable[[Pattern], ExecutionPlan] | None = None,
        enable_sme: bool = True,
        enable_work_stealing: bool = True,
        results_budget_fraction: float = 0.45,
        cache_budget_fraction: float = 0.35,
        min_groups_per_machine: int = 4,
        grouping: str = "proximity",
    ):
        self._plan_provider = plan_provider or best_execution_plan
        self._enable_sme = enable_sme
        self._enable_work_stealing = enable_work_stealing
        self._results_fraction = results_budget_fraction
        self._cache_fraction = cache_budget_fraction
        #: Region-group construction strategy ("proximity" per Algorithm 3,
        #: or "random" — the naive grouping of Sec. 6 — for ablations).
        self._grouping = grouping
        # Even when memory is plentiful, keep a few groups per machine so
        # checkR/shareR has units of work to rebalance (a machine's whole
        # workload in one group cannot be shared).
        self._min_groups = max(1, min_groups_per_machine)
        self.last_plan: ExecutionPlan | None = None
        #: The plan chosen per pattern (``PLAN_MEMO`` at most): a run reuses it.
        self._plans: dict[Pattern, ExecutionPlan] = {}

    # ------------------------------------------------------------------
    def execution_plan(self, pattern: Pattern, plans=None) -> ExecutionPlan:
        """The plan the configured ``plan_provider`` would execute."""
        if self._plan_provider is best_execution_plan:
            return best_execution_plan(pattern, plans=plans)
        return self._plan_provider(pattern)

    def _explain_extras(self, pattern: Pattern) -> dict:
        return {
            "grouping": self._grouping,
            "sme_enabled": self._enable_sme,
            "work_stealing": self._enable_work_stealing,
        }

    def _budgets(self, cluster: Cluster) -> tuple[float, float]:
        capacity = cluster.memory_capacity
        if capacity is None:
            capacity = DEFAULT_BUDGET_BYTES
        return (
            capacity * self._results_fraction,
            capacity * self._cache_fraction,
        )

    def _execute(
        self,
        cluster: Cluster,
        pattern: Pattern,
        constraints: list[tuple[int, int]],
        collect: bool,
        executor: Executor,
    ) -> list[tuple[int, ...]]:
        plan = self._plans[pattern] = self._plans.pop(pattern, None) or self._plan_provider(pattern)
        if len(self._plans) > PLAN_MEMO:
            del self._plans[next(iter(self._plans))]
        self.last_plan = plan
        split = SingleMachineSplit(pattern, plan, constraints)
        results_budget, cache_budget = self._budgets(cluster)
        results: list[tuple[int, ...]] = []
        self._count = 0
        queues: dict[int, deque[list[int]]] = {}

        # Phase 1 (per machine, independent): SM-E and region grouping.
        with self.round_span("sm-e", machines=cluster.num_machines):
            phase1 = executor.run_tasks(
                cluster,
                _phase1_task,
                [
                    (
                        t, split, len(plan.units[0].leaves), self._enable_sme,
                        collect, results_budget, self._min_groups,
                        self._grouping,
                    )
                    for t in range(cluster.num_machines)
                ],
            )
            for t, sme_count, embeddings, groups in phase1:
                self._count += sme_count
                if collect:
                    results.extend(embeddings)
                queues[t] = deque(groups)

        # Phase 2 (on this cluster, whatever the backend): process region
        # groups, always advancing the machine with the smallest clock and
        # stealing when idle.
        with self.round_span(
            "r-meef", groups=sum(len(q) for q in queues.values())
        ) as span:
            steals = self._run_steal_loop(
                cluster, pattern, plan, constraints, collect,
                cache_budget, results_budget, queues, results,
            )
            span.set(steals=steals)
        return results

    def _run_steal_loop(
        self,
        cluster: Cluster,
        pattern: Pattern,
        plan: ExecutionPlan,
        constraints: list[tuple[int, int]],
        collect: bool,
        cache_budget: float,
        results_budget: float,
        queues: "dict[int, deque[list[int]]]",
        results: list[tuple[int, ...]],
    ) -> int:
        """Clock-driven R-Meef round with reactive work stealing; returns
        the number of groups stolen."""
        workers = {
            t: RMeefWorker(
                cluster, pattern, plan, constraints, t,
                ForeignVertexCache(int(cache_budget)),
                flush_threshold=results_budget / 2,
            )
            for t in range(cluster.num_machines)
        }
        done: set[int] = set()
        steals = 0
        while len(done) < cluster.num_machines:
            # The paper's "executor machine": the one whose clock is
            # furthest behind.
            active = min(
                (t for t in range(cluster.num_machines) if t not in done),
                key=lambda t: cluster.machine(t).clock,
            )
            if queues[active]:
                group = queues[active].popleft()
            elif self._enable_work_stealing:
                # Stealing a group means fetching all its candidates'
                # adjacency remotely, so it only pays off against a real
                # backlog: steal from machines with at least two pending
                # groups (the checkR counts tell us).
                victims = [
                    t for t in range(cluster.num_machines)
                    if t != active and len(queues[t]) >= 2
                ]
                if not victims:
                    done.add(active)
                    continue
                group = _steal(cluster, active, victims, queues)
                steals += 1
            else:
                done.add(active)
                continue
            self._count += _process_group_splitting(
                workers[active], group, collect, results
            )
        return steals
