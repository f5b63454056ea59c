"""Simulated network: message accounting and the RPC / shuffle primitives."""

from __future__ import annotations

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.cluster.machine import Machine


class Network:
    """Tracks every byte crossing machine boundaries.

    Two communication idioms cover all five engines:

    - :meth:`rpc` — the asynchronous request/response used by RADS
      (`fetchV`, `verifyE`): the *requester* blocks for the round trip; the
      responder's daemon thread absorbs the service cost without blocking
      the responder's main thread.
    - :meth:`shuffle` — the bulk-synchronous exchange used by the join-based
      engines and PSgL: all machines exchange intermediate results, then hit
      a barrier.
    """

    def __init__(self, num_machines: int, cost_model: CostModel):
        self._cost_model = cost_model
        self.bytes_sent = np.zeros((num_machines, num_machines), dtype=np.int64)
        self.messages = 0

    # ------------------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        """All bytes that crossed machine boundaries."""
        return int(self.bytes_sent.sum())

    def record(self, src: int, dst: int, nbytes: int) -> None:
        """Account a one-way payload."""
        self.bytes_sent[src, dst] += nbytes
        self.messages += 1

    # ------------------------------------------------------------------
    def rpc(
        self,
        requester: Machine,
        responder: Machine,
        request_bytes: int,
        response_bytes: int,
        service_ops: float = 0.0,
    ) -> None:
        """Blocking request/response served by the responder's daemon."""
        if requester.machine_id == responder.machine_id:
            requester.charge_ops(service_ops, "local_service_ops")
            return
        model = self._cost_model
        self.record(requester.machine_id, responder.machine_id, request_bytes)
        self.record(responder.machine_id, requester.machine_id, response_bytes)
        service_time = model.compute_time(service_ops) / responder.speed_factor
        requester.advance(
            model.message_time(request_bytes)
            + service_time
            + model.message_time(response_bytes)
        )
        responder.charge_daemon_ops(service_ops)

    def shuffle(self, machines: list[Machine], payload: np.ndarray) -> None:
        """All-to-all exchange of ``payload[src, dst]`` bytes with a barrier.

        Each machine's send time is its outgoing volume; each machine then
        waits for its incoming volume; the slowest machine gates everyone
        (synchronisation delay).
        """
        model = self._cost_model
        n = len(machines)
        for src in range(n):
            for dst in range(n):
                if src != dst and payload[src, dst] > 0:
                    self.record(src, dst, int(payload[src, dst]))
        for i, machine in enumerate(machines):
            out_bytes = int(payload[i, :].sum() - payload[i, i])
            in_bytes = int(payload[:, i].sum() - payload[i, i])
            if out_bytes or in_bytes:
                machine.advance(
                    model.latency_s
                    + model.transfer_time(out_bytes)
                    + model.transfer_time(in_bytes)
                )
        latest = max(m.clock for m in machines)
        for machine in machines:
            machine.clock = latest

    def broadcast(
        self, sender: Machine, receivers: list[Machine], nbytes: int
    ) -> None:
        """One-to-all message (used by checkR load-balancing probes)."""
        model = self._cost_model
        for receiver in receivers:
            if receiver.machine_id == sender.machine_id:
                continue
            self.record(sender.machine_id, receiver.machine_id, nbytes)
        sender.advance(model.message_time(nbytes * max(1, len(receivers) - 1)))
