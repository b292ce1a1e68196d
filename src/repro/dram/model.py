"""The full memory system: channels + address mapping + statistics.

This is the DRAMSim2 substitute: the fabric simulator submits 64-byte
burst requests and receives completions with cycle-accurate-in-shape
latencies (row hits/misses, bank parallelism, bus serialisation, channel
interleaving).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.dram.channel import Channel
from repro.dram.request import DramRequest
from repro.dram.timing import (DDR3_1600, DEFAULT_GEOMETRY, DdrTiming,
                               DramGeometry)


class DramModel:
    """Multi-channel DDR3 memory system.

    Usage: ``submit`` burst requests (checking ``can_accept`` per
    channel), call ``tick`` once per core cycle, and consume completions
    via the optional per-request callback or ``drain_completed``.
    """

    def __init__(self, timing: DdrTiming = DDR3_1600,
                 geometry: DramGeometry = DEFAULT_GEOMETRY,
                 queue_depth: int = 64):
        self.timing = timing
        self.geometry = geometry
        self.channels = [Channel(timing, geometry, queue_depth)
                         for _ in range(geometry.channels)]
        self.cycle = 0
        self.reads = 0
        self.writes = 0
        #: tenant whose units are currently ticking (set by the
        #: multi-tenant Fabric before each tenant's tick pass; None in
        #: solo runs).  ``submit`` stamps it onto every request.
        self.tenant: Optional[int] = None
        #: tenant id -> submit/deliver tallies (multi-tenant runs only)
        self._tenant_counts: Dict[int, Dict[str, int]] = {}
        self._callbacks: Dict[int, Callable[[DramRequest], None]] = {}
        self._completed: List[DramRequest] = []
        #: earliest complete_cycle among undelivered requests (None when
        #: nothing is in flight): ``deliver`` is a no-op before it
        self.next_due: Optional[int] = None
        #: submitted but not yet delivered (queued + in flight)
        self._inflight = 0
        #: requests waiting in channel queues (not yet issued)
        self.queued = 0

    def attach_trace(self, tracer, tenant: Optional[int] = None) -> None:
        """Register every channel as an event track on ``tracer``.

        With ``tenant`` given, the tracer only receives events for that
        tenant's requests — each co-resident tenant attaches its own
        tracer and sees its own slice of the shared channels.
        """
        for k, channel in enumerate(self.channels):
            if tenant is None:
                channel.trace = tracer
            else:
                channel.tenant_traces[tenant] = tracer
            channel.trace_name = f"ch{k}"
            tracer.register_track(channel.trace_name, "dram")

    def set_tenant_weight(self, tenant: int, weight: int) -> None:
        """Register one tenant's QoS weight on every channel.

        Weighted FR-FCFS arbitration engages only when the registered
        weights are non-uniform; equal weights (or none) keep every
        channel on the bit-identical plain FR-FCFS path.
        """
        for channel in self.channels:
            channel.set_tenant_weight(tenant, weight)

    @property
    def weighted(self) -> bool:
        """True when non-uniform weights put channels in QoS mode."""
        return any(c._weighted for c in self.channels)

    # -- submission -------------------------------------------------------------
    def channel_of(self, byte_addr: int) -> int:
        """Channel index servicing a byte address."""
        return self.geometry.map_address(byte_addr)[0]

    def can_accept(self, byte_addr: int) -> bool:
        """True when the owning channel queue has room."""
        return self.channels[self.channel_of(byte_addr)].can_accept()

    def submit(self, request: DramRequest,
               callback: Optional[Callable[[DramRequest], None]] = None
               ) -> None:
        """Enqueue one burst request (stamped with the current tenant)."""
        channel = self.channels[self.channel_of(request.byte_addr)]
        channel.submit(request, self.cycle)
        self._inflight += 1
        self.queued += 1
        if request.is_write:
            self.writes += 1
        else:
            self.reads += 1
        tenant = self.tenant
        if tenant is not None:
            request.tenant = tenant
            counts = self._tenant_counts.get(tenant)
            if counts is None:
                counts = self._tenant_counts[tenant] = {
                    "reads": 0, "writes": 0, "submitted": 0,
                    "delivered": 0}
            counts["writes" if request.is_write else "reads"] += 1
            counts["submitted"] += 1
        if callback is not None:
            self._callbacks[request.req_id] = callback

    # -- time -------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the memory system one core cycle."""
        self.cycle += 1
        if not self._inflight:
            return
        for channel in self.channels:
            # an empty queue ticks as a no-op, and only a tick issues
            # (completes) requests
            if channel.queue:
                channel.tick(self.cycle)
                if channel.completed:
                    for request in channel.drain_completed():
                        self.queued -= 1
                        self._completed.append(request)
                        due = request.complete_cycle
                        if self.next_due is None or due < self.next_due:
                            self.next_due = due

    def next_completion(self) -> Optional[int]:
        """Cycle of the earliest undelivered completion (None if none).

        Only meaningful while every channel queue is empty: queued
        requests have no completion cycle until the FR-FCFS scheduler
        issues them.
        """
        return self.next_due

    def advance_to(self, cycle: int) -> None:
        """Fast-forward the memory clock across provably idle cycles.

        Valid only while all channel queues are empty (ticking an empty
        channel is a no-op, so skipping those ticks is exact); in-flight
        completions mature against the advanced clock via ``deliver``.
        """
        self.cycle = cycle

    def deliver(self) -> List[DramRequest]:
        """Requests whose data transfer has finished by the current cycle.

        Completions are buffered until their ``complete_cycle`` passes,
        then returned (and callbacks fired) exactly once.
        """
        if self.next_due is None or self.next_due > self.cycle:
            return []
        ready = [r for r in self._completed
                 if r.complete_cycle <= self.cycle]
        self._completed = [r for r in self._completed
                           if r.complete_cycle > self.cycle]
        self.next_due = min((r.complete_cycle for r in self._completed),
                             default=None)
        self._inflight -= len(ready)
        for request in ready:
            if request.tenant is not None:
                counts = self._tenant_counts.get(request.tenant)
                if counts is not None:
                    counts["delivered"] += 1
            callback = self._callbacks.pop(request.req_id, None)
            if callback is not None:
                callback(request)
        return ready

    @property
    def idle(self) -> bool:
        """True when no work is queued or in flight."""
        return not self._inflight

    @property
    def pending(self) -> int:
        """Requests queued across all channels plus undelivered ones."""
        return self._inflight

    def stats(self) -> dict:
        """Aggregate statistics across channels."""
        total = {"reads": self.reads, "writes": self.writes,
                 "row_hits": 0, "row_misses": 0, "row_empties": 0,
                 "bytes": 0}
        for channel in self.channels:
            for key, value in channel.stats().items():
                total[key] += value
        return total

    def stats_for(self, tenant: Optional[int]) -> dict:
        """Statistics for one tenant (``None`` -> aggregate ``stats``).

        Reads/writes come from submit-time tallies; row hit/miss/empty
        and byte counts are summed from the per-channel per-tenant issue
        tallies, so the sum over tenants reconciles with ``stats()``.
        """
        if tenant is None:
            return self.stats()
        counts = self._tenant_counts.get(tenant, {})
        total = {"reads": counts.get("reads", 0),
                 "writes": counts.get("writes", 0),
                 "row_hits": 0, "row_misses": 0, "row_empties": 0,
                 "bytes": 0}
        for channel in self.channels:
            tally = channel.tenant_stats.get(tenant)
            if tally is None:
                continue
            for key in ("row_hits", "row_misses", "row_empties", "bytes"):
                total[key] += tally[key]
        return total

    def progress_counts(self, tenant: Optional[int]
                        ) -> tuple:
        """(reads, writes, pending) for watchdog progress keys.

        ``None`` is the solo view; a tenant id narrows every component
        to that tenant's requests so one tenant's traffic cannot mask
        another's livelock.
        """
        if tenant is None:
            return (self.reads, self.writes, self.pending)
        counts = self._tenant_counts.get(tenant)
        if counts is None:
            return (0, 0, 0)
        return (counts["reads"], counts["writes"],
                counts["submitted"] - counts["delivered"])

    def channel_util(self, tenant: Optional[int],
                     cycles: int) -> Dict[str, Dict[str, float]]:
        """Per-channel bandwidth-utilization counters.

        For each channel: bursts issued, bytes moved, and ``util`` — the
        fraction of elapsed ``cycles`` the data bus spent transferring
        those bursts (each burst occupies ``t_burst`` bus cycles, and the
        bus serialises bursts, so ``bursts * t_burst / cycles`` is exact
        bus occupancy).  With ``tenant`` given, only that tenant's bursts
        are counted — the per-tenant utilizations sum to the aggregate.

        Channels running weighted QoS arbitration additionally report
        ``arb_won`` / ``arb_deferred`` — contested-arbitration outcomes
        per tenant (summed over tenants for the aggregate view).  The
        keys are absent outside weighted mode, keeping equal-weight
        runs bit-identical to plain FR-FCFS.
        """
        out: Dict[str, Dict[str, float]] = {}
        for k, channel in enumerate(self.channels):
            if tenant is None:
                bursts = channel.bursts
                nbytes = channel.bytes_moved
            else:
                tally = channel.tenant_stats.get(tenant)
                bursts = tally["bursts"] if tally else 0
                nbytes = tally["bytes"] if tally else 0
            util = 0.0
            if cycles > 0:
                util = min(1.0, bursts * self.timing.t_burst / cycles)
            entry: Dict[str, float] = {"bursts": bursts,
                                       "bytes": nbytes, "util": util}
            if channel._weighted:
                if tenant is None:
                    entry["arb_won"] = sum(
                        t["arb_won"] for t in channel.arb_stats.values())
                    entry["arb_deferred"] = sum(
                        t["arb_deferred"]
                        for t in channel.arb_stats.values())
                else:
                    arb = channel.arb_stats.get(
                        tenant, {"arb_won": 0, "arb_deferred": 0})
                    entry["arb_won"] = arb["arb_won"]
                    entry["arb_deferred"] = arb["arb_deferred"]
            out[f"ch{k}"] = entry
        return out

    def achieved_gbps(self) -> float:
        """Average achieved bandwidth so far (GB/s at 1 GHz)."""
        if self.cycle == 0:
            return 0.0
        return self.stats()["bytes"] / self.cycle  # bytes/ns == GB/s
