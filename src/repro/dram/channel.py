"""One DRAM channel: request queue, FR-FCFS scheduling, shared data bus."""

from __future__ import annotations

from typing import List, Optional

from repro.dram.bank import Bank
from repro.dram.request import DramRequest
from repro.dram.timing import DdrTiming, DramGeometry
from repro.errors import DramProtocolError
from repro.trace.events import EventKind


#: credit a tenant may bank across refill rounds, in multiples of its
#: weight — bounds the burst a long-idle tenant can unleash at once
_CREDIT_CAP_ROUNDS = 4


class Channel:
    """A DDR3 channel with per-bank state and an FR-FCFS scheduler.

    Each tick the scheduler issues at most one request: among queued
    requests whose bank could start immediately, row-buffer *hits* win,
    ties broken by age (First-Ready, First-Come-First-Served).  The data
    bus serialises bursts: a burst may not start before the previous one
    finished.

    QoS arbitration
    ---------------
    Multi-tenant fabrics may register per-tenant *weights* via
    :meth:`set_tenant_weight`.  When the registered weights are not all
    equal the scheduler becomes a weighted FR-FCFS: each tenant holds a
    deficit credit counter, refilled proportionally to its weight
    whenever no issuable request belongs to a tenant with credit left,
    and "has credit" is consulted as the leading sort key ahead of the
    row-hit/age key.  The arbitration is work-conserving (a creditless
    tenant still issues when nothing else is issuable) and
    starvation-free (every tenant with queued work gains at least one
    credit per refill round).  With equal weights — including the
    default of no registrations — the scheduler is **bit-identical** to
    plain FR-FCFS: the weighted path is never entered, no counter is
    touched, and the registry-wide equivalence suite asserts it.
    """

    def __init__(self, timing: DdrTiming, geometry: DramGeometry,
                 queue_depth: int = 64):
        self.timing = timing
        self.geometry = geometry
        self.queue_depth = queue_depth
        self.banks = [Bank(timing) for _ in range(geometry.banks_per_channel)]
        self.queue: List[DramRequest] = []
        self.bus_free_at = 0
        self.completed: List[DramRequest] = []
        self.bytes_moved = 0
        #: bursts issued (== bytes_moved / burst_bytes; the per-channel
        #: utilization counters divide this by elapsed cycles)
        self.bursts = 0
        #: tenant id -> per-tenant issue tallies (multi-tenant runs)
        self.tenant_stats: dict = {}
        #: tenant id -> arbitration weight (QoS); weighted scheduling
        #: only activates when these are not all equal
        self.tenant_weights: dict = {}
        #: tenant id -> deficit credits (weighted scheduling only)
        self._credits: dict = {}
        #: True iff registered weights are non-uniform
        self._weighted = False
        #: tenant id -> {"arb_won", "arb_deferred"} — contested weighted
        #: arbitration outcomes (untouched outside weighted mode, so
        #: equal-weight runs stay bit-identical)
        self.arb_stats: dict = {}
        #: tenant id -> tracer (multi-tenant runs attach one per tenant;
        #: a request's events go to its issuing tenant's tracer)
        self.tenant_traces: dict = {}
        #: recent row-activation times, for the tFAW window
        self._activates: List[int] = []
        #: attached by the DramModel when tracing is enabled
        self.trace = None
        self.trace_name = "?"
        #: attached by the event scheduler: called whenever a request
        #: leaves the queue (queue room may have freed)
        self.on_dequeue = None
        #: injected-fault latency added to every burst (0 = healthy;
        #: adding 0 keeps the no-fault path bit-identical)
        self.extra_latency = 0

    # -- interface ------------------------------------------------------------
    def can_accept(self) -> bool:
        """Queue has room for another request."""
        return len(self.queue) < self.queue_depth

    def submit(self, request: DramRequest, now: int) -> None:
        """Enqueue a request (caller must have checked ``can_accept``)."""
        if not self.can_accept():
            raise DramProtocolError("channel queue overflow")
        request.arrival_cycle = now
        request.mapped = self.geometry.map_address(request.byte_addr)
        self.queue.append(request)

    def tick(self, now: int) -> None:
        """Advance one cycle: maybe issue one request to a bank."""
        if not self.queue:
            return
        choice = self._schedule(now)
        if choice is None:
            return
        self.queue.remove(choice)
        if self.on_dequeue is not None:
            self.on_dequeue()
        _, bank_id, row, _ = choice.mapped
        bank = self.banks[bank_id]
        hit = bank.is_hit(row)
        empty = bank.open_row is None
        if not hit:
            self._activates.append(now)
        trace = self.trace
        if self.tenant_traces:
            trace = self.tenant_traces.get(choice.tenant, trace)
        if trace is not None:
            if hit:
                kind = EventKind.DRAM_ROW_HIT
            elif empty:
                kind = EventKind.DRAM_ROW_EMPTY
            else:
                kind = EventKind.DRAM_ROW_MISS
            trace.emit(kind, self.trace_name,
                       (bank_id, len(self.queue)))
        done = bank.issue(row, now, choice.is_write) \
            + self.extra_latency
        # serialise the data bus: burst occupies t_burst ending at `done`
        burst_start = done - self.timing.t_burst
        if burst_start < self.bus_free_at:
            shift = self.bus_free_at - burst_start
            done += shift
        self.bus_free_at = done
        choice.complete_cycle = done
        self.bytes_moved += self.geometry.burst_bytes
        self.bursts += 1
        if choice.tenant is not None:
            tally = self.tenant_stats.get(choice.tenant)
            if tally is None:
                tally = self.tenant_stats[choice.tenant] = {
                    "row_hits": 0, "row_misses": 0, "row_empties": 0,
                    "bytes": 0, "bursts": 0}
            if hit:
                tally["row_hits"] += 1
            elif empty:
                tally["row_empties"] += 1
            else:
                tally["row_misses"] += 1
            tally["bytes"] += self.geometry.burst_bytes
            tally["bursts"] += 1
        self.completed.append(choice)

    def set_tenant_weight(self, tenant: int, weight: int) -> None:
        """Register one tenant's QoS arbitration weight (>= 1).

        Weighted scheduling engages only once the registered weights
        are non-uniform; a fleet of equal weights (any value) keeps the
        scheduler on the bit-identical plain FR-FCFS path.
        """
        if weight < 1:
            raise DramProtocolError(
                f"tenant weight must be >= 1, got {weight}")
        self.tenant_weights[tenant] = weight
        self._credits.setdefault(tenant, 0)
        self._weighted = len(set(self.tenant_weights.values())) > 1

    def _schedule(self, now: int) -> Optional[DramRequest]:
        """FR-FCFS: oldest row hit, else oldest request whose bank is
        ready soonest.  With non-uniform tenant weights registered,
        "issuing tenant still has deficit credit" leads the key."""
        window = self.timing.t_faw
        self._activates = [t for t in self._activates if t > now - window]
        faw_full = len(self._activates) >= self.timing.faw_activates
        skip_horizon = now + self.timing.busy_skip_cycles
        issuable = []
        for request in self.queue:
            _, bank_id, row, _ = request.mapped
            bank = self.banks[bank_id]
            if bank.ready_at > skip_horizon:
                continue  # bank deeply busy; skip this cycle
            hit = bank.is_hit(row)
            if not hit and faw_full:
                continue  # would need an activate; tFAW window exhausted
            issuable.append((request, hit))
        if not issuable:
            return None
        if not self._weighted:
            best = None
            best_key = None
            for request, hit in issuable:
                key = (0 if hit else 1, request.arrival_cycle,
                       request.req_id)
                if best_key is None or key < best_key:
                    best, best_key = request, key
            return best
        return self._schedule_weighted(issuable)

    def _schedule_weighted(self, issuable) -> DramRequest:
        """Deficit-credit arbitration over the issuable set.

        Refill happens when no issuable request's tenant has credit:
        every tenant with *queued* work (issuable or not) gains credits
        proportional to its weight, capped so a long-blocked tenant
        cannot bank an unbounded burst.  The winner spends one credit.
        """
        credits = self._credits
        weights = self.tenant_weights
        if not any(credits.get(r.tenant, 0) > 0 for r, _ in issuable):
            for tenant in {r.tenant for r in self.queue}:
                weight = weights.get(tenant, 1)
                credits[tenant] = min(credits.get(tenant, 0) + weight,
                                      weight * _CREDIT_CAP_ROUNDS)
        best = None
        best_key = None
        for request, hit in issuable:
            key = (0 if credits.get(request.tenant, 0) > 0 else 1,
                   0 if hit else 1, request.arrival_cycle,
                   request.req_id)
            if best_key is None or key < best_key:
                best, best_key = request, key
        winner = best.tenant
        credits[winner] = credits.get(winner, 0) - 1
        contenders = {r.tenant for r, _ in issuable}
        if len(contenders) > 1:
            self._arb_tally(winner)["arb_won"] += 1
            for tenant in contenders:
                if tenant != winner:
                    self._arb_tally(tenant)["arb_deferred"] += 1
        return best

    def _arb_tally(self, tenant) -> dict:
        tally = self.arb_stats.get(tenant)
        if tally is None:
            tally = self.arb_stats[tenant] = {"arb_won": 0,
                                              "arb_deferred": 0}
        return tally

    def drain_completed(self) -> List[DramRequest]:
        """Return and clear the completed-request list."""
        done, self.completed = self.completed, []
        return done

    @property
    def pending(self) -> int:
        """Requests still queued."""
        return len(self.queue)

    def stats(self) -> dict:
        """Aggregate bank statistics."""
        return {
            "row_hits": sum(b.hits for b in self.banks),
            "row_misses": sum(b.misses for b in self.banks),
            "row_empties": sum(b.empties for b in self.banks),
            "bytes": self.bytes_moved,
        }
