"""Simulation schedulers: the dense reference loop and the event-driven
wakeup scheduler.

The machine can run under two interchangeable, cycle-exact schedulers:

* :func:`run_dense` — the reference implementation: every controller and
  scratchpad ticks on every cycle.  Simple, obviously correct, slow.
* :class:`EventScheduler` — the default: units that report a *park*
  (a provable no-op tick with constant per-cycle accounting) leave the
  tick set and are re-armed only by the event that can unblock them
  (FIFO push/pop/close, DRAM queue room, DRAM completion, a timer, or a
  child activation/completion).  When *nothing* is runnable and all DRAM
  channel queues are empty, the scheduler fast-forwards the cycle
  counter to the next known event and bulk-applies the skipped cycles'
  accounting.

Cycle-exactness contract
------------------------
Both schedulers must produce identical :class:`~repro.sim.stats.SimStats`
and identical stall-attribution counters/timelines for any program.  The
event scheduler guarantees this by construction:

* a unit parks only from inside a tick branch that performed *only*
  constant per-cycle accounting (the :class:`Park` records exactly those
  effects, which are replayed for every skipped cycle);
* wakeups are liberal — a spurious wake just re-runs a tick the dense
  loop would have run anyway — while every event that could change a
  parked unit's behaviour is guaranteed to wake it;
* per-cycle processing iterates units in the dense loop's order, so
  intra-cycle interactions (who grabs the last DRAM queue slot, when a
  parent observes a child's completion) resolve identically;
* fast-forward only happens when no unit is runnable *and* every DRAM
  channel queue is empty, so the only future events are completions at
  known cycles and parked-unit timers.  Skipped cycles are accounted in
  bulk (including the every-256-cycle scratchpad retirement sweep and
  the deadlock watchdog, which trips at the same cycle it would under
  the dense loop).

Sampled *discrete* trace events (the diagnostic ring buffer) are not
replayed for skipped cycles; attribution counters and RLE timelines —
the numbers every report is built from — stay exact.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Set, Tuple

from repro.trace.events import StallCause

#: recognised scheduler modes (CLI + Machine API)
SCHEDULER_MODES = ("event", "dense")

#: executed cycles between voluntary yields of the span generators
#: (bounds how long one batch instance can monopolise the driver)
_SPAN_CYCLES = 2048
#: fast-forward jumps at least this long also end a span; shorter ones
#: (bank-conflict serialisation, say) keep running, since a resume
#: costs more than the few cycles it would reorder
_YIELD_JUMP = 64


class Park:
    """One parked unit: its wakeup set plus the exact per-cycle effects
    the dense loop would have applied while it stays blocked.

    ``until``          — absolute cycle at which the unit must re-tick
                         (pipeline drain, bank-conflict serialisation);
    ``busy_unit``      — leaf name charged ``SimStats.busy`` per cycle;
    ``counters``       — ``SimStats`` attribute names incremented by 1
                         per cycle (e.g. ``dram_stall_cycles``);
    ``fifo_counters``  — ``(FifoSim, attr)`` pairs incremented per cycle
                         (e.g. ``full_stalls``);
    ``marks``          — ``(unit_name, StallCause)`` attribution marks
                         emitted per cycle (first mark wins, as in the
                         dense loop);
    ``wake_fifos``     — FIFO names whose push/pop/close/reopen re-arms
                         the unit;
    ``wake_dram_room`` — re-arm when any DRAM channel dequeues (queue
                         room may have freed).

    DRAM completions always wake the issuing unit (the completion
    callback notifies the scheduler), so parks never need to subscribe
    to them explicitly.
    """

    __slots__ = ("until", "busy_unit", "counters", "fifo_counters",
                 "marks", "wake_fifos", "wake_dram_room")

    def __init__(self, until: Optional[int] = None,
                 busy_unit: Optional[str] = None,
                 counters: Tuple[str, ...] = (),
                 fifo_counters: Tuple = (),
                 marks: Tuple[Tuple[str, StallCause], ...] = (),
                 wake_fifos: Tuple[str, ...] = (),
                 wake_dram_room: bool = False):
        self.until = until
        self.busy_unit = busy_unit
        self.counters = counters
        self.fifo_counters = fifo_counters
        self.marks = marks
        self.wake_fifos = wake_fifos
        self.wake_dram_room = wake_dram_room


#: shared no-effect park (a wait with no per-cycle accounting)
EMPTY_PARK = Park()


def run_dense(machine, max_cycles: int):
    """The reference dense loop: tick everything, every cycle."""
    for _ in dense_spans(machine, max_cycles):
        pass
    return machine.stats


def dense_spans(machine, max_cycles: int):
    """:func:`run_dense` as a resumable generator (see
    :meth:`EventScheduler.spans`): yields the current cycle every
    ``_SPAN_CYCLES`` cycles so a batch driver can interleave instances."""
    machine.root.start({}, ())
    trace = machine.tracer
    faults = machine.faults
    last_progress_key = None
    last_progress_cycle = 0
    while machine.root.busy:
        machine.cycle += 1
        if machine.cycle > max_cycles:
            machine._raise_limit(max_cycles)
        if faults is not None and faults.next_cycle <= machine.cycle:
            faults.apply(machine.cycle)
        if trace is not None:
            trace.begin_cycle(machine.cycle)
        machine.dram.tick()
        machine.dram.deliver()
        machine.tick_units(machine.cycle)
        if machine.cycle % 256 == 0:
            machine.mem.retire_old()
        key = machine._progress_key()
        if key != last_progress_key:
            last_progress_key = key
            last_progress_cycle = machine.cycle
            if trace is not None:
                trace.progress(machine.cycle)
        elif machine.cycle - last_progress_cycle > machine.watchdog:
            machine._raise_deadlock(last_progress_cycle)
        if trace is not None:
            trace.end_cycle()
        if machine.cycle % _SPAN_CYCLES == 0:
            yield machine.cycle
    machine._epilogue()


#: unit states under the event scheduler
_IDLE, _RUNNING, _PARKED = 0, 1, 2


class EventScheduler:
    """Event-driven wakeup scheduler (cycle-exact vs the dense loop)."""

    def __init__(self, machine):
        self.m = machine
        self.outers = machine._outers
        self.leaves = machine._leaves
        #: child sim -> parent OuterControllerSim (completion wakeups)
        self._parent: Dict[int, object] = {}
        for outer in self.outers:
            for child in outer.children:
                self._parent[id(child)] = outer
        for node in self.outers + self.leaves:
            node._sched = self
            node._sched_state = _IDLE
            node._park = None
        for fifo in machine.fifos.values():
            fifo.sched = self
        for channel in machine.dram.channels:
            channel.on_dequeue = self._dram_room_event
        self.num_running = 0
        self._fifo_waiters: Dict[str, Set] = {}
        self._room_waiters: Set = set()
        self._timers: List[Tuple[int, int, object]] = []
        self._timer_seq = 0
        #: diagnostics: executed cycles vs fast-forwarded cycles
        self.executed_cycles = 0
        self.fast_forwarded_cycles = 0

    # -- wakeup plumbing (called from units, FIFOs, and DRAM) ------------------
    def node_started(self, node) -> None:
        """A parent activated ``node``: it joins the tick set."""
        state = node._sched_state
        if state == _RUNNING:
            return
        if state == _PARKED:
            self._unsubscribe(node)
        node._park = None
        node._sched_state = _RUNNING
        self.num_running += 1

    def node_event(self, node) -> None:
        """Something happened *to* a unit (a DRAM completion): re-arm."""
        self._wake(node)

    def fifo_event(self, fifo) -> None:
        """A FIFO changed (push/pop/close/reopen): wake its waiters."""
        waiters = self._fifo_waiters.get(fifo.decl.name)
        if waiters:
            for node in list(waiters):
                self._wake(node)

    def _dram_room_event(self) -> None:
        """A channel dequeued a request: queue room may have freed."""
        if self._room_waiters:
            for node in list(self._room_waiters):
                self._wake(node)

    def _wake(self, node) -> None:
        if node._sched_state != _PARKED:
            return
        self._unsubscribe(node)
        node._park = None
        node._sched_state = _RUNNING
        self.num_running += 1

    def _unsubscribe(self, node) -> None:
        park = node._park
        if park is None:
            return
        for name in park.wake_fifos:
            waiters = self._fifo_waiters.get(name)
            if waiters is not None:
                waiters.discard(node)
        if park.wake_dram_room:
            self._room_waiters.discard(node)
        # timers are invalidated lazily (checked when popped)

    def _park_node(self, node) -> None:
        park = node._park
        node._sched_state = _PARKED
        self.num_running -= 1
        for name in park.wake_fifos:
            self._fifo_waiters.setdefault(name, set()).add(node)
        if park.wake_dram_room:
            self._room_waiters.add(node)
        if park.until is not None:
            heapq.heappush(self._timers,
                           (park.until, self._timer_seq, node))
            self._timer_seq += 1

    def _finish_node(self, node) -> None:
        node._sched_state = _IDLE
        self.num_running -= 1
        parent = self._parent.get(id(node))
        if parent is not None:
            self._wake(parent)

    # -- per-cycle effect replay ------------------------------------------------
    def _apply_park_effects(self, park: Park, n: int) -> None:
        """Replay ``n`` skipped cycles' worth of a park's accounting."""
        stats = self.m.stats
        if park.busy_unit is not None:
            stats.busy(park.busy_unit, n)
        for attr in park.counters:
            setattr(stats, attr, getattr(stats, attr) + n)
        for fifo, attr in park.fifo_counters:
            setattr(fifo, attr, getattr(fifo, attr) + n)

    def _parked_cause_map(self) -> Dict[str, StallCause]:
        """Merged per-unit attribution for a span of all-parked cycles,
        in dense tick order (outers before leaves, first mark wins)."""
        cause_map: Dict[str, StallCause] = {}
        for outer in self.outers:
            if outer._sched_state == _PARKED:
                for unit, cause in outer._park.marks:
                    cause_map.setdefault(unit, cause)
        for leaf in self.leaves:
            if leaf._sched_state == _PARKED:
                for unit, cause in leaf._park.marks:
                    cause_map.setdefault(unit, cause)
        return cause_map

    # -- fast-forward -----------------------------------------------------------
    def _next_timer(self) -> Optional[int]:
        """Earliest valid park timer (lazily discarding stale entries)."""
        timers = self._timers
        while timers:
            until, _, node = timers[0]
            park = node._park
            if (node._sched_state == _PARKED and park is not None
                    and park.until == until):
                return until
            heapq.heappop(timers)
        return None

    def _fast_forward(self, cycle: int, last_progress: int,
                      max_cycles: int) -> int:
        """No unit is runnable: jump towards the next known event.

        Returns the (possibly advanced) current cycle; the main loop
        resumes normal processing at the cycle after it.  Only legal to
        skip cycles while every DRAM channel queue is empty — queued
        requests make the FR-FCFS schedule cycle-sensitive, so those
        regimes step cycle by cycle (with only the DRAM model active).
        """
        m = self.m
        dram = m.dram
        if dram.queued:
            return cycle
        wd_trip = last_progress + m.watchdog + 1
        target = wd_trip  # nothing pending: emulate the watchdog spin
        timer = self._next_timer()
        if timer is not None and timer < target:
            target = timer
        completion = dram.next_completion()
        if completion is not None and completion < target:
            target = completion
        # never jump over a scheduled fault event: resume normal
        # processing at its exact cycle so injection stays deterministic
        if m.faults is not None and m.faults.next_cycle < target:
            target = m.faults.next_cycle
        if target > max_cycles + 1:
            target = max_cycles + 1
        skipped = target - 1 - cycle
        if skipped <= 0:
            return cycle
        for leaf in self.leaves:
            if leaf._sched_state == _PARKED:
                self._apply_park_effects(leaf._park, skipped)
        trace = m.tracer
        if trace is not None:
            trace.account_span(self._parked_cause_map(), cycle + 1,
                               skipped)
        # the dense loop's every-256-cycle retirement sweep falls inside
        # the skipped span: run it (once is equivalent — no unit writes
        # between the skipped boundaries)
        if (cycle + skipped) // 256 > cycle // 256:
            m.mem.retire_old()
        dram.advance_to(cycle + skipped)
        self.fast_forwarded_cycles += skipped
        return cycle + skipped

    # -- main loop ----------------------------------------------------------------
    def run(self, max_cycles: int):
        for _ in self.spans(max_cycles):
            pass
        return self.m.stats

    def spans(self, max_cycles: int):
        """Run as a resumable generator, yielding the current cycle at
        span boundaries (after each fast-forward jump of at least
        ``_YIELD_JUMP`` cycles and every ``_SPAN_CYCLES`` executed
        cycles).

        This is how :func:`repro.sim.batch.run_batch` interleaves many
        instances of one design: each instance's scheduler is advanced
        span by span, with the batch driver always resuming the instance
        whose next-wake cycle is smallest.  :meth:`run` drains the
        generator in place, so a solo run is the single-instance special
        case of the same loop.
        """
        m = self.m
        m.root.start({}, ())
        self.node_started(m.root)
        trace = m.tracer
        faults = m.faults
        stats = m.stats
        busy_cycles = stats.busy_cycles
        outers = self.outers
        leaves = self.leaves
        root = m.root
        dram = m.dram
        dram_tick = dram.tick
        dram_deliver = dram.deliver
        progress_key = m._progress_key
        retire = m.mem.retire_old
        watchdog = m.watchdog
        timers = self._timers
        last_progress_key = None
        last_progress_cycle = 0
        executed = 0
        cycle = m.cycle
        while root._active:
            cycle += 1
            m.cycle = cycle
            if cycle > max_cycles:
                self.executed_cycles += executed
                m._raise_limit(max_cycles)
            if faults is not None and faults.next_cycle <= cycle:
                faults.apply(cycle)
            executed += 1
            if trace is not None:
                trace.begin_cycle(cycle)
            while timers and timers[0][0] <= cycle:
                until, _, node = heapq.heappop(timers)
                park = node._park
                if (node._sched_state == _PARKED and park is not None
                        and park.until == until):
                    self._wake(node)
            dram_tick()      # may free queue room -> wakes waiters
            due = dram.next_due
            if due is not None and due <= cycle:
                dram_deliver()   # completions -> wake issuing units
            for outer in outers:
                state = outer._sched_state
                if state == _RUNNING:
                    outer._park = None
                    outer.tick(cycle)
                    if not outer._active:
                        self._finish_node(outer)
                    elif outer._park is not None:
                        self._park_node(outer)
                elif state == _PARKED and trace is not None:
                    for unit, cause in outer._park.marks:
                        trace.mark(unit, cause)
            for leaf in leaves:
                state = leaf._sched_state
                if state == _RUNNING:
                    leaf._park = None
                    leaf.tick(cycle)
                    if not leaf._active:
                        self._finish_node(leaf)
                    elif leaf._park is not None:
                        self._park_node(leaf)
                elif state == _PARKED:
                    park = leaf._park
                    unit = park.busy_unit
                    if unit is not None:
                        busy_cycles[unit] = busy_cycles.get(unit, 0) + 1
                    for attr in park.counters:
                        setattr(stats, attr, getattr(stats, attr) + 1)
                    for fifo, attr in park.fifo_counters:
                        setattr(fifo, attr, getattr(fifo, attr) + 1)
                    if trace is not None:
                        for unit, cause in park.marks:
                            trace.mark(unit, cause)
            if cycle % 256 == 0:
                retire()
            key = progress_key()
            if key != last_progress_key:
                last_progress_key = key
                last_progress_cycle = cycle
                if trace is not None:
                    trace.progress(cycle)
            elif cycle - last_progress_cycle > watchdog:
                self.executed_cycles += executed
                m._raise_deadlock(last_progress_cycle)
            if trace is not None:
                trace.end_cycle()
            if self.num_running == 0 and root._active and not dram.queued:
                jumped = self._fast_forward(cycle, last_progress_cycle,
                                            max_cycles)
                if jumped != cycle:
                    skipped = jumped - cycle
                    cycle = jumped
                    m.cycle = cycle
                    if skipped >= _YIELD_JUMP:
                        yield cycle
            if executed % _SPAN_CYCLES == 0:
                yield cycle
        self.executed_cycles += executed
        m._epilogue()
