"""Batched simulation: N instances of one compiled design, one pass.

Figure-7 sweeps, DSE, fuzz campaigns, and service traffic all simulate
the *same compiled structure* under different parameters.  Running those
instances independently re-evaluates every datapath expression N times,
and profiling shows expression evaluation is ~85% of simulated wall
time.  ``run_batch`` removes that redundancy without giving up
cycle-exactness:

* Instances are grouped into **cohorts** by their *functional* inputs
  (the DRAM data they run on).  Timing-only overrides — pipeline depth,
  network hops, banking, coalescer entries, DRAM queue depth — cannot
  change any architecturally visible value the datapath produces: the
  counter-chain enumeration order is fixed by the compiled chain, FIFO
  order is preserved under backpressure, and parent/child hand-off is
  in-order per leaf.  All members of a cohort therefore compute the
  same value stream.
* The first member of each cohort (the **leader**) runs normally while
  recording a columnar functional log per inner-compute activation:
  for every vector issue, the SRAM/register/hash writes it performed
  (struct-of-arrays: flat addresses and values as numpy arrays), the
  FIFO words it emitted, and the read/write address groups that price
  bank conflicts.
* Every other member (a **follower**) runs the *identical* cycle-level
  timing loop — scheduler, outer controllers, transfers, DRAM model,
  FIFO backpressure, stall attribution — but its inner-compute leaves
  replay the recorded effects instead of evaluating expressions.
  Conflict pricing is re-derived per instance from the recorded address
  groups, so ``banks`` overrides still reshape every stall.
* Followers step **jointly**: each instance's scheduler runs as a
  resumable span generator, and the driver always resumes the instance
  with the smallest next-wake cycle (a heap of ``(wake, index)``;
  retired instances simply leave it).

Per-instance ``SimStats``, memory images, and stall attribution are
bit-identical to N sequential ``Machine.run`` calls; the equivalence
suite enforces that across the whole app registry and the fuzz corpus.
A leader that fails (deadlock, max-cycles, runaway bound) degrades
gracefully: its cohort's remaining members fall back to full solo runs.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dhdl.ir import InnerCompute
from repro.dram.model import DramModel
from repro.errors import ConfigError, DeadlockError, SimulationError
from repro.sim.leaves import InnerComputeSim
from repro.sim.machine import Machine
from repro.sim.scheduler import SCHEDULER_MODES
from repro.sim.stats import SimStats
from repro.trace.events import EventKind

#: overrides that only change *when* things happen, never *what* values
#: the datapath computes — cohort members may differ in these freely
TIMING_KEYS = frozenset({
    "stages", "pipeline_depth", "input_hops", "output_hops", "banks",
    "coalesce_entries", "dram_queue_depth", "watchdog", "max_cycles",
})

#: overrides that change the computed values; they split cohorts
FUNCTIONAL_KEYS = frozenset({"data"})


# ---------------------------------------------------------------------------
# Parameter handling
# ---------------------------------------------------------------------------


def normalize_params(entry: Optional[dict]) -> dict:
    """Validate one instance's override dict (None means defaults)."""
    if entry is None:
        entry = {}
    if not isinstance(entry, dict):
        raise ConfigError(
            f"batch params must be dicts, got {type(entry).__name__}")
    unknown = set(entry) - TIMING_KEYS - FUNCTIONAL_KEYS
    if unknown:
        raise ConfigError(
            f"unsupported batch override(s) {sorted(unknown)}; "
            f"timing: {sorted(TIMING_KEYS)}, "
            f"functional: {sorted(FUNCTIONAL_KEYS)}")
    if "stages" in entry and "pipeline_depth" in entry:
        raise ConfigError(
            "give either 'stages' or 'pipeline_depth', not both "
            "(they are aliases)")
    data = entry.get("data")
    if data is not None and not isinstance(data, dict):
        raise ConfigError("'data' override must map DRAM array names "
                          "to arrays")
    return entry


def cohort_key(entry: dict) -> Tuple:
    """Hashable digest of an entry's functional inputs.

    Instances with equal keys compute identical value streams and can
    share one leader's functional log.
    """
    data = entry.get("data")
    if not data:
        return ()
    parts = []
    for name in sorted(data):
        arr = np.asarray(data[name])
        parts.append((name, str(arr.dtype), tuple(arr.shape),
                      hashlib.sha256(arr.tobytes()).hexdigest()))
    return tuple(parts)


def _unpack(source) -> Tuple:
    """Accept a Bitstream, a (dhdl, config) pair, or a Machine-like."""
    if hasattr(source, "dhdl") and hasattr(source, "config"):
        return source.dhdl, source.config
    if isinstance(source, tuple) and len(source) == 2:
        return source
    raise ConfigError(
        f"cannot batch-run {type(source).__name__}; pass a Bitstream "
        "or a (dhdl, config) pair")


def _configured(config, ov: dict):
    """A FabricConfig with this instance's timing overrides applied."""
    depth = ov.get("pipeline_depth", ov.get("stages"))
    in_hops = ov.get("input_hops")
    out_hops = ov.get("output_hops")
    changes = {}
    if depth is not None or in_hops is not None or out_hops is not None:
        patch = {}
        if depth is not None:
            patch["pipeline_depth"] = max(1, int(depth))
        if in_hops is not None:
            patch["input_hops"] = max(0, int(in_hops))
        if out_hops is not None:
            patch["output_hops"] = max(0, int(out_hops))
        changes["leaf_timing"] = {
            name: replace(t, **patch)
            for name, t in config.leaf_timing.items()}
    if "banks" in ov:
        changes["banks_override"] = int(ov["banks"])
    if "coalesce_entries" in ov:
        changes["coalesce_entries"] = max(1, int(ov["coalesce_entries"]))
    return replace(config, **changes) if changes else config


def _override_dram(image, name: str, arr) -> None:
    buf = image.buffers.get(name)
    if buf is None:
        raise ConfigError(
            f"no DRAM array {name!r} to override; "
            f"have {sorted(image.buffers)}")
    flat = np.asarray(arr).ravel().astype(buf.dtype)
    if flat.size > buf.size:
        raise ConfigError(
            f"data override for {name!r} has {flat.size} words; "
            f"the array holds {buf.size}")
    buf[:] = 0
    buf[:flat.size] = flat


def instantiate(source, overrides: Optional[dict] = None,
                machine_cls=Machine, **machine_kwargs) -> Machine:
    """One Machine for ``source`` with an override dict applied.

    Shared by ``run_batch`` and the sequential reference side of the
    equivalence tests/fuzz oracle, so both sides are guaranteed to
    build identically configured instances.
    """
    dhdl, config = _unpack(source)
    ov = normalize_params(overrides)
    kwargs = dict(machine_kwargs)
    if "dram_queue_depth" in ov:
        kwargs["dram"] = DramModel(
            queue_depth=max(1, int(ov["dram_queue_depth"])))
    if "watchdog" in ov:
        kwargs["watchdog"] = int(ov["watchdog"])
    if "max_cycles" in ov:
        kwargs["max_cycles"] = int(ov["max_cycles"])
    machine = machine_cls(dhdl, _configured(config, ov), **kwargs)
    for name, arr in (ov.get("data") or {}).items():
        _override_dram(machine.image, name, arr)
    return machine


# ---------------------------------------------------------------------------
# The functional log (leader writes, followers replay)
# ---------------------------------------------------------------------------


class _ActivationLog:
    """Everything one inner-compute activation did, batch by batch."""

    __slots__ = ("batches", "finish")

    def __init__(self):
        self.batches: List[_RawBatch] = []
        self.finish: Optional[_FrozenBatch] = None


class _FrozenBatch:
    """One vector issue's effects in columnar (struct-of-arrays) form."""

    __slots__ = ("lanes", "sram", "regs", "emits", "reads", "writes",
                 "price_memo", "writes_state")

    def __init__(self, lanes, sram, regs, emits, reads, writes):
        self.lanes = lanes
        #: False when the issue only priced reads (nothing to apply)
        self.writes_state = bool(sram or regs or emits)
        #: per scratchpad: (name, flat addrs int64[], values dtype[], wm)
        self.sram = sram
        self.regs = regs
        self.emits = emits
        self.reads = reads
        self.writes = writes
        #: banks -> priced issue, shared by every follower with that
        #: banking (the cost is pure in the addresses and banking)
        self.price_memo: dict = {}

    def priced(self, scratchpads, banks: int):
        """``(extra, per-scratchpad totals)`` for one banking, where a
        total is ``(name, reads, writes, conflict cycles)``."""
        hit = self.price_memo.get(banks)
        if hit is not None:
            return hit
        extra = 0
        totals: Dict[str, list] = {}
        for name, words, cost, is_write in self.group_costs(scratchpads):
            tally = totals.setdefault(name, [name, 0, 0, 0])
            tally[2 if is_write else 1] += words
            tally[3] += cost
            if cost > extra:
                extra = cost
        hit = self.price_memo[banks] = (
            extra, tuple(tuple(t) for t in totals.values()))
        return hit

    def group_costs(self, scratchpads):
        """``(name, words, cost, is_write)`` per address group, in
        pricing order (reads, then writes)."""
        for name, addrs in self.reads:
            yield name, len(addrs), scratchpads[name].read_extra(addrs), \
                False
        for name, addrs in self.writes:
            yield name, len(addrs), scratchpads[name].write_extra(addrs), \
                True


def _columns(parts):
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class _RawBatch:
    """Recorded effect events for one vector issue (frozen lazily)."""

    __slots__ = ("lanes", "events", "reads", "writes", "_frozen")

    def __init__(self, lanes, events, reads, writes):
        self.lanes = lanes
        self.events = events
        self.reads = reads
        self.writes = writes
        self._frozen: Optional[_FrozenBatch] = None

    def frozen(self) -> _FrozenBatch:
        """Columnar form, built once and shared by all followers (the
        raw events are dropped then)."""
        if self._frozen is None:
            self._frozen = _freeze(self.events, self.lanes, self.reads,
                                   self.writes)
            self.events = self.reads = self.writes = None
        return self._frozen


def _freeze(events, lanes=0, reads=(), writes=()) -> _FrozenBatch:
    """Concatenate logged vector effects per memory (event order kept,
    so duplicate addresses still resolve last-write-wins)."""
    per_mem: Dict[str, tuple] = {}
    wm: Dict[str, int] = {}
    regs = []
    emits = []
    for ev in events:
        kind = ev[0]
        if kind == "s" or kind == "h":
            _, name, flats, values = ev
            cols = per_mem.get(name)
            if cols is None:
                cols = per_mem[name] = ([], [])
            cols[0].append(flats)
            cols[1].append(values)
            if kind == "s":        # SRAM writes track the watermark
                top = int(flats.max())
                if top > wm.get(name, -1):
                    wm[name] = top
        elif kind == "r":
            regs.append((ev[1], ev[2]))
        else:                      # "e"
            emits.append((ev[1], ev[2]))
    sram = tuple((name, _columns(flats), _columns(values),
                  wm.get(name, -1))
                 for name, (flats, values) in per_mem.items())
    return _FrozenBatch(lanes, sram, tuple(regs), tuple(emits), reads,
                        writes)


class _ReplayEnumerator:
    """Stand-in for ChainEnumerator: yields the recorded batches."""

    __slots__ = ("next_batch",)

    def __init__(self, batches):
        #: the next recorded batch, or None when exhausted
        self.next_batch = functools.partial(next, iter(batches), None)


class _RecordingInnerComputeSim(InnerComputeSim):
    """The leader's inner compute: normal execution + effect logging
    through the vector effect primitives."""

    def __init__(self, leaf, config, mem, stats, fifos, log):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._act: Optional[_ActivationLog] = None
        self._sink: Optional[list] = None
        self._last_reads: tuple = ()
        self._last_writes: tuple = ()

    def _begin_body(self, bindings, version):
        self._act = _ActivationLog()
        self._log.setdefault(self.name, []).append(self._act)
        super()._begin_body(bindings, version)

    def _execute(self, batch):
        self._sink = []
        extra = super()._execute(batch)
        if extra is not None:
            # FIFO-full retries never reach the effect primitives, so a
            # None result always leaves an empty (discardable) sink
            self._act.batches.append(_RawBatch(
                batch.lanes, self._sink, self._last_reads,
                self._last_writes))
        return extra

    def _price(self, read_accesses, write_addrs):
        self._last_reads = tuple(
            (name, addrs) for (name, _site), addrs in read_accesses.items())
        self._last_writes = tuple(write_addrs.items())
        return super()._price(read_accesses, write_addrs)

    def _apply_finals(self):
        self._sink = []
        super()._apply_finals()
        self._act.finish = _freeze(self._sink)

    def _write_sram(self, scratch, version, flats, values):
        super()._write_sram(scratch, version, flats, values)
        self._sink.append(("s", scratch.sram.name, flats, values))

    def _write_reg(self, reg, value):
        super()._write_reg(reg, value)
        self._sink.append(("r", reg.name, value))

    def _hash_store(self, scratch, buf, keys, values):
        super()._hash_store(scratch, buf, keys, values)
        # record the post-assignment cells: they carry the exact dtype
        # cast the replayed assignment must reproduce
        self._sink.append(("h", scratch.sram.name, keys,
                           buf.reshape(-1)[keys]))

    def _emit_values(self, fifo, values):
        super()._emit_values(fifo, values)
        self._sink.append(("e", fifo.decl.name, tuple(values)))


class _ReplayInnerComputeSim(InnerComputeSim):
    """A follower's inner compute: identical timing loop, zero
    expression evaluation — effects come from the leader's log."""

    def __init__(self, leaf, config, mem, stats, fifos, log):
        super().__init__(leaf, config, mem, stats, fifos)
        self._log = log
        self._cursor = 0
        self._act: Optional[_ActivationLog] = None

    def _begin_body(self, bindings, version):
        acts = self._log.get(self.name, ())
        if self._cursor >= len(acts):
            raise SimulationError(
                f"{self.name}: batch replay log exhausted at activation "
                f"{self._cursor} — followers may only vary timing "
                "parameters")
        self._act = acts[self._cursor]
        self._cursor += 1
        self._ctx_cur = None
        self._accs = {}
        self._enum = _ReplayEnumerator(self._act.batches)

    def _apply(self, rec: _FrozenBatch) -> None:
        version = self._version
        if rec.sram:
            scratchpads = self.mem.scratchpads
            for name, flats, values, wm in rec.sram:
                scratch = scratchpads[name]
                scratch.buffer(version).reshape(-1)[flats] = values
                if wm >= 0:
                    scratch.note_write(version, wm)
        if rec.regs:
            registers = self.mem.registers
            for name, value in rec.regs:
                registers[name].write(value)
        if rec.emits:
            fifos = self.fifos
            for name, values in rec.emits:
                fifos[name].push(list(values))

    def _execute(self, batch):
        rec = batch._frozen or batch.frozen()
        if self._emit_demand and not self._check_fifo_room(rec.lanes):
            return None
        if rec.writes_state:
            self._apply(rec)
        # conflict pricing is *not* replayed: it is recomputed from the
        # recorded address groups against this instance's banking, so a
        # banks override reshapes every stall exactly as a solo run
        # (memoized per banks value — only the counter charges are per
        # instance, applied per scratchpad)
        scratchpads = self.mem.scratchpads
        priced = rec.price_memo.get(self.mem.banks) \
            or rec.priced(scratchpads, self.mem.banks)
        extra, totals = priced
        for name, reads, writes, conflicts in totals:
            scratch = scratchpads[name]
            scratch.reads += reads
            scratch.writes += writes
            scratch.conflict_cycles += conflicts
        if extra:
            if self.trace is not None:
                for name, words, cost, _ in rec.group_costs(scratchpads):
                    if cost:
                        self.trace.emit(EventKind.BANK_CONFLICT, name,
                                        (cost, words))
            self.stats.conflict_cycles += extra
        self.stats.ops_executed += self._ops_per_lane * rec.lanes
        return extra

    def _apply_finals(self):
        if self._act.finish is not None:
            self._apply(self._act.finish)


class _RecordingMachine(Machine):
    """A Machine whose inner computes log their functional effects."""

    def __init__(self, dhdl, config, log, **kwargs):
        self._batch_log = log
        super().__init__(dhdl, config, **kwargs)

    def _build_leaf(self, ctrl):
        if isinstance(ctrl, InnerCompute):
            return _RecordingInnerComputeSim(
                ctrl, self.config, self.mem, self.stats, self.fifos,
                self._batch_log)
        return super()._build_leaf(ctrl)


class _ReplayMachine(Machine):
    """A Machine whose inner computes replay a leader's log."""

    def __init__(self, dhdl, config, log, **kwargs):
        self._batch_log = log
        super().__init__(dhdl, config, **kwargs)

    def _build_leaf(self, ctrl):
        if isinstance(ctrl, InnerCompute):
            return _ReplayInnerComputeSim(
                ctrl, self.config, self.mem, self.stats, self.fifos,
                self._batch_log)
        return super()._build_leaf(ctrl)


# ---------------------------------------------------------------------------
# The joint driver
# ---------------------------------------------------------------------------


@dataclass
class InstanceResult:
    """Outcome of one batch member, in input order."""

    index: int
    params: dict
    role: str = "solo"                # solo | leader | replay
    machine: Optional[Machine] = None
    stats: Optional[SimStats] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class BatchResult:
    """Per-instance results plus batching diagnostics."""

    instances: List[InstanceResult] = field(default_factory=list)
    cohorts: int = 0
    replayed: int = 0

    def __iter__(self):
        return iter(self.instances)

    def __len__(self):
        return len(self.instances)

    def __getitem__(self, i):
        return self.instances[i]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.instances)

    def stats_list(self) -> List[Optional[SimStats]]:
        return [r.stats for r in self.instances]


def _spans_for(machine: Machine, mode: str):
    """A resumable span generator running this machine to completion."""
    if mode == "dense":
        from repro.sim.scheduler import dense_spans
        return dense_spans(machine, machine.max_cycles)
    from repro.sim.scheduler import EventScheduler
    sched = EventScheduler(machine)
    machine.scheduler_stats = sched
    return sched.spans(machine.max_cycles)


def _drive_jointly(jobs: List[Tuple[InstanceResult, Machine]],
                   mode: str) -> None:
    """Step many instances together, always resuming the one with the
    smallest next-wake cycle (lowest index on ties); retired/errored
    instances leave the heap."""
    gens = [_spans_for(machine, mode) for _, machine in jobs]
    heap = [(0, i) for i in range(len(jobs))]
    while heap:
        _, i = heap[0]
        slot, machine = jobs[i]
        try:
            heapq.heapreplace(heap, (next(gens[i]), i))
        except StopIteration:
            heapq.heappop(heap)
            slot.stats = machine.stats
        except (SimulationError, DeadlockError) as err:
            heapq.heappop(heap)
            slot.error = f"{type(err).__name__}: {err}"


def run_batch(source, param_list, scheduler: str = "event",
              tracer_factory=None) -> BatchResult:
    """Simulate N instances of one compiled design in one pass.

    ``source`` — a :class:`~repro.bitstream.artifact.Bitstream` (or a
    ``(dhdl, config)`` pair); ``param_list`` — one override dict per
    instance (``None``/``{}`` for the as-compiled configuration), with
    keys from :data:`TIMING_KEYS` and :data:`FUNCTIONAL_KEYS`.
    ``tracer_factory(index, params)`` may supply a per-instance tracer.

    Returns a :class:`BatchResult` whose per-instance stats, memory
    images, and stall attribution are bit-identical to sequential
    ``Machine.run`` calls with the same overrides.
    """
    if scheduler not in SCHEDULER_MODES:
        raise SimulationError(
            f"unknown scheduler {scheduler!r}; one of: "
            f"{', '.join(SCHEDULER_MODES)}")
    dhdl_config = _unpack(source)
    entries = [normalize_params(p) for p in param_list]
    results = [InstanceResult(i, param_list[i] if param_list[i] else {})
               for i in range(len(entries))]
    if not entries:
        return BatchResult()

    def kwargs_for(i):
        kw = {"scheduler": scheduler}
        if tracer_factory is not None:
            kw["tracer"] = tracer_factory(i, entries[i])
        return kw

    # group into cohorts (input order preserved within each)
    cohorts: Dict[Tuple, List[int]] = {}
    for i, entry in enumerate(entries):
        cohorts.setdefault(cohort_key(entry), []).append(i)

    # phase A: leaders (recording) and singletons (plain), jointly
    logs: Dict[Tuple, dict] = {}
    phase_a: List[Tuple[InstanceResult, Machine]] = []
    for key, members in cohorts.items():
        lead = members[0]
        if len(members) == 1:
            machine = instantiate(dhdl_config, entries[lead],
                                  **kwargs_for(lead))
        else:
            logs[key] = {}
            machine = instantiate(
                dhdl_config, entries[lead], machine_cls=_RecordingMachine,
                log=logs[key], **kwargs_for(lead))
            results[lead].role = "leader"
        results[lead].machine = machine
        phase_a.append((results[lead], machine))
    _drive_jointly(phase_a, scheduler)

    # phase B: followers replay their leader's log; cohorts whose
    # leader failed fall back to full solo runs
    replayed = 0
    phase_b: List[Tuple[InstanceResult, Machine]] = []
    for key, members in cohorts.items():
        leader_ok = results[members[0]].ok
        for i in members[1:]:
            if leader_ok:
                machine = instantiate(
                    dhdl_config, entries[i], machine_cls=_ReplayMachine,
                    log=logs[key], **kwargs_for(i))
                results[i].role = "replay"
                replayed += 1
            else:
                machine = instantiate(dhdl_config, entries[i],
                                      **kwargs_for(i))
            results[i].machine = machine
            phase_b.append((results[i], machine))
    _drive_jointly(phase_b, scheduler)

    return BatchResult(instances=results, cohorts=len(cohorts),
                       replayed=replayed)
