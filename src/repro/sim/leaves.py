"""Leaf controller simulators: PCU dataflow bodies and AG transfers.

Every leaf implements the :class:`NodeSim` protocol the outer scheduler
drives:

* ``start(bindings, version)`` — begin one activation (one iteration of
  the parent controller), with concrete values for enclosing indices;
* ``tick(cycle)`` — advance one cycle;
* ``busy`` — True until the activation fully completes (including
  pipeline drain and outstanding DRAM traffic).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.dhdl.ir import (EmitStmt, Gather, HashReduceStmt, InnerCompute,
                           ReduceStmt, Scatter, StreamStore, TileLoad,
                           TileStore)
from repro.dhdl.memory import Reg
from repro.dram.model import DramModel
from repro.dram.request import DramRequest
from repro.errors import SimulationError
from repro.patterns.collections import _np_dtype
from repro.sim.config import FabricConfig
from repro.sim.counters import Batch, ChainEnumerator
from repro.sim.datapath import (LaneContext, as_lanes, body_kernel,
                                scalar_at, store_sram)
from repro.sim.dram_image import DramImage
from repro.sim.fifo import FifoSim
from repro.sim.scheduler import Park
from repro.sim.scratchpad import MemoryState
from repro.sim.stats import SimStats
from repro.trace.events import EventKind, StallCause

WORDS_PER_BURST = 16


class NodeSim:
    """Protocol for anything the outer scheduler can run."""

    name: str = "?"
    #: names of the physical leaf units in this subtree (tracing)
    leaf_names: Tuple[str, ...] = ()

    def start(self, bindings: dict, version: int) -> None:
        """Begin one activation."""
        raise NotImplementedError

    def tick(self, cycle: int) -> None:
        """Advance one cycle."""
        raise NotImplementedError

    @property
    def busy(self) -> bool:
        """True until the current activation completes."""
        raise NotImplementedError


class _LeafCommon(NodeSim):
    """Shared leaf state: memory handles, stats, config timing."""

    def __init__(self, name: str, mem: MemoryState, stats: SimStats):
        self.name = name
        self.mem = mem
        self.stats = stats
        self._active = False
        self.leaf_names = (name,)
        #: attached by the machine when tracing is enabled
        self.trace = None
        #: attached by the event scheduler; None under the dense loop
        self._sched = None
        #: park descriptor the last tick produced (event scheduler only)
        self._park = None

    @property
    def busy(self) -> bool:
        return self._active

    def _ctx(self, version: int) -> LaneContext:
        return LaneContext(self.mem, version)


class InnerComputeSim(_LeafCommon):
    """One inner dataflow pipeline (a chain of physical PCUs).

    Per cycle it issues one vector of up to ``lanes`` innermost indices,
    runs the body's datapath kernel over them, and charges bank-conflict
    and FIFO-backpressure stalls.  Completion waits for the pipeline to
    drain (``pipeline_depth`` extra cycles).
    """

    def __init__(self, leaf: InnerCompute, config: FabricConfig,
                 mem: MemoryState, stats: SimStats,
                 fifos: Dict[str, FifoSim]):
        super().__init__(leaf.name, mem, stats)
        self.leaf = leaf
        self.timing = config.timing_for(leaf.name)
        self.fifos = fifos
        self._enum: Optional[ChainEnumerator] = None
        self._ctx_cur: Optional[LaneContext] = None
        self._blocked_fifo: Optional[FifoSim] = None
        self._stall_until = 0
        self._drain_until = 0
        self._pending: Optional[Batch] = None
        # reduce accumulators: stmt index -> {key: (snapshot, values)}
        self._accs: Dict[int, Dict[Tuple, Tuple[tuple, list]]] = {}
        self._version: tuple = ()
        # compiled once per leaf and shared by every machine built from
        # the same artifact
        self._kernel = body_kernel(leaf)
        self._ops_per_lane = self._kernel.ops_per_lane
        # the per-lane FIFO word demand is a constant of the body
        demand: Dict[str, int] = {}
        for stmt in leaf.stmts:
            if isinstance(stmt, EmitStmt):
                demand[stmt.fifo.name] = demand.get(stmt.fifo.name, 0) + 1
        self._emit_demand: Tuple[Tuple[str, int], ...] = \
            tuple(demand.items())

    # -- activation ---------------------------------------------------------------
    def start(self, bindings: dict, version: int) -> None:
        if self._active:
            raise SimulationError(f"{self.name}: started while busy")
        self._active = True
        self._version = version
        self._pending = None
        self._stall_until = 0
        self._drain_until = 0
        self._begin_body(bindings, version)
        # dense HashReduce targets start at their init value unless they
        # carry previous contents across activations
        for stmt in self.leaf.stmts:
            if isinstance(stmt, HashReduceStmt) and not stmt.carry:
                scratch = self.mem.scratch(stmt.mem)
                buf = scratch.buffer(version)
                buf.fill(_np_dtype(stmt.mem.dtype)(stmt.init))

    def _begin_body(self, bindings: dict, version) -> None:
        """Set up evaluation state for one activation (overridden by the
        batch replay leaf)."""
        self._ctx_cur = ctx = LaneContext(self.mem, version)

        def evaluate(expr, bnd):
            # counter-bound loads join the pending access groups, priced
            # by the next vector issue
            return ctx.eval(expr, bnd)

        self._enum = ChainEnumerator(self.leaf.chain, evaluate, bindings)
        self._accs = {k: {} for k, s in enumerate(self.leaf.stmts)
                      if isinstance(s, ReduceStmt)}

    # -- per-cycle ------------------------------------------------------------------
    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        trace = self.trace
        if self._enum is None:  # draining
            if trace is not None:
                trace.mark(self.name, StallCause.DRAIN)
            if cycle >= self._drain_until:
                self._finish()
            elif (self._sched is not None
                    and self._drain_until > cycle + 1):
                self._park = Park(
                    until=self._drain_until,
                    marks=((self.name, StallCause.DRAIN),))
            return
        if cycle < self._stall_until:
            # serialising a conflicted vector access: the unit is
            # occupied (counts towards activity) but issues nothing
            self.stats.busy(self.name)
            if trace is not None:
                trace.mark(self.name, StallCause.BANK_CONFLICT)
            if (self._sched is not None
                    and self._stall_until > cycle + 1):
                self._park = Park(
                    until=self._stall_until, busy_unit=self.name,
                    marks=((self.name, StallCause.BANK_CONFLICT),))
            return
        batch = self._pending or self._enum.next_batch()
        self._pending = None
        if batch is None:
            self._enum = None
            self._drain_until = cycle + self.timing.pipeline_depth \
                + self.timing.output_hops
            self.stats.busy(self.name)
            if trace is not None:
                trace.mark(self.name, StallCause.DRAIN)
            if (self._sched is not None
                    and self._drain_until > cycle + 1):
                # park through the drain immediately instead of
                # rediscovering it one tick at a time
                self._park = Park(
                    until=self._drain_until,
                    marks=((self.name, StallCause.DRAIN),))
            return
        extra = self._execute(batch)
        if extra is None:           # FIFO full: retry this batch
            self._pending = batch
            self.stats.fifo_stall_cycles += 1
            if trace is not None:
                trace.mark(self.name, StallCause.FIFO_FULL)
            if self._sched is not None:
                fifo = self._blocked_fifo
                self._park = Park(
                    counters=("fifo_stall_cycles",),
                    fifo_counters=((fifo, "full_stalls"),),
                    marks=((self.name, StallCause.FIFO_FULL),),
                    wake_fifos=(fifo.decl.name,))
            return
        # the issue cycle itself; conflict serialisation cycles charge
        # themselves one by one in the stall branch above
        stats = self.stats
        busy = stats.busy_cycles
        busy[self.name] = busy.get(self.name, 0) + 1
        stats.vector_issues += 1
        if trace is not None:
            trace.mark(self.name, StallCause.BUSY)
            trace.emit(EventKind.ISSUE, self.name, (batch.lanes, extra))
        if extra:
            self._stall_until = cycle + 1 + extra
            if self._sched is not None:
                # the coming serialisation cycles are known now: park
                # straight through them (each charges busy + conflict
                # mark, exactly like the stall branch above)
                self._park = Park(
                    until=self._stall_until, busy_unit=self.name,
                    marks=((self.name, StallCause.BANK_CONFLICT),))

    # -- body execution ---------------------------------------------------------------
    def _execute(self, batch: Batch) -> Optional[int]:
        """Run the body kernel for one vector batch.

        Returns the extra stall cycles, or None if an EmitStmt found its
        FIFO full (the batch must be retried unchanged).
        """
        # pre-check FIFO room for the worst case (all lanes emit);
        # demand is summed per FIFO — several EmitStmts feeding the same
        # FIFO each need batch.lanes words, and checking them one at a
        # time would pass with room for only one statement's worth
        if not self._check_fifo_room(batch.lanes):
            return None
        ctx = self._ctx_cur
        write_addrs = ctx.eval(self._kernel, batch.outer, batch.inner, self)
        extra = self._price(ctx.reset_accesses(), write_addrs)
        self.stats.conflict_cycles += extra
        self.stats.ops_executed += self._ops_per_lane * batch.lanes
        return extra

    def _check_fifo_room(self, lanes: int) -> bool:
        """All-lanes-emit FIFO room precheck (first failing FIFO is
        charged the stall, exactly as the dense loop always did)."""
        for name, per_lane in self._emit_demand:
            needed = per_lane * lanes
            fifo = self.fifos[name]
            if not fifo.can_push(needed):
                fifo.full_stalls += 1
                self._blocked_fifo = fifo
                if self.trace is not None:
                    self.trace.emit(EventKind.FIFO_FULL, name, (needed,))
                return False
        return True

    def _price(self, read_accesses: Dict, write_addrs: Dict) -> int:
        """Price the cycle: bank conflicts on reads and writes, per
        operand stream (each load site reads in its own stage)."""
        extra = 0
        scratchpads = self.mem.scratchpads
        for (name, _site), addrs in read_accesses.items():
            cost = scratchpads[name].read_cost(addrs)
            if cost > extra:
                extra = cost
        for name, addrs in write_addrs.items():
            cost = scratchpads[name].write_cost(addrs)
            if cost > extra:
                extra = cost
        return extra

    # vector effect primitives: every architecturally visible write a
    # kernel performs funnels through one of these, so the batch
    # recorder can log them in columnar form
    def _write_sram(self, scratch, version, flats: np.ndarray,
                    values: np.ndarray) -> None:
        """Store lanes (duplicate addresses: the last lane wins)."""
        buf = scratch.buffer(version)
        buf.reshape(-1)[flats] = values
        scratch.note_write(version, int(flats.max()))

    def _write_reg(self, reg: Reg, value) -> None:
        self.mem.reg(reg).write(value)

    def _hash_store(self, scratch, buf, keys: np.ndarray,
                    values: np.ndarray) -> None:
        """Store combined hash bins (distinct keys)."""
        buf.reshape(-1)[keys] = values

    def _emit_values(self, fifo: FifoSim, values: List) -> None:
        fifo.push(values)

    # -- completion ---------------------------------------------------------------
    def _finish(self) -> None:
        self._apply_finals()
        # close any FIFO this body emits into
        for stmt in self.leaf.stmts:
            if isinstance(stmt, EmitStmt):
                self.fifos[stmt.fifo.name].close()
        self._active = False

    def _apply_finals(self) -> None:
        """Apply the end-of-activation reduce results."""
        ctx = self._ctx_cur
        for si, accs in self._accs.items():
            stmt = self.leaf.stmts[si]
            effect = self._kernel.plans[si].effect
            for key, ((outer, index, value), values) in accs.items():
                if stmt.carry:
                    values = self._carry(ctx, stmt, effect, key, outer,
                                         index, value, values)
                for mem, result in zip(stmt.mems, values):
                    if isinstance(mem, Reg):
                        self._write_reg(mem, result)
                        continue
                    exc = store_sram(ctx, self, mem,
                                     [as_lanes(k) for k in key],
                                     as_lanes(result), 1, 1)
                    if exc is not None:
                        raise exc
        ctx.reset_accesses()

    def _carry(self, ctx, stmt, effect, key, outer, index, value, values):
        """Combine an accumulator with the target's current contents."""
        current = []
        for mem in stmt.mems:
            if isinstance(mem, Reg):
                current.append(self.mem.reg(mem).read())
            else:
                buf = self.mem.scratch(mem).read_buffer(self._version)
                current.append(buf[key].item())
        bindings = {k: as_lanes(v) for k, v in outer.items()}
        if index is not None:
            bindings[index] = as_lanes(value)
        for k in range(stmt.width):
            bindings[stmt.acc_a[k]] = as_lanes(current[k])
            bindings[stmt.acc_b[k]] = as_lanes(values[k])
        with np.errstate(all="ignore"):
            env, _, exc = effect.combine.run(ctx, bindings, 1)
        if exc is not None:
            raise exc
        return [scalar_at(env.vals[r], 0) for r in effect.combine.roots]


class _TransferCommon(_LeafCommon):
    """Shared transfer machinery: DRAM issue bookkeeping and AG limits."""

    def __init__(self, name: str, config: FabricConfig, mem: MemoryState,
                 stats: SimStats, dram: DramModel, image: DramImage):
        super().__init__(name, mem, stats)
        self.config = config
        self.dram = dram
        self.image = image
        self.streams = config.ags_for(name).streams
        self._outstanding = 0

    # parks are immutable and constant per engine: build each variant
    # once and reuse it (parking happens on most wait cycles)
    @property
    def _park_latency(self) -> Park:
        park = self.__dict__.get("_park_latency_c")
        if park is None:
            park = Park(busy_unit=self.name,
                        marks=((self.name, StallCause.DRAM_LATENCY),))
            self.__dict__["_park_latency_c"] = park
        return park

    def _park_bandwidth(self, busy: bool) -> Park:
        key = "_park_bw_busy" if busy else "_park_bw_idle"
        park = self.__dict__.get(key)
        if park is None:
            park = Park(busy_unit=self.name if busy else None,
                        counters=("dram_stall_cycles",),
                        marks=((self.name, StallCause.DRAM_BANDWIDTH),),
                        wake_dram_room=True)
            self.__dict__[key] = park
        return park

    def _issue(self, request: DramRequest, on_done) -> None:
        self._outstanding += 1
        if self.trace is not None:
            self.trace.emit(EventKind.AG_BURST, self.name,
                            (request.byte_addr, int(request.is_write)))

        def _cb(req):
            self._outstanding -= 1
            on_done(req)
            if self._sched is not None:
                self._sched.node_event(self)

        self.dram.submit(request, _cb)

    def _account(self, issued: int, blocked: bool) -> None:
        """Per-cycle busy/stall accounting shared by the AG engines.

        ``issued`` — address-stream slots that made progress this cycle;
        ``blocked`` — True when progress was stopped by a full DRAM
        channel queue (or a full coalescer), i.e. a bandwidth stall.
        """
        if issued or self._outstanding:
            self.stats.busy(self.name)
        if issued:
            cause = StallCause.BUSY
        elif blocked:
            self.stats.dram_stall_cycles += 1
            cause = StallCause.DRAM_BANDWIDTH
        elif self._outstanding:
            cause = StallCause.DRAM_LATENCY
        else:
            cause = StallCause.DRAIN
        if self.trace is not None:
            self.trace.mark(self.name, cause)
        if self._sched is not None and not issued:
            # an unproductive cycle: this tick will repeat verbatim
            # until DRAM queue room frees or a burst completes — park
            # with exactly the per-cycle accounting performed above
            if blocked:
                self._park = self._park_bandwidth(
                    bool(self._outstanding))
            elif self._outstanding:
                self._park = self._park_latency
            # DRAIN (no work, nothing in flight) means the engine is
            # about to complete in this same tick: never parked


class TileLoadSim(_TransferCommon):
    """Dense DRAM -> scratchpad burst load."""

    def __init__(self, leaf: TileLoad, config, mem, stats, dram, image):
        super().__init__(leaf.name, config, mem, stats, dram, image)
        self.leaf = leaf
        self._spans: List[Tuple[int, int, int]] = []  # (word_off, count, sram_flat)
        self._version: tuple = ()

    def start(self, bindings: dict, version: int) -> None:
        self._active = True
        self._version = version
        ctx = self._ctx(version)
        offsets = [int(ctx.eval(o, bindings)) for o in self.leaf.offsets]
        self._spans = list(self._tile_spans(offsets))
        # ensure destination buffer exists even for fully-clipped tiles
        self.mem.scratch(self.leaf.sram).buffer(version)

    def _tile_spans(self, offsets):
        """Yield (dram_word_off, word_count, sram_flat_off) per tile row.

        A tile of shape T over a row-major DRAM array of shape S starting
        at ``offsets`` decomposes into contiguous runs of the innermost
        dimension; runs are clipped to the array extents (partial edge
        tiles load what exists, the rest of the scratchpad keeps its
        previous/zero contents).
        """
        dram_shape = [int(d) if isinstance(d, int) else None
                      for d in self.leaf.dram.shape]
        if not dram_shape:          # 0-d cell: a single word
            dram_shape = [1]
            offsets = [0]
        tile = self.leaf.tile_shape or (1,)
        inner = tile[-1]
        outer_dims = tile[:-1]
        total_words = self.leaf.dram.words()
        inner_limit = (dram_shape[-1] if dram_shape[-1] is not None
                       else total_words)

        def flatten(prefix_positions):
            """Row-major flat word offset of (prefix..., offsets[-1])."""
            flat = 0
            for k, pos in enumerate(prefix_positions):
                flat = flat * dram_shape[k] + pos if k else pos
            if len(dram_shape) > 1:
                flat = flat * dram_shape[-1]
            return flat + offsets[-1]

        def rec(axis, prefix, sram_off):
            if axis == len(outer_dims):
                start = flatten(prefix)
                count = min(inner, inner_limit - offsets[-1],
                            total_words - start)
                if count > 0:
                    yield (start, count, sram_off)
                return
            size = dram_shape[axis] if dram_shape[axis] is not None \
                else 1 << 30
            inner_words = 1
            for d in tile[axis + 1:]:
                inner_words *= d
            for t in range(outer_dims[axis]):
                pos = offsets[axis] + t
                if pos >= size:
                    continue
                yield from rec(axis + 1, prefix + [pos],
                               sram_off + t * inner_words)

        yield from rec(0, [], 0)

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        issued = 0
        blocked = False
        while self._spans and issued < self.streams:
            word_off, count, sram_flat = self._spans[0]
            burst_words = min(count, WORDS_PER_BURST)
            addr = self.image.byte_addr(self.leaf.dram.name, word_off)
            if not self.dram.can_accept(addr):
                blocked = True
                break
            tag = (word_off, burst_words, sram_flat)
            self._issue(DramRequest(byte_addr=addr, tag=tag),
                        self._on_burst)
            issued += 1
            if burst_words == count:
                self._spans.pop(0)
            else:
                self._spans[0] = (word_off + burst_words,
                                  count - burst_words,
                                  sram_flat + burst_words)
        self._account(issued, blocked)
        if not self._spans:
            if self._outstanding == 0:
                self._active = False
            elif issued and self._sched is not None:
                # the span queue emptied this very cycle: every later
                # tick is provably a pure DRAM-latency wait until a
                # completion callback wakes us
                self._park = self._park_latency

    def _on_burst(self, request: DramRequest) -> None:
        word_off, count, sram_flat = request.tag
        words = self.image.read_words(self.leaf.dram.name, word_off, count)
        scratch = self.mem.scratch(self.leaf.sram)
        buf = scratch.buffer(self._version)
        flat_view = buf.reshape(-1)
        if sram_flat + count > flat_view.size:
            raise SimulationError(
                f"{self.name}: tile overruns scratchpad "
                f"{self.leaf.sram.name!r}")
        flat_view[sram_flat:sram_flat + count] = words.astype(buf.dtype)


class TileStoreSim(_TransferCommon):
    """Dense scratchpad -> DRAM burst store."""

    def __init__(self, leaf: TileStore, config, mem, stats, dram, image):
        super().__init__(leaf.name, config, mem, stats, dram, image)
        self.leaf = leaf
        self._spans: List[Tuple[int, int, int]] = []
        self._version: tuple = ()

    def start(self, bindings: dict, version: int) -> None:
        self._active = True
        self._version = version
        ctx = self._ctx(version)
        offsets = [int(ctx.eval(o, bindings)) for o in self.leaf.offsets]
        limit = None
        if self.leaf.count is not None:
            limit = int(ctx.eval(self.leaf.count, bindings))
        loader = TileLoadSim.__new__(TileLoadSim)  # reuse span generator
        loader.leaf = self.leaf
        spans = list(TileLoadSim._tile_spans(loader, offsets))
        if limit is not None:
            clipped = []
            remaining = limit
            for word_off, count, sram_flat in spans:
                if remaining <= 0:
                    break
                take = min(count, remaining)
                clipped.append((word_off, take, sram_flat))
                remaining -= take
            spans = clipped
        self._spans = spans

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        issued = 0
        blocked = False
        while self._spans and issued < self.streams:
            word_off, count, sram_flat = self._spans[0]
            burst_words = min(count, WORDS_PER_BURST)
            addr = self.image.byte_addr(self.leaf.dram.name, word_off)
            if not self.dram.can_accept(addr):
                blocked = True
                break
            # move the data now; the request models timing
            scratch = self.mem.scratch(self.leaf.sram)
            buf = scratch.read_buffer(self._version).reshape(-1)
            scratch.reads += burst_words
            self.image.write_words(
                self.leaf.dram.name, word_off,
                buf[sram_flat:sram_flat + burst_words])
            self._issue(DramRequest(byte_addr=addr, is_write=True),
                        lambda req: None)
            issued += 1
            if burst_words == count:
                self._spans.pop(0)
            else:
                self._spans[0] = (word_off + burst_words,
                                  count - burst_words,
                                  sram_flat + burst_words)
        self._account(issued, blocked)
        if not self._spans:
            if self._outstanding == 0:
                self._active = False
            elif issued and self._sched is not None:
                # all bursts in flight: pure latency wait from here on
                self._park = self._park_latency


class GatherSim(_TransferCommon):
    """Sparse load through the coalescing unit.

    Addresses (element indices into the flattened DRAM collection) come
    from a scratchpad; one word lands in the destination scratchpad per
    address.  Addresses falling in the same 64-byte burst coalesce into
    one DRAM request (the paper's coalescing cache).
    """

    def __init__(self, leaf: Gather, config, mem, stats, dram, image):
        super().__init__(leaf.name, config, mem, stats, dram, image)
        self.COALESCE_ENTRIES = config.coalesce_entries
        self.leaf = leaf
        self._queue: List[Tuple[int, int]] = []   # (dst_flat, elem_idx)
        self._open: Dict[int, List[Tuple[int, int]]] = {}
        self._version: tuple = ()
        self.coalesced_hits = 0

    def start(self, bindings: dict, version: int) -> None:
        self._active = True
        self._version = version
        ctx = self._ctx(version)
        scratch = self.mem.scratch(self.leaf.addr_sram)
        addr_buf = scratch.read_buffer(version).reshape(-1)
        if self.leaf.count is not None:
            count = int(ctx.eval(self.leaf.count, bindings))
            count = min(count, addr_buf.size)
        else:
            # dynamic: gather exactly the addresses produced upstream
            count = scratch.watermark_for(version) or addr_buf.size
        self._queue = [(k, int(addr_buf[k])) for k in range(count)]
        self._open = {}
        self.mem.scratch(self.leaf.dst_sram).buffer(version)

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        # each AG stream feeds one address per cycle into the coalescer
        budget = self.streams
        issued = 0
        blocked = False
        while self._queue and budget > 0:
            dst_flat, elem = self._queue[0]
            if elem < 0 or elem >= self.leaf.dram.words():
                raise SimulationError(
                    f"{self.name}: gather index {elem} out of bounds for "
                    f"{self.leaf.dram.name!r}")
            addr = self.image.byte_addr(self.leaf.dram.name, elem)
            burst = addr // 64
            if burst in self._open:
                self._open[burst].append((dst_flat, elem))
                self._queue.pop(0)
                self.coalesced_hits += 1
                if self.trace is not None:
                    self.trace.emit(EventKind.COALESCE_HIT, self.name,
                                    (burst,))
                budget -= 1
                issued += 1
                continue
            if len(self._open) >= self.COALESCE_ENTRIES:
                blocked = True
                break
            if not self.dram.can_accept(addr):
                blocked = True
                break
            self._open[burst] = [(dst_flat, elem)]
            self._issue(DramRequest(byte_addr=addr, tag=burst),
                        self._on_burst)
            self._queue.pop(0)
            budget -= 1
            issued += 1
        self._account(issued, blocked)
        if not self._queue:
            if self._outstanding == 0 and not self._open:
                self._active = False
            elif issued and self._sched is not None:
                # every address dispatched: pure latency wait from
                # here on (open coalescer entries imply requests in
                # flight, whose completions wake us)
                self._park = self._park_latency

    def _on_burst(self, request: DramRequest) -> None:
        pendings = self._open.pop(request.tag, [])
        scratch = self.mem.scratch(self.leaf.dst_sram)
        buf = scratch.buffer(self._version).reshape(-1)
        for dst_flat, elem in pendings:
            if dst_flat >= buf.size:
                raise SimulationError(
                    f"{self.name}: gather destination overflow")
            value = self.image.read_words(self.leaf.dram.name, elem, 1)[0]
            buf[dst_flat] = value


class ScatterSim(_TransferCommon):
    """Sparse store through the coalescing unit."""

    def __init__(self, leaf: Scatter, config, mem, stats, dram, image):
        super().__init__(leaf.name, config, mem, stats, dram, image)
        self.COALESCE_ENTRIES = config.coalesce_entries
        self.leaf = leaf
        self._queue: List[Tuple[int, object]] = []
        self._open: Dict[int, int] = {}
        self.coalesced_hits = 0

    def start(self, bindings: dict, version: int) -> None:
        self._active = True
        ctx = self._ctx(version)
        addr_scratch = self.mem.scratch(self.leaf.addr_sram)
        addr_buf = addr_scratch.read_buffer(version).reshape(-1)
        val_buf = self.mem.scratch(
            self.leaf.val_sram).read_buffer(version).reshape(-1)
        count = min(addr_buf.size, val_buf.size)
        if self.leaf.count is not None:
            count = min(int(ctx.eval(self.leaf.count, bindings)), count)
        else:
            produced = addr_scratch.watermark_for(version)
            if produced:
                count = min(count, produced)
        self._queue = [(int(addr_buf[k]), val_buf[k]) for k in range(count)]
        self._open = {}

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        budget = self.streams
        issued = 0
        blocked = False
        while self._queue and budget > 0:
            elem, value = self._queue[0]
            if elem < 0 or elem >= self.leaf.dram.words():
                raise SimulationError(
                    f"{self.name}: scatter index {elem} out of bounds "
                    f"for {self.leaf.dram.name!r}")
            # data is applied immediately; requests model timing
            addr = self.image.byte_addr(self.leaf.dram.name, elem)
            burst = addr // 64
            if burst in self._open:
                self.image.write_words(self.leaf.dram.name, elem, [value])
                self._open[burst] += 1
                self._queue.pop(0)
                self.coalesced_hits += 1
                if self.trace is not None:
                    self.trace.emit(EventKind.COALESCE_HIT, self.name,
                                    (burst,))
                budget -= 1
                issued += 1
                continue
            if len(self._open) >= self.COALESCE_ENTRIES:
                blocked = True
                break
            if not self.dram.can_accept(addr):
                blocked = True
                break
            self.image.write_words(self.leaf.dram.name, elem, [value])
            self._open[burst] = 1

            def _done(req, burst=burst):
                self._open.pop(burst, None)

            self._issue(DramRequest(byte_addr=addr, is_write=True,
                                    tag=burst), _done)
            self._queue.pop(0)
            budget -= 1
            issued += 1
        self._account(issued, blocked)
        if not self._queue:
            if self._outstanding == 0:
                self._active = False
            elif issued and self._sched is not None:
                # every element dispatched: pure latency wait until
                # the remaining write acknowledgements arrive
                self._park = self._park_latency


class StreamStoreSim(_TransferCommon):
    """Drain a FIFO into consecutive DRAM words (FlatMap output)."""

    def __init__(self, leaf: StreamStore, config, mem, stats, dram, image,
                 fifos: Dict[str, FifoSim]):
        super().__init__(leaf.name, config, mem, stats, dram, image)
        self.leaf = leaf
        self.fifo = fifos[leaf.fifo.name]
        self._written = 0
        self._staging: List = []
        self._base_word = 0

    def start(self, bindings: dict, version: int) -> None:
        self._active = True
        ctx = self._ctx(version)
        self._base_word = int(ctx.eval(self.leaf.base_offset, bindings))
        self._written = 0
        self._staging = []

    def tick(self, cycle: int) -> None:
        if not self._active:
            return
        blocked = False
        got = self.fifo.pop(WORDS_PER_BURST - len(self._staging))
        if got:
            self._staging.extend(got)
        flush = (len(self._staging) == WORDS_PER_BURST
                 or (self.fifo.drained and self._staging))
        flushed = False
        if flush:
            word_off = self._base_word + self._written
            addr = self.image.byte_addr(self.leaf.dram.name, word_off)
            if self.dram.can_accept(addr):
                self.image.write_words(self.leaf.dram.name, word_off,
                                       self._staging)
                self._issue(DramRequest(byte_addr=addr, is_write=True),
                            lambda req: None)
                self._written += len(self._staging)
                self._staging = []
                flushed = True
            else:
                blocked = True
        starved = (not got and not flushed
                   and not self.fifo.drained and not self.fifo.items)
        if starved:
            # upstream has not produced yet: a FIFO-empty stall
            self.fifo.empty_stalls += 1
            self.stats.fifo_empty_stall_cycles += 1
            if self.trace is not None:
                self.trace.emit(EventKind.FIFO_EMPTY,
                                self.fifo.decl.name, ())
        if starved and not self._outstanding:
            if self.trace is not None:
                self.trace.mark(self.name, StallCause.FIFO_EMPTY)
        else:
            self._account(len(got) + (1 if flushed else 0), blocked)
        if self._sched is not None and not got and not flushed:
            # unproductive cycle: park, replicating exactly the
            # accounting above (which also depends on the FIFO, so the
            # generic _account park is replaced with one that re-arms
            # on FIFO activity too)
            self._park = self._make_park(starved, blocked)
        if (self.fifo.drained and not self._staging
                and self._outstanding == 0):
            reg = self.mem.reg(self.leaf.count_reg)
            if self.leaf.accumulate:
                reg.write(reg.read() + self._written)
            else:
                reg.write(self._written)
            self._active = False

    def _make_park(self, starved: bool, blocked: bool) -> Park:
        """Park descriptor mirroring this tick's stall accounting."""
        counters = []
        fifo_counters = []
        busy_unit = None
        if starved:
            counters.append("fifo_empty_stall_cycles")
            fifo_counters.append((self.fifo, "empty_stalls"))
        if starved and not self._outstanding:
            mark = StallCause.FIFO_EMPTY
        elif blocked:
            counters.append("dram_stall_cycles")
            busy_unit = self.name if self._outstanding else None
            mark = StallCause.DRAM_BANDWIDTH
        elif self._outstanding:
            busy_unit = self.name
            mark = StallCause.DRAM_LATENCY
        else:
            mark = StallCause.DRAIN
        return Park(busy_unit=busy_unit, counters=tuple(counters),
                    fifo_counters=tuple(fifo_counters),
                    marks=((self.name, mark),),
                    wake_fifos=(self.fifo.decl.name,),
                    wake_dram_room=blocked)
