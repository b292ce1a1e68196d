"""Drives one InnerCompute body through both evaluators on identical
memory state and reports everything observable, for the kernel oracle
and the semantics/error-parity tests.

``run_kernel`` uses the simulator's datapath kernel
(``InnerComputeSim._execute`` / ``_apply_finals``); ``run_reference``
uses the scalar lane-by-lane reference in :mod:`scalar_reference`.
Both return an :class:`Outcome`; equal outcomes mean bit-identical
behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dhdl import CounterChain, Counter, InnerCompute
from repro.dhdl.memory import FifoDecl
from repro.patterns import expr as E
from repro.sim import FabricConfig, FifoSim, LeafTiming, MemoryState
from repro.sim.counters import Batch
from repro.sim.leaves import InnerComputeSim
from repro.sim.stats import SimStats

from tests.sim.scalar_reference import ScalarLeaf


def typed(value):
    """Comparable form of one Python/numpy scalar: its type and exact
    repr (distinguishes 1 / 1.0 / True, -0.0 / 0.0, NaN)."""
    if isinstance(value, np.generic):
        return (type(value).__name__, value.tobytes())
    return (type(value).__name__, repr(value))


@dataclass
class Setup:
    """Memories and initial contents shared by both evaluators."""

    srams: Sequence = ()
    regs: Sequence = ()
    fifos: Sequence[FifoDecl] = ()
    data: Dict[str, np.ndarray] = field(default_factory=dict)
    banks: int = 16

    def memory(self, version) -> MemoryState:
        mem = MemoryState(self.srams, self.regs, banks=self.banks)
        for name, arr in self.data.items():
            buf = mem.scratchpads[name].buffer(version)
            buf[...] = np.asarray(arr).reshape(buf.shape).astype(buf.dtype)
        return mem

    def fifo_sims(self) -> Dict[str, FifoSim]:
        return {f.name: FifoSim(f) for f in self.fifos}


@dataclass
class Outcome:
    """Everything one run exposes."""

    error: Optional[tuple] = None
    #: per issue: ([(group key, addresses)], [(sram, addresses)])
    issues: List[tuple] = field(default_factory=list)
    extras: List[int] = field(default_factory=list)
    counters: Dict[str, tuple] = field(default_factory=dict)
    buffers: Dict[str, list] = field(default_factory=dict)
    registers: Dict[str, tuple] = field(default_factory=dict)
    fifos: Dict[str, list] = field(default_factory=dict)
    accumulators: Dict[int, list] = field(default_factory=dict)


def _state(out: Outcome, mem: MemoryState, fifos) -> None:
    for name, sp in mem.scratchpads.items():
        out.counters[name] = (sp.reads, sp.writes, sp.conflict_cycles,
                              sorted(sp.watermark.items()))
        out.buffers[name] = [(v, sp.versions[v].tobytes())
                             for v in sorted(sp.versions)]
    for name, reg in mem.registers.items():
        out.registers[name] = typed(reg.value)
    for name, fifo in fifos.items():
        out.fifos[name] = [typed(v) for v in fifo.items]


def _accs(accs) -> Dict[int, list]:
    return {si: [(key, [typed(v) for v in values])
                 for key, (_, values) in table.items()]
            for si, table in accs.items()}


class _Capturing(InnerComputeSim):
    """An InnerComputeSim that records each issue's priced groups."""

    def __init__(self, *args):
        super().__init__(*args)
        self.issues: List[tuple] = []

    def _price(self, read_accesses, write_addrs):
        self.issues.append((
            [(key, np.asarray(addrs).tolist())
             for key, addrs in read_accesses.items()],
            [(name, addrs.tolist()) for name, addrs in write_addrs.items()]))
        return super()._price(read_accesses, write_addrs)


def leaf_for(stmts, par: int = 16, index: Optional[E.Idx] = None,
             name: str = "body") -> InnerCompute:
    """An InnerCompute over one innermost index (issues are supplied
    directly, so the counter range is nominal)."""
    index = index if index is not None else E.Idx("i")
    chain = CounterChain([Counter(0, par, par=par)], [index])
    return InnerCompute(name, chain, list(stmts))


def run_kernel(leaf: InnerCompute, setup: Setup, issues,
               version=(0,), finals: bool = True) -> Outcome:
    """``issues``: list of (outer bindings dict, inner lane values)."""
    mem = setup.memory(version)
    fifos = setup.fifo_sims()
    config = FabricConfig()
    config.leaf_timing[leaf.name] = LeafTiming()
    sim = _Capturing(leaf, config, mem, SimStats(), fifos)
    out = Outcome()
    try:
        sim.start({}, version)
        index = leaf.chain.indices[-1]
        for outer, inner in issues:
            out.extras.append(sim._execute(
                Batch(dict(outer), index, np.asarray(inner, np.int64))))
        out.accumulators = _accs(sim._accs)
        if finals:
            sim._apply_finals()
    except Exception as exc:               # compared, not swallowed
        out.error = (type(exc).__name__, str(exc))
        out.accumulators = _accs(sim._accs)
    out.issues = sim.issues
    _state(out, mem, fifos)
    return out


def run_reference(leaf: InnerCompute, setup: Setup, issues,
                  version=(0,), finals: bool = True) -> Outcome:
    mem = setup.memory(version)
    fifos = setup.fifo_sims()
    ref = ScalarLeaf(leaf, mem, fifos, name=leaf.name)
    out = Outcome()
    try:
        ref.begin(version)
        index = leaf.chain.indices[-1]
        for outer, inner in issues:
            lanes = []
            for value in inner:
                lane = dict(outer)
                lane[index] = int(value)
                lanes.append(lane)
            extra = ref.execute(lanes)
            out.extras.append(extra)
            reads, writes = ref.issues[-1]
            out.issues.append((list(reads.items()), list(writes.items())))
        out.accumulators = _accs(ref.accs)
        if finals:
            ref.apply_finals()
    except Exception as exc:
        out.error = (type(exc).__name__, str(exc))
        out.accumulators = _accs(ref.accs)
        out.issues = [(list(r.items()), list(w.items()))
                      for r, w in ref.issues]
    _state(out, mem, fifos)
    return out


def assert_same(leaf, setup, issues, version=(0,), finals=True) -> Outcome:
    """Run both evaluators; assert identical behaviour, including the
    state a raising issue leaves behind; return it."""
    got = run_kernel(leaf, setup, issues, version, finals)
    want = run_reference(leaf, setup, issues, version, finals)
    assert got.error == want.error
    assert got.issues == want.issues
    assert got.extras == want.extras
    assert got.accumulators == want.accumulators
    assert got.counters == want.counters
    assert got.buffers == want.buffers
    assert got.registers == want.registers
    assert got.fifos == want.fifos
    return got
