"""Dense vs event scheduler: cycle-exact equivalence.

The event-driven wakeup scheduler must be *indistinguishable* from the
dense tick-everything loop in every observable output: final results,
``SimStats`` (cycle counts, busy/stall counters, DRAM statistics), and
— with tracing on — the full stall-attribution breakdown and per-unit
timelines.  These tests sweep the whole benchmark registry plus the
failure paths (deadlock, max-cycles) under both schedulers.
"""

import dataclasses

import numpy as np
import pytest

from repro.apps import ALL_APPS
from repro.compiler import compile_program
from repro.dhdl import (Counter, CounterChain, DhdlProgram, EmitStmt,
                        InnerCompute, OuterController, Scheme, TileLoad,
                        validate)
from repro.errors import DeadlockError, SimulationError
from repro.patterns import Array
from repro.patterns import expr as E
from repro.sim import AgAssignment, FabricConfig, LeafTiming, Machine
from repro.trace import RingTracer


def scratchpad_counters(machine):
    """Every scratchpad's (reads, writes, conflict cycles)."""
    return {name: (sp.reads, sp.writes, sp.conflict_cycles)
            for name, sp in machine.mem.scratchpads.items()}


def _run(compiled, scheduler, traced=False):
    tracer = RingTracer(sample=4) if traced else None
    machine = Machine(compiled.dhdl, compiled.config, tracer=tracer,
                      scheduler=scheduler)
    stats = machine.run()
    report = machine.trace_report() if traced else None
    return machine, stats, report


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_registry_stats_identical(app):
    program = app.build("tiny")
    expected = app.expected(program)
    compiled = compile_program(program)
    md, sd, _ = _run(compiled, "dense")
    me, se, _ = _run(compiled, "event")
    assert dataclasses.asdict(sd) == dataclasses.asdict(se)
    # SimStats can agree while per-scratchpad pricing drifts
    assert scratchpad_counters(md) == scratchpad_counters(me)
    for name in expected:
        np.testing.assert_array_equal(md.result(name), me.result(name))
    app.check(program, {n: me.result(n) for n in expected}, expected)


@pytest.mark.parametrize("app", ALL_APPS, ids=lambda a: a.name)
def test_registry_attribution_identical(app):
    """Traced runs: identical stall breakdown and RLE timelines."""
    compiled = compile_program(app.build("tiny"))
    _, sd, rd = _run(compiled, "dense", traced=True)
    _, se, re_ = _run(compiled, "event", traced=True)
    assert dataclasses.asdict(sd) == dataclasses.asdict(se)
    assert rd.render() == re_.render()


@pytest.mark.parametrize("app_name,sram,reads", [
    # counter-bound loads (ptr[i], ptr[i+1]) are priced with the next
    # vector issue
    ("smdv", "ptr_buf", 2288),
    # emit values load only on lanes whose condition holds
    ("bfs", "cand_buf", 550)])
def test_scratchpad_read_pins_at_small(app_name, sram, reads):
    from repro.apps import get_app
    compiled = compile_program(get_app(app_name).build("small"))
    machine, _, _ = _run(compiled, "event")
    assert machine.mem.scratchpads[sram].reads == reads


def test_event_scheduler_fast_forwards():
    """A DRAM-bound app must actually skip cycles, and the split must
    account for every simulated cycle."""
    compiled = compile_program(ALL_APPS[0].build("tiny"))
    machine = Machine(compiled.dhdl, compiled.config, scheduler="event")
    stats = machine.run()
    sched = machine.scheduler_stats
    assert sched.fast_forwarded_cycles > 0
    assert (sched.executed_cycles + sched.fast_forwarded_cycles
            == stats.cycles)


def test_dense_scheduler_has_no_scheduler_stats():
    compiled = compile_program(ALL_APPS[0].build("tiny"))
    machine = Machine(compiled.dhdl, compiled.config, scheduler="dense")
    machine.run()
    assert machine.scheduler_stats is None


def test_unknown_scheduler_rejected():
    compiled = compile_program(ALL_APPS[0].build("tiny"))
    with pytest.raises((ValueError, SimulationError)):
        Machine(compiled.dhdl, compiled.config,
                scheduler="optimistic").run()


def _rowconf_machine(scheduler):
    """A long-fast-forward workload (see eval.bench dram_rowconf)."""
    from repro.eval.bench import SYNTHETIC
    dhdl, config, _check = SYNTHETIC["dram_rowconf"]("tiny")
    return Machine(dhdl, config, scheduler=scheduler)


def test_retirement_across_fast_forward_jumps():
    """Scratchpad N-buffer retirement happens on every 256-cycle
    boundary even when fast-forward jumps span several boundaries: the
    set of live buffer versions must match the dense loop's exactly."""
    versions = {}
    for mode in ("dense", "event"):
        machine = _rowconf_machine(mode)
        machine.run()
        versions[mode] = {name: sorted(sp.versions)
                          for name, sp in
                          machine.mem.scratchpads.items()}
    assert versions["dense"] == versions["event"]
    if machine.scheduler_stats is not None:
        # the workload must actually exercise multi-boundary jumps
        assert machine.scheduler_stats.fast_forwarded_cycles > 512


def _deadlock_machine(scheduler, tracer=None):
    dhdl = DhdlProgram("dead")
    dram_in = dhdl.dram(Array("a", (64,), E.FLOAT32,
                              data=np.ones(64, dtype=np.float32)))
    tile = dhdl.sram("t", (64,), E.FLOAT32)
    fifo = dhdl.fifo("f", depth=1)
    pipe = OuterController("pipe", Scheme.PIPELINE)
    dhdl.root.add(pipe)
    pipe.add(TileLoad("ld", dram_in, tile, (0,), (64,)))
    stream = OuterController("s", Scheme.STREAMING)
    pipe.add(stream)
    i = E.Idx("i")
    chain = CounterChain([Counter(0, 64, par=16)], [i])
    stream.add(InnerCompute("emit_only", chain,
                            [EmitStmt(fifo, True, tile[i])]))
    validate(dhdl)
    config = FabricConfig()
    for leaf in dhdl.leaves():
        config.leaf_timing[leaf.name] = LeafTiming()
        config.ag_assign[leaf.name] = AgAssignment()
    return Machine(dhdl, config, watchdog=500, tracer=tracer,
                   scheduler=scheduler)


def test_deadlock_trips_at_same_cycle_under_both_schedulers():
    """The watchdog must fire on the same cycle whether the stuck spin
    is executed densely or skipped by fast-forward."""
    cycles = {}
    for mode in ("dense", "event"):
        with pytest.raises(DeadlockError) as err:
            _deadlock_machine(mode).run()
        cycles[mode] = str(err.value)
    assert "emit_only" in cycles["event"]
    assert cycles["dense"] == cycles["event"]


def test_max_cycles_trips_at_same_cycle_under_both_schedulers():
    from repro.apps import get_app
    compiled = compile_program(get_app("gemm").build("tiny"))
    messages = {}
    for mode in ("dense", "event"):
        machine = Machine(compiled.dhdl, compiled.config,
                          scheduler=mode)
        with pytest.raises(SimulationError, match="max_cycles") as err:
            machine.run(max_cycles=37)
        messages[mode] = str(err.value)
    assert messages["dense"] == messages["event"]
