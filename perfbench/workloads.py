"""The three in-process workloads: solo-sim, dse-grid and cotenant.

Each pass compiles cold, simulates and verifies every op against
reference outputs computed once in set-up by the pattern executor.  A
mismatch is a failed op, never a dropped one.  Every op is timed in
host wall time and in this process's CPU time.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from typing import List, Optional, Sequence

import numpy as np

from harness import OpRow, PassResult, PassWorkload

_wall, _cpu = time.perf_counter, time.process_time


def _span(rec, name: str, op: Optional[str] = None):
    return rec.span(name, op) if rec is not None else nullcontext()


def app_outcome(app, program, machine, expected) -> str:
    """``ok``, or the mismatch ``App.check`` finds (floats within the
    app's own rtol/atol, integers exact)."""
    try:
        results = {name: machine.result(name) for name in expected}
        app.check(program, results, expected)
    except (AssertionError, KeyError, ValueError) as err:
        return "mismatch: " + " ".join(str(err).split())[:300]
    return "ok"


def spec_outcome(machine, expected) -> str:
    """A fuzz spec has no ``App``: the fuzz oracle's rule, floats within
    its tolerances and integers exact."""
    from repro.fuzz.oracle import ATOL, RTOL
    bad = []
    for name, want in expected.items():
        try:
            got = np.asarray(machine.result(name)).reshape(-1)
            got = got[:want.size].reshape(want.shape)
        except (KeyError, ValueError) as err:
            bad.append(f"{name}: {err}")
            continue
        if want.dtype.kind == "f":
            close = np.allclose(got, want, rtol=RTOL, atol=ATOL)
        else:
            close = np.array_equal(got, want)
        if not close:
            bad.append(name)
    return f"mismatch: {bad}" if bad else "ok"


class SoloSim(PassWorkload):
    """Every Table 4 app plus seeded fuzz specs, one cold compile and one
    event-scheduled simulation each: the datapath-dominated run."""

    name = "solo-sim"

    def __init__(self, seed: int, scale: str = "small",
                 apps: Optional[Sequence[str]] = None, specs: int = 3):
        self.seed = seed
        self.scale = scale
        self.app_names = apps
        self.num_specs = specs

    def imports(self) -> None:
        from repro.apps import registry
        from repro.compiler import artifact
        from repro.fuzz import generator, oracle
        from repro.patterns import executor
        self.registry, self.artifact = registry, artifact
        self.generator, self.oracle = generator, oracle
        self.executor = executor

    def setup(self) -> None:
        registry = self.registry
        apps = (registry.ALL_APPS if self.app_names is None
                else [registry.get_app(n) for n in self.app_names])
        #: (name, kind, rebuild(), verify(program, machine), options)
        self.ops = []
        for app in apps:
            expected = app.expected(app.build(self.scale))
            self.ops.append((
                app.name, "app", lambda app=app: app.build(self.scale),
                lambda program, machine, app=app, expected=expected:
                    app_outcome(app, program, machine, expected),
                None))
        for k in range(self.num_specs):
            spec = self.generator.gen_spec(self.seed * 1000 + k)
            program, outputs = self.generator.build_program(spec)
            env = self.executor.run_program(program)
            expected = {o: env.buffers[o].copy() for o in outputs}
            self.ops.append((
                self.generator.spec_name(spec), "spec",
                lambda spec=spec: self.generator.build_program(spec)[0],
                lambda program, machine, expected=expected:
                    spec_outcome(machine, expected),
                self.oracle.FUZZ_OPTIONS))

    def run_pass(self, rec) -> PassResult:
        freeze = self.artifact.freeze_program
        rows, units = [], []
        started = _wall()
        for name, kind, rebuild, verify, options in self.ops:
            with _span(rec, "op", name):
                t0, c0 = _wall(), _cpu()
                program = rebuild()
                art = freeze(program, name, self.scale, options=options)
                machine = art.machine()
                c1 = _cpu()
                stats = machine.run()
                sim_cpu = _cpu() - c1
                outcome = verify(program, machine)
                host_s, cpu_s = _wall() - t0, _cpu() - c0
                rows.append(OpRow(name, kind, stats.cycles, host_s,
                                  outcome, cpu_s=cpu_s))
                units.append((name, host_s, cpu_s, sim_cpu, t0))
        return PassResult(
            wall_s=_wall() - started, rows=rows,
            cycles=sum(r.cycles for r in rows),
            hi_finish_cycles=max(r.cycles for r in rows), units=units)


def draw_grid(seed: int) -> List[dict]:
    """The Figure-7-shaped 78-point timing grid, in a seeded order.

    Stages sweep Figure 7a's 4..16, with 4, 8 or 16 banks and 1 or 3
    output hops: 13 * 3 * 2 instances of one compiled design.  The seed
    orders the instances (the first one leads the batch cohort and pays
    for full evaluation); drawing the axis values instead moved the
    simulated cycles by a third from seed to seed.
    """
    grid = [{"stages": s, "banks": b, "output_hops": h}
            for s in range(4, 17) for b in (4, 8, 16) for h in (1, 3)]
    rng = np.random.default_rng([0xD5E, seed])
    return [grid[int(i)] for i in rng.permutation(len(grid))]


class DseGrid(PassWorkload):
    """``Machine.run_batch`` over the 78-point timing grid of one design:
    the datapath is mostly replayed, so controller, leaf and DRAM
    stepping dominate.  A seeded sample of instances is also run solo in
    set-up; their batch twins must match bit for bit."""

    name = "dse-grid"
    #: the design swept (Figure 7 sweeps gemm)
    APP = "gemm"

    def __init__(self, seed: int, scale: str = "small",
                 grid: Optional[List[dict]] = None, twins: int = 2):
        self.seed = seed
        self.scale = scale
        self.grid = grid if grid is not None else draw_grid(seed)
        self.num_twins = twins

    def imports(self) -> None:
        from repro.apps import registry
        from repro.compiler import artifact
        from repro.sim import batch
        self.registry, self.artifact, self.batch = registry, artifact, batch

    def setup(self) -> None:
        self.app = self.registry.get_app(self.APP)
        program = self.app.build(self.scale)
        self.expected = self.app.expected(program)
        source = self.artifact.freeze_program(program, self.APP, self.scale)
        rng = np.random.default_rng([0x7517, self.seed])
        picks = rng.choice(len(self.grid), size=self.num_twins,
                           replace=False)
        #: grid index -> (SimStats dict, DRAM image) of a solo run
        self.twins = {}
        for i in sorted(int(p) for p in picks):
            machine = self.batch.instantiate(source, self.grid[i])
            machine.run()
            self.twins[i] = (machine.stats.as_dict(),
                             {k: v.copy()
                              for k, v in machine.image.buffers.items()})

    def _outcome(self, i: int, inst, program) -> str:
        if inst.error is not None:
            return f"error: {inst.error}"
        outcome = app_outcome(self.app, program, inst.machine, self.expected)
        if outcome != "ok":
            return outcome
        twin = self.twins.get(i)
        if twin is not None:
            stats, image = twin
            if inst.stats.as_dict() != stats:
                return "twin: SimStats differ from the solo run"
            buffers = inst.machine.image.buffers
            for name, buf in image.items():
                if not np.array_equal(buf, buffers[name]):
                    return f"twin: DRAM image {name!r} differs"
        return "ok"

    def run_pass(self, rec) -> PassResult:
        started, c0 = _wall(), _cpu()
        with _span(rec, "op", f"{self.APP}-grid"):
            program = self.app.build(self.scale)
            source = self.artifact.freeze_program(program, self.APP,
                                                  self.scale)
            c1 = _cpu()
            batch = self.batch.run_batch(source, self.grid)
            sim_cpu = _cpu() - c1
            rows = []
            for i, inst in enumerate(batch):
                cycles = inst.stats.cycles if inst.error is None else 0
                rows.append(OpRow(
                    f"{self.APP}#{i}", inst.role, cycles, None,
                    self._outcome(i, inst, program),
                    {"params": self.grid[i]}))
        wall, cpu = _wall() - started, _cpu() - c0
        return PassResult(
            wall_s=wall, rows=rows, cycles=sum(r.cycles for r in rows),
            hi_finish_cycles=max(r.cycles for r in rows),
            units=[("grid", wall, cpu, sim_cpu, started)])


#: (label, apps, QoS priorities, bandwidth-aware packing)
MIXES = (
    ("qos", ("gemm", "tpchq6", "tpchq6", "tpchq6"), (8, 1, 1, 1), False),
    ("bw", ("kmeans", "pagerank", "blackscholes", "smdv"), (1, 1, 1, 1),
     True),
)


class Cotenant(PassWorkload):
    """Two co-resident mixes packed with ``pack_apps`` and run on one
    shared ``Fabric`` each: the only path through shared-DRAM
    contention, weighted arbitration and region compiles.  The mixes
    are fixed (the QoS gate pins the first), so the seed changes
    nothing here."""

    name = "cotenant"

    def __init__(self, seed: int, scale: str = "small", mixes=MIXES):
        self.seed = seed
        self.scale = scale
        self.mixes = mixes

    def imports(self) -> None:
        from repro.apps import registry
        from repro.sim import fabric
        from repro.tenancy import packer, profile
        self.registry, self.fabric = registry, fabric
        self.packer, self.profile = packer, profile

    def setup(self) -> None:
        #: app name -> (App, program, reference outputs)
        self.expected = {}
        for _, apps, _, _ in self.mixes:
            for name in apps:
                if name not in self.expected:
                    app = self.registry.get_app(name)
                    program = app.build(self.scale)
                    self.expected[name] = (app, program,
                                           app.expected(program))
        # warm-up: bandwidth-aware packing solo-profiles each app once
        # per process; a long-lived user pays that before any mix
        self.profile.clear_profile_cache()
        for _, apps, _, aware in self.mixes:
            if aware:
                for name in sorted(set(apps)):
                    self.profile.profile_app(name, self.scale)

    def run_pass(self, rec) -> PassResult:
        rows, units, cycles, hi = [], [], 0, (0, 0)
        started = _wall()
        for label, apps, priorities, aware in self.mixes:
            with _span(rec, "op", label):
                t0, c0 = _wall(), _cpu()
                packing = self.packer.pack_apps(
                    list(apps), self.scale, bandwidth_aware=aware)
                if not packing.feasible:
                    rows.extend(OpRow(f"{label}/{a}", "tenant", 0, None,
                                      f"unpackable: {packing.reason}")
                                for a in apps)
                    continue
                fabric = self.fabric.Fabric()
                handles = [
                    fabric.add_tenant(t.artifact.dhdl, t.artifact.config,
                                      name=app, priority=prio)
                    for t, app, prio in zip(packing.tenants, apps,
                                            priorities)]
                c1 = _cpu()
                fabric.run()
                sim_cpu = _cpu() - c1
                cycles += fabric.cycle
                for handle, app, prio in zip(handles, apps, priorities):
                    app_, program, expected = self.expected[app]
                    rows.append(OpRow(
                        f"{label}/{handle.name}", "tenant",
                        handle.finish_cycle, None,
                        app_outcome(app_, program, handle.machine,
                                    expected),
                        {"priority": prio}))
                    hi = max(hi, (prio, handle.finish_cycle))
                units.append((label, _wall() - t0, _cpu() - c0, sim_cpu,
                              t0))
        return PassResult(
            wall_s=_wall() - started, rows=rows,
            cycles=cycles, hi_finish_cycles=hi[1], units=units)
