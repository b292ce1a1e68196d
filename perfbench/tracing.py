"""Per-layer timing shims installed from outside the package.

The benchmark never edits ``src/``: in a traced run it replaces the
public calls listed in :data:`LAYER_CALLS` with thin wrappers that time
each call and restore the originals afterwards.  Timing is span-based:

* every wrapped call is a span with a layer name; its *self time* is its
  duration minus the time of the wrapped calls made inside it, so the
  self times of all layers in one single-threaded run never add up to
  more than the traced wall time;
* *coarse* calls (compiles, machine builds, runs, packing, batch and
  fabric runs, the benchmark's own op spans) are also kept as individual
  span records (name, start, end, parent, op id) for the Chrome export;
* *hot* calls (expression evaluation, per-cycle ticks, scratchpad
  pricing, DRAM stepping) run millions of times per run, so they are
  only aggregated: call count and self time per layer.

Counts the layers produce (units placed, route hops, fast-forwarded
cycles, DRAM row hits...) are read from the return values at the same
boundaries, by the count hooks below.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

_now = time.perf_counter_ns


class Recorder:
    """In-memory span store for one process."""

    def __init__(self):
        #: active frames: [layer, start_ns, child_ns, span_id]
        self.stack: List[list] = []
        #: coarse spans: (id, name, start_ns, end_ns, parent_id, op)
        self.spans: List[Tuple] = []
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.calls: Dict[str, int] = defaultdict(int)
        #: inclusive time of the outermost call of each coarse layer
        self.incl_ns: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.op: Optional[str] = None
        self._active: Dict[str, int] = defaultdict(int)
        self._next_id = 1

    # -- span bookkeeping ----------------------------------------------------
    def _open(self, name: str, coarse: bool) -> list:
        span_id = 0
        if coarse:
            span_id = self._next_id
            self._next_id += 1
            self._active[name] += 1
        frame = [name, 0, 0, span_id]
        self.stack.append(frame)
        frame[1] = _now()
        return frame

    def _close(self, frame: list) -> None:
        end = _now()
        stack = self.stack
        stack.pop()
        name, start, child, span_id = frame
        dur = end - start
        self.self_ns[name] += dur - child
        self.calls[name] += 1
        if stack:
            stack[-1][2] += dur
        if span_id:
            self._active[name] -= 1
            if not self._active[name]:
                self.incl_ns[name] += dur
            parent = 0
            for up in reversed(stack):
                if up[3]:
                    parent = up[3]
                    break
            self.spans.append((span_id, name, start, end, parent,
                               self.op))

    @contextmanager
    def span(self, name: str, op: Optional[str] = None):
        """A coarse span opened by the benchmark's own code; ``op`` tags
        it and every span inside it with one op id."""
        previous = self.op
        if op is not None:
            self.op = op
        frame = self._open(name, True)
        try:
            yield
        finally:
            self._close(frame)
            self.op = previous

    # -- results --------------------------------------------------------------
    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9

    def incl_s(self, layer: str) -> float:
        return self.incl_ns.get(layer, 0) / 1e9

    def summary(self) -> dict:
        """Plain-dict totals (what worker processes hand back)."""
        return {"self_ns": dict(self.self_ns), "calls": dict(self.calls),
                "incl_ns": dict(self.incl_ns),
                "counts": dict(self.counts)}

    def merge(self, summary: dict) -> None:
        """Fold another process's :meth:`summary` into this one."""
        for key in ("self_ns", "calls", "incl_ns", "counts"):
            mine = getattr(self, key)
            for name, value in summary.get(key, {}).items():
                mine[name] += value


# ---------------------------------------------------------------------------
# Count hooks: read what a layer produced at its boundary
# ---------------------------------------------------------------------------


def _count_artifact(rec: Recorder, args, kwargs, artifact) -> None:
    config = artifact.config
    rec.counts["compiler.pcus_used"] += config.pcus_used
    rec.counts["compiler.pmus_used"] += config.pmus_used


def _count_route(rec: Recorder, args, kwargs, net) -> None:
    rec.counts["compiler.route_hops"] += net.hops


def count_stats(rec: Recorder, stats) -> None:
    """Fold one finished machine's SimStats into the sim/dram counts."""
    counts = rec.counts
    counts["sim.ops_executed"] += stats.ops_executed
    counts["sim.cycles"] += stats.cycles
    counts["dram.stall_cycles"] += stats.dram_stall_cycles
    dram = stats.dram or {}
    counts["dram.row_hits"] += dram.get("row_hits", 0)
    counts["dram.row_accesses"] += (dram.get("row_hits", 0)
                                    + dram.get("row_misses", 0)
                                    + dram.get("row_empties", 0))
    counts["dram.busy_cycles"] += stats.dram_busy_fraction * stats.cycles
    for channel in (stats.dram_channels or {}).values():
        counts["dram.arb_won"] += channel.get("arb_won", 0)
        counts["dram.arb_deferred"] += channel.get("arb_deferred", 0)


def count_scheduler(rec: Recorder, machine) -> None:
    """Executed vs fast-forwarded cycles of one event-scheduled run."""
    sched = getattr(machine, "scheduler_stats", None)
    if sched is None:
        rec.counts["sim.executed_cycles"] += machine.stats.cycles
        return
    rec.counts["sim.executed_cycles"] += sched.executed_cycles
    rec.counts["sim.ff_cycles"] += sched.fast_forwarded_cycles


def _count_machine_run(rec: Recorder, args, kwargs, stats) -> None:
    count_stats(rec, stats)
    count_scheduler(rec, args[0])


def _count_batch(rec: Recorder, args, kwargs, batch) -> None:
    rec.counts["batch.cohorts"] += batch.cohorts
    rec.counts["batch.replayed"] += batch.replayed
    rec.counts["batch.instances"] += len(batch)
    for inst in batch:
        if inst.error is None:
            count_stats(rec, inst.stats)
            count_scheduler(rec, inst.machine)


def _count_fabric(rec: Recorder, args, kwargs, result) -> None:
    fabric = args[0]
    for tenant in fabric.tenants:
        machine = tenant.machine
        count_stats(rec, machine.stats)
        before = rec.counts["sim.ff_cycles"]
        count_scheduler(rec, machine)
        skipped = rec.counts["sim.ff_cycles"] - before
        rec.counts["tenancy.ff_cycles"] += skipped
        rec.counts["tenancy.tenant_cycles"] += machine.stats.cycles


def _RECURSIVE(*_):
    """Marks a recursive call: only its outermost entry is timed."""


# ---------------------------------------------------------------------------
# The call table
# ---------------------------------------------------------------------------

#: ``(module, owner, attribute, layer, coarse, hook)``.  ``owner`` is
#: ``None`` for a module-level function, else a class in the module;
#: ``"*leaves"`` expands to every leaf simulator class and ``"*apps"`` to
#: every registry app class.  ``hook(rec, args, kwargs, result)`` reads
#: counts from the call's result; :func:`_RECURSIVE` instead marks a
#: call that recurses into itself.
LAYER_CALLS: Tuple = (
    ("repro.apps.base", "*apps", "build", "patterns.build", True, None),
    ("repro.fuzz.generator", None, "build_program", "patterns.build",
     True, None),
    ("repro.compiler.lowering", "Lowerer", "lower", "compiler.lower",
     True, None),
    ("repro.compiler.scheduling", None, "schedule", "compiler.schedule",
     False, None),
    ("repro.compiler.partition", None, "partition_pcu",
     "compiler.partition", False, None),
    ("repro.compiler.partition", None, "partition_pmu",
     "compiler.partition", False, None),
    ("repro.compiler.place_route", "Fabric", "place_pcus",
     "compiler.place_route", False, None),
    ("repro.compiler.place_route", "Fabric", "place_pmus",
     "compiler.place_route", False, None),
    ("repro.compiler.place_route", "Fabric", "route",
     "compiler.place_route", False, _count_route),
    ("repro.compiler.artifact", None, "freeze_program",
     "compiler.compile", True, _count_artifact),
    ("repro.bitstream.artifact", "Bitstream", "to_bytes",
     "bitstream.encode", False, None),
    ("repro.bitstream.artifact", "Bitstream", "save", "bitstream.encode",
     False, None),
    ("repro.sim.machine", "Machine", "__init__", "sim.build", True, None),
    ("repro.sim.batch", None, "instantiate", "sim.build", True, None),
    ("repro.sim.machine", "Machine", "run", "sim.loop", True,
     _count_machine_run),
    ("repro.sim.datapath", "LaneContext", "eval", "sim.datapath", False,
     _RECURSIVE),
    ("repro.sim.leaves", "*leaves", "tick", "sim.leaves", False, None),
    ("repro.sim.outer", "OuterControllerSim", "tick", "sim.controllers",
     False, None),
    ("repro.sim.scratchpad", "ScratchpadSim", "read_cost",
     "sim.scratchpad", False, None),
    ("repro.sim.scratchpad", "ScratchpadSim", "write_cost",
     "sim.scratchpad", False, None),
    ("repro.dram.model", "DramModel", "tick", "dram.step", False, None),
    ("repro.dram.model", "DramModel", "submit", "dram.step", False, None),
    ("repro.dram.model", "DramModel", "deliver", "dram.step", False,
     None),
    ("repro.dram.model", "DramModel", "advance_to", "dram.step", False,
     None),
    ("repro.sim.batch", None, "run_batch", "batch.run", True,
     _count_batch),
    ("repro.tenancy.packer", None, "pack_apps", "tenancy.pack", True,
     None),
    ("repro.sim.fabric", "Fabric", "run", "tenancy.fabric_run", True,
     _count_fabric),
)


def _shim(rec: Recorder, orig: Callable, layer: str, coarse: bool,
          hook: Optional[Callable]) -> Callable:
    open_, close, stack = rec._open, rec._close, rec.stack

    @functools.wraps(orig)
    def shim(*args, **kwargs):
        frame = open_(layer, coarse)
        try:
            result = orig(*args, **kwargs)
        finally:
            close(frame)
        if hook is not None:
            hook(rec, args, kwargs, result)
        return result

    @functools.wraps(orig)
    def outermost(*args, **kwargs):
        # a recursive call inside the same layer is already timed by
        # its caller: skip the bookkeeping (expression evaluation
        # recurses once per tree node)
        if stack and stack[-1][0] is layer:
            return orig(*args, **kwargs)
        frame = open_(layer, False)
        try:
            return orig(*args, **kwargs)
        finally:
            close(frame)

    return outermost if hook is _RECURSIVE else shim


def _owners(module, owner: Optional[str]) -> list:
    if owner is None:
        return [module]
    if owner == "*leaves":
        import repro.sim.batch  # noqa: F401 (defines record/replay leaves)
        from repro.sim.leaves import NodeSim
        from repro.sim.outer import OuterControllerSim
        found, todo = [], [NodeSim]
        while todo:
            cls = todo.pop()
            todo.extend(cls.__subclasses__())
            if cls is not OuterControllerSim and "tick" in vars(cls):
                found.append(cls)
        return found
    if owner == "*apps":
        from repro.apps.registry import ALL_APPS
        return sorted({type(app) for app in ALL_APPS},
                      key=lambda cls: cls.__name__)
    return [getattr(module, owner)]


class Shims:
    """Installs the :data:`LAYER_CALLS` wrappers; :meth:`remove` puts
    every original back."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: List[Tuple] = []
        for mod_name, owner, attr, layer, coarse, hook in LAYER_CALLS:
            module = importlib.import_module(mod_name)
            for target in _owners(module, owner):
                orig = vars(target).get(attr)
                if orig is None:
                    continue
                shim = _shim(rec, orig, layer, coarse, hook)
                self._set(target, attr, shim, orig)
                if owner is None:
                    self._rebind(orig, shim, attr)

    def _set(self, target, attr, value, orig) -> None:
        setattr(target, attr, value)
        self._undo.append((target, attr, orig))

    def _rebind(self, orig, shim, attr) -> None:
        """Modules that imported a wrapped function by name hold their
        own reference: point those at the shim too."""
        for name, module in list(sys.modules.items()):
            if (name.startswith("repro") and module is not None
                    and vars(module).get(attr) is orig):
                self._set(module, attr, shim, orig)

    def remove(self) -> None:
        for target, attr, orig in reversed(self._undo):
            setattr(target, attr, orig)
        self._undo.clear()


@contextmanager
def traced(rec: Recorder):
    """Shims installed for the duration of the block."""
    shims = Shims(rec)
    try:
        yield rec
    finally:
        shims.remove()


# ---------------------------------------------------------------------------
# Chrome / Perfetto export
# ---------------------------------------------------------------------------


def chrome_events(spans, pid: int, t0_ns: int) -> list:
    """Coarse spans as Chrome Trace Event "complete" events."""
    events = []
    for span_id, name, start, end, parent, op in spans:
        events.append({
            "name": name, "ph": "X", "pid": pid, "tid": pid,
            "ts": (start - t0_ns) / 1e3, "dur": (end - start) / 1e3,
            "args": {"id": span_id, "parent": parent, "op": op}})
    return events


def write_chrome(path: str, processes: List[Tuple[int, list]]) -> None:
    """One trace file holding every process's spans, loadable by
    Perfetto / chrome://tracing."""
    starts = [s[2] for _, spans in processes for s in spans]
    t0 = min(starts) if starts else 0
    events = []
    for pid, spans in processes:
        events.extend(chrome_events(spans, pid, t0))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
