"""Turn measurements into the named metrics of ``metrics.py``."""

from __future__ import annotations

from typing import Dict, Tuple

from harness import Measured, median, tail
from metrics import END_TO_END, PER_LAYER

_UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def _named(values: Dict[str, float]) -> Dict[str, dict]:
    return {name: {"value": float(value), "unit": _UNITS[name]}
            for name, value in values.items()}


def _check_names(values: dict, table) -> None:
    wrong = {name for name, *_ in table} ^ set(values)
    if wrong:
        raise RuntimeError(f"metric names out of step: {sorted(wrong)}")


def end_to_end(m: Measured, setup_s: float,
               peak_rss_mb: float) -> Tuple[Dict[str, dict], dict]:
    """The end-to-end metrics of an untraced measurement, plus the
    details the report keeps beside them (tail percentile and sample
    count, pass count)."""
    lat_tail = tail(m.latencies_ms)
    good = m.good if m.good is not None else (m.attempted - m.failed)
    values = {
        "setup_s": setup_s,
        "wall_s": m.wall_s,
        "sim_cycles": m.sim_cycles,
        "sim_cycles_per_s": m.cycles_per_s,
        "hi_finish_cycles": m.hi_finish,
        "lat_p50_ms": median(m.latencies_ms),
        "lat_tail_ms": lat_tail["value"],
        "goodput_frac": good / m.attempted if m.attempted else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    _check_names(values, END_TO_END)
    details = {"passes": len(m.pass_wall_s), "pass_wall_s": m.pass_wall_s,
               "lat_tail": lat_tail, "lat_samples": len(m.latencies_ms),
               "good": good, "cpu_s": m.cpu_s,
               "cpu_over_wall": m.cpu_s / m.wall_s if m.cpu_s else None}
    return _named(values), details


def _basis(m: Measured) -> float:
    """Host time the shims can distort: the fixed work's wall time, or
    for the serve tier the pool's busy time (its wall is set by the
    schedule)."""
    return m.extra.get("busy_s") or m.wall_s


def per_layer(rec, traced: Measured, untraced: Measured
              ) -> Dict[str, dict]:
    """The per-layer metrics of a traced measurement (per traced pass).

    ``traced.extra["layer"]`` carries values measured outside this
    process (the serve tier's own counters).
    """
    passes = len(traced.pass_wall_s)
    counts = rec.counts

    def self_s(layer):
        return rec.self_s(layer) / passes

    def per_pass(key):
        return counts.get(key, 0) / passes

    def ratio(num, den):
        den = counts.get(den, 0)
        return counts.get(num, 0) / den if den else 0.0

    ops = counts.get("sim.ops_executed", 0)
    simulated = counts.get("sim.executed_cycles", 0) + counts.get(
        "sim.ff_cycles", 0)
    traced_wall = sum(traced.pass_wall_s) / passes
    values = {
        "patterns.build_s": self_s("patterns.build"),
        "compiler.lower_s": self_s("compiler.lower"),
        "compiler.schedule_s": self_s("compiler.schedule"),
        "compiler.partition_s": self_s("compiler.partition"),
        "compiler.place_route_s": self_s("compiler.place_route"),
        "compiler.compile_s": rec.incl_s("compiler.compile") / passes,
        "compiler.pcus_used": per_pass("compiler.pcus_used"),
        "compiler.pmus_used": per_pass("compiler.pmus_used"),
        "compiler.route_hops": per_pass("compiler.route_hops"),
        "bitstream.encode_s": self_s("bitstream.encode"),
        "bitstream.cache_hit_frac": ratio("bitstream.cache_hits",
                                          "bitstream.cache_lookups"),
        "sim.build_s": self_s("sim.build"),
        "sim.loop_s": self_s("sim.loop"),
        "sim.datapath_s": self_s("sim.datapath"),
        "sim.leaves_s": self_s("sim.leaves"),
        "sim.controllers_s": self_s("sim.controllers"),
        "sim.scratchpad_s": self_s("sim.scratchpad"),
        "sim.executed_cycles": per_pass("sim.executed_cycles"),
        "sim.ff_frac": (counts.get("sim.ff_cycles", 0) / simulated
                        if simulated else 0.0),
        "sim.ops_executed": per_pass("sim.ops_executed"),
        "sim.datapath_ns_per_op": (rec.self_ns.get("sim.datapath", 0)
                                   / ops if ops else 0.0),
        "dram.step_s": self_s("dram.step"),
        "dram.row_hit_frac": ratio("dram.row_hits", "dram.row_accesses"),
        "dram.stall_cycles": per_pass("dram.stall_cycles"),
        "dram.busy_frac": ratio("dram.busy_cycles", "sim.cycles"),
        "dram.arb_won": per_pass("dram.arb_won"),
        "dram.arb_deferred": per_pass("dram.arb_deferred"),
        "batch.run_s": self_s("batch.run"),
        "batch.cohorts": per_pass("batch.cohorts"),
        "batch.replayed_frac": ratio("batch.replayed", "batch.instances"),
        "tenancy.pack_s": self_s("tenancy.pack"),
        "tenancy.fabric_run_s": self_s("tenancy.fabric_run"),
        "tenancy.fabric_ff_frac": ratio("tenancy.ff_cycles",
                                        "tenancy.tenant_cycles"),
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": _basis(traced) / _basis(untraced) - 1.0,
    }
    # the serve tier's layers run in its own processes; workloads that
    # do not drive it never touch them
    values.update({name: 0.0 for name, *_ in PER_LAYER
                   if name.startswith("serve.")})
    values.update(traced.extra.get("layer", {}))
    _check_names(values, PER_LAYER)
    return _named(values)
