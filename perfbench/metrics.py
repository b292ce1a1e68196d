"""Every metric the benchmark reports, with its unit and what it should
move.  ``BENCHMARK.json`` at the repository root lists the same names
and units; the benchmark's tests keep the two in step.

Simulated time (cycles of the modelled chip) and host time (seconds of
this process or the server's) are named as such.  Every end-to-end
metric is defined on every workload, so each run prints all of them.

Host times are read at a reference host speed: a shared host runs the
same work up to twice as slowly for a second or a minute at a time, so
each op's time is scaled by the host speed sampled around it
(``harness.Speedometer``).  The report keeps the times as measured too.
"""

from __future__ import annotations

#: (name, unit, better, meaning)
END_TO_END = (
    ("setup_s", "s", "lower",
     "host time of imports plus the median of three set-ups: program "
     "builds, reference outputs, server spawn and warm-up"),
    ("wall_s", "s", "lower",
     "host time of one pass of the workload's fixed work, compile to "
     "verified results (each op's median over passes, summed); "
     "serve-mix: first due request to last response, as measured (the "
     "schedule sets it)"),
    ("sim_cycles", "cycles", "lower",
     "simulated cycles summed over one pass's ops (cotenant: fabric "
     "makespans)"),
    ("sim_cycles_per_s", "cycles/s", "higher",
     "simulated cycles per host CPU second spent inside simulation calls "
     "(serve-mix: worker-reported simulate time)"),
    ("hi_finish_cycles", "cycles", "lower",
     "simulated finish cycle of the highest-priority op; where all ops "
     "share one priority, the longest op"),
    ("lat_p50_ms", "ms", "lower",
     "median host latency of the op a user waits on: a program "
     "(solo-sim), a sweep (dse-grid), a mix (cotenant), each its median "
     "over passes; a request timed from its due time (serve-mix)"),
    ("lat_tail_ms", "ms", "lower",
     "highest percentile of the same latencies with at least ten "
     "samples beyond it (the slowest when there are fewer than twenty); "
     "the report names the percentile and the sample count"),
    ("goodput_frac", "fraction", "higher",
     "share of attempted ops verified correct; serve-mix: share of "
     "requests sent that returned 200 with verified cycles within the "
     "latency limit"),
    ("peak_rss_mb", "MB", "lower",
     "peak resident memory of the processes doing the work (serve-mix: "
     "server plus pool workers)"),
)

#: (name, unit, better, what it times or counts, [(end-to-end metric,
#: workload)] it should move).  ``_s`` metrics are self times per pass
#: (span minus the wrapped calls inside it) unless the description says
#: inclusive; counts are per pass.
PER_LAYER = (
    ("patterns.build_s", "s", "lower", "App.build, fuzz build_program",
     [("setup_s", "all"), ("wall_s", "solo-sim")]),
    ("compiler.lower_s", "s", "lower", "Lowerer.lower",
     [("wall_s", "solo-sim"), ("wall_s", "cotenant")]),
    ("compiler.schedule_s", "s", "lower", "scheduling.schedule",
     [("wall_s", "solo-sim"), ("wall_s", "cotenant")]),
    ("compiler.partition_s", "s", "lower", "partition_pcu / partition_pmu",
     [("wall_s", "solo-sim"), ("wall_s", "cotenant")]),
    ("compiler.place_route_s", "s", "lower",
     "place_route.Fabric place_pcus / place_pmus / route",
     [("wall_s", "solo-sim"), ("wall_s", "cotenant")]),
    ("compiler.compile_s", "s", "lower", "freeze_program, inclusive",
     [("wall_s", "solo-sim"), ("wall_s", "cotenant")]),
    ("compiler.pcus_used", "count", "lower",
     "PCUs placed, summed over compiles",
     [("sim_cycles", "solo-sim")]),
    ("compiler.pmus_used", "count", "lower",
     "PMUs placed, summed over compiles",
     [("sim_cycles", "solo-sim")]),
    ("compiler.route_hops", "count", "lower", "hops of every routed net",
     [("sim_cycles", "solo-sim")]),
    ("bitstream.encode_s", "s", "lower", "Bitstream.to_bytes / save",
     [("lat_p50_ms", "serve-mix")]),
    ("bitstream.cache_hit_frac", "fraction", "higher",
     "compile-cache hits / lookups (serve /statsz delta)",
     [("lat_p50_ms", "serve-mix")]),
    ("sim.build_s", "s", "lower", "Machine.__init__, batch.instantiate",
     [("wall_s", "solo-sim"), ("wall_s", "dse-grid")]),
    ("sim.loop_s", "s", "lower", "Machine.run self time: the scheduler loop",
     [("sim_cycles_per_s", "solo-sim")]),
    ("sim.datapath_s", "s", "lower", "LaneContext.eval",
     [("sim_cycles_per_s", "solo-sim")]),
    ("sim.leaves_s", "s", "lower", "leaf simulator tick",
     [("sim_cycles_per_s", "dse-grid"), ("wall_s", "cotenant")]),
    ("sim.controllers_s", "s", "lower", "OuterControllerSim.tick",
     [("sim_cycles_per_s", "dse-grid"), ("wall_s", "cotenant")]),
    ("sim.scratchpad_s", "s", "lower", "ScratchpadSim read_cost / write_cost",
     [("sim_cycles_per_s", "solo-sim")]),
    ("sim.executed_cycles", "cycles", "lower", "cycles the loops executed",
     [("sim_cycles_per_s", "dse-grid"), ("wall_s", "cotenant")]),
    ("sim.ff_frac", "fraction", "higher", "fast-forwarded / simulated cycles",
     [("sim_cycles_per_s", "dse-grid"), ("wall_s", "cotenant")]),
    ("sim.ops_executed", "count", "lower", "datapath operations simulated",
     [("sim_cycles_per_s", "solo-sim")]),
    ("sim.datapath_ns_per_op", "ns", "lower",
     "sim.datapath_s / sim.ops_executed",
     [("sim_cycles_per_s", "solo-sim")]),
    ("dram.step_s", "s", "lower",
     "DramModel tick / submit / deliver / advance_to",
     [("wall_s", "cotenant")]),
    ("dram.row_hit_frac", "fraction", "higher", "row hits / row accesses",
     [("sim_cycles", "cotenant"), ("hi_finish_cycles", "cotenant")]),
    ("dram.stall_cycles", "cycles", "lower", "SimStats.dram_stall_cycles",
     [("sim_cycles", "cotenant"), ("hi_finish_cycles", "cotenant")]),
    ("dram.busy_frac", "fraction", "lower", "data-bus busy share of cycles",
     [("sim_cycles", "cotenant")]),
    ("dram.arb_won", "count", "higher", "contested weighted arbitrations won",
     [("hi_finish_cycles", "cotenant")]),
    ("dram.arb_deferred", "count", "lower",
     "contested weighted arbitrations lost",
     [("hi_finish_cycles", "cotenant")]),
    ("batch.run_s", "s", "lower", "run_batch self time",
     [("wall_s", "dse-grid")]),
    ("batch.cohorts", "count", "lower", "cohorts per batch run",
     [("wall_s", "dse-grid")]),
    ("batch.replayed_frac", "fraction", "higher", "replayed / batch instances",
     [("wall_s", "dse-grid")]),
    ("tenancy.pack_s", "s", "lower", "pack_apps self time",
     [("wall_s", "cotenant")]),
    ("tenancy.fabric_run_s", "s", "lower", "sim.fabric.Fabric.run self time",
     [("wall_s", "cotenant")]),
    ("tenancy.fabric_ff_frac", "fraction", "higher",
     "fast-forwarded / tenant cycles on a shared fabric",
     [("wall_s", "cotenant")]),
    ("serve.compile_ms", "ms", "lower", "worker-reported compile time, p50",
     [("lat_p50_ms", "serve-mix")]),
    ("serve.sim_ms", "ms", "lower", "worker-reported simulate time, p50",
     [("lat_p50_ms", "serve-mix")]),
    ("serve.queue_ms", "ms", "lower",
     "latency minus compile and simulate, p50",
     [("lat_p50_ms", "serve-mix"), ("lat_tail_ms", "serve-mix")]),
    ("serve.result_hit_frac", "fraction", "higher",
     "result-cache hits / requests sent (/statsz delta)",
     [("lat_p50_ms", "serve-mix")]),
    ("serve.coalesced_frac", "fraction", "higher",
     "coalesced / requests sent (/statsz delta)",
     [("lat_p50_ms", "serve-mix")]),
    ("serve.rejected", "count", "lower", "429s (/statsz delta)",
     [("goodput_frac", "serve-mix")]),
    ("serve.gen_lag_ms", "ms", "lower", "latest the open-loop generator sent",
     [("lat_tail_ms", "serve-mix")]),
    ("trace.wall_s", "s", "lower", "host time of one traced pass (mean)", []),
    ("trace.overhead_frac", "fraction", "lower",
     "traced wall / untraced wall - 1: how far to trust self times", []),
)

#: open-loop arrival rate of serve-mix (under a third of the 24-32
#: requests/s at which two pool workers saturate on this mix)
SERVE_RATE_PER_S = 8.0
#: serve-mix goodput counts a request only within this latency, at the
#: reference host speed.  Over twenty 20 s runs on a 2-vCPU host
#: lat_tail_ms (p93.75 of 160 requests) ranged 62-74 ms and the slowest
#: single request took 173 ms (444 ms as measured), so the limit is about
#: 3.4 times the highest tail and 1.4 times the slowest request seen.
SERVE_LATENCY_LIMIT_MS = 250.0
