"""serve-mix: an open-loop request schedule against a spawned server.

Requests are due at a fixed rate, whatever the server does, and each is
timed from its due time, so a stall shows up in the latency of every
request behind it.  A request a pool job answered is scaled to the
reference host speed by the speed its worker sampled during the job
(``serve_child.py``); any other by the speed this process sampled.  They go out from this process over at most ``nproc``
persistent connections to a ``repro serve`` with at most ``nproc`` pool
workers, spawned in set-up with empty caches.

Most requests are distinct: seeded fuzz specs and registry apps at
``tiny``, each a cold compile plus a simulation in the pool.  A minority
repeat earlier work: an exact repeat sent together with its original
(coalescing), an exact repeat of a finished request (result cache), and
a repeat under the dense scheduler (new job, compile-cache hit).  Every
response's cycle count must equal the cycles this process simulated for
the same input in set-up.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import socket
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from harness import (Measured, OpRow, Speedometer, alive, children_of,
                     median, proc_peak_rss_mb, reset_peak_rss)
from metrics import SERVE_LATENCY_LIMIT_MS, SERVE_RATE_PER_S

HERE = os.path.dirname(os.path.abspath(__file__))

#: share of the requests in each repeat class (the rest is distinct).
#: Together a fifth, a minority; each class is at least six of the 120
#: requests a 15 s run sends (eight of 160 in 20 s), so every mechanism
#: fires several times a run.  Over forty 15 s runs the server saw
#: serve.coalesced_frac 0.050 (0.042 in six of them: a pair's second
#: request came after its original had finished and hit the result cache
#: instead), serve.result_hit_frac 0.100-0.133 (a second dense repeat of
#: the same app hits it too) and bitstream.cache_hit_frac 0.020-0.059.
COALESCE, RESULT_REPEAT, RECOMPILE = 0.05, 0.10, 0.05
WARMUP_SPECS = 4
#: warm-up specs come from seeds no schedule uses (those are seed*1000+k)
WARMUP_SEED = 2**40


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class _Server:
    """One spawned ``repro serve`` and its own cache directories."""

    def __init__(self, root: str, work: str, jobs: int, traced: bool):
        self.work = work
        self.trace_dir = os.path.join(work, "spans") if traced else None
        self.speed_dir = os.path.join(work, "speed")
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        self.host, self.port = "127.0.0.1", _free_port()
        argv = [sys.executable, os.path.join(HERE, "serve_child.py"),
                "--speed-dir", self.speed_dir]
        if traced:
            argv += ["--trace-dir", self.trace_dir]
        argv += ["--", "serve", "--host", self.host,
                 "--port", str(self.port), "--jobs", str(jobs),
                 "--queue-depth", "64",
                 "--cache-dir", os.path.join(work, "cache"),
                 "--data-dir", os.path.join(work, "data")]
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.log = open(os.path.join(work, "server.log"), "wb")
        self.proc = subprocess.Popen(argv, cwd=root, env=env,
                                     stdout=self.log,
                                     stderr=subprocess.STDOUT)

    def pids(self) -> List[int]:
        return [self.proc.pid] + children_of(self.proc.pid)

    def peak_rss_mb(self) -> float:
        return sum(proc_peak_rss_mb(pid) for pid in self.pids())

    def reset_peak_rss(self) -> None:
        for pid in self.pids():
            reset_peak_rss(pid)

    def stop(self) -> List[int]:
        """SIGTERM, wait, and return pids still alive afterwards (each
        then killed) — the server and its pool must all be gone."""
        pids = self.pids()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        deadline = time.monotonic() + 10
        left = [pid for pid in pids if alive(pid)]
        while left and time.monotonic() < deadline:
            time.sleep(0.05)
            left = [pid for pid in left if alive(pid)]
        for pid in left:
            try:
                os.kill(pid, signal.SIGKILL)
            except OSError:
                pass
        self.log.close()
        return left

    def job_scales(self) -> Dict[str, float]:
        """Each pool job's scale to the reference host speed, by id."""
        scales: Dict[str, float] = {}
        if os.path.isdir(self.speed_dir):
            for name in sorted(os.listdir(self.speed_dir)):
                if name.endswith(".json"):
                    with open(os.path.join(self.speed_dir, name)) as fh:
                        scales.update(json.load(fh))
        return scales

    def worker_layers(self) -> List[dict]:
        if self.trace_dir is None or not os.path.isdir(self.trace_dir):
            return []
        out = []
        for name in sorted(os.listdir(self.trace_dir)):
            if name.endswith(".json"):
                with open(os.path.join(self.trace_dir, name)) as fh:
                    out.append(json.load(fh))
        return out


class ServeMix:
    """The serve-mix workload (see the module docstring)."""

    name = "serve-mix"

    def __init__(self, seed: int, seconds: float, trace: bool,
                 work_dir: str, root: str,
                 rate: float = SERVE_RATE_PER_S,
                 jobs: Optional[int] = None):
        self.seed = seed
        self.root = root
        self.work_dir = work_dir
        self.rate = rate
        self.jobs = jobs or os.cpu_count() or 1
        self.connections = self.jobs
        self.trace = trace
        # a traced run measures half the time untraced, half traced
        self.count = max(1, int(rate * (seconds / 2 if trace
                                        else seconds)))
        self.servers: Dict[str, _Server] = {}
        self._setups = 0
        self._peak = 0.0

    # -- set-up ---------------------------------------------------------------
    def imports(self) -> None:
        from repro.apps import registry
        from repro.bitstream.artifact import CompileOptions
        from repro.compiler import artifact
        from repro.fuzz import generator
        from repro.serve import client, protocol
        self.registry, self.artifact = registry, artifact
        self.generator, self.client = generator, client
        self.protocol = protocol
        self.spec_options = CompileOptions(
            tile_words=protocol.JobParams.tile_words,
            whole_budget=protocol.JobParams.whole_budget)

    def schedule(self) -> List[Tuple[float, str, str, dict]]:
        """``(due_s, class, identity, body)`` per request.

        The distinct inputs are a fixed corpus (every registry app at
        ``tiny``, then fuzz specs from generator seeds 0, 1, ...), so
        every seed asks for the same simulated work; the seed orders the
        corpus and places the repeats.  Coalesced pairs and dense-
        scheduler repeats use registry apps, whose costs are alike, so
        where they land does not reshape the latency tail.  The first
        second of the schedule is distinct work, so every result-cache
        or recompile repeat has an earlier original.
        """
        rng = np.random.default_rng([0x5E7, self.seed])
        n = self.count
        apps = [a.name for a in self.registry.ALL_APPS]
        pairs = min(round(COALESCE * n), len(apps))
        repeats = round(RESULT_REPEAT * n)
        recompiles = round(RECOMPILE * n)
        singles = n - 2 * pairs - repeats - recompiles
        apps = [apps[int(i)] for i in rng.permutation(len(apps))]
        paired = [(f"app:{a}", {"app": a, "scale": "tiny"})
                  for a in apps[:pairs]]
        corpus = [(f"app:{a}", {"app": a, "scale": "tiny"})
                  for a in apps[pairs:]][:singles]
        for k in range(singles - len(corpus)):
            spec = self.generator.gen_spec(k)
            corpus.append((self.generator.spec_name(spec), {"spec": spec}))
        corpus = [corpus[int(i)] for i in rng.permutation(len(corpus))]
        head = min(len(corpus), int(self.rate) + 1)
        rest = (["pair"] * pairs + ["result-repeat"] * repeats
                + ["recompile"] * recompiles
                + ["single"] * (len(corpus) - head))
        slots = ["single"] * head + [rest[int(i)]
                                     for i in rng.permutation(len(rest))]
        out: List[Tuple[float, str, str, dict]] = []
        for i, slot in enumerate(slots):
            due = i / self.rate
            if slot in ("single", "pair"):
                ident, body = (corpus if slot == "single" else paired).pop()
                klass = "spec" if "spec" in body else "app"
                out.append((due, klass, ident, body))
                if slot == "pair":
                    out.append((due, "coalesce", ident, body))
                continue
            sent = [r for r in out if r[1] in ("spec", "app")]
            done = [r for r in sent if r[0] <= due - 1.0] or sent
            if slot == "recompile":
                done = [r for r in done if r[1] == "app"] or done
            _, _, ident, body = done[int(rng.integers(len(done)))]
            if slot == "recompile":
                body = dict(body, params={"scheduler": "dense"})
            out.append((due, slot, ident, body))
        return out

    def _reference_cycles(self, body: dict) -> int:
        """Cycles of the same input simulated in this process."""
        if "spec" in body:
            program, _ = self.generator.build_program(body["spec"])
            art = self.artifact.freeze_program(
                program, "reference", "serve", options=self.spec_options)
        else:
            art = self.artifact.compile_to_bitstream(body["app"],
                                                     body["scale"])
        return art.machine().run().cycles

    def setup(self) -> None:
        self.plan = self.schedule()
        # the pool tags its spans of a request with this id
        self.job_ids = [self.protocol.parse_request(body, "simulate")
                        .key[:16] for _, _, _, body in self.plan]
        self.expected = {}
        for _, _, ident, body in self.plan:
            if ident not in self.expected:
                self.expected[ident] = self._reference_cycles(body)
        self._setups += 1
        kinds = ["plain", "traced"] if self.trace else ["plain"]
        for kind in kinds:
            work = os.path.join(self.work_dir, f"{kind}{self._setups}")
            self.servers[kind] = _Server(self.root, work, self.jobs,
                                         kind == "traced")
        for server in self.servers.values():
            if not self.client.wait_healthy(server.host, server.port,
                                            timeout_s=60.0):
                raise RuntimeError(
                    f"spawned server never became healthy; see "
                    f"{server.work}/server.log")
            # warm every pool worker with work outside the schedule
            bodies = [{"spec": self.generator.gen_spec(WARMUP_SEED + k)}
                      for k in range(WARMUP_SPECS)]
            asyncio.run(self._send_all(server, bodies))

    async def _send_all(self, server: _Server, bodies) -> None:
        clients = [self.client.ServeClient(server.host, server.port)
                   for _ in range(self.connections)]
        try:
            for k in range(0, len(bodies), len(clients)):
                await asyncio.gather(*(
                    c.request("POST", "/simulate", b)
                    for c, b in zip(clients, bodies[k:])))
        finally:
            for c in clients:
                await c.close()

    def teardown(self) -> List[int]:
        left = []
        for server in self.servers.values():
            left += server.stop()
            shutil.rmtree(server.work, ignore_errors=True)
        self.servers = {}
        return left

    def peak_rss_mb(self) -> float:
        return self._peak

    # -- measurement ----------------------------------------------------------
    async def _open_loop(self, server: _Server, speed: Speedometer):
        """Send each request when due; returns per-request records
        ``(enqueued, sent, done, status, result)`` and the start time.
        Host-speed samples pause while any request is outstanding: the
        server's own load would read as a slow host."""
        plan = self.plan
        records: List[Optional[tuple]] = [None] * len(plan)
        queue: asyncio.Queue = asyncio.Queue()
        clients = [self.client.ServeClient(server.host, server.port)
                   for _ in range(self.connections)]
        outstanding = 0

        async def connection(client):
            nonlocal outstanding
            while True:
                item = await queue.get()
                if item is None:
                    return
                idx, enqueued = item
                sent = time.perf_counter()
                try:
                    status, _, result = await client.request(
                        "POST", "/simulate", plan[idx][3])
                except (OSError, asyncio.IncompleteReadError) as err:
                    status, result = -1, {"error": str(err)}
                records[idx] = (enqueued, sent, time.perf_counter(),
                                status, result)
                outstanding -= 1
                speed.paused = outstanding > 0

        tasks = [asyncio.ensure_future(connection(c)) for c in clients]
        start = time.perf_counter() + 0.05
        try:
            for idx, (due, _, _, _) in enumerate(plan):
                delay = start + due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                outstanding += 1
                speed.paused = True
                queue.put_nowait((idx, time.perf_counter()))
            for _ in clients:
                queue.put_nowait(None)
            await asyncio.wait_for(asyncio.gather(*tasks), timeout=150)
        finally:
            speed.paused = False
            for task in tasks:
                task.cancel()
            for c in clients:
                await c.close()
        return records, start

    def measure(self, seconds: float, rec, speed: Speedometer
                ) -> Measured:
        """One open-loop run of the schedule.  Each request's latency and
        simulate time are scaled to the reference host speed by the
        host-speed samples nearest its time in flight."""
        server = self.servers["traced" if rec is not None else "plain"]
        statsz = self.client.sync_request
        _, before = statsz(server.host, server.port, "GET", "/statsz")
        server.reset_peak_rss()
        records, start = asyncio.run(self._open_loop(server, speed))
        _, after = statsz(server.host, server.port, "GET", "/statsz")
        self._peak = max(self._peak, server.peak_rss_mb())

        job_scales = server.job_scales()
        rows, lat, lags, fresh, fresh_cycles = [], [], [], [], 0
        for (due, klass, ident, _), record, job_id in zip(
                self.plan, records, self.job_ids):
            if record is None:
                rows.append(OpRow(ident, klass, 0, None, "never answered"))
                continue
            enqueued, sent, done, status, result = record
            latency = (done - (start + due)) * 1e3
            lags.append((enqueued - (start + due)) * 1e3)
            # a request answered by a pool job runs at the speed its
            # worker saw; any other at the speed this process saw
            scale = speed.scale(start + due, done)
            cycles, detail = 0, {"status": status, "job_id": job_id}
            if status == 200:
                cycles = result["simulate"]["cycles"]
                detail.update(served=result.get("served", "fresh"),
                              compile_ms=result["compile"]["compile_ms"],
                              sim_ms=result["simulate"]["sim_ms"])
                if detail["served"] in ("fresh", "coalesced"):
                    scale = job_scales.get(job_id, scale)
                outcome = ("ok" if cycles == self.expected[ident] else
                           f"cycles {cycles} != {self.expected[ident]}")
            else:
                outcome = f"status {status}: {result}"
            detail.update(ref_ms=latency * scale, scale=scale)
            lat.append(latency * scale)
            rows.append(OpRow(ident, klass, cycles, latency / 1e3,
                              outcome, detail))
            if outcome == "ok" and detail["served"] == "fresh":
                fresh.append((latency, detail))
                fresh_cycles += cycles
        good = sum(1 for r in rows
                   if r.ok and r.detail["ref_ms"] <= SERVE_LATENCY_LIMIT_MS)
        sim_ms = sum(d["sim_ms"] * d["scale"] for _, d in fresh)
        layer = self._layer_values(before, after, fresh, lags,
                                   len(self.plan))
        extra = {"layer": layer, "statsz_after": after,
                 "rate_per_s": self.rate, "requests": len(self.plan),
                 "connections": self.connections, "jobs": self.jobs,
                 "latency_limit_ms": SERVE_LATENCY_LIMIT_MS,
                 "busy_s": sum((d["compile_ms"] + d["sim_ms"])
                               * d["scale"] / 1e3 for _, d in fresh)}
        if rec is not None:
            workers = server.worker_layers()
            for worker in workers:
                rec.merge(worker["summary"])
            extra["worker_spans"] = [(w["pid"], [tuple(s)
                                                 for s in w["spans"]])
                                     for w in workers]
        done = [r[2] for r in records if r is not None]
        # the simulated answer: each distinct input once
        answered = {r.op: r.cycles for r in rows if r.ok}
        wall = (max(done) if done else start) - start
        return Measured(
            wall_s=wall, sim_s=sim_ms / 1e3,
            sim_cycles=sum(answered.values()),
            hi_finish=max(answered.values(), default=0),
            latencies_ms=lat, rows=rows, pass_wall_s=[wall], good=good,
            sim_s_cycles=fresh_cycles, extra=extra)

    @staticmethod
    def _layer_values(before, after, fresh, lags, sent) -> dict:
        def delta(section, key):
            return after[section][key] - before[section][key]

        lookups = (delta("compile_cache", "hits")
                   + delta("compile_cache", "misses"))
        return {
            "serve.compile_ms": median(d["compile_ms"] for _, d in fresh),
            "serve.sim_ms": median(d["sim_ms"] for _, d in fresh),
            "serve.queue_ms": median(lat - d["compile_ms"] - d["sim_ms"]
                                     for lat, d in fresh),
            "serve.result_hit_frac": delta("requests",
                                           "result_cache_hits") / sent,
            "serve.coalesced_frac": delta("requests", "coalesced") / sent,
            "serve.rejected": delta("requests", "rejected"),
            "serve.gen_lag_ms": max(lags) if lags else 0.0,
            "bitstream.cache_hit_frac": (delta("compile_cache", "hits")
                                         / lookups if lookups else 0.0),
        }
