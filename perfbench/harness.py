"""Shared machinery: host speed, pass loop, statistics, memory, metadata.

A workload object provides

* ``imports()`` — import what it needs (timed once, part of set-up);
* ``setup()`` — build inputs and reference outputs (timed three times);
* ``measure(seconds, rec, speed)`` — do the measured work and return a
  :class:`Measured`; ``rec`` is a :class:`~tracing.Recorder` in traced
  passes, else ``None``; ``speed`` is the running :class:`Speedometer`;
* ``teardown()`` and ``peak_rss_mb()``.

Pass-based workloads subclass :class:`PassWorkload` and implement only
``run_pass``, which does the workload's fixed work once.
"""

from __future__ import annotations

import bisect
import gc
import os
import platform
import signal
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: set-ups per run: set-up time is reported as their median
SETUPS = 3


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: at least this many samples give an op's speed (the nearest ones when
#: fewer fall inside it)
NEAREST = 8


@dataclass(frozen=True)
class Sampling:
    """How often the host's speed is sampled, with how long a loop, and
    the seconds that loop takes on an unloaded Intel Xeon host (2 vCPUs):
    host times are reported at that speed."""

    every_s: float
    iterations: int
    reference_s: float


#: ops of 50 ms and more: a longer loop reads the speed more faithfully
OPS = Sampling(every_s=0.05, iterations=2000, reference_s=4e-4)
#: pool jobs of 10-50 ms: a short loop, often, so samples fall inside
#: each job (the two vCPUs' speeds do not move together, so each worker
#: samples its own)
JOBS = Sampling(every_s=0.01, iterations=500, reference_s=1e-4)


class _Slot:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int):
        self.key, self.value = key, value


_SLOTS = [_Slot(i, 3 * i) for i in range(64)]


def _tick(iterations: int) -> None:
    """A fixed loop of the kind of work the simulator does: attribute
    and dict lookups, integer arithmetic, a few small numpy operations."""
    table: Dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        slot = _SLOTS[i & 63]
        key = (slot.key ^ i) & 127
        table[key] = table.get(key, 0) + slot.value
        acc += len(table)
    lanes = np.arange(16, dtype=np.float64)
    for _ in range(iterations // 50):
        lanes = lanes * 1.0000001 + 0.5


class Speedometer:
    """Samples the host's speed while the benchmark runs.

    A shared host's speed drifts: the same op takes up to twice as long
    for a second or a minute at a time, in wall and CPU time alike.  An
    interval timer interrupts this process every ``sampling.every_s``
    and times :func:`_tick` (the collector off, so nothing on the heap
    changes it).  An op's time scaled by ``sampling.reference_s`` over
    the mean tick around it reads as seconds at the reference speed and
    stays within a few percent from run to run.  The samples cost one to
    two percent of the run.

    ``paused`` skips samples while it is true (serve-mix sets it while
    its own server is busy, whose load would read as a slow host).
    """

    def __init__(self, sampling: Sampling = OPS):
        self.sampling = sampling
        self.starts: List[float] = []
        self.ticks: List[float] = []
        self.paused = False
        self._old = None

    def __enter__(self) -> "Speedometer":
        self._old = signal.signal(signal.SIGALRM, self._sample)
        every = self.sampling.every_s
        signal.setitimer(signal.ITIMER_REAL, every, every)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, signum, frame) -> None:
        if self.paused:
            return
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            _tick(self.sampling.iterations)
            self.ticks.append(time.perf_counter() - t0)
            self.starts.append(t0)
        finally:
            if enabled:
                gc.enable()

    def scale(self, t0: float, t1: float) -> float:
        """Reference speed over the host's speed from ``t0`` to ``t1``
        (``perf_counter`` times): the samples inside, or the
        :data:`NEAREST` nearest ones when fewer fall inside."""
        starts, n = self.starts, len(self.starts)
        if not n:
            return 1.0
        lo, hi = bisect.bisect_left(starts, t0), bisect.bisect_right(
            starts, t1)
        while hi - lo < min(NEAREST, n):
            if hi == n or (lo > 0 and t0 - starts[lo - 1]
                           <= starts[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return (self.sampling.reference_s
                / statistics.fmean(self.ticks[lo:hi]))

    def at_reference(self, seconds: float, t0: float) -> float:
        """``seconds`` of host time that began at ``t0``, at the
        reference speed."""
        return seconds * self.scale(t0, t0 + seconds)


@dataclass
class OpRow:
    """One op of one pass: a program, grid instance, tenant or request."""

    op: str
    kind: str
    cycles: int
    #: host wall time spent on the op
    host_s: Optional[float]
    outcome: str = "ok"
    detail: dict = field(default_factory=dict)
    #: host CPU time this process spent on it (ops run in this process)
    cpu_s: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.outcome == "ok"

    def as_dict(self) -> dict:
        out = {"op": self.op, "kind": self.kind, "cycles": self.cycles,
               "host_s": self.host_s, "cpu_s": self.cpu_s,
               "outcome": self.outcome}
        out.update(self.detail)
        return out


@dataclass
class PassResult:
    """The fixed work done once."""

    wall_s: float
    rows: List[OpRow]
    #: simulated cycles of the pass (usually the rows' sum)
    cycles: int
    hi_finish_cycles: int
    #: the ops a user waits on, as ``(name, wall s, CPU s, CPU s
    #: simulating, perf_counter() at the op's start)``
    units: List[Tuple[str, float, float, float, float]]


@dataclass
class Measured:
    """Everything one measurement produced."""

    #: host wall time of the fixed work, and host CPU time simulating
    #: within it (CPU time leaves out any time the process waited for a
    #: processor), both at the reference speed (:class:`Speedometer`)
    wall_s: float
    sim_s: float
    sim_cycles: int
    hi_finish: int
    latencies_ms: List[float]
    rows: List[OpRow]
    #: wall time of each pass (one entry for a single open-loop run)
    pass_wall_s: List[float]
    #: ops counted as verified-good for goodput (defaults: ``ok`` rows)
    good: Optional[int] = None
    #: cycles simulated within ``sim_s`` (defaults to ``sim_cycles``)
    sim_s_cycles: Optional[int] = None
    #: host CPU time of the fixed work, where it runs in this process
    cpu_s: Optional[float] = None
    extra: dict = field(default_factory=dict)

    @property
    def cycles_per_s(self) -> float:
        cycles = (self.sim_cycles if self.sim_s_cycles is None
                  else self.sim_s_cycles)
        return cycles / self.sim_s if self.sim_s else 0.0

    @property
    def attempted(self) -> int:
        return len(self.rows)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.rows if not r.ok)


class PassWorkload:
    """A workload that repeats one fixed pass until time runs out."""

    name = "?"

    def imports(self) -> None:
        raise NotImplementedError

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, rec) -> PassResult:
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(os.getpid())

    def measure(self, seconds: float, rec, speed: Speedometer
                ) -> Measured:
        """Repeat the pass for ``seconds``.  Each op's times are scaled
        to the reference speed by the host-speed samples around it; host
        times are the sum over the pass's ops of each op's median over
        passes.  The peak-memory mark is reset first, so only the passes
        set it."""
        reset_peak_rss(os.getpid())
        passes: List[PassResult] = []
        deadline = time.perf_counter() + seconds
        # a pass that would mostly run past the deadline is not begun
        while not passes or (time.perf_counter() + passes[-1].wall_s / 2
                             < deadline):
            passes.append(self.run_pass(rec))
        rows = [row for p in passes for row in p.rows]
        first = passes[0].cycles
        for k, p in enumerate(passes[1:], start=1):
            if p.cycles != first:
                # a deterministic simulator must repeat itself exactly
                rows.append(OpRow(f"pass{k}", "repeatability", p.cycles,
                                  None, f"cycles {p.cycles} != {first}"))
        # per unit name: its wall, CPU and simulating-CPU samples, and
        # the wall times as measured with their scales
        samples: Dict[str, List[List[float]]] = {}
        measured: Dict[str, List[Tuple[float, float]]] = {}
        for p in passes:
            for name, wall, *times, started in p.units:
                scale = speed.scale(started, started + wall)
                measured.setdefault(name, []).append((wall, scale))
                for series, value in zip(
                        samples.setdefault(name, [[], [], []]),
                        [wall] + times):
                    series.append(value * scale)

        def total(k: int) -> float:
            return sum(median(s[k]) for s in samples.values())

        return Measured(
            wall_s=total(0), cpu_s=total(1), sim_s=total(2),
            sim_cycles=first,
            hi_finish=passes[0].hi_finish_cycles,
            latencies_ms=[median(s[0]) * 1e3 for s in samples.values()],
            rows=rows, pass_wall_s=[p.wall_s for p in passes],
            extra={"op_wall_s_and_scale": measured})


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def tail(samples: List[float]) -> dict:
    """The highest percentile with at least ten samples beyond it.

    With ``n`` samples sorted ascending, the value at 1-based rank
    ``n - 10`` has exactly ten above it; its percentile is
    ``100 * (n - 10) / n``.  Below twenty samples that rank falls under
    the median, so the slowest sample is reported instead, as
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return {"value": ordered[-1] if ordered else 0.0,
                "percentile": 100.0, "samples": n}
    rank = n - 10
    return {"value": ordered[rank - 1],
            "percentile": round(100.0 * rank / n, 2), "samples": n}


def median(samples) -> float:
    samples = list(samples)
    return statistics.median(samples) if samples else 0.0


# ---------------------------------------------------------------------------
# Memory and run metadata
# ---------------------------------------------------------------------------


def reset_peak_rss(pid: int) -> None:
    """Restart a live process's peak-resident mark (VmHWM) from its
    current resident set, so the next read sees only what follows."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, 0 if it is gone."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def children_of(pid: int) -> List[int]:
    """Direct child pids of ``pid`` (from /proc)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields follow its ")"
        fields = stat[stat.rindex(")") + 2:].split()
        if int(fields[1]) == pid:
            kids.append(int(entry))
    return kids


def alive(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            stat = fh.read()
    except OSError:
        return False
    return stat[stat.rindex(")") + 2] != "Z"


def _git_rev(root: str) -> str:
    """The checked-out commit, or ``unknown`` outside a repository."""
    try:
        out = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=root, capture_output=True, text=True,
                             timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata(root: str, workload: str, seed: int) -> dict:
    """Run metadata recorded at the start of every report."""
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "git_rev": _git_rev(root),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_start": list(os.getloadavg()),
    }
