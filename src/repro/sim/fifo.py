"""FIFO simulation for streaming controllers.

FIFOs carry words between streaming siblings (and into StreamStore
drains).  ``eos`` marks end-of-stream: the producer closes the FIFO when
its iteration space is exhausted, letting consumers terminate.
"""

from __future__ import annotations

from collections import deque
from typing import List, Optional

from repro.dhdl.memory import FifoDecl
from repro.errors import SimulationError
from repro.trace.events import EventKind


class Progress:
    """Running totals a machine's deadlock watchdog compares each cycle
    (kept incrementally, so no per-cycle sums over every unit)."""

    __slots__ = ("fifo_flow", "completed")

    def __init__(self):
        #: words pushed + popped across the machine's FIFOs
        self.fifo_flow = 0
        #: child completions across the machine's outer controllers
        self.completed = 0


class FifoSim:
    """Runtime state of one FIFO declaration."""

    def __init__(self, decl: FifoDecl, lanes: int = 16):
        self.decl = decl
        #: capacity in words (vector FIFOs hold `depth` vectors)
        self.capacity = decl.depth * (lanes if decl.vector else 1)
        self.items: deque = deque()
        self.eos = False
        self.pushed = 0
        self.popped = 0
        self.full_stalls = 0
        self.empty_stalls = 0
        #: attached by the machine when tracing is enabled
        self.trace = None
        #: attached by the event scheduler: notified on every state
        #: change so units parked on this FIFO can be re-armed
        self.sched = None
        #: shared with the owning machine's watchdog
        self.progress = Progress()

    @property
    def size(self) -> int:
        """Words currently queued."""
        return len(self.items)

    @property
    def free(self) -> int:
        """Words of remaining capacity."""
        return self.capacity - len(self.items)

    @property
    def drained(self) -> bool:
        """True when the stream is closed and empty."""
        return self.eos and not self.items

    def can_push(self, count: int = 1) -> bool:
        """Room for ``count`` more words?"""
        return self.free >= count

    def push(self, values: List) -> None:
        """Append words (caller must have checked capacity)."""
        if self.eos:
            raise SimulationError(
                f"push to closed FIFO {self.decl.name!r}")
        if not self.can_push(len(values)):
            raise SimulationError(f"FIFO {self.decl.name!r} overflow")
        self.items.extend(values)
        self.pushed += len(values)
        self.progress.fifo_flow += len(values)
        if self.trace is not None:
            self.trace.emit(EventKind.FIFO_PUSH, self.decl.name,
                            (len(values), len(self.items)))
        if self.sched is not None:
            self.sched.fifo_event(self)

    def pop(self, count: int = 1) -> List:
        """Remove up to ``count`` words (may return fewer)."""
        out = []
        while self.items and len(out) < count:
            out.append(self.items.popleft())
        self.popped += len(out)
        self.progress.fifo_flow += len(out)
        if out and self.trace is not None:
            self.trace.emit(EventKind.FIFO_POP, self.decl.name,
                            (len(out), len(self.items)))
        if out and self.sched is not None:
            self.sched.fifo_event(self)
        return out

    def close(self) -> None:
        """Signal end-of-stream."""
        self.eos = True
        if self.sched is not None:
            self.sched.fifo_event(self)

    def reopen(self) -> None:
        """Reset for the next activation (FIFOs are reused per parent
        iteration)."""
        if self.items:
            raise SimulationError(
                f"reopening non-empty FIFO {self.decl.name!r}")
        self.eos = False
        if self.sched is not None:
            self.sched.fifo_event(self)

    def __repr__(self):
        return (f"FifoSim({self.decl.name}, {self.size}/{self.capacity}"
                f"{', eos' if self.eos else ''})")
