"""PMU scratchpad simulation: banking modes, N-buffering, conflict costs.

Data correctness and timing are modelled together: contents live in
versioned numpy buffers (one logical version per producing parent
iteration — the architectural equivalent of N-buffer rotation), and the
banking mode determines how many lane accesses one cycle can service:

* ``STRIDED`` — lane addresses spread across ``banks`` by low-order
  interleaving; conflicting lanes serialise.
* ``DUPLICATION`` — every bank holds a full copy: any 16 random *reads*
  per cycle, but writes must go to all banks (single write stream).
* ``FIFO`` — in-order streaming; always conflict-free.
* ``LINE_BUFFER`` — sliding-window reads; conflict-free for unit-stride
  window accesses.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.dhdl.memory import BankingMode, Reg, Sram
from repro.errors import SimulationError
from repro.patterns.collections import _np_dtype
from repro.trace.events import EventKind


class ScratchpadSim:
    """Runtime state of one logical SRAM (possibly spanning PMUs)."""

    def __init__(self, sram: Sram, banks: int = 16):
        self.sram = sram
        self.banks = banks
        self.versions: Dict[int, np.ndarray] = {}
        #: highest flat address written + 1, per version (how much of the
        #: buffer holds live data; drives dynamic gather/scatter counts)
        self.watermark: Dict[int, int] = {}
        self.reads = 0
        self.writes = 0
        self.conflict_cycles = 0
        #: attached by the machine when tracing is enabled
        self.trace = None

    def _blank(self) -> np.ndarray:
        return np.zeros(self.sram.shape, dtype=_np_dtype(self.sram.dtype))

    def buffer(self, version: int) -> np.ndarray:
        """The buffer for a version, creating it on first write.

        New versions copy the newest older version (copy-on-write): a
        physical buffer's contents persist until overwritten, which is
        what cross-activation accumulation (carry) relies on.
        """
        if version not in self.versions:
            older = [v for v in self.versions if v < version]
            if older:
                self.versions[version] = self.versions[max(older)].copy()
            else:
                self.versions[version] = self._blank()
        return self.versions[version]

    def note_write(self, version: int, flat: int) -> None:
        """Track the written extent of a version (for dynamic counts)."""
        current = self.watermark.get(version, 0)
        if flat + 1 > current:
            self.watermark[version] = flat + 1

    def watermark_for(self, version: int) -> int:
        """Written extent of the newest version <= requested (0 if
        never written)."""
        if version in self.watermark:
            return self.watermark[version]
        older = [v for v in self.watermark if v < version]
        if older:
            return self.watermark[max(older)]
        return 0

    def read_buffer(self, version: int) -> np.ndarray:
        """Reader view: the newest version <= requested.

        Exact-match versions model N-buffer hand-off; falling back to an
        older version models loop-carried scratchpads in sequential
        loops (the reader sees the last completed write).
        """
        if version in self.versions:
            return self.versions[version]
        older = [v for v in self.versions if v < version]
        if older:
            return self.versions[max(older)]
        # never written: architectural zeros
        return self.buffer(version)

    def retire_old(self) -> None:
        """Bound live buffers to the N-buffer depth (plus one carried
        version for loop-carried reads)."""
        keep = max(self.sram.nbuf, 1) + 1
        live = sorted(self.versions)
        for version in live[:-keep]:
            del self.versions[version]

    # -- timing ------------------------------------------------------------------
    # pricing takes one vector's flat addresses as an int array (any
    # integer sequence works)
    def read_extra(self, flat_addrs: Sequence[int]) -> int:
        """Pure conflict cost of one vector of lane reads (no counter
        side effects) — memoizable per banking configuration."""
        mode = self.sram.banking
        if mode in (BankingMode.FIFO, BankingMode.LINE_BUFFER,
                    BankingMode.DUPLICATION):
            return 0
        return self._conflict_extra(flat_addrs)

    def account_read(self, n_addrs: int, extra: int) -> None:
        """Charge the counters/trace for one priced vector of reads."""
        self.reads += n_addrs
        self.conflict_cycles += extra
        if extra and self.trace is not None:
            self.trace.emit(EventKind.BANK_CONFLICT, self.sram.name,
                            (extra, n_addrs))

    def read_cost(self, flat_addrs: Sequence[int]) -> int:
        """Extra cycles (beyond 1) to service one vector of lane reads."""
        extra = self.read_extra(flat_addrs)
        self.account_read(len(flat_addrs), extra)
        return extra

    def _conflict_extra(self, flat_addrs) -> int:
        """Serialisation beyond 1 cycle under the configured decoder.

        Identical addresses are one physical read broadcast to all
        requesting lanes, so they are deduplicated first.
        """
        stride = self.sram.bank_stride
        counts: Dict[int, int] = {}
        for addr in set(np.asarray(flat_addrs).tolist()):
            bank = (addr // stride) % self.banks
            counts[bank] = counts.get(bank, 0) + 1
        worst = max(counts.values(), default=1)
        return worst - 1

    def write_extra(self, flat_addrs: Sequence[int]) -> int:
        """Pure conflict cost of one vector of lane writes."""
        mode = self.sram.banking
        if mode is BankingMode.DUPLICATION:
            # every write is broadcast to all banks: one word per cycle
            return max(0, len(flat_addrs) - 1)
        if mode in (BankingMode.FIFO, BankingMode.LINE_BUFFER):
            return 0
        return self._conflict_extra(flat_addrs)

    def account_write(self, n_addrs: int, extra: int) -> None:
        """Charge the counters/trace for one priced vector of writes."""
        self.writes += n_addrs
        self.conflict_cycles += extra
        if extra and self.trace is not None:
            self.trace.emit(EventKind.BANK_CONFLICT, self.sram.name,
                            (extra, n_addrs))

    def write_cost(self, flat_addrs: Sequence[int]) -> int:
        """Extra cycles to service one vector of lane writes."""
        extra = self.write_extra(flat_addrs)
        self.account_write(len(flat_addrs), extra)
        return extra


class RegSim:
    """Runtime state of one scalar register."""

    def __init__(self, reg: Reg):
        self.reg = reg
        np_dtype = _np_dtype(reg.dtype)
        init = reg.init if reg.init is not None else 0
        self.value = np_dtype(init)

    def read(self):
        """Current value."""
        return self.value.item() if hasattr(self.value, "item") \
            else self.value

    def write(self, value) -> None:
        """Overwrite the register."""
        np_dtype = _np_dtype(self.reg.dtype)
        self.value = np_dtype(value)


class MemoryState:
    """All on-chip memory state for one running application."""

    def __init__(self, srams, regs, banks: int = 16):
        #: banks per scratchpad (uniform across one machine)
        self.banks = banks
        self.scratchpads: Dict[str, ScratchpadSim] = {
            s.name: ScratchpadSim(s, banks) for s in srams}
        self.registers: Dict[str, RegSim] = {r.name: RegSim(r) for r in regs}

    def scratch(self, sram: Sram) -> ScratchpadSim:
        """Scratchpad sim for a declaration."""
        try:
            return self.scratchpads[sram.name]
        except KeyError:
            raise SimulationError(
                f"scratchpad {sram.name!r} was never placed") from None

    def retire_old(self) -> None:
        """Periodic retirement sweep over every scratchpad.

        The scheduler (dense or event-driven) calls this on every
        256-cycle boundary — including boundaries crossed by a
        fast-forward jump — to bound live N-buffer versions.
        """
        for scratch in self.scratchpads.values():
            scratch.retire_old()

    def reg(self, reg: Reg) -> RegSim:
        """Register sim for a declaration."""
        try:
            return self.registers[reg.name]
        except KeyError:
            raise SimulationError(
                f"register {reg.name!r} was never placed") from None
