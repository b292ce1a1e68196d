"""Counter-chain enumeration for controller simulation.

A :class:`ChainEnumerator` walks a (possibly data-dependent) counter chain
lazily, producing one *vector batch* per call: the current values of all
outer counters plus an array of up to ``par`` consecutive innermost
values (the SIMD lanes issued in one cycle).  Bounds expressions are re-evaluated whenever
the dims they depend on advance, matching the PMU/PCU counter hardware.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.dhdl.ir import CounterChain
from repro.errors import SimulationError
from repro.patterns import expr as E


class Batch:
    """One vector issue: shared outer bindings + the innermost index's
    lane values (``inner``, an int64 array)."""

    __slots__ = ("outer", "index", "inner")

    def __init__(self, outer: dict, index: E.Idx, inner: np.ndarray):
        self.outer = outer
        self.index = index
        self.inner = inner

    @property
    def lanes(self) -> int:
        """Active lanes in this issue."""
        return self.inner.shape[0]


class ChainEnumerator:
    """Lazily enumerate a counter chain in vector batches.

    ``evaluate`` resolves bound expressions (which may read registers and
    scratchpads) against the current partial bindings.
    """

    def __init__(self, chain: CounterChain,
                 evaluate: Callable[[E.Expr, dict], int],
                 base_bindings: Optional[dict] = None,
                 max_total: int = 50_000_000):
        for axis, counter in enumerate(chain.counters):
            # _advance only checks ``cur < hi``: a zero step would spin
            # forever and a negative one would walk away from the bound,
            # so reject both before any iteration state exists
            if counter.step <= 0:
                raise SimulationError(
                    f"counter chain dim {axis} has non-positive step "
                    f"{counter.step}; steps must be >= 1")
        self.chain = chain
        self.evaluate = evaluate
        self.base = dict(base_bindings or {})
        self.max_total = max_total
        self._emitted = 0
        depth = chain.depth
        self._lo = [0] * depth
        self._hi = [0] * depth
        self._cur = [0] * depth
        self._exhausted = False
        self._primed = False

    # -- bound evaluation ---------------------------------------------------------
    def _bindings_upto(self, axis: int) -> dict:
        bindings = dict(self.base)
        for k in range(axis):
            bindings[self.chain.indices[k]] = self._cur[k]
        return bindings

    def _eval_bounds(self, axis: int) -> bool:
        """(Re)compute lo/hi for ``axis``; True if the range is non-empty."""
        bindings = self._bindings_upto(axis)
        counter = self.chain.counters[axis]
        self._lo[axis] = int(self.evaluate(counter.lo, bindings))
        self._hi[axis] = int(self.evaluate(counter.hi, bindings))
        return self._lo[axis] < self._hi[axis]

    def _descend(self, axis: int) -> bool:
        """Initialise dims ``axis..`` to their first values; False when the
        subtree is empty and the caller must advance dim ``axis-1``."""
        for k in range(axis, self.chain.depth):
            while True:
                if not self._eval_bounds(k):
                    # empty range: advance the nearest outer dim
                    if not self._advance(k - 1):
                        return False
                    continue
                self._cur[k] = self._lo[k]
                break
        return True

    def _advance(self, axis: int) -> bool:
        """Step dim ``axis``; on wrap, recurse outward.  False = done."""
        if axis < 0:
            self._exhausted = True
            return False
        counter = self.chain.counters[axis]
        self._cur[axis] += counter.step
        if self._cur[axis] < self._hi[axis]:
            return self._descend(axis + 1)
        return self._advance(axis - 1)

    # -- batching -----------------------------------------------------------------
    def next_batch(self) -> Optional[Batch]:
        """The next vector issue, or None when the chain is exhausted."""
        if self._exhausted:
            return None
        if not self._primed:
            self._primed = True
            if not self._descend(0):
                self._exhausted = True
                return None
        depth = self.chain.depth
        inner = depth - 1
        counter = self.chain.counters[inner]
        outer = self._bindings_upto(inner)
        value = self._cur[inner]
        hi = self._hi[inner]
        count = 0
        if value < hi:
            count = min(counter.par, -(-(hi - value) // counter.step))
        if self._emitted + count > self.max_total:
            # trip before the over-limit batch exists: a runaway
            # data-dependent bound must not commit partial state
            raise SimulationError(
                "counter chain exceeded max_total="
                f"{self.max_total} iterations; runaway dynamic "
                "bound?")
        self._emitted += count
        end = value + count * counter.step
        # position after the batch; wrap into outer dims when exhausted
        self._cur[inner] = end
        if end >= hi:
            self._advance(inner - 1)
        if not count:
            return self.next_batch()
        lanes = np.arange(value, end, counter.step, dtype=np.int64)
        return Batch(outer, self.chain.indices[inner], lanes)
