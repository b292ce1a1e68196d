"""Property-based tests for simulator invariants (hypothesis)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dhdl import BankingMode, FifoDecl, Sram
from repro.dram import DDR3_1600, Bank, DramModel, DramRequest
from repro.patterns import expr as E
from repro.sim import FifoSim, ScratchpadSim
from repro.sim.counters import ChainEnumerator
from repro.dhdl import Counter, CounterChain


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1000), min_size=0,
                max_size=60))
def test_fifo_preserves_order_and_counts(values):
    fifo = FifoSim(FifoDecl("f", depth=100), lanes=1)
    for value in values:
        fifo.push([value])
    out = []
    while fifo.size:
        out.extend(fifo.pop(3))
    assert out == values
    assert fifo.pushed == fifo.popped == len(values)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=255), min_size=1,
                max_size=16),
       st.integers(min_value=1, max_value=32))
def test_conflict_cost_bounds(addrs, stride):
    sram = Sram("t", (256,), E.FLOAT32, BankingMode.STRIDED,
                bank_stride=stride)
    sp = ScratchpadSim(sram, banks=16)
    extra = sp.read_cost(addrs)
    # never worse than full serialisation of distinct words
    assert 0 <= extra <= len(set(addrs)) - 1


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=0, max_value=50),
                          st.integers(min_value=0, max_value=255)),
                min_size=1, max_size=20))
def test_scratchpad_version_isolation(writes):
    """A write at version v is visible at v and later, never earlier."""
    sram = Sram("t", (256,), E.FLOAT32)
    sp = ScratchpadSim(sram, banks=16)
    # apply writes in version order (hardware produces in order)
    history = {}
    for version, addr in sorted(writes):
        sp.buffer((version,))[addr] = version + 1
        history.setdefault(addr, []).append(version)
    for addr, versions in history.items():
        for v in versions:
            seen = sp.read_buffer((v,))[addr]
            # the newest write at version <= v wins
            expect = max(x for x in versions if x <= v) + 1
            assert seen == expect


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=1,
                max_size=40))
def test_dram_completes_every_request(addrs):
    model = DramModel()
    pending = [DramRequest(byte_addr=64 * a) for a in addrs]
    submitted = 0
    done = []
    for _ in range(500_000):
        while submitted < len(pending) and model.can_accept(
                pending[submitted].byte_addr):
            model.submit(pending[submitted])
            submitted += 1
        model.tick()
        done.extend(model.deliver())
        if submitted == len(pending) and model.idle:
            break
    assert len(done) == len(addrs)
    # completion times are sane: after submission, bounded latency
    for request in done:
        assert request.complete_cycle > request.arrival_cycle
        assert request.complete_cycle - request.arrival_cycle < 10_000


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=9),
       st.integers(min_value=1, max_value=16))
def test_chain_enumerator_covers_rectangle(rows, cols, par):
    i, j = E.Idx("i"), E.Idx("j")
    chain = CounterChain([Counter(0, rows), Counter(0, cols, par=par)],
                         [i, j])

    def ev(expr, bindings):
        assert isinstance(expr, E.Const)
        return expr.value

    enum = ChainEnumerator(chain, ev)
    seen = []
    while True:
        batch = enum.next_batch()
        if batch is None:
            break
        assert 1 <= batch.lanes <= par
        # one batch shares its outer bindings: it never crosses an
        # outer-dim boundary
        assert batch.index is j
        seen.extend((batch.outer[i], c) for c in batch.inner.tolist())
    assert sorted(seen) == [(r, c) for r in range(rows)
                            for c in range(cols)]
    assert len(set(seen)) == len(seen)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=7), min_size=1,
                max_size=30))
def test_bank_timing_monotonic(rows):
    """Bank completion times never go backwards."""
    bank = Bank(DDR3_1600)
    now = 0
    last_done = 0
    for row in rows:
        done = bank.issue(row, now, is_write=False)
        assert done >= last_done - DDR3_1600.t_burst  # bursts may pack
        assert done > now
        last_done = done
        now = max(now + 1, bank.ready_at)
