"""Edge-case regressions for :class:`~repro.sim.counters.ChainEnumerator`.

Two classes of bug fixed after differential fuzzing:

* non-positive steps: ``_advance`` only checks ``cur < hi``, so a zero
  step spins forever and a negative step walks away from the bound —
  both must be rejected at chain construction;
* ``max_total`` runaway protection: a data-dependent bound that blows up
  (e.g. an uninitialised length register read as 2**31) must trip the
  limit *before* the over-limit batch is materialised, not after.
"""

import pytest

from repro.dhdl.ir import Counter, CounterChain
from repro.errors import IRError, SimulationError
from repro.patterns import expr as E
from repro.sim.counters import ChainEnumerator


def _const_eval(expr, bindings):
    assert isinstance(expr, E.Const)
    return expr.value


def _chain(counters, names):
    return CounterChain(counters, [E.Idx(n) for n in names])


def _forced_step(step):
    """A counter whose step bypasses the IR constructor validation
    (models a corrupted deserialized artifact or a buggy lowering)."""
    counter = Counter(0, 8)
    counter.step = step
    return counter


def test_ir_counter_rejects_non_positive_step():
    with pytest.raises(IRError):
        Counter(0, 8, step=0)
    with pytest.raises(IRError):
        Counter(0, 8, step=-2)


@pytest.mark.parametrize("step", [0, -1, -16])
def test_enumerator_rejects_non_positive_step(step):
    chain = _chain([_forced_step(step)], ["i"])
    with pytest.raises(SimulationError, match="non-positive step"):
        ChainEnumerator(chain, _const_eval)


def test_enumerator_rejects_bad_step_in_outer_dim():
    chain = _chain([_forced_step(0), Counter(0, 4, par=4)], ["i", "j"])
    with pytest.raises(SimulationError, match="dim 0"):
        ChainEnumerator(chain, _const_eval)


def test_enumerator_strided_iteration_still_works():
    chain = _chain([Counter(0, 10, step=3)], ["i"])
    enum = ChainEnumerator(chain, _const_eval)
    seen = []
    while True:
        batch = enum.next_batch()
        if batch is None:
            break
        assert batch.index is chain.indices[0]
        seen.extend(batch.inner.tolist())
    assert seen == [0, 3, 6, 9]


def test_max_total_trips_before_building_over_limit_batch():
    chain = _chain([Counter(0, 100, par=16)], ["i"])
    enum = ChainEnumerator(chain, _const_eval, max_total=20)
    first = enum.next_batch()
    assert first.lanes == 16
    with pytest.raises(SimulationError, match="max_total"):
        enum.next_batch()
    # the failed call must not have committed the over-limit batch
    assert enum._emitted == 16


def test_max_total_exact_fit_is_legal():
    chain = _chain([Counter(0, 32, par=16)], ["i"])
    enum = ChainEnumerator(chain, _const_eval, max_total=32)
    total = 0
    while True:
        batch = enum.next_batch()
        if batch is None:
            break
        total += batch.lanes
    assert total == 32


def test_max_total_catches_data_dependent_runaway():
    """A dynamic bound read from a register blows up: the enumerator
    must raise promptly instead of materialising billions of lanes."""
    hi = E.Var("runaway_len", E.INT32)
    chain = CounterChain([Counter(E.wrap(0), hi, par=16)], [E.Idx("i")])

    def ev(expr, bindings):
        if expr is hi:
            return 2 ** 31  # uninitialised/corrupted length register
        return expr.value

    enum = ChainEnumerator(chain, ev, max_total=1_000)
    emitted = 0
    with pytest.raises(SimulationError, match="runaway"):
        while True:
            batch = enum.next_batch()
            if batch is None:
                break
            emitted += batch.lanes
    assert emitted <= 1_000
