"""Named semantics and error-parity tests for the datapath kernels.

Each test runs a small body through the kernel and through the scalar
reference evaluator (``scalar_reference``), requires identical
behaviour, and pins the concrete rule it is named after.
"""

import math

import numpy as np
import pytest

from repro.dhdl import (BankingMode, EmitStmt, HashReduceStmt, ReduceStmt,
                        WriteStmt)
from repro.dhdl.memory import FifoDecl, Reg, Sram
from repro.patterns import expr as E

from tests.sim.kernel_harness import Setup, assert_same, leaf_for, typed

# the scalar reference casts overflowing floats exactly as the simulator
# once did, warning each time
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

I = E.Idx("i")
X = Sram("x", (16,), E.FLOAT32, BankingMode.STRIDED, 1)
Y = Sram("y", (16,), E.FLOAT32, BankingMode.STRIDED, 1)
K = Sram("k", (16,), E.INT32, BankingMode.STRIDED, 1)
OUT = Sram("out", (16,), E.FLOAT32, BankingMode.STRIDED, 1)
IOUT = Sram("iout", (16,), E.INT32, BankingMode.STRIDED, 1)
BINS = Sram("bins", (4,), E.FLOAT32, BankingMode.STRIDED, 1)
ACC = Reg("acc", E.FLOAT32)
IACC = Reg("iacc", E.INT32)
Q = FifoDecl("q", E.FLOAT32, depth=64)
ALL = list(range(16))


def _setup(x=None, y=None, k=None):
    data = {"x": np.arange(16, dtype=np.float32) if x is None else x,
            "y": np.ones(16, np.float32) if y is None else y,
            "k": np.arange(16, dtype=np.int32) if k is None else k}
    return Setup(srams=[X, Y, K, OUT, IOUT, BINS], regs=[ACC, IACC],
                 fifos=[Q], data={n: np.asarray(v) for n, v in data.items()})


def _run(stmts, setup, issues=None):
    return assert_same(leaf_for(stmts, index=I), setup,
                       issues or [({}, ALL)])


def _write(value, mem=OUT):
    return WriteStmt(mem, [I], value)


def _reads(outcome, sram):
    """Addresses per load site of ``sram`` in the first issue."""
    return [addrs for (name, _), addrs in outcome.issues[0][0]
            if name == sram]


# -- error parity ---------------------------------------------------------------

def _error(stmts, setup, issues=None):
    out = _run(stmts, setup, issues)
    assert out.error is not None
    return out.error


def test_float_division_by_zero_raises_zero_division():
    y = np.ones(16, np.float32)
    y[5] = 0.0
    assert _error([_write(E.Load(X, [I]) / E.Load(Y, [I]))],
                  _setup(y=y)) == ("ZeroDivisionError",
                                   "float division by zero")


@pytest.mark.parametrize("op,message", [
    ("div", "integer division by zero in traced expression"),
    ("mod", "integer modulo by zero")])
def test_int_division_and_mod_by_zero(op, message):
    k = np.arange(16, dtype=np.int32) - 3          # lane 3 holds 0
    expr = E.BinOp(op, E.wrap(7), E.Load(K, [I]))
    assert _error([_write(expr, IOUT)], _setup(k=k)) == (
        "ZeroDivisionError", message)


@pytest.mark.parametrize("op", ["log", "sqrt"])
def test_log_and_sqrt_domain_errors(op):
    x = np.arange(16, dtype=np.float32) + 1
    x[7] = -2.0
    assert _error([_write(E.UnOp(op, E.Load(X, [I])))],
                  _setup(x=x)) == ("ValueError", "math domain error")


def test_log_of_zero_is_a_domain_error():
    assert _error([_write(E.log(E.Load(X, [I])))], _setup())[0] \
        == "ValueError"


@pytest.mark.parametrize("value,expected", [
    (800.0, ("OverflowError", "math range error")),
    (math.inf, None)])
def test_exp_overflow(value, expected):
    x = np.zeros(16, np.float32)
    x[9] = value
    out = _run([_write(E.exp(E.Load(X, [I])))], _setup(x=x))
    assert out.error == expected


@pytest.mark.parametrize("value,expected", [
    (math.inf, ("OverflowError", "cannot convert float infinity to "
                                 "integer")),
    (math.nan, ("ValueError", "cannot convert float NaN to integer"))])
def test_to_int_of_inf_and_nan(value, expected):
    x = np.zeros(16, np.float32)
    x[2] = value
    assert _error([_write(E.to_int(E.Load(X, [I])), IOUT)],
                  _setup(x=x)) == expected


def test_scratchpad_oob_load_and_write():
    shifted = E.Load(X, [I + 3])
    assert _error([_write(shifted)], _setup()) == (
        "SimulationError", "scratchpad OOB: x[[16]] shape (16,)")
    assert _error([WriteStmt(OUT, [I - 2], E.Load(X, [I]))],
                  _setup()) == (
        "SimulationError", "scratchpad OOB write: out[[-2]] shape (16,)")


def test_hash_key_oob_write():
    a, b = E.Var("a"), E.Var("b")
    stmt = HashReduceStmt(BINS, I - 1, E.Load(X, [I]), a + b, a, b, 0.0)
    assert _error([stmt], _setup()) == (
        "SimulationError", "body: hash key -1 outside [0, 4)")


def test_lowest_offending_lane_wins_in_scalar_order():
    """Lane 3 divides by zero, lane 6 takes log(-1): lane 3's error is
    raised even though log is evaluated first within a lane."""
    x = np.ones(16, np.float32)
    x[6] = -1.0
    y = np.ones(16, np.float32)
    y[3] = 0.0
    expr = E.log(E.Load(X, [I])) + E.Load(X, [I]) / E.Load(Y, [I])
    assert _error([_write(expr)], _setup(x=x, y=y)) == (
        "ZeroDivisionError", "float division by zero")


def test_effects_of_lower_lanes_precede_a_later_lanes_error():
    """An OOB write on lane 1 beats a division error on lane 4."""
    y = np.ones(16, np.float32)
    y[4] = 0.0
    addr = E.select(I.eq(1), E.wrap(99), I)
    stmt = WriteStmt(OUT, [addr], E.Load(X, [I]) / E.Load(Y, [I]))
    assert _error([stmt], _setup(y=y))[0] == "SimulationError"


def _partial(stmt, setup):
    """Run a statement that raises on lane 5 of the issue; the harness
    also requires the state it leaves to match scalar order."""
    out = _run([stmt], setup)
    assert out.error is not None
    return out


def _lane5_zero():
    y = np.ones(16, np.float32)
    y[5] = 0.0
    return y


def test_raising_write_keeps_earlier_lanes_stores():
    addr = E.select(I.eq(5), E.wrap(99), I)
    out = _partial(WriteStmt(OUT, [addr], E.Load(X, [I])), _setup())
    got = np.frombuffer(out.buffers["out"][-1][1], np.float32)
    assert got.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0] + [0.0] * 11


def test_raising_reduce_folds_only_earlier_lanes_of_every_key():
    a, b = E.Var("a"), E.Var("b")
    stmt = ReduceStmt([OUT], [E.Load(Y, [I])], [a + 1.0 / b], [a], [b],
                      [0.0], addr=[I % 2])
    out = _partial(stmt, _setup(y=_lane5_zero()))
    # key 0 folded lanes 0, 2, 4; key 1 lanes 1, 3 (not 7, 9, ...)
    assert out.accumulators[0] == [((0,), [typed(3.0)]),
                                   ((1,), [typed(2.0)])]


def test_raising_hash_reduce_stores_only_earlier_lanes():
    a, b = E.Var("a"), E.Var("b")
    stmt = HashReduceStmt(BINS, I % 4, E.Load(Y, [I]), a + 1.0 / b, a, b,
                          0.0)
    out = _partial(stmt, _setup(y=_lane5_zero()))
    # lane 5 is key 1's second visit; lanes 6 and 7 (first visits of
    # keys 2 and 3) come after it in lane order and stay unstored
    got = np.frombuffer(out.buffers["bins"][-1][1], np.float32)
    assert got.tolist() == [2.0, 1.0, 1.0, 1.0]


def test_raising_emit_pushes_nothing():
    stmt = EmitStmt(Q, True, E.Load(X, [I]) / E.Load(Y, [I]))
    out = _partial(stmt, _setup(y=_lane5_zero()))
    assert out.fifos["q"] == []


# -- (a) Select ---------------------------------------------------------------

def test_select_evaluates_loads_and_errors_on_taken_lanes_only():
    y = np.ones(16, np.float32)
    y[::2] = 0.0                                  # even lanes divide by 0
    safe = E.select(E.Load(Y, [I]).ne(0.0),
                    E.Load(X, [I]) / E.Load(Y, [I]),
                    E.Load(X, [(I + 1) % 16]))
    out = _run([_write(safe)], _setup(y=y))
    assert out.error is None
    sites = _reads(out, "x")
    # the true branch loaded on odd lanes, the false branch on even ones
    assert sorted(len(s) for s in sites) == [8, 8]


# -- (b) Emit -------------------------------------------------------------------

def test_emit_evaluates_value_only_where_cond_holds():
    cond = E.Load(K, [I]) < 5
    out = _run([EmitStmt(Q, cond, E.Load(X, [I]) * 2.0)], _setup())
    assert out.fifos["q"] == [typed(float(2 * v)) for v in range(5)]
    assert _reads(out, "x") == [[0, 1, 2, 3, 4]]
    assert _reads(out, "k") == [ALL]


# -- (c) counter-bound loads -----------------------------------------------------

def test_counter_bound_loads_are_priced_by_the_next_issue():
    from repro.dhdl import Counter, CounterChain, InnerCompute
    from repro.sim import FabricConfig, LeafTiming, MemoryState
    from repro.sim.counters import ChainEnumerator
    from repro.sim.leaves import InnerComputeSim
    from repro.sim.stats import SimStats
    from tests.sim.scalar_reference import ScalarLeaf
    o = E.Idx("o")
    chain = CounterChain([Counter(0, 3), Counter(0, E.Load(K, [o]) + 1,
                                                 par=4)], [o, I])
    leaf = InnerCompute("row", chain, [_write(E.Load(X, [I]))])

    def memory():
        mem = MemoryState([X, Y, K, OUT, IOUT, BINS], [ACC, IACC])
        mem.scratch(K).buffer((0,))[:] = [5, 2, 0] + [0] * 13
        return mem

    mem = memory()
    config = FabricConfig()
    config.leaf_timing["row"] = LeafTiming()
    sim = InnerComputeSim(leaf, config, mem, SimStats(), {})
    sim.start({}, (0,))
    priced = []
    orig = sim._price

    def spy(reads, writes):
        priced.append({name: len(a) for (name, _), a in reads.items()})
        return orig(reads, writes)

    sim._price = spy
    while (batch := sim._enum.next_batch()) is not None:
        sim._execute(batch)

    ref_mem = memory()
    ref = ScalarLeaf(leaf, ref_mem, {})
    ref.begin((0,))
    enum = ChainEnumerator(chain, ref.evaluate)
    while (batch := enum.next_batch()) is not None:
        lanes = []
        for value in batch.inner.tolist():
            lane = dict(batch.outer)
            lane[I] = value
            lanes.append(lane)
        ref.execute(lanes)
    want = [{name: len(a) for (name, _), a in reads.items()}
            for reads, _ in ref.issues]
    assert priced == want
    # a bound read while enumerating (the first row's, and each next
    # row's as the previous one wraps) joins the issue priced next
    assert [p.get("k", 0) for p in priced] == [1, 1, 1, 0]
    assert mem.scratch(K).reads == ref_mem.scratch(K).reads == 3


# -- (d) memo sharing ------------------------------------------------------------

def test_one_memo_per_issue_shared_across_statements():
    shared = E.Load(X, [I])
    a, b = E.Var("a"), E.Var("b")
    stmts = [_write(shared * 2.0),
             ReduceStmt([ACC], [shared], [a + b], [a], [b], [0.0])]
    out = _run(stmts, _setup())
    # one evaluation per lane for the shared load, across both statements
    assert _reads(out, "x") == [ALL]


def test_combines_are_evaluated_fresh_per_lane():
    a, b = E.Var("a"), E.Var("b")
    # a combine that loads: every fold step records its own read
    combine = a + b * E.Load(Y, [I])
    stmt = ReduceStmt([ACC], [E.Load(X, [I])], [combine], [a], [b], [0.0])
    out = _run([stmt], _setup(), [({}, [0, 1, 2, 3])])
    assert sorted(len(s) for s in _reads(out, "y")) == [4]


# -- (e) reduce fold order ---------------------------------------------------------

def test_reduce_folds_run_in_lane_order_with_float32_rounding():
    x = np.array([1e8, 1.0, -1e8, 1.0] * 4, dtype=np.float32)
    a, b = E.Var("a"), E.Var("b")
    stmt = ReduceStmt([ACC], [E.Load(X, [I])], [a + b], [a], [b], [0.0])
    out = _run([stmt], _setup(x=x))
    acc = 0.0
    for v in x.tolist():                     # sequential, float32 steps
        acc = float(np.float32(acc + v))
    assert out.accumulators[0][0][1] == [typed(acc)]


def test_inexact_initial_value_rounds_before_the_first_combine():
    a, b = E.Var("a"), E.Var("b")
    x = np.full(16, 0.25, np.float32)
    stmt = ReduceStmt([ACC], [E.Load(X, [I])], [a + b], [a], [b],
                      [16777217.0])
    out = _run([stmt], _setup(x=x), [({}, [0])])
    # the accumulator variable rounds 2**24 + 1 to 2**24 first
    assert out.accumulators[0][0][1] == [typed(16777216.0)]


def test_argmin_fold_keeps_first_minimum_and_skips_nan():
    x = np.array([5, 3, np.nan, 3, 1, 1, 7, 1] * 2, dtype=np.float32)
    a0, b0, a1, b1 = (E.Var("a0"), E.Var("b0"), E.Var("a1", E.INT32),
                      E.Var("b1", E.INT32))
    cond = b0 < a0
    stmt = ReduceStmt([ACC, IACC], [E.Load(X, [I]), I],
                      [E.select(cond, b0, a0), E.select(cond, b1, a1)],
                      [a0, a1], [b0, b1], [1e30, 0])
    out = _run([stmt], _setup(x=x))
    assert out.accumulators[0][0][1] == [typed(1.0), typed(4)]


# -- (f) hash read-modify-write ---------------------------------------------------

def test_hash_reduce_read_modify_write_in_lane_order_with_duplicates():
    a, b = E.Var("a"), E.Var("b")
    stmt = HashReduceStmt(BINS, I % 4, E.Load(X, [I]), a * 0.5 + b, a, b,
                          0.0)
    out = _run([stmt], _setup())
    bins = np.zeros(4)
    for lane in range(16):
        bins[lane % 4] = float(np.float32(
            float(np.float32(bins[lane % 4] * 0.5)) + lane))
    want = bins.astype(np.float32).tobytes()
    assert out.buffers["bins"][-1][1] == want


# -- (g) duplicate writes -------------------------------------------------------------

def test_duplicate_sram_write_addresses_resolve_last_write_wins():
    out = _run([WriteStmt(OUT, [I % 3], E.Load(X, [I]))], _setup())
    got = np.frombuffer(out.buffers["out"][-1][1], np.float32)
    assert got[:3].tolist() == [15.0, 13.0, 14.0]


# -- (h) Python scalar semantics ---------------------------------------------------

def test_python_scalar_semantics_hold_per_lane():
    k = np.array([7, -7, 7, -7] * 4, dtype=np.int32)
    stmts = [
        _write(E.to_float(E.Load(K, [I]) / 2), OUT),        # truncating
        EmitStmt(Q, True, E.Load(K, [I]) % 3),              # floor mod
        EmitStmt(Q, True, (E.Load(K, [I]) > 0) + (E.Load(K, [I]) > 0)),
        # min/max return the chosen operand with its own type
        EmitStmt(Q, True, E.minimum(E.Load(K, [I]), E.wrap(0.5))),
        EmitStmt(Q, True, E.maximum(E.Load(X, [I]), E.wrap(math.nan))),
        EmitStmt(Q, True, E.minimum(E.wrap(math.nan), E.Load(X, [I]))),
        # int-typed node carrying a float: no float32 rounding
        EmitStmt(Q, True, E.exp(E.to_int(E.Load(K, [I])) * 0 + 1) * 1),
        EmitStmt(Q, True, E.Const(0.1, E.INT32) + 0),
        EmitStmt(Q, True, E.Const(0.1) + 0),
        EmitStmt(Q, True, E.tanh(E.Load(X, [I]) / 7.0)),
    ]
    out = _run(stmts, _setup(k=k), [({}, [0, 1])])
    words = out.fifos["q"]
    assert words[0:2] == [typed(1), typed(2)]                 # 7%3, -7%3
    assert words[2:4] == [typed(2), typed(0)]                 # bool+bool
    assert words[4:6] == [typed(0.5), typed(-7)]
    assert words[6:8] == [typed(0.0), typed(1.0)]             # nan loses
    assert words[8:10] == [typed(math.nan), typed(math.nan)]  # kept first
    assert words[12] == typed(0.1) and words[14] == typed(
        float(np.float32(0.1)))
    got = np.frombuffer(out.buffers["out"][-1][1], np.float32)
    assert got[:2].tolist() == [3.0, -3.0]
