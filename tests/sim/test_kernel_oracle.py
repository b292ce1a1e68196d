"""Bit-exact oracle: datapath kernels vs the scalar reference evaluator.

Hypothesis draws random expression DAGs (shared subtrees, every unary
and binary opcode, int/float/bool operands over wide ranges, selects
with loads in both branches) and random statement lists (SRAM and
register writes, emits with loads in the value, width-1 and argmin
reduces with add/mul/min/max, hash reduces with duplicate keys), runs
a few vector issues through both evaluators on identical memory, and
requires identical values and types, per-(scratchpad, load site)
address lists, scratchpad counters, and exception type and message.

The example count comes from the active hypothesis profile (see
``tests/conftest.py``); the nightly profile runs 20k examples.
"""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dhdl import (BankingMode, EmitStmt, HashReduceStmt, ReduceStmt,
                        WriteStmt)
from repro.dhdl.memory import FifoDecl, Reg, Sram
from repro.errors import TraceError
from repro.patterns import expr as E

from tests.sim.kernel_harness import Setup, assert_same, leaf_for

# the scalar reference casts overflowing floats exactly as the simulator
# once did, warning each time
pytestmark = pytest.mark.filterwarnings("ignore::RuntimeWarning")

INNER = E.Idx("i")
OUTER = E.Idx("o")

SRAMS = [
    Sram("fa", (8,), E.FLOAT32, BankingMode.STRIDED, 1),
    Sram("ia", (8,), E.INT32, BankingMode.DUPLICATION, 1),
    Sram("ba", (8,), E.BOOL, BankingMode.STRIDED, 1),
    Sram("f2", (4, 4), E.FLOAT32, BankingMode.STRIDED, 1),
    Sram("out", (8,), E.FLOAT32, BankingMode.STRIDED, 1),
    Sram("iout", (8,), E.INT32, BankingMode.STRIDED, 1),
    Sram("bins", (6,), E.FLOAT32, BankingMode.STRIDED, 1),
]
REGS = [Reg("rf", E.FLOAT32, 1.5), Reg("ri", E.INT32, -3),
        Reg("acc", E.FLOAT32), Reg("iacc", E.INT32)]
FIFO = FifoDecl("q", E.FLOAT32, depth=64)

WIDE_FLOATS = [0.0, -0.0, 1.0, -1.0, 0.5, 2.5, -7.25, 1e-30, 1e30, -1e30,
               3.4e38, 1e300, -1e300, 709.0, 709.8, 710.0, -709.0, -745.2,
               -746.0, 1e-320, math.inf, -math.inf, math.nan]
WIDE_INTS = [0, 1, -1, 2, -2, 3, 7, -7, 8, 100, -100, 2**31 - 1, -2**31,
             2**40, -2**40, 2**62]

floats = st.one_of(st.sampled_from(WIDE_FLOATS),
                   st.floats(-1e6, 1e6, allow_nan=False),
                   st.floats(-1.0, 1.0, width=32))
ints = st.one_of(st.sampled_from(WIDE_INTS), st.integers(-20, 20))
scalars = st.one_of(floats, ints, st.booleans())


@st.composite
def float_arrays(draw, size):
    """Generic float32 values (seeded, so sums round) with a few special
    values (NaN, infinities, signed zeros, extremes) injected."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3, 1e6]))
    values = rng.standard_normal(size) * scale
    for _ in range(draw(st.integers(0, 4))):
        values[draw(st.integers(0, size - 1))] = draw(st.one_of(
            st.just(math.nan), st.sampled_from(WIDE_FLOATS)))
    with np.errstate(over="ignore"):
        return values.astype(np.float32)


def _const(value, dtype=None):
    return E.Const(value, dtype)


@st.composite
def consts(draw):
    value = draw(scalars)
    # a declared dtype that disagrees with the Python value (a float
    # typed INT32, an int typed FLOAT32) exercises per-lane types
    if draw(st.booleans()):
        return _const(value)
    dtype = draw(st.sampled_from([E.FLOAT32, E.INT32, E.BOOL]))
    return _const(value, dtype)


def _index_into(node, size, draw):
    """An address operand: usually wrapped into range, sometimes raw."""
    if draw(st.integers(0, 5)) == 0:
        return node
    as_int = node if node.dtype == E.INT32 else E.UnOp("to_int", node) \
        if node.dtype == E.FLOAT32 else E.UnOp("to_int", E.UnOp(
            "to_float", node))
    return E.BinOp("mod", as_int, _const(size))


@st.composite
def dags(draw, max_nodes=10):
    """A pool of expression nodes; later nodes reuse earlier ones."""
    pool = [INNER, OUTER, E.Load(SRAMS[0], [E.BinOp("mod", INNER, _const(8))]),
            E.Load(SRAMS[1], [E.BinOp("mod", INNER, _const(8))])]
    for _ in range(draw(st.integers(1, max_nodes))):
        kind = draw(st.sampled_from(
            ["const", "bin", "bin", "bin", "un", "un", "sel", "load",
             "load", "reg"]))
        pick = st.sampled_from(pool)
        if kind == "const":
            node = draw(consts())
        elif kind == "bin":
            op = draw(st.sampled_from(sorted(E.BINARY_OPS)))
            lhs, rhs = draw(pick), draw(pick)
            try:
                node = E.BinOp(op, lhs, rhs)
            except TraceError:
                node = E.BinOp(draw(st.sampled_from(
                    ["lt", "eq", "and", "or", "ne"])), lhs, rhs)
        elif kind == "un":
            node = E.UnOp(draw(st.sampled_from(sorted(E.UNARY_OPS))),
                          draw(pick))
        elif kind == "sel":
            cond, t, f = draw(pick), draw(pick), draw(pick)
            try:
                node = E.Select(cond, t, f)
            except TraceError:
                node = E.Select(cond, t, t)
        elif kind == "load":
            # "fa", "bins" and the registers are also written by some
            # statements: such bodies run one lane at a time
            sram = draw(st.sampled_from(SRAMS[:4] + SRAMS[6:]))
            idx = [_index_into(draw(pick), dim, draw) for dim in sram.shape]
            node = E.Load(sram, idx)
        else:
            node = E.Load(draw(st.sampled_from(REGS)), [])
        pool.append(node)
    return pool


def _vars(dtype):
    return E.Var("a", dtype), E.Var("b", dtype)


@st.composite
def statements(draw, pool):
    pick = st.sampled_from(pool)
    # the newest nodes depend on the most others: observe them first
    root = pool[-1]
    addr = _index_into(draw(st.sampled_from(pool[:3])), 8, draw)
    stmts = [EmitStmt(FIFO, draw(pick), root) if draw(st.booleans())
             else WriteStmt(SRAMS[4], [addr], root)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(
            ["write", "write", "regwrite", "emit", "reduce", "argmin",
             "hash"]))
        if kind == "write":
            mem = draw(st.sampled_from([SRAMS[4], SRAMS[5], SRAMS[0]]))
            addr = _index_into(draw(pick), mem.shape[0], draw)
            stmts.append(WriteStmt(mem, [addr], draw(pick)))
        elif kind == "regwrite":
            stmts.append(WriteStmt(draw(st.sampled_from(REGS[2:])), [],
                                   draw(pick)))
        elif kind == "emit":
            stmts.append(EmitStmt(FIFO, draw(pick), draw(pick)))
        elif kind == "reduce":
            value = draw(st.one_of(st.sampled_from(pool[2:4]), pick))
            dtype = value.dtype if value.dtype != E.BOOL else E.INT32
            a, b = _vars(dtype)
            op = draw(st.sampled_from(["add", "mul", "min", "max"]))
            combine = E.BinOp(op, a, b)
            init = draw(st.sampled_from(
                [0.0, 1.0, 0.1, 0.00234375, 1e-40, -1e30, 1e30, 0, 3,
                 math.nan]))
            if draw(st.booleans()):
                target, addr = REGS[2 + (dtype == E.INT32)], []
            else:
                target = SRAMS[4]
                addr = [_index_into(draw(pick), 8, draw)]
            stmts.append(ReduceStmt([target], [value], [combine], [a],
                                    [b], [init], addr=addr,
                                    carry=draw(st.booleans())))
        elif kind == "argmin":
            value = draw(st.one_of(st.sampled_from(pool[2:4]), pick))
            index = draw(pick)
            a0, b0 = E.Var("a0", value.dtype), E.Var("b0", value.dtype)
            a1, b1 = E.Var("a1", index.dtype), E.Var("b1", index.dtype)
            op = draw(st.sampled_from(["lt", "gt"]))
            cond = E.BinOp(op, b0, a0)
            stmts.append(ReduceStmt(
                [REGS[2], REGS[3]], [value, index],
                [E.Select(cond, b0, a0), E.Select(cond, b1, a1)],
                [a0, a1], [b0, b1],
                [draw(st.sampled_from([1e30, math.inf, 0.0, math.nan])),
                 0]))
        else:
            mem = SRAMS[6]
            key = _index_into(draw(pick), 6, draw) \
                if draw(st.integers(0, 3)) else E.BinOp(
                    "mod", INNER, _const(draw(st.integers(1, 3))))
            a, b = _vars(E.FLOAT32)
            op = draw(st.sampled_from(["add", "max", "min", "mul"]))
            stmts.append(HashReduceStmt(
                mem, key, draw(pick), E.BinOp(op, a, b), a, b,
                draw(st.sampled_from([0.0, 1.0, -math.inf])),
                carry=draw(st.booleans())))
    return stmts


@st.composite
def memory(draw):
    data = {}
    for sram in SRAMS:
        size = int(np.prod(sram.shape))
        if sram.dtype == E.FLOAT32:
            data[sram.name] = draw(float_arrays(size))
            continue
        if sram.dtype == E.INT32:
            values = draw(st.lists(st.one_of(
                st.integers(-2**31, 2**31 - 1), st.integers(-9, 9)),
                min_size=size, max_size=size))
        else:
            values = draw(st.lists(st.booleans(), min_size=size,
                                   max_size=size))
        data[sram.name] = np.array(values).astype(
            np.int32 if sram.dtype == E.INT32 else np.bool_)
    return data


@st.composite
def issues(draw):
    out = []
    for _ in range(draw(st.integers(1, 3))):
        lanes = draw(st.one_of(st.just(16), st.integers(1, 16)))
        # counters past 2**31 take the exact (object-lane) int path
        start = draw(st.one_of(st.integers(-2, 12),
                               st.sampled_from([2**31 - 8, 2**40])))
        outer = draw(st.sampled_from([0, 1, 5, -3, 2**35]))
        out.append(({OUTER: outer}, list(range(start, start + lanes))))
    return out


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow,
                                                HealthCheck.data_too_large])
@given(data=st.data())
def test_kernel_matches_scalar_reference(data):
    pool = data.draw(dags())
    stmts = data.draw(statements(pool))
    leaf = leaf_for(stmts, index=INNER)
    setup = Setup(srams=SRAMS, regs=REGS, fifos=[FIFO],
                  data=data.draw(memory()))
    assert_same(leaf, setup, data.draw(issues()))


LANES = Sram("lanes", (16,), E.FLOAT32, BankingMode.STRIDED, 1)
ILANES = Sram("ilanes", (16,), E.INT32, BankingMode.STRIDED, 1)
FOLD_INITS = [0.0, -0.0, 1.0, 0.1, 0.00234375, 16777217.0, 1e30, -1e30,
              math.inf, -math.inf, math.nan, 0, 5]


@st.composite
def lane_data(draw):
    return {"lanes": draw(float_arrays(16)),
            "ilanes": np.array(draw(st.lists(st.integers(-50, 50),
                                             min_size=16, max_size=16)),
                               np.int32)}


@st.composite
def lane_issues(draw):
    full = st.just((0, 16))
    part = st.tuples(st.integers(0, 15), st.integers(1, 16)).map(
        lambda t: (t[0], min(t[1], 16 - t[0])))
    return [({OUTER: 0}, list(range(start, start + n)))
            for start, n in draw(st.lists(st.one_of(full, part),
                                          min_size=1, max_size=3))]


@settings(deadline=None)
@given(data=st.data())
def test_reduce_folds_match_scalar_reference(data):
    """Width-1 add/mul/min/max and width-2 argmin/argmax folds, with
    NaN, signed zeros and inexact initial values, in lane order."""
    use_int = data.draw(st.booleans())
    source = ILANES if use_int else LANES
    value = E.Load(source, [INNER])
    if data.draw(st.booleans()):
        op = data.draw(st.sampled_from(["add", "mul", "min", "max"]))
        a, b = _vars(value.dtype)
        operands = (a, b) if data.draw(st.integers(0, 3)) else (b, a)
        stmt = ReduceStmt([REGS[3] if use_int else REGS[2]], [value],
                          [E.BinOp(op, *operands)], [a], [b],
                          [data.draw(st.sampled_from(FOLD_INITS))],
                          carry=data.draw(st.booleans()))
    else:
        a0, b0 = E.Var("a0", value.dtype), E.Var("b0", value.dtype)
        a1, b1 = E.Var("a1", E.INT32), E.Var("b1", E.INT32)
        cond = E.BinOp(data.draw(st.sampled_from(["lt", "gt"])), b0, a0)
        stmt = ReduceStmt(
            [REGS[2], REGS[3]], [value, INNER],
            [E.Select(cond, b0, a0), E.Select(cond, b1, a1)],
            [a0, a1], [b0, b1],
            [data.draw(st.sampled_from(FOLD_INITS)), 0])
    setup = Setup(srams=[LANES, ILANES], regs=REGS,
                  data=data.draw(lane_data()))
    assert_same(leaf_for([stmt], index=INNER), setup,
                data.draw(lane_issues()))


@settings(deadline=None)
@given(data=st.data())
def test_hash_reduce_matches_scalar_reference(data):
    """Read-modify-write per lane in lane order, duplicate keys in one
    issue included."""
    bins = SRAMS[6]
    key = E.BinOp("mod", INNER, _const(data.draw(st.integers(1, 7))))
    if data.draw(st.integers(0, 4)) == 0:
        key = E.BinOp("sub", key, _const(1))        # OOB keys too
    a, b = _vars(E.FLOAT32)
    op = data.draw(st.sampled_from(["add", "mul", "min", "max"]))
    stmt = HashReduceStmt(bins, key, E.Load(LANES, [INNER]),
                          E.BinOp(op, a, b), a, b,
                          data.draw(st.sampled_from([0.0, 1.0, -math.inf,
                                                     0.1])),
                          carry=data.draw(st.booleans()))
    setup = Setup(srams=[LANES, ILANES, bins], regs=REGS,
                  data=data.draw(lane_data()))
    assert_same(leaf_for([stmt], index=INNER), setup,
                data.draw(lane_issues()))
