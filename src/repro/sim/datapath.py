"""Datapath kernels: PCU bodies compiled once into lane-vector programs.

A Plasticine PCU is a SIMD pipeline: each stage applies one operation to
every lane at once (paper Section 3.1).  The simulator mirrors that.
Each :class:`~repro.dhdl.ir.InnerCompute` body is compiled once, on
first use, into a :class:`BodyKernel`: a topologically ordered list of
numpy steps over lane arrays (every value, address, key and condition
root), followed by vector effect steps (SRAM and register writes, FIFO
emits, lane-order reduce folds, hash read-modify-writes).  Kernels are
cached per DHDL leaf / expression object, so every machine built from
one artifact shares them.  Scalar evaluation (counter bounds, transfer
offsets and counts) runs the same steps with one lane.

Lane semantics equal scalar Python evaluation of the expression IR
(:func:`repro.patterns.expr.eval_binary` / ``eval_unary``), lane by
lane, statement by statement:

* each lane keeps its Python type (bool/int/float): bools are promoted
  to int before arithmetic, ``min``/``max``/``Select`` return the
  chosen operand with its type, and only float results of
  FLOAT32-typed nodes are rounded to float32;
* ints are exact: int64 lanes are used while magnitudes provably fit,
  object lanes holding Python ints otherwise;
* transcendentals call ``math.*`` per lane;
* ``Select`` evaluates a branch, records its loads and raises its
  errors only on the lanes that take it; an emit's value likewise only
  where its condition holds;
* one memo per vector issue is shared across statements; reduce and
  hash combines are evaluated fresh.

Errors: a step marks the lanes on which the scalar operation would
raise.  After a statement's evaluation the lowest such lane wins (first
step in evaluation order within it); the statement's effects run for
the lanes before it, then the exception is raised, produced by
re-running that lane's scalar operation so type and message match.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.dhdl.ir import (EmitStmt, HashReduceStmt, InnerCompute,
                           ReduceStmt, WriteStmt)
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns.collections import _np_dtype
from repro.sim.scratchpad import MemoryState

#: ints bound into a kernel are int64 lanes up to this magnitude, and
#: every int64 lane value is bounded statically from there
_BIG = 1 << 31
#: int64 <-> float64 comparisons are exact up to this magnitude
_EXACT = 1 << 53
_I64 = 1 << 63

#: what a scalar operation or memory cast can raise on one lane (the
#: lane is marked; its scalar re-run raises the exact exception)
_LANE_ERRORS = (ArithmeticError, ValueError, TypeError)

_MATH_OPS = frozenset({"exp", "log", "sqrt", "sigmoid", "tanh"})
_ARITH = {"add": np.add, "sub": np.subtract, "mul": np.multiply}
_CMP = {"lt": np.less, "le": np.less_equal, "gt": np.greater,
        "ge": np.greater_equal, "eq": np.equal, "ne": np.not_equal}


# ---------------------------------------------------------------------------
# Lane-array helpers
# ---------------------------------------------------------------------------


def _objects(values) -> np.ndarray:
    out = np.empty(len(values), dtype=object)
    out[:] = values
    return out


def as_lanes(value) -> np.ndarray:
    """One bound Python scalar as a broadcastable one-lane array."""
    if isinstance(value, (bool, np.bool_)):
        return np.array([bool(value)])
    if isinstance(value, (int, np.integer)):
        value = int(value)
        if -_BIG <= value <= _BIG:
            return np.array([value], dtype=np.int64)
        return _objects([value])
    if isinstance(value, (float, np.floating)):
        return np.array([float(value)])
    return _objects([value])


def lane_values(inner: np.ndarray) -> np.ndarray:
    """Counter lanes (monotonic int64) as kernel lanes: object lanes
    holding Python ints when a value lies beyond the int64 lane bound."""
    if inner.size and (inner[0] < -_BIG or inner[-1] > _BIG):
        return _objects(inner.tolist())
    return inner


def scalar_at(arr: np.ndarray, lane: int):
    """The Python scalar one lane holds (broadcast arrays hold one)."""
    value = arr[lane if arr.shape[0] > 1 else 0]
    return value.item() if isinstance(value, np.generic) else value


def _full(arr: np.ndarray, n: int) -> np.ndarray:
    return arr if arr.shape[0] == n else np.broadcast_to(arr, (n,))


def _tolist(arr: np.ndarray, n: int) -> list:
    values = arr.tolist()
    return values if len(values) == n else values * n


def _normalize(arr: np.ndarray) -> np.ndarray:
    """Object lanes that are all floats or all bools become typed."""
    values = arr.tolist()
    kinds = {type(v) for v in values}
    if kinds == {float}:
        return np.array(values, dtype=np.float64)
    if kinds == {bool}:
        return np.array(values, dtype=bool)
    return arr


def _truthy(arr: np.ndarray) -> np.ndarray:
    kind = arr.dtype.kind
    if kind == "b":
        return arr
    if kind == "O":
        return np.array([bool(v) for v in arr.tolist()], dtype=bool)
    return arr != 0


def _num(arr: np.ndarray) -> np.ndarray:
    """Bools take part in arithmetic as ints, as in Python."""
    return arr.astype(np.int64) if arr.dtype.kind == "b" else arr


def _round32(arr: np.ndarray) -> np.ndarray:
    kind = arr.dtype.kind
    if kind == "f":
        return arr.astype(np.float32).astype(np.float64)
    if kind == "O":
        return _objects([float(np.float32(v)) if isinstance(v, float)
                         else v for v in arr.tolist()])
    return arr


def _objwise(fn, *arrs):
    """Apply a Python scalar function lane by lane (object lanes)."""
    n = max(a.shape[0] for a in arrs)
    cols = [_tolist(a, n) for a in arrs]
    out = []
    err = None
    for lane, args in enumerate(zip(*cols)):
        try:
            out.append(fn(*args))
        except _LANE_ERRORS:
            out.append(0)
            if err is None:
                err = np.zeros(n, dtype=bool)
            err[lane] = True
    return _normalize(_objects(out)), err


def _mathwise(fn, arr: np.ndarray):
    """``math.*`` per lane: bit-identical to scalar evaluation."""
    values = arr.tolist()
    try:
        return np.array([fn(v) for v in values], dtype=np.float64), None
    except _LANE_ERRORS:
        pass
    out = []
    err = np.zeros(len(values), dtype=bool)
    for lane, v in enumerate(values):
        try:
            out.append(fn(v))
        except _LANE_ERRORS:
            out.append(0.0)
            err[lane] = True
    return np.array(out, dtype=np.float64), err


def _max_abs(arr: np.ndarray) -> int:
    return int(np.abs(arr).max())


def _cmp_exact(a: np.ndarray, b: np.ndarray, ba: int, bb: int) -> bool:
    """True when a numpy comparison of ``a`` and ``b`` is exact (int64
    against float64 converts the int, exact below 2**53)."""
    ka, kb = a.dtype.kind, b.dtype.kind
    if ka == "i" and kb == "f":
        return ba <= _EXACT or _max_abs(a) <= _EXACT
    if ka == "f" and kb == "i":
        return bb <= _EXACT or _max_abs(b) <= _EXACT
    return True


def _less(a, b, ba, bb) -> np.ndarray:
    """Lane-wise ``a < b`` with Python's exact int/float ordering."""
    if a.dtype.kind == "O" or b.dtype.kind == "O" \
            or not _cmp_exact(a, b, ba, bb):
        return _truthy(_objwise(E._BINARY_EVAL["lt"], a, b)[0])
    return a < b


def choose(pick: np.ndarray, x: Optional[np.ndarray],
           y: Optional[np.ndarray]) -> np.ndarray:
    """``x`` where ``pick`` else ``y``, each lane keeping its type.

    A ``None`` side was never evaluated (no needed lane takes it).
    """
    if x is None:
        return y
    if y is None or pick.all():
        return x
    if not pick.any():
        return y
    if x.dtype == y.dtype:
        return np.where(pick, x, y)
    n = pick.shape[0]
    return _normalize(_objects([
        xv if p else yv for p, xv, yv in
        zip(pick.tolist(), _tolist(x, n), _tolist(y, n))]))


# ---------------------------------------------------------------------------
# Vector operators (each returns (lanes, error-lane mask or None))
# ---------------------------------------------------------------------------


def _binary(op: str, a: np.ndarray, b: np.ndarray, ba: int, bb: int):
    if a.dtype.kind == "O" or b.dtype.kind == "O":
        return _objwise(E._BINARY_EVAL[op], a, b)
    arith = _ARITH.get(op)
    if arith is not None:
        a, b = _num(a), _num(b)
        if a.dtype.kind == "i" and b.dtype.kind == "i":
            need = ba * bb if op == "mul" else ba + bb
            if need >= _I64:
                ma, mb = _max_abs(a), _max_abs(b)
                if (ma * mb if op == "mul" else ma + mb) >= _I64:
                    return _objwise(E._BINARY_EVAL[op], a, b)
        return arith(a, b), None
    cmp = _CMP.get(op)
    if cmp is not None:
        if not _cmp_exact(a, b, ba, bb):
            return _objwise(E._BINARY_EVAL[op], a, b)
        return cmp(a, b), None
    if op == "and":
        return _truthy(a) & _truthy(b), None
    if op == "or":
        return _truthy(a) | _truthy(b), None
    if op in ("min", "max"):
        # Python's min/max keep the first operand unless the second
        # is strictly better (NaN never wins, ties keep the first)
        pick = _less(b, a, bb, ba) if op == "min" else _less(a, b, ba, bb)
        return choose(pick, b, a), None
    a, b = _num(a), _num(b)
    zero = b == 0
    err = zero if zero.any() else None
    floating = a.dtype.kind == "f" or b.dtype.kind == "f"
    if op == "div":
        if floating:
            return np.true_divide(a, b), err
        if err is not None:
            b = np.where(zero, 1, b)
        quotient = np.abs(a) // np.abs(b)
        return np.where((a < 0) == (b < 0), quotient, -quotient), err
    if op == "mod":
        if err is not None and not floating:
            b = np.where(zero, 1, b)
        return np.remainder(a, b), err
    raise SimulationError(f"cannot evaluate binary op {op!r}")


def _unary(op: str, x: np.ndarray):
    if op in _MATH_OPS:
        return _mathwise(E._UNARY_EVAL[op], x)
    kind = x.dtype.kind
    if kind == "O":
        return _objwise(E._UNARY_EVAL[op], x)
    if op == "neg":
        return -_num(x), None
    if op == "abs":
        return np.abs(_num(x)), None
    if op == "relu":
        return (x if kind == "b"
                else np.where(x > 0, x, x.dtype.type(0))), None
    if op == "not":
        return ~_truthy(x), None
    if op == "to_float":
        return (x if kind == "f" else x.astype(np.float64)), None
    if op == "to_int":
        if kind == "b":
            return x.astype(np.int64), None
        if kind == "i":
            return x, None
        with np.errstate(invalid="ignore"):
            ok = np.abs(x) <= _BIG
        if ok.all():
            return np.trunc(x).astype(np.int64), None
        return _objwise(int, x)
    raise SimulationError(f"cannot evaluate unary op {op!r}")


def _to_index(x: np.ndarray):
    """``int(v)`` per lane, as the scalar path converts addresses."""
    kind = x.dtype.kind
    if kind == "i":
        return x, None
    if kind == "b":
        return x.astype(np.int64), None
    if kind == "f":
        with np.errstate(invalid="ignore"):
            ok = np.abs(x) <= _BIG
        if ok.all():
            return np.trunc(x).astype(np.int64), None
    return _objwise(int, x)


def flatten(idxs: Sequence[np.ndarray], shape, n: int):
    """Row-major flat addresses of per-axis index lanes, plus the mask of
    lanes outside ``shape`` (None when every lane is in bounds)."""
    if any(i.dtype.kind == "O" for i in idxs):
        lanes = list(zip(*[_tolist(i, n) for i in idxs]))
        oob = np.array([any(v < 0 or v >= d for v, d in zip(lane, shape))
                        for lane in lanes], dtype=bool)
        safe = [tuple(0 if bad else v for v in lane)
                for lane, bad in zip(lanes, oob.tolist())]
        flat = np.array([np.ravel_multi_index(lane, shape) if shape
                         else 0 for lane in safe], dtype=np.int64)
        return flat, (oob if oob.any() else None)
    flat = 0                    # a Python int while every axis is uniform
    oob = None
    uniform_oob = False
    for idx, dim in zip(idxs, shape):
        if idx.shape[0] == 1:   # one value for every lane
            value = int(idx[0])
            if value < 0 or value >= dim:
                uniform_oob = True
                value = 0
            flat = flat * dim + value
            continue
        bad = idx.view(np.uint64) >= dim      # negatives wrap high
        if bad.any():
            oob = bad if oob is None else oob | bad
        flat = flat * dim + idx
    if uniform_oob:
        oob = np.ones(1, dtype=bool) if oob is None else \
            np.ones(oob.shape[0], dtype=bool)
    if isinstance(flat, int):
        return np.array([flat], dtype=np.int64), oob
    if oob is not None:
        flat = np.where(oob, 0, flat)
    return flat, oob


def _typed(raw: np.ndarray) -> np.ndarray:
    """Scratchpad words as kernel lanes (float32 -> float64 etc.)."""
    kind = raw.dtype.kind
    if kind == "f":
        return raw.astype(np.float64)
    if kind in "iu":
        return raw.astype(np.int64)
    return raw


def convert(values: np.ndarray, dtype, n: int, setitem: bool = False):
    """Lanes cast to a memory dtype, as ``dtype(v)`` (or, with
    ``setitem``, as ``array[k] = v``) does per scalar.  Returns the
    cast lanes and the mask of lanes where that cast raises."""
    target = np.dtype(dtype)
    kind = values.dtype.kind
    if kind != "O":
        if target.kind == "f":
            if kind == "i":
                values = values.astype(np.float64)
            with np.errstate(over="ignore"):
                return _full(values, n).astype(target), None
        if target.kind == "b":
            return _full(_truthy(values), n), None
        if kind == "b":
            return _full(values, n).astype(target), None
        info = np.iinfo(target)
        if kind == "i" and int(values.min()) >= info.min \
                and int(values.max()) <= info.max:
            return _full(values, n).astype(target), None
        if kind == "f" and not setitem:
            with np.errstate(invalid="ignore"):
                trunc = np.trunc(values)
                ok = (trunc >= info.min) & (trunc <= info.max)
            if ok.all():
                return _full(trunc, n).astype(target), None
    out = np.zeros(n, dtype=target)
    err = None
    cell = np.zeros(1, dtype=target)
    for lane, v in enumerate(_tolist(values, n)):
        try:
            if setitem:
                cell[0] = v
                out[lane] = cell[0]
            else:
                out[lane] = target.type(v)
        except _LANE_ERRORS:
            if err is None:
                err = np.zeros(n, dtype=bool)
            err[lane] = True
    return out, err


def convert_error(values: np.ndarray, dtype, lane: int,
                  setitem: bool = False) -> Optional[Exception]:
    """The exception one lane's cast raises (None if it does not)."""
    target = np.dtype(dtype)
    try:
        if setitem:
            np.zeros(1, dtype=target)[0] = scalar_at(values, lane)
        else:
            target.type(scalar_at(values, lane))
    except _LANE_ERRORS as exc:
        return exc
    return None


def first_error(candidates, limit: int):
    """Lowest-lane failure among ``(mask, make_exception)`` candidates
    listed in within-lane order; returns ``(lane, exception)`` or
    ``(limit, None)``.  ``make_exception(lane)`` may return None when a
    mask was conservative."""
    live = [[m, make] for m, make in candidates if m is not None]
    while live:
        best = None
        for entry in live:
            mask = entry[0]
            hit = mask[:limit]
            if hit.shape[0] and hit.any():
                lane = int(hit.argmax())
                if best is None or lane < best[0]:
                    best = (lane, entry)
        if best is None:
            break
        lane, entry = best
        exc = entry[1](lane)
        if exc is not None:
            return lane, exc
        entry[0] = entry[0].copy()
        entry[0][lane] = False
    return limit, None


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------


class _Step:
    """One node evaluated over the lanes that need it.

    ``guard`` is the slot of a lane mask (None: every lane);
    ``tracked`` steps belong to nodes evaluated more than once (under
    different guards) and skip lanes an earlier step already covered.
    """

    __slots__ = ("out", "guard", "tracked", "pos")

    def __init__(self, out: int, guard: Optional[int]):
        self.out = out
        self.guard = guard
        self.tracked = False
        self.pos = 0

    def run(self, env: "_Env") -> None:
        if self.guard is None and not self.tracked:
            value, err = self.compute(env, None)
            env.vals[self.out] = value
            if err is not None:
                env.errors.append((self, _full(err, env.n)))
            return
        need = env.need(self)
        if need is None:
            return
        value, err = self.compute(env, need)
        env.vals[self.out] = value
        if err is not None:
            err = _full(err, env.n) & need
            if err.any():
                env.errors.append((self, err))

    def compute(self, env, need):
        raise NotImplementedError

    def fail(self, env, lane: int) -> Optional[Exception]:
        """The exception this step raises on ``lane`` (scalar re-run)."""
        return None


class _Bind(_Step):
    """An index or variable bound by the caller."""

    __slots__ = ("node", "f32")

    def __init__(self, out, guard, node):
        super().__init__(out, guard)
        self.node = node
        self.f32 = node.dtype == E.FLOAT32

    def compute(self, env, need):
        value = env.bindings.get(self.node)
        if value is None:
            return np.zeros(1, dtype=np.int64), np.ones(1, dtype=bool)
        if self.f32:
            value = _round32(value)
        return value, None

    def fail(self, env, lane):
        return SimulationError(f"unbound symbol {self.node!r} in datapath")


class _Binary(_Step):
    __slots__ = ("op", "a", "b", "ba", "bb", "f32")

    def __init__(self, out, guard, node, a, b, ba, bb):
        super().__init__(out, guard)
        self.op = node.op
        self.a, self.b = a, b
        self.ba, self.bb = ba, bb
        self.f32 = node.dtype == E.FLOAT32

    def compute(self, env, need):
        value, err = _binary(self.op, env.vals[self.a], env.vals[self.b],
                             self.ba, self.bb)
        if self.f32:
            value = _round32(value)
        return value, err

    def fail(self, env, lane):
        try:
            E.eval_binary(self.op, scalar_at(env.vals[self.a], lane),
                          scalar_at(env.vals[self.b], lane))
        except _LANE_ERRORS as exc:
            return exc
        return None


class _Unary(_Step):
    __slots__ = ("op", "x", "f32")

    def __init__(self, out, guard, node, x):
        super().__init__(out, guard)
        self.op = node.op
        self.x = x
        self.f32 = node.dtype == E.FLOAT32

    def compute(self, env, need):
        value, err = _unary(self.op, env.vals[self.x])
        if self.f32:
            value = _round32(value)
        return value, err

    def fail(self, env, lane):
        try:
            E.eval_unary(self.op, scalar_at(env.vals[self.x], lane))
        except _LANE_ERRORS as exc:
            return exc
        return None


class _Select(_Step):
    __slots__ = ("cond", "t", "f", "f32")

    def __init__(self, out, guard, node, cond, t, f):
        super().__init__(out, guard)
        self.cond, self.t, self.f = cond, t, f
        self.f32 = node.dtype == E.FLOAT32

    def compute(self, env, need):
        vals = env.vals
        value = choose(_truthy(vals[self.cond]), vals[self.t], vals[self.f])
        if self.f32:
            value = _round32(value)
        return value, None


class _Guard(_Step):
    """Lane mask: the enclosing guard AND (NOT) a condition's truth."""

    __slots__ = ("base", "cond", "negate")

    def __init__(self, out, base, cond, negate):
        super().__init__(out, None)
        self.base, self.cond, self.negate = base, cond, negate

    def run(self, env):
        vals = env.vals
        cond = vals[self.cond]
        if cond is None:
            env.vals[self.out] = np.zeros(env.n, dtype=bool)
            return
        mask = _full(_truthy(cond), env.n)
        if self.negate:
            mask = ~mask
        if self.base is not None:
            mask = mask & vals[self.base]
        vals[self.out] = mask


class _ToIndex(_Step):
    """``int(v)`` of an address operand."""

    __slots__ = ("x",)

    def __init__(self, out, guard, x):
        super().__init__(out, guard)
        self.x = x

    def compute(self, env, need):
        return _to_index(env.vals[self.x])

    def fail(self, env, lane):
        try:
            int(scalar_at(env.vals[self.x], lane))
        except _LANE_ERRORS as exc:
            return exc
        return None


class _RegLoad(_Step):
    __slots__ = ("reg",)

    def __init__(self, out, guard, reg):
        super().__init__(out, guard)
        self.reg = reg

    def compute(self, env, need):
        return as_lanes(env.ctx.mem.reg(self.reg).read()), None


class _SramLoad(_Step):
    """Bounds-checked gather from a scratchpad; records the flat
    address of every lane that evaluates it (one operand stream per
    load site)."""

    __slots__ = ("sram", "idx", "key")

    def __init__(self, out, guard, node, idx):
        super().__init__(out, guard)
        self.sram = node.array
        self.idx = idx
        self.key = (node.array.name, id(node))

    def compute(self, env, need):
        ctx = env.ctx
        buf = ctx.mem.scratch(self.sram).read_buffer(ctx.version)
        n = env.n
        idxs = [env.vals[s] for s in self.idx]
        flat, oob = flatten(idxs, buf.shape, n)
        env.record(self.pos, self.key, need, flat)
        return _typed(buf.reshape(-1)[flat]), oob

    def fail(self, env, lane):
        ctx = env.ctx
        shape = ctx.mem.scratch(self.sram).read_buffer(ctx.version).shape
        idxs = [scalar_at(env.vals[s], lane) for s in self.idx]
        return SimulationError(
            f"scratchpad OOB: {self.sram.name}[{idxs}] shape {shape}")


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class _Compiler:
    """Walks expression roots in scalar evaluation order, emitting one
    step per (node, guard) the first time each is reached."""

    def __init__(self):
        self.nslots = 0
        self.init: Dict[int, np.ndarray] = {}
        self.slot: Dict[tuple, int] = {}
        self.bound: Dict[int, int] = {}
        #: (kind, node) -> steps emitted so far
        self.emitted: Dict[tuple, List[_Step]] = {}
        self.guards: Dict[tuple, int] = {}
        self.steps: List[_Step] = []
        self.all_steps: List[_Step] = []
        #: indices and variables the steps read from the bindings
        self.symbols: Dict[E.Expr, None] = {}
        #: True when a step may raise numpy floating-point warnings
        #: (division, float32 rounding, float-to-int casts)
        self.noisy = False

    def _new(self) -> int:
        self.nslots += 1
        return self.nslots - 1

    def _slot(self, key) -> int:
        slot = self.slot.get(key)
        if slot is None:
            slot = self.slot[key] = self._new()
        return slot

    def _push(self, key, step: _Step) -> None:
        prior = self.emitted.setdefault(key, [])
        prior.append(step)
        if len(prior) > 1:
            for s in prior:
                s.tracked = True
        step.pos = len(self.all_steps)
        self.steps.append(step)
        self.all_steps.append(step)

    def _covered(self, key, guard) -> bool:
        """Already evaluated on every lane this reference can need."""
        return any(s.guard is None or s.guard == guard
                   for s in self.emitted.get(key, ()))

    def guard(self, base: Optional[int], cond: int, negate: bool) -> int:
        """Slot of the lane mask ``base AND (NOT) truth(cond)``."""
        key = (base, cond, negate)
        slot = self.guards.get(key)
        if slot is None:
            slot = self.guards[key] = self._new()
            step = _Guard(slot, base, cond, negate)
            step.pos = len(self.all_steps)
            self.steps.append(step)
            self.all_steps.append(step)
        return slot

    def value(self, node: E.Expr, guard: Optional[int] = None) -> int:
        """Slot holding ``node``'s lanes (emitting steps as needed)."""
        if isinstance(node, E.Const):
            key = ("v", node)
            slot = self.slot.get(key)
            if slot is None:
                slot = self._slot(key)
                arr = as_lanes(node.value)
                if node.dtype == E.FLOAT32:
                    arr = _round32(arr)
                self.init[slot] = arr
                value = node.value
                self.bound[slot] = (abs(int(value)) if isinstance(
                    value, (bool, int)) else _BIG)
            return slot
        key = ("v", node)
        slot = self._slot(key)
        if self._covered(key, guard):
            return slot
        if isinstance(node, (E.Idx, E.Var)):
            self.bound[slot] = _BIG
            self.symbols[node] = None
            self._push(key, _Bind(slot, guard, node))
        elif isinstance(node, E.Load):
            self._emit_load(node, slot, key, guard)
        elif isinstance(node, E.BinOp):
            a = self.value(node.lhs, guard)
            b = self.value(node.rhs, guard)
            ba, bb = self.bound[a], self.bound[b]
            self.bound[slot] = _bin_bound(node.op, ba, bb)
            self.noisy |= node.op in ("div", "mod") \
                or node.dtype == E.FLOAT32
            self._push(key, _Binary(slot, guard, node, a, b, ba, bb))
        elif isinstance(node, E.UnOp):
            x = self.value(node.operand, guard)
            self.bound[slot] = (_BIG if node.op == "to_int"
                                else max(self.bound[x], 1))
            self.noisy |= node.dtype == E.FLOAT32 or node.op == "to_int"
            self._push(key, _Unary(slot, guard, node, x))
        elif isinstance(node, E.Select):
            cond = self.value(node.cond, guard)
            t = self.value(node.if_true, self.guard(guard, cond, False))
            f = self.value(node.if_false, self.guard(guard, cond, True))
            self.bound[slot] = max(self.bound[t], self.bound[f])
            self.noisy |= node.dtype == E.FLOAT32
            self._push(key, _Select(slot, guard, node, cond, t, f))
        else:
            raise SimulationError(f"cannot evaluate {node!r} on the datapath")
        return slot

    def index(self, node: E.Expr, guard: Optional[int] = None) -> int:
        """Slot holding ``int(node)`` lanes (an address operand)."""
        x = self.value(node, guard)
        key = ("i", node)
        slot = self._slot(key)
        if not self._covered(key, guard):
            self.bound[slot] = max(self.bound[x], _BIG)
            self._push(key, _ToIndex(slot, guard, x))
        return slot

    def _emit_load(self, node: E.Load, slot: int, key, guard) -> None:
        target = node.array
        if isinstance(target, Reg):
            self.bound[slot] = _BIG
            self._push(key, _RegLoad(slot, guard, target))
            return
        if not isinstance(target, Sram):
            raise SimulationError(
                f"datapath cannot read {type(target).__name__} "
                f"{getattr(target, 'name', '?')!r}")
        idx = [self.index(i, guard) for i in node.indices]
        self.bound[slot] = _BIG
        self._push(key, _SramLoad(slot, guard, node, idx))

    def take_steps(self) -> List[_Step]:
        steps, self.steps = self.steps, []
        return steps


def _bin_bound(op: str, ba: int, bb: int) -> int:
    """Static magnitude bound of an int result."""
    if op in ("add", "sub"):
        return ba + bb
    if op == "mul":
        return ba * bb
    if op == "div":
        return ba
    if op == "mod":
        return bb
    if op in ("min", "max"):
        return max(ba, bb)
    return 1                                  # comparisons, and/or


# ---------------------------------------------------------------------------
# Runtime environment
# ---------------------------------------------------------------------------


class _Env:
    """Lane values of one evaluation (one memo)."""

    __slots__ = ("ctx", "n", "vals", "bindings", "errors", "done",
                 "records", "all", "effects")

    def __init__(self, ctx, program, n: int, bindings, effects=None):
        self.ctx = ctx
        #: the leaf whose vector primitives apply a body's writes
        self.effects = effects
        self.n = n
        self.vals = list(program.init_vals)
        self.bindings = bindings
        self.errors: List = []
        self.done: Dict[int, np.ndarray] = {}
        self.records: List = []
        self.all = None

    def need(self, step: _Step) -> Optional[np.ndarray]:
        if step.guard is not None:
            need = self.vals[step.guard]
        else:
            need = self.all
            if need is None:
                need = self.all = np.ones(self.n, dtype=bool)
        if step.tracked:
            done = self.done.get(step.out)
            if done is not None:
                need = need & ~done
                if not need.any():
                    return None
                self.done[step.out] = done | need
                return need
            self.done[step.out] = need
        return need if need.any() else None

    def record(self, pos: int, key, need, flat) -> None:
        self.records.append((pos, key, need, flat))

    def flush(self, accesses: Dict) -> None:
        """Move this statement's recorded addresses into ``accesses``.

        Groups appear in scalar order (first lane, then evaluation
        order) and each group's addresses in lane order.
        """
        records = self.records
        if not records:
            return
        self.records = []
        n = self.n
        if len(records) == 1 or all(r[2] is None for r in records) and \
                len({r[1] for r in records}) == len(records):
            for _, key, need, flat in records:
                lanes = _full(flat, n) if need is None \
                    else _full(flat, n)[need]
                accesses.setdefault(key, []).append(lanes)
            return
        chunks: Dict = {}
        first: Dict = {}
        for pos, key, need, flat in records:
            lanes = (np.arange(n) if need is None
                     else np.flatnonzero(need))
            if not lanes.size:
                continue
            addrs = _full(flat, n)[lanes]
            chunks.setdefault(key, []).append((pos, lanes, addrs))
            order = (int(lanes[0]), pos)
            if key not in first or order < first[key]:
                first[key] = order
        for key in sorted(first, key=first.get):
            parts = chunks[key]
            if len(parts) == 1:
                addrs = parts[0][2]
            else:
                lanes = np.concatenate([p[1] for p in parts])
                pos = np.concatenate([np.full(p[1].size, p[0])
                                      for p in parts])
                addrs = np.concatenate([p[2] for p in parts])[
                    np.lexsort((pos, lanes))]
            accesses.setdefault(key, []).append(addrs)

    def first_error(self, limit: int):
        return first_error(
            [(mask, (lambda lane, s=step: s.fail(self, lane)))
             for step, mask in self.errors], limit)


_UNSET = object()


def _bind(symbols, outer: dict) -> dict:
    """Lane arrays for the bound symbols a program reads."""
    return {sym: as_lanes(outer[sym]) for sym in symbols if sym in outer}


class _Program:
    """Compiled steps for a list of roots, evaluated with a fresh memo
    (counter bounds, transfer offsets, reduce and hash combines)."""

    def __init__(self, roots: Sequence[E.Expr]):
        comp = _Compiler()
        self.roots = [comp.value(r) for r in roots]
        self.steps = comp.take_steps()
        self.init_vals = [comp.init.get(i) for i in range(comp.nslots)]
        self.symbols = tuple(comp.symbols)
        self.noisy = comp.noisy
        root = roots[0]
        #: scalar value of a constant root (counter bounds mostly are)
        self.constant = (scalar_at(self.init_vals[self.roots[0]], 0)
                         if isinstance(root, E.Const) else _UNSET)
        #: an index root evaluates to its binding unchanged
        self.index = root if isinstance(root, E.Idx) else None

    def run(self, ctx, bindings, n: int):
        """Evaluate every root; returns (env, first-error lane, exc)."""
        env = _Env(ctx, self, n, bindings)
        for step in self.steps:
            step.run(env)
        env.flush(ctx.accesses)
        lane, exc = env.first_error(n) if env.errors else (n, None)
        return env, lane, exc


class _BodyPlan:
    """One statement: its evaluation steps plus its effect."""

    __slots__ = ("steps", "effect")

    def __init__(self, steps, effect):
        self.steps = steps
        self.effect = effect


class BodyKernel:
    """One InnerCompute body compiled into lane-vector steps + effects.

    A body that loads a memory it also writes runs the same steps one
    lane at a time (statement by statement), so every read observes the
    writes of earlier lanes exactly as scalar evaluation does.
    """

    def __init__(self, leaf: InnerCompute):
        self.index = leaf.chain.indices[-1] if leaf.chain.depth else None
        comp = _Compiler()
        self.plans: List[_BodyPlan] = []
        for si, stmt in enumerate(leaf.stmts):
            effect = self._compile_stmt(comp, si, stmt)
            self.plans.append(_BodyPlan(comp.take_steps(), effect))
        self.init_vals = [comp.init.get(i) for i in range(comp.nslots)]
        self.symbols = tuple(s for s in comp.symbols if s is not self.index)
        self.per_lane = _self_reading(leaf)
        self.ops_per_lane = sum(E.count_ops(root) for stmt in leaf.stmts
                                for root in stmt.exprs())

    def _compile_stmt(self, comp: _Compiler, si: int, stmt):
        if isinstance(stmt, WriteStmt):
            value = comp.value(stmt.value)
            addr = [comp.index(a) for a in stmt.addr]
            return _WriteEffect(stmt, value, addr)
        if isinstance(stmt, ReduceStmt):
            values = [comp.value(v) for v in stmt.values]
            addr = [comp.index(a) for a in stmt.addr]
            return _ReduceEffect(si, stmt, values, addr)
        if isinstance(stmt, HashReduceStmt):
            key = comp.index(stmt.key)
            value = comp.value(stmt.value)
            return _HashEffect(stmt, key, value)
        if isinstance(stmt, EmitStmt):
            cond = comp.value(stmt.cond)
            value = comp.value(stmt.value, comp.guard(None, cond, False))
            return _EmitEffect(stmt, cond, value)
        raise SimulationError(f"unknown stmt {stmt!r}")

    def run(self, ctx: "LaneContext", outer: dict, inner: np.ndarray,
            effects):
        """One vector issue; returns each scratchpad's write addresses
        (lane order, statement by statement)."""
        ctx.writes = {}
        bindings = _bind(self.symbols, outer)
        inner = lane_values(inner)
        if self.per_lane:
            envs = []
            for k in range(len(inner)):
                one_lane = dict(bindings)
                one_lane[self.index] = inner[k:k + 1]
                envs.append(_Env(ctx, self, 1, one_lane, effects))
            for plan in self.plans:
                if isinstance(plan.effect, _EmitEffect):
                    # one push per issue, and none if a lane raises
                    words = []
                    for env in envs:
                        _, exc = self._evaluate(plan, env)
                        if exc is not None:
                            raise exc
                        words += plan.effect.words(env, 1)
                    plan.effect.push(effects, words)
                    continue
                for k, env in enumerate(envs):
                    self._statement(plan, env, outer, inner[k:k + 1])
        else:
            bindings[self.index] = inner
            env = _Env(ctx, self, len(inner), bindings, effects)
            for plan in self.plans:
                self._statement(plan, env, outer, inner)
        return {name: parts[0] if len(parts) == 1 else np.concatenate(parts)
                for name, parts in ctx.writes.items()}

    @staticmethod
    def _evaluate(plan, env: _Env):
        """Run one statement's steps; returns its first failing lane and
        exception, or ``(n, None)``."""
        for step in plan.steps:
            step.run(env)
        n = env.n
        lane, exc = env.first_error(n) if env.errors else (n, None)
        env.errors = []
        env.flush(env.ctx.accesses)
        return lane, exc

    def _statement(self, plan, env: _Env, outer, inner) -> None:
        lane, exc = self._evaluate(plan, env)
        if exc is not None and isinstance(plan.effect, _EmitEffect):
            raise exc                 # an issue's emit pushes all or none
        if lane:
            effect_exc = plan.effect.apply(env, lane, outer, inner,
                                           self.index)
            if effect_exc is not None:
                raise effect_exc
        if exc is not None:
            raise exc


def _self_reading(leaf: InnerCompute) -> bool:
    """True when the body loads a memory one of its statements writes."""
    read = {m.name for m in leaf.memories_read()}
    written = set()
    for stmt in leaf.stmts:
        if isinstance(stmt, (WriteStmt, HashReduceStmt)):
            written.add(stmt.mem.name)
    return bool(read & written)


# ---------------------------------------------------------------------------
# Effects
# ---------------------------------------------------------------------------


def store_sram(ctx, effects, sram: Sram, idxs, values: np.ndarray,
               limit: int, n: int) -> Optional[Exception]:
    """Write lanes ``[0, limit)`` into a scratchpad (last write wins);
    a failing lane stores the lanes before it and returns its
    exception."""
    scratch = ctx.mem.scratch(sram)
    buf = scratch.buffer(ctx.version)
    flat, oob = flatten(idxs, buf.shape, n)
    conv, cerr = convert(values, buf.dtype, n)

    def oob_exc(lane):
        lane_idxs = [scalar_at(i, lane) for i in idxs]
        return SimulationError(
            f"scratchpad OOB write: {sram.name}[{lane_idxs}] "
            f"shape {buf.shape}")

    limit, exc = first_error(
        [(oob, oob_exc),
         (cerr, lambda lane: convert_error(values, buf.dtype, lane))],
        limit)
    if limit:
        flats = _full(flat, n)[:limit]
        effects._write_sram(scratch, ctx.version, flats, conv[:limit])
        ctx.writes.setdefault(sram.name, []).append(flats)
    return exc


class _WriteEffect:
    __slots__ = ("mem", "value", "addr")

    def __init__(self, stmt: WriteStmt, value, addr):
        self.mem = stmt.mem
        self.value, self.addr = value, addr

    def apply(self, env, limit, outer, inner, index):
        value = env.vals[self.value]
        if isinstance(self.mem, Reg):
            dtype = _np_dtype(self.mem.dtype)
            _, err = convert(value, dtype, env.n)
            limit, exc = first_error(
                [(err, lambda lane: convert_error(value, dtype, lane))],
                limit)
            if limit:
                env.effects._write_reg(self.mem,
                                       scalar_at(value, limit - 1))
            return exc
        return store_sram(env.ctx, env.effects, self.mem,
                          [env.vals[s] for s in self.addr], value, limit,
                          env.n)


class _EmitEffect:
    __slots__ = ("fifo", "cond", "value")

    def __init__(self, stmt: EmitStmt, cond, value):
        self.fifo = stmt.fifo
        self.cond, self.value = cond, value

    def words(self, env, limit) -> list:
        """Values of lanes ``[0, limit)`` whose condition holds."""
        value = env.vals[self.value]
        if value is None:
            return []
        mask = _full(_truthy(env.vals[self.cond]), env.n)[:limit]
        return _full(value, env.n)[:limit][mask].tolist()

    def push(self, effects, words: list) -> None:
        if words:
            effects._emit_values(effects.fifos[self.fifo.name], words)

    def apply(self, env, limit, outer, inner, index):
        self.push(env.effects, self.words(env, limit))
        return None


def _lane_bindings(program, outer, index, inner, lanes):
    """A combine program's bindings for a subset of lanes."""
    bindings = _bind(program.symbols, outer)
    if index is not None:
        bindings[index] = inner[lanes]
    return bindings


class _ReduceEffect:
    """Lane-order fold into per-address accumulators (held by the leaf
    until the activation's final writes)."""

    __slots__ = ("si", "stmt", "values", "addr", "combine", "fast",
                 "rounded", "f32")

    def __init__(self, si, stmt: ReduceStmt, values, addr):
        self.si = si
        self.stmt = stmt
        self.values, self.addr = values, addr
        self.combine = _Program(stmt.combines)
        self.fast = _fast_fold_kind(stmt)
        #: per accumulator: True when the combine rounds to float32
        #: (its result, or its operand variables) and float value lanes
        #: arrive float32-exact; False when they may not (no vector
        #: fold); None when nothing rounds
        self.rounded = []
        for k, (v, c) in enumerate(zip(stmt.values, stmt.combines)):
            rounds = E.FLOAT32 in (c.dtype, stmt.acc_a[k].dtype,
                                   stmt.acc_b[k].dtype)
            self.rounded.append(v.dtype == E.FLOAT32 if rounds else None)
        self.f32 = [c.dtype == E.FLOAT32 for c in stmt.combines]

    def apply(self, env, limit, outer, inner, index):
        n = env.n
        accs = env.effects._accs[self.si]
        values = [_full(env.vals[s], n)[:limit] for s in self.values]
        groups = _key_groups([env.vals[s] for s in self.addr], n, limit)
        folded = []
        failure = None
        for key, lanes in groups:
            prev = accs[key][1] if key in accs else list(self.stmt.inits)
            result, bad = self.fold(env, prev, [v[lanes] for v in values],
                                    lanes, outer, inner, index)
            folded.append((key, lanes, prev, result))
            if bad is not None and (failure is None or bad[0] < failure[0]):
                failure = bad
        for key, lanes, prev, result in folded:
            if failure is not None and lanes[-1] >= failure[0]:
                # scalar order stops at the failing lane: refold this
                # key's earlier lanes only
                lanes = lanes[lanes < failure[0]]
                if not lanes.size:
                    continue
                result, _ = self.fold(env, prev, [v[lanes] for v in values],
                                      lanes, outer, inner, index)
            last = int(lanes[-1])
            accs[key] = ((outer, index, scalar_at(inner, last)), result)
        return None if failure is None else failure[1]

    def fold(self, env, prev, vals, lanes, outer, inner, index):
        """Fold ``vals`` (lane order) into ``prev``."""
        start = 0
        if self.fast is not None:
            if not self._stable(prev):
                # one scalar step rounds an inexact initial value the
                # way the combine would; the rest can then vectorize
                prev, failure = self._scalar(env, prev, vals, lanes, 0, 1,
                                             outer, inner, index)
                if failure is not None:
                    return None, failure
                start = 1
            if start == len(lanes):
                return prev, None
            result = _fast_fold(self.fast, prev,
                                [v[start:] for v in vals], self.rounded,
                                self.f32[0])
            if result is not None:
                return result, None
        return self._scalar(env, prev, vals, lanes, start, len(lanes),
                            outer, inner, index)

    def _stable(self, prev) -> bool:
        """True when no accumulator would change under float32
        rounding (an initial value may not be float32-exact)."""
        for value, rounds in zip(prev, self.rounded):
            if isinstance(value, float) and rounds is not None \
                    and not math.isnan(value) \
                    and float(np.float32(value)) != value:
                return False
        return True

    def _scalar(self, env, prev, vals, lanes, lo, hi, outer, inner, index):
        """Scalar fold: the combine program run on one lane per step."""
        stmt = self.stmt
        acc = list(prev)
        ctx = env.ctx
        for j in range(lo, hi):
            lane = int(lanes[j])
            bindings = _lane_bindings(self.combine, outer, index, inner,
                                      slice(lane, lane + 1)
                                      if inner.shape[0] > 1
                                      else slice(0, 1))
            for k in range(stmt.width):
                bindings[stmt.acc_a[k]] = as_lanes(acc[k])
                bindings[stmt.acc_b[k]] = vals[k][j:j + 1]
            cenv, _, exc = self.combine.run(ctx, bindings, 1)
            if exc is not None:
                return None, (lane, exc)
            acc = [scalar_at(cenv.vals[r], 0) for r in self.combine.roots]
        return acc, None


def _fast_fold_kind(stmt: ReduceStmt):
    """Recognize folds with an exact vector form: width-1 ``a+b``,
    ``a*b``, ``min(a, b)``, ``max(a, b)``, and the width-2 argmin/argmax
    select pair.  Returns a tag or None."""
    a, b = stmt.acc_a, stmt.acc_b
    c = stmt.combines
    if stmt.width == 1:
        node = c[0]
        if isinstance(node, E.BinOp):
            if node.op in ("add", "mul") and {id(node.lhs), id(node.rhs)} \
                    == {id(a[0]), id(b[0])}:
                return node.op
            if node.op in ("min", "max") and node.lhs is a[0] \
                    and node.rhs is b[0]:
                return "lt" if node.op == "min" else "gt"
        return None
    if stmt.width == 2:
        s0, s1 = c
        if not (isinstance(s0, E.Select) and isinstance(s1, E.Select)):
            return None
        cond = s0.cond
        same = s1.cond is cond or (
            isinstance(s1.cond, E.BinOp) and isinstance(cond, E.BinOp)
            and s1.cond.op == cond.op and s1.cond.lhs is cond.lhs
            and s1.cond.rhs is cond.rhs)
        if (same and isinstance(cond, E.BinOp)
                and cond.op in ("lt", "gt") and cond.lhs is b[0]
                and cond.rhs is a[0] and s0.if_true is b[0]
                and s0.if_false is a[0] and s1.if_true is b[1]
                and s1.if_false is a[1]):
            return cond.op
    return None


def _fast_fold(kind: str, prev, vals, rounded, f32: bool
               ) -> Optional[list]:
    """Vector form of a recognized fold, or None when its lanes do not
    meet the exactness preconditions (the scalar fold then runs).

    ``prev`` is float32-stable here whenever its combine rounds."""
    if any(r is False for r in rounded):
        return None
    v0 = vals[0]
    k0 = v0.dtype.kind
    p0 = prev[0]
    if kind in ("add", "mul"):
        ufunc = np.add if kind == "add" else np.multiply
        if k0 == "f" and isinstance(p0, float):
            # float32 + - * / round exactly like float64-then-round;
            # accumulate is sequential (never pairwise)
            seq = np.concatenate(([p0], v0))
            if f32:
                seq = seq.astype(np.float32)
            return [float(ufunc.accumulate(seq)[-1])]
        if k0 == "i" and type(p0) is int and kind == "add" \
                and abs(p0) + len(v0) * _max_abs(v0) < _I64:
            return [p0 + int(np.add.accumulate(v0)[-1])]
        return None
    # strict-improvement folds: lt (min/argmin), gt (max/argmax) keep
    # the first lane reaching the extremum; NaN lanes never win
    if k0 == "f" and not isinstance(p0, float):
        return None
    if k0 == "i" and type(p0) is not int or k0 not in "fi":
        return None
    valid = ~np.isnan(v0) if k0 == "f" else None
    cand = v0 if valid is None else v0[valid]
    if not cand.size:
        return list(prev)
    best = cand.min() if kind == "lt" else cand.max()
    if not (best < p0 if kind == "lt" else best > p0):
        return list(prev)
    lane = int((v0 == best).argmax())
    return [scalar_at(v, lane) for v in vals]


def _key_groups(idxs, n: int, limit: int):
    """Lanes ``[0, limit)`` grouped by address tuple, first-seen order."""
    if not idxs:
        return [((), np.arange(limit))]
    if all(i.shape[0] == 1 for i in idxs):
        return [(tuple(scalar_at(i, 0) for i in idxs), np.arange(limit))]
    cols = [_tolist(i, n)[:limit] for i in idxs]
    groups: Dict[tuple, list] = {}
    for lane, key in enumerate(zip(*cols)):
        groups.setdefault(key, []).append(lane)
    return [(key, np.array(lanes)) for key, lanes in groups.items()]


def _rounds(keys: np.ndarray):
    """Partition lanes so each round's keys are distinct and a key's
    k-th occurrence sits in round k (read-modify-write order).

    Returns ``(bins, slot, rounds)``: the distinct keys, each lane's
    position in ``bins``, and the rounds' lane arrays."""
    m = keys.shape[0]
    if m <= 1:
        return keys, np.arange(m), [np.arange(m)]
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.empty(m, dtype=bool)
    starts[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=starts[1:])
    if starts.all():
        return keys, np.arange(m), [np.arange(m)]
    slot = np.empty(m, dtype=np.int64)
    slot[order] = np.cumsum(starts) - 1
    pos = np.arange(m)
    rank_sorted = pos - np.maximum.accumulate(np.where(starts, pos, 0))
    rank = np.empty(m, dtype=np.int64)
    rank[order] = rank_sorted
    return (sorted_keys[starts], slot,
            [np.flatnonzero(rank == r) for r in range(int(rank.max()) + 1)])


class _HashEffect:
    """Dense HashReduce: read-modify-write per lane in lane order."""

    __slots__ = ("stmt", "key", "value", "combine")

    def __init__(self, stmt: HashReduceStmt, key, value):
        self.stmt = stmt
        self.key, self.value = key, value
        self.combine = _Program([stmt.combine])

    def apply(self, env, limit, outer, inner, index):
        stmt = self.stmt
        ctx = env.ctx
        n = env.n
        scratch = ctx.mem.scratch(stmt.mem)
        buf = scratch.buffer(ctx.version)
        size = buf.size
        keys = env.vals[self.key]
        values = _full(env.vals[self.value], n)[:limit]
        if keys.dtype.kind == "O":
            key_list = _tolist(keys, n)[:limit]
            oob = np.array([k < 0 or k >= size for k in key_list],
                           dtype=bool)
            lane_keys = np.array([0 if bad else k for k, bad in
                                  zip(key_list, oob.tolist())],
                                 dtype=np.int64)
        else:
            lane_keys = _full(keys, n)[:limit]
            oob = lane_keys.view(np.uint64) >= size
            lane_keys = np.where(oob, 0, lane_keys) if oob.any() \
                else lane_keys
        cut = limit
        exc = None
        if oob.any():
            cut = int(oob.argmax())
            exc = SimulationError(
                f"{env.effects.name}: hash key {scalar_at(keys, cut)} "
                f"outside [0, {size})")
        # combine every round against a working copy of the touched
        # bins, then store only the lanes before the first failure
        bins, slot, rounds = _rounds(lane_keys[:cut])
        work = buf.reshape(-1)[bins]
        done = []
        for lanes in rounds:
            lanes = lanes[lanes < cut]
            if not lanes.size:
                continue
            bindings = _lane_bindings(self.combine, outer, index, inner,
                                      lanes if inner.shape[0] > 1
                                      else slice(0, 1))
            bindings[stmt.acc_a] = _typed(work[slot[lanes]])
            bindings[stmt.acc_b] = values[lanes]
            cenv, bad, cexc = self.combine.run(ctx, bindings, lanes.size)
            if cexc is None:
                bad = lanes.size
            combined = cenv.vals[self.combine.roots[0]]
            conv, cerr = convert(combined, work.dtype, cenv.n, setitem=True)
            if cerr is not None and cerr[:bad].any():
                bad = int(cerr[:bad].argmax())
                cexc = convert_error(combined, work.dtype, bad, setitem=True)
            if cexc is not None:
                cut, exc = int(lanes[bad]), cexc
                lanes = lanes[:bad]
            conv = _full(conv, cenv.n)[:lanes.size]
            work[slot[lanes]] = conv
            done.append((lanes, conv))
        for lanes, conv in done:
            keep = lanes < cut
            if keep.any():
                env.effects._hash_store(scratch, buf, lane_keys[lanes[keep]],
                                        conv[keep])
        if exc is not None:
            return exc
        ctx.writes.setdefault(stmt.mem.name, []).append(lane_keys)
        return None


# ---------------------------------------------------------------------------
# Kernel caches and the evaluation context
# ---------------------------------------------------------------------------

def body_kernel(leaf: InnerCompute) -> BodyKernel:
    """The kernel of one InnerCompute, compiled on first use and cached
    on the (frozen) leaf itself."""
    kernel = leaf.__dict__.get("_kernel")
    if kernel is None:
        kernel = leaf.__dict__["_kernel"] = BodyKernel(leaf)
    return kernel


def expr_kernel(root: E.Expr) -> _Program:
    """The one-root program of a scalar expression, cached on it."""
    program = root.__dict__.get("_kernel")
    if program is None:
        program = root.__dict__["_kernel"] = _Program([root])
    return program


class LaneContext:
    """Runs datapath kernels for one activation.

    ``version`` selects which N-buffer generation reads observe.
    ``accesses`` accumulates ``(sram name, load site) -> [flat address
    arrays]`` until the owning leaf prices them (each load site is its
    own pipelined operand stream).
    """

    def __init__(self, mem: MemoryState, version):
        self.mem = mem
        self.version = version
        self.accesses: Dict = {}
        self.writes: Dict = {}

    def reset_accesses(self) -> Dict[tuple, np.ndarray]:
        """Return (one address array per group) and clear the recorded
        accesses."""
        out, self.accesses = self.accesses, {}
        return {key: (parts[0] if len(parts) == 1
                      else np.concatenate(parts))
                for key, parts in out.items()}

    def eval(self, target, bindings: dict, inner=None, effects=None):
        """The kernel entry point.

        With an expression, evaluates it on one lane under ``bindings``
        and returns the Python scalar.  With a :class:`BodyKernel`, runs
        one vector issue (``bindings`` = outer indices, ``inner`` = the
        innermost index lanes) whose writes go through the vector effect
        primitives of ``effects`` (the leaf: ``_write_sram``,
        ``_write_reg``, ``_hash_store``, ``_emit_values``) and returns
        its write addresses.
        """
        if isinstance(target, BodyKernel):
            with np.errstate(all="ignore"):
                return target.run(self, bindings, inner, effects)
        program = expr_kernel(target)
        if program.constant is not _UNSET:
            return program.constant
        if program.index is not None and program.index in bindings:
            return bindings[program.index]
        lanes = _bind(program.symbols, bindings)
        if program.noisy:
            with np.errstate(all="ignore"):
                env, _, exc = program.run(self, lanes, 1)
        else:
            env, _, exc = program.run(self, lanes, 1)
        if exc is not None:
            raise exc
        return scalar_at(env.vals[program.roots[0]], 0)
