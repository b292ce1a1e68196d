"""Test-only reference: the scalar, lane-by-lane datapath evaluator.

This is the simulator's original expression interpreter — a recursive
walk of each statement's expression DAG, once per lane, with one memo
dict per lane — plus its per-lane statement loops.  The datapath
kernels in :mod:`repro.sim.datapath` must agree with it bit for bit:
values and their Python types, per-(scratchpad, load site) address
lists, scratchpad counters, and the type and message of any exception.
It lives under ``tests/`` so the simulator keeps a single evaluator.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.dhdl.ir import (EmitStmt, HashReduceStmt, ReduceStmt,
                           WriteStmt)
from repro.dhdl.memory import Reg, Sram
from repro.errors import SimulationError
from repro.patterns import expr as E
from repro.patterns.collections import _np_dtype


class ScalarContext:
    """Evaluates expressions for one activation, one lane at a time."""

    def __init__(self, mem, version):
        self.mem = mem
        self.version = version
        self.accesses: Dict[tuple, List[int]] = {}

    def reset_accesses(self):
        out, self.accesses = self.accesses, {}
        return out

    def eval(self, node: E.Expr, bindings, cache=None):
        if cache is None:
            cache = {}
        if node in cache:
            return cache[node]
        result = self._eval(node, bindings, cache)
        if isinstance(result, float) and node.dtype == E.FLOAT32:
            result = float(np.float32(result))
        cache[node] = result
        return result

    def _eval(self, node, bindings, cache):
        if isinstance(node, E.Const):
            return node.value
        if isinstance(node, (E.Idx, E.Var)):
            try:
                return bindings[node]
            except KeyError:
                raise SimulationError(
                    f"unbound symbol {node!r} in datapath") from None
        if isinstance(node, E.Load):
            return self._load(node, bindings, cache)
        if isinstance(node, E.BinOp):
            return E.eval_binary(node.op,
                                 self.eval(node.lhs, bindings, cache),
                                 self.eval(node.rhs, bindings, cache))
        if isinstance(node, E.UnOp):
            return E.eval_unary(node.op,
                                self.eval(node.operand, bindings, cache))
        if isinstance(node, E.Select):
            cond = self.eval(node.cond, bindings, cache)
            branch = node.if_true if cond else node.if_false
            return self.eval(branch, bindings, cache)
        raise SimulationError(f"cannot evaluate {node!r} on the datapath")

    def _load(self, node: E.Load, bindings, cache):
        target = node.array
        if isinstance(target, Reg):
            return self.mem.reg(target).read()
        idxs = [int(self.eval(i, bindings, cache)) for i in node.indices]
        scratch = self.mem.scratch(target)
        buf = scratch.read_buffer(self.version)
        flat = 0
        for axis, idx in enumerate(idxs):
            if idx < 0 or idx >= buf.shape[axis]:
                raise SimulationError(
                    f"scratchpad OOB: {target.name}[{idxs}] shape "
                    f"{buf.shape}")
            flat = flat * buf.shape[axis] + idx
        self.accesses.setdefault((target.name, id(node)), []).append(flat)
        return buf[tuple(idxs)].item()

    def write_sram(self, sram: Sram, idxs, value) -> int:
        scratch = self.mem.scratch(sram)
        buf = scratch.buffer(self.version)
        flat = 0
        for axis, idx in enumerate(idxs):
            if idx < 0 or idx >= buf.shape[axis]:
                raise SimulationError(
                    f"scratchpad OOB write: {sram.name}[{list(idxs)}] "
                    f"shape {buf.shape}")
            flat = flat * buf.shape[axis] + idx
        buf[tuple(int(i) for i in idxs)] = _np_dtype(sram.dtype)(value)
        scratch.note_write(self.version, flat)
        return flat


class ScalarLeaf:
    """One InnerCompute body executed lane by lane (the reference for
    ``InnerComputeSim._execute`` / ``_apply_finals``)."""

    def __init__(self, leaf, mem, fifos, name="ref"):
        self.leaf = leaf
        self.mem = mem
        self.fifos = fifos
        self.name = name
        self.accs: Dict[int, Dict[Tuple, Tuple[dict, list]]] = {}
        self.ctx = None
        self.version = ()
        #: per issue: (read address groups, write address groups)
        self.issues: List[tuple] = []

    def begin(self, version) -> None:
        self.version = version
        self.ctx = ScalarContext(self.mem, version)
        self.accs = {k: {} for k, s in enumerate(self.leaf.stmts)
                     if isinstance(s, ReduceStmt)}
        for stmt in self.leaf.stmts:
            if isinstance(stmt, HashReduceStmt) and not stmt.carry:
                buf = self.mem.scratch(stmt.mem).buffer(version)
                buf.fill(_np_dtype(stmt.mem.dtype)(stmt.init))

    def evaluate(self, expr, bindings):
        """Scalar evaluation (counter bounds): loads stay pending."""
        return self.ctx.eval(expr, bindings, {})

    def execute(self, lane_bindings: List[dict]) -> int:
        ctx = self.ctx
        write_addrs: Dict[str, List[int]] = {}
        caches = [dict() for _ in lane_bindings]
        for si, stmt in enumerate(self.leaf.stmts):
            if isinstance(stmt, WriteStmt):
                self._do_write(stmt, lane_bindings, caches, write_addrs)
            elif isinstance(stmt, ReduceStmt):
                self._do_reduce(si, stmt, lane_bindings, caches)
            elif isinstance(stmt, HashReduceStmt):
                self._do_hash(stmt, lane_bindings, caches, write_addrs)
            else:
                self._do_emit(stmt, lane_bindings, caches)
        reads = ctx.reset_accesses()
        self.issues.append((reads, write_addrs))
        extra = 0
        for (name, _site), addrs in reads.items():
            extra = max(extra, self.mem.scratchpads[name].read_cost(addrs))
        for name, addrs in write_addrs.items():
            extra = max(extra,
                        self.mem.scratchpads[name].write_cost(addrs))
        return extra

    def _do_write(self, stmt, lanes, caches, write_addrs):
        ctx = self.ctx
        for lane, cache in zip(lanes, caches):
            value = ctx.eval(stmt.value, lane, cache)
            if isinstance(stmt.mem, Reg):
                self.mem.reg(stmt.mem).write(value)
                continue
            idxs = [int(ctx.eval(a, lane, cache)) for a in stmt.addr]
            flat = ctx.write_sram(stmt.mem, idxs, value)
            write_addrs.setdefault(stmt.mem.name, []).append(flat)

    def _do_reduce(self, si, stmt, lanes, caches):
        ctx = self.ctx
        accs = self.accs[si]
        for lane, cache in zip(lanes, caches):
            values = [ctx.eval(v, lane, cache) for v in stmt.values]
            key = tuple(int(ctx.eval(a, lane, cache)) for a in stmt.addr)
            prev = accs[key][1] if key in accs else list(stmt.inits)
            cbind = dict(lane)
            for k in range(stmt.width):
                cbind[stmt.acc_a[k]] = prev[k]
                cbind[stmt.acc_b[k]] = values[k]
            ccache = {}
            combined = [ctx.eval(c, cbind, ccache) for c in stmt.combines]
            accs[key] = (lane, combined)

    def _do_hash(self, stmt, lanes, caches, write_addrs):
        ctx = self.ctx
        for lane, cache in zip(lanes, caches):
            key = int(ctx.eval(stmt.key, lane, cache))
            value = ctx.eval(stmt.value, lane, cache)
            buf = self.mem.scratch(stmt.mem).buffer(self.version)
            if key < 0 or key >= buf.size:
                raise SimulationError(
                    f"{self.name}: hash key {key} outside "
                    f"[0, {buf.size})")
            cbind = dict(lane)
            cbind[stmt.acc_a] = buf.flat[key].item()
            cbind[stmt.acc_b] = value
            buf.flat[key] = ctx.eval(stmt.combine, cbind, {})
            write_addrs.setdefault(stmt.mem.name, []).append(key)

    def _do_emit(self, stmt: EmitStmt, lanes, caches):
        ctx = self.ctx
        values = []
        for lane, cache in zip(lanes, caches):
            if ctx.eval(stmt.cond, lane, cache):
                values.append(ctx.eval(stmt.value, lane, cache))
        if values:
            self.fifos[stmt.fifo.name].push(values)

    def apply_finals(self) -> None:
        ctx = self.ctx
        for si, accs in self.accs.items():
            stmt = self.leaf.stmts[si]
            for key, (snapshot, values) in accs.items():
                if stmt.carry:
                    current = []
                    for mem in stmt.mems:
                        if isinstance(mem, Reg):
                            current.append(self.mem.reg(mem).read())
                        else:
                            buf = self.mem.scratch(mem).read_buffer(
                                self.version)
                            current.append(buf[key].item())
                    cbind = dict(snapshot)
                    for k in range(stmt.width):
                        cbind[stmt.acc_a[k]] = current[k]
                        cbind[stmt.acc_b[k]] = values[k]
                    ccache = {}
                    values = [ctx.eval(c, cbind, ccache)
                              for c in stmt.combines]
                for mem, value in zip(stmt.mems, values):
                    if isinstance(mem, Reg):
                        self.mem.reg(mem).write(value)
                    else:
                        ctx.write_sram(mem, list(key), value)
        ctx.reset_accesses()
