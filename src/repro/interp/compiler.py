"""Compilation of repro IR to Python closures.

Executing a tree-walking interpreter per instruction would be far too slow
for statistical fault-injection campaigns (tens of thousands of program
runs), so the interpreter *compiles* each basic block to one Python function
(``exec``-generated source).  The interpreter then just drives a
block-dispatch loop; everything inside a block runs as straight-line Python.

Semantics implemented exactly:

* two's-complement wrap-around for ``iN`` arithmetic,
* C-style truncating ``sdiv``/``srem`` with a trap on division by zero,
* IEEE-754 double math (Python floats), with ``fdiv``-by-zero producing
  ±inf/NaN instead of a Python exception,
* cell-addressed memory with bounds and validity checks (traps model the
  architecture-level symptoms of the paper's outcome taxonomy),
* per-block cycle charging and a cycle budget (hang detection),
* optional per-block execution profiling (used to pick dynamic fault sites),
* optional fault injection into the result of a chosen instruction at a
  chosen dynamic occurrence (the FlipIt substitute's engine room), through
  a corruption closure the fault model supplies.

Every function gets two dispatch tables.  ``block_fns`` holds one function
per block; the armed path of ``Interpreter.call`` (recovery, ladder
capture, resync, warm resume) runs on it.  ``lean_fns`` is the same table
with the header of every innermost natural loop replaced by a *loop unit*:
one generated function that runs the whole loop in a local ``while``, keeps
the SSA values it touches in Python locals, and inlines calls to
single-block leaf functions.  Units charge cycles, check the budget, and
bump the profile per constituent block exactly as the block functions do,
so both tables produce bit-identical runs.

Fault injection works by swapping in alternative compiled versions of the
functions that hold the target instruction: its block, the unit holding
that block, and every unit that inlines its (leaf) function.  Everything
else runs at full speed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.loops import Loop, LoopInfo
from ..ir.block import BasicBlock
from ..ir.function import Function
from ..ir.instructions import (
    AllocaInst,
    AtomicRMWInst,
    BinaryOperator,
    BranchInst,
    CallInst,
    CastInst,
    FCmpInst,
    GEPInst,
    ICmpInst,
    Instruction,
    LoadInst,
    PhiNode,
    RetInst,
    SelectInst,
    StoreInst,
    UnreachableInst,
)
from ..ir.module import Module
from ..ir.types import Type
from ..ir.values import Argument, Constant, GlobalVariable, UndefValue, Value
from .costmodel import CostModel
from .errors import InterpreterBug
from .runtime import EXEC_GLOBALS, MAX_CALL_DEPTH


class CompiledBlock:
    """One block: its compiled function and metadata for injection."""

    __slots__ = ("index", "gid", "fn", "cost", "source", "block")

    def __init__(self, index: int, gid: int, fn: Callable, cost: int, source: str, block: BasicBlock):
        self.index = index
        self.gid = gid
        self.fn = fn
        self.cost = cost
        self.source = source
        self.block = block


class CompiledFunction:
    """One function: frame size, compiled blocks and its two dispatch tables."""

    __slots__ = (
        "index", "name", "fn", "nslots", "nargs", "blocks", "block_fns", "lean_fns",
    )

    def __init__(self, index: int, fn: Function):
        self.index = index
        self.name = fn.name
        self.fn = fn
        self.nslots = 0
        self.nargs = len(fn.args)
        self.blocks: List[CompiledBlock] = []
        #: one function per block (armed dispatch path)
        self.block_fns: List[Callable] = []
        #: ``block_fns`` with every loop-unit header mapped to its unit
        self.lean_fns: List[Callable] = []


class LoopUnit:
    """One innermost natural loop fused into a single generated function.

    ``order`` holds the loop's block indices in topological order with the
    back edges removed (header first).  ``loads`` are the frame slots the
    unit copies into locals on entry; ``stores`` the ones it writes back on
    every loop exit.  ``leaves`` maps ``id(Function)`` of each inlined leaf
    callee to its :class:`CompiledFunction`.
    """

    __slots__ = ("cfi", "order", "loads", "stores", "leaves", "cells")

    def __init__(self, cfi: int, order: List[int]):
        self.cfi = cfi
        self.order = order
        self.loads: List[int] = []
        self.stores: List[int] = []
        self.leaves: Dict[int, CompiledFunction] = {}
        self.cells = False


class InstructionRecord:
    """Where a value-producing instruction lives in compiled form."""

    __slots__ = ("inst", "cfi", "block_index", "block_gid", "slot")

    def __init__(self, inst: Instruction, cfi: int, block_index: int, block_gid: int, slot: int):
        self.inst = inst
        self.cfi = cfi
        self.block_index = block_index
        self.block_gid = block_gid
        self.slot = slot


class CompiledModule:
    """A fully compiled module plus its memory layout."""

    def __init__(self, module: Module, cost_model: Optional[CostModel] = None):
        self.module = module
        self.cost_model = cost_model or CostModel()
        self.cfuncs: List[CompiledFunction] = []
        self.func_index: Dict[str, int] = {}
        self.records: Dict[int, InstructionRecord] = {}  # id(inst) -> record
        self.block_gids: Dict[int, int] = {}  # id(block) -> gid
        self.total_blocks = 0
        #: detection context per compiled check call, indexed by the site id
        #: baked into the generated ``state.check_failed(<site>)``:
        #: (function name, block name, intrinsic name, checked value name)
        self.check_sites: List[Tuple[str, str, str, str]] = []
        #: every fused innermost loop, in compile order
        self.units: List[LoopUnit] = []
        # memory layout
        self.global_addr: Dict[str, int] = {}
        self.global_template: List = []  # initial cells incl. guards (None = guard)
        self.stack_base = 0
        self._compiler = _Compiler(self)
        self._layout_globals()
        self._compile_all()

    # -- memory layout --------------------------------------------------------

    GUARD = 8  # guard cells between regions

    def _layout_globals(self) -> None:
        cells: List = [None] * self.GUARD
        for gv in self.module.globals.values():
            self.global_addr[gv.name] = len(cells)
            cells.extend(gv.initial_cells())
            cells.extend([None] * self.GUARD)
        self.global_template = cells
        self.stack_base = len(cells)

    # -- compilation ------------------------------------------------------------

    def _compile_all(self) -> None:
        defined = self.module.defined_functions()
        for i, fn in enumerate(defined):
            cf = CompiledFunction(i, fn)
            self.cfuncs.append(cf)
            self.func_index[fn.name] = i
        for cf in self.cfuncs:
            self._compiler.compile_function(cf)
        leaves = {id(cf.fn): cf for cf in self.cfuncs if _is_leaf(cf.fn)}
        for cf in self.cfuncs:
            self._compiler.compile_units(cf, leaves)

    def get_function_index(self, name: str) -> int:
        try:
            return self.func_index[name]
        except KeyError:
            raise KeyError(f"no defined function named {name}") from None

    def record_for(self, inst: Instruction) -> InstructionRecord:
        try:
            return self.records[id(inst)]
        except KeyError:
            raise KeyError(f"{inst!r} is not a compiled value-producing instruction") from None

    def injection_tables(
        self, inst: Instruction, mode: str = "once"
    ) -> Tuple[Tuple[int, int, Callable], List[Tuple[int, int, Callable]]]:
        """Compile (or fetch) every injection variant that holds ``inst``.

        Returns ``(block, lean)``: ``block`` is the ``(cfi, bi, fn)`` entry
        to swap into the per-block tables, ``lean`` the entries to swap, in
        order, into the lean tables — the injected block itself, the
        injected unit holding it, and every injected unit that inlines its
        leaf function.  ``mode`` picks the injection epilogue: ``"once"``
        (one firing through ``state.inj_corrupt`` at ``state.inj_occ``) or
        ``"multi"`` (multi-shot arming via ``state.inj_fire``)."""
        return self._compiler.injection_tables(self.record_for(inst), mode)

    def resume_block_fn(
        self,
        cfi: int,
        bi: int,
        call_k: int,
        inject_after: Optional[Instruction] = None,
        mode: str = "once",
    ) -> Callable:
        """Compile (or fetch) a warm-start *resume* variant of a block.

        The variant skips everything before the block's ``call_k``-th
        non-declaration call (0-based; blocks are straight-line, so the
        k-th dynamic call of a block instance is its k-th static call
        instruction), re-issues that call via ``state.resume_call()``, and
        runs the remainder normally.  No cycles are charged and no profile
        is bumped — the suspended block already paid at entry, before the
        ladder rung was captured.  ``inject_after`` re-arms the injection
        epilogue for instructions in the executed remainder (including the
        resumed call itself); an instruction of another block is ignored.
        """
        return self._compiler.compile_resume(
            self.cfuncs[cfi], bi, call_k, inject_after, mode
        )


def _is_leaf(fn: Function) -> bool:
    """A single-block function that returns and makes no calls or allocas:
    loop units inline calls to it."""
    if len(fn.blocks) != 1:
        return False
    insts = fn.blocks[0].instructions
    return isinstance(insts[-1], RetInst) and not any(
        isinstance(i, (CallInst, AllocaInst)) for i in insts
    )


def _topological_order(loop: Loop, index: Dict[int, int]) -> Optional[List[int]]:
    """Block indices of ``loop`` in topological order of its body with the
    back edges (edges to the header) removed; ``None`` if the body still
    has a cycle (irreducible control flow)."""
    header = loop.header
    indeg = {b: 0 for b in loop.blocks}
    for b in loop.blocks:
        for succ in b.successors():
            if succ in indeg and succ is not header:
                indeg[succ] += 1
    order: List[int] = []
    ready = [header]
    while ready:
        b = min(ready, key=lambda blk: index[id(blk)])
        ready.remove(b)
        order.append(index[id(b)])
        for succ in b.successors():
            if succ in indeg and succ is not header:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
    return order if len(order) == len(indeg) else None


_MEMORY_OPS = (LoadInst, StoreInst, AtomicRMWInst)


def _touches_memory(insts) -> bool:
    return any(isinstance(i, _MEMORY_OPS) for i in insts)


class _Compiler:
    """Generates and ``exec``-compiles Python source for blocks and units.

    Generated code names SSA values through a ``regs`` map (``id(value)``
    -> Python expression): ``f[slot]`` in block functions, a local
    ``r<slot>`` in loop units, a local ``l<cfi>_<slot>`` in inlined leaf
    bodies.  One set of emitters lowers instructions for all three; only
    the edge transfer (``goto``) differs: block functions ``return`` the
    successor index, units assign ``_n`` inside the loop and write back
    and ``return`` on loop exit.
    """

    def __init__(self, cm: CompiledModule):
        self.cm = cm
        self._slot_of: Dict[int, Dict[int, int]] = {}  # cfi -> id(value) -> slot
        self._frame_regs: Dict[int, Dict[int, str]] = {}  # cfi -> id(value) -> "f[s]"
        self._index_of: Dict[int, Dict[int, int]] = {}  # cfi -> id(block) -> index
        self._inject_cache: Dict[Tuple[int, int, str], Callable] = {}
        self._resume_cache: Dict[Tuple[int, int, int, int, str], Callable] = {}
        self._unit_cache: Dict[Tuple[int, int, int, str], Callable] = {}
        self._unit_of: Dict[Tuple[int, int], LoopUnit] = {}  # (cfi, bi) -> unit
        self._inliners: Dict[int, List[LoopUnit]] = {}  # leaf cfi -> units
        self._check_site: Dict[int, int] = {}  # id(check call) -> site id

    # -- slot assignment ---------------------------------------------------------

    def _assign_slots(self, cf: CompiledFunction) -> Dict[int, int]:
        slots: Dict[int, int] = {}
        n = 0
        for arg in cf.fn.args:
            slots[id(arg)] = n
            n += 1
        for block in cf.fn.blocks:
            for inst in block.instructions:
                if inst.produces_value():
                    slots[id(inst)] = n
                    n += 1
        cf.nslots = max(n, 1)
        return slots

    # -- expression rendering -------------------------------------------------------

    def _expr(self, value: Value, regs: Dict[int, str]) -> str:
        reg = regs.get(id(value))
        if reg is not None:
            return reg
        if isinstance(value, Constant):
            if value.type.is_float():
                v = value.value
                if math.isnan(v):
                    return "_NAN"
                if math.isinf(v):
                    return "_INF" if v > 0 else "(-_INF)"
                return repr(v)
            if value.type.is_integer() and value.type.bits == 1:  # type: ignore[attr-defined]
                return "True" if value.value else "False"
            return repr(value.value)
        if isinstance(value, UndefValue):
            if value.type.is_float():
                return "0.0"
            return "0"
        if isinstance(value, GlobalVariable):
            return repr(self.cm.global_addr[value.name])
        raise InterpreterBug(f"cannot render operand {value!r}")

    @staticmethod
    def _exec(lines: List[str], filename: str) -> Callable:
        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        exec(compile(source, filename, "exec"), EXEC_GLOBALS, namespace)
        return namespace["_block"]

    # -- function compilation ----------------------------------------------------------

    def compile_function(self, cf: CompiledFunction) -> None:
        slots = self._assign_slots(cf)
        self._slot_of[cf.index] = slots
        self._frame_regs[cf.index] = {vid: f"f[{s}]" for vid, s in slots.items()}
        self._index_of[cf.index] = {id(b): i for i, b in enumerate(cf.fn.blocks)}
        for i, block in enumerate(cf.fn.blocks):
            gid = self.cm.total_blocks
            self.cm.total_blocks += 1
            self.cm.block_gids[id(block)] = gid
            for inst in block.instructions:
                if inst.produces_value():
                    self.cm.records[id(inst)] = InstructionRecord(
                        inst, cf.index, i, gid, slots[id(inst)]
                    )
        for i, block in enumerate(cf.fn.blocks):
            source, fn = self._gen_block(cf, i, None)
            cb = CompiledBlock(
                i,
                self.cm.block_gids[id(block)],
                fn,
                self.cm.cost_model.block_cost(block),
                source,
                block,
            )
            cf.blocks.append(cb)
            cf.block_fns.append(fn)

    def compile_units(
        self, cf: CompiledFunction, leaves: Dict[int, CompiledFunction]
    ) -> None:
        """Build ``cf.lean_fns``: fuse every innermost natural loop into a
        unit.  Selection is structural: no profile, no size threshold."""
        cf.lean_fns = list(cf.block_fns)
        if len(cf.fn.blocks) < 2:
            return
        info = LoopInfo(cf.fn)
        headers = {loop.header for loop in info.loops}
        index = self._index_of[cf.index]
        for loop in info.loops:
            if any(b in headers for b in loop.blocks if b is not loop.header):
                continue  # an outer loop: only innermost loops become units
            order = _topological_order(loop, index)
            if order is None:
                continue
            unit = self._plan_unit(cf, loop, order, leaves)
            cf.lean_fns[order[0]] = self._gen_unit(cf, unit, None)
            self.cm.units.append(unit)
            for bi in order:
                self._unit_of[(cf.index, bi)] = unit
            for leaf in unit.leaves.values():
                self._inliners.setdefault(leaf.index, []).append(unit)

    def _plan_unit(
        self,
        cf: CompiledFunction,
        loop: Loop,
        order: List[int],
        leaves: Dict[int, CompiledFunction],
    ) -> LoopUnit:
        """Decide which frame slots a unit loads and writes back.

        Every value the unit touches lives in a local.  Values defined in
        the loop other than header phis are assigned before any use in the
        same unit invocation (SSA dominance), so only the rest — loop
        inputs and header phis — need loading; values with a use outside
        the loop are loaded too, so every exit can write them back.
        """
        unit = LoopUnit(cf.index, order)
        slots = self._slot_of[cf.index]
        members = loop.blocks
        defined: set = set()
        read: set = set()
        for b in members:
            for inst in b.instructions:
                if id(inst) in slots:
                    defined.add(slots[id(inst)])
                if isinstance(inst, PhiNode):
                    continue
                read.update(slots[id(v)] for v in inst.operands if id(v) in slots)
                if isinstance(inst, CallInst) and id(inst.callee) in leaves:
                    unit.leaves[id(inst.callee)] = leaves[id(inst.callee)]
            for succ in b.successors():
                for phi in succ.phis():
                    v = phi.incoming_for_block(b)
                    if id(v) in slots:
                        read.add(slots[id(v)])
        live_out: set = set()
        for b in cf.fn.blocks:
            if b in members:
                continue
            for inst in b.instructions:
                if isinstance(inst, PhiNode):
                    used = [v for v, pred in inst.incoming() if pred not in members]
                else:
                    used = inst.operands
                live_out.update(
                    slots[id(v)] for v in used if slots.get(id(v)) in defined
                )
        header_phis = {slots[id(p)] for p in loop.header.phis()}
        inner = defined - header_phis - live_out
        unit.loads = sorted((read | live_out) - inner)
        unit.stores = sorted(live_out)
        unit.cells = any(_touches_memory(b.instructions) for b in members) or any(
            _touches_memory(leaf.fn.blocks[0].instructions)
            for leaf in unit.leaves.values()
        )
        return unit

    # -- injection and resume variants ---------------------------------------------------

    def _unit_variant(self, unit: LoopUnit, inject_after: Instruction, mode: str) -> Callable:
        """The injected unit, or a stub compiling it on first entry: warm
        trials mostly dispatch per block and may never enter it."""
        key = (unit.cfi, unit.order[0], id(inject_after), mode)
        cached = self._unit_cache.get(key)
        if cached is not None:
            return cached

        def compile_on_entry(f, state):
            fn = self._unit_cache.get(key)
            if fn is None:
                fn = self._gen_unit(self.cm.cfuncs[unit.cfi], unit, inject_after, mode)
                self._unit_cache[key] = fn
            return fn(f, state)

        return compile_on_entry

    def injection_tables(
        self, record: InstructionRecord, mode: str
    ) -> Tuple[Tuple[int, int, Callable], List[Tuple[int, int, Callable]]]:
        """See :meth:`CompiledModule.injection_tables`."""
        cfi, bi, inst = record.cfi, record.block_index, record.inst
        key = (cfi, id(inst), mode)
        fn = self._inject_cache.get(key)
        if fn is None:
            _, fn = self._gen_block(self.cm.cfuncs[cfi], bi, inst, mode)
            self._inject_cache[key] = fn
        lean = [(cfi, bi, fn)]
        units = list(self._inliners.get(cfi, ()))
        unit = self._unit_of.get((cfi, bi))
        if unit is not None:
            units.insert(0, unit)
        for u in units:
            lean.append((u.cfi, u.order[0], self._unit_variant(u, inst, mode)))
        return (cfi, bi, fn), lean

    def compile_resume(
        self,
        cf: CompiledFunction,
        bi: int,
        call_k: int,
        inject_after: Optional[Instruction],
        mode: str = "once",
    ) -> Callable:
        """Generate the warm-start resume variant of one block.

        See :meth:`CompiledModule.resume_block_fn` for the contract.  The
        generated function has no cycle/budget/profile preamble: the
        suspended block instance was charged and profiled at its original
        entry, before the ladder rung was captured.
        """
        block = cf.fn.blocks[bi]
        if inject_after is not None and inject_after.parent is not block:
            inject_after = None
        key = (
            cf.index,
            bi,
            call_k,
            id(inject_after) if inject_after is not None else 0,
            mode,
        )
        cached = self._resume_cache.get(key)
        if cached is not None:
            return cached
        regs = self._frame_regs[cf.index]
        insts = [i for i in block.instructions if not isinstance(i, PhiNode)]
        seen = 0
        resume_at = None
        for idx, inst in enumerate(insts):
            if isinstance(inst, CallInst) and not inst.callee.is_declaration:
                if seen == call_k:
                    resume_at = idx
                    break
                seen += 1
        if resume_at is None:
            raise InterpreterBug(
                f"no pending call #{call_k} in {cf.name} block {block.name}"
            )
        pending = insts[resume_at]
        remainder = insts[resume_at + 1 :]
        lines: List[str] = ["def _block(f, state):"]
        emit = lines.append
        if _touches_memory(remainder):
            emit("    cells = state.cells")
        d = regs.get(id(pending))
        emit(f"    {d} = state.resume_call()" if d is not None else "    state.resume_call()")
        if pending is inject_after:
            self._gen_injection(pending, regs, emit, mode)
        self._gen_insts(remainder, regs, emit, self._returns(cf), inject_after, mode)
        fn = self._exec(lines, f"<resume {cf.name}.{block.name}+{call_k}>")
        self._resume_cache[key] = fn
        return fn

    # -- block and unit codegen -------------------------------------------------------------

    def _gen_preamble(self, block: BasicBlock, emit, budget: str) -> None:
        """Per-block cycle charge, budget check and profile bump (``_p``
        must hold ``state.prof``)."""
        cost = self.cm.cost_model.block_cost(block)
        emit(f"    state.cycles = _c = state.cycles + {cost}")
        emit(f"    if _c > {budget}: state.hang()")
        emit(f"    if _p is not None: _p[{self.cm.block_gids[id(block)]}] += 1")

    def _returns(self, cf: CompiledFunction):
        """Edge transfer of block functions: phi copies, then ``return``."""
        regs = self._frame_regs[cf.index]
        index = self._index_of[cf.index]

        def goto(pred: BasicBlock, succ: BasicBlock, emit, indent: str) -> None:
            self._gen_edge_copies(pred, succ, regs, emit, indent)
            emit(f"{indent}return {index[id(succ)]}")

        return goto

    def _gen_block(
        self,
        cf: CompiledFunction,
        bi: int,
        inject_after: Optional[Instruction],
        mode: str = "once",
    ) -> Tuple[str, Callable]:
        block = cf.fn.blocks[bi]
        lines: List[str] = ["def _block(f, state):", "    _p = state.prof"]
        emit = lines.append
        self._gen_preamble(block, emit, "state.budget")
        if _touches_memory(block.instructions):
            emit("    cells = state.cells")
        self._gen_insts(
            block.instructions, self._frame_regs[cf.index], emit,
            self._returns(cf), inject_after, mode,
        )
        fn = self._exec(lines, f"<block {cf.name}.{block.name}>")
        return "\n".join(lines) + "\n", fn

    def _gen_unit(
        self,
        cf: CompiledFunction,
        unit: LoopUnit,
        inject_after: Optional[Instruction],
        mode: str = "once",
    ) -> Callable:
        """Generate one loop unit.

        The header runs at the top of a ``while True``; every other block,
        in topological order, runs under ``if _n == <bi>:``.  Back edges set
        ``_n`` to the header and fall through to the next iteration.  Loop
        exits copy phis into the frame, write the live-out locals back and
        return the successor index, so the dispatch loop resumes in plain
        block functions.  ``state.budget``, ``state.prof`` and
        ``state.cells`` are hoisted: none changes during a run.
        """
        blocks = cf.fn.blocks
        frame = self._frame_regs[cf.index]
        index = self._index_of[cf.index]
        regs = {vid: f"r{s}" for vid, s in self._slot_of[cf.index].items()}
        members = set(unit.order)
        write_back = [f"f[{s}] = r{s}" for s in unit.stores]

        def goto(pred: BasicBlock, succ: BasicBlock, emit, indent: str) -> None:
            si = index[id(succ)]
            if si in members:
                self._gen_edge_copies(pred, succ, regs, emit, indent)
                emit(f"{indent}_n = {si}")
                return
            self._gen_edge_copies(pred, succ, regs, emit, indent, dst=frame)
            for line in write_back:
                emit(indent + line)
            emit(f"{indent}return {si}")

        lines: List[str] = [
            "def _block(f, state):",
            "    _B = state.budget",
            "    _p = state.prof",
        ]
        if unit.cells:
            lines.append("    cells = state.cells")
        lines.extend(f"    r{s} = f[{s}]" for s in unit.loads)
        lines.append("    while True:")
        for bi in unit.order:
            if bi == unit.order[0]:
                pad = "    "
            else:
                lines.append(f"        if _n == {bi}:")
                pad = "        "
            emit = lambda line, pad=pad: lines.append(pad + line)
            block = blocks[bi]
            self._gen_preamble(block, emit, "_B")
            self._gen_insts(
                block.instructions, regs, emit, goto, inject_after, mode, unit.leaves
            )
        head = blocks[unit.order[0]].name
        return self._exec(lines, f"<unit {cf.name}.{head}>")

    def _gen_inline(
        self,
        inst: CallInst,
        leaf: CompiledFunction,
        regs: Dict[int, str],
        emit,
        inject_after: Optional[Instruction],
        mode: str,
    ) -> None:
        """Inline a call to a leaf function: the callee's depth check,
        block preamble and body, with its values in ``l<cfi>_<slot>``
        locals and its arguments substituted by the caller's operands."""
        block = leaf.fn.blocks[0]
        lslots = self._slot_of[leaf.index]
        lregs = {
            id(arg): self._expr(v, regs) for arg, v in zip(leaf.fn.args, inst.operands)
        }
        for i in block.instructions:
            if id(i) in lslots:
                lregs[id(i)] = f"l{leaf.index}_{lslots[id(i)]}"
        emit(f"    if state.depth >= {MAX_CALL_DEPTH}: state.trap_depth()")
        self._gen_preamble(block, emit, "_B")
        self._gen_insts(block.instructions[:-1], lregs, emit, None, inject_after, mode)
        d = regs.get(id(inst))
        ret = block.instructions[-1].return_value
        if d is not None and ret is not None:
            emit(f"    {d} = {self._expr(ret, lregs)}")

    def _gen_insts(
        self,
        insts,
        regs: Dict[int, str],
        emit,
        goto,
        inject_after: Optional[Instruction],
        mode: str,
        leaves: Optional[Dict[int, CompiledFunction]] = None,
    ) -> None:
        for inst in insts:
            if isinstance(inst, PhiNode):
                continue  # materialised as edge copies in predecessors
            if inst.is_terminator():
                self._gen_terminator(inst, regs, emit, goto)
                continue
            leaf = None
            if leaves and isinstance(inst, CallInst):
                leaf = leaves.get(id(inst.callee))
            if leaf is not None:
                self._gen_inline(inst, leaf, regs, emit, inject_after, mode)
            else:
                self._gen_instruction(inst, regs, emit)
            if inst is inject_after:
                self._gen_injection(inst, regs, emit, mode)

    # -- injection epilogue -----------------------------------------------------------------

    def _gen_injection(
        self, inst: Instruction, regs: Dict[int, str], emit, mode: str = "once"
    ) -> None:
        r = regs[id(inst)]
        emit("    state.inj_seen = _k = state.inj_seen + 1")
        if mode == "multi":
            # Multi-shot arming (intermittent/persistent models): a
            # model-supplied predicate decides per execution.
            emit("    if state.inj_fire(_k):")
        else:
            # One firing at the armed occurrence; zeroing inj_occ disarms
            # it (recovery rollbacks must not replay the corruption).
            emit("    if _k == state.inj_occ:")
        emit(f"        {r} = state.inj_corrupt({r})")
        emit("        state.inj_hit = True")

    # -- per-instruction codegen ---------------------------------------------------------------

    def _gen_instruction(self, inst: Instruction, regs: Dict[int, str], emit) -> None:
        e = lambda v: self._expr(v, regs)
        if isinstance(inst, BinaryOperator):
            self._gen_binop(inst, regs, emit)
            return
        d = regs.get(id(inst))
        if isinstance(inst, ICmpInst):
            op = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}[
                inst.predicate
            ]
            emit(f"    {d} = {e(inst.operands[0])} {op} {e(inst.operands[1])}")
            return
        if isinstance(inst, FCmpInst):
            a, b = e(inst.operands[0]), e(inst.operands[1])
            if inst.predicate == "one":
                # ordered != : false when either side is NaN
                emit(f"    _a = {a}; _b = {b}")
                emit(f"    {d} = _a == _a and _b == _b and _a != _b")
            else:
                op = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}[
                    inst.predicate
                ]
                emit(f"    {d} = {a} {op} {b}")
            return
        if isinstance(inst, SelectInst):
            c, t, f_ = (e(o) for o in inst.operands)
            emit(f"    {d} = {t} if {c} else {f_}")
            return
        if isinstance(inst, CastInst):
            self._gen_cast(inst, regs, emit)
            return
        if isinstance(inst, GEPInst):
            emit(f"    {d} = {e(inst.base)} + {e(inst.index)}")
            return
        if isinstance(inst, AllocaInst):
            emit(f"    {d} = state.alloc({inst.cell_count})")
            return
        if isinstance(inst, LoadInst):
            a = e(inst.pointer)
            emit(f"    _a = {a}")
            emit("    if _a < 0: state.trap_mem(_a)")
            emit("    try: _v = cells[_a]")
            emit("    except IndexError: state.trap_mem(_a)")
            emit("    if _v is None: state.trap_mem(_a)")
            emit(f"    {d} = _v")
            return
        if isinstance(inst, StoreInst):
            emit(f"    _a = {e(inst.pointer)}")
            emit("    if _a < 0: state.trap_mem(_a)")
            emit("    try: _old = cells[_a]")
            emit("    except IndexError: state.trap_mem(_a)")
            emit("    if _old is None: state.trap_mem(_a)")
            emit(f"    cells[_a] = {e(inst.value)}")
            return
        if isinstance(inst, AtomicRMWInst):
            emit(f"    _a = {e(inst.pointer)}")
            emit("    if _a < 0: state.trap_mem(_a)")
            emit("    try: _old = cells[_a]")
            emit("    except IndexError: state.trap_mem(_a)")
            emit("    if _old is None: state.trap_mem(_a)")
            emit(f"    cells[_a] = _old + {e(inst.value)}")
            emit(f"    {d} = _old")
            return
        if isinstance(inst, CallInst):
            self._gen_call(inst, regs, emit)
            return
        raise InterpreterBug(f"no codegen for {inst!r}")

    def _gen_binop(self, inst: BinaryOperator, regs: Dict[int, str], emit) -> None:
        e = lambda v: self._expr(v, regs)
        d = regs[id(inst)]
        a, b = e(inst.lhs), e(inst.rhs)
        op = inst.opcode
        if op in ("fadd", "fsub", "fmul"):
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            emit(f"    {d} = {a} {sym} {b}")
            return
        if op == "fdiv":
            emit(f"    _b = {b}")
            emit(f"    if _b != 0.0: {d} = {a} / _b")
            emit(f"    else:")
            emit(f"        _a = {a}")
            emit(f"        {d} = _INF if _a > 0 else (-_INF if _a < 0 else _NAN)")
            return
        if op == "frem":
            emit(f"    _b = {b}")
            emit(f"    {d} = _fmod({a}, _b) if _b != 0.0 else _NAN")
            return
        bits = inst.type.bits  # type: ignore[attr-defined]
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
        span = 1 << bits
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            emit(f"    _r = {a} {sym} {b}")
            emit(f"    if _r > {hi} or _r < {lo}: _r = ((_r - {lo}) % {span}) + {lo}")
            emit(f"    {d} = _r")
            return
        if op in ("sdiv", "srem"):
            emit(f"    _a = {a}; _b = {b}")
            emit("    if _b == 0: state.trap_div()")
            emit("    _q = abs(_a) // abs(_b)")
            emit("    if (_a < 0) != (_b < 0): _q = -_q")
            if op == "sdiv":
                emit(f"    if _q > {hi} or _q < {lo}: _q = ((_q - {lo}) % {span}) + {lo}")
                emit(f"    {d} = _q")
            else:
                emit(f"    {d} = _a - _q * _b")
            return
        if op in ("and", "or", "xor"):
            sym = {"and": "&", "or": "|", "xor": "^"}[op]
            emit(f"    {d} = {a} {sym} {b}")
            return
        if op == "shl":
            emit(f"    _r = {a} << ({b} & {bits - 1})")
            emit(f"    if _r > {hi} or _r < {lo}: _r = ((_r - {lo}) % {span}) + {lo}")
            emit(f"    {d} = _r")
            return
        if op == "lshr":
            emit(f"    _r = ({a} & {span - 1}) >> ({b} & {bits - 1})")
            emit(f"    if _r > {hi}: _r -= {span}")
            emit(f"    {d} = _r")
            return
        if op == "ashr":
            emit(f"    {d} = {a} >> ({b} & {bits - 1})")
            return
        raise InterpreterBug(f"no codegen for binop {op}")

    def _gen_cast(self, inst: CastInst, regs: Dict[int, str], emit) -> None:
        e = lambda v: self._expr(v, regs)
        d = regs[id(inst)]
        a = e(inst.value)
        op = inst.opcode
        if op == "sitofp":
            emit(f"    {d} = float({a})")
            return
        if op == "fptosi":
            bits = inst.type.bits  # type: ignore[attr-defined]
            lo = -(1 << (bits - 1))
            hi = (1 << (bits - 1)) - 1
            emit(f"    _a = {a}")
            emit(f"    if _a != _a or _a > {float(hi)} or _a < {float(lo)}: state.trap_fptosi()")
            emit(f"    {d} = int(_a)")
            return
        src_bits = inst.value.type.bits  # type: ignore[attr-defined]
        if op == "zext":
            if src_bits == 1:
                emit(f"    {d} = 1 if {a} else 0")
            else:
                emit(f"    {d} = {a} & {(1 << src_bits) - 1}")
            return
        if op == "sext":
            if src_bits == 1:
                emit(f"    {d} = -1 if {a} else 0")
            else:
                emit(f"    {d} = {a}")
            return
        if op == "trunc":
            dst_bits = inst.type.bits  # type: ignore[attr-defined]
            if dst_bits == 1:
                emit(f"    {d} = bool({a} & 1)")
            else:
                lo = -(1 << (dst_bits - 1))
                span = 1 << dst_bits
                emit(f"    _r = {a} & {span - 1}")
                emit(f"    if _r > {-lo - 1}: _r -= {span}")
                emit(f"    {d} = _r")
            return
        if op == "bitcast":
            if inst.type.is_float() and inst.value.type.is_integer():
                emit(f"    {d} = _i2f({a})")
            elif inst.type.is_integer() and inst.value.type.is_float():
                emit(f"    {d} = _f2i({a})")
            else:
                emit(f"    {d} = {a}")
            return
        raise InterpreterBug(f"no codegen for cast {op}")

    def _gen_call(self, inst: CallInst, regs: Dict[int, str], emit) -> None:
        e = lambda v: self._expr(v, regs)
        d = regs.get(id(inst))
        callee = inst.callee
        args = [e(a) for a in inst.operands]
        if not callee.is_declaration:
            cfi = self.cm.get_function_index(callee.name)
            arg_tuple = "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
            if d is not None:
                emit(f"    {d} = state.call({cfi}, {arg_tuple})")
            else:
                emit(f"    state.call({cfi}, {arg_tuple})")
            return
        name = callee.name
        if name.startswith("ipas.check"):
            site = self._check_site.get(id(inst))
            if site is None:
                # One site per check call, however many variants emit it.
                site = self._check_site[id(inst)] = len(self.cm.check_sites)
                fn = inst.function
                block = inst.parent
                checked = inst.operands[0]
                self.cm.check_sites.append(
                    (
                        fn.name if fn is not None else "?",
                        block.name if block is not None else "?",
                        name,
                        getattr(checked, "name", "") or "<unnamed>",
                    )
                )
            emit(f"    _x = {args[0]}; _y = {args[1]}")
            emit(
                "    if _x != _y and not (_x != _x and _y != _y): "
                f"state.check_failed({site})"
            )
            return
        math_fn = _MATH_INTRINSICS.get(name)
        if math_fn is not None:
            emit(f"    {d} = {math_fn}({', '.join(args)})")
            return
        if name == "print_f64" or name == "print_i64":
            emit(f"    state.io_print({args[0]})")
            return
        if name.startswith("mpi_"):
            call = f"state.{name}({', '.join(args)})"
            if d is not None:
                emit(f"    {d} = {call}")
            else:
                emit(f"    {call}")
            return
        raise InterpreterBug(f"no runtime binding for intrinsic {name}")

    # -- terminators --------------------------------------------------------------------------

    def _gen_terminator(self, inst: Instruction, regs: Dict[int, str], emit, goto) -> None:
        e = lambda v: self._expr(v, regs)
        block = inst.parent
        if isinstance(inst, RetInst):
            if inst.return_value is not None:
                emit(f"    state.ret = {e(inst.return_value)}")
            else:
                emit("    state.ret = None")
            emit("    return -1")
            return
        if isinstance(inst, UnreachableInst):
            emit("    state.trap_unreachable()")
            emit("    return -1")
            return
        if isinstance(inst, BranchInst):
            if not inst.is_conditional:
                goto(block, inst.targets[0], emit, "    ")
                return
            cond = inst.condition
            assert cond is not None
            then_b, else_b = inst.targets
            emit(f"    if {e(cond)}:")
            goto(block, then_b, emit, "        ")
            emit("    else:")
            goto(block, else_b, emit, "        ")
            return
        raise InterpreterBug(f"no codegen for terminator {inst!r}")

    def _gen_edge_copies(
        self,
        pred: BasicBlock,
        succ: BasicBlock,
        regs: Dict[int, str],
        emit,
        indent: str,
        dst: Optional[Dict[int, str]] = None,
    ) -> None:
        """Parallel phi copies on the edge pred -> succ; ``dst`` renders the
        phi destinations when they differ from ``regs`` (a unit's exits)."""
        dst = regs if dst is None else dst
        copies: List[Tuple[str, str]] = []
        for phi in succ.phis():
            value = phi.incoming_for_block(pred)
            copies.append((dst[id(phi)], self._expr(value, regs)))
        if not copies:
            return
        if len(copies) == 1:
            d, src = copies[0]
            emit(f"{indent}{d} = {src}")
            return
        # Read all sources before writing any destination (parallel copy).
        temps = ", ".join(f"_t{i}" for i in range(len(copies)))
        sources = ", ".join(src for _, src in copies)
        emit(f"{indent}{temps} = {sources}")
        for i, (d, _) in enumerate(copies):
            emit(f"{indent}{d} = _t{i}")


#: intrinsic name -> name of the guarded runtime helper in EXEC_GLOBALS
_MATH_INTRINSICS = {
    "sqrt": "_sqrt",
    "fabs": "_fabs",
    "sin": "_sin",
    "cos": "_cos",
    "exp": "_exp",
    "log": "_log",
    "pow": "_pow",
    "floor": "_floor",
    "fmin": "_fmin",
    "fmax": "_fmax",
}
