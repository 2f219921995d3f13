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

Fault injection works by swapping in an alternative compiled version of the
*target block only*; every other block runs at full speed.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Tuple

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
from .runtime import EXEC_GLOBALS


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
    """One function: frame size plus compiled blocks."""

    __slots__ = ("index", "name", "fn", "nslots", "nargs", "blocks", "block_fns")

    def __init__(self, index: int, fn: Function):
        self.index = index
        self.name = fn.name
        self.fn = fn
        self.nslots = 0
        self.nargs = len(fn.args)
        self.blocks: List[CompiledBlock] = []
        self.block_fns: List[Callable] = []


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

    def injected_block_fn(
        self, inst: Instruction, mode: str = "once"
    ) -> Tuple[int, int, Callable]:
        """Compile (or fetch) the injection variant of the block holding
        ``inst``.  Returns (cfi, block_index, block_fn).  ``mode`` picks
        the injection epilogue: ``"once"`` (one firing through
        ``state.inj_corrupt`` at ``state.inj_occ``) or ``"multi"``
        (multi-shot arming via ``state.inj_fire``)."""
        record = self.record_for(inst)
        cf = self.cfuncs[record.cfi]
        fn = self._compiler.compile_block(
            cf, record.block_index, inject_after=inst, mode=mode
        )
        return record.cfi, record.block_index, fn

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
        resumed call itself).
        """
        return self._compiler.compile_resume(
            self.cfuncs[cfi], bi, call_k, inject_after, mode
        )


class _Compiler:
    """Generates and ``exec``-compiles Python source for basic blocks."""

    def __init__(self, cm: CompiledModule):
        self.cm = cm
        self._slot_of: Dict[int, Dict[int, int]] = {}  # cfi -> id(value) -> slot
        self._inject_cache: Dict[Tuple[int, int, str], Callable] = {}
        self._resume_cache: Dict[Tuple[int, int, int, int, str], Callable] = {}

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

    def _expr(self, value: Value, slots: Dict[int, int]) -> str:
        slot = slots.get(id(value))
        if slot is not None:
            return f"f[{slot}]"
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

    # -- function compilation ----------------------------------------------------------

    def compile_function(self, cf: CompiledFunction) -> None:
        slots = self._assign_slots(cf)
        self._slot_of[cf.index] = slots
        block_index = {id(b): i for i, b in enumerate(cf.fn.blocks)}
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
            source, fn = self._gen_block(cf, i, slots, block_index, None)
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

    def compile_block(
        self,
        cf: CompiledFunction,
        block_index_local: int,
        inject_after: Instruction,
        mode: str = "once",
    ) -> Callable:
        key = (cf.index, id(inject_after), mode)
        cached = self._inject_cache.get(key)
        if cached is not None:
            return cached
        slots = self._slot_of[cf.index]
        block_index = {id(b): i for i, b in enumerate(cf.fn.blocks)}
        _, fn = self._gen_block(
            cf, block_index_local, slots, block_index, inject_after, mode
        )
        self._inject_cache[key] = fn
        return fn

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
        slots = self._slot_of[cf.index]
        block_index = {id(b): i for i, b in enumerate(cf.fn.blocks)}
        block = cf.fn.blocks[bi]
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
        lines: List[str] = []
        emit = lines.append
        emit("def _block(f, state):")
        if any(
            isinstance(i, (LoadInst, StoreInst, AtomicRMWInst)) for i in remainder
        ):
            emit("    cells = state.cells")
        d = slots.get(id(pending))
        if d is not None:
            emit(f"    f[{d}] = state.resume_call()")
        else:
            emit("    state.resume_call()")
        if pending is inject_after:
            self._gen_injection(pending, slots, emit, mode)
        for inst in remainder:
            if inst.is_terminator():
                self._gen_terminator(inst, cf, slots, block_index, emit)
            else:
                self._gen_instruction(inst, slots, emit)
                if inst is inject_after:
                    self._gen_injection(inst, slots, emit, mode)
        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        code = compile(
            source, f"<resume {cf.name}.{block.name}+{call_k}>", "exec"
        )
        exec(code, EXEC_GLOBALS, namespace)
        fn = namespace["_block"]
        self._resume_cache[key] = fn
        return fn

    # -- block codegen --------------------------------------------------------------------

    def _gen_block(
        self,
        cf: CompiledFunction,
        bi: int,
        slots: Dict[int, int],
        block_index: Dict[int, int],
        inject_after: Optional[Instruction],
        mode: str = "once",
    ) -> Tuple[str, Callable]:
        block = cf.fn.blocks[bi]
        gid = self.cm.block_gids[id(block)]
        cost = self.cm.cost_model.block_cost(block)
        lines: List[str] = []
        emit = lines.append

        emit(f"def _block(f, state):")
        emit(f"    state.cycles = _c = state.cycles + {cost}")
        emit(f"    if _c > state.budget: state.hang()")
        emit(f"    _p = state.prof")
        emit(f"    if _p is not None: _p[{gid}] += 1")
        needs_cells = any(
            isinstance(i, (LoadInst, StoreInst, AtomicRMWInst)) for i in block.instructions
        )
        if needs_cells:
            emit("    cells = state.cells")

        for inst in block.instructions:
            if isinstance(inst, PhiNode):
                continue  # materialised as edge copies in predecessors
            if inst.is_terminator():
                self._gen_terminator(inst, cf, slots, block_index, emit)
            else:
                self._gen_instruction(inst, slots, emit)
                if inst is inject_after:
                    self._gen_injection(inst, slots, emit, mode)
        source = "\n".join(lines) + "\n"
        namespace: Dict[str, object] = {}
        code = compile(source, f"<block {cf.name}.{block.name}>", "exec")
        exec(code, EXEC_GLOBALS, namespace)
        return source, namespace["_block"]

    # -- injection epilogue -----------------------------------------------------------------

    def _gen_injection(
        self, inst: Instruction, slots: Dict[int, int], emit, mode: str = "once"
    ) -> None:
        slot = slots[id(inst)]
        emit("    state.inj_seen = _k = state.inj_seen + 1")
        if mode == "multi":
            # Multi-shot arming (intermittent/persistent models): a
            # model-supplied predicate decides per execution.
            emit("    if state.inj_fire(_k):")
        else:
            # One firing at the armed occurrence; zeroing inj_occ disarms
            # it (recovery rollbacks must not replay the corruption).
            emit("    if _k == state.inj_occ:")
        emit(f"        f[{slot}] = state.inj_corrupt(f[{slot}])")
        emit("        state.inj_hit = True")

    # -- per-instruction codegen ---------------------------------------------------------------

    def _gen_instruction(self, inst: Instruction, slots: Dict[int, int], emit) -> None:
        e = lambda v: self._expr(v, slots)
        if isinstance(inst, BinaryOperator):
            self._gen_binop(inst, slots, emit)
            return
        d = slots.get(id(inst))
        if isinstance(inst, ICmpInst):
            op = {"eq": "==", "ne": "!=", "slt": "<", "sle": "<=", "sgt": ">", "sge": ">="}[
                inst.predicate
            ]
            emit(f"    f[{d}] = {e(inst.operands[0])} {op} {e(inst.operands[1])}")
            return
        if isinstance(inst, FCmpInst):
            a, b = e(inst.operands[0]), e(inst.operands[1])
            if inst.predicate == "one":
                # ordered != : false when either side is NaN
                emit(f"    _a = {a}; _b = {b}")
                emit(f"    f[{d}] = _a == _a and _b == _b and _a != _b")
            else:
                op = {"oeq": "==", "olt": "<", "ole": "<=", "ogt": ">", "oge": ">="}[
                    inst.predicate
                ]
                emit(f"    f[{d}] = {a} {op} {b}")
            return
        if isinstance(inst, SelectInst):
            c, t, f_ = (e(o) for o in inst.operands)
            emit(f"    f[{d}] = {t} if {c} else {f_}")
            return
        if isinstance(inst, CastInst):
            self._gen_cast(inst, slots, emit)
            return
        if isinstance(inst, GEPInst):
            emit(f"    f[{d}] = {e(inst.base)} + {e(inst.index)}")
            return
        if isinstance(inst, AllocaInst):
            emit(f"    f[{d}] = state.alloc({inst.cell_count})")
            return
        if isinstance(inst, LoadInst):
            a = e(inst.pointer)
            emit(f"    _a = {a}")
            emit("    if _a < 0: state.trap_mem(_a)")
            emit("    try: _v = cells[_a]")
            emit("    except IndexError: state.trap_mem(_a)")
            emit("    if _v is None: state.trap_mem(_a)")
            emit(f"    f[{d}] = _v")
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
            emit(f"    f[{d}] = _old")
            return
        if isinstance(inst, CallInst):
            self._gen_call(inst, slots, emit)
            return
        raise InterpreterBug(f"no codegen for {inst!r}")

    def _gen_binop(self, inst: BinaryOperator, slots: Dict[int, int], emit) -> None:
        e = lambda v: self._expr(v, slots)
        d = slots[id(inst)]
        a, b = e(inst.lhs), e(inst.rhs)
        op = inst.opcode
        if op in ("fadd", "fsub", "fmul"):
            sym = {"fadd": "+", "fsub": "-", "fmul": "*"}[op]
            emit(f"    f[{d}] = {a} {sym} {b}")
            return
        if op == "fdiv":
            emit(f"    _b = {b}")
            emit(f"    if _b != 0.0: f[{d}] = {a} / _b")
            emit(f"    else:")
            emit(f"        _a = {a}")
            emit(f"        f[{d}] = _INF if _a > 0 else (-_INF if _a < 0 else _NAN)")
            return
        if op == "frem":
            emit(f"    _b = {b}")
            emit(f"    f[{d}] = _fmod({a}, _b) if _b != 0.0 else _NAN")
            return
        bits = inst.type.bits  # type: ignore[attr-defined]
        lo = -(1 << (bits - 1))
        hi = (1 << (bits - 1)) - 1
        span = 1 << bits
        if op in ("add", "sub", "mul"):
            sym = {"add": "+", "sub": "-", "mul": "*"}[op]
            emit(f"    _r = {a} {sym} {b}")
            emit(f"    if _r > {hi} or _r < {lo}: _r = ((_r - {lo}) % {span}) + {lo}")
            emit(f"    f[{d}] = _r")
            return
        if op in ("sdiv", "srem"):
            emit(f"    _a = {a}; _b = {b}")
            emit("    if _b == 0: state.trap_div()")
            emit("    _q = abs(_a) // abs(_b)")
            emit("    if (_a < 0) != (_b < 0): _q = -_q")
            if op == "sdiv":
                emit(f"    if _q > {hi} or _q < {lo}: _q = ((_q - {lo}) % {span}) + {lo}")
                emit(f"    f[{d}] = _q")
            else:
                emit(f"    f[{d}] = _a - _q * _b")
            return
        if op in ("and", "or", "xor"):
            sym = {"and": "&", "or": "|", "xor": "^"}[op]
            emit(f"    f[{d}] = {a} {sym} {b}")
            return
        if op == "shl":
            emit(f"    _r = {a} << ({b} & {bits - 1})")
            emit(f"    if _r > {hi} or _r < {lo}: _r = ((_r - {lo}) % {span}) + {lo}")
            emit(f"    f[{d}] = _r")
            return
        if op == "lshr":
            emit(f"    _r = ({a} & {span - 1}) >> ({b} & {bits - 1})")
            emit(f"    if _r > {hi}: _r -= {span}")
            emit(f"    f[{d}] = _r")
            return
        if op == "ashr":
            emit(f"    f[{d}] = {a} >> ({b} & {bits - 1})")
            return
        raise InterpreterBug(f"no codegen for binop {op}")

    def _gen_cast(self, inst: CastInst, slots: Dict[int, int], emit) -> None:
        e = lambda v: self._expr(v, slots)
        d = slots[id(inst)]
        a = e(inst.value)
        op = inst.opcode
        if op == "sitofp":
            emit(f"    f[{d}] = float({a})")
            return
        if op == "fptosi":
            bits = inst.type.bits  # type: ignore[attr-defined]
            lo = -(1 << (bits - 1))
            hi = (1 << (bits - 1)) - 1
            emit(f"    _a = {a}")
            emit(f"    if _a != _a or _a > {float(hi)} or _a < {float(lo)}: state.trap_fptosi()")
            emit(f"    f[{d}] = int(_a)")
            return
        src_bits = inst.value.type.bits  # type: ignore[attr-defined]
        if op == "zext":
            if src_bits == 1:
                emit(f"    f[{d}] = 1 if {a} else 0")
            else:
                emit(f"    f[{d}] = {a} & {(1 << src_bits) - 1}")
            return
        if op == "sext":
            if src_bits == 1:
                emit(f"    f[{d}] = -1 if {a} else 0")
            else:
                emit(f"    f[{d}] = {a}")
            return
        if op == "trunc":
            dst_bits = inst.type.bits  # type: ignore[attr-defined]
            if dst_bits == 1:
                emit(f"    f[{d}] = bool({a} & 1)")
            else:
                lo = -(1 << (dst_bits - 1))
                span = 1 << dst_bits
                emit(f"    _r = {a} & {span - 1}")
                emit(f"    if _r > {-lo - 1}: _r -= {span}")
                emit(f"    f[{d}] = _r")
            return
        if op == "bitcast":
            if inst.type.is_float() and inst.value.type.is_integer():
                emit(f"    f[{d}] = _i2f({a})")
            elif inst.type.is_integer() and inst.value.type.is_float():
                emit(f"    f[{d}] = _f2i({a})")
            else:
                emit(f"    f[{d}] = {a}")
            return
        raise InterpreterBug(f"no codegen for cast {op}")

    def _gen_call(self, inst: CallInst, slots: Dict[int, int], emit) -> None:
        e = lambda v: self._expr(v, slots)
        d = slots.get(id(inst))
        callee = inst.callee
        args = [e(a) for a in inst.operands]
        if not callee.is_declaration:
            cfi = self.cm.get_function_index(callee.name)
            arg_tuple = "(" + ", ".join(args) + ("," if len(args) == 1 else "") + ")"
            if d is not None:
                emit(f"    f[{d}] = state.call({cfi}, {arg_tuple})")
            else:
                emit(f"    state.call({cfi}, {arg_tuple})")
            return
        name = callee.name
        if name.startswith("ipas.check"):
            site = len(self.cm.check_sites)
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
            emit(f"    f[{d}] = {math_fn}({', '.join(args)})")
            return
        if name == "print_f64" or name == "print_i64":
            emit(f"    state.io_print({args[0]})")
            return
        if name.startswith("mpi_"):
            call = f"state.{name}({', '.join(args)})"
            if d is not None:
                emit(f"    f[{d}] = {call}")
            else:
                emit(f"    {call}")
            return
        raise InterpreterBug(f"no runtime binding for intrinsic {name}")

    # -- terminators --------------------------------------------------------------------------

    def _gen_terminator(
        self,
        inst: Instruction,
        cf: CompiledFunction,
        slots: Dict[int, int],
        block_index: Dict[int, int],
        emit,
    ) -> None:
        e = lambda v: self._expr(v, slots)
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
                target = inst.targets[0]
                self._gen_edge_copies(block, target, slots, emit, indent="    ")
                emit(f"    return {block_index[id(target)]}")
                return
            cond = inst.condition
            assert cond is not None
            then_b, else_b = inst.targets
            emit(f"    if {e(cond)}:")
            self._gen_edge_copies(block, then_b, slots, emit, indent="        ")
            emit(f"        return {block_index[id(then_b)]}")
            self._gen_edge_copies(block, else_b, slots, emit, indent="    ")
            emit(f"    return {block_index[id(else_b)]}")
            return
        raise InterpreterBug(f"no codegen for terminator {inst!r}")

    def _gen_edge_copies(
        self, pred: BasicBlock, succ: BasicBlock, slots: Dict[int, int], emit, indent: str
    ) -> None:
        """Parallel phi copies on the edge pred -> succ."""
        copies: List[Tuple[int, str]] = []
        for phi in succ.phis():
            value = phi.incoming_for_block(pred)
            copies.append((slots[id(phi)], self._expr(value, slots)))
        if not copies:
            return
        if len(copies) == 1:
            dst, src = copies[0]
            emit(f"{indent}f[{dst}] = {src}")
            return
        # Read all sources before writing any destination (parallel copy).
        temps = ", ".join(f"_t{i}" for i in range(len(copies)))
        sources = ", ".join(src for _, src in copies)
        emit(f"{indent}{temps} = {sources}")
        for i, (dst, _) in enumerate(copies):
            emit(f"{indent}f[{dst}] = _t{i}")


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
