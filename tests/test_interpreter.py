"""Tests for the compiled IR interpreter: semantics, traps, profiling,
cycle accounting, and single-bit fault injection."""

import math

import pytest

from repro.ir import (
    ArrayType,
    F64,
    I1,
    I32,
    I64,
    IRBuilder,
    Module,
    VOID,
    const_bool,
    const_float,
    const_int,
    declare_intrinsic,
    verify_module,
)
from repro.faults import FaultSite
from repro.interp import CostModel, Interpreter, RunResult, run_module


def build_module(builder_fn, name="t"):
    m = Module(name)
    builder_fn(m)
    verify_module(m)
    return m


def run_main(builder_fn, **kwargs):
    m = build_module(builder_fn)
    result, interp = run_module(m, **kwargs)
    return result, interp


class TestArithmetic:
    def make_binop_main(self, m, opcode, a, b, type_=I64):
        fn = m.add_function("main", type_, [])
        bld = IRBuilder(fn.add_block("entry"))
        ca = const_int(a, type_) if type_.is_integer() else const_float(a)
        cb = const_int(b, type_) if type_.is_integer() else const_float(b)
        # Route one operand through an identity call so constant folding
        # concerns never apply: interpreter executes the op dynamically.
        v = bld.binop(opcode, ca, cb)
        bld.ret(v)

    @pytest.mark.parametrize(
        "opcode,a,b,expected",
        [
            ("add", 7, 5, 12),
            ("sub", 7, 9, -2),
            ("mul", -3, 4, -12),
            ("sdiv", 7, 2, 3),
            ("sdiv", -7, 2, -3),
            ("srem", 7, 3, 1),
            ("srem", -7, 3, -1),
            ("and", 12, 10, 8),
            ("or", 12, 10, 14),
            ("xor", 12, 10, 6),
            ("shl", 3, 4, 48),
            ("lshr", -1, 60, 15),
            ("ashr", -16, 2, -4),
        ],
    )
    def test_int_ops(self, opcode, a, b, expected):
        result, _ = run_main(lambda m: self.make_binop_main(m, opcode, a, b))
        assert result.status == "ok"
        assert result.value == expected

    def test_add_wraps_at_64_bits(self):
        result, _ = run_main(
            lambda m: self.make_binop_main(m, "add", 2**63 - 1, 1)
        )
        assert result.value == -(2**63)

    def test_mul_wraps(self):
        result, _ = run_main(lambda m: self.make_binop_main(m, "mul", 2**62, 4))
        assert result.value == 0

    def test_i32_wraps_at_32_bits(self):
        result, _ = run_main(
            lambda m: self.make_binop_main(m, "add", 2**31 - 1, 1, I32)
        )
        assert result.value == -(2**31)

    @pytest.mark.parametrize(
        "opcode,a,b,expected",
        [
            ("fadd", 1.5, 2.25, 3.75),
            ("fsub", 1.0, 0.75, 0.25),
            ("fmul", 3.0, -2.0, -6.0),
            ("fdiv", 1.0, 8.0, 0.125),
        ],
    )
    def test_float_ops(self, opcode, a, b, expected):
        result, _ = run_main(lambda m: self.make_binop_main(m, opcode, a, b, F64))
        assert result.value == expected

    def test_fdiv_by_zero_gives_inf_not_trap(self):
        result, _ = run_main(lambda m: self.make_binop_main(m, "fdiv", 1.0, 0.0, F64))
        assert result.status == "ok"
        assert result.value == math.inf

    def test_sdiv_by_zero_traps(self):
        result, _ = run_main(lambda m: self.make_binop_main(m, "sdiv", 1, 0))
        assert result.status == "trap"
        assert "division" in result.error

    def test_srem_by_zero_traps(self):
        result, _ = run_main(lambda m: self.make_binop_main(m, "srem", 1, 0))
        assert result.status == "trap"


class TestComparisonsAndSelect:
    def test_icmp_and_select(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            c = b.icmp("sgt", const_int(5), const_int(3))
            v = b.select(c, const_int(111), const_int(222))
            b.ret(v)

        result, _ = run_main(build)
        assert result.value == 111

    def test_fcmp_nan_is_unordered(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            nan = b.fdiv(const_float(0.0), const_float(0.0))
            c = b.fcmp("oeq", nan, nan)
            v = b.select(c, const_int(1), const_int(0))
            b.ret(v)

        result, _ = run_main(build)
        assert result.value == 0

    def test_fcmp_one_false_on_nan(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            nan = b.fdiv(const_float(0.0), const_float(0.0))
            c = b.fcmp("one", nan, const_float(1.0))
            v = b.select(c, const_int(1), const_int(0))
            b.ret(v)

        result, _ = run_main(build)
        assert result.value == 0


class TestCasts:
    def test_sitofp_fptosi_roundtrip(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            f = b.sitofp(const_int(-42))
            half = b.fmul(f, const_float(0.5))
            i = b.fptosi(half)
            b.ret(i)

        result, _ = run_main(build)
        assert result.value == -21  # C truncation toward zero

    def test_fptosi_of_nan_traps(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            nan = b.fdiv(const_float(0.0), const_float(0.0))
            i = b.fptosi(nan)
            b.ret(i)

        result, _ = run_main(build)
        assert result.status == "trap"

    def test_zext_i1(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            c = b.icmp("eq", const_int(1), const_int(1))
            v = b.zext(c, I64)
            b.ret(v)

        result, _ = run_main(build)
        assert result.value == 1

    def test_trunc_then_sext(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            t = b.trunc(const_int(0x1FF), I32)
            v = b.sext(t, I64)
            b.ret(v)

        result, _ = run_main(build)
        assert result.value == 0x1FF

    def test_bitcast_i64_f64_roundtrip(self):
        def build(m):
            fn = m.add_function("main", F64, [])
            b = IRBuilder(fn.add_block("entry"))
            i = b.cast("bitcast", const_float(2.5), I64)
            f = b.cast("bitcast", i, F64)
            b.ret(f)

        result, _ = run_main(build)
        assert result.value == 2.5


class TestControlFlowAndLoops:
    def test_loop_sum(self):
        """sum(0..n-1) with an SSA loop."""

        def build(m):
            fn = m.add_function("main", I64, [])
            entry = fn.add_block("entry")
            header = fn.add_block("header")
            body = fn.add_block("body")
            exit_ = fn.add_block("exit")
            IRBuilder(entry).br(header)
            bh = IRBuilder(header)
            i = bh.phi(I64, "i")
            acc = bh.phi(I64, "acc")
            cond = bh.icmp("slt", i, const_int(10))
            bh.cond_br(cond, body, exit_)
            bb = IRBuilder(body)
            acc2 = bb.add(acc, i)
            i2 = bb.add(i, const_int(1))
            bb.br(header)
            i.add_incoming(const_int(0), entry)
            i.add_incoming(i2, body)
            acc.add_incoming(const_int(0), entry)
            acc.add_incoming(acc2, body)
            IRBuilder(exit_).ret(acc)

        result, _ = run_main(build)
        assert result.value == 45

    def test_phi_parallel_swap(self):
        """Two phis that swap values each iteration (parallel-copy check)."""

        def build(m):
            fn = m.add_function("main", I64, [])
            entry = fn.add_block("entry")
            header = fn.add_block("header")
            body = fn.add_block("body")
            exit_ = fn.add_block("exit")
            IRBuilder(entry).br(header)
            bh = IRBuilder(header)
            a = bh.phi(I64, "a")
            b2 = bh.phi(I64, "b")
            i = bh.phi(I64, "i")
            cond = bh.icmp("slt", i, const_int(3))
            bh.cond_br(cond, body, exit_)
            bb = IRBuilder(body)
            i2 = bb.add(i, const_int(1))
            bb.br(header)
            a.add_incoming(const_int(1), entry)
            a.add_incoming(b2, body)  # a <- b
            b2.add_incoming(const_int(2), entry)
            b2.add_incoming(a, body)  # b <- a (must read pre-update a)
            i.add_incoming(const_int(0), entry)
            i.add_incoming(i2, body)
            be = IRBuilder(exit_)
            packed = be.mul(a, const_int(10))
            packed = be.add(packed, b2)
            be.ret(packed)

        # After 3 swaps: (a,b) = (2,1); packed = 21.
        result, _ = run_main(build)
        assert result.value == 21

    def test_unreachable_traps(self):
        def build(m):
            fn = m.add_function("main", VOID, [])
            b = IRBuilder(fn.add_block("entry"))
            b.unreachable()

        result, _ = run_main(build)
        assert result.status == "trap"
        assert "unreachable" in result.error


class TestMemory:
    def test_global_array_store_load(self):
        def build(m):
            g = m.add_global("data", ArrayType(I64, 4))
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            p2 = b.gep(g, const_int(2))
            b.store(const_int(99), p2)
            v = b.load(p2)
            b.ret(v)

        result, interp = run_main(build)
        assert result.value == 99
        assert interp.read_global("data") == [0, 0, 99, 0]

    def test_global_initializer(self):
        def build(m):
            g = m.add_global("data", ArrayType(F64, 3), [1.5, 2.5, 3.5])
            fn = m.add_function("main", F64, [])
            b = IRBuilder(fn.add_block("entry"))
            p = b.gep(g, const_int(1))
            b.ret(b.load(p))

        result, _ = run_main(build)
        assert result.value == 2.5

    def test_out_of_bounds_gep_traps(self):
        def build(m):
            g = m.add_global("data", ArrayType(I64, 4))
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            p = b.gep(g, const_int(5))  # lands in the guard zone
            b.ret(b.load(p))

        result, _ = run_main(build)
        assert result.status == "trap"
        assert "address" in result.error

    def test_negative_address_traps(self):
        def build(m):
            g = m.add_global("data", ArrayType(I64, 4))
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            p = b.gep(g, const_int(-100))
            b.ret(b.load(p))

        result, _ = run_main(build)
        assert result.status == "trap"

    def test_wild_address_traps(self):
        def build(m):
            g = m.add_global("data", ArrayType(I64, 4))
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            p = b.gep(g, const_int(1 << 40))
            b.ret(b.load(p))

        result, _ = run_main(build)
        assert result.status == "trap"

    def test_alloca_array(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            buf = b.alloca(ArrayType(I64, 8))
            p = b.gep(buf, const_int(3))
            b.store(const_int(7), p)
            b.ret(b.load(p))

        result, _ = run_main(build)
        assert result.value == 7

    def test_global_override_sets_input(self):
        def build(m):
            m.add_global("n", I64, 5)
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            g = m.get_global("n")
            b.ret(b.load(g))

        m = build_module(build)
        interp = Interpreter(m)
        assert interp.run().value == 5
        interp.set_global_override("n", 42)
        assert interp.run().value == 42

    def test_atomicrmw_returns_old_value(self):
        def build(m):
            g = m.add_global("ctr", I64, 10)
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            old = b.atomic_add(g, const_int(5))
            b.ret(old)

        result, interp = run_main(build)
        assert result.value == 10
        assert interp.read_global("ctr") == 15


class TestCallsAndIntrinsics:
    def test_call_defined_function(self):
        def build(m):
            sq = m.add_function("square", I64, [I64], ["x"])
            bs = IRBuilder(sq.add_block("entry"))
            bs.ret(bs.mul(sq.args[0], sq.args[0]))
            fn = m.add_function("main", I64, [])
            b = IRBuilder(fn.add_block("entry"))
            b.ret(b.call(sq, [const_int(9)]))

        result, _ = run_main(build)
        assert result.value == 81

    def test_recursive_factorial(self):
        def build(m):
            fact = m.add_function("fact", I64, [I64], ["n"])
            entry = fact.add_block("entry")
            base = fact.add_block("base")
            rec = fact.add_block("rec")
            b = IRBuilder(entry)
            c = b.icmp("sle", fact.args[0], const_int(1))
            b.cond_br(c, base, rec)
            IRBuilder(base).ret(const_int(1))
            br = IRBuilder(rec)
            nm1 = br.sub(fact.args[0], const_int(1))
            sub = br.call(fact, [nm1])
            br.ret(br.mul(fact.args[0], sub))
            fn = m.add_function("main", I64, [])
            bm = IRBuilder(fn.add_block("entry"))
            bm.ret(bm.call(fact, [const_int(10)]))

        result, _ = run_main(build)
        assert result.value == 3628800

    def test_infinite_recursion_is_a_trap(self):
        def build(m):
            f = m.add_function("f", I64, [])
            b = IRBuilder(f.add_block("entry"))
            b.ret(b.call(f))
            fn = m.add_function("main", I64, [])
            bm = IRBuilder(fn.add_block("entry"))
            bm.ret(bm.call(f))

        result, _ = run_main(build)
        assert result.status == "trap"

    def test_sqrt_intrinsic(self):
        def build(m):
            fn = m.add_function("main", F64, [])
            b = IRBuilder(fn.add_block("entry"))
            b.ret(b.call_intrinsic("sqrt", [const_float(2.25)]))

        result, _ = run_main(build)
        assert result.value == 1.5

    def test_sqrt_of_negative_is_nan(self):
        def build(m):
            fn = m.add_function("main", F64, [])
            b = IRBuilder(fn.add_block("entry"))
            b.ret(b.call_intrinsic("sqrt", [const_float(-1.0)]))

        result, _ = run_main(build)
        assert result.status == "ok"
        assert math.isnan(result.value)

    def test_print_collects_output(self):
        def build(m):
            fn = m.add_function("main", VOID, [])
            b = IRBuilder(fn.add_block("entry"))
            b.call_intrinsic("print_f64", [const_float(3.5)])
            b.call_intrinsic("print_i64", [const_int(7)])
            b.ret()

        result, interp = run_main(build)
        assert interp.output_log == [3.5, 7]

    def test_serial_mpi_identities(self):
        def build(m):
            fn = m.add_function("main", F64, [])
            b = IRBuilder(fn.add_block("entry"))
            r = b.call_intrinsic("mpi_rank")
            rf = b.sitofp(r)
            s = b.call_intrinsic("mpi_allreduce_sum_f64", [const_float(4.5)])
            b.call_intrinsic("mpi_barrier")
            b.ret(b.fadd(rf, s))

        result, _ = run_main(build)
        assert result.value == 4.5  # rank 0 + identity allreduce


class TestCyclesAndProfiling:
    def loop_module(self, n=100):
        def build(m):
            fn = m.add_function("main", I64, [])
            entry = fn.add_block("entry")
            header = fn.add_block("header")
            body = fn.add_block("body")
            exit_ = fn.add_block("exit")
            IRBuilder(entry).br(header)
            bh = IRBuilder(header)
            i = bh.phi(I64, "i")
            cond = bh.icmp("slt", i, const_int(n))
            bh.cond_br(cond, body, exit_)
            bb = IRBuilder(body)
            i2 = bb.add(i, const_int(1))
            bb.br(header)
            i.add_incoming(const_int(0), entry)
            i.add_incoming(i2, body)
            IRBuilder(exit_).ret(i)

        return build_module(build)

    def test_cycles_are_deterministic(self):
        m = self.loop_module()
        interp = Interpreter(m)
        r1 = interp.run()
        r2 = interp.run()
        assert r1.cycles == r2.cycles > 0

    def test_cycles_scale_with_work(self):
        c100 = Interpreter(self.loop_module(100)).run().cycles
        c200 = Interpreter(self.loop_module(200)).run().cycles
        assert 1.8 < c200 / c100 < 2.2

    def test_hang_detection(self):
        m = self.loop_module(10**9)
        interp = Interpreter(m)
        result = interp.run(cycle_budget=10_000)
        assert result.status == "hang"

    def test_profile_counts_block_executions(self):
        m = self.loop_module(10)
        interp = Interpreter(m)
        result = interp.run(profile=True)
        assert result.profile is not None
        # entry 1, header 11, body 10, exit 1
        assert sorted(result.profile) == [1, 1, 10, 11]

    def test_custom_cost_model(self):
        m = self.loop_module(10)
        cheap = Interpreter(m, cost_model=CostModel({"add": 1})).run().cycles
        costly = Interpreter(m, cost_model=CostModel({"add": 100})).run().cycles
        assert costly > cheap


class TestFaultInjection:
    def add_module(self):
        """main returns a+b computed dynamically (via identity function)."""
        m = Module("t")
        ident = m.add_function("ident", I64, [I64], ["x"])
        bi = IRBuilder(ident.add_block("entry"))
        bi.ret(ident.args[0])
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        a = b.call(ident, [const_int(100)])
        c = b.call(ident, [const_int(23)])
        s = b.add(a, c, "sum")
        b.ret(s)
        verify_module(m)
        return m, s

    def test_injection_flips_result_bit(self):
        m, target = self.add_module()
        interp = Interpreter(m)
        clean = interp.run()
        assert clean.value == 123
        faulty = interp.run(injection=FaultSite(target, 1, 3).as_injection())
        assert faulty.status == "ok"
        assert faulty.injection_hit
        assert faulty.value == 123 ^ 8

    def test_injection_is_transient(self):
        m, target = self.add_module()
        interp = Interpreter(m)
        interp.run(injection=FaultSite(target, 1, 3).as_injection())
        clean_again = interp.run()
        assert clean_again.value == 123
        assert not clean_again.injection_hit

    def test_injection_occurrence_targets_dynamic_instance(self):
        def build(m):
            fn = m.add_function("main", I64, [])
            entry = fn.add_block("entry")
            header = fn.add_block("header")
            body = fn.add_block("body")
            exit_ = fn.add_block("exit")
            IRBuilder(entry).br(header)
            bh = IRBuilder(header)
            i = bh.phi(I64, "i")
            acc = bh.phi(I64, "acc")
            cond = bh.icmp("slt", i, const_int(4))
            bh.cond_br(cond, body, exit_)
            bb = IRBuilder(body)
            acc2 = bb.add(acc, const_int(1), "acc2")
            i2 = bb.add(i, const_int(1))
            bb.br(header)
            i.add_incoming(const_int(0), entry)
            i.add_incoming(i2, body)
            acc.add_incoming(const_int(0), entry)
            acc.add_incoming(acc2, body)
            IRBuilder(exit_).ret(acc)

        m = build_module(build)
        target = next(i for i in m.instructions() if i.name == "acc2")
        interp = Interpreter(m)
        assert interp.run().value == 4
        # Flip bit 4 (=16) of acc2 on its 2nd execution: acc becomes 2^16+2
        # then increments twice more.
        faulty = interp.run(injection=FaultSite(target, 2, 4).as_injection())
        assert faulty.injection_hit
        assert faulty.value == 16 + 4

    def test_injection_missed_when_occurrence_never_reached(self):
        m, target = self.add_module()
        interp = Interpreter(m)
        result = interp.run(injection=FaultSite(target, 99, 0).as_injection())
        assert result.status == "ok"
        assert not result.injection_hit
        assert result.value == 123

    def test_injection_in_float_value(self):
        m = Module("t")
        ident = m.add_function("ident", F64, [F64], ["x"])
        bi = IRBuilder(ident.add_block("entry"))
        bi.ret(ident.args[0])
        fn = m.add_function("main", F64, [])
        b = IRBuilder(fn.add_block("entry"))
        a = b.call(ident, [const_float(1.0)])
        s = b.fmul(a, const_float(1.0), "prod")
        b.ret(s)
        verify_module(m)
        interp = Interpreter(m)
        # Flip the top exponent bit of 1.0 -> huge change.
        faulty = interp.run(injection=FaultSite(s, 1, 62).as_injection())
        assert faulty.injection_hit
        assert faulty.value != 1.0

    def test_injection_in_address_traps(self):
        m = Module("t")
        g = m.add_global("data", ArrayType(I64, 4))
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        p = b.gep(g, const_int(0), "ptr")
        b.store(const_int(1), p)
        v = b.load(p)
        b.ret(v)
        verify_module(m)
        interp = Interpreter(m)
        # Flip a high bit of the computed address: wild store -> trap.
        faulty = interp.run(injection=FaultSite(p, 1, 50).as_injection())
        assert faulty.status == "trap"
