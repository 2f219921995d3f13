"""Edge-case tests for the interpreter: overrides, stack, budgets, output."""

import pytest

from repro import compile_source
from repro.faults import FaultSite
from repro.interp import Interpreter, run_module
from repro.ir import (
    ArrayType,
    F64,
    I64,
    IRBuilder,
    Module,
    const_float,
    const_int,
    verify_module,
)


class TestGlobalOverrides:
    SOURCE = """
    int n = 3;
    double scale = 2.0;
    output double result[4];
    void main() {
        for (int i = 0; i < n; i = i + 1) { result[i] = scale; }
    }
    """

    def test_scalar_override(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.set_global_override("scale", 7.5)
        interp.run()
        assert interp.read_global("result")[:3] == [7.5] * 3

    def test_array_override(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.set_global_override("result", [9.0, 9.0])
        interp.set_global_override("n", 1)
        interp.run()
        # Cell 0 overwritten by the program; cell 1 keeps the override.
        assert interp.read_global("result")[:2] == [2.0, 9.0]

    def test_override_too_long_rejected(self):
        interp = Interpreter(compile_source(self.SOURCE))
        with pytest.raises(ValueError, match="cells"):
            interp.set_global_override("result", [0.0] * 5)

    def test_unknown_global_rejected(self):
        interp = Interpreter(compile_source(self.SOURCE))
        with pytest.raises(KeyError):
            interp.set_global_override("nope", 1)

    def test_clear_overrides(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.set_global_override("scale", 5.0)
        interp.clear_global_overrides()
        interp.run()
        assert interp.read_global("result")[0] == 2.0

    def test_read_scalar_global(self):
        interp = Interpreter(compile_source(self.SOURCE))
        interp.run()
        assert interp.read_global("n") == 3
        assert interp.read_global("scale") == 2.0


class TestStackBehaviour:
    def test_stack_exhaustion_traps(self):
        m = Module("t")
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        buf = b.alloca(ArrayType(I64, 100))
        p = b.gep(buf, const_int(0))
        b.ret(b.load(p))
        verify_module(m)
        interp = Interpreter(m, stack_cells=32)  # smaller than the alloca
        result = interp.run()
        assert result.status == "trap"
        assert "stack" in result.error.lower()

    def test_stack_reset_between_calls(self):
        """Allocas are freed on return: repeated calls reuse the frame."""
        source = """
        output double result[1];
        double work(double v) {
            double buf[64];
            buf[0] = v;
            return buf[0] * 2.0;
        }
        void main() {
            double acc = 0.0;
            for (int i = 0; i < 200; i = i + 1) {
                acc = acc + work((double)i);
            }
            result[0] = acc;
        }
        """
        module = compile_source(source)
        interp = Interpreter(module, stack_cells=256)
        result = interp.run()
        assert result.status == "ok"  # 200 x 64 cells only works if freed


class TestBudgets:
    def loop_module(self):
        return compile_source(
            """
            output double result[1];
            int n = 100000000;
            void main() {
                double acc = 0.0;
                for (int i = 0; i < n; i = i + 1) { acc = acc + 1.0; }
                result[0] = acc;
            }
            """
        )

    def test_budget_exceeded_is_hang(self):
        interp = Interpreter(self.loop_module())
        result = interp.run(cycle_budget=50_000)
        assert result.status == "hang"
        assert result.cycles > 50_000

    def test_no_budget_means_effectively_unlimited(self):
        interp = Interpreter(self.loop_module())
        interp.set_global_override("n", 10)
        result = interp.run()
        assert result.status == "ok"

    def test_budget_reset_between_runs(self):
        interp = Interpreter(self.loop_module())
        interp.set_global_override("n", 10)
        assert interp.run(cycle_budget=100).status == "hang"
        assert interp.run().status == "ok"


class TestOutputCollection:
    def test_output_log_disabled(self):
        module = compile_source(
            "void main() { print(1.0); print(2.0); }"
        )
        interp = Interpreter(module, collect_output=False)
        interp.run()
        assert interp.output_log == []

    def test_output_log_reset_per_run(self):
        module = compile_source("void main() { print(1.0); }")
        interp = Interpreter(module)
        interp.run()
        interp.run()
        assert interp.output_log == [1.0]


class TestInjectionValidation:
    def test_occurrence_must_be_positive(self):
        module = compile_source("int main() { return 1 + 2; }", optimize=False)
        inst = next(i for i in module.instructions() if i.opcode == "add")
        interp = Interpreter(module)
        spec = FaultSite(inst, 1, 3).as_injection()
        spec.occurrence = 0
        with pytest.raises(ValueError, match="1-based"):
            interp.run(injection=spec)

    def test_injection_into_uncompiled_instruction_rejected(self):
        from repro.ir import BinaryOperator

        module = compile_source("int main() { return 1; }")
        interp = Interpreter(module)
        dangling = BinaryOperator("add", const_int(1), const_int(2))
        with pytest.raises(KeyError):
            interp.run(injection=FaultSite(dangling, 1, 0).as_injection())

    def test_missing_entry_function(self):
        module = compile_source("int main() { return 1; }")
        interp = Interpreter(module)
        with pytest.raises(KeyError):
            interp.run(entry="nonexistent")
