"""Property-based tests (hypothesis) on core invariants.

* interpreter/constant-folder agreement on integer and float arithmetic,
* bit-flip helpers are involutions that always change the value,
* differential testing of the frontend: optimized and unoptimized builds of
  randomly generated scil expressions compute identical results,
* the duplication pass preserves semantics for arbitrary protection subsets
  and never speeds the program up,
* ML plumbing invariants (scaler, stratified folds, Eq.-1 F-score bounds).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import compile_source
from repro.faults import make_corrupter
from repro.interp import Interpreter, run_module
from repro.ir import (
    BinaryOperator,
    I32,
    I64,
    IRBuilder,
    Module,
    const_float,
    const_int,
    verify_module,
)
from repro.ml import StandardScaler, fscore_eq1, stratified_kfold
from repro.passes import fold_binary
from repro.protect import duplicate_instructions, is_duplicable

I64_MIN = -(2**63)
I64_MAX = 2**63 - 1

i64s = st.integers(min_value=I64_MIN, max_value=I64_MAX)
small_ints = st.integers(min_value=-1000, max_value=1000)
finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e100, max_value=1e100
)


def run_binop(opcode, a, b, type_is_float=False):
    """Execute one binary op through the interpreter (no folding)."""
    from repro.ir import F64

    m = Module("prop")
    value_type = F64 if type_is_float else I64
    ident = m.add_function("ident", value_type, [value_type], ["x"])
    bi = IRBuilder(ident.add_block("entry"))
    bi.ret(ident.args[0])
    fn = m.add_function("main", ident.return_type, [])
    bld = IRBuilder(fn.add_block("entry"))
    ca = const_float(a) if type_is_float else const_int(a)
    cb = const_float(b) if type_is_float else const_int(b)
    # Route through a call so the optimizer could never fold it either.
    va = bld.call(ident, [ca])
    v = bld.binop(opcode, va, cb)
    bld.ret(v)
    verify_module(m)
    return run_module(m)[0]


class TestFoldInterpreterAgreement:
    """fold_binary and the interpreter implement the same arithmetic."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["add", "sub", "mul", "and", "or", "xor"]),
        i64s,
        i64s,
    )
    def test_int_ops_agree(self, opcode, a, b):
        folded = fold_binary(opcode, const_int(a), const_int(b))
        result = run_binop(opcode, a, b)
        assert result.status == "ok"
        assert result.value == folded.value

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["sdiv", "srem"]), i64s, i64s)
    def test_division_agrees(self, opcode, a, b):
        assume(b != 0)
        folded = fold_binary(opcode, const_int(a), const_int(b))
        result = run_binop(opcode, a, b)
        assert result.status == "ok"
        assert result.value == folded.value

    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["shl", "lshr", "ashr"]),
        i64s,
        st.integers(min_value=0, max_value=63),
    )
    def test_shifts_agree(self, opcode, a, b):
        folded = fold_binary(opcode, const_int(a), const_int(b))
        result = run_binop(opcode, a, b)
        assert result.status == "ok"
        assert result.value == folded.value

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(["fadd", "fsub", "fmul", "fdiv"]),
        finite_floats,
        finite_floats,
    )
    def test_float_ops_agree(self, opcode, a, b):
        folded = fold_binary(opcode, const_float(a), const_float(b))
        result = run_binop(opcode, a, b, type_is_float=True)
        assert result.status == "ok"
        if isinstance(folded.value, float) and math.isnan(folded.value):
            assert math.isnan(result.value)
        else:
            assert result.value == folded.value

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["add", "sub", "mul"]), i64s, i64s)
    def test_int_results_stay_in_range(self, opcode, a, b):
        result = run_binop(opcode, a, b)
        assert I64_MIN <= result.value <= I64_MAX


def bit_flip(opcode: str, operand, bit: int):
    """The transient single-bit flip of an ``opcode`` result, as the
    fault models build it."""
    inst = BinaryOperator(opcode, operand, operand)
    return make_corrupter(inst, lambda u, w: u ^ (1 << bit))


class TestBitFlips:
    @settings(max_examples=80, deadline=None)
    @given(i64s, st.integers(min_value=0, max_value=63))
    def test_int_flip_is_involution(self, value, bit):
        flip = bit_flip("add", const_int(0), bit)
        once = flip(value)
        assert once != value
        assert flip(once) == value
        assert I64_MIN <= once <= I64_MAX

    @settings(max_examples=80, deadline=None)
    @given(finite_floats, st.integers(min_value=0, max_value=63))
    def test_f64_flip_is_involution(self, value, bit):
        flip = bit_flip("fadd", const_float(0.0), bit)
        once = flip(value)
        twice = flip(once)
        # Compare as bit patterns (NaN-safe).
        import struct

        assert struct.pack("<d", twice) == struct.pack("<d", value)
        assert struct.pack("<d", once) != struct.pack("<d", value)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=-(2**31), max_value=2**31 - 1),
           st.integers(min_value=0, max_value=31))
    def test_i32_flip_stays_in_range(self, value, bit):
        once = bit_flip("add", const_int(0, I32), bit)(value)
        assert once != value
        assert -(2**31) <= once <= 2**31 - 1


# -- differential testing of the frontend ------------------------------------


@st.composite
def int_expressions(draw, depth=0):
    """A random scil integer expression over variables a, b, c."""
    if depth >= 3 or draw(st.booleans()):
        leaf = draw(
            st.one_of(
                st.sampled_from(["a", "b", "c"]),
                st.integers(min_value=-50, max_value=50).map(str),
            )
        )
        # Parenthesise negative literals so `- -5` never appears.
        return f"({leaf})" if leaf.startswith("-") else leaf
    op = draw(st.sampled_from(["+", "-", "*", "&", "|", "^"]))
    lhs = draw(int_expressions(depth=depth + 1))
    rhs = draw(int_expressions(depth=depth + 1))
    return f"({lhs} {op} {rhs})"


class TestFrontendDifferential:
    @settings(max_examples=30, deadline=None)
    @given(int_expressions(), small_ints, small_ints, small_ints)
    def test_optimized_matches_unoptimized(self, expr, a, b, c):
        source = f"""
        int pa = {a};
        int pb = {b};
        int pc = {c};
        int main() {{
            int a = pa;
            int b = pb;
            int c = pc;
            return {expr};
        }}
        """
        opt = run_module(compile_source(source, optimize=True))[0]
        raw = run_module(compile_source(source, optimize=False))[0]
        assert opt.status == raw.status == "ok"
        assert opt.value == raw.value

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(min_value=0, max_value=30),
        st.integers(min_value=1, max_value=7),
    )
    def test_loop_programs_agree(self, n, step):
        source = f"""
        int main() {{
            int acc = 0;
            for (int i = 0; i < {n}; i = i + {step}) {{
                if (i % 3 == 0) {{ acc += i * 2; }}
                else {{ acc -= i; }}
            }}
            return acc;
        }}
        """
        opt = run_module(compile_source(source, optimize=True))[0]
        raw = run_module(compile_source(source, optimize=False))[0]
        assert opt.value == raw.value
        assert opt.cycles <= raw.cycles


# -- duplication-pass properties ------------------------------------------------

PROPERTY_KERNEL = """
int n = 10;
output double result[2];
double kernel(double a[], int n) {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i] - 0.5 * a[i];
    }
    return s;
}
void main() {
    double x[16];
    for (int i = 0; i < n; i = i + 1) { x[i] = (double)(i + 1) * 0.25; }
    result[0] = kernel(x, n);
    result[1] = sqrt(fabs(result[0]));
}
"""


class TestDuplicationProperties:
    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_any_selection_preserves_semantics(self, data):
        module = compile_source(PROPERTY_KERNEL)
        eligible = [i for i in module.instructions() if is_duplicable(i)]
        subset = data.draw(st.sets(st.sampled_from(range(len(eligible)))))
        selected = [eligible[i] for i in subset]
        report = duplicate_instructions(module, selected)
        verify_module(module)
        result, interp = run_module(module)
        assert result.status == "ok"

        clean_result, clean_interp = run_module(compile_source(PROPERTY_KERNEL))
        assert interp.read_global("result") == clean_interp.read_global("result")
        assert result.cycles >= clean_result.cycles
        assert report.duplicated == len(selected)

    @settings(max_examples=15, deadline=None)
    @given(st.sets(st.integers(min_value=0, max_value=200), max_size=30))
    def test_more_protection_never_cheaper(self, indices):
        module = compile_source(PROPERTY_KERNEL)
        eligible = [i for i in module.instructions() if is_duplicable(i)]
        subset = sorted(i % len(eligible) for i in indices)
        selected = [eligible[i] for i in sorted(set(subset))]
        duplicate_instructions(module, selected)
        partial_cycles = run_module(module)[0].cycles

        full_module = compile_source(PROPERTY_KERNEL)
        full_eligible = [i for i in full_module.instructions() if is_duplicable(i)]
        duplicate_instructions(full_module, full_eligible)
        full_cycles = run_module(full_module)[0].cycles
        assert partial_cycles <= full_cycles


# -- ML plumbing properties ---------------------------------------------------------


class TestMlProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.lists(st.floats(-1e6, 1e6), min_size=3, max_size=3),
            min_size=2,
            max_size=40,
        )
    )
    def test_scaler_output_standardized(self, rows):
        X = np.array(rows)
        Xs = StandardScaler().fit_transform(X)
        assert np.all(np.isfinite(Xs))
        assert np.allclose(Xs.mean(axis=0), 0.0, atol=1e-6)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=10, max_size=100),
        st.integers(min_value=2, max_value=5),
        st.integers(min_value=0, max_value=10),
    )
    def test_stratified_folds_partition(self, labels, k, seed):
        y = np.array(labels)
        folds = stratified_kfold(y, k=k, seed=seed)
        covered = sorted(int(i) for _, test in folds for i in test)
        assert covered == sorted(set(covered))  # disjoint
        if folds:
            for train, test in folds:
                assert len(set(train) & set(test)) == 0

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=50),
        st.lists(st.integers(0, 1), min_size=2, max_size=50),
    )
    def test_fscore_bounds(self, a, b):
        n = min(len(a), len(b))
        score = fscore_eq1(np.array(a[:n]), np.array(b[:n]))
        assert 0.0 <= score <= 1.0

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 1), min_size=4, max_size=50))
    def test_fscore_perfect_on_identity(self, labels):
        y = np.array(labels)
        assume(len(np.unique(y)) == 2)
        assert fscore_eq1(y, y) == 1.0
