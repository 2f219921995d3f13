"""Differential tests: fused lean dispatch vs. per-block dispatch.

The lean tables (``CompiledFunction.lean_fns``) run every innermost loop
as one generated unit with unit-local registers and inlined leaf calls;
the per-block tables (``block_fns``) run one function per block.  Both
must produce bit-identical runs: status, cycles, value, error, whether
the injection fired, and the block profile.  The tests switch fusion off
themselves by pointing each function's lean table at its per-block table
(as :class:`repro.obs.BlockProfiler` does while armed).
"""

import sys
from contextlib import contextmanager

import pytest

from repro import compile_source
from repro.faults import Campaign
from repro.faults.models import FAULT_MODELS, InjectionSpec
from repro.interp import Interpreter
from repro.workloads import WORKLOAD_NAMES, get_workload

SITES_PER_MODEL = 20


@contextmanager
def per_block_dispatch(cm):
    saved = [cf.lean_fns for cf in cm.cfuncs]
    for cf in cm.cfuncs:
        cf.lean_fns = cf.block_fns
    try:
        yield
    finally:
        for cf, fns in zip(cm.cfuncs, saved):
            cf.lean_fns = fns


def observe(interp, result):
    outputs = {gv.name: repr(interp.read_global(gv.name)) for gv in interp.module.output_globals()}
    return (
        result.status,
        result.cycles,
        repr(result.value),
        result.error,
        result.injection_hit,
        result.profile,
        outputs,
    )


def run_both(interp, make_kwargs):
    """Run fused, then per-block; ``make_kwargs`` builds fresh run
    arguments each time (fault models hand out stateful closures)."""
    fused = observe(interp, interp.run(**make_kwargs()))
    with per_block_dispatch(interp.cm):
        plain = observe(interp, interp.run(**make_kwargs()))
    return fused, plain


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_fault_models_bit_identical(workload):
    w = get_workload(workload)
    interp = w.make_interpreter(1)
    assert interp.cm.units, "every workload has an innermost loop"
    for name in FAULT_MODELS:
        campaign = Campaign(interp, w.verifier(), fault_model=name)
        model = campaign.fault_model
        budget = campaign.cycle_budget
        for site in campaign.sample_trials(SITES_PER_MODEL, seed=7):
            fused, plain = run_both(
                interp,
                lambda: dict(
                    injection=model.injection_for(site),
                    cycle_budget=budget,
                    profile=True,
                ),
            )
            assert fused == plain, (workload, name, site)


def test_golden_runs_identical_and_fused():
    for workload in WORKLOAD_NAMES:
        interp = get_workload(workload).make_interpreter(1)
        fused, plain = run_both(interp, lambda: dict(profile=True))
        assert fused == plain, workload
        assert fused[0] == "ok"


SPIN = """
int n = 5;
output int out[1];
void main() {
    int i = 0;
    while (i >= 0) { i = i + 1; if (i > 1000000000) { i = 0; } }
    out[0] = i;
}
"""


def test_hang_inside_unit_same_cycle_count():
    interp = Interpreter(compile_source(SPIN, name="spin"))
    assert interp.cm.units
    for budget in (1000, 12345, 99999):
        fused, plain = run_both(interp, lambda: dict(cycle_budget=budget, profile=True))
        assert fused == plain
        assert fused[0] == "hang"
        assert fused[1] > budget


OOB_LEAF = """
double a[8];
output double out[1];
double get(double v[], int i) { return v[i] * 2.0; }
void main() {
    double s = 0.0;
    for (int i = 0; i < 100; i = i + 1) { s = s + get(a, i); }
    out[0] = s;
}
"""


def test_memory_trap_inside_inlined_leaf():
    interp = Interpreter(compile_source(OOB_LEAF, name="oob"))
    get_cf = interp.cfuncs[interp.cm.get_function_index("get")]
    assert any(get_cf in u.leaves.values() for u in interp.cm.units)
    fused, plain = run_both(interp, lambda: dict(profile=True))
    assert fused == plain
    assert fused[0] == "trap"
    assert "MemoryFault" in fused[3]


DEEP = """
output int out[1];
int leaf(int x) { return x + 1; }
int down(int d) {
    int s = 0;
    for (int i = 0; i < 2; i = i + 1) { s = s + leaf(i); }
    return s + down(d + 1);
}
void main() { out[0] = down(0); }
"""


def test_stack_overflow_through_inlined_leaf_call():
    interp = Interpreter(compile_source(DEEP, name="deep"))
    leaf_cf = interp.cfuncs[interp.cm.get_function_index("leaf")]
    assert any(leaf_cf in u.leaves.values() for u in interp.cm.units)
    old = sys.getrecursionlimit()
    # Reach the interpreter's depth limit before the host's.
    sys.setrecursionlimit(max(old, 5 * Interpreter.DEFAULT_MAX_DEPTH + 1000))
    try:
        fused, plain = run_both(interp, lambda: dict(profile=True))
    finally:
        sys.setrecursionlimit(old)
    assert fused == plain
    assert fused[0] == "trap"
    assert fused[3] == "StackOverflow: call depth limit exceeded"
    # The overflowing call is a leaf call: the deepest `down` frame ran its
    # entry block and charged no leaf block at the failing call.
    leaf_gid = leaf_cf.blocks[0].gid
    assert fused[5][leaf_gid] == 2 * (Interpreter.DEFAULT_MAX_DEPTH - 2)


def test_injection_into_inlined_idx3():
    w = get_workload("hpccg")
    interp = w.make_interpreter(1)
    cm = interp.cm
    idx3 = cm.cfuncs[cm.get_function_index("idx3")]
    inliners = [u for u in cm.units if idx3 in u.leaves.values()]
    assert inliners
    golden = interp.run(profile=True)
    calls = golden.profile[idx3.blocks[0].gid]
    assert calls > 0
    targets = [i for i in idx3.blocks[0].block.instructions if i.produces_value()]
    for inst in targets:
        (_, _, _), lean = cm.injection_tables(inst)
        assert {u.cfi for u in inliners} <= {cfi for cfi, _, _ in lean}
        for occurrence in (1, calls // 2, calls):
            fused, plain = run_both(
                interp,
                lambda: dict(
                    injection=InjectionSpec(
                        inst, occurrence, "once", corrupt=lambda v: v ^ (1 << 40)
                    ),
                    cycle_budget=20 * golden.cycles,
                    profile=True,
                ),
            )
            assert fused == plain, (inst, occurrence)
            assert fused[4], "the injection fired"
