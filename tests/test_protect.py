"""Tests for the duplication pass and selectors: semantics preservation,
check placement, overhead accounting, and detection of injected faults."""

import pytest

from repro import compile_source
from repro.faults import Campaign, FaultSite, Outcome, injectable_instructions
from repro.interp import Interpreter, run_module
from repro.ir import is_check_intrinsic, verify_module
from repro.protect import (
    DuplicationPass,
    FullDuplicationSelector,
    NoProtectionSelector,
    duplicate_instructions,
    is_duplicable,
)

KERNEL = """
int n = 12;
output double result[4];

double norm(double a[], int n) {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i];
    }
    return sqrt(s);
}

void main() {
    double x[16];
    for (int i = 0; i < n; i = i + 1) { x[i] = (double)(i + 1) * 0.5; }
    result[0] = norm(x, n);
    result[1] = result[0] * 2.0;
}
"""


def protected_module(selector=None):
    module = compile_source(KERNEL, name="kernel")
    selector = selector or FullDuplicationSelector()
    report = duplicate_instructions(module, selector.select(module))
    return module, report


class TestDuplicationPass:
    def test_full_duplication_preserves_semantics(self):
        clean = compile_source(KERNEL)
        clean_result, clean_interp = run_module(clean)
        module, report = protected_module()
        result, interp = run_module(module)
        assert result.status == "ok"
        assert interp.read_global("result") == clean_interp.read_global("result")
        assert report.duplicated > 0

    def test_report_counts(self):
        module, report = protected_module()
        assert report.duplicated == report.eligible > 0
        assert report.checks_inserted == report.paths > 0
        assert report.duplicated_fraction == 1.0

    def test_no_protection_changes_nothing(self):
        module = compile_source(KERNEL)
        before = module.static_instruction_count
        report = duplicate_instructions(module, NoProtectionSelector().select(module))
        assert module.static_instruction_count == before
        assert report.duplicated == 0

    def test_checks_use_typed_intrinsics(self):
        module, _ = protected_module()
        check_fns = [f for f in module.functions.values() if is_check_intrinsic(f)]
        assert check_fns
        for fn in check_fns:
            assert fn.is_declaration
            assert len(fn.ftype.param_types) == 2
            assert fn.ftype.param_types[0] == fn.ftype.param_types[1]

    def test_protected_module_verifies(self):
        module, _ = protected_module()
        verify_module(module)

    def test_overhead_increases_cycles(self):
        clean_cycles = run_module(compile_source(KERNEL))[0].cycles
        module, _ = protected_module()
        protected_cycles = run_module(module)[0].cycles
        assert protected_cycles > clean_cycles
        slowdown = protected_cycles / clean_cycles
        assert 1.0 < slowdown < 4.0

    def test_partial_selection_smaller_overhead(self):
        module_full, _ = protected_module()
        full_cycles = run_module(module_full)[0].cycles

        module = compile_source(KERNEL)
        eligible = [i for i in module.instructions() if is_duplicable(i)]
        half = eligible[: len(eligible) // 2]
        duplicate_instructions(module, half)
        half_cycles = run_module(module)[0].cycles
        clean_cycles = run_module(compile_source(KERNEL))[0].cycles
        assert clean_cycles < half_cycles < full_cycles

    def test_duplicates_feed_only_duplicates_and_checks(self):
        module, _ = protected_module()
        for fn in module.defined_functions():
            for inst in fn.instructions():
                if not inst.name.endswith(".dup"):
                    continue
                for user in inst.users:
                    ok = user.name.endswith(".dup") or (
                        user.opcode == "call"
                        and is_check_intrinsic(user.callee)
                    )
                    assert ok, f"duplicate {inst!r} leaks into {user!r}"

    def test_duplication_paths_within_block(self):
        module = compile_source(KERNEL)
        dp = DuplicationPass(module)
        report = dp.run(FullDuplicationSelector().select(module))
        # Each path's instructions must share a block.
        assert report.paths >= 1


class TestFaultDetection:
    def test_injected_fault_into_duplicated_instruction_is_detected(self):
        module, _ = protected_module()
        interp = Interpreter(module)
        # Pick a duplicated original (has a .dup sibling) in the hot loop.
        norm = module.get_function("norm")
        target = next(
            i
            for i in norm.instructions()
            if i.opcode == "fmul" and not i.name.endswith(".dup")
        )
        result = interp.run(injection=FaultSite(target, 2, 60).as_injection())
        assert result.status == "detected"

    def test_detection_close_to_occurrence(self):
        """The check fires before the corrupted value crosses the block."""
        module, _ = protected_module()
        interp = Interpreter(module)
        norm = module.get_function("norm")
        target = next(
            i
            for i in norm.instructions()
            if i.opcode == "fadd" and not i.name.endswith(".dup")
        )
        clean_cycles = interp.run().cycles
        result = interp.run(injection=FaultSite(target, 1, 55).as_injection())
        assert result.status == "detected"
        assert result.cycles < clean_cycles  # aborted early

    def test_campaign_on_protected_module_detects(self):
        module, _ = protected_module()
        interp = Interpreter(module)
        campaign = Campaign(interp)
        result = campaign.run(80, seed=11)
        # Full duplication must detect a solid share of injected faults and
        # strongly suppress SOC relative to typical unprotected rates.
        assert result.counts.detected_fraction > 0.2
        assert result.counts.soc_fraction < 0.1

    def test_unprotected_campaign_has_soc_or_masking_only(self):
        module = compile_source(KERNEL)
        interp = Interpreter(module)
        result = Campaign(interp).run(60, seed=3)
        assert result.counts.detected_fraction == 0.0

    def test_low_mantissa_bits_often_masked_high_bits_not(self):
        """Motivation experiment (paper §2): exponent flips hurt more."""
        module = compile_source(KERNEL)
        interp = Interpreter(module)
        campaign = Campaign(interp)
        campaign.prepare()
        norm = module.get_function("norm")
        target = next(i for i in norm.instructions() if i.opcode == "fadd")
        low = campaign.run_site(FaultSite(target, 3, 2))     # deep mantissa
        high = campaign.run_site(FaultSite(target, 3, 62))   # exponent
        assert low.outcome is Outcome.MASKED
        assert high.outcome in (Outcome.SOC, Outcome.CRASH, Outcome.HANG)
