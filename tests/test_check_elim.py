"""Tests for check-redundancy elimination (`repro.passes.check_elim`):
subsumption under naive per-instruction check placement, bit-identical
golden outputs, preserved detection outcomes on paired injection trials,
protected-run cycle reduction, metadata refresh, and the near-optimality
of the default tail placement."""

import pytest

from repro import compile_source
from repro.faults import Campaign, FaultSite, Outcome, OutputVerifier
from repro.interp import Interpreter, run_module
from repro.ir import is_check_intrinsic, verify_module
from repro.passes import (
    CheckEliminationPass,
    eliminate_redundant_checks,
)
from repro.protect import (
    DuplicationPass,
    FullDuplicationSelector,
    duplicate_instructions,
)
from repro.workloads import get_workload

# An integer-heavy kernel: long add/xor chains are exactly the injective
# steps whose intermediate checks naive placement makes redundant.
INT_KERNEL = """
int n = 16;
output int result[2];

void main() {
    int acc = 0;
    int mix = 1;
    for (int i = 0; i < n; i = i + 1) {
        acc = acc + i * 3;
        mix = (mix + acc) ^ i;
    }
    result[0] = acc;
    result[1] = mix;
}
"""


def protect(module, placement):
    pass_ = DuplicationPass(module, check_placement=placement)
    report = pass_.run(FullDuplicationSelector().select(module))
    verify_module(module)
    return report


def count_checks(module):
    from repro.ir.instructions import CallInst

    return sum(
        1
        for inst in module.instructions()
        if isinstance(inst, CallInst) and is_check_intrinsic(inst.callee)
    )


class TestSubsumption:
    def test_every_placement_has_redundancy(self):
        module = compile_source(INT_KERNEL)
        protect(module, "every")
        before = count_checks(module)
        report = eliminate_redundant_checks(module)
        verify_module(module)
        assert report.checks_before == before
        assert report.checks_removed > 0
        assert report.checks_after == count_checks(module)
        assert report.duplicates_removed >= 0
        # Every removal names its subsumer.
        assert len(report.removed) == report.checks_removed
        for where, subsumer in report.removed:
            assert "/" in where and "/" in subsumer

    def test_tail_placement_is_near_optimal(self):
        # The paper's duplication-path tails feed loads/stores/phis/
        # branches/comparisons — non-injective sinks — so strict
        # subsumption finds (almost) nothing to remove.
        module = compile_source(INT_KERNEL)
        protect(module, "tails")
        report = eliminate_redundant_checks(module)
        assert report.checks_removed == 0

    def test_idempotent(self):
        module = compile_source(INT_KERNEL)
        protect(module, "every")
        eliminate_redundant_checks(module)
        second = eliminate_redundant_checks(module)
        assert second.checks_removed == 0

    def test_report_serialisation(self):
        import json

        module = compile_source(INT_KERNEL)
        protect(module, "every")
        payload = eliminate_redundant_checks(module).to_dict()
        json.dumps(payload)
        assert payload["checks_after"] == (
            payload["checks_before"] - payload["checks_removed"]
        )


class TestPreservation:
    def test_golden_output_bit_identical(self):
        clean_result, clean_interp = run_module(compile_source(INT_KERNEL))
        module = compile_source(INT_KERNEL)
        protect(module, "every")
        eliminate_redundant_checks(module)
        result, interp = run_module(module)
        assert result.status == "ok"
        verifier = OutputVerifier()
        assert verifier.capture(interp) == verifier.capture(clean_interp)

    def test_protected_run_gets_cheaper(self):
        module = compile_source(INT_KERNEL)
        protect(module, "every")
        _, before_interp = run_module(module)
        before_cycles = before_interp.cycles
        report = eliminate_redundant_checks(module)
        assert report.checks_removed > 0
        _, after_interp = run_module(module)
        assert after_interp.cycles < before_cycles

    def test_detection_outcomes_preserved(self):
        """Paired trials: the same static fault plan must classify
        identically before and after elimination."""

        def outcomes(module):
            campaign = Campaign(Interpreter(module))
            campaign.prepare()
            results = []
            for _rank, inst, _count in campaign._sites:
                bits = inst.type.bits if not inst.type.is_pointer() else 64
                key = (
                    inst.function.name,
                    inst.parent.name,
                    inst.opcode,
                    inst.name,
                )
                record = campaign.run_site(FaultSite(inst, 1, bits // 2))
                results.append((key, record.outcome))
            return results

        baseline_module = compile_source(INT_KERNEL)
        protect(baseline_module, "every")
        eliminated_module = compile_source(INT_KERNEL)
        protect(eliminated_module, "every")
        eliminate_redundant_checks(eliminated_module)

        baseline = dict(outcomes(baseline_module))
        after = dict(outcomes(eliminated_module))
        # Surviving sites (clone erasure removes some shadow sites) must
        # keep their exact outcome; no detection may degrade to SOC.
        shared = set(baseline) & set(after)
        assert shared
        assert not any(
            baseline[key] is Outcome.DETECTED and after[key] is Outcome.SOC
            for key in shared
        )
        mismatches = [
            key for key in shared if baseline[key] is not after[key]
        ]
        assert not mismatches, f"outcome drift at {mismatches[:5]}"

    def test_workload_golden_identical_after_elimination(self):
        module = get_workload("is").compile()
        reference = get_workload("is").compile()
        duplicate_instructions(
            module,
            FullDuplicationSelector().select(module),
            check_placement="every",
        )
        eliminate_redundant_checks(module)
        verify_module(module)
        _, interp = run_module(module)
        _, ref_interp = run_module(reference)
        verifier = OutputVerifier()
        assert verifier.capture(interp) == verifier.capture(ref_interp)


class TestMetadata:
    def test_check_sites_and_duplicate_map_refreshed(self):
        module = compile_source(INT_KERNEL)
        protect(module, "every")
        report = eliminate_redundant_checks(module)
        assert report.checks_removed > 0
        for site in module.check_sites:
            assert site.check.parent is not None
        for clone in module.duplicate_map.values():
            assert clone.parent is not None
        assert len(module.check_sites) == report.checks_after

    def test_runs_without_metadata(self):
        module = compile_source(INT_KERNEL)
        protect(module, "every")
        with_meta = eliminate_redundant_checks(
            _reprotect(INT_KERNEL)
        ).checks_removed
        del module.check_sites
        del module.duplicate_map
        report = CheckEliminationPass(module).run()
        verify_module(module)
        # Structural recovery sees every checked pair, so it removes the
        # same checks as the metadata path.
        assert report.checks_removed == with_meta


def _reprotect(source):
    module = compile_source(source)
    protect(module, "every")
    return module
