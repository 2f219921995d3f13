"""Tests for the protection-coverage prover (`repro.analysis.coverage`) and
the static-vs-dynamic consistency sanitizer (`repro.faults.sanitizer`):
verdict semantics on hand-built IR, guard-cut logic under full duplication,
the structural check-discovery fallback, the exhaustive audit property
(no DETECTED/MASKED-verdict site may produce a dynamic SOC), and the
sanitizer contract on forged campaign records."""

import pytest

from repro import compile_source
from repro.analysis import (
    CoverageAnalysis,
    CoverageReport,
    Verdict,
    coverage_report,
)
from repro.analysis.coverage import is_coverage_site
from repro.faults import (
    Campaign,
    CoverageViolation,
    FaultSite,
    Outcome,
    TrialRecord,
    injectable_instructions,
    module_is_protected,
    sanitize_records,
    sanitizer_enabled,
)
from repro.interp import Interpreter
from repro.ir import (
    F64,
    I64,
    IRBuilder,
    Module,
    const_int,
    verify_module,
)
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.workloads import get_workload

KERNEL = """
int n = 8;
output double result[2];

void main() {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + (double)i * 1.5;
    }
    result[0] = s;
    result[1] = s * 2.0;
}
"""


def protected(source=KERNEL, name="kernel"):
    module = compile_source(source, name=name)
    duplicate_instructions(module, FullDuplicationSelector().select(module))
    verify_module(module)
    return module


class TestVerdictSemantics:
    def test_unprotected_output_chain_escapes(self):
        module = compile_source(KERNEL)
        report = coverage_report(module)
        assert report.sites, "kernel must expose fault sites"
        assert not report.with_verdict(Verdict.DETECTED)
        # The accumulator feeds the output array: it must not be MASKED.
        escaping = {s.name for s in report.with_verdict(Verdict.ESCAPES)}
        assert escaping, "stores to the output global must escape"

    def test_dead_value_is_masked(self):
        m = Module("t")
        fn = m.add_function("main", I64, [I64], ["x"])
        b = IRBuilder(fn.add_block("entry"))
        dead = b.add(fn.args[0], const_int(1), name="dead")
        live = b.mul(fn.args[0], const_int(2), name="live")
        b.ret(live)
        verify_module(m)
        analysis = CoverageAnalysis(m)
        assert analysis.classify(dead).verdict is Verdict.MASKED
        assert analysis.classify(dead).masked_bits == 64
        # The returned value escapes through main's return.
        assert analysis.classify(live).verdict is Verdict.ESCAPES

    def test_fully_killed_bits_are_masked(self):
        m = Module("t")
        fn = m.add_function("main", I64, [I64], ["x"])
        b = IRBuilder(fn.add_block("entry"))
        v = b.add(fn.args[0], const_int(1), name="v")
        killed = b.and_(v, const_int(0), name="killed")
        b.ret(killed)
        verify_module(m)
        analysis = CoverageAnalysis(m)
        # Every bit of v dies in the and-with-zero: provably masked.
        assert analysis.classify(v).verdict is Verdict.MASKED
        assert analysis.classify(v).masked_bits == 64

    def test_partial_kill_counts_masked_bits_but_still_flows(self):
        m = Module("t")
        fn = m.add_function("main", I64, [I64], ["x"])
        b = IRBuilder(fn.add_block("entry"))
        v = b.add(fn.args[0], const_int(1), name="v")
        low = b.and_(v, const_int(0xFF), name="low")
        b.ret(low)
        verify_module(m)
        analysis = CoverageAnalysis(m)
        site = analysis.classify(v)
        assert site.verdict is Verdict.ESCAPES  # low byte reaches the return
        assert site.masked_bits == 56
        assert site.total_bits == 64

    def test_full_duplication_yields_detected_sites(self):
        module = protected()
        report = coverage_report(module)
        summary = report.summary()
        assert summary["detected"] > 0
        assert summary["sites"] == summary["detected"] + summary[
            "masked"
        ] + summary["escapes"]
        # A detected site records which guards cover it.
        detected = report.with_verdict(Verdict.DETECTED)
        assert all(s.guards > 0 for s in detected)
        assert all(not s.escapes for s in detected)

    def test_detected_sites_only_on_protected_modules(self):
        clean = compile_source(KERNEL)
        assert not coverage_report(clean).with_verdict(Verdict.DETECTED)

    def test_structural_fallback_matches_metadata(self):
        module = protected()
        with_meta = coverage_report(module).summary()
        # Strip the duplication metadata: pairing must be recovered from
        # the ipas.check.* calls themselves.
        del module.check_sites
        del module.duplicate_map
        without_meta = coverage_report(module).summary()
        assert with_meta == without_meta

    def test_report_serialisation(self):
        import json

        report = coverage_report(protected())
        payload = report.to_dict()
        json.dumps(payload)  # must be JSON-compatible
        assert payload["summary"] == report.summary()
        assert len(payload["sites"]) == len(report.sites)
        for entry in payload["sites"]:
            assert entry["verdict"] in {v.value for v in Verdict}

    def test_verdict_of_and_site_identity(self):
        module = protected()
        report = coverage_report(module)
        for site in report.sites[:5]:
            assert report.verdict_of(site.instruction) is site.verdict
            assert is_coverage_site(site.instruction)


class TestExhaustiveAudit:
    """The acceptance property: across every executed static fault site of a
    fig8-scale kernel, no site the prover classifies DETECTED or MASKED may
    complete as a dynamic SOC."""

    def test_is_workload_audit(self):
        module = get_workload("is").compile()
        duplicate_instructions(
            module, FullDuplicationSelector().select(module)
        )
        analysis = CoverageAnalysis(module)
        campaign = Campaign(Interpreter(module))
        campaign.prepare()
        soc_verdicts = []
        for _rank, inst, _count in campaign._sites:
            bits = inst.type.bits if not inst.type.is_pointer() else 64
            for bit in (0, bits - 1):
                record = campaign.run_site(FaultSite(inst, 1, bit))
                if record.outcome is Outcome.SOC:
                    soc_verdicts.append(
                        (analysis.classify(inst).verdict, record)
                    )
        bad = [
            (v, r) for v, r in soc_verdicts if v is not Verdict.ESCAPES
        ]
        assert not bad, (
            f"{len(bad)} SOC trials at non-ESCAPES sites: "
            + "; ".join(str(r.site) for _v, r in bad[:5])
        )


class TestSanitizer:
    def make_forged_soc(self):
        """A protected module plus a forged SOC record at a DETECTED site."""
        module = protected()
        analysis = CoverageAnalysis(module)
        detected = next(
            inst
            for inst in injectable_instructions(module)
            if analysis.classify(inst).verdict is Verdict.DETECTED
        )
        record = TrialRecord(
            FaultSite(detected, 1, 0), Outcome.SOC, "ok", 123
        )
        return module, record

    def test_enabled_by_default(self, monkeypatch):
        monkeypatch.delenv("IPAS_SANITIZE", raising=False)
        assert sanitizer_enabled()
        monkeypatch.setenv("IPAS_SANITIZE", "0")
        assert not sanitizer_enabled()

    def test_forged_soc_at_detected_site_raises(self):
        module, record = self.make_forged_soc()
        with pytest.raises(CoverageViolation) as exc:
            sanitize_records([record], module)
        assert "coverage violation" in str(exc.value)
        assert exc.value.verdict is Verdict.DETECTED
        assert exc.value.record is record

    def test_violation_is_assertion_error(self):
        module, record = self.make_forged_soc()
        with pytest.raises(AssertionError):
            sanitize_records([record], module)

    def test_disabled_by_env(self, monkeypatch):
        module, record = self.make_forged_soc()
        monkeypatch.setenv("IPAS_SANITIZE", "0")
        sanitize_records([record], module)  # must not raise

    def test_none_holes_and_non_soc_records_ignored(self):
        module, record = self.make_forged_soc()
        benign = TrialRecord(record.site, Outcome.DETECTED, "detected", 50)
        sanitize_records([None, benign], module)  # must not raise

    def test_unprotected_module_skipped(self):
        module = compile_source(KERNEL)
        assert not module_is_protected(module)
        inst = injectable_instructions(module)[0]
        record = TrialRecord(FaultSite(inst, 1, 0), Outcome.SOC, "ok", 99)
        sanitize_records([record], module)  # every SOC is legitimate

    def test_protected_module_detected(self):
        assert module_is_protected(protected())

    def test_campaign_path_runs_sanitizer_clean(self):
        # A real (small) protected campaign must pass through the
        # parent-side sanitizer without firing.
        from repro.faults.parallel import run_campaign

        module = protected()
        campaign = Campaign(Interpreter(module))
        result = run_campaign(campaign, n_trials=24, seed=3, n_jobs=1)
        assert result.counts.total == 24
