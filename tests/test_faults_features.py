"""Tests for the fault model, campaigns, and Table-1 feature extraction."""

import pytest

from repro import compile_source
from repro.faults import (
    Campaign,
    FaultSite,
    Outcome,
    OutcomeCounts,
    injectable_instructions,
    is_injectable,
    margin_of_error,
    result_bits,
    soc_reduction_percent,
)
from repro.features import FEATURE_CATEGORIES, FEATURE_NAMES, NUM_FEATURES, FeatureExtractor
from repro.interp import Interpreter
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

KERNEL = """
int n = 16;
output double result[32];

double work(double a[], int n) {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i];
    }
    return sqrt(s);
}

void main() {
    double x[32];
    for (int i = 0; i < n; i = i + 1) { x[i] = (double)(i + 1); }
    result[0] = work(x, n);
}
"""


@pytest.fixture(scope="module")
def kernel_interp():
    return Interpreter(compile_source(KERNEL, name="kernel"))


class TestFaultModel:
    def test_injectable_taxonomy(self):
        m = Module("t")
        g = m.add_global("data", ArrayType(F64, 4))
        fn = m.add_function("main", F64, [])
        b = IRBuilder(fn.add_block("entry"))
        add = b.add(const_int(1), const_int(2))
        gep = b.gep(g, add)
        store = b.store(const_float(1.0), gep)
        load = b.load(gep)
        cast = b.sitofp(add)
        cmp = b.fcmp("olt", load, cast)
        sel = b.select(cmp, load, cast)
        call = b.call_intrinsic("sqrt", [sel])
        ret = b.ret(call)
        verify_module(m)
        assert is_injectable(add)
        assert is_injectable(gep)
        assert is_injectable(cast)
        assert is_injectable(cmp)
        assert is_injectable(sel)
        assert is_injectable(call)
        assert not is_injectable(store)
        assert not is_injectable(load)
        assert not is_injectable(ret)

    def test_phis_and_allocas_excluded(self):
        module = compile_source(KERNEL)
        for inst in injectable_instructions(module):
            assert inst.opcode not in ("phi", "alloca", "load", "store", "br", "ret")

    def test_result_bits(self):
        m = Module("t")
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        add = b.add(const_int(1), const_int(2))
        cmp = b.icmp("eq", add, add)
        sel = b.select(cmp, add, add)
        b.ret(sel)
        assert result_bits(add) == 64
        assert result_bits(cmp) == 1

    def test_fault_site_validation(self):
        m = Module("t")
        fn = m.add_function("main", I64, [])
        b = IRBuilder(fn.add_block("entry"))
        add = b.add(const_int(1), const_int(2))
        b.ret(add)
        with pytest.raises(ValueError):
            FaultSite(add, 0, 1)  # occurrence is 1-based
        with pytest.raises(ValueError):
            FaultSite(add, 1, 64)  # bit out of range
        site = FaultSite(add, 1, 63)
        spec = site.as_injection()
        assert (spec.instruction, spec.occurrence, spec.mode, spec.rank) == (
            add, 1, "once", 0
        )
        assert spec.fire is None
        assert spec.corrupt(3) == 3 - 2**63  # bit 63 of an i64 is the sign


class TestOutcomes:
    def test_counts_and_fractions(self):
        counts = OutcomeCounts()
        for outcome in [Outcome.SOC, Outcome.MASKED, Outcome.MASKED, Outcome.CRASH]:
            counts.record(outcome)
        assert counts.total == 4
        assert counts.soc_fraction == 0.25
        assert counts.masked_fraction == 0.5
        assert counts.symptom_fraction == 0.25
        assert counts.as_dict()["soc"] == 0.25

    def test_soc_reduction(self):
        assert soc_reduction_percent(0.10, 0.01) == pytest.approx(90.0)
        assert soc_reduction_percent(0.10, 0.10) == pytest.approx(0.0)
        assert soc_reduction_percent(0.0, 0.0) == 0.0

    def test_margin_of_error_matches_paper_scale(self):
        # Paper §6.2: ~1024 runs, SOC fractions 2.6-10.8% -> margins 0.7-1.4%.
        moe = margin_of_error(0.05, 1024)
        assert 0.005 < moe < 0.02

    def test_margin_of_error_validation(self):
        with pytest.raises(ValueError):
            margin_of_error(0.5, 100, confidence=0.5)


class TestCampaign:
    def test_golden_run(self, kernel_interp):
        campaign = Campaign(kernel_interp)
        campaign.prepare()
        assert campaign.golden_cycles > 0
        assert campaign.total_dynamic_injectable > 0
        assert "result" in campaign.golden_capture

    def test_campaign_outcomes_sum(self, kernel_interp):
        campaign = Campaign(kernel_interp)
        result = campaign.run(60, seed=1)
        assert len(result) == 60
        assert result.counts.total == 60
        # Fault-free determinism: all four categories are possible but at
        # least some faults must be masked or SOC in this FP-heavy kernel.
        assert result.counts.masked_fraction + result.counts.soc_fraction > 0

    def test_campaign_is_deterministic(self, kernel_interp):
        c1 = Campaign(kernel_interp).run(30, seed=7)
        c2 = Campaign(kernel_interp).run(30, seed=7)
        assert [r.outcome for r in c1.records] == [r.outcome for r in c2.records]

    def test_different_seeds_differ(self, kernel_interp):
        c1 = Campaign(kernel_interp).run(30, seed=1)
        c2 = Campaign(kernel_interp).run(30, seed=2)
        sites1 = [(id(r.site.instruction), r.site.occurrence, r.site.bit) for r in c1.records]
        sites2 = [(id(r.site.instruction), r.site.occurrence, r.site.bit) for r in c2.records]
        assert sites1 != sites2

    def test_sample_site_occurrence_within_count(self, kernel_interp):
        import random

        campaign = Campaign(kernel_interp)
        campaign.prepare()
        rng = random.Random(3)
        for _ in range(50):
            site = campaign.sample_site(rng)
            assert site.occurrence >= 1
            assert 0 <= site.bit < result_bits(site.instruction)

    def test_records_with_outcome(self, kernel_interp):
        result = Campaign(kernel_interp).run(40, seed=5)
        masked = result.records_with_outcome(Outcome.MASKED)
        assert all(r.outcome is Outcome.MASKED for r in masked)


class TestFeatures:
    def test_feature_vector_shape(self):
        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        insts = injectable_instructions(module)
        X = fx.extract_many(insts)
        assert X.shape == (len(insts), NUM_FEATURES)
        assert len(FEATURE_NAMES) == NUM_FEATURES == 31

    def test_feature_categories_partition(self):
        indices = sorted(
            i for idxs in FEATURE_CATEGORIES.values() for i in idxs
        )
        assert indices == list(range(NUM_FEATURES))

    def test_instruction_category_flags(self):
        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        for inst in injectable_instructions(module):
            v = fx.extract(inst)
            if inst.opcode in ("fadd", "fmul", "add", "mul"):
                assert v[0] == 1.0  # is binary op
            if inst.opcode == "gep":
                assert v[8] == 1.0
                assert v[0] == 0.0
            if inst.opcode == "call":
                assert v[5] == 1.0

    def test_result_bytes_feature(self):
        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        for inst in injectable_instructions(module):
            v = fx.extract(inst)
            assert v[11] == inst.type.byte_size

    def test_loop_membership_feature(self):
        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        work = module.get_function("work")
        loop_values = set()
        for inst in work.instructions():
            if inst.opcode == "fmul":
                loop_values.add(fx.extract(inst)[16])
        assert loop_values == {1.0}  # the multiply lives in the loop

    def test_function_features(self):
        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        work = module.get_function("work")
        inst = next(i for i in work.instructions() if i.opcode == "fmul")
        v = fx.extract(inst)
        assert v[20] == work.instruction_count
        assert v[21] == work.block_count
        assert v[23] == 1.0  # work returns a value

    def test_forward_slice_features_nonzero_for_producers(self):
        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        work = module.get_function("work")
        inst = next(i for i in work.instructions() if i.opcode == "fmul")
        v = fx.extract(inst)
        assert v[24] > 0  # the product flows onward

    def test_extract_requires_attached_instruction(self):
        from repro.ir import BinaryOperator, const_int as ci

        module = compile_source(KERNEL)
        fx = FeatureExtractor(module)
        dangling = BinaryOperator("add", ci(1), ci(2))
        with pytest.raises(ValueError):
            fx.extract(dangling)


class TestCoverageFeatures:
    def test_feature_names_compose(self):
        from repro.features import (
            COVERAGE_FEATURE_NAMES,
            STATIC_RISK_FEATURE_NAMES,
            feature_names,
        )

        assert feature_names() == FEATURE_NAMES
        assert feature_names(include_static_risk=True) == (
            FEATURE_NAMES + STATIC_RISK_FEATURE_NAMES
        )
        assert feature_names(include_coverage=True) == (
            FEATURE_NAMES + COVERAGE_FEATURE_NAMES
        )
        both = feature_names(
            include_static_risk=True, include_coverage=True
        )
        assert both == (
            FEATURE_NAMES + STATIC_RISK_FEATURE_NAMES + COVERAGE_FEATURE_NAMES
        )

    def test_coverage_features_on_protected_module(self):
        from repro.features import feature_names
        from repro.protect import (
            FullDuplicationSelector,
            duplicate_instructions,
        )

        module = compile_source(KERNEL)
        duplicate_instructions(
            module, FullDuplicationSelector().select(module)
        )
        fx = FeatureExtractor(module, include_coverage=True)
        names = feature_names(include_coverage=True)
        esc_idx = names.index("static_escapes")
        frac_idx = names.index("static_masked_fraction")
        insts = injectable_instructions(module)
        X = fx.extract_many(insts)
        assert X.shape == (len(insts), len(names))
        assert set(X[:, esc_idx]) <= {0.0, 1.0}
        assert all(0.0 <= f <= 1.0 for f in X[:, frac_idx])
        # Full duplication: some sites must be statically covered.
        assert (X[:, esc_idx] == 0.0).any()

    def test_unprotected_module_mostly_escapes(self):
        from repro.features import feature_names

        module = compile_source(KERNEL)
        fx = FeatureExtractor(module, include_coverage=True)
        names = feature_names(include_coverage=True)
        esc_idx = names.index("static_escapes")
        insts = injectable_instructions(module)
        X = fx.extract_many(insts)
        # Without checks nothing can be DETECTED; escapes dominate.
        assert (X[:, esc_idx] == 1.0).sum() > 0
