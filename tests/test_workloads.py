"""Tests for the evaluation workloads (paper Tables 2, 3, 5) plus the
long-horizon ``particles`` N-body workload."""

import pytest

from repro.faults import Campaign, Outcome
from repro.interp import Interpreter
from repro.ir import verify_module
from repro.workloads import (
    WORKLOAD_NAMES,
    all_workloads,
    get_workload,
)

ALL = list(WORKLOAD_NAMES)


@pytest.fixture(scope="module")
def compiled():
    """Compile each workload once for the whole module."""
    result = {}
    for name in ALL:
        w = get_workload(name)
        result[name] = (w, w.compile())
    return result


class TestRegistry:
    def test_registered_workloads(self):
        assert ALL == ["comd", "hpccg", "amg", "fft", "is", "particles"]
        assert len(all_workloads()) == 6

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="available"):
            get_workload("linpack")

    def test_case_insensitive(self):
        assert get_workload("CoMD").name == "comd"


class TestCompilation:
    @pytest.mark.parametrize("name", ALL)
    def test_compiles_and_verifies(self, compiled, name):
        _, module = compiled[name]
        verify_module(module)
        assert module.static_instruction_count > 100

    @pytest.mark.parametrize("name", ALL)
    def test_has_output_globals(self, compiled, name):
        _, module = compiled[name]
        assert module.output_globals()

    def test_table3_size_ordering(self, compiled):
        """Paper Table 3: FFT is the smallest code; mini-apps are larger
        than kernels in lines of code."""
        loc = {name: compiled[name][0].lines_of_code for name in ALL}
        assert loc["fft"] < loc["comd"]
        assert loc["is"] < loc["amg"]

    @pytest.mark.parametrize("name", ALL)
    def test_four_inputs(self, compiled, name):
        workload, _ = compiled[name]
        assert set(workload.inputs) == {1, 2, 3, 4}
        assert set(workload.input_labels) == {1, 2, 3, 4}


class TestGoldenRuns:
    @pytest.mark.parametrize("name", ALL)
    def test_runs_clean_and_verifies(self, compiled, name):
        workload, module = compiled[name]
        interp = workload.make_interpreter(1, module=module)
        result = interp.run()
        assert result.status == "ok", result.error
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        assert verifier.check(interp, golden)

    @pytest.mark.parametrize("name", ALL)
    def test_deterministic(self, compiled, name):
        workload, module = compiled[name]
        interp = workload.make_interpreter(1, module=module)
        r1 = interp.run()
        r2 = interp.run()
        assert r1.cycles == r2.cycles

    @pytest.mark.parametrize("name", ALL)
    def test_larger_input_costs_more(self, compiled, name):
        workload, module = compiled[name]
        small = workload.make_interpreter(1, module=module)
        c_small = small.run().cycles
        large = workload.make_interpreter(2, module=module)
        c_large = large.run().cycles
        assert c_large > c_small


class TestMpiConsistency:
    @pytest.mark.parametrize("name", ALL)
    def test_two_ranks_match_serial_outputs(self, compiled, name):
        workload, module = compiled[name]
        serial = workload.make_interpreter(1, module=module)
        assert serial.run().status == "ok"
        job = workload.make_job(2, 1, module=workload.compile())
        result = job.run()
        assert result.status == "ok"
        for gv in module.output_globals():
            a = serial.read_global(gv.name)
            b = job.read_global(gv.name, 0)
            if isinstance(a, list):
                for x, y in zip(a, b):
                    assert x == pytest.approx(y, rel=1e-9, abs=1e-12)
            else:
                assert a == pytest.approx(b, rel=1e-9, abs=1e-12)


class TestCampaignConstructor:
    def test_defaults_and_overrides(self, compiled):
        workload, module = compiled["fft"]
        campaign = workload.campaign(2, module=module)
        assert campaign.interp.module is module
        assert campaign.interp.global_overrides == workload.inputs[2]
        assert (campaign.entry, campaign.budget_factor) == ("main", workload.budget_factor)
        assert type(campaign.verifier) is type(workload.verifier())
        custom = workload.campaign(module=module, budget_factor=3.0, fault_model="persistent")
        assert custom.budget_factor == 3.0
        assert custom.fault_model.spec() == "persistent"


class TestFaultSensitivity:
    """Every workload must exhibit the full outcome taxonomy under faults
    — otherwise it cannot train IPAS."""

    @pytest.mark.parametrize("name", ["is", "comd", "hpccg"])
    def test_campaign_has_soc_and_masking(self, compiled, name):
        workload, module = compiled[name]
        interp = workload.make_interpreter(1, module=module)
        campaign = Campaign(
            interp, verifier=workload.verifier(), budget_factor=workload.budget_factor
        )
        result = campaign.run(80, seed=42)
        assert result.counts.masked_fraction > 0.0
        assert result.counts.soc_fraction > 0.0
        assert result.counts.symptom_fraction > 0.0

    def test_verifier_rejects_corrupted_output(self, compiled):
        workload, module = compiled["is"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        # Corrupt the sorted output in place: break sortedness.
        base = interp.cm.global_addr["sorted_keys"]
        interp.cells[base], interp.cells[base + 1] = 255, 0
        assert not verifier.check(interp, golden)

    def test_hpccg_verifier_requires_convergence(self, compiled):
        workload, module = compiled["hpccg"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        stats_base = interp.cm.global_addr["solve_stats"]
        interp.cells[stats_base + 2] = 0.0  # flip the converged flag
        assert not verifier.check(interp, golden)

    def test_comd_verifier_rejects_energy_drift(self, compiled):
        workload, module = compiled["comd"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        base = interp.cm.global_addr["energies"]
        interp.cells[base + 1] = interp.cells[base + 1] + 1.0
        assert not verifier.check(interp, golden)

    def test_amg_verifier_rejects_corrupt_input(self, compiled):
        workload, module = compiled["amg"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        base = interp.cm.global_addr["rhs"]
        interp.cells[base + 3] = interp.cells[base + 3] + 0.5
        assert not verifier.check(interp, golden)

    def test_amg_verifier_recomputes_residual(self, compiled):
        """A fault faking the converged flag must still be caught."""
        workload, module = compiled["amg"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        # Corrupt the published solution but leave the flag saying 'converged'.
        base = interp.cm.global_addr["u"]
        interp.cells[base + 10] = interp.cells[base + 10] + 100.0
        assert not verifier.check(interp, golden)

    def test_fft_verifier_l2_threshold(self, compiled):
        workload, module = compiled["fft"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        verifier = workload.verifier()
        golden = verifier.capture(interp)
        base = interp.cm.global_addr["out_re"]
        interp.cells[base] = interp.cells[base] + 1e-9
        assert verifier.check(interp, golden)  # below the 1e-6 L2 threshold
        interp.cells[base] = interp.cells[base] + 1.0
        assert not verifier.check(interp, golden)


class TestNumericalBehaviour:
    def test_hpccg_converges_on_all_inputs(self, compiled):
        workload, module = compiled["hpccg"]
        for input_id in (1, 2):
            interp = workload.make_interpreter(input_id, module=module)
            assert interp.run().status == "ok"
            stats = interp.read_global("solve_stats")
            assert stats[2] == 1.0, f"input {input_id} did not converge"

    def test_amg_converges_quickly(self, compiled):
        workload, module = compiled["amg"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        stats = interp.read_global("cycle_stats")
        assert stats[2] == 1.0
        assert stats[0] <= 12  # textbook multigrid: a handful of V-cycles

    def test_comd_energy_drift_small(self, compiled):
        workload, module = compiled["comd"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        e = interp.read_global("energies")
        assert abs(e[1] - e[0]) / abs(e[0]) < 1e-5

    def test_fft_roundtrip_accuracy(self, compiled):
        workload, module = compiled["fft"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        import math

        n = interp.read_global("param_n")
        out = interp.read_global("out_re")
        expected = math.sin(2 * math.pi * (3 / n)) + 0.5 * math.cos(
            2 * math.pi * (3 / n) * 3
        )
        assert out[3] == pytest.approx(expected, abs=1e-10)

    def test_is_output_is_sorted_permutation_of_buckets(self, compiled):
        workload, module = compiled["is"]
        interp = workload.make_interpreter(1, module=module)
        interp.run()
        nkeys = interp.read_global("param_nkeys")
        keys = interp.read_global("sorted_keys")[:nkeys]
        assert keys == sorted(keys)
        assert all(0 <= k < 256 for k in keys)


class TestToleranceVerifier:
    def test_accepts_within_tolerance(self):
        from repro.interp import run_module
        from repro.workloads import ToleranceVerifier

        source = """
        output double r[2];
        void main() { r[0] = 1.0; r[1] = 2.0; }
        """
        from repro import compile_source

        module = compile_source(source)
        _, interp = run_module(module)
        verifier = ToleranceVerifier({"r": 1e-6})
        golden = verifier.capture(interp)
        assert verifier.check(interp, golden)
        # Perturb within tolerance: still accepted.
        base = interp.cm.global_addr["r"]
        interp.cells[base] += 1e-9
        assert verifier.check(interp, golden)
        # Beyond tolerance: rejected.
        interp.cells[base] += 1.0
        assert not verifier.check(interp, golden)

    def test_rejects_nan(self):
        from repro import compile_source
        from repro.interp import run_module
        from repro.workloads import ToleranceVerifier

        module = compile_source("output double r[1];\nvoid main() { r[0] = 1.0; }")
        _, interp = run_module(module)
        verifier = ToleranceVerifier({"r": 1e-3})
        golden = verifier.capture(interp)
        interp.cells[interp.cm.global_addr["r"]] = float("nan")
        assert not verifier.check(interp, golden)

    def test_scalar_global(self):
        from repro import compile_source
        from repro.interp import run_module
        from repro.workloads import ToleranceVerifier

        module = compile_source("double s = 4.0;\nvoid main() { s = 5.0; }")
        _, interp = run_module(module)
        verifier = ToleranceVerifier({"s": 0.5})
        golden = verifier.capture(interp)
        assert verifier.check(interp, golden)
        interp.cells[interp.cm.global_addr["s"]] = 6.0
        assert not verifier.check(interp, golden)
