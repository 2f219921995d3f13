"""Property suite for warm-start (snapshot-ladder) campaign execution.

The tentpole contract: a warm-start campaign — every trial restored from
the golden-run ladder rung just before its injection point and executed
only for its suffix — produces outcome records *bit-identical* to the
historical cold-start campaign, for every registered workload, any
snapshot stride, and any worker count.  That includes the recovery
runtime's rollback telemetry and the harness paths (chaos kills,
quarantine, checkpoint resume).
"""

import pytest

from repro import compile_source
from repro.faults import (
    Campaign,
    CampaignStats,
    CheckpointWarning,
    Outcome,
    SupervisorPolicy,
    TrialRecord,
    campaign_fingerprint,
    fork_available,
)
from repro.faults.chaos import ChaosMonkey, parse_chaos_spec
from repro.faults.outcomes import OutcomeCounts
from repro.interp import Interpreter
from repro.recover import RecoveryPolicy, SnapshotLadder, WarmSnapshot, WarmStart
from repro.workloads import WORKLOAD_NAMES, get_workload

KERNEL = """
int n = 14;
output double result[4];

double work(double a[], int n) {
    double s = 0.0;
    for (int i = 0; i < n; i = i + 1) {
        s = s + a[i] * a[i];
    }
    return sqrt(s);
}

void main() {
    double x[16];
    for (int i = 0; i < n; i = i + 1) { x[i] = (double)(i + 1); }
    result[0] = work(x, n);
    result[1] = (double)n;
}
"""

N_TRIALS = 24
SEED = 11

needs_fork = pytest.mark.skipif(
    not fork_available(), reason="supervised pool needs the fork start method"
)


def make_campaign(**kwargs):
    return Campaign(Interpreter(compile_source(KERNEL, name="kernel")), **kwargs)


def make_workload_campaign(name, **kwargs):
    workload = get_workload(name)
    return Campaign(
        workload.make_interpreter(1),
        verifier=workload.verifier(),
        entry=workload.entry,
        budget_factor=workload.budget_factor,
        **kwargs,
    )


def record_key(record):
    """Everything observable about a trial, including recovery telemetry."""
    return (
        record.site.instruction.opcode,
        record.site.occurrence,
        record.site.bit,
        record.outcome,
        record.status,
        record.cycles,
        record.recovery.as_dict() if record.recovery is not None else None,
    )


def keys(result):
    return [record_key(r) for r in result.records]


class TestLadderStructure:
    def test_rungs_cover_the_run(self):
        campaign = make_campaign(warm_start=True, snapshot_stride=5)
        ladder = campaign.ensure_ladder()
        assert isinstance(ladder, SnapshotLadder)
        assert ladder.stride == 5
        assert ladder.golden_cycles == campaign.golden_cycles
        assert ladder.snapshots, "a multi-hundred-cycle run must capture rungs"
        cycles = [s.cycles for s in ladder.snapshots]
        assert cycles == sorted(cycles)
        assert len(set(cycles)) == len(cycles)
        for i, snap in enumerate(ladder.snapshots):
            assert isinstance(snap, WarmSnapshot)
            assert snap.index == i
            assert snap.frames  # at least the entry frame is live
            assert len(snap.cells) == len(campaign.interp.cells)

    def test_ladder_is_captured_once(self):
        campaign = make_campaign(warm_start=True)
        assert campaign.ensure_ladder() is campaign.ensure_ladder()

    def test_auto_stride_targets_default_rung_count(self):
        campaign = make_campaign(warm_start=True)
        expected = max(campaign.golden_cycles // Campaign.DEFAULT_LADDER_RUNGS, 1)
        assert campaign.effective_stride == expected

    def test_signature_names_the_stride(self):
        campaign = make_campaign(warm_start=True, snapshot_stride=7)
        assert campaign.ensure_ladder().signature() == "warm1|7"

    def test_stride_must_be_positive(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        with pytest.raises(ValueError):
            interp.capture_ladder(stride=0)


class TestBitIdentity:
    @pytest.fixture(scope="class")
    def cold_baseline(self):
        return keys(make_campaign().run(N_TRIALS, seed=SEED))

    def test_warm_equals_cold(self, cold_baseline):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED)
        assert keys(result) == cold_baseline
        assert result.stats.warm_restores > 0

    def test_warm_equals_cold_at_tiny_stride(self, cold_baseline):
        result = make_campaign(warm_start=True, snapshot_stride=1).run(
            N_TRIALS, seed=SEED
        )
        assert keys(result) == cold_baseline

    def test_warm_equals_cold_at_huge_stride(self, cold_baseline):
        # A stride past golden_cycles leaves at most the earliest rungs;
        # trials mostly run cold and must still match exactly.
        result = make_campaign(warm_start=True, snapshot_stride=10**9).run(
            N_TRIALS, seed=SEED
        )
        assert keys(result) == cold_baseline

    @needs_fork
    def test_warm_parallel_equals_cold_serial(self, cold_baseline):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED, n_jobs=2)
        assert keys(result) == cold_baseline
        assert result.stats.warm_restores > 0

    def test_warm_stats_are_reported(self):
        result = make_campaign(warm_start=True).run(N_TRIALS, seed=SEED)
        stats = result.stats
        assert stats.warm_restores > 0
        assert stats.warm_cycles_saved > 0
        warm = stats.as_dict()["warm_start"]
        assert warm["restores"] == stats.warm_restores
        assert warm["golden_resyncs"] == stats.golden_resyncs
        assert warm["prefix_cycles_saved"] == stats.warm_cycles_saved
        assert "[warm" in stats.progress_line()


@pytest.mark.parametrize("name", sorted(WORKLOAD_NAMES))
class TestAllWorkloads:
    """Warm==cold on every registered workload, injected faults included."""

    def test_warm_equals_cold(self, name):
        trials, seed = 20, 0
        cold = make_workload_campaign(name).run(trials, seed=seed)
        warm = make_workload_campaign(name, warm_start=True).run(trials, seed=seed)
        assert keys(warm) == keys(cold)
        assert warm.counts.as_dict() == cold.counts.as_dict()
        assert warm.stats.warm_restores > 0


class TestRecoveryPath:
    """Warm-start under the rollback runtime: CORRECTED trials and their
    telemetry must replay bit-identically (resync is disabled there)."""

    @staticmethod
    def _campaign(warm_start=False):
        from repro.protect import FullDuplicationSelector, duplicate_instructions

        workload = get_workload("fft")
        module = workload.compile()
        duplicate_instructions(module, FullDuplicationSelector().select(module))
        return Campaign(
            workload.make_interpreter(1, module=module),
            verifier=workload.verifier(),
            entry=workload.entry,
            budget_factor=workload.budget_factor,
            recovery=RecoveryPolicy(),
            warm_start=warm_start,
        )

    def test_warm_equals_cold_with_recovery(self):
        trials, seed = 40, 7
        cold = self._campaign().run(trials, seed=seed)
        warm = self._campaign(warm_start=True).run(trials, seed=seed)
        assert keys(warm) == keys(cold)
        assert cold.counts.counts[Outcome.CORRECTED] >= 1, (
            "seed must exercise the rollback path for this test to mean anything"
        )
        assert warm.stats.golden_resyncs == 0  # resync is off under recovery
        assert warm.stats.warm_restores > 0

    @needs_fork
    def test_stats_identical_across_worker_counts(self):
        # Everything the stats ledger derives from trial results — outcome
        # tallies, warm-start and recovery telemetry — must survive the
        # worker wire unchanged.  Wall-clock, harness and n_jobs fields
        # legitimately differ between the two runs.
        trials, seed = 40, 7
        timing = {
            "n_jobs", "elapsed_seconds", "trials_per_second",
            "worker_utilization", "busy_seconds", "latency_mean_ms",
            "latency_max_ms", "latency_histograms", "harness",
        }

        def ledger(n_jobs):
            result = self._campaign(warm_start=True).run(
                trials, seed=seed, n_jobs=n_jobs
            )
            data = result.stats.as_dict()
            return {k: v for k, v in data.items() if k not in timing}

        serial, sharded = ledger(1), ledger(2)
        assert serial == sharded
        assert serial["recovery"]["corrected"] >= 1
        assert serial["warm_start"]["restores"] > 0


@needs_fork
class TestHarnessPaths:
    def test_poisoned_trial_quarantined_warm(self, tmp_path):
        chaos = ChaosMonkey(kill_at=[9], once=False, state_dir=str(tmp_path / "c"))
        result = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, n_jobs=2,
            supervision=SupervisorPolicy(max_retries=1), chaos=chaos,
        )
        assert result.records[9].outcome is Outcome.TRIAL_FAILURE
        assert result.counts.counts[Outcome.TRIAL_FAILURE] == 1
        cold = make_campaign().run(N_TRIALS, seed=SEED)
        surviving = [k for i, k in enumerate(keys(result)) if i != 9]
        assert surviving == [k for i, k in enumerate(keys(cold)) if i != 9]

    def test_killed_worker_bit_identical_warm(self, tmp_path):
        chaos = parse_chaos_spec("kill@5", state_dir=str(tmp_path / "c"))
        result = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, n_jobs=2, chaos=chaos
        )
        assert keys(result) == keys(make_campaign().run(N_TRIALS, seed=SEED))
        assert result.stats.worker_deaths >= 1


class TestCheckpointIsolation:
    """Warm and cold checkpoints must never mix: the fingerprint differs."""

    def test_fingerprint_differs_and_encodes_stride(self):
        cold = campaign_fingerprint(make_campaign(), N_TRIALS, SEED)
        warm = campaign_fingerprint(make_campaign(warm_start=True), N_TRIALS, SEED)
        warm5 = campaign_fingerprint(
            make_campaign(warm_start=True, snapshot_stride=5), N_TRIALS, SEED
        )
        assert cold != warm
        assert warm != warm5

    def test_warm_resumes_its_own_checkpoint(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        first = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, checkpoint_path=path
        )
        resumed = make_campaign(warm_start=True).run(
            N_TRIALS, seed=SEED, checkpoint_path=path
        )
        assert resumed.stats.resumed == N_TRIALS
        assert keys(resumed) == keys(first)

    def test_cold_checkpoint_discarded_by_warm_campaign(self, tmp_path):
        path = str(tmp_path / "ck.jsonl")
        make_campaign().run(N_TRIALS, seed=SEED, checkpoint_path=path)
        with pytest.warns(CheckpointWarning, match="fingerprint"):
            resumed = make_campaign(warm_start=True).run(
                N_TRIALS, seed=SEED, checkpoint_path=path
            )
        assert resumed.stats.resumed == 0
        assert keys(resumed) == keys(make_campaign().run(N_TRIALS, seed=SEED))


class TestResetImage:
    """The precomputed reset image (satellite perf fix) must track overrides."""

    def test_override_lands_in_reset_image(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        base = interp.run().cycles
        interp.set_global_override("n", 6)
        shorter = interp.run()
        assert shorter.status == "ok"
        assert shorter.cycles < base
        assert interp.read_global("n") == 6
        # Override persists across resets via the cached image.
        assert interp.run().cycles == shorter.cycles

    def test_clearing_overrides_invalidates_the_image(self):
        interp = Interpreter(compile_source(KERNEL, name="kernel"))
        base = interp.run().cycles
        interp.set_global_override("n", 6)
        interp.run()
        interp.clear_global_overrides()
        assert interp.run().cycles == base


class TestSlots:
    def test_per_trial_hot_objects_are_slotted(self):
        for cls in (CampaignStats, OutcomeCounts, TrialRecord, WarmSnapshot, WarmStart):
            assert "__dict__" not in cls.__dict__, f"{cls.__name__} grew a __dict__"
        stats = CampaignStats(1, 1)
        counts = OutcomeCounts()
        with pytest.raises(AttributeError):
            stats.not_a_field = 1
        with pytest.raises(AttributeError):
            counts.not_a_field = 1
