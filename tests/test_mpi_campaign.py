"""Tests for fault injection into parallel (simulated MPI) jobs."""

import hashlib
import random

import pytest

from repro.faults import Campaign, Outcome
from repro.protect import FullDuplicationSelector, duplicate_instructions
from repro.recover import RecoveryPolicy
from repro.workloads import get_workload

RANKS = 3
TRIALS = 30

#: Digests of the 3-rank ``is`` input-1 campaign, 30 trials, seed 5, as
#: recorded by the former dedicated MPI campaign engine.  ``Campaign(job)``
#: must reproduce them exactly: same sampler, same job-level taxonomy.
UNPROTECTED_DIGEST = "8ae54de3991ffb7444f37e2cd3c8a6eecfe14d1519352bcc7fceaeff29e415cd"
RECOVERY_DIGEST = "b9cca626721c3e74c7d0a9d136a944c385ae6049177348c0e73cda3ac621edae"


def plan_digest(campaign, result) -> str:
    """SHA-256 over (rank, site_index, occurrence, bit, outcome, status)
    of every trial, in trial order."""
    h = hashlib.sha256()
    for r in result.records:
        row = (
            r.site.rank,
            campaign.site_index(r.site),
            r.site.occurrence,
            r.site.bit,
            r.outcome.value,
            r.status,
        )
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


@pytest.fixture(scope="module")
def workload():
    return get_workload("is")


@pytest.fixture(scope="module")
def campaign(workload):
    job = workload.make_job(RANKS, 1)
    c = Campaign(job, verifier=workload.verifier(), budget_factor=workload.budget_factor)
    c.prepare()
    return c


@pytest.fixture(scope="module")
def seeded_result(campaign):
    return campaign.run(TRIALS, seed=5)


def protected_job(workload):
    module = workload.compile()
    duplicate_instructions(module, FullDuplicationSelector().select(module))
    return workload.make_job(RANKS, 1, module=module)


class TestMpiCampaign:
    def test_golden_run_and_population(self, campaign):
        assert campaign.golden_cycles > 0
        assert campaign._total_weight > 0
        # one profile per rank: every rank contributes fault sites
        assert {rank for rank, _inst, _count in campaign._sites} == set(range(RANKS))

    def test_sampling_covers_multiple_ranks(self, campaign):
        rng = random.Random(0)
        ranks = {campaign.sample_site(rng).rank for _ in range(60)}
        assert len(ranks) > 1  # faults land in different ranks

    def test_outcomes_classified(self, seeded_result):
        result = seeded_result
        assert result.counts.total == TRIALS
        # Unprotected: never "detected"; some faults must propagate somehow.
        assert result.counts.detected_fraction == 0.0
        assert (
            result.counts.symptom_fraction
            + result.counts.masked_fraction
            + result.counts.soc_fraction
        ) == pytest.approx(1.0)

    def test_unprotected_digest_pinned(self, campaign, seeded_result):
        assert plan_digest(campaign, seeded_result) == UNPROTECTED_DIGEST

    def test_recovery_digest_pinned(self, workload):
        campaign = Campaign(
            protected_job(workload),
            verifier=workload.verifier(),
            budget_factor=workload.budget_factor,
            recovery=RecoveryPolicy(),
        )
        result = campaign.run(TRIALS, seed=5, n_jobs=2)
        assert plan_digest(campaign, result) == RECOVERY_DIGEST

    def test_deterministic(self, campaign):
        r1 = campaign.run(15, seed=9)
        r2 = campaign.run(15, seed=9)
        assert [x.outcome for x in r1.records] == [x.outcome for x in r2.records]
        assert [x.site.rank for x in r1.records] == [x.site.rank for x in r2.records]

    def test_protected_job_detects_across_ranks(self, workload):
        campaign = Campaign(
            protected_job(workload),
            verifier=workload.verifier(),
            budget_factor=workload.budget_factor,
        )
        result = campaign.run(TRIALS, seed=5)
        # A detection on any rank surfaces as a job-level detection.
        assert result.counts.detected_fraction > 0.2
        assert result.counts.soc_fraction <= 0.1
        detected_ranks = {
            r.site.rank for r in result.records if r.outcome is Outcome.DETECTED
        }
        assert detected_ranks  # at least one rank caught a fault

    def test_parallel_shape_matches_serial(self, workload, seeded_result):
        """Job-level outcome mix tracks the serial campaign's shape."""
        serial = Campaign(
            workload.make_interpreter(1),
            verifier=workload.verifier(),
            budget_factor=workload.budget_factor,
        ).run(TRIALS, seed=5)
        parallel = seeded_result
        # Masking dominates SOC in both worlds.
        assert serial.counts.masked_fraction > serial.counts.soc_fraction
        assert parallel.counts.masked_fraction > parallel.counts.soc_fraction
