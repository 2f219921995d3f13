"""The benchmark's three workloads, as batch jobs.

Every job is one experiment: set up (compile, golden run, and for
``warm-fft3`` the ladder capture), then the timed work, then the
correctness checks, which run after the clock stops.  The benchmark
runs jobs one at a time from one process (a closed loop); a job forks at
most ``n_jobs`` campaign workers and waits for them before it returns.
"""

from __future__ import annotations

import os
import time
from typing import Dict, List

import gate

#: trials re-run cold and in-process to cross-check a campaign job's
#: first records (warm-start and worker IPC must not change outcomes)
REPLAY_TRIALS = 6


class JobResult:
    """What one job measured and what its checks found."""

    def __init__(self, seed: int):
        #: the experiment seed this job ran
        self.seed = seed
        #: the job raised instead of completing
        self.raised = False
        self.setup_s = 0.0
        self.wall_s = 0.0
        self.trials = 0
        self.trial_failures = 0
        #: gate data: a digest string, or a dict of digests and top-N lists
        self.digest = None
        self.problems: List[str] = []
        #: CampaignStats of every campaign the job ran
        self.stats: List = []
        self.checkpoint_bytes = 0
        self.checkpoint_lines = 0
        #: what run() produced, for check() to inspect after the clock stops
        self.raw = None


def _count_failures(records) -> int:
    from repro.faults.outcomes import Outcome

    return sum(1 for r in records if r.outcome is Outcome.TRIAL_FAILURE)


class CampaignJob:
    """One fault-injection campaign on one workload input."""

    def __init__(self, workload: str, input_id: int, trials: int, n_jobs: int,
                 warm: bool, checkpoint: bool):
        self.workload = workload
        self.input_id = input_id
        self.trials = trials
        self.n_jobs = n_jobs
        self.warm = warm
        self.checkpoint = checkpoint

    @property
    def plan(self) -> str:
        """The job's size, as the pinned digests record it."""
        return f"{self.workload} input {self.input_id}, {self.trials} trials"

    def _campaign(self, interp, workload, warm: bool):
        from repro.faults.campaign import Campaign

        return Campaign(
            interp,
            verifier=workload.verifier(),
            entry=workload.entry,
            budget_factor=workload.budget_factor,
            warm_start=warm,
        )

    def setup(self):
        """Compile, golden run, and (warm) ladder capture."""
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload)
        interp = workload.make_interpreter(self.input_id, module=workload.compile())
        campaign = self._campaign(interp, workload, self.warm)
        campaign.prepare()
        if self.warm:
            campaign.ensure_ladder()
        return campaign

    def run(self, seed: int, n_jobs: int, workdir: str, tag: str) -> JobResult:
        """Set up, then run the campaign; both timed."""
        out = JobResult(seed)
        t0 = time.perf_counter()
        campaign = self.setup()
        out.setup_s = time.perf_counter() - t0

        path = os.path.join(workdir, f"{tag}.ckpt") if self.checkpoint else None
        t0 = time.perf_counter()
        result = campaign.run(self.trials, seed=seed, n_jobs=n_jobs, checkpoint_path=path)
        out.wall_s = time.perf_counter() - t0
        out.raw = (campaign, result, path)
        return out

    def check(self, out: JobResult, replay: bool = False) -> None:
        """Digest the records, read the checkpoint, optionally replay cold."""
        campaign, result, path = out.raw
        out.raw = None
        out.trials = len(result.records)
        out.trial_failures = _count_failures(result.records)
        out.stats.append(result.stats)
        if path is not None:
            out.checkpoint_bytes = os.path.getsize(path)
            with open(path, "rb") as fh:
                out.checkpoint_lines = sum(1 for _ in fh)
            os.remove(path)
        module = campaign.interp.module
        out.digest = gate.records_digest(result.records, module)
        if out.trials != self.trials:
            out.problems.append(f"{out.trials} records for {self.trials} trials")
        if replay:
            self._replay(campaign, result.records, out.problems)

    def _replay(self, campaign, records, problems: List[str]) -> None:
        """Re-run the first trials cold, serially, and compare records."""
        from repro.workloads.registry import get_workload

        cold = self._campaign(campaign.interp, get_workload(self.workload), warm=False)
        for record in records[:REPLAY_TRIALS]:
            again = cold.run_site(record.site)
            if (again.outcome, again.status, again.cycles) != (
                record.outcome, record.status, record.cycles
            ):
                problems.append(
                    f"cold replay of {record.site!r}: {again.outcome.value}/"
                    f"{again.status}/{again.cycles} != {record.outcome.value}/"
                    f"{record.status}/{record.cycles}"
                )


class PipelineJob:
    """``run_full_evaluation`` on one workload: the paper experiment."""

    #: campaigns that do not depend on training, in the order
    #: ``run_full_evaluation`` runs them
    FIXED_ROLES = ("unprotected", "full", "static", "collection")

    def __init__(self, workload: str, scale, n_jobs: int):
        self.workload = workload
        self.scale = scale
        self.n_jobs = n_jobs

    @property
    def plan(self) -> str:
        """The job's size, as the pinned digests record it."""
        return f"{self.workload} full evaluation, {self.scale.cache_key()}"

    @property
    def trials(self) -> int:
        s = self.scale
        return s.train_samples + s.eval_trials * (3 + 2 * s.top_n)

    def setup(self):
        """Compile and golden-run the unprotected program (input 1)."""
        from repro.faults.campaign import Campaign
        from repro.workloads.registry import get_workload

        workload = get_workload(self.workload)
        interp = workload.make_interpreter(1, module=workload.compile())
        campaign = Campaign(
            interp, verifier=workload.verifier(), entry=workload.entry,
            budget_factor=workload.budget_factor,
        )
        campaign.prepare()
        return campaign

    def run(self, seed: int, n_jobs: int, workdir: str, tag: str) -> JobResult:
        """Set up, then run the full evaluation; both timed."""
        from repro.experiments.full_eval import run_full_evaluation
        from repro.faults.campaign import Campaign

        out = JobResult(seed)
        t0 = time.perf_counter()
        self.setup()
        out.setup_s = time.perf_counter() - t0

        # Keep every campaign's records for the gate; the hook only
        # appends a reference per campaign, so it costs nothing measurable.
        captured = []
        original = Campaign.run

        def capture(campaign, *args, **kwargs):
            result = original(campaign, *args, **kwargs)
            captured.append((campaign, result))
            return result

        Campaign.run = capture
        try:
            t0 = time.perf_counter()
            result = run_full_evaluation(
                self.workload, self.scale, seed=seed, use_cache=False, n_jobs=n_jobs
            )
            out.wall_s = time.perf_counter() - t0
        finally:
            Campaign.run = original
        out.raw = (captured, result)
        return out

    def check(self, out: JobResult, replay: bool = False) -> None:
        """Digest every campaign and collect the top-N configurations."""
        captured, result = out.raw
        out.raw = None
        out.trials = sum(len(r.records) for _c, r in captured)
        out.trial_failures = sum(_count_failures(r.records) for _c, r in captured)
        out.stats = [r.stats for _c, r in captured]
        out.digest = self._digest(captured, result, out.problems)
        if out.trials != self.trials:
            out.problems.append(f"{out.trials} trials for {self.trials} planned")

    def _digest(self, captured, result: Dict, problems: List[str]) -> Dict:
        top_n = self.scale.top_n
        roles = list(self.FIXED_ROLES)
        roles += [f"ipas{i + 1}" for i in range(top_n)]
        roles += [f"baseline{i + 1}" for i in range(top_n)]
        if len(captured) != len(roles):
            problems.append(f"{len(captured)} campaigns, expected {len(roles)}")
            return {}
        digests = {
            role: gate.records_digest(r.records, c.interp.module)
            for role, (c, r) in zip(roles, captured)
        }
        # The role order is an assumption about run_full_evaluation:
        # confirm it against the counts the result dict reports.
        reported = {
            "unprotected": result["unprotected"]["counts"],
            "full": result["full"]["counts"],
            "static": result["static"]["counts"],
            "collection": result["training_outcomes"],
        }
        for role, (c, r) in zip(roles, captured):
            if role in reported and r.counts.as_dict() != reported[role]:
                problems.append(f"campaign order: {role} counts disagree")
        top = {
            bucket: [
                [e["config"]["C"], e["config"]["gamma"], e["config"]["fscore"]]
                for e in result[bucket]
            ]
            for bucket in ("ipas", "baseline")
        }
        return {"campaigns": digests, "top": top}


def make_jobs(tiny: bool = False) -> Dict[str, object]:
    """name -> job; ``tiny`` shrinks every job for the self-test."""
    from repro.core.scale import ExperimentScale

    n_jobs = max(1, min(2, os.cpu_count() or 1))
    if tiny:
        scale = ExperimentScale(40, 2, 8, 1, name="tiny")
    else:
        # Smaller than the "quick" preset so that a run pools several
        # experiments (seeds): one experiment's wall time moves by about
        # 15% from seed to seed, with training converging faster or slower.
        scale = ExperimentScale(120, 8, 32, 2, name="perfbench")
    # Why each workload: see perfbench/README.md ("Workloads").
    return {
        "pipeline-is": PipelineJob("is", scale, n_jobs),
        "cold-hpccg": CampaignJob(
            "hpccg", 1, 6 if tiny else 128, n_jobs, warm=False, checkpoint=True,
        ),
        "warm-fft3": CampaignJob(
            "fft", 3, 6 if tiny else 96, 1, warm=True, checkpoint=False,
        ),
    }
