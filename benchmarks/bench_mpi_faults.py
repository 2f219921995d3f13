"""Extension: fault injection into parallel MPI jobs.

The paper evaluates coverage on single-process runs (§6) while noting that
FlipIt can inject into random MPI ranks (§4.1) and that one rank's failure
aborts the job (§4.4.1).  This bench closes the loop: the same IPAS-best
protected binary is fault-injected serially and at 4 simulated ranks, and
the job-level outcome mixes are compared — detections propagate across
ranks, and the coverage shape survives parallel execution.
"""

import pytest

from repro.experiments import (
    banner,
    best_by_ideal_point,
    best_protected_variant,
    format_table,
    outcome_row,
    run_full_evaluation,
)
from repro.experiments import cache
from repro.faults import Campaign
from repro.workloads import get_workload

from conftest import one_shot

WORKLOAD = "is"
RANKS = 4


def _compute(scale):
    key = f"mpifaults-{WORKLOAD}-r{RANKS}-{scale.cache_key()}-s0"
    hit = cache.load(key)
    if hit is not None:
        return hit
    workload = get_workload(WORKLOAD)
    full = run_full_evaluation(WORKLOAD, scale)
    best = best_by_ideal_point(full["ipas"])
    variant = best_protected_variant(WORKLOAD, scale, best_config=best.get("config"))

    trials = scale.eval_trials
    serial = Campaign(
        workload.make_interpreter(1, module=variant.module),
        verifier=workload.verifier(),
        budget_factor=workload.budget_factor,
    ).run(trials, seed=123)
    job = workload.make_job(RANKS, 1, module=variant.module)
    parallel = Campaign(
        job, verifier=workload.verifier(), budget_factor=workload.budget_factor
    ).run(trials, seed=123)
    result = {
        "workload": WORKLOAD,
        "ranks": RANKS,
        "trials": trials,
        "serial": serial.counts.as_dict(),
        "parallel": parallel.counts.as_dict(),
    }
    cache.store(key, result)
    return result


def test_mpi_fault_injection(benchmark, report, scale):
    result = one_shot(benchmark, lambda: _compute(scale))

    headers = ["campaign", "symptom", "detected", "masked", "SOC"]
    rows = [
        ["serial (1 proc)", *outcome_row(result["serial"])],
        [f"parallel ({RANKS} ranks)", *outcome_row(result["parallel"])],
    ]
    text = banner(
        f"Extension: fault injection in MPI jobs — {WORKLOAD}, "
        f"best IPAS config, {result['trials']} trials"
    ) + "\n"
    text += format_table(headers, rows)
    text += (
        "\nDetections on any rank abort the whole job (paper §4.4.1), so the"
        "\njob-level detected fraction tracks the serial one."
    )
    report("mpi_faults", text)

    serial = result["serial"]
    parallel = result["parallel"]
    # The protection works in parallel: detections occur, SOC stays low.
    assert parallel["detected"] > 0.15
    assert parallel["soc"] <= serial["soc"] + 0.10
    # The coverage shape survives: masked dominates SOC in both.
    assert parallel["masked"] > parallel["soc"]
