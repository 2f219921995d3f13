#!/usr/bin/env python3
"""The benchmark's own checks, at a tiny size (under a minute).

    python3 perfbench/selftest.py

1. Every metric named in BENCHMARK.json is emitted, with its unit, by
   every workload in the mode that reports it.
2. The correctness gate rejects a copy of a job's records with one
   outcome changed.
3. The traced ledger's self times and ``other.s`` are non-negative and
   add up to the traced wall time.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile

import run


def _check(ok: bool, what: str, failures: list) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_metrics(jobs, spec, workdir, outdir, failures) -> dict:
    """Run every workload in both modes; return the traced metrics."""
    traced = {}
    for name, job in jobs.items():
        for mode, key in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(seed=0, seconds=0.0, trace=mode)
            metrics, gate_result = run.run_workload(name, job, args, workdir, outdir)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {m: unit for m, (_v, unit, _n) in metrics.items()}
            _check(got == want, f"{name} --trace {mode} emits exactly the {key} metrics "
                                f"with their units", failures)
            verdict = gate_result[2]
            _check(verdict.startswith("PASS"), f"{name} --trace {mode} gate: {verdict}",
                   failures)
            if mode:
                traced[name] = metrics
    return traced


def check_gate_rejects(jobs, workdir, failures) -> None:
    """Gate a run whose job 0 ran twice: once as recorded, once with one
    outcome changed in a copy of its records."""
    import gate
    from jobs import JobResult
    from repro.faults.campaign import TrialRecord
    from repro.faults.outcomes import Outcome

    job = jobs["cold-hpccg"]
    out = job.run(0, 1, workdir, "gate")
    campaign, result, _path = out.raw
    job.check(out)
    records = list(result.records)
    first = records[0]
    flipped = Outcome.SOC if first.outcome is not Outcome.SOC else Outcome.MASKED
    records[0] = TrialRecord(first.site, flipped, first.status, first.cycles)
    tampered = JobResult(out.seed)
    tampered.trials = len(records)
    tampered.digest = gate.records_digest(records, campaign.interp.module)

    def verdict(rerun):
        return run.gate_results("cold-hpccg", 0, job, [out, rerun])

    _att, failed, text, _problems, _digest = verdict(tampered)
    _check(text.startswith("FAIL") and failed == tampered.trials,
           f"gate rejects a copy with one outcome changed ({text}, {failed} failed)",
           failures)
    _att, failed, text, _problems, _digest = verdict(out)
    _check(text.startswith("PASS") and failed == 0,
           f"gate accepts the untouched records ({text})", failures)


def check_ledger(traced, failures) -> None:
    for name, metrics in traced.items():
        times = {m: v for m, (v, unit, _n) in metrics.items()
                 if unit == "s" and m not in ("trace.wall_s", "pool.wait_s")}
        _check(metrics["other.s"][0] >= 0.0, f"{name}: other.s >= 0", failures)
        _check(all(v >= 0.0 for v in times.values()),
               f"{name}: every layer self time >= 0", failures)
        total = sum(times.values())
        wall = metrics["trace.wall_s"][0]
        _check(abs(total - wall) <= 1e-6 * max(wall, 1.0),
               f"{name}: self times + other.s = trace.wall_s ({total:.6f} vs {wall:.6f})",
               failures)


def main() -> int:
    sys.path.insert(0, run.SRC)
    from jobs import make_jobs

    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    jobs = make_jobs(tiny=True)
    failures: list = []
    scratch = os.path.join(run.ROOT, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    outdir = tempfile.mkdtemp(dir=scratch)
    try:
        traced = check_metrics(jobs, spec, workdir, outdir, failures)
        check_gate_rejects(jobs, workdir, failures)
        check_ledger(traced, failures)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(outdir, ignore_errors=True)
    print(f"{'FAILED' if failures else 'passed'}: {len(failures)} failing check(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
