#!/usr/bin/env python3
"""End-to-end pipeline benchmark with a per-layer ledger.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cold-hpccg --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

``--trace 0`` runs untraced jobs for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` runs untraced jobs for half the time
(the pool and checkpoint metrics), then reruns job 0 in-process,
untraced and under the span ledger in alternation, and reports the
per-layer metrics.  ``--workload all`` runs both modes on every workload.
Every metric prints in its own row with its unit and sample count,
followed by the correctness-gate verdict; the last line of a
single-workload run is the JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: set-up is repeated until a run has at least this many samples
MIN_SETUPS = 5
#: untraced/traced in-process pairs of job 0 in a --trace 1 run
TRACE_PAIRS = 2


def job_seed(seed: int, k: int) -> int:
    """The experiment seed of a run's k-th job.

    Every job of a run draws its own inputs, so a run pools several trial
    mixes: a single mix moves wall time by 10-15% from seed to seed.
    """
    return seed * 1000 + k


def _median(values):
    return statistics.median(values) if values else 0.0


def completed(results):
    return [r for r in results if not r.raised]


def run_job(job, seed, n_jobs, workdir, tag, ledger=None, replay=False):
    """One job; a raised exception becomes a result with ``raised`` set."""
    from jobs import JobResult

    try:
        if ledger is None:
            out = job.run(seed, n_jobs, workdir, tag)
        else:
            with ledger.active(), ledger.span("job"):
                out = job.run(seed, n_jobs, workdir, tag)
        job.check(out, replay=replay)
        return out
    except Exception:  # the benchmark must report, not die, on a bad job
        traceback.print_exc(file=sys.stderr)
        out = JobResult(seed)
        out.raised = True
        out.trials = job.trials
        out.problems.append(f"job raised: {sys.exc_info()[1]!r}")
        return out


def measure(job, seed, seconds, n_jobs, workdir, label, replay=False):
    """Run jobs back to back for about ``seconds`` (at least one job);
    job k runs seed ``job_seed(seed, k)``."""
    results = []
    start = time.perf_counter()
    cycles = []
    while True:
        k = len(results)
        t0 = time.perf_counter()
        results.append(run_job(job, job_seed(seed, k), n_jobs, workdir, f"{label}-{k}",
                               replay=replay and k == 0))
        cycles.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        # Start another job only if it would end, on a typical job
        # length, no later than half a job past the deadline.
        if elapsed + 0.5 * _median(cycles) > seconds:
            break
    return results


def setup_samples(job, results):
    samples = [r.setup_s for r in completed(results)]
    while len(samples) < MIN_SETUPS:
        t0 = time.perf_counter()
        job.setup()
        samples.append(time.perf_counter() - t0)
    return samples


def peak_rss_mb() -> float:
    """Highest RSS of this process or of any worker it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def end_to_end(job, results):
    """Pooled over the run's jobs: each job has its own seed, and the
    pooled figure averages their trial mixes where a median would pick one."""
    ok = completed(results)
    setups = setup_samples(job, results)
    busy = sum(r.wall_s for r in ok)
    return {
        "wall_s": (busy / len(ok) if ok else 0.0, "s", len(ok)),
        "trials_per_s": (sum(r.trials for r in ok) / busy if busy else 0.0, "1/s", len(ok)),
        "setup_s": (_median(setups), "s", len(setups)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }


def pool_metrics(results):
    """Worker-pool and checkpoint metrics of untraced jobs."""
    ok = completed(results)
    util, wait, retries, ck_bytes, ck_lines = [], [], 0, [], []
    for r in ok:
        busy = sum(s.busy_seconds for s in r.stats)
        capacity = sum(s.n_jobs * s.elapsed for s in r.stats)
        util.append(busy / capacity if capacity else 0.0)
        wait.append(capacity - busy)
        retries += sum(s.worker_deaths + s.hangs + s.retries + s.requeued for s in r.stats)
        ck_bytes.append(r.checkpoint_bytes)
        ck_lines.append(r.checkpoint_lines)
    n = len(ok)
    return {
        "pool.utilization": (_median(util), "ratio", n),
        "pool.wait_s": (_median(wait), "s", n),
        "pool.retries": (retries, "count", n),
        "checkpoint.bytes": (_median(ck_bytes), "B", n),
        "checkpoint.lines": (_median(ck_lines), "count", n),
    }


def host_record(args, job):
    import numpy

    return {
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "scale": repr(job.scale) if hasattr(job, "scale") else None,
        "plan": job.plan,
        "seed": args.seed,
        "n_jobs": job.n_jobs,
        "seconds": args.seconds,
    }


def blas_threads():
    """OpenBLAS thread count of the BLAS numpy loaded, or None if unknown."""
    import ctypes
    import glob

    import numpy

    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def gate_results(name, seed, job, results):
    """Return (attempted, failed, verdict, problems, job-0 digest).

    Jobs that ran the same experiment seed (at another worker count, or
    traced) must agree on their digest, and job 0's digest must match the
    pinned one when the seed is pinned.  A job that raised, reported a
    problem or disagrees counts all its trials as failed; otherwise its
    TRIAL_FAILURE records count.
    """
    import gate

    problems = []
    first_seed = job_seed(seed, 0)
    reference = gate.pinned(name, job.plan, seed)
    by_seed = {}  # experiment seed -> digest of its first completed job
    attempted = failed = 0
    for r in results:
        attempted += r.trials
        own = list(r.problems)
        if not r.raised:
            if r.seed in by_seed:
                gate.compare(name, r.digest, by_seed[r.seed], own, f"seed {r.seed} rerun")
            else:
                by_seed[r.seed] = r.digest
            if r.seed == first_seed and reference is not None:
                gate.compare(name, r.digest, reference, own, "pinned")
        problems += own
        failed += r.trials if r.raised or own else r.trial_failures
    first = by_seed.get(first_seed)
    if first is None:
        problems.append(f"{name}: job 0 did not complete")
    verdict = "PASS" if not problems and failed == 0 else "FAIL"
    verdict += " (pinned digest)" if reference is not None else " (unpinned seed)"
    return attempted, failed, verdict, problems, first


def run_workload(name, job, args, workdir, outdir):
    """Measure one workload in one mode; return (metrics, gate tuple)."""
    from ledger import Ledger, layer_metrics

    results = measure(job, args.seed, args.seconds / (2 if args.trace else 1),
                      job.n_jobs, workdir, "untraced", replay=True)
    if not args.trace:
        return end_to_end(job, results), gate_results(name, args.seed, job, results)

    metrics = pool_metrics(results)
    # Job 0 again, in-process (spans record only in this process), untraced
    # and traced in alternation: the pairs differ only by the ledger.
    seed0 = job_seed(args.seed, 0)
    ledger = Ledger()
    untraced, traced = [], []
    for i in range(TRACE_PAIRS):
        untraced.append(run_job(job, seed0, 1, workdir, f"serial-{i}"))
        traced.append(run_job(job, seed0, 1, workdir, f"traced-{i}",
                              ledger=ledger if i == 0 else Ledger()))
    results += untraced + traced
    ledger.dump(os.path.join(outdir, f"{name}-seed{args.seed}.spans.json"))

    metrics.update(layer_metrics(ledger))
    base = _median([r.wall_s for r in completed(untraced)])
    with_ledger = _median([r.wall_s for r in completed(traced)])
    overhead = with_ledger / base - 1.0 if base and with_ledger else 0.0
    metrics["trace.overhead_frac"] = (overhead, "ratio", TRACE_PAIRS)
    return metrics, gate_results(name, args.seed, job, results)


def print_rows(name, mode, metrics, gate_result, host):
    attempted, failed, verdict, problems, digest = gate_result
    print(f"# host {json.dumps(host, sort_keys=True)}")
    print(f"{'workload':<12} {'mode':<8} {'metric':<24} {'value':>16} {'unit':<10} samples")
    for metric, (value, unit, n) in metrics.items():
        print(f"{name:<12} {mode:<8} {metric:<24} {value:>16.6g} {unit:<10} n={n}")
    rate = failed / attempted if attempted else 1.0
    print(f"{name:<12} {mode:<8} {'trial_failure_rate':<24} {rate:>16.6g} "
          f"{'ratio':<10} n={attempted}")
    print(f"gate {name} seed={host['seed']}: {verdict}; digest={json.dumps(digest, sort_keys=True)}")
    for problem in problems:
        print(f"gate problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from jobs import make_jobs

    all_jobs = make_jobs()
    if args.workload != "all" and args.workload not in all_jobs:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(all_jobs)} or 'all'")
    names = sorted(all_jobs) if args.workload == "all" else [args.workload]
    modes = (0, 1) if args.workload == "all" else (args.trace,)

    scratch = os.path.join(ROOT, ".perfbench_tmp")
    outdir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(scratch, exist_ok=True)
    os.makedirs(outdir, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    all_pass = True
    try:
        for name in names:
            job = all_jobs[name]
            for mode in modes:
                args.trace = mode
                metrics, gate_result = run_workload(name, job, args, workdir, outdir)
                host = host_record(args, job)
                print_rows(name, "traced" if mode else "e2e", metrics, gate_result, host)
                attempted, failed, verdict, _problems, _digest = gate_result
                all_pass = all_pass and verdict.startswith("PASS")
    finally:
        # Campaign pools join their workers; make sure none outlives the run.
        for child in multiprocessing.active_children():
            child.terminate()
            child.join()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.workload == "all":
        return 0 if all_pass else 1
    result = {
        "correct": verdict.startswith("PASS"),
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": unit}
            for metric, (value, unit, _n) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
