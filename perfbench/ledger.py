"""In-memory span ledger for the traced benchmark run.

The ledger wraps public calls into the repro modules from outside: every
layer boundary listed in :data:`LAYERS` is replaced, for the duration of
a traced job, by a wrapper that records a span ``(name, start, end,
parent)`` and updates the layer's counters.  Nothing under ``src/``
changes.  Spans are kept in a list and written out once, when the run
ends (:meth:`Ledger.dump`).

A layer's *self time* is its spans' durations minus the time their child
spans cover.  Each traced job opens a root span named ``job``; its self
time is the time no layer span covers, reported as ``other``.  Because
spans nest (one thread, one process), the self times of all layers plus
``other`` add up exactly to the summed root durations: the traced wall
time.

Spans record only in the benchmark's own process.  Forked campaign
workers inherit the wrappers but their spans die with them, so traced
jobs run their campaigns with ``n_jobs=1``.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Tuple


class Ledger:
    """Spans plus per-layer counters of one traced job."""

    def __init__(self):
        #: (name, start, end, parent index or -1)
        self.spans: List[Tuple[str, float, float, int]] = []
        self._stack: List[int] = []
        self.counts: Dict[str, float] = defaultdict(float)
        #: per-trial inclusive run_site durations, seconds
        self.trial_seconds: List[float] = []
        self._restore: List[Tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            _, start, _, parent = self.spans[index]
            self.spans[index] = (name, start, time.perf_counter(), parent)

    def self_times(self) -> Dict[str, float]:
        """Seconds per span name, minus the time child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Dict[str, float] = defaultdict(float)
        for i, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] += (end - start) - child_time[i]
        return dict(totals)

    def wall(self) -> float:
        """Summed duration of the root spans (the traced wall time)."""
        return sum(end - start for _n, start, end, parent in self.spans if parent < 0)

    def dump(self, path: str) -> None:
        rows = [
            {"name": n, "start": s, "end": e, "parent": p}
            for n, s, e, p in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, after=None, when=None) -> Callable:
        ledger = self

        def wrapper(*args, **kwargs):
            if when is not None and not when(*args):
                return fn(*args, **kwargs)
            with ledger.span(name):
                t0 = time.perf_counter()
                result = fn(*args, **kwargs)
                seconds = time.perf_counter() - t0
            if after is not None:
                after(ledger, args, result, seconds)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def patch_method(self, cls, attr: str, name: str, after=None, when=None) -> None:
        original = cls.__dict__[attr]
        self._restore.append((cls, attr, original))
        setattr(cls, attr, self._wrap(name, original, after, when))

    def patch_function(self, module, attr: str, name: str, after=None) -> None:
        """Rebind a module-level function in every ``repro`` module that
        imported it by name, so calls through any binding are timed."""
        original = getattr(module, attr)
        wrapped = self._wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def install(self) -> None:
        for install_layer in LAYERS:
            install_layer(self)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    @contextmanager
    def active(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# -- layer boundaries -----------------------------------------------------------
#
# One installer per repo module.  Each names the public call it times and
# the counters it reads from the call's arguments or result.


def _count(key: str):
    """An ``after`` hook that counts calls under ``key``."""
    def after(ledger, args, result, seconds):
        ledger.counts[key] += 1
    return after


def _frontend(ledger: Ledger) -> None:
    from repro.workloads.base import Workload

    ledger.patch_method(Workload, "compile", "compile", _count("compile.calls"))


def _golden(ledger: Ledger) -> None:
    from repro.faults.campaign import Campaign

    def after(ledger, args, result, seconds):
        ledger.counts["golden.runs"] += 1
        ledger.counts["golden.cycles"] += args[0]._golden_cycles

    # Only the call that actually runs the golden execution is a span;
    # the many no-op re-entries would only add tracing cost.
    ledger.patch_method(
        Campaign, "prepare", "golden", after,
        when=lambda self: self._golden_cycles is None,
    )


def _ladder(ledger: Ledger) -> None:
    from repro.faults.campaign import Campaign

    def after(ledger, args, result, seconds):
        ledger.counts["ladder.captures"] += 1
        ledger.counts["ladder.rungs"] += len(result)

    ledger.patch_method(
        Campaign, "ensure_ladder", "ladder", after,
        when=lambda self: self._ladder is None,
    )


def _planning(ledger: Ledger) -> None:
    from repro.faults.campaign import Campaign

    ledger.patch_method(Campaign, "sample_trials", "plan", _count("plan.calls"))


def _execution(ledger: Ledger) -> None:
    from repro.faults.campaign import Campaign

    def after(ledger, args, record, seconds):
        counts = ledger.counts
        counts["exec.trials"] += 1
        counts["exec.cycles"] += record.cycles
        ledger.trial_seconds.append(seconds)
        if record.warm is not None:
            _rung, resynced, saved = record.warm
            counts["warm.trials"] += 1
            counts["warm.resynced"] += bool(resynced)
            counts["warm.prefix_cycles"] += saved
            counts["warm.cycles"] += record.cycles

    ledger.patch_method(Campaign, "run_site", "exec", after)


def _verification(ledger: Ledger) -> None:
    from repro.faults.campaign import Campaign

    ledger.patch_method(Campaign, "classify", "verify", _count("verify.calls"))


def _engine(ledger: Ledger) -> None:
    from repro.faults import parallel

    ledger.patch_function(parallel, "run_campaign", "engine", _count("engine.campaigns"))


def _features(ledger: Ledger) -> None:
    from repro.features.extract import FeatureExtractor

    def after(ledger, args, result, seconds):
        ledger.counts["features.calls"] += 1
        ledger.counts["features.rows"] += len(result)

    ledger.patch_method(FeatureExtractor, "extract_many", "features", after)


def _ml(ledger: Ledger) -> None:
    from repro.ml import kernels
    from repro.ml.crossval import GridSearch
    from repro.ml.svm import SVC

    def after_search(ledger, args, result, seconds):
        ledger.counts["ml.searches"] += 1
        ledger.counts["ml.configs"] += len(result)

    def after_fit(ledger, args, result, seconds):
        model = args[0]
        ledger.counts["ml.fits"] += 1
        ledger.counts["ml.smo_iters"] += model.n_iter_
        ledger.counts["ml.capped_fits"] += model.n_iter_ >= model.max_iter

    ledger.patch_method(GridSearch, "search", "ml.search", after_search)
    ledger.patch_method(SVC, "fit", "ml.fit", after_fit)
    ledger.patch_function(kernels, "rbf_kernel", "ml.kernel", _count("ml.kernel_calls"))


def _protect(ledger: Ledger) -> None:
    from repro.protect import duplication
    from repro.protect.selectors import Selector

    def after_dup(ledger, args, report, seconds):
        ledger.counts["protect.dup_calls"] += 1
        ledger.counts["protect.duplicated"] += report.duplicated
        ledger.counts["protect.eligible"] += report.eligible

    pending = [Selector]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "select" in cls.__dict__ and cls is not Selector:
            ledger.patch_method(cls, "select", "protect.select", _count("protect.selects"))
    ledger.patch_function(duplication, "duplicate_instructions", "protect.dup", after_dup)


def _coverage(ledger: Ledger) -> None:
    from repro.analysis import coverage

    ledger.patch_function(coverage, "coverage_report", "coverage", _count("coverage.calls"))


def _evaluation(ledger: Ledger) -> None:
    from repro.core import evaluation

    def after(ledger, args, result, seconds):
        ledger.counts["eval.campaigns"] += 1
        ledger.counts["eval.trials"] += result.counts.total

    ledger.patch_function(evaluation, "evaluate_variant", "eval", after)
    ledger.patch_function(evaluation, "evaluate_unprotected", "eval", after)


LAYERS = (
    _frontend, _golden, _ladder, _planning, _execution, _verification,
    _engine, _features, _ml, _protect, _coverage, _evaluation,
)


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile (0 for an empty list)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(int(-(-q * len(ordered) // 100)), 1)  # ceil(q/100 * n)
    return ordered[min(rank, len(ordered)) - 1]


def layer_metrics(ledger: Ledger) -> Dict[str, Tuple[float, str, int]]:
    """Per-layer metrics of the traced job: name -> (value, unit, samples).

    Every ``.s``/``_s`` time is a self time.  ``other.s`` is the traced
    wall time no layer span covers; the self times plus ``other.s`` sum
    to ``trace.wall_s``.
    """
    st = ledger.self_times()
    c = ledger.counts
    t = lambda name: st.get(name, 0.0)  # noqa: E731
    n = lambda key: int(c.get(key, 0))  # noqa: E731
    trials = n("exec.trials")
    warm_trials = n("warm.trials")
    ms = [s * 1e3 for s in ledger.trial_seconds]
    exec_s = t("exec")
    return {
        "compile.s": (t("compile"), "s", n("compile.calls")),
        "compile.calls": (n("compile.calls"), "count", 1),
        "golden.s": (t("golden"), "s", n("golden.runs")),
        "golden.cycles": (n("golden.cycles"), "cycles", n("golden.runs")),
        "ladder.s": (t("ladder"), "s", n("ladder.captures")),
        "ladder.rungs": (n("ladder.rungs"), "count", n("ladder.captures")),
        "warm.resync_ratio": (
            c["warm.resynced"] / warm_trials if warm_trials else 0.0, "ratio", warm_trials),
        "warm.prefix_saved_frac": (
            c["warm.prefix_cycles"] / c["warm.cycles"] if c["warm.cycles"] else 0.0,
            "ratio", warm_trials),
        "plan.s": (t("plan"), "s", n("plan.calls")),
        "exec.s": (exec_s, "s", trials),
        "exec.trials": (trials, "count", 1),
        "exec.trial_ms_p50": (percentile(ms, 50), "ms", trials),
        "exec.trial_ms_p99": (percentile(ms, 99), "ms", trials),
        "exec.mcycles_per_s": (
            c["exec.cycles"] / exec_s / 1e6 if exec_s else 0.0, "Mcycles/s", trials),
        "verify.s": (t("verify"), "s", n("verify.calls")),
        "verify.calls": (n("verify.calls"), "count", 1),
        "engine.s": (t("engine"), "s", n("engine.campaigns")),
        "features.s": (t("features"), "s", n("features.calls")),
        "features.rows": (n("features.rows"), "count", n("features.calls")),
        "ml.search_s": (t("ml.search"), "s", n("ml.searches")),
        "ml.configs": (n("ml.configs"), "count", n("ml.searches")),
        "ml.fit_s": (t("ml.fit"), "s", n("ml.fits")),
        "ml.fits": (n("ml.fits"), "count", 1),
        "ml.smo_iters": (n("ml.smo_iters"), "count", n("ml.fits")),
        "ml.capped_fits": (n("ml.capped_fits"), "count", n("ml.fits")),
        "ml.kernel_s": (t("ml.kernel"), "s", n("ml.kernel_calls")),
        "protect.select_s": (t("protect.select"), "s", n("protect.selects")),
        "protect.dup_s": (t("protect.dup"), "s", n("protect.dup_calls")),
        "protect.dup_fraction": (
            c["protect.duplicated"] / c["protect.eligible"] if c["protect.eligible"] else 0.0,
            "ratio", n("protect.dup_calls")),
        "coverage.s": (t("coverage"), "s", n("coverage.calls")),
        "coverage.calls": (n("coverage.calls"), "count", 1),
        "eval.s": (t("eval"), "s", n("eval.campaigns")),
        "eval.campaigns": (n("eval.campaigns"), "count", 1),
        "eval.trials": (n("eval.trials"), "count", n("eval.campaigns")),
        "other.s": (t("job"), "s", sum(1 for s in ledger.spans if s[3] < 0)),
        "trace.wall_s": (ledger.wall(), "s", sum(1 for s in ledger.spans if s[3] < 0)),
    }
