"""Correctness gate: record digests and the pinned expectations.

A campaign's digest is a SHA-256 over every trial record's fault site,
outcome, status and cycle count, in trial order.  Records are
bit-identical for any ``n_jobs``, traced or not, warm or cold, so a job's
digest depends only on its seed.

``expected.json`` pins the first job's digest (and, for ``pipeline-is``,
the top-N (C, gamma) configurations of IPAS and of the baseline) for the
default seed and one held-out seed.  Every other job is gated by the
invariants each workload checks (trial counts, no harness failures, a
cold in-process replay), and in traced runs by agreement between the
same job run untraced with worker processes and traced in-process.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional

#: F-scores of the pinned top-N configurations may differ by this much
FSCORE_TOLERANCE = 1e-3

EXPECTED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "expected.json")


def records_digest(records, module) -> str:
    """SHA-256 over (site index, opcode, occurrence, bit, outcome, status,
    cycles) of every trial, in trial order."""
    from repro.faults.model import injectable_instructions

    index = {id(inst): i for i, inst in enumerate(injectable_instructions(module))}
    h = hashlib.sha256()
    for r in records:
        row = (
            index[id(r.site.instruction)],
            r.site.instruction.opcode,
            r.site.occurrence,
            r.site.bit,
            r.outcome.value,
            r.status,
            r.cycles,
        )
        h.update(repr(row).encode() + b"\n")
    return h.hexdigest()


def load_expected() -> Dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def compare(workload: str, actual, reference, problems: List[str], what: str) -> None:
    """Append a problem when ``actual`` disagrees with ``reference``.

    Digests compare exactly.  Top-N lists of ``[C, gamma, fscore]``
    compare (C, gamma) exactly and F-scores within
    :data:`FSCORE_TOLERANCE`.
    """
    if isinstance(reference, str):
        if actual != reference:
            problems.append(
                f"{workload}: {what} digest {str(actual)[:12]} != {reference[:12]}")
        return
    if isinstance(reference, dict):
        for key, ref in reference.items():
            compare(workload, actual.get(key) if actual else None, ref, problems,
                    f"{what}.{key}" if what else key)
        return
    if actual is None or len(actual) != len(reference):
        problems.append(f"{workload}: {what} has {actual!r}, expected {reference!r}")
        return
    for got, want in zip(actual, reference):
        if (got[0], got[1]) != (want[0], want[1]) or abs(got[2] - want[2]) > FSCORE_TOLERANCE:
            problems.append(f"{workload}: {what} config {got} != {want}")
            return


def pinned(workload: str, plan: str, seed: int) -> Optional[object]:
    """The pinned digest of job 0 for ``seed``, or None when the seed is
    not pinned or the pins were taken for another job size (``plan``)."""
    entry = load_expected().get(workload, {})
    if entry.get("plan") != plan:
        return None
    return entry.get("seeds", {}).get(str(seed))
