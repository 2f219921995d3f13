"""Campaign job specifications: the service's unit of submission.

A *spec* is a plain JSON dict naming what to run.  Two forms:

* registry form — ``{"workload": "fft", "input": 1, "trials": 60,
  "seed": 3}`` plus optional ``protect``/``recover`` knobs, resolving
  through :mod:`repro.workloads`;
* inline form — ``{"source": "<scil text>", "name": "kernel", ...}``,
  compiling the given program directly (hermetic tests, ad-hoc kernels).

``canonical_spec`` is the submission dedup key *before* the campaign is
built; the job id proper is the campaign fingerprint, computed after the
golden run, so two textually different specs that build the same plan
still collapse onto one job.
"""

from __future__ import annotations

import json
from typing import Dict

SPEC_KEYS = frozenset(
    {
        "workload",
        "input",
        "source",
        "name",
        "entry",
        "trials",
        "seed",
        "budget_factor",
        "protect",
        "recover",
        "max_rollbacks",
        "snapshot_period",
    }
)

SPEC_DEFAULTS: Dict = {
    "input": 1,
    "name": "kernel",
    "seed": 0,
    "protect": "none",
    "recover": False,
    "max_rollbacks": 8,
    "snapshot_period": 0,
}


def validate_spec(spec: Dict) -> None:
    """Reject a malformed spec with a message the submitter can act on."""
    if not isinstance(spec, dict):
        raise ValueError(f"spec must be an object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - SPEC_KEYS)
    if unknown:
        raise ValueError(f"unknown spec key(s): {', '.join(unknown)}")
    has_workload = bool(spec.get("workload"))
    has_source = bool(spec.get("source"))
    if has_workload == has_source:
        raise ValueError("spec needs exactly one of 'workload' or 'source'")
    trials = spec.get("trials")
    if not isinstance(trials, int) or trials <= 0:
        raise ValueError(f"spec 'trials' must be a positive integer, got {trials!r}")
    seed = spec.get("seed", 0)
    if not isinstance(seed, int):
        raise ValueError(f"spec 'seed' must be an integer, got {seed!r}")
    protect = spec.get("protect", "none")
    if protect not in ("none", "full"):
        raise ValueError(f"spec 'protect' must be 'none' or 'full', got {protect!r}")


def canonical_spec(spec: Dict) -> str:
    """Stable text form: defaults filled in, keys sorted.

    Identical submissions from different clients serialize identically,
    so one string-keyed map dedups them before any build work happens.
    """
    validate_spec(spec)
    filled = dict(SPEC_DEFAULTS)
    filled.update({k: v for k, v in spec.items() if v is not None})
    return json.dumps(filled, sort_keys=True, separators=(",", ":"))


def build_campaign(spec: Dict):
    """Construct (but do not run) the Campaign a spec describes.

    Deterministic by construction: the same spec always yields a
    campaign with the same fingerprint, which is what makes journal
    replay after a coordinator crash — rebuild from spec, resume from
    checkpoint — sound.
    """
    from ..faults.campaign import Campaign, OutputVerifier
    from ..recover.runtime import RecoveryPolicy

    validate_spec(spec)
    recovery = None
    if spec.get("recover"):
        recovery = RecoveryPolicy(
            max_rollbacks=spec.get("max_rollbacks", 8),
            snapshot_period=spec.get("snapshot_period", 0),
        )
    if spec.get("source"):
        from .. import compile_source
        from ..interp import Interpreter

        module = compile_source(spec["source"], name=spec.get("name", "kernel"))
        if spec.get("protect") == "full":
            from ..protect import FullDuplicationSelector, duplicate_instructions

            duplicate_instructions(module, FullDuplicationSelector().select(module))
        return Campaign(
            Interpreter(module),
            verifier=OutputVerifier(),
            entry=spec.get("entry", "main"),
            budget_factor=spec.get("budget_factor", 20.0),
            recovery=recovery,
        )
    from ..workloads import get_workload

    workload = get_workload(spec["workload"])
    module = workload.compile()
    if spec.get("protect") == "full":
        from ..protect import FullDuplicationSelector, duplicate_instructions

        duplicate_instructions(module, FullDuplicationSelector().select(module))
    overrides = {key: spec[key] for key in ("entry", "budget_factor") if key in spec}
    return workload.campaign(
        spec.get("input", 1), module=module, recovery=recovery, **overrides
    )
