"""Pluggable fault models: what a "fault" is, per campaign.

The paper's model (§3, :mod:`repro.faults.model`) is a single transient
bit-flip in one instruction's result register.  Real silent corruption
is richer — GPU error studies show multi-bit and spatially correlated
patterns, and defect-induced faults corrupt *every* execution of one
instruction (ITHICA).  This module turns the hard-coded assumption into
a registry of :class:`FaultModel` implementations:

==================== ========================================================
``transient-1bit``   the paper's model; the default, bit-identical to the
                     historical engine (its fingerprint signature is empty,
                     so legacy checkpoints and campaign fingerprints are
                     unchanged)
``transient-multibit`` one firing flips ``k`` bits — adjacent
                     (spatially correlated) or uniformly random
``pattern``          one firing applies stuck-at / value-overwrite
                     corruption to the result's register representation
``intermittent``     fires with probability ``p`` on each execution of the
                     chosen instruction inside a ``window`` of executions
``persistent``       fires on *every* execution of the chosen instruction
                     (defect-induced, ITHICA-style)
==================== ========================================================

Each model owns site eligibility, its deterministic pre-sampled trial
plan (all randomness is drawn serially from the campaign RNG or derived
by pure functions of pre-sampled values, so the
bit-identical-at-any-``n_jobs`` contract holds per model), corruption
application, warm-start planning (``first_occurrence``), and whether the
single-bit coverage proof applies to it (``sanitizer_covered``).
Planned sites keep the MPI rank the campaign sampled, so every model
applies per rank of a multi-rank job exactly as it does to one process.

The CLI grammar is ``NAME[:key=value,...]`` — e.g.
``transient-multibit:k=3,adjacent=0`` — validated eagerly by
:func:`validate_fault_model_spec` exactly like the ``--chaos`` grammar:
a malformed spec is a usage error naming the bad token, never a
mid-campaign surprise.
"""

from __future__ import annotations

import struct
import zlib
from typing import Callable, Dict, Optional, Tuple, Type

from ..ir.instructions import Instruction
from .model import FaultSite, result_bits

_M64 = (1 << 64) - 1

#: Injection mode names understood by the compiled-block injector
#: epilogue (``repro.interp.compiler``): ``once`` fires once at the
#: sampled occurrence through a model-supplied corrupter, ``multi``
#: consults a model-supplied firing predicate on every execution
#: (multi-shot arming).
MODE_ONCE = "once"
MODE_MULTI = "multi"


class PlannedFault(FaultSite):
    """A :class:`FaultSite` plus model-private pre-sampled detail.

    ``detail`` holds whatever extra randomness the model drew at plan
    time (extra bits, a firing salt).  It is regenerated identically on
    checkpoint resume — trial plans are always re-sampled from the seed —
    so it never needs to cross the worker wire or reach disk.
    """

    __slots__ = ("detail",)

    def __init__(
        self,
        instruction: Instruction,
        occurrence: int,
        bit: int,
        detail: Optional[dict] = None,
        rank: int = 0,
    ):
        super().__init__(instruction, occurrence, bit, rank)
        self.detail = detail or {}


class InjectionSpec:
    """One armed injection, consumed by ``Interpreter.run`` (and, for
    the rank it names, by ``MpiJob.run``).  Every fault model — the
    default single-bit flip included — arms its trials this way."""

    __slots__ = ("instruction", "occurrence", "mode", "corrupt", "fire", "rank")

    def __init__(
        self,
        instruction: Instruction,
        occurrence: int,
        mode: str,
        corrupt: Callable,
        fire: Optional[Callable] = None,
        rank: int = 0,
    ):
        self.instruction = instruction
        self.occurrence = occurrence
        self.mode = mode
        self.corrupt = corrupt
        self.fire = fire
        self.rank = rank


# -- register-representation corruption helpers -------------------------------


def _f64_to_u(value: float) -> int:
    try:
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    except (OverflowError, ValueError):
        return 0


def _u_to_f64(u: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", u & _M64))[0]


def _wrap_int(u: int, bits: int) -> int:
    mask = (1 << bits) - 1
    u &= mask
    if bits > 1 and u >= 1 << (bits - 1):
        u -= 1 << bits
    return u


def make_corrupter(inst: Instruction, op: Callable[[int, int], int]) -> Callable:
    """A closure corrupting ``inst``'s result value via ``op``.

    ``op`` maps ``(unsigned_representation, width) -> new representation``
    and is applied to the IEEE-754 image for floats, the two's-complement
    image for integers (re-signed on the way out), and the raw 64-bit
    image for pointers.
    """
    t = inst.type
    if t.is_float():
        def corrupt_float(value):
            return _u_to_f64(op(_f64_to_u(value), 64))

        return corrupt_float
    if t.is_pointer():
        def corrupt_pointer(value):
            return _wrap_int(op(value & _M64, 64), 64)

        return corrupt_pointer
    bits = result_bits(inst)
    if bits == 1:
        def corrupt_bool(value):
            return bool(op(1 if value else 0, 1) & 1)

        return corrupt_bool
    mask = (1 << bits) - 1

    def corrupt_int(value):
        return _wrap_int(op(value & mask, bits), bits)

    return corrupt_int


# -- model base ----------------------------------------------------------------


def _int_param(text: str) -> int:
    return int(text, 10)


def _float_param(text: str) -> float:
    return float(text)


def _bool_param(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


class FaultModel:
    """Base class: one pluggable definition of what a fault is.

    Subclasses declare ``PARAMS`` (``key -> (converter, default)``),
    validate ranges in ``__init__``, and implement sampling + injection.
    """

    #: registry key and CLI spec name
    name: str = "?"
    description: str = ""
    #: whether the fault can fire on more than one dynamic execution —
    #: multi-shot models fail-stop on detection instead of rolling back
    #: (re-execution would deterministically re-corrupt) and plan
    #: warm-start rungs against their *first possible* firing
    multi_shot: bool = False
    #: whether the single-bit coverage proof applies: the campaign
    #: sanitizer only raises ``CoverageViolation`` for covered models
    sanitizer_covered: bool = False
    #: accepted spec parameters: ``key -> (converter, default)``
    PARAMS: Dict[str, Tuple[Callable, object]] = {}

    def __init__(self, **params):
        for key in params:
            if key not in self.PARAMS:
                allowed = ", ".join(self.PARAMS) or "none"
                raise ValueError(
                    f"unknown parameter {key!r} for fault model "
                    f"{self.name!r}: accepted keys: {allowed}"
                )
        for key, (_conv, default) in self.PARAMS.items():
            setattr(self, key, params.get(key, default))

    # -- identity ----------------------------------------------------------

    def signature(self) -> str:
        """The fingerprint component: hashed into campaign fingerprints so
        checkpoints and journals never mix across models.  The default
        model returns ``""`` — legacy fingerprints are unchanged."""
        parts = ",".join(f"{k}={getattr(self, k)!r}" for k in sorted(self.PARAMS))
        return f"model:{self.name}" + (f":{parts}" if parts else "")

    def spec(self) -> str:
        """The canonical ``NAME[:k=v,...]`` spec string for this instance."""
        parts = ",".join(f"{key}={getattr(self, key)}" for key in sorted(self.PARAMS))
        return self.name + (f":{parts}" if parts else "")

    def __repr__(self) -> str:
        return f"<FaultModel {self.spec()}>"

    # -- trial planning ----------------------------------------------------

    def sample_site(self, campaign, rng) -> FaultSite:
        """Pre-sample one trial.  All randomness must come from ``rng``
        here, serially — workers never sample."""
        raise NotImplementedError

    def injection_for(self, site: FaultSite):
        """The injection object ``Interpreter.run`` arms for ``site``."""
        raise NotImplementedError

    def first_occurrence(self, site: FaultSite) -> int:
        """The earliest dynamic execution at which this trial can fire;
        warm-start planning must restore a rung strictly before it."""
        return site.occurrence


class Transient1Bit(FaultModel):
    """The paper's model: one transient bit-flip, once (§3)."""

    name = "transient-1bit"
    description = "single transient bit-flip in one result register"
    sanitizer_covered = True

    def signature(self) -> str:
        return ""  # the legacy model: fingerprints stay byte-identical

    def sample_site(self, campaign, rng) -> FaultSite:
        # Delegate to the campaign's historical sampler so the RNG
        # consumption — and therefore every trial plan — is byte-identical
        # to the pre-registry engine.
        return campaign.sample_site(rng)

    def injection_for(self, site: FaultSite):
        return site.as_injection()


class TransientMultiBit(FaultModel):
    """One firing flips ``k`` bits — adjacent or uniformly random."""

    name = "transient-multibit"
    description = "one firing flips k adjacent or random bits"
    PARAMS = {"k": (_int_param, 2), "adjacent": (_bool_param, True)}

    def __init__(self, **params):
        super().__init__(**params)
        if self.k < 1:
            raise ValueError(f"fault model {self.name!r}: k must be >= 1, got {self.k}")

    def sample_site(self, campaign, rng) -> PlannedFault:
        base = campaign.sample_site(rng)
        width = result_bits(base.instruction)
        n = min(self.k, width)
        if self.adjacent:
            bits = tuple((base.bit + j) % width for j in range(n))
            primary = base.bit
        else:
            bits = tuple(sorted(rng.sample(range(width), n)))
            primary = bits[0]
        return PlannedFault(
            base.instruction, base.occurrence, primary, {"bits": bits}, rank=base.rank
        )

    def injection_for(self, site: PlannedFault):
        mask = 0
        for bit in site.detail["bits"]:
            mask |= 1 << bit
        corrupt = make_corrupter(site.instruction, lambda u, w: u ^ mask)
        return InjectionSpec(
            site.instruction, site.occurrence, MODE_ONCE, corrupt, rank=site.rank
        )


class PatternFault(FaultModel):
    """One firing applies stuck-at / value-overwrite corruption."""

    name = "pattern"
    description = "stuck-at / value-overwrite corruption of the result"
    PARAMS = {"kind": (str, "stuck0")}
    KINDS = ("stuck0", "stuck1", "zero", "max")

    def __init__(self, **params):
        super().__init__(**params)
        if self.kind not in self.KINDS:
            raise ValueError(
                f"fault model {self.name!r}: unknown kind {self.kind!r}: "
                f"expected one of {', '.join(self.KINDS)}"
            )

    def sample_site(self, campaign, rng) -> FaultSite:
        return campaign.sample_site(rng)

    def injection_for(self, site: FaultSite):
        kind, bit = self.kind, site.bit
        if kind == "stuck0":
            op = lambda u, w: u & ~(1 << bit)  # may be a no-op: realistic
        elif kind == "stuck1":
            op = lambda u, w: u | (1 << bit)
        elif kind == "zero":
            op = lambda u, w: 0
        else:  # max: all-ones representation
            op = lambda u, w: (1 << w) - 1
        corrupt = make_corrupter(site.instruction, op)
        return InjectionSpec(
            site.instruction, site.occurrence, MODE_ONCE, corrupt, rank=site.rank
        )


class Intermittent(FaultModel):
    """Fires with probability ``p`` per execution over a trial window.

    The firing decision is a pure function of a pre-sampled per-trial
    salt and the execution index (a CRC32 hash scaled to [0, 1)), so it
    is independent of worker count and execution order — the determinism
    contract holds without serialising any per-execution randomness.
    """

    name = "intermittent"
    description = "fires with probability p per execution over a window"
    multi_shot = True
    PARAMS = {"p": (_float_param, 0.5), "window": (_int_param, 8)}

    def __init__(self, **params):
        super().__init__(**params)
        if not 0.0 < self.p <= 1.0:
            raise ValueError(
                f"fault model {self.name!r}: p must be in (0, 1], got {self.p}"
            )
        if self.window < 1:
            raise ValueError(
                f"fault model {self.name!r}: window must be >= 1, "
                f"got {self.window}"
            )

    def sample_site(self, campaign, rng) -> PlannedFault:
        base = campaign.sample_site(rng)
        salt = rng.getrandbits(32)
        return PlannedFault(
            base.instruction, base.occurrence, base.bit, {"salt": salt}, rank=base.rank
        )

    def injection_for(self, site: PlannedFault):
        start, end = site.occurrence, site.occurrence + self.window
        salt = site.detail["salt"]
        threshold = int(self.p * 2**32)
        bit = site.bit

        def fire(k):
            if k < start or k >= end:
                return False
            return zlib.crc32(struct.pack("<II", salt, k)) < threshold

        corrupt = make_corrupter(site.instruction, lambda u, w: u ^ (1 << bit))
        return InjectionSpec(
            site.instruction, site.occurrence, MODE_MULTI, corrupt, fire, rank=site.rank
        )


class Persistent(FaultModel):
    """Fires on every execution of the chosen instruction (ITHICA-style)."""

    name = "persistent"
    description = "fires on every execution of the instruction"
    multi_shot = True

    def sample_site(self, campaign, rng) -> PlannedFault:
        base = campaign.sample_site(rng)
        # A defect corrupts the instruction from its first execution on;
        # the sampled occurrence is irrelevant, so pin it to 1 (which also
        # pins warm-start planning to a cold fallback).
        return PlannedFault(base.instruction, 1, base.bit, rank=base.rank)

    def injection_for(self, site: PlannedFault):
        bit = site.bit
        corrupt = make_corrupter(site.instruction, lambda u, w: u ^ (1 << bit))
        return InjectionSpec(
            site.instruction, 1, MODE_MULTI, corrupt, lambda k: True, rank=site.rank
        )

    def first_occurrence(self, site: FaultSite) -> int:
        return 1


#: The registry.  Insertion order is the presentation order everywhere
#: (docs table, experiments driver, CI matrix).
FAULT_MODELS: Dict[str, Type[FaultModel]] = {
    Transient1Bit.name: Transient1Bit,
    TransientMultiBit.name: TransientMultiBit,
    PatternFault.name: PatternFault,
    Intermittent.name: Intermittent,
    Persistent.name: Persistent,
}

DEFAULT_FAULT_MODEL = Transient1Bit.name


def _split_spec(spec: str) -> Tuple[str, Dict[str, object]]:
    name, sep, rest = spec.strip().partition(":")
    name = name.strip().lower()
    if name not in FAULT_MODELS:
        raise ValueError(
            f"unknown fault model {name!r}: expected one of "
            f"{', '.join(FAULT_MODELS)}"
        )
    cls = FAULT_MODELS[name]
    params: Dict[str, object] = {}
    if sep and rest.strip():
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            key, value = key.strip(), value.strip()
            if not eq or key not in cls.PARAMS:
                allowed = ", ".join(cls.PARAMS) or "none"
                raise ValueError(
                    f"bad fault-model parameter {part!r}: {name} expects "
                    f"key=value with keys: {allowed}"
                )
            conv = cls.PARAMS[key][0]
            try:
                params[key] = conv(value)
            except ValueError:
                raise ValueError(
                    f"bad fault-model parameter {part!r}: cannot parse "
                    f"value {value!r}"
                ) from None
    return name, params


def validate_fault_model_spec(spec: str) -> str:
    """Grammar + range check only; raises ``ValueError`` naming the bad
    token.  Mirrors ``repro.faults.chaos.validate_chaos_spec`` so the CLI
    can reject a typo at argparse time."""
    parse_fault_model_spec(spec)
    return spec


def parse_fault_model_spec(spec: str) -> FaultModel:
    """Build a model instance from a ``NAME[:key=value,...]`` spec."""
    name, params = _split_spec(spec)
    return FAULT_MODELS[name](**params)


def get_fault_model(model=None) -> FaultModel:
    """Resolve a campaign's ``fault_model`` argument: ``None`` means the
    default ``transient-1bit``; a string is parsed as a spec; a
    :class:`FaultModel` instance passes through."""
    if model is None:
        return Transient1Bit()
    if isinstance(model, FaultModel):
        return model
    if isinstance(model, str):
        return parse_fault_model_spec(model)
    raise TypeError(
        f"fault_model must be None, a spec string, or a FaultModel, "
        f"got {type(model).__name__}"
    )
