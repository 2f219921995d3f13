"""Workload abstraction (paper Table 2 + Table 5).

A workload bundles: the scil program (written SPMD-style so the same source
runs serially and under the simulated MPI runtime), the input ladder
(input 1 trains IPAS; inputs 2–4 test transfer, per Table 5), and the
output-verification routine that defines SOC for this code (Table 2).

``compile()`` always returns a *fresh* module: the IPAS pipeline protects
the same program under many configurations, and each protected variant
starts from an identical clean module.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..faults.campaign import Campaign, OutputVerifier
from ..frontend import compile_to_ir
from ..interp.interpreter import Interpreter
from ..ir.module import Module
from ..parallel.mpi import MpiJob


class Workload:
    """Base class; concrete workloads define the class attributes."""

    #: short identifier ("comd", "hpccg", ...)
    name: str = "abstract"
    #: one-line description for reports
    description: str = ""
    #: scil source text
    source: str = ""
    #: input id -> {global name: value}; input 1 is the training input
    inputs: Dict[int, Dict[str, int]] = {}
    #: human-readable labels for the input ladder (Table 5)
    input_labels: Dict[int, str] = {}
    #: entry point
    entry: str = "main"
    #: hang budget as a multiple of the golden run
    budget_factor: float = 10.0

    # -- construction -----------------------------------------------------------

    def compile(self, optimize: bool = True) -> Module:
        """A fresh, optimized, verified module of this workload."""
        return compile_to_ir(self.source, name=self.name, optimize=optimize)

    def make_interpreter(
        self,
        input_id: int = 1,
        module: Optional[Module] = None,
        mpi=None,
    ) -> Interpreter:
        """An interpreter primed with the chosen input's global overrides."""
        if input_id not in self.inputs:
            raise KeyError(f"{self.name} has no input {input_id}")
        interp = Interpreter(module if module is not None else self.compile(), mpi=mpi)
        for name, value in self.inputs[input_id].items():
            interp.set_global_override(name, value)
        return interp

    def make_job(
        self,
        n_ranks: int,
        input_id: int = 1,
        module: Optional[Module] = None,
    ) -> MpiJob:
        """An SPMD job over ``n_ranks`` simulated MPI ranks."""
        if input_id not in self.inputs:
            raise KeyError(f"{self.name} has no input {input_id}")
        return MpiJob(
            module if module is not None else self.compile(),
            n_ranks,
            overrides=self.inputs[input_id],
        )

    def campaign(
        self,
        input_id: int = 1,
        module: Optional[Module] = None,
        **kwargs,
    ) -> Campaign:
        """A fault-injection campaign on the chosen input.

        It runs ``entry`` under this workload's verifier and hang budget;
        ``kwargs`` override those or pass any other ``Campaign`` argument.
        """
        options = {
            "verifier": self.verifier(),
            "entry": self.entry,
            "budget_factor": self.budget_factor,
            **kwargs,
        }
        return Campaign(self.make_interpreter(input_id, module=module), **options)

    def verifier(self) -> OutputVerifier:
        """The Table-2 verification routine; default: exact output match."""
        return OutputVerifier()

    # -- metadata --------------------------------------------------------------------

    @property
    def lines_of_code(self) -> int:
        """Non-blank, non-comment source lines (paper Table 3)."""
        count = 0
        for line in self.source.splitlines():
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
        return count

    def static_instructions(self) -> int:
        """Static IR instruction count after optimization (paper Table 3)."""
        return self.compile().static_instruction_count

    def __repr__(self) -> str:
        return f"<Workload {self.name}: {self.description}>"


class ToleranceVerifier(OutputVerifier):
    """Accepts outputs within an absolute tolerance of the golden values,
    for the named globals (others are ignored)."""

    def __init__(self, globals_and_tolerances: Dict[str, float]):
        self.tolerances = dict(globals_and_tolerances)

    def capture(self, interp: Interpreter):
        return {name: interp.read_global(name) for name in self.tolerances}

    def check(self, interp: Interpreter, golden) -> bool:
        for name, tol in self.tolerances.items():
            expected = golden[name]
            actual = interp.read_global(name)
            if isinstance(expected, list):
                for a, e in zip(actual, expected):
                    if not _within(a, e, tol):
                        return False
            else:
                if not _within(actual, expected, tol):
                    return False
        return True


def _within(actual, expected, tol: float) -> bool:
    try:
        diff = abs(float(actual) - float(expected))
    except (TypeError, ValueError, OverflowError):
        return False
    if diff != diff:  # NaN anywhere in the output is corruption
        return False
    return diff <= tol
