"""repro.interp — compiled IR interpreter, cost model, and trap semantics."""

from .costmodel import CostModel
from .compiler import CompiledModule
from .errors import (
    ArithmeticFault,
    DetectedByDuplication,
    ExecutionError,
    HangDetected,
    InterpreterBug,
    MemoryFault,
    MpiAbort,
    StackOverflow,
    Trap,
    UnreachableExecuted,
)
from .interpreter import Interpreter, RunResult, SerialMpi, run_module

__all__ = [
    "CostModel", "CompiledModule",
    "ArithmeticFault", "DetectedByDuplication", "ExecutionError",
    "HangDetected", "InterpreterBug", "MemoryFault", "MpiAbort",
    "StackOverflow", "Trap", "UnreachableExecuted",
    "Interpreter", "RunResult", "SerialMpi", "run_module",
]
