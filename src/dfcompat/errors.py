"""Exception hierarchy shared across the toolchain.

Every error raised on a user-visible path derives from :class:`DfcError` so the
CLI can catch it and exit with a stable code per error class.
"""

from __future__ import annotations


class DfcError(Exception):
    """Base class for all toolchain errors."""


class DslSyntaxError(DfcError):
    """Malformed model text."""

    def __init__(self, message: str, line: int = 0):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


class UnknownBlockKind(DslSyntaxError):
    pass


class DuplicateName(DslSyntaxError):
    pass


class TypeAnnotationMissing(DslSyntaxError):
    pass


class ModelValidationError(DfcError):
    """Structural problem found while flattening or type checking."""


class UnconnectedInput(ModelValidationError):
    pass


class TypeMismatch(ModelValidationError):
    pass


class AlgebraicLoop(ModelValidationError):
    """Feedback cycle that does not pass through a delay element."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("algebraic loop: " + " -> ".join(self.cycle))


class DataStoreOrder(ModelValidationError):
    """Read scheduled before a same-step write of the same store (strict mode)."""


class UnmappedPort(DfcError):
    """A port of the model under replacement has no counterpart."""


class ConflictingOverride(DfcError):
    """Port mapping override is contradictory or references unknown ports."""


class ArithmeticOverflow(DfcError):
    """64-bit signed arithmetic overflow during evaluation."""


class DomainError(DfcError):
    """A state variable left its declared domain."""


class PathExplosion(DfcError):
    """Guarded-case count exceeded the configured cap."""


class DomainTooLarge(DfcError):
    """Enumerating input rows or values would exceed the budget."""


class StateBudgetExceeded(DfcError):
    """Reachable state count exceeded the configured cap."""


class IterationCapExceeded(DfcError):
    """Free-port constant search hit the iteration cap without a verdict."""


class CsvSchemaError(DfcError):
    """Trace CSV header does not match the model's input ports."""


class SolverFailure(DfcError):
    """External solver invocation failed or returned garbage."""
