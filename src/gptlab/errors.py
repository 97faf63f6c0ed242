"""Exception hierarchy shared by all gptlab modules."""


class GptLabError(Exception):
    """Base class for every error raised by this package."""


class TypeMismatchError(GptLabError):
    """Wire/system types do not line up (typed-wire violation)."""


class CircuitValidationError(GptLabError):
    """A circuit failed validation (open ports, cycles, bad types)."""


class CapacityError(GptLabError):
    """An enumeration would exceed the configured desk-scale cap."""


class MachineValidationError(GptLabError):
    """An affine machine violates its weight-sum or halting invariants."""


class HaltingViolationError(GptLabError):
    """A computational branch did not halt within the step budget."""


class FamilyInvariantError(GptLabError):
    """A projector family violates idempotence or the intersection law."""


class ReconstructionError(GptLabError):
    """A coherence decomposition failed to reconstruct its input."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class ParseError(GptLabError):
    """A description file is malformed; carries a location hint."""

    def __init__(self, message: str, location: str = ""):
        super().__init__(f"{location}: {message}" if location else message)
        self.location = location
