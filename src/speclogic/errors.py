"""Exception hierarchy shared by every module.

Callers mostly care about two families: InputError for rejected arguments,
malformed files, and bad configuration (CLI exit code 2), and NumericError
for failures of the numerics themselves (CLI exit code 3).
"""


class SpecLogicError(Exception):
    """Base class for all library errors.

    The pipeline annotates errors it propagates with the name of the stage
    that raised them (see ``stage``).
    """

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.stage: str | None = None

    def __str__(self) -> str:
        if self.stage:
            return f"[stage: {self.stage}] {self.message}"
        return self.message


class InputError(SpecLogicError):
    """Invalid argument, malformed input file, or violated precondition."""


class ConfigError(InputError):
    """Inconsistent or unusable pipeline configuration."""


class RuleSyntaxError(InputError):
    """Rule text that does not parse; carries line and column (1-based)."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class StratificationError(InputError):
    """A predicate depends on its own negation; carries the offending cycle."""

    def __init__(self, cycle: tuple[str, ...]):
        super().__init__(
            "negation is not stratified; cycle through: " + " -> ".join(cycle)
        )
        self.cycle = cycle


class NumericError(SpecLogicError):
    """A numerical procedure failed beyond recovery."""


class IllConditionedError(NumericError):
    """Linear system could not be solved to tolerance; carries the residual."""

    def __init__(self, message: str, residual: float):
        super().__init__(f"{message} (residual {residual:.3e})")
        self.residual = residual


class ConvergenceError(NumericError):
    """An iterative solver exhausted its iteration budget."""
