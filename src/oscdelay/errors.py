"""Exception hierarchy shared across the package."""


class OscDelayError(Exception):
    """Base class for all package-specific errors."""


class LexError(OscDelayError):
    """Unrecognized character in an expression string."""

    def __init__(self, position: int, message: str):
        super().__init__(f"lex error at offset {position}: {message}")
        self.position = position


class ParseError(OscDelayError):
    """Malformed token stream."""

    def __init__(self, position: int, expected: str):
        super().__init__(f"parse error at offset {position}: expected {expected}")
        self.position = position


class DomainError(OscDelayError):
    """Evaluation outside the mathematical domain (negative base, r <= 0, ...)."""


class DivisionByZero(DomainError):
    """Division by zero during expression evaluation: the index is outside the domain."""


class NonConvergentError(OscDelayError):
    """Tail sum whose terms fail the convergence screen (looks canonical)."""


class ConfigError(OscDelayError):
    """Invalid run configuration file."""


class StageError(OscDelayError):
    """A pipeline stage failed on otherwise valid inputs."""
