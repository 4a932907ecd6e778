"""Exception hierarchy shared across the package."""


class OscDelayError(Exception):
    """Base class for all package-specific errors."""


class _PositionedError(OscDelayError):
    """Raised as cls(position, detail) and worded by the subclass's TEMPLATE, so
    the args Exception keeps are enough to pickle it."""

    position = property(lambda self: self.args[0])

    def __str__(self) -> str:
        return self.TEMPLATE.format(*self.args)


class LexError(_PositionedError):
    """Unrecognized character in an expression string."""

    TEMPLATE = "lex error at offset {}: {}"


class ParseError(_PositionedError):
    """Malformed token stream."""

    TEMPLATE = "parse error at offset {}: expected {}"


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
