"""Exception types shared across the toolkit."""


class BendsimError(Exception):
    """Base class for all toolkit errors."""


class InvalidInputError(BendsimError, ValueError):
    """An argument violates a documented precondition."""


class ParseError(BendsimError):
    """Malformed file content. Carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(BendsimError):
    """Invalid or missing configuration value. Carries the offending key."""

    def __init__(self, message: str, key: str | None = None):
        self.key = key
        if key is not None:
            message = f"{key}: {message}"
        super().__init__(message)


class DivergenceError(BendsimError):
    """Time integration failed: by default a non-finite state. Carries the time."""

    def __init__(self, time: float, reason: str = "non-finite state"):
        self.time = time
        super().__init__(f"simulation diverged ({reason}) at t={time:.6g} s")


class InsufficientDataError(BendsimError):
    """A signal does not contain enough structure for the requested estimate."""
