"""Exception types shared across the package."""


class ArityError(ValueError):
    """Gate received the wrong number of parameters."""


class SpecError(ValueError):
    """Measurement specification is inconsistent with the circuit."""


class ConfigError(ValueError):
    """Invalid run configuration."""


class ParseError(ValueError):
    """Malformed input file; carries a 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class EncodeError(ValueError):
    """Feature vector cannot be encoded (e.g. zero norm for amplitude encoding)."""


class DataError(ValueError):
    """Dataset is empty or malformed."""
