"""Exception types shared across the package."""

__all__ = ["InvalidArgumentError", "EdgeListParseError", "DocumentFormatError"]


class InvalidArgumentError(ValueError):
    """An operation received arguments that violate its preconditions."""


class EdgeListParseError(InvalidArgumentError):
    """Malformed edge-list input; carries the offending line number."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


class DocumentFormatError(InvalidArgumentError):
    """A decomposition document failed schema validation."""
