"""Exception types shared across the package."""


class KgcError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(KgcError):
    """A data file could not be parsed; carries the file path and line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


class UnknownIdError(KgcError):
    """An entity or relation id was referenced but never declared."""


class CheckpointError(ParseError):
    """A checkpoint or embedding file is malformed."""


class NumericError(KgcError):
    """A non-finite value surfaced in a loss, gradient, or parameter update."""

