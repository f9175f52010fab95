"""Exception types shared across the package, and the lookup that places a
decoding failure on a line of its file."""


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


class CheckpointError(KgcError):
    """A checkpoint or embedding file is malformed."""


class NumericError(KgcError):
    """A non-finite value surfaced in a loss, gradient, or parameter update."""


def undecodable_line(path: str) -> int:
    """The 1-based number of the first line of ``path`` that is not valid UTF-8.

    Lines break as in text-mode reading (``\\n``, ``\\r\\n`` or ``\\r``), so the
    number matches the one a reader counts.  Readers call this only after a
    decode has failed, so a valid file is read once.
    """
    with open(path, "rb") as handle:
        lines = handle.read().splitlines()
    for lineno, line in enumerate(lines, start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return max(len(lines), 1)
