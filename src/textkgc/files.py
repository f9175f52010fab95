"""The package's file boundary: one line reader, one whole-file writer, and
the ``repr``-float row format of checkpoint and embedding files.

Every file the package reads goes through ``read_lines``, and every file
it writes (the checkpoint, its ``.log``, the embedding export, the
evaluate report, the load report, the sweep's reports and
``summary.json``) through ``replace_file``.
"""

import os
import stat
from contextlib import contextmanager
from typing import Iterable, Iterator, Sequence, TextIO

from .errors import CheckpointError, KgcError, ParseError


def read_lines(path: str, error: type[ParseError] = ParseError) -> Iterator[tuple[int, str]]:
    """Each line of ``path`` with its 1-based number and no line break; a line
    that is not valid UTF-8 raises ``error`` naming it."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            for lineno, raw in enumerate(handle, start=1):
                yield lineno, raw.rstrip("\n")
        except UnicodeDecodeError:
            # text mode decodes ahead of the line it returns: find the bad line in
            # the bytes, which split on the same \n, \r\n and \r (a valid file is read once)
            with open(path, "rb") as binary:
                lines = binary.read().splitlines()
            bad = (n for n, line in enumerate(lines, 1) if line.decode("utf-8", "ignore").encode() != line)
            raise error(path, next(bad, len(lines)), "not valid UTF-8") from None


def check_replaceable(path: str) -> None:
    """Raise ``KgcError`` naming the file when ``replace_file`` cannot put a
    regular file at ``path``: its directory (``os.path.dirname(path)``, or
    the working directory) is not a directory, or ``path`` or its
    ``<path>.tmp`` exists and is not a regular file (a FIFO, a device, a
    directory, or a symlink to one).  ``replace_file`` would put a regular
    file in its place, and opening a FIFO for writing waits for a reader."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        raise KgcError(f"{path}: no such directory: {parent}")
    for name in (path, path + ".tmp"):
        try:
            mode = os.stat(name).st_mode
        except FileNotFoundError:  # a dangling symlink too: nothing behind it to lose
            continue
        if not stat.S_ISREG(mode):
            raise KgcError(f"{name}: exists and is not a regular file; not replacing it")


@contextmanager
def replace_file(path: str) -> Iterator[TextIO]:
    """A UTF-8 handle on ``<path>.tmp``, renamed over ``path`` when the block
    ends; an exception removes it and leaves ``path`` as it was.  A path that
    ``check_replaceable`` refuses raises before anything is written.  No
    ``fsync``: this guards against a crash of the process, not of the machine."""
    check_replaceable(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def format_row(values: Iterable) -> str:
    """``repr(float(v))`` of each value, space-separated; ``parse_row`` reads the same bits back."""
    return " ".join(repr(float(v)) for v in values)


def parse_row(path: str, lineno: int, fields: Sequence[str]) -> list[float]:
    """The floats of one ``format_row`` line, split into its fields."""
    try:
        return [float(v) for v in fields]
    except ValueError:
        raise CheckpointError(path, lineno, "unparseable float") from None
