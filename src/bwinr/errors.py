"""Exception taxonomy shared across the package, and its one file boundary.

Each class carries the CLI's exit code and stderr label for it:
ConfigurationError -> 1, ImageIOError -> 2, NumericalError (and
subclasses) -> 3, any other package error -> 1. ``read_file``,
``write_file`` and ``make_dir`` are the package's only file access; they
report any OSError, or a path the OS call rejects (a null byte), as
ImageIOError naming the path once, with the OS's reason (``strerror``)
when there is one; ``read_file`` also reports a ValueError of the
reader's parser as the reader's own class. Every message naming a path
names it by ``show_path``: by its ``repr`` if unprintable.
"""

from contextlib import contextmanager
from pathlib import Path


class BwinrError(Exception):
    """Base class for all package errors."""

    exit_code = 1
    label = "error"


class ShapeError(BwinrError, ValueError):
    """Operand dimensions are inconsistent."""


class InvalidInputError(BwinrError, ValueError):
    """Input violates an operation's precondition (e.g. asymmetry)."""


class ConfigurationError(BwinrError, ValueError):
    """Bad experiment or network configuration."""

    label = "configuration error"


class UnsupportedActivationError(BwinrError, ValueError):
    """Operation is undefined for this activation kind."""


class ImageIOError(BwinrError, IOError):
    """Unreadable, unwritable or malformed file."""

    exit_code = 2
    label = "i/o error"


class NumericalError(BwinrError, ArithmeticError):
    """Numerical failure (non-finite values, failed convergence)."""

    exit_code = 3
    label = "numerical failure"


class DivergenceError(NumericalError):
    """Training loss exceeded the divergence threshold, or a gradient was not finite.

    Carries the log collected up to the failing epoch in ``log``.
    """

    def __init__(self, message, log=None):
        super().__init__(message)
        self.log = log


def show_path(path):
    """``path`` verbatim, or by its repr if it holds an unprintable character
    (a NUL or a newline), so a message naming it stays one line."""
    return str(path) if str(path).isprintable() else repr(str(path))


@contextmanager
def _file_boundary(path, action=""):
    """Re-raise a failed file access inside the block as ImageIOError naming
    ``path`` (by ``show_path``) after ``action``."""
    try:
        yield
    except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ImageIOError(f"{action}{show_path(path)}: {reason}") from exc


def read_file(path, parse, error):
    """``parse`` of the bytes of ``path``. A failure to open or read it is
    ImageIOError; a ValueError from ``parse`` is ``error`` naming the path."""
    with _file_boundary(path), open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except ValueError as exc:
        raise error(f"{show_path(path)}: {exc}") from exc


def write_file(path, data):
    """Write the bytes ``data`` to ``path``; a failure is ImageIOError."""
    with _file_boundary(path, "cannot write "), open(path, "wb") as fh:
        fh.write(data)


def make_dir(path):
    """The directory ``path`` as a Path, made with its parents if missing;
    a failure is ImageIOError."""
    path = Path(path)
    with _file_boundary(path, "cannot write "):
        path.mkdir(parents=True, exist_ok=True)
    return path
