"""Exception taxonomy shared across the package, and its one file boundary.

Each class carries the CLI's exit code and stderr label for it:
ConfigurationError -> 1, ImageIOError -> 2, NumericalError (and
subclasses) -> 3, any other package error -> 1. ``read_file`` and
``write_file`` are the package's only file access; they report any
OSError, or a path ``open`` rejects (a null byte), as ImageIOError naming
the path once, with the OS's reason (``strerror``) when there is one.
"""


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


def read_file(path):
    """The bytes of ``path``; a failure to open or read it is ImageIOError."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ImageIOError(f"{path}: {reason}") from exc


def write_file(path, data):
    """Write the bytes ``data`` to ``path``; a failure is ImageIOError."""
    try:
        with open(path, "wb") as fh:
            fh.write(data)
    except (OSError, ValueError) as exc:  # ValueError: a null byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ImageIOError(f"cannot write {path}: {reason}") from exc
