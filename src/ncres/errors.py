"""Exception types shared across the package."""

from contextlib import contextmanager


class NcresError(Exception):
    """Base class for all library errors.  ``entry`` is the key of the
    input at fault within what the raiser was given, such as ``("green",
    0)`` of an operator matrix, or ``()`` where none is named; None once
    the document layer has placed the error at its JSON path."""

    def __init__(self, message, entry=()):
        super().__init__(message)
        self.entry = entry


def sci(n):
    """``n`` as d.dde+x for a message, exact for an int of any size, which
    a float cast would overflow; decimal is imported only on this path."""
    from decimal import Decimal
    return f"{Decimal(n):.2e}"


@contextmanager
def naming(entry, kind):
    """Give an error of ``kind`` raised in the block that names no entry
    the entry ``entry``, the key under which the raiser reads its input;
    ``kind`` may be a builtin error, which then carries the entry too."""
    try:
        yield
    except kind as exc:
        exc.entry = getattr(exc, "entry", ()) or entry
        raise


class DimensionMismatchError(NcresError):
    """Operands live on different tori, or an input has the wrong shape."""


class TruncationFloorError(NcresError):
    """A homogeneous component below the exactness floor was requested."""


class RealPoleError(NcresError):
    """A rational function has a pole on (or too close to) the real axis."""

    def __init__(self, pole):
        super().__init__(f"pole at {pole} lies on or too close to the real axis")
        self.pole = pole


class MembershipError(NcresError):
    """A rational factor violates its half-plane/growth class."""


class TransmissionError(NcresError):
    """Interior symbol fails the transmission (parity) condition."""


class GradingError(NcresError):
    """An order or type outside what an operation takes: operator-matrix
    entries off the declared grading, an auxiliary symbol of order <= 0, or
    a weight outside an estimator's domain."""


class TailBoundError(NcresError):
    """The certified truncation tail exceeds the requested tolerance."""


class ResourceCapError(NcresError):
    """A mode-count or memory budget would be exceeded; nothing was allocated."""


class ModelError(NcresError):
    """A spectrum comes from a model that the operation does not take."""


class IllConditionedFitError(NcresError):
    """Least-squares design matrix too ill-conditioned to trust."""


class WindowError(NcresError):
    """Data window too small for the requested functional."""


class ConfigError(NcresError):
    """A fault of the job document, its message led by the JSON path (and
    the file and line) where it lies; raised by :mod:`ncres.config` and
    :mod:`ncres.cli` only."""
