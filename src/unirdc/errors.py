"""Exception hierarchy shared across the package.

Precondition failures (bad arguments, malformed inputs) are kept distinct
from runtime failures (infeasible enumerations, corrupt streams) so callers
and the CLI can map them to different exit codes.
"""

__all__ = [
    "UnirdcError",
    "PreconditionError",
    "EnumerationCapError",
    "TruncationError",
    "CorruptStreamError",
    "UncodableInputError",
    "CapacityError",
    "InfeasibleError",
    "UncoverableError",
]


class UnirdcError(Exception):
    """Base class for all package errors."""

    code = "error"


class PreconditionError(UnirdcError, ValueError):
    """An argument violated a documented precondition."""

    code = "precondition"


class EnumerationCapError(UnirdcError):
    """An exhaustive enumeration would exceed the configured state cap."""

    code = "enumeration_cap"


class TruncationError(UnirdcError):
    """A bit stream ended before the decoder finished."""

    code = "truncation"


class CorruptStreamError(UnirdcError):
    """A bit stream decoded to an inconsistent state (bad pointer, bad symbol)."""

    code = "corrupt_stream"


class UncodableInputError(UnirdcError):
    """No reproduction block meets the distortion budget for this input."""

    code = "uncodable_input"


class CapacityError(UnirdcError):
    """The codeword budget was exhausted and no fallback path is feasible."""

    code = "capacity"


class InfeasibleError(UnirdcError):
    """A requested operating point lies outside the achievable region."""

    code = "infeasible"


class UncoverableError(UnirdcError):
    """A block cannot be covered by any candidate codeword."""

    code = "uncoverable"

    def __init__(self, message, member=None):
        super().__init__(message)
        self.member = member
