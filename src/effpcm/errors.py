"""Exception hierarchy shared by all effpcm modules.

Every exception carries a short ``code`` used when rendering diagnostics
(e.g. on the command line), so callers can match on the code without
depending on message wording.  ``InputError`` alone writes the text: a raise
site passes only the message, and ``str(exc)`` is ``<code>: <message>``, or
``<code> (a,b): <message>`` with an ``EntryError``'s position or an
``ImpossibleCombinationError``'s counts.
"""

from __future__ import annotations


class InputError(ValueError):
    """Base class for contract violations on user-supplied data."""

    code = "InputError"
    _detail = ""  # what a subclass prints between the code and the colon

    def __init__(self, message: str = ""):
        super().__init__(self.code + self._detail + (f": {message}" if message else ""))

    def __reduce__(self):  # a copy or an unpickled error takes the composed text as it is
        return type(self).__new__, (type(self), *self.args), self.__dict__


class UsageError(InputError):
    """A command line the argument parser rejects."""

    code = "Usage"


class NonSquareError(InputError):
    code = "NonSquare"


class BadNumeralError(InputError):
    code = "BadNumeral"


class NumberTooLongError(InputError):
    code = "NumberTooLong"


class EntryError(InputError):
    """A fault at matrix position (i, j), 1-based, kept as ``position``."""

    def __init__(self, i: int, j: int, message: str = ""):
        self.position = (i, j)
        self._detail = f" ({i},{j})"
        super().__init__(message)


class NonPositiveEntryError(EntryError):
    code = "NonPositiveEntry"


class ReciprocityViolationError(EntryError):
    code = "ReciprocityViolation"


class IndexOutOfRangeError(InputError):
    code = "IndexOutOfRange"


class RepeatedIndexError(InputError):
    code = "RepeatedIndex"


class TooShortError(InputError):
    code = "TooShort"


class NotATriadError(InputError):
    code = "NotATriad"


class DimensionMismatchError(InputError):
    code = "DimensionMismatch"


class UnsupportedDimensionError(InputError):
    code = "UnsupportedDimension"


class NotConsistentError(InputError):
    code = "NotConsistent"


class NonPositiveWeightError(InputError):
    code = "NonPositiveWeight"


class NonFiniteWeightError(InputError):
    code = "NonFiniteWeight"


class BadToleranceError(InputError):
    code = "BadTolerance"


class BadTrialCountError(InputError):
    code = "BadTrialCount"


class NotACanonicalCycleError(InputError):
    code = "NotACanonicalCycle"


class NotASpanningTreeError(InputError):
    code = "NotASpanningTree"


class ConsistentTriadPresentError(InputError):
    code = "ConsistentTriadPresent"


class ImpossibleCombinationError(InputError):
    code = "ImpossibleCombination"

    def __init__(self, triads: int, cycles: int):
        self.counts = (triads, cycles)
        self._detail = f" ({triads},{cycles})"
        super().__init__(f"no admissible class has {triads} consistent triads and {cycles} consistent 4-cycles")


class GenerationFailedError(RuntimeError):
    """Raised when a random-instance generator exhausts its resampling budget."""
