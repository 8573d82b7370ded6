"""Exception hierarchy shared by all effpcm modules.

Every exception carries a short ``code`` used when rendering diagnostics
(e.g. on the command line), so callers can match on the code without
depending on message wording.
"""

from __future__ import annotations


class InputError(ValueError):
    """Base class for contract violations on user-supplied data."""

    code = "InputError"


class NonSquareError(InputError):
    code = "NonSquare"


class BadNumeralError(InputError):
    code = "BadNumeral"


class NonPositiveEntryError(InputError):
    code = "NonPositiveEntry"

    def __init__(self, i: int, j: int, message: str = ""):
        self.position = (i, j)
        super().__init__(f"{self.code} ({i},{j})" + (f": {message}" if message else ""))


class ReciprocityViolationError(InputError):
    code = "ReciprocityViolation"

    def __init__(self, i: int, j: int, message: str = ""):
        self.position = (i, j)
        super().__init__(f"{self.code} ({i},{j})" + (f": {message}" if message else ""))


class IndexOutOfRangeError(InputError):
    code = "IndexOutOfRange"


class RepeatedIndexError(InputError):
    code = "RepeatedIndex"


class TooShortError(InputError):
    code = "TooShort"


class DimensionMismatchError(InputError):
    code = "DimensionMismatch"


class UnsupportedDimensionError(InputError):
    code = "UnsupportedDimension"


class DimensionTooLargeError(InputError):
    code = "DimensionTooLarge"


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


class NotNormalizedError(InputError):
    code = "NotNormalized"


class NotACanonicalCycleError(InputError):
    code = "NotACanonicalCycle"


class ConsistentTriadPresentError(InputError):
    code = "ConsistentTriadPresent"


class ImpossibleCombinationError(InputError):
    code = "ImpossibleCombination"

    def __init__(self, triads: int, cycles: int):
        self.counts = (triads, cycles)
        super().__init__(
            f"{self.code} ({triads},{cycles}): no admissible class has "
            f"{triads} consistent triads and {cycles} consistent 4-cycles"
        )


class GenerationFailedError(RuntimeError):
    """Raised when a random-instance generator exhausts its resampling budget."""
