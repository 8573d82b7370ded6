"""Exact pairwise comparison matrices.

A pairwise comparison matrix (PCM) records ratio judgments a_ij > 0 with
a_ji = 1/a_ij.  All entries are exact rationals and every operation here is
exact: consistency is an equality of products, so no rounding is ever
acceptable.  Decimal input is converted exactly ("0.25" becomes 1/4).

All indices in the public API are 1-based, matching the usual notation for
alternatives 1..n.  Values are immutable after construction and every
function is pure.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    BadNumeralError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteWeightError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    NotConsistentError,
    ReciprocityViolationError,
    RepeatedIndexError,
    TooShortError,
    UnsupportedDimensionError,
)

# Exact rational scalar used throughout.
Rational = Fraction

_NUMERAL_RE = re.compile(r"^[+-]?\d+(?:/\d+|\.\d{1,15})?$")

# Canonical n=4 enumeration order for triads and undirected 4-cycles.
CANONICAL_TRIADS = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
CANONICAL_CYCLES = ((1, 2, 3, 4), (1, 4, 2, 3), (1, 3, 4, 2))


def parse_rational(text: str | int) -> Fraction:
    """Parse "p", "p/q" or a decimal with at most 15 fraction digits, exactly."""
    if isinstance(text, bool):
        raise BadNumeralError(f"BadNumeral: {text!r} is not a numeral")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        # repr() is the shortest decimal that round-trips; reject floats whose
        # shortest form exceeds the decimal budget instead of guessing.
        text = repr(text)
    if not isinstance(text, str):
        raise BadNumeralError(f"BadNumeral: expected a rational string, got {text!r}")
    stripped = text.strip()
    if not _NUMERAL_RE.match(stripped):
        raise BadNumeralError(f"BadNumeral: {text!r} is not 'p', 'p/q' or a short decimal")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadNumeralError(f"BadNumeral: {text!r} ({exc})") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


@dataclass(frozen=True)
class Pcm:
    """A validated positive reciprocal matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise NonSquareError("NonSquare: entries must form a nonempty square grid")
        for i, row in enumerate(self.entries, start=1):
            for j, value in enumerate(row, start=1):
                if value <= 0:
                    raise NonPositiveEntryError(i, j, f"a[{i},{j}]={format_rational(value)}")
        for i in range(1, n + 1):
            for j in range(i, n + 1):
                a_ij = self.entries[i - 1][j - 1]
                a_ji = self.entries[j - 1][i - 1]
                if a_ij * a_ji != 1:
                    raise ReciprocityViolationError(
                        j, i,
                        f"a[{j},{i}]={format_rational(a_ji)} is not the reciprocal "
                        f"of a[{i},{j}]={format_rational(a_ij)}",
                    )

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Fraction:
        """Entry a_ij, 1-based."""
        _check_index(self.n, i)
        _check_index(self.n, j)
        return self.entries[i - 1][j - 1]

    def rows_as_strings(self) -> list[list[str]]:
        return [[format_rational(v) for v in row] for row in self.entries]

    def upper_entries(self) -> dict[tuple[int, int], Fraction]:
        """The n(n-1)/2 independent entries a_ij with i < j."""
        return {
            (i, j): self.entries[i - 1][j - 1]
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
        }


def parse_pcm(rows: Sequence[Sequence[str | int]]) -> Pcm:
    """Parse and validate a grid of rational strings into a Pcm."""
    if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)) or len(rows) == 0:
        raise NonSquareError("NonSquare: expected a nonempty grid of rows")
    parsed = []
    for row in rows:
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
            raise NonSquareError("NonSquare: each row must be a sequence of cells")
        parsed.append(tuple(parse_rational(cell) for cell in row))
    return Pcm(tuple(parsed))


def pcm_from_upper(n: int, upper: dict[tuple[int, int], Fraction | int]) -> Pcm:
    """Build a Pcm from its above-diagonal entries; reciprocals are filled in."""
    grid = [[Fraction(1)] * n for _ in range(n)]
    for (i, j), value in upper.items():
        value = Fraction(value)
        grid[i - 1][j - 1] = value
        grid[j - 1][i - 1] = 1 / value
    return Pcm(tuple(tuple(row) for row in grid))


@dataclass(frozen=True)
class WeightVector:
    """A positive weight vector, either exact (Fraction) or float-valued."""

    components: tuple

    def __post_init__(self):
        if len(self.components) == 0:
            raise NonPositiveWeightError("NonPositiveWeight: empty weight vector")
        kinds = set()
        for c in self.components:
            if not isinstance(c, (Fraction, float)):
                raise NonPositiveWeightError(
                    f"NonPositiveWeight: component {c!r} must be Fraction or float"
                )
            exact = isinstance(c, Fraction)
            kinds.add(exact)
            if not c > 0:
                raise NonPositiveWeightError(f"NonPositiveWeight: component {c!r}")
            if not exact and not math.isfinite(c):
                raise NonFiniteWeightError(f"NonFiniteWeight: component {c!r}")
        if len(kinds) != 1:
            raise NonPositiveWeightError("NonPositiveWeight: mixed exact/float components")

    @property
    def n(self) -> int:
        return len(self.components)

    @property
    def exact(self) -> bool:
        return isinstance(self.components[0], Fraction)

    def component(self, i: int) -> Fraction | float:
        _check_index(self.n, i)
        return self.components[i - 1]

    def ratio(self, i: int, j: int):
        return self.component(i) / self.component(j)

    @property
    def is_normalized(self) -> bool:
        total = sum(self.components)
        if self.exact:
            return total == 1
        return abs(total - 1.0) <= 1e-12

    def normalized(self) -> "WeightVector":
        total = sum(self.components)
        return WeightVector(tuple(c / total for c in self.components))

    def scaled(self, factor) -> "WeightVector":
        return WeightVector(tuple(c * factor for c in self.components))

    def as_strings(self) -> list[str]:
        if self.exact:
            return [format_rational(c) for c in self.components]
        return [repr(c) for c in self.components]


def weight_vector(values: Iterable) -> WeightVector:
    """Build a WeightVector; ints/Fractions give the exact variant, floats the float one."""
    values = list(values)
    if any(isinstance(v, float) for v in values):
        return WeightVector(tuple(float(v) for v in values))
    return WeightVector(tuple(Fraction(v) for v in values))


def compare_ratio(w: WeightVector, i: int, j: int, target: Fraction, band: float = 0.0) -> int:
    """Sign of w_i/w_j - target: -1, 0 or +1.

    Exact vectors compare exactly (integer cross-multiplication, no Fraction
    division in the hot path).  Float vectors treat |ratio - target| within
    band * max(1, target) as equality.
    """
    wi = w.components[i - 1]
    wj = w.components[j - 1]
    if w.exact:
        lhs = wi.numerator * wj.denominator * target.denominator
        rhs = target.numerator * wj.numerator * wi.denominator
        return (lhs > rhs) - (lhs < rhs)
    ratio = wi / wj
    t = float(target)
    if abs(ratio - t) <= band * max(1.0, t):
        return 0
    return 1 if ratio > t else -1


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..n}, stored as the image tuple (sigma(1), ..., sigma(n))."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise IndexOutOfRangeError(f"IndexOutOfRange: {self.mapping} is not a bijection on 1..{n}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        _check_index(self.n, i)
        return self.mapping[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, image in enumerate(self.mapping, start=1):
            inv[image - 1] = i
        return Permutation(tuple(inv))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))


def apply_permutation(pcm: Pcm, perm: Permutation) -> Pcm:
    """Reindex alternatives: the result has b_ij = a_{perm(i), perm(j)}."""
    if perm.n != pcm.n:
        raise DimensionMismatchError(
            f"DimensionMismatch: permutation on 1..{perm.n} applied to a {pcm.n}x{pcm.n} matrix"
        )
    return Pcm(tuple(
        tuple(pcm.entries[perm(i) - 1][perm(j) - 1] for j in range(1, pcm.n + 1))
        for i in range(1, pcm.n + 1)
    ))


def permute_weights(w: WeightVector, perm: Permutation) -> WeightVector:
    """Reindex a weight vector consistently with apply_permutation: v_i = w_{perm(i)}."""
    if perm.n != w.n:
        raise DimensionMismatchError("DimensionMismatch: permutation and weight vector lengths differ")
    return WeightVector(tuple(w.components[perm(i) - 1] for i in range(1, w.n + 1)))


def _check_index(n: int, i: int) -> None:
    if not isinstance(i, int) or not 1 <= i <= n:
        raise IndexOutOfRangeError(f"IndexOutOfRange: index {i} not in 1..{n}")


def _check_distinct(indices: Sequence[int]) -> None:
    if len(set(indices)) != len(indices):
        raise RepeatedIndexError(f"RepeatedIndex: {tuple(indices)} repeats a vertex")


def triad_product(pcm: Pcm, triad: Sequence[int]) -> Fraction:
    """a_ij * a_jk * a_ki for the ordered triple (i, j, k); equals 1 iff consistent."""
    i, j, k = triad
    for idx in (i, j, k):
        _check_index(pcm.n, idx)
    _check_distinct((i, j, k))
    return pcm.entries[i - 1][j - 1] * pcm.entries[j - 1][k - 1] * pcm.entries[k - 1][i - 1]


def cycle_product(pcm: Pcm, cycle: Sequence[int]) -> Fraction:
    """Exact product of entries along the closed walk cycle[0] -> ... -> cycle[0]."""
    if len(cycle) < 3:
        raise TooShortError(f"TooShort: a cycle needs at least 3 vertices, got {len(cycle)}")
    for idx in cycle:
        _check_index(pcm.n, idx)
    _check_distinct(cycle)
    product = Fraction(1)
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        product *= pcm.entries[a - 1][b - 1]
    return product


def _require_n4(pcm: Pcm) -> None:
    if pcm.n != 4:
        raise UnsupportedDimensionError(f"UnsupportedDimension: requires n=4, got n={pcm.n}")


def consistent_triads(pcm: Pcm) -> list[tuple[int, int, int]]:
    """The canonical triads of a 4x4 matrix whose product is exactly 1."""
    _require_n4(pcm)
    return [t for t in CANONICAL_TRIADS if triad_product(pcm, t) == 1]


def consistent_four_cycles(pcm: Pcm) -> list[tuple[int, int, int, int]]:
    """The canonical undirected 4-cycles of a 4x4 matrix whose product is exactly 1."""
    _require_n4(pcm)
    return [c for c in CANONICAL_CYCLES if cycle_product(pcm, c) == 1]


def is_consistent(pcm: Pcm) -> bool:
    """True iff a_ij * a_jk = a_ik for all triples (exact)."""
    for i in range(1, pcm.n + 1):
        for j in range(i + 1, pcm.n + 1):
            for k in range(j + 1, pcm.n + 1):
                if triad_product(pcm, (i, j, k)) != 1:
                    return False
    return True


def consistent_weights(pcm: Pcm) -> WeightVector:
    """The unique normalized exact w with w_i/w_j = a_ij, for a consistent matrix."""
    if not is_consistent(pcm):
        raise NotConsistentError("NotConsistent: matrix has an inconsistent triad")
    # Fix the last weight and read the ratios off the last column.
    raw = tuple(pcm.entries[i][pcm.n - 1] for i in range(pcm.n))
    return WeightVector(raw).normalized()
