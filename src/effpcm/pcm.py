"""Exact pairwise comparison matrices.

A pairwise comparison matrix (PCM) records ratio judgments a_ij > 0 with
a_ji = 1/a_ij.  All entries are exact rationals and every operation here is
exact: consistency is an equality of products, so no rounding is ever
acceptable.  Decimal input is converted exactly ("0.25" becomes 1/4).

All indices in the public API are 1-based, matching the usual notation for
alternatives 1..n.  Values are immutable after construction and every
function is pure.

For n = 4 the theory needs seven numbers: the products of the four
canonical triads and of the three canonical 4-cycles, each only through how
it compares with 1.  ``product_signs`` computes those seven signs at once by
integer cross-multiplication, once per matrix: it keeps them on the Pcm,
outside its fields.  Classification, orientation, the tetrahedra, the
coincidence report and both rearrangements in ``geometry`` derive from
them.  ``triad_product`` and ``cycle_product`` remain for arbitrary
listings.  ``compare_ratio``, the one comparison of a weight ratio with its
entry, builds the BCC digraph.
"""

from __future__ import annotations

import math
import re
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

# Groups: the signed whole part, then a denominator or the fraction digits.
_NUMERAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+)|\.(\d{1,15}))?")

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
    match = _NUMERAL_RE.fullmatch(text.strip())
    if match is None:
        raise BadNumeralError(f"BadNumeral: {text!r} is not 'p', 'p/q' or a short decimal")
    whole, den, digits = match.groups()
    try:
        if den is not None:
            return Fraction(int(whole), int(den))
        if digits is None:
            return Fraction(int(whole))
        scale = 10 ** len(digits)
        numerator = abs(int(whole)) * scale + int(digits)
        return Fraction(-numerator if whole[0] == "-" else numerator, scale)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadNumeralError(f"BadNumeral: {text!r} ({exc})") from exc


def format_rational(value: Fraction) -> str:
    """Render a rational as "p" or "p/q"."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Record:
    """Base of the package's immutable values, compared and hashed by value.

    A subclass declares its fields as class annotations, read once here in
    declaration order.  A record is built from one value per field, given
    by position or by field name; the subclass validates them in
    ``__post_init__``, which runs last.  Equality (same class, equal
    fields), hashing and ``repr`` go over those fields; assigning or
    deleting an attribute raises ``AttributeError``.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *values, **named):
        fields = self._fields
        if named or len(values) != len(fields):
            # a value past the last field or given twice shrinks the dict
            given = dict(zip(fields, values), **named)
            if len(given) != len(values) + len(named) or given.keys() != set(fields):
                raise TypeError(
                    f"{self.__class__.__qualname__}() takes one value per field "
                    f"({', '.join(fields)}); got {len(values)} by position and "
                    f"{', '.join(named) or 'none'} by name"
                )
            values = tuple(given[name] for name in fields)
        self.__dict__.update(zip(fields, values))  # not through __setattr__, which raises
        self.__post_init__()

    def __post_init__(self):
        """Check the fields; a record without constraints keeps this no-op."""

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Pcm(Record):
    """A validated positive reciprocal matrix of exact rationals."""

    entries: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        # tuples, so a record built from lists hashes and cannot be mutated
        entries = self.__dict__["entries"] = tuple(map(tuple, self.entries))
        n = len(entries)
        if n == 0 or any(len(row) != n for row in entries):
            raise NonSquareError("NonSquare: entries must form a nonempty square grid")
        for i, row in enumerate(entries, start=1):
            for j, value in enumerate(row, start=1):
                if not isinstance(value, (Fraction, int)) or isinstance(value, bool):
                    raise BadNumeralError(
                        f"BadNumeral: a[{i},{j}]={value!r} is not a Fraction or an int"
                    )
                if value.numerator <= 0:
                    raise NonPositiveEntryError(i, j, f"a[{i},{j}]={format_rational(value)}")
        # Both entries are positive and in lowest terms, so a_ij * a_ji = 1
        # exactly when one is the other with numerator and denominator swapped.
        for i in range(n):
            for j in range(i, n):
                a_ij = entries[i][j]
                a_ji = entries[j][i]
                if a_ij.numerator != a_ji.denominator or a_ij.denominator != a_ji.numerator:
                    raise ReciprocityViolationError(
                        j + 1, i + 1,
                        f"a[{j + 1},{i + 1}]={format_rational(a_ji)} is not the reciprocal "
                        f"of a[{i + 1},{j + 1}]={format_rational(a_ij)}",
                    )

    @property
    def n(self) -> int:
        return len(self.entries)

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
        grid[j - 1][i - 1] = Fraction(value.denominator, value.numerator)
    return Pcm(tuple(tuple(row) for row in grid))


class WeightVector(Record):
    """A positive weight vector, either exact (Fraction) or float-valued."""

    components: tuple

    def __post_init__(self):
        components = self.__dict__["components"] = tuple(self.components)
        if len(components) == 0:
            raise NonPositiveWeightError("NonPositiveWeight: empty weight vector")
        kinds = set()
        for c in components:
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

    @property
    def is_normalized(self) -> bool:
        total = sum(self.components)
        if self.exact:
            return total == 1
        return abs(total - 1.0) <= 1e-12

    def normalized(self) -> "WeightVector":
        components = self.components
        total = sum(components)
        if not self.exact and math.isinf(total):
            # finite floats whose sum overflows; a power-of-two scale keeps
            # every normal float's mantissa
            components = tuple(math.ldexp(c, -self.n.bit_length()) for c in components)
            total = sum(components)
        return WeightVector(tuple(c / total for c in components))

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
    band * target as equality, a band relative to the target of any size; a
    target past the float range gets the same test in exact arithmetic.
    """
    wi = w.components[i - 1]
    wj = w.components[j - 1]
    if w.exact:
        lhs = wi.numerator * wj.denominator * target.denominator
        rhs = target.numerator * wj.numerator * wi.denominator
        return (lhs > rhs) - (lhs < rhs)
    ratio = wi / wj
    try:
        t = float(target)
    except OverflowError:
        ratio, t, band = Fraction(ratio), target, Fraction(band)
    if abs(ratio - t) <= band * t:
        return 0
    return 1 if ratio > t else -1


class Permutation(Record):
    """A bijection on {1..n}, stored as the image tuple (sigma(1), ..., sigma(n))."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = self.__dict__["mapping"] = tuple(self.mapping)
        n = len(mapping)
        if sorted(mapping) != list(range(1, n + 1)):
            raise IndexOutOfRangeError(f"IndexOutOfRange: {mapping} is not a bijection on 1..{n}")

    @property
    def n(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        _check_index(self.n, i)
        return self.mapping[i - 1]


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


def _sign(lhs: int, rhs: int) -> int:
    return (lhs > rhs) - (lhs < rhs)


def product_signs(pcm: Pcm) -> tuple[tuple[int, int, int, int], tuple[int, int, int]]:
    """Signs of product - 1 for the canonical triads and 4-cycles of a 4x4 matrix.

    Returns (triad signs in CANONICAL_TRIADS order, cycle signs in
    CANONICAL_CYCLES order), each -1, 0 or +1: 0 marks a consistent triad or
    cycle, and a cycle's sign fixes its orientation.  Each product is a ratio
    of upper entries a_ij = n_ij / d_ij (i < j), all positive, so its sign is
    that of an integer cross-multiplication: no Fraction is built and no gcd
    is taken.  The result is kept on the matrix, outside its fields, so
    later calls return it without comparing again.
    """
    signs = pcm.__dict__.get("_signs")
    if signs is not None:
        return signs
    _require_n4(pcm)
    (_, a12, a13, a14), (_, _, a23, a24), (_, _, _, a34), _ = pcm.entries
    n12, d12 = a12.numerator, a12.denominator
    n13, d13 = a13.numerator, a13.denominator
    n14, d14 = a14.numerator, a14.denominator
    n23, d23 = a23.numerator, a23.denominator
    n24, d24 = a24.numerator, a24.denominator
    n34, d34 = a34.numerator, a34.denominator
    triads = (
        _sign(n12 * n23 * d13, d12 * d23 * n13),  # a12 a23 a31
        _sign(n12 * n24 * d14, d12 * d24 * n14),  # a12 a24 a41
        _sign(n13 * n34 * d14, d13 * d34 * n14),  # a13 a34 a41
        _sign(n23 * n34 * d24, d23 * d34 * n24),  # a23 a34 a42
    )
    cycles = (
        _sign(n12 * n23 * n34 * d14, d12 * d23 * d34 * n14),  # a12 a23 a34 a41
        _sign(n14 * n23 * d13 * d24, d14 * d23 * n13 * n24),  # a14 a42 a23 a31
        _sign(n13 * n34 * d12 * d24, d13 * d34 * n12 * n24),  # a13 a34 a42 a21
    )
    return pcm.__dict__.setdefault("_signs", (triads, cycles))


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
