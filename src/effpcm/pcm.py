"""Exact pairwise comparison matrices.

A pairwise comparison matrix (PCM) records ratio judgments a_ij > 0 with
a_ji = 1/a_ij.  All entries are exact rationals and every operation here is
exact: consistency is an equality of products, so no rounding is ever
acceptable.  A ``Pcm`` keeps only its upper triangle, each entry as its
reduced integer pair, and every builder reads its values with ``parse_pair``,
so decimal input is converted exactly ("0.25" becomes (1, 4)).

All indices in the public API are 1-based, matching the usual notation for
alternatives 1..n.  Values are immutable after construction and every
function is pure.

For n = 4 the theory needs seven numbers: the products of the four
canonical triads and of the three canonical 4-cycles, each only through how
it compares with 1.  ``upper_signs`` computes those seven signs at once by
integer cross-multiplication, and ``Pcm.signs`` keeps them.  Classification,
orientation, the tetrahedra, the coincidence report and both rearrangements
in ``geometry`` derive from them.  ``triad_product`` and ``cycle_product``
remain for arbitrary listings.  Weight ratios meet their entries in one
place only, the BCC digraph of ``efficiency``.  A weight vector is exact
too, and carries the equality band its pairs are compared with:
``weight_vector`` is the one place a float enters, read as its exact value,
and there the vector takes the float band its caller passes (default 1e-9);
any other vector has band 0; no band here comes from a process setting.  A
record keeps a value derived from its fields as a ``functools.cached_property``,
whose slot a builder that already holds the value seeds (``pcm_from_pairs``, ``parse_pcm``).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Sequence
from fractions import Fraction

from .errors import (
    BadNumeralError,
    BadToleranceError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteWeightError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    NotATriadError,
    NotConsistentError,
    NumberTooLongError,
    ReciprocityViolationError,
    RepeatedIndexError,
    TooShortError,
    UnsupportedDimensionError,
)

# Groups: the signed whole part, then a denominator or the fraction digits,
# in ASCII digits only (a bare \d also matches other scripts' digits).
_NUMERAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+)|\.(\d{1,15}))?", re.ASCII)

# Canonical n=4 enumeration order for triads and undirected 4-cycles.
CANONICAL_TRIADS = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
CANONICAL_CYCLES = ((1, 2, 3, 4), (1, 4, 2, 3), (1, 3, 4, 2))


def parse_pair(value: Fraction | int | float | str) -> tuple[int, int]:
    """The exact value, as (numerator, denominator) in lowest terms with a positive
    denominator, of a Fraction, an int, a numeral ("p", "p/q" or a decimal with at most 15
    fraction digits) or a float (read as its repr); anything else, a bool, None or a
    Decimal too, raises BadNumeral.  A numeral builds no Fraction."""
    if type(value) is not str:  # a document's cells are all str: skip the tests below
        if isinstance(value, Fraction):
            return value.as_integer_ratio()
        if isinstance(value, bool):
            raise BadNumeralError(f"{value!r} is not a numeral")
        if isinstance(value, int):
            return int(value), 1
        if isinstance(value, float):
            # repr() is the shortest decimal that round-trips; reject floats whose
            # shortest form exceeds the decimal budget instead of guessing.
            value = repr(value)
        elif not isinstance(value, str):
            raise BadNumeralError(f"{value!r} is not a Fraction, int, float or str")
    match = _NUMERAL_RE.fullmatch(value.strip(" \t\n\r\f\v"))  # ASCII padding: strip() takes any
    if match is None:
        raise BadNumeralError(f"{value!r} is not 'p', 'p/q' or a short decimal")
    whole, den, digits = match.groups()
    try:  # int() past the digit limit raises ValueError, as Fraction(str) does
        numerator = int(whole)
        if digits is not None:
            den = 10 ** len(digits)
            numerator = numerator * den + (-int(digits) if whole[0] == "-" else int(digits))
        elif den is None:
            return numerator, 1
        elif (den := int(den)) == 0:
            raise ZeroDivisionError(f"Fraction({numerator}, 0)")  # Fraction's own words
    except (ValueError, ZeroDivisionError) as exc:
        raise BadNumeralError(f"{value!r} ({exc})") from exc
    g = math.gcd(numerator, den)
    return numerator // g, den // g


def parse_rational(value: Fraction | int | float | str) -> Fraction:
    """The value ``parse_pair`` reads, as a Fraction."""
    return Fraction(*parse_pair(value))


def format_rational(value: Fraction | int, denominator: int = 1) -> str:
    """Render value / denominator, an int over a positive int or a Fraction over 1, as "p" or
    "p/q" in lowest terms; a part past the int-to-text digit limit raises ``NumberTooLongError``."""
    if denominator != 1:  # an int over an int: reduce it
        value, denominator = value // (g := math.gcd(value, denominator)), denominator // g
    try:  # a Fraction prints "p" or "p/q", as does an int
        return str(value) if denominator == 1 else f"{value}/{denominator}"
    except ValueError:
        bits = max(value.numerator.bit_length(), (value.denominator * denominator).bit_length())
        raise NumberTooLongError(f"a {bits}-bit integer has too many digits to print") from None


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
    """A positive reciprocal n x n matrix of exact rationals, kept as its upper triangle: each
    a_ij, i < j, row by row (``itertools.combinations`` order), as its (numerator, denominator)
    in lowest terms, denominator positive; a_ii = 1 and a_ji = 1/a_ij hold by construction.
    ``parse_pcm`` and ``pcm_from_upper`` build one; ``pairs`` and ``entries`` read the grid."""

    n: int
    upper: tuple[tuple[int, int], ...]

    def __post_init__(self):
        # a tuple, so a record built from a list hashes and cannot be mutated
        upper = self.__dict__["upper"] = tuple(self.upper)
        n = self.n
        if type(n) is not int or n < 1 or len(upper) != n * (n - 1) // 2:
            raise NonSquareError("entries must form a nonempty square grid")
        for k, pair in enumerate(upper):
            form = (type(pair) is tuple and len(pair) == 2 and type(pair[0]) is int
                    and type(pair[1]) is int and pair[1] > 0 and math.gcd(*pair) == 1)
            if not form or pair[0] <= 0:  # the position (i, j) is worked out for a fault only
                i, j = next(itertools.islice(itertools.combinations(range(1, n + 1), 2), k, None))
                if not form:
                    raise BadNumeralError(f"a[{i},{j}]={pair!r} is not an int pair in lowest terms")
                raise NonPositiveEntryError(i, j, f"a[{i},{j}]={format_rational(*pair)}")

    @functools.cached_property
    def pairs(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The full grid of pairs, row by row: a_ii is (1, 1) and a_ji is a_ij swapped."""
        grid = [[(1, 1)] * self.n for _ in range(self.n)]
        for (i, j), (p, q) in zip(itertools.combinations(range(self.n), 2), self.upper):
            grid[i][j], grid[j][i] = (p, q), (q, p)
        return tuple(map(tuple, grid))

    @functools.cached_property
    def entries(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(*pair) for pair in row) for row in self.pairs)

    @functools.cached_property
    def signs(self) -> tuple[tuple[int, int, int, int], tuple[int, int, int]]:
        """(triad signs, cycle signs) of product - 1 in canonical order; 0 marks a consistent one."""
        _require_n4(self)
        return upper_signs(self.upper)

    def rows_as_strings(self) -> list[list[str]]:
        return [[format_rational(*pair) for pair in row] for row in self.pairs]

    def upper_entries(self) -> dict[tuple[int, int], Fraction]:
        """The n(n-1)/2 independent entries a_ij with i < j."""
        keys = itertools.combinations(range(1, self.n + 1), 2)
        return {key: Fraction(*pair) for key, pair in zip(keys, self.upper)}


def parse_pcm(rows: Sequence[Sequence[Fraction | int | float | str]]) -> Pcm:
    """Read each cell with ``parse_pair``, then check the grid: square, each cell positive
    in row-major order, then a_ji = 1/a_ij for i <= j.  The grid seeds ``Pcm.pairs``."""
    if not isinstance(rows, Sequence) or isinstance(rows, (str, bytes)) or len(rows) == 0:
        raise NonSquareError("expected a nonempty grid of rows")
    parsed, numerals = [], {}  # each distinct numeral string is read once
    for row in rows:
        if not isinstance(row, Sequence) or isinstance(row, (str, bytes)):
            raise NonSquareError("each row must be a sequence of cells")
        values = []
        for cell in row:
            if type(cell) is str and cell not in numerals:
                numerals[cell] = parse_pair(cell)
            values.append(numerals[cell] if type(cell) is str else parse_pair(cell))
        parsed.append(tuple(values))
    n = len(parsed)
    if any(len(row) != n for row in parsed):
        raise NonSquareError("entries must form a nonempty square grid")
    for i, row in enumerate(parsed, start=1):
        for j, (p, q) in enumerate(row, start=1):
            if p <= 0:
                raise NonPositiveEntryError(i, j, f"a[{i},{j}]={format_rational(p, q)}")
    # Both entries are positive and in lowest terms, so a_ij * a_ji = 1
    # exactly when one is the other with numerator and denominator swapped.
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        if parsed[i][j] != parsed[j][i][::-1]:
            raise ReciprocityViolationError(
                j + 1, i + 1,
                f"a[{j + 1},{i + 1}]={format_rational(*parsed[j][i])} is not the "
                f"reciprocal of a[{i + 1},{j + 1}]={format_rational(*parsed[i][j])}",
            )
    pcm = Pcm(n, tuple([parsed[i][j] for i, j in itertools.combinations(range(n), 2)]))
    pcm.__dict__["pairs"] = tuple(parsed)
    return pcm


def pcm_from_upper(n: int, upper: dict[tuple[int, int], Fraction | int | float | str]) -> Pcm:
    """Build a Pcm from entries a_ij keyed (i, j), 1 <= i < j <= n; a_ji = 1/a_ij, absent pairs 1."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise NonSquareError(f"n={n!r} is not an integer")
    pairs = dict.fromkeys(itertools.combinations(range(1, n + 1), 2), (1, 1))
    for key, value in upper.items():
        i, j = key if isinstance(key, tuple) and len(key) == 2 else (0, 0)
        if not (type(i) is type(j) is int and 1 <= i < j <= n):
            raise IndexOutOfRangeError(f"{key!r} is not a pair i < j in 1..{n}")
        if isinstance(value, bool):
            raise BadNumeralError(f"a[{i},{j}]={value!r} is a bool, not a number")
        p, q = parse_pair(value)
        if p <= 0:
            raise NonPositiveEntryError(i, j, f"a[{i},{j}]={format_rational(p, q)}")
        pairs[i, j] = p, q
    return Pcm(n, tuple(pairs.values()))


class WeightVector(Record):
    """A positive weight vector x_i / d, gcd(d, x_1, ..., x_n) = 1, with the equality band its
    pairs are compared with: 0 for exact input, the float band for a vector read from floats."""

    numerators: tuple[int, ...]
    denominator: int
    band: Fraction | int

    def __post_init__(self):
        x = self.__dict__["numerators"] = tuple(self.numerators)
        d = self.denominator
        if len(x) == 0:
            raise NonPositiveWeightError("empty weight vector")
        if type(d) is not int or d <= 0:
            raise NonPositiveWeightError(f"denominator {d!r} is not a positive int")
        for c in x:
            if type(c) is not int:
                raise NonPositiveWeightError(f"component {c!r} must be an int numerator")
            if c <= 0:
                raise NonPositiveWeightError(f"component {format_rational(c, d)}")
        if math.gcd(d, *x) != 1:
            raise NonPositiveWeightError(f"{x} / {d} is not in lowest terms")
        band = self.band
        if not isinstance(band, (Fraction, int)) or isinstance(band, bool) or band < 0:
            raise BadToleranceError(f"band={band!r} is not a Fraction or an int >= 0")

    @property
    def n(self) -> int:
        return len(self.numerators)

    @property
    def integer_form(self) -> tuple[tuple[int, ...], int]:
        """(x, d): the components are x_i / d."""
        return self.numerators, self.denominator

    @functools.cached_property
    def components(self) -> tuple[Fraction, ...]:  # for the few readers that want Fractions
        return tuple(Fraction(x, self.denominator) for x in self.numerators)

    def as_strings(self) -> list[str]:
        if self.band:  # read from floats: each component is a float's exact value
            return [repr(x / self.denominator) for x in self.numerators]
        return [format_rational(x, self.denominator) for x in self.numerators]


DEFAULT_EQUALITY_BAND = 1e-9


def _checked_band(band):
    """``band`` if it is a finite int, float or Fraction >= 0; else BadTolerance."""
    if isinstance(band, bool) or not isinstance(band, (int, float, Fraction)) or not 0 <= band < math.inf:
        raise BadToleranceError(f"float_band={band!r} is not a finite number >= 0")
    return band


def weight_vector(values: Sequence, float_band=DEFAULT_EQUALITY_BAND) -> WeightVector:
    """The WeightVector of the values read by parse_pair, band 0, or, if a value is a
    float, of every value's float read exactly, with band ``float_band``; d is the lcm
    of the values' denominators.  The values are checked first, then ``float_band``,
    which must be a finite number >= 0 for every vector."""
    if isinstance(values, (str, bytes)):
        raise BadNumeralError(f"{values!r} is one value, not a sequence of weights")
    if not isinstance(values, Sequence):  # as parse_pcm's rows: a set has no order to give
        raise BadNumeralError(f"a {type(values).__name__} is not a sequence of weights")
    values, band = [v if isinstance(v, float) else parse_pair(v) for v in values], 0
    if any(isinstance(v, float) for v in values):
        try:
            floats = [float(v) if isinstance(v, float) else v[0] / v[1] for v in values]
        except OverflowError:  # an int or Fraction that no float holds
            raise NonFiniteWeightError("a component is past the float range") from None
        for c in floats:
            if not c > 0:  # NaN fails c > 0
                raise NonPositiveWeightError(f"component {c!r}")
            if not math.isfinite(c):
                raise NonFiniteWeightError(f"component {c!r}")
        values, band = [c.as_integer_ratio() for c in floats], Fraction(_checked_band(float_band))
    d = math.lcm(*(q for _, q in values))
    vector = WeightVector(tuple([p * (d // q) for p, q in values]), d, band)
    if not band:
        _checked_band(float_band)  # after an exact vector's values, as after a float one's
    return vector


class Permutation(Record):
    """A bijection on {1..n}, stored as the image tuple (sigma(1), ..., sigma(n))."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        mapping = self.__dict__["mapping"] = tuple(self.mapping)
        n = len(mapping)
        if (any(not isinstance(v, int) or isinstance(v, bool) for v in mapping)
                or sorted(mapping) != list(range(1, n + 1))):
            raise IndexOutOfRangeError(f"{mapping} is not a bijection on 1..{n}")

    @property
    def n(self) -> int:
        return len(self.mapping)


def apply_permutation(pcm: Pcm, perm: Permutation) -> Pcm:
    """Reindex alternatives: the result has b_ij = a_{perm(i), perm(j)}."""
    if perm.n != pcm.n:
        raise DimensionMismatchError(f"permutation on 1..{perm.n} applied to a {pcm.n}x{pcm.n} matrix")
    a = dict(zip(itertools.combinations(range(1, pcm.n + 1), 2), pcm.upper))
    # b_ij for i < j is a_st, s = perm(i) and t = perm(j): a stored pair when s < t, else swapped
    return Pcm(pcm.n, tuple([a[s, t] if s < t else a[t, s][::-1]
                             for s, t in itertools.combinations(perm.mapping, 2)]))


def triad_product(pcm: Pcm, triad: Sequence[int]) -> Fraction:
    """a_ij * a_jk * a_ki for the ordered triple (i, j, k); equals 1 iff consistent."""
    if len(triad) != 3:
        raise NotATriadError(f"a triad lists 3 vertices, got {len(triad)}")
    return cycle_product(pcm, triad)


def cycle_product(pcm: Pcm, cycle: Sequence[int]) -> Fraction:
    """Exact product of entries along the closed walk cycle[0] -> ... -> cycle[0]."""
    if len(cycle) < 3:
        raise TooShortError(f"a cycle needs at least 3 vertices, got {len(cycle)}")
    for i in cycle:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= pcm.n:
            raise IndexOutOfRangeError(f"index {i} not in 1..{pcm.n}")
    if len(set(cycle)) != len(cycle):
        raise RepeatedIndexError(f"{tuple(cycle)} repeats a vertex")
    product = Fraction(1)
    for a, b in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        product *= pcm.entries[a - 1][b - 1]
    return product


def _require_n4(pcm: Pcm) -> None:
    if pcm.n != 4:
        raise UnsupportedDimensionError(f"requires n=4, got n={pcm.n}")


def _sign(lhs: int, rhs: int) -> int:
    return (lhs > rhs) - (lhs < rhs)


def upper_signs(pairs: Sequence[tuple[int, int]]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``Pcm.signs`` of the 4x4 matrix with upper entries a_ij = n_ij / d_ij.

    ``pairs`` lists the positive (n_ij, d_ij), in lowest terms or not, for
    a12, a13, a14, a23, a24, a34.  Each sign is that of an integer
    cross-multiplication: no Fraction is built and no gcd is taken.
    """
    (n12, d12), (n13, d13), (n14, d14), (n23, d23), (n24, d24), (n34, d34) = pairs
    return (
        _sign(n12 * n23 * d13, d12 * d23 * n13),  # a12 a23 a31
        _sign(n12 * n24 * d14, d12 * d24 * n14),  # a12 a24 a41
        _sign(n13 * n34 * d14, d13 * d34 * n14),  # a13 a34 a41
        _sign(n23 * n34 * d24, d23 * d34 * n24),  # a23 a34 a42
    ), (
        _sign(n12 * n23 * n34 * d14, d12 * d23 * d34 * n14),  # a12 a23 a34 a41
        _sign(n14 * n23 * d13 * d24, d14 * d23 * n13 * n24),  # a14 a42 a23 a31
        _sign(n13 * n34 * d12 * d24, d13 * d34 * n12 * n24),  # a13 a34 a42 a21
    )


def pcm_from_pairs(pairs: Sequence[tuple[int, int]], signs: tuple) -> Pcm:
    """The 4x4 Pcm with upper entries n_ij / d_ij, each reduced by one gcd; every Pcm
    check runs.  ``signs`` must be ``upper_signs(pairs)``: they seed ``Pcm.signs``.
    """
    pcm = Pcm(4, tuple([(n // g, d // g) for n, d in pairs for g in [math.gcd(n, d)]]))
    pcm.__dict__["signs"] = signs
    return pcm


def consistent_weights(pcm: Pcm) -> WeightVector:
    """The unique normalized exact w with w_i/w_j = a_ij: the last column scaled to
    sum 1.  The matrix must be consistent, which holds exactly when a_ij * a_jn = a_in
    for every i < j < n, one integer cross-multiplication on ``upper`` each."""
    last = pcm.n - 1
    a = dict(zip(itertools.combinations(range(pcm.n), 2), pcm.upper))
    for i, j in itertools.combinations(range(last), 2):
        (p_ij, q_ij), (p_jn, q_jn), (p_in, q_in) = a[i, j], a[j, last], a[i, last]
        if p_ij * p_jn * q_in != q_ij * q_jn * p_in:
            raise NotConsistentError(f"triad ({i + 1},{j + 1},{pcm.n}) is inconsistent")
    # a_nn = 1 makes x_n = d, so gcd(x) = gcd(d, x) = 1 and x / sum(x) is reduced
    column = [a[i, last] for i in range(last)] + [(1, 1)]
    d = math.lcm(*(q for _, q in column))
    x = tuple([p * (d // q) for p, q in column])
    return WeightVector(x, sum(x), 0)
