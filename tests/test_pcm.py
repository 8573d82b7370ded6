"""Parsing, validation and exact cycle/triad algebra."""

import itertools
import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effpcm.errors import (
    BadNumeralError,
    InputError,
    BadToleranceError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    NonFiniteWeightError,
    NonPositiveEntryError,
    NonPositiveWeightError,
    NonSquareError,
    NotATriadError,
    NotConsistentError,
    ReciprocityViolationError,
    RepeatedIndexError,
    TooShortError,
    UnsupportedDimensionError,
)
from effpcm.export import weights_from_document
from effpcm.generators import UPPER_PAIRS, generate_with_rng, random_exact_weights
from effpcm.geometry import PerturbTag, tetrahedron_for_cycle
from effpcm.pcm import (
    CANONICAL_CYCLES,
    CANONICAL_TRIADS,
    DEFAULT_EQUALITY_BAND,
    Pcm,
    Permutation,
    WeightVector,
    apply_permutation,
    consistent_weights,
    cycle_product,
    format_rational,
    parse_pair,
    parse_pcm,
    parse_rational,
    pcm_from_pairs,
    pcm_from_upper,
    triad_product,
    upper_signs,
    weight_vector,
)
from effpcm.trees import paths_of_cycle, tree_weight_vector
from conftest import RUNNING_ROWS
from oracles import (
    apply_permutation_by_entries,
    consistent_four_cycles,
    consistent_triads,
    entry,
    identity_permutation,
    inverse_permutation,
    is_consistent,
    parse_rational_by_fraction_string,
    ratio,
    tree_weight_vector_by_fractions,
    validate_by_cells,
    vector_of,
)

positive_rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))

random_pcm4 = st.builds(
    lambda a, b, c, d, e, f: pcm_from_upper(
        4, {(1, 2): a, (1, 3): b, (1, 4): c, (2, 3): d, (2, 4): e, (3, 4): f}
    ),
    *([positive_rationals] * 6),
)


# Grid cells: numerals that repeat in several spellings, bad numerals that
# repeat, and cells of other types, which parse_pcm parses one by one.
_GRID_CELLS = st.sampled_from([
    "1", "2", "1/2", "0.5", " 1/2", "2/4", "3", "1/3", "0", "x", "1/0", "1e3",
    1, 2, 3, 0, 0.5, 2.0, 1e300, True, False, None, ["1"], (), b"1",
    Fraction(2), Fraction(1, 2), Decimal("2"),
])


def _upper_of(grid) -> tuple:
    """The cells a_ij, i < j, of a square grid, row by row."""
    return tuple(grid[i][j] for i, j in itertools.combinations(range(len(grid)), 2))


def _parse_cell_by_cell(rows):
    """Each cell read alone, row by row, then the grid checked cell by cell."""
    grid = [[parse_rational(cell).as_integer_ratio() for cell in row] for row in rows]
    validate_by_cells(grid)
    return Pcm(len(grid), _upper_of(grid))


# Spellings of each value the random grids use, repeated across the grid.
_SPELLINGS = {
    Fraction(1): ["1", 1], Fraction(2): ["2", 2, 2.0], Fraction(3): ["3", 3],
    Fraction(1, 2): ["1/2", "0.5", " 1/2", "2/4", 0.5], Fraction(1, 3): ["1/3"],
}


@st.composite
def _grids(draw):
    """An n x n reciprocal grid, n = 1..5, of entries 1, 2, 3 and their
    reciprocals in any spelling; then up to three cells become any cell."""
    n = draw(st.integers(1, 5))
    rows = [[draw(st.sampled_from(_SPELLINGS[Fraction(1)]))] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            value = draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(3)]))
            value = 1 / value if draw(st.booleans()) else value
            rows[i][j] = draw(st.sampled_from(_SPELLINGS[value]))
            rows[j][i] = draw(st.sampled_from(_SPELLINGS[1 / value]))
    for _ in range(draw(st.integers(0, 3))):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(_GRID_CELLS)
    return rows


class TestParsing:
    def test_running_example(self, running_example):
        assert running_example.n == 4
        assert entry(running_example, 1, 3) == 5
        assert entry(running_example, 3, 4) == Fraction(1, 3)
        assert entry(running_example, 4, 2) == Fraction(1, 8)

    def test_single_cell(self):
        assert parse_pcm([["1"]]).n == 1

    def test_decimals_are_exact(self):
        pcm = parse_pcm([["1", "0.25"], ["4", "1"]])
        assert entry(pcm, 1, 2) == Fraction(1, 4)
        assert parse_rational("0.1") == Fraction(1, 10)

    def test_reciprocity_violation_reports_lower_position(self):
        with pytest.raises(ReciprocityViolationError) as err:
            parse_pcm([["1", "2"], ["1/3", "1"]])
        assert err.value.position == (2, 1)
        assert "ReciprocityViolation (2,1)" in str(err.value)

    def test_non_square(self):
        with pytest.raises(NonSquareError):
            parse_pcm([["1", "2"], ["1/2", "1"], ["1", "1"]])
        with pytest.raises(NonSquareError):
            parse_pcm([])

    @pytest.mark.parametrize("cell", ["", "abc", "1/0", "1e3", ".5", "1.", "0.1234567890123456",
                                      "\u0661/\u0662", "\uff11", "\u0663.\u0665"])
    def test_bad_numerals(self, cell):
        with pytest.raises(BadNumeralError):
            parse_rational(cell)

    def test_non_positive_entry(self):
        with pytest.raises(NonPositiveEntryError) as err:
            parse_pcm([["1", "0"], ["1", "1"]])
        assert err.value.position == (1, 2)
        with pytest.raises(NonPositiveEntryError):
            parse_pcm([["1", "-2"], ["-1/2", "1"]])

    def test_bad_diagonal(self):
        with pytest.raises(ReciprocityViolationError):
            parse_pcm([["2", "1"], ["1", "1"]])

    @given(random_pcm4)
    def test_reciprocity_always_holds(self, pcm):
        for i in range(1, 5):
            for j in range(1, 5):
                assert entry(pcm, i, j) * entry(pcm, j, i) == 1

    @pytest.mark.parametrize("cell", [
        (2.0, 1), (True, 1), (2, True), ("2", 1), None, 2, Fraction(2), [2, 1], (2,), (2, 1, 1),
        (4, 2), (-2, -1), (2, -1), (2, 0), (0, 2),
    ])
    def test_non_rational_entries_rejected(self, cell):
        """A cell is an int pair, no bool, in lowest terms with a positive denominator."""
        with pytest.raises(BadNumeralError, match=r"^BadNumeral: a\[1,2\]=.* is not an int pair in lowest terms$"):
            Pcm(2, (cell,))

    @settings(max_examples=300)
    @given(_grids())
    def test_repeated_numerals_parse_as_cell_by_cell(self, rows):
        """The same Pcm, or the same first error in row-major order."""
        assert _parse_outcome(parse_pcm, rows) == _parse_outcome(_parse_cell_by_cell, rows)

    def test_repeated_numerals_fixed_grid(self):
        rows = [["1", "2", 3, "1/2"], ["1/2", "1", "2", 0.5], ["1/3", "1/2", 1, "x"],
                ["2", 2.0, "x", True]]
        bad_x = "BadNumeral: 'x' is not 'p', 'p/q' or a short decimal"
        assert _parse_outcome(parse_pcm, rows) == (BadNumeralError, bad_x)
        rows[2][3], rows[3][2] = "2", "1/2"
        assert _parse_outcome(parse_pcm, rows) == (BadNumeralError, "BadNumeral: True is not a numeral")
        rows[3][3] = "1"
        assert parse_pcm(rows) == _parse_cell_by_cell(rows)

    def test_int_entries_accepted(self):
        pcm = parse_pcm(((1, 2), (Fraction(1, 2), 1)))
        assert pcm.rows_as_strings() == [["1", "2"], ["1/2", "1"]]


class TestPcmFromUpper:
    def test_missing_entries_are_one(self):
        assert pcm_from_upper(3, {(2, 3): 4}).rows_as_strings() == [
            ["1", "1", "1"], ["1", "1", "4"], ["1", "1/4", "1"]]

    @pytest.mark.parametrize("n", [4.0, "4", None, True, False])
    def test_n_that_is_not_an_int_is_non_square(self, n):
        """As a document's declared n: a bool or any non-int is refused."""
        with pytest.raises(NonSquareError, match=rf"^NonSquare: n={n!r} is not an integer$"):
            pcm_from_upper(n, {})

    @pytest.mark.parametrize("key", [
        (0, 1), (2, 1), (1, 3), (1, 1), (-1, 2), (True, 2), (1, 2.0), (1,), (1, 2, 3), 1, "12",
    ])
    def test_a_key_that_is_not_an_upper_pair_is_refused(self, key):
        with pytest.raises(IndexOutOfRangeError, match=rf"^IndexOutOfRange: .* is not a pair i < j in 1\.\.2$"):
            pcm_from_upper(2, {key: 3})

    @pytest.mark.parametrize("value,text", [
        (0, "0"), (Fraction(0), "0"), (-3, "-3"), (Fraction(-1, 2), "-1/2"), ("-2/3", "-2/3"),
    ])
    def test_a_non_positive_entry_is_refused(self, value, text):
        with pytest.raises(NonPositiveEntryError) as err:
            pcm_from_upper(3, {(1, 2): 2, (1, 3): value})
        assert err.value.position == (1, 3)
        assert str(err.value).endswith(f"a[1,3]={text}")

    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_entry_is_refused(self, value):
        with pytest.raises(BadNumeralError, match=rf"^BadNumeral: a\[1,2\]={value} is a bool"):
            pcm_from_upper(2, {(1, 2): value})

    @pytest.mark.parametrize("value,expected", [
        (0.1, Fraction(1, 10)), ("0.1", Fraction(1, 10)), (2.5, Fraction(5, 2)), (" 3/4", Fraction(3, 4)),
        (Fraction(1, 10), Fraction(1, 10)), (3, Fraction(3)),
    ])
    def test_a_float_or_string_reads_as_its_numeral(self, value, expected):
        """Floats and strings go through parse_rational, as in parse_pcm;
        Fraction and int values are kept."""
        pcm = pcm_from_upper(2, {(1, 2): value})
        assert pcm.entries == ((1, expected), (1 / expected, 1))
        if not isinstance(value, Fraction):
            assert pcm == parse_pcm([["1", value], [str(1 / expected), "1"]])

    @pytest.mark.parametrize("value", [
        pytest.param(math.nan, id="nan"),
        pytest.param(math.inf, id="inf"),
        pytest.param("abc", id="abc"),
        pytest.param("1/0", id="zero-denominator"),
    ])
    def test_a_value_that_is_no_numeral_is_a_bad_numeral(self, value):
        with pytest.raises(BadNumeralError, match=r"^BadNumeral: "):
            pcm_from_upper(2, {(1, 2): value})


# Six upper entries as pairs, small or large, often sharing a factor: not in lowest terms.
_UNREDUCED_UPPER = st.lists(
    st.builds(lambda n, d, k: (n * k, d * k),
              st.one_of(st.integers(1, 12), st.integers(1, 10**20)),
              st.one_of(st.integers(1, 12), st.integers(1, 10**20)),
              st.sampled_from([1, 1, 2, 6, 10**9 + 7])),
    min_size=6, max_size=6,
)


class TestBuildersAgree:
    """``pcm_from_pairs``, ``pcm_from_upper`` and ``parse_pcm`` of the printed rows
    build one record: equal, with equal hashes, entries and signs."""

    @settings(max_examples=200)
    @given(_UNREDUCED_UPPER)
    def test_one_record_from_every_builder(self, pairs):
        from_pairs = pcm_from_pairs(pairs, upper_signs(pairs))
        from_upper = pcm_from_upper(4, {key: Fraction(n, d) for key, (n, d) in zip(UPPER_PAIRS, pairs)})
        printed = parse_pcm(from_pairs.rows_as_strings())
        for pcm in (from_upper, printed):
            assert pcm == from_pairs and hash(pcm) == hash(from_pairs)
            assert pcm.entries == from_pairs.entries
            assert pcm.signs == from_pairs.signs
        assert [from_pairs.entries[i - 1][j - 1] for i, j in UPPER_PAIRS] == [
            Fraction(n, d) for n, d in pairs]


def _parse_outcome(parse, value):
    """The parsed value, or the type and message of the error raised."""
    try:
        return parse(value)
    except Exception as exc:
        return type(exc), str(exc)


# Numerals and near misses: ASCII digits, one non-ASCII digit (Arabic-Indic
# three), signs, separators, an exponent, an underscore and whitespace.
_NUMERAL_ALPHABET = "0123456789\u0663+-/.e_ \t\u3000\x85"
_DIGITS = st.text("0123456789\u0663", min_size=1, max_size=18)
_BUILT_NUMERALS = st.builds(
    lambda pad, sign, whole, tail, end: pad + sign + whole + tail + end,
    st.sampled_from(["", " ", "\t", " \t"]),
    st.sampled_from(["", "+", "-"]),
    _DIGITS,
    st.one_of(st.just(""), _DIGITS.map(lambda d: "/" + d), _DIGITS.map(lambda d: "." + d)),
    st.sampled_from(["", " ", "\t"]),
)


class TestParseRationalByGroups:
    """``parse_rational`` converts its regex groups with ``int``; it must agree
    with ``Fraction(str)`` on every value and on every error message."""

    @given(st.one_of(st.text(_NUMERAL_ALPHABET, max_size=24), _BUILT_NUMERALS))
    def test_matches_fraction_string(self, text):
        assert _parse_outcome(parse_rational, text) == _parse_outcome(
            parse_rational_by_fraction_string, text)

    @pytest.mark.parametrize("value", [
        "3/0", "-3/0", "00/0", "-0.5", "-0.0", "1.", ".5",
        "0." + "1" * 15, "0." + "1" * 16,
        pytest.param("7" * 5000, id="whole-5000-digits"),
        pytest.param("-" + "7" * 5000, id="signed-whole-5000-digits"),
        pytest.param("7" * 5000 + ".5", id="whole-5000-digits-tail"),
        pytest.param("1/" + "7" * 5000, id="denominator-5000-digits"),
        12, -3, True, 0.1, 1e-05, None, Fraction(3, 4), Fraction(-2), Decimal("0.5"), [1],
    ])
    def test_fixed_cases(self, value):
        assert _parse_outcome(parse_rational, value) == _parse_outcome(
            parse_rational_by_fraction_string, value)

    def test_sign_and_whitespace(self):
        """The README's example: a signed numeral padded with whitespace."""
        assert parse_rational(" -0.5\t") == Fraction(-1, 2)
        assert parse_rational("+3/4 ") == Fraction(3, 4)
        assert parse_rational("\n\r\f\v7\n\r\f\v") == Fraction(7)

    @given(st.one_of(st.text(_NUMERAL_ALPHABET, max_size=24), _BUILT_NUMERALS))
    def test_pair_reader_matches_fraction_string(self, text):
        """``parse_pair`` reads the oracle's value as a reduced pair, or raises its error."""
        assert _parse_outcome(parse_pair, text) == _parse_outcome(
            lambda t: parse_rational_by_fraction_string(t).as_integer_ratio(), text)

    @pytest.mark.parametrize("value,expected", [
        ("1/0", (BadNumeralError, "BadNumeral: '1/0' (Fraction(1, 0))")),
        ("-3/0", (BadNumeralError, "BadNumeral: '-3/0' (Fraction(-3, 0))")),
        ("0." + "1" * 16, (BadNumeralError,
                           f"BadNumeral: '0.{'1' * 16}' is not 'p', 'p/q' or a short decimal")),
        ("0." + "1" * 15, (int("1" * 15), 10**15)),
        ("-0.25", (-1, 4)), ("-0.0", (0, 1)), ("0/7", (0, 1)), ("+6/4", (3, 2)), ("-12/8", (-3, 2)),
        ("9." + "0" * 15, (9, 1)), (" 07\t", (7, 1)), (12, (12, 1)), (Fraction(6, 4), (3, 2)),
        (0.1, (1, 10)), (2.5, (5, 2)),
    ])
    def test_pair_reader_fixed_cases(self, value, expected):
        """Reduced pairs with a positive denominator, and the oracle's errors word for word."""
        outcome = _parse_outcome(parse_pair, value)
        assert outcome == expected
        assert outcome == _parse_outcome(
            lambda v: parse_rational_by_fraction_string(v).as_integer_ratio(), value)
        if type(expected[0]) is int:
            assert type(outcome) is tuple and all(type(part) is int for part in outcome)

    @pytest.mark.parametrize("value", ["\u30001\u3000", "\x1c2", "\u20283/4", "\x855", "\xa06"])
    def test_padding_outside_ascii_is_refused(self, value):
        """Only the six ASCII whitespace characters pad a numeral; str.strip() would
        also take an ideographic space, the separators \\x1c-\\x1f and \\u2028, NEL
        and a no-break space."""
        with pytest.raises(BadNumeralError, match=r"^BadNumeral: "):
            parse_rational(value)


# Any value a caller may hand a builder: text of every kind, numerals and
# near misses, and values of other types.
_ANY_TEXT = st.one_of(st.text(max_size=12), st.text(_NUMERAL_ALPHABET, max_size=24), _BUILT_NUMERALS)
_ANY_VALUE = st.one_of(
    _ANY_TEXT,
    st.booleans(),
    st.none(),
    st.decimals(),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(-3, 10**30),
    st.floats(),
    st.fractions(max_denominator=10**6),
)


def _read_by_parse_pcm(value, reference):
    # a reciprocal lower cell when the value reads as positive, so that only
    # a different reading of the value breaks reciprocity
    positive = isinstance(reference, Fraction) and reference > 0
    lower = format_rational(1 / reference) if positive else "1"
    return parse_pcm([["1", value], [lower, "1"]]).entries[0][1]


def _read_by_pcm_from_upper(value, _):
    return pcm_from_upper(2, {(1, 2): value}).entries[0][1]


def _read_by_weight_vector(value, _):
    return weight_vector([value, Fraction(1)]).components[0]


def _read_by_weight_document(value, _):
    return weights_from_document({"w": [value, "1"]}).components[0]


_POSITIVITY_ERRORS = {
    _read_by_parse_pcm: NonPositiveEntryError,
    _read_by_pcm_from_upper: NonPositiveEntryError,
    _read_by_weight_vector: NonPositiveWeightError,
    _read_by_weight_document: NonPositiveWeightError,
}


class TestOneReader:
    """``parse_pcm``, ``pcm_from_upper``, ``weight_vector`` and weight documents
    read a value as ``parse_rational`` does."""

    @settings(max_examples=400)
    @given(_ANY_VALUE)
    def test_builders_read_as_parse_rational(self, value):
        reference = _parse_outcome(parse_rational, value)
        readers = [_read_by_parse_pcm, _read_by_pcm_from_upper]
        if isinstance(value, float):  # a float selects weight_vector's float variant: its exact value
            if 0 < value < math.inf:
                expected = vector_of((value, 1), Fraction(DEFAULT_EQUALITY_BAND))
            else:  # NaN fails value > 0
                error = NonFiniteWeightError if value > 0 else NonPositiveWeightError
                expected = error, f"{error.code}: component {value!r}"
            assert _parse_outcome(weight_vector, [value, 1]) == expected
        else:
            readers.append(_read_by_weight_vector)
        if isinstance(value, str):  # a document's numbers are floats, its strings numerals
            readers.append(_read_by_weight_document)
        for read in readers:
            outcome = _parse_outcome(lambda v: read(v, reference), value)
            if not isinstance(reference, Fraction):
                assert outcome[0] is BadNumeralError, (read.__name__, outcome)
            elif reference > 0:
                assert outcome == reference and type(outcome) is Fraction, (read.__name__, outcome)
            else:
                assert outcome[0] is _POSITIVITY_ERRORS[read], (read.__name__, outcome)

    @pytest.mark.parametrize("build,expected", [
        pytest.param(lambda: weight_vector(["1e3", 1]), BadNumeralError, id="weights-exponent"),
        pytest.param(lambda: weight_vector(["1_000", 1]), BadNumeralError, id="weights-underscore"),
        pytest.param(lambda: weight_vector([".5", 1]), BadNumeralError, id="weights-no-whole-part"),
        pytest.param(lambda: weight_vector([Decimal("0.5"), 1]), BadNumeralError, id="weights-decimal"),
        pytest.param(lambda: weight_vector(["abc", 1]), BadNumeralError, id="weights-no-numeral"),
        pytest.param(lambda: weight_vector(["1/0", 1]), BadNumeralError, id="weights-zero-denominator"),
        pytest.param(lambda: weight_vector([None, 1]), BadNumeralError, id="weights-none"),
        pytest.param(lambda: weight_vector([0.5, "1/2"]),
                     WeightVector((1, 1), 2, Fraction(DEFAULT_EQUALITY_BAND)),
                     id="weights-float-and-numeral"),
        pytest.param(lambda: pcm_from_upper(2, {(1, 2): None}), BadNumeralError, id="upper-none"),
        pytest.param(lambda: parse_pcm([[Fraction(1), Fraction(1, 2)], ["2", 1]]),
                     pcm_from_upper(2, {(1, 2): Fraction(1, 2)}), id="grid-fraction-cell"),
    ])
    def test_reader_faults(self, build, expected):
        """Each value is refused with BadNumeral or read by the numeral rule."""
        if isinstance(expected, type):
            with pytest.raises(expected, match=r"^BadNumeral: "):
                build()
        else:
            assert build() == expected

    def test_a_float_subclass_selects_the_float_variant(self):
        class Weight(float):
            pass

        w = weight_vector([Weight(0.25), Fraction(3, 4)])
        assert w.band and w.components == (Fraction(1, 4), Fraction(3, 4))
        assert type(w.components[0]) is Fraction


# Entries whose pairs are often reciprocal: whole values come as Fraction and
# as int, and the pool holds each value's reciprocal.
_POOL_ENTRIES = st.one_of(
    st.sampled_from([Fraction(1), 1, Fraction(2), 2, Fraction(1, 2), Fraction(3, 4),
                     Fraction(4, 3), Fraction(9, 2), Fraction(2, 9)]),
    positive_rationals,
)
_DIAGONAL = st.sampled_from([Fraction(1), 1, Fraction(1), 1, Fraction(2), Fraction(1, 2)])


class TestReciprocitySwapCheck:
    @given(_DIAGONAL, _DIAGONAL, _POOL_ENTRIES, _POOL_ENTRIES, st.booleans())
    def test_rejects_exactly_the_non_reciprocal_pairs(self, a11, a22, a12, other, invert):
        """The numerator/denominator swap agrees with a_ij * a_ji != 1."""
        inverse = 1 / Fraction(a12)
        a21 = (int(inverse) if inverse.denominator == 1 else inverse) if invert else other
        reciprocal = a11 * a11 == 1 and a22 * a22 == 1 and a12 * a21 == 1
        if reciprocal:
            parse_pcm(((a11, a12), (a21, a22)))
        else:
            with pytest.raises(ReciprocityViolationError):
                parse_pcm(((a11, a12), (a21, a22)))


def _validation_outcome(check, entries):
    """None when the grid passes, else the error's type, message and position."""
    try:
        check(entries)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return None


# A faulty cell (n, d): zero, negative, not the reciprocal of its mirror, a bool,
# a float, not in lowest terms, a negative denominator, a Fraction.
_BAD_KINDS = {
    "zero": lambda n, d: (0, 1),
    "negative": lambda n, d: (-n, d),
    "non-reciprocal": lambda n, d: Fraction(2 * n, d).as_integer_ratio(),
    "bool": lambda n, d: (True, d),
    "float": lambda n, d: (float(n), d),
    "unreduced": lambda n, d: (2 * n, 2 * d),
    "negative-denominator": lambda n, d: (-n, -d),
    "fraction": lambda n, d: Fraction(n, d),
}
# A document's cell can be any value, so any cell can break positivity or
# reciprocity; a record's upper entry can break form or positivity only.
_DOCUMENT_KINDS = ("zero", "negative", "non-reciprocal")
_RECORD_KINDS = ("zero", "negative", "bool", "float", "unreduced", "negative-denominator", "fraction")


def _valid_grid(n: int, rng: random.Random) -> list[list]:
    """A reciprocal n x n grid of reduced pairs, in lists."""
    grid = [[(1, 1)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            p, q = Fraction(rng.randint(1, 9), rng.randint(1, 9)).as_integer_ratio()
            grid[i][j], grid[j][i] = (p, q), (q, p)
    return grid


def _by_document(grid):
    """``parse_pcm`` of the grid written as numerals."""
    return parse_pcm([[format_rational(*cell) for cell in row] for row in grid])


def _by_record(grid):
    """The record of the grid's upper triangle."""
    return Pcm(len(grid), _upper_of(grid))


def _faulty_cells(n: int, kind: str):
    """(cell, builder) for each cell a fault of this kind can reach, by each builder."""
    if kind in _DOCUMENT_KINDS:
        yield from ((cell, _by_document) for cell in itertools.product(range(n), repeat=2))
    if kind in _RECORD_KINDS:
        yield from ((cell, _by_record) for cell in itertools.combinations(range(n), 2))


class TestValidationOnIntegerPairs:
    """A document's grid and a record's upper triangle compare swapped integer pairs;
    each must raise what the cell-by-cell loop on Fraction values raises over the full
    grid, with the same message, at the same cell."""

    @pytest.mark.parametrize("n", [4, 5])
    @pytest.mark.parametrize("kind", list(_BAD_KINDS))
    def test_every_cell_and_kind_of_fault(self, n, kind):
        rng = random.Random(n)
        for (i, j), build in _faulty_cells(n, kind):
            grid = _valid_grid(n, rng)
            grid[i][j] = _BAD_KINDS[kind](*grid[i][j])
            expected = _validation_outcome(validate_by_cells, grid)
            assert expected is not None
            assert _validation_outcome(build, grid) == expected, (i, j, kind, build.__name__)

    def test_two_faults_report_the_first(self):
        rng = random.Random(29)
        for _ in range(400):
            n = rng.randint(2, 6)
            valid = _valid_grid(n, rng)
            grid = [list(row) for row in valid]
            build, kinds = rng.choice([(_by_document, _DOCUMENT_KINDS), (_by_record, _RECORD_KINDS)])
            for _ in range(2):
                i, j = rng.randrange(n), rng.randrange(n)
                if build is _by_record:
                    i, j = sorted(rng.sample(range(n), 2))
                grid[i][j] = _BAD_KINDS[rng.choice(kinds)](*valid[i][j])
            assert _validation_outcome(build, grid) == _validation_outcome(validate_by_cells, grid)

    @pytest.mark.parametrize("n", [1, 2, 4, 5, 12])
    def test_valid_grids_pass(self, n):
        grid = _valid_grid(n, random.Random(n))
        assert _validation_outcome(validate_by_cells, grid) is None
        pcm = _by_record(grid)
        assert pcm.pairs == tuple(map(tuple, grid))
        assert pcm.entries == tuple(tuple(Fraction(*pair) for pair in row) for row in grid)
        assert _by_document(grid) == pcm


def _document_outcome(rows):
    """``parse_pcm``'s record, or its error's code and message."""
    try:
        return parse_pcm(rows)
    except InputError as exc:
        return exc.code, str(exc)


def _document_outcome_by_cells(rows):
    """Each cell read by ``parse_pair`` row by row, then ``validate_by_cells`` on the
    pairs: the record of their upper triangle, or the first error's code and message."""
    try:
        grid = [[parse_pair(cell) for cell in row] for row in rows]
        validate_by_cells(grid)
    except InputError as exc:
        return exc.code, str(exc)
    return Pcm(len(grid), _upper_of(grid))


@st.composite
def _faulty_documents(draw):
    """A valid n x n document, n = 1..6, then 0-2 faults: a bad numeral, a row one
    cell short or long, a row too many or too few, a non-positive cell, a cell that
    is not its mirror's reciprocal, a diagonal cell other than 1."""
    n = draw(st.integers(1, 6))
    rows = [["1"] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        value = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9)))
        rows[i][j], rows[j][i] = format_rational(value), format_rational(1 / value)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["bad-numeral", "short-row", "long-row", "extra-row",
                                     "missing-row", "non-positive", "non-reciprocal", "diagonal"]))
        i = draw(st.integers(0, len(rows) - 1))
        j = draw(st.integers(0, max(len(rows[i]) - 1, 0)))
        if kind == "short-row" and rows[i]:
            rows[i].pop()
        elif kind == "long-row":
            rows[i].append("1")
        elif kind == "extra-row":
            rows.append(list(rows[i]))
        elif kind == "missing-row" and len(rows) > 1:
            rows.pop(i)
        elif kind == "diagonal" and i < len(rows[i]):
            rows[i][i] = draw(st.sampled_from(["2", "1/2", "1.5", "3/3"]))
        elif j < len(rows[i]):
            rows[i][j] = draw(st.sampled_from({
                "bad-numeral": ["x", "", "1/0", "1e3", ".5", "0.1234567890123456"],
                "non-positive": ["0", "-2", "-1/3", "0/5", "-0.5"],
                "non-reciprocal": ["7", "1/7", "9/2", "1"],
            }.get(kind, ["1"])))
    return rows


class TestDocumentErrors:
    """``parse_pcm`` raises what reading each cell, then checking the pairs cell by
    cell (``validate_by_cells``), raises: the same code and message."""

    @settings(max_examples=400)
    @given(_faulty_documents())
    def test_parse_pcm_matches_the_cell_by_cell_checks(self, rows):
        assert _document_outcome(rows) == _document_outcome_by_cells(rows)

    @pytest.mark.parametrize("rows,line", [
        ([["1", "2"], ["1/2"]], "NonSquare: entries must form a nonempty square grid"),
        ([["1", "2"], ["1/2", "1"], ["1", "1"]], "NonSquare: entries must form a nonempty square grid"),
        ([["1", "0"], ["x"]], "BadNumeral: 'x' is not 'p', 'p/q' or a short decimal"),
        ([["1", "0"], ["0", "x"]], "BadNumeral: 'x' is not 'p', 'p/q' or a short decimal"),
        ([["1", "2"], ["-1/2", "1"]], "NonPositiveEntry (2,1): a[2,1]=-1/2"),
        ([["1", "2", "3"], ["1/3", "1", "1"], ["1/3", "1", "0"]], "NonPositiveEntry (3,3): a[3,3]=0"),
        ([["1", "2", "3"], ["1/3", "1", "1"], ["1/3", "1", "1"]],
         "ReciprocityViolation (2,1): a[2,1]=1/3 is not the reciprocal of a[1,2]=2"),
        ([["1", "2"], ["1/2", "2/4"]],
         "ReciprocityViolation (2,2): a[2,2]=1/2 is not the reciprocal of a[2,2]=1/2"),
        ([["1.0", "0.5"], ["2", "1"]], None),
    ], ids=["short-row", "extra-row", "numeral-before-shape", "numeral-before-sign",
            "sign-below-the-diagonal", "sign-before-reciprocity", "reciprocity-below",
            "diagonal", "valid"])
    def test_fixed_documents(self, rows, line):
        outcome = _document_outcome(rows)
        assert outcome == _document_outcome_by_cells(rows)
        if line is None:
            assert outcome == pcm_from_upper(2, {(1, 2): Fraction(1, 2)})
        else:
            assert outcome[1] == line


class TestUpperTriangle:
    """A ``Pcm`` is n and its upper triangle; the grid is derived from them."""

    @settings(max_examples=100)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.tuples(st.integers(1, 50), st.integers(1, 50)),
                             min_size=n * (n - 1) // 2, max_size=n * (n - 1) // 2))))
    def test_the_grid_is_reciprocal_with_a_unit_diagonal(self, n_and_values):
        n, values = n_and_values
        pcm = Pcm(n, [Fraction(p, q).as_integer_ratio() for p, q in values])
        grid = pcm.pairs
        assert len(grid) == n and all(len(row) == n for row in grid)
        for i, j in itertools.product(range(n), repeat=2):
            assert grid[i][j] == ((1, 1) if i == j else grid[j][i][::-1])
        assert _upper_of(grid) == pcm.upper

    @pytest.mark.parametrize("n", range(1, 13))
    def test_printed_rows_parse_back_to_the_record(self, n):
        rng = random.Random(n)
        pcm = Pcm(n, [Fraction(rng.randint(1, 99), rng.randint(1, 99)).as_integer_ratio()
                      for _ in range(n * (n - 1) // 2)])
        parsed = parse_pcm(pcm.rows_as_strings())
        assert parsed == pcm and hash(parsed) == hash(pcm) and parsed.pairs == pcm.pairs

    @pytest.mark.parametrize("n,upper", [
        (4, ((2, 1),) * 5), (4, ((2, 1),) * 7), (1, ((2, 1),)), (2, ()), (3, ((2, 1),) * 2),
        (0, ()), (-1, ((2, 1),)), (-10**12, ()), (4.0, ((2, 1),) * 6), (True, ()), (None, ()), ("4", ()),
    ])
    def test_an_n_or_upper_that_makes_no_square_is_non_square(self, n, upper):
        with pytest.raises(NonSquareError, match=r"^NonSquare: entries must form a nonempty square grid$"):
            Pcm(n, upper)

    def test_parse_pcm_seeds_the_grid_it_read(self, running_example):
        grid = tuple(tuple(parse_pair(cell) for cell in row) for row in RUNNING_ROWS)
        assert running_example.__dict__["pairs"] == grid
        assert "pairs" not in pcm_from_upper(4, {(1, 2): 3}).__dict__


class TestTriadAndCycleProducts:
    def test_running_triad(self, running_example):
        assert triad_product(running_example, (1, 2, 3)) == Fraction(2, 5)

    def test_consistent_matrix_triads_are_one(self, consistent_example):
        for triad in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
            assert triad_product(consistent_example, triad) == 1

    def test_double_triad_example_has_consistent_first_triad(self, double_triad_example):
        assert triad_product(double_triad_example, (1, 2, 3)) == 1

    def test_running_cycles(self, running_example):
        assert cycle_product(running_example, (1, 2, 3, 4)) == Fraction(2, 21)
        assert cycle_product(running_example, (1, 4, 2, 3)) == Fraction(7, 20)
        assert cycle_product(running_example, (1, 3, 4, 2)) == Fraction(5, 24)

    def test_flip_family_midpoint_cycle_is_consistent(self):
        from conftest import flip_family
        assert cycle_product(flip_family(6), (1, 3, 2, 4)) == 1

    def test_errors(self, running_example):
        with pytest.raises(RepeatedIndexError):
            triad_product(running_example, (1, 2, 1))
        with pytest.raises(IndexOutOfRangeError):
            triad_product(running_example, (1, 2, 5))
        with pytest.raises(TooShortError):
            cycle_product(running_example, (1, 2))
        with pytest.raises(RepeatedIndexError):
            cycle_product(running_example, (1, 2, 3, 2))

    @pytest.mark.parametrize("call", [
        lambda pcm: triad_product(pcm, (True, 2, 3)),
        lambda pcm: cycle_product(pcm, (True, 2, 3, 4)),
    ], ids=["triad", "cycle"])
    def test_a_bool_is_not_an_index(self, running_example, call):
        with pytest.raises(IndexOutOfRangeError, match=r"^IndexOutOfRange: index True not in 1\.\.4$"):
            call(running_example)

    @pytest.mark.parametrize("listing", [(), (1,), (1, 2), (1, 2, 3, 4)])
    def test_a_triad_lists_three_vertices(self, running_example, listing):
        with pytest.raises(NotATriadError, match=rf"^NotATriad: .* got {len(listing)}$"):
            triad_product(running_example, listing)

    @given(random_pcm4)
    def test_cycle_reversal_inverts_product(self, pcm):
        forward = cycle_product(pcm, (1, 2, 3, 4))
        backward = cycle_product(pcm, (4, 3, 2, 1))
        assert forward * backward == 1

    @given(random_pcm4)
    def test_triad_rotation_and_transposition(self, pcm):
        base = triad_product(pcm, (1, 2, 3))
        assert triad_product(pcm, (2, 3, 1)) == base
        assert triad_product(pcm, (3, 1, 2)) == base
        assert triad_product(pcm, (2, 1, 3)) == 1 / base


class TestConsistencyEnumeration:
    def test_running_has_none(self, running_example):
        assert consistent_triads(running_example) == []
        assert consistent_four_cycles(running_example) == []

    def test_simple_example_sets(self, simple_example):
        assert consistent_triads(simple_example) == [(1, 2, 3), (1, 2, 4)]
        assert consistent_four_cycles(simple_example) == [(1, 4, 2, 3)]

    def test_consistent_example_has_all(self, consistent_example):
        assert len(consistent_triads(consistent_example)) == 4
        assert len(consistent_four_cycles(consistent_example)) == 3

    def test_requires_n4(self):
        pcm = parse_pcm([["1", "2"], ["1/2", "1"]])
        with pytest.raises(UnsupportedDimensionError):
            consistent_triads(pcm)
        with pytest.raises(UnsupportedDimensionError):
            consistent_four_cycles(pcm)

    @given(random_pcm4)
    def test_consistency_equivalences(self, pcm):
        full = is_consistent(pcm)
        assert full == (len(consistent_triads(pcm)) == 4)
        assert full == (len(consistent_four_cycles(pcm)) == 3)


def _sign_of_product(product):
    return (product > 1) - (product < 1)


def _reference_signs(pcm):
    """The seven signs through Fraction products."""
    return (
        tuple(_sign_of_product(triad_product(pcm, t)) for t in CANONICAL_TRIADS),
        tuple(_sign_of_product(cycle_product(pcm, c)) for c in CANONICAL_CYCLES),
    )


POOL = Path(__file__).resolve().parent.parent / "perfbench" / "data" / "pool.json"


class TestProductSigns:
    """The integer cross-multiplications agree with the Fraction products."""

    def test_generated_matrices(self):
        rng = random.Random(71)
        tags = list(PerturbTag)
        seen = set()
        for k in range(2000):
            pcm = generate_with_rng(rng, tags[k % 6])
            signs = pcm.signs
            assert signs == _reference_signs(pcm)
            seen.update(signs[1])
        assert seen == {-1, 0, 1}

    def test_every_relabelling_of_the_reference_matrices(
        self, running_example, double_triad_example, double_one_cycle_example,
        double_two_cycles_example, simple_example, consistent_example,
    ):
        for pcm in (running_example, double_triad_example, double_one_cycle_example,
                    double_two_cycles_example, simple_example, consistent_example):
            for mapping in itertools.permutations((1, 2, 3, 4)):
                relabelled = apply_permutation(pcm, Permutation(mapping))
                assert relabelled.signs == _reference_signs(relabelled)

    def test_decimal_matrices_of_the_benchmark_pool(self):
        docs = [doc for doc in json.loads(POOL.read_text(encoding="utf-8"))["n4"]
                if doc["half"] == "decimal"]
        assert len(docs) == 36
        for doc in docs:
            pcm = parse_pcm(doc["entries"])
            assert pcm.signs == _reference_signs(pcm)

    def test_requires_n4_on_every_call(self):
        pcm = parse_pcm([["1", "2"], ["1/2", "1"]])
        for _ in range(2):
            with pytest.raises(UnsupportedDimensionError):
                pcm.signs

    def test_stored_signs_leave_the_record_as_it_was(self, running_example):
        """The kept signs and Fraction entries sit outside the fields."""
        signs = running_example.signs
        assert running_example.signs is signs
        pairs = running_example.pairs
        entries = running_example.entries
        assert running_example.entries is entries
        assert pairs == tuple(tuple(a.as_integer_ratio() for a in row) for row in entries)
        assert type(pairs) is tuple and all(type(row) is tuple for row in pairs)
        assert all(type(pair) is tuple for row in pairs for pair in row)
        fresh = parse_pcm(running_example.rows_as_strings())
        assert running_example == fresh and fresh == running_example
        assert hash(running_example) == hash(fresh)
        assert repr(running_example) == repr(fresh)
        assert all(name not in repr(running_example) for name in ("pairs", "entries", "signs"))
        for name in ("n", "upper", "pairs", "entries"):
            with pytest.raises(AttributeError):
                setattr(running_example, name, getattr(fresh, name))


@st.composite
def _consistent_or_perturbed(draw):
    """A consistent matrix a_ij = w_i / w_j, n = 1..6, with at most one upper
    entry scaled (by 1 too, which keeps it consistent)."""
    n = draw(st.integers(1, 6))
    w = draw(st.lists(st.fractions(min_value=Fraction(1, 50), max_value=50, max_denominator=50),
                      min_size=n, max_size=n))
    upper = {(i, j): w[i - 1] / w[j - 1] for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    if upper and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(upper)))
        upper[key] *= draw(st.sampled_from([Fraction(1), Fraction(2), Fraction(1, 3), Fraction(1001, 1000)]))
    return pcm_from_upper(n, upper)


class TestConsistentWeights:
    def test_consistent_example_weights(self, consistent_example):
        w = consistent_weights(consistent_example)
        assert w.components == (
            Fraction(35, 61), Fraction(14, 61), Fraction(7, 61), Fraction(5, 61),
        )
        # the defining property is the oracle: every entry reproduced exactly
        for i in range(1, 5):
            for j in range(1, 5):
                assert ratio(w, i, j) == entry(consistent_example, i, j)

    def test_all_ones(self):
        pcm = parse_pcm([["1"] * 4] * 4)
        assert consistent_weights(pcm).components == (Fraction(1, 4),) * 4

    def test_two_by_two(self):
        pcm = parse_pcm([["1", "3"], ["1/3", "1"]])
        assert consistent_weights(pcm).components == (Fraction(3, 4), Fraction(1, 4))

    def test_small_matrices_are_consistent(self):
        assert consistent_weights(parse_pcm([["1"]])).components == (Fraction(1),)
        pcm = parse_pcm([["1", "7"], ["1/7", "1"]])
        assert consistent_weights(pcm).components == (Fraction(7, 8), Fraction(1, 8))

    def test_rejects_inconsistent(self, running_example):
        assert not is_consistent(running_example)
        with pytest.raises(NotConsistentError, match=r"^NotConsistent: triad \(1,2,4\) is inconsistent$"):
            consistent_weights(running_example)

    @settings(max_examples=150)
    @given(_consistent_or_perturbed())
    def test_refuses_exactly_the_inconsistent(self, pcm):
        """``consistent_weights`` raises exactly when a triad product is not 1;
        otherwise its weights reproduce every entry and sum to 1."""
        try:
            w = consistent_weights(pcm)
        except NotConsistentError:
            assert not is_consistent(pcm)
            return
        assert is_consistent(pcm) and sum(w.components) == 1
        for i in range(1, pcm.n + 1):
            for j in range(1, pcm.n + 1):
                assert ratio(w, i, j) == entry(pcm, i, j)


class TestPermutation:
    def test_identity(self, running_example):
        identity = identity_permutation(4)
        assert apply_permutation(running_example, identity) == running_example

    def test_swap_first_two(self, running_example):
        swapped = apply_permutation(running_example, Permutation((2, 1, 3, 4)))
        assert entry(swapped, 1, 2) == 1 / entry(running_example, 1, 2)
        assert entry(swapped, 1, 3) == entry(running_example, 2, 3)
        assert entry(swapped, 1, 4) == entry(running_example, 2, 4)

    @given(random_pcm4, st.permutations([1, 2, 3, 4]))
    def test_inverse_round_trip(self, pcm, mapping):
        perm = Permutation(tuple(mapping))
        assert apply_permutation(apply_permutation(pcm, perm), inverse_permutation(perm)) == pcm

    @given(st.permutations([1, 2, 3, 4]))
    def test_consistency_preserved(self, mapping):
        pcm = pcm_from_upper(4, {
            (1, 2): Fraction(5, 2), (1, 3): Fraction(5), (1, 4): Fraction(7),
            (2, 3): Fraction(2), (2, 4): Fraction(14, 5), (3, 4): Fraction(7, 5),
        })
        assert is_consistent(apply_permutation(pcm, Permutation(tuple(mapping))))

    @given(random_pcm4, st.permutations([1, 2, 3, 4]))
    def test_triad_products_preserved_up_to_reciprocal(self, pcm, mapping):
        perm = Permutation(tuple(mapping))
        permuted = apply_permutation(pcm, perm)

        def multiset(p):
            values = []
            for t in ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)):
                product = triad_product(p, t)
                values.append(min(product, 1 / product))
            return sorted(values)

        assert multiset(pcm) == multiset(permuted)

    def test_rejects_non_bijection(self):
        with pytest.raises(IndexOutOfRangeError):
            Permutation((1, 1, 3, 4))

    def test_every_relabelling_matches_the_entry_by_entry_oracle(
            self, running_example, simple_example, consistent_example):
        rng = random.Random(17)
        matrices = [running_example, simple_example, consistent_example]
        matrices += [generate_with_rng(rng, tag.value) for tag in PerturbTag]
        for pcm in matrices:
            for mapping in itertools.permutations((1, 2, 3, 4)):
                perm = Permutation(mapping)
                assert apply_permutation(pcm, perm) == apply_permutation_by_entries(pcm, perm)

    def test_a_permutation_of_another_size_is_refused(self, running_example):
        with pytest.raises(DimensionMismatchError):
            apply_permutation(running_example, Permutation((2, 1, 3)))


class TestWeightVector:
    def test_variants(self):
        exact = weight_vector([1, 2, 3])
        assert exact.band == 0 and exact.components[0] == Fraction(1)
        floaty = weight_vector([0.5, 0.25, 0.25])
        assert floaty.band == Fraction(DEFAULT_EQUALITY_BAND)
        assert floaty.components == (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4))

    def test_positivity(self):
        with pytest.raises(NonPositiveWeightError):
            weight_vector([1, 0, 2])

    @pytest.mark.parametrize("values", [[10**400, 0.5], [Fraction(10**400), 0.5],
                                        [0.5, Fraction(10**400, 3)]])
    def test_a_component_past_the_float_range_in_a_float_vector(self, values):
        with pytest.raises(NonFiniteWeightError,
                           match=r"^NonFiniteWeight: a component is past the float range$"):
            weight_vector(values)

    @pytest.mark.parametrize("values", ["1234", "1", "", b"12"])
    def test_text_is_one_value_not_a_vector(self, values):
        """As parse_pcm refuses a string grid: no vector of characters or bytes."""
        with pytest.raises(BadNumeralError, match=r"^BadNumeral: .* is one value, not a sequence"):
            weight_vector(values)

    @pytest.mark.parametrize("make", [
        lambda: {3, 1, 2}, lambda: frozenset({0.5, 0.25}), lambda: {"1": 0, "2": 0},
        lambda: (k for k in (1, 2, 3)),
    ], ids=["set", "frozenset", "dict", "generator"])
    def test_input_that_is_not_a_sequence_is_refused(self, make):
        """As parse_pcm's rows must be: a set or a dict has no order to give the
        components (a dict's keys were read as numerals)."""
        with pytest.raises(BadNumeralError, match=r"^BadNumeral: a \w+ is not a sequence of weights$"):
            weight_vector(make())

    @pytest.mark.parametrize("values", [[True, 2], [1, False, 2], [True], [2.5, True]])
    def test_bool_is_not_a_weight(self, values):
        with pytest.raises(BadNumeralError):
            weight_vector(values)

    @pytest.mark.parametrize("bad,error,message", [
        (Fraction(0), NonPositiveWeightError, "NonPositiveWeight: component 0"),
        (Fraction(-1, 3), NonPositiveWeightError, "NonPositiveWeight: component -1/3"),
        (0.0, NonPositiveWeightError, "NonPositiveWeight: component 0.0"),
        (-0.0, NonPositiveWeightError, "NonPositiveWeight: component -0.0"),
        (-1.5, NonPositiveWeightError, "NonPositiveWeight: component -1.5"),
        (math.nan, NonPositiveWeightError, "NonPositiveWeight: component nan"),
        (math.inf, NonFiniteWeightError, "NonFiniteWeight: component inf"),
    ])
    def test_rejected_components(self, bad, error, message):
        """A Fraction is checked by the record, as its numerator over the vector's
        denominator, a float where floats enter, weight_vector."""
        with pytest.raises(error) as raised:
            weight_vector((1, bad, 1) if isinstance(bad, Fraction) else (1.0, bad, 1.0))
        assert str(raised.value) == message

    def test_as_strings(self):
        """A vector with a band was read from floats and prints them; one without, its
        exact components."""
        x, d = vector_of((0.1, 2)).integer_form
        assert WeightVector(x, d, Fraction(1, 10**9)).as_strings() == ["0.1", "2.0"]
        assert WeightVector(x, d, 0).as_strings() == ["3602879701896397/36028797018963968", "2"]

    @pytest.mark.parametrize("x,d,message", [
        ((), 1, "empty weight vector"),
        ((True, 2), 3, "component True must be an int numerator"),
        ((1, 2), True, "denominator True is not a positive int"),
        ((0.5, 0.5), 1, "component 0.5 must be an int numerator"),
        ((Fraction(1), 2), 3, "component Fraction(1, 1) must be an int numerator"),
        ((1, 2), 3.0, "denominator 3.0 is not a positive int"),
        ((1, 2), Fraction(3), "denominator Fraction(3, 1) is not a positive int"),
        ((1, 0, 2), 3, "component 0"),
        ((1, -2, 2), 3, "component -2/3"),
        ((1, 2), 0, "denominator 0 is not a positive int"),
        ((1, 2), -3, "denominator -3 is not a positive int"),
        ((2, 4), 6, "(2, 4) / 6 is not in lowest terms"),
    ], ids=["empty", "bool-numerator", "bool-denominator", "float-numerator",
            "fraction-numerator", "float-denominator", "fraction-denominator", "zero-numerator",
            "negative-numerator", "zero-denominator", "negative-denominator", "unreduced"])
    def test_the_record_refuses_a_bad_integer_form(self, x, d, message):
        """The fields are positive non-bool ints in lowest terms; a bad one is a bad component."""
        with pytest.raises(NonPositiveWeightError) as raised:
            WeightVector(x, d, 0)
        assert str(raised.value) == f"NonPositiveWeight: {message}"

    @pytest.mark.parametrize("band", [-1, Fraction(-1, 10**9), 1e-9, math.nan, True, "0", None])
    def test_a_band_is_a_fraction_or_an_int_at_least_0(self, band):
        with pytest.raises(BadToleranceError, match=r"^BadTolerance: band=.* is not a Fraction or an int >= 0$"):
            WeightVector((1, 2), 1, band)


def _a_reduced_twin(w, values) -> bool:
    """w is in lowest terms, gcd(d, x_1, ..., x_n) = 1, and is the record
    ``weight_vector`` gives for the exact values."""
    x, d = w.integer_form
    return math.gcd(d, *x) == 1 and w == weight_vector(values)


class TestOneIntegerForm:
    """Every builder gives the record ``weight_vector`` gives for the same exact
    values, in lowest terms, so equal vectors are equal records."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(positive_rationals, st.fractions(min_value=Fraction(1, 10**20),
                                                               max_value=10**20)),
                    min_size=1, max_size=6))
    def test_weight_vector_reads_each_spelling_to_one_record(self, values):
        reference = weight_vector(values)
        assert _a_reduced_twin(reference, values) and reference.components == tuple(values)
        assert weight_vector([format_rational(v) for v in values]) == reference
        ints = [v.numerator if v.denominator == 1 else v for v in values]
        assert weight_vector(ints) == reference
        floats = [float(v) for v in values]
        assert _a_reduced_twin(WeightVector(*weight_vector(floats).integer_form, 0),
                               [Fraction(f) for f in floats])

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(list(PerturbTag)))
    def test_the_package_builders_give_reduced_twins(self, seed, tag):
        rng, reference = random.Random(seed), random.Random(seed)
        pcm = generate_with_rng(rng, tag)
        generate_with_rng(reference, tag)
        draws = [reference.randint(1, 9999) for _ in range(4)]
        assert _a_reduced_twin(random_exact_weights(rng), [Fraction(k, sum(draws)) for k in draws])
        for cycle in CANONICAL_CYCLES:
            tet = tetrahedron_for_cycle(pcm, cycle)
            for tree, point, vertex in zip(paths_of_cycle(cycle), tet.points, tet.vertices):
                assert _a_reduced_twin(vertex, [Fraction(v, sum(point)) for v in point])
                assert _a_reduced_twin(tree_weight_vector(pcm, tree),
                                       tree_weight_vector_by_fractions(pcm, tree).components)

    @settings(max_examples=150, deadline=None)
    @given(_consistent_or_perturbed())
    def test_consistent_weights_give_reduced_twins(self, pcm):
        try:
            w = consistent_weights(pcm)
        except NotConsistentError:
            return
        column = [entry(pcm, i, pcm.n) for i in range(1, pcm.n + 1)]
        assert _a_reduced_twin(w, [a / sum(column) for a in column])
