"""Parsing, validation and exact cycle/triad algebra."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from effpcm.errors import (
    BadNumeralError,
    IndexOutOfRangeError,
    NonPositiveEntryError,
    NonSquareError,
    NotConsistentError,
    ReciprocityViolationError,
    RepeatedIndexError,
    TooShortError,
    UnsupportedDimensionError,
)
from effpcm.generators import generate_with_rng
from effpcm.geometry import PerturbTag
from effpcm.pcm import (
    CANONICAL_CYCLES,
    CANONICAL_TRIADS,
    Pcm,
    Permutation,
    apply_permutation,
    compare_ratio,
    consistent_weights,
    cycle_product,
    is_consistent,
    parse_pcm,
    parse_rational,
    pcm_from_upper,
    product_signs,
    triad_product,
    weight_vector,
)
from oracles import (
    consistent_four_cycles,
    consistent_triads,
    entry,
    identity_permutation,
    inverse_permutation,
    parse_rational_by_fraction_string,
    ratio,
)

positive_rationals = st.builds(Fraction, st.integers(1, 60), st.integers(1, 60))

random_pcm4 = st.builds(
    lambda a, b, c, d, e, f: pcm_from_upper(
        4, {(1, 2): a, (1, 3): b, (1, 4): c, (2, 3): d, (2, 4): e, (3, 4): f}
    ),
    *([positive_rationals] * 6),
)


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

    @pytest.mark.parametrize("cell", ["", "abc", "1/0", "1e3", ".5", "1.", "0.1234567890123456"])
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

    @pytest.mark.parametrize("entries", [
        ((1.0, 2.0), (0.5, 1.0)),
        ((Fraction(1), True), (Fraction(1), Fraction(1))),
        ((Fraction(1), "2"), (Fraction(1, 2), Fraction(1))),
        ((Fraction(1), None), (Fraction(1), Fraction(1))),
    ])
    def test_non_rational_entries_rejected(self, entries):
        with pytest.raises(BadNumeralError):
            Pcm(entries)

    def test_int_entries_accepted(self):
        pcm = Pcm(((1, 2), (Fraction(1, 2), 1)))
        assert pcm.rows_as_strings() == [["1", "2"], ["1/2", "1"]]


def _parse_outcome(parse, value):
    """The parsed value, or the type and message of the error raised."""
    try:
        return parse(value)
    except Exception as exc:
        return type(exc), str(exc)


# Numerals and near misses: ASCII digits, one non-ASCII digit (Arabic-Indic
# three), signs, separators, an exponent, an underscore and whitespace.
_NUMERAL_ALPHABET = "0123456789\u0663+-/.e_ \t"
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
        12, -3, True, 0.1, 1e-05, None,
    ])
    def test_fixed_cases(self, value):
        assert _parse_outcome(parse_rational, value) == _parse_outcome(
            parse_rational_by_fraction_string, value)

    def test_sign_and_whitespace(self):
        """The README's example: a signed numeral padded with whitespace."""
        assert parse_rational(" -0.5\t") == Fraction(-1, 2)
        assert parse_rational("+3/4 ") == Fraction(3, 4)


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
            Pcm(((a11, a12), (a21, a22)))
        else:
            with pytest.raises(ReciprocityViolationError):
                Pcm(((a11, a12), (a21, a22)))


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
            signs = product_signs(pcm)
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
                assert product_signs(relabelled) == _reference_signs(relabelled)

    def test_decimal_matrices_of_the_benchmark_pool(self):
        docs = [doc for doc in json.loads(POOL.read_text(encoding="utf-8"))["n4"]
                if doc["half"] == "decimal"]
        assert len(docs) == 36
        for doc in docs:
            pcm = parse_pcm(doc["entries"])
            assert product_signs(pcm) == _reference_signs(pcm)

    def test_requires_n4_on_every_call(self):
        pcm = parse_pcm([["1", "2"], ["1/2", "1"]])
        for _ in range(2):
            with pytest.raises(UnsupportedDimensionError):
                product_signs(pcm)

    def test_stored_signs_leave_the_record_as_it_was(self, running_example):
        signs = product_signs(running_example)
        assert product_signs(running_example) is signs
        fresh = parse_pcm(running_example.rows_as_strings())
        assert running_example == fresh and fresh == running_example
        assert hash(running_example) == hash(fresh)
        assert repr(running_example) == repr(fresh)
        with pytest.raises(AttributeError):
            running_example.entries = fresh.entries


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
        assert is_consistent(parse_pcm([["1"]]))
        assert is_consistent(parse_pcm([["1", "7"], ["1/7", "1"]]))

    def test_rejects_inconsistent(self, running_example):
        assert not is_consistent(running_example)
        with pytest.raises(NotConsistentError):
            consistent_weights(running_example)


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


class TestWeightVector:
    def test_variants(self):
        exact = weight_vector([1, 2, 3])
        assert exact.exact and exact.components[0] == Fraction(1)
        floaty = weight_vector([0.5, 0.25, 0.25])
        assert not floaty.exact

    def test_normalization(self):
        w = weight_vector([2, 2, 4]).normalized()
        assert w.components == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
        assert w.is_normalized

    def test_normalization_when_float_sum_overflows(self):
        raw = (1.4875e308, 1.7e308, 8.5e307, 2.125e307)
        assert sum(raw) == math.inf
        w = weight_vector(raw).normalized()
        assert all(0 < c < 1 for c in w.components)
        assert w.is_normalized
        for i in range(1, 4):
            assert ratio(w, i, 4) == pytest.approx(raw[i - 1] / raw[3], rel=1e-15)

    def test_positivity(self):
        from effpcm.errors import NonPositiveWeightError
        with pytest.raises(NonPositiveWeightError):
            weight_vector([1, 0, 2])


class TestCompareRatio:
    @given(
        pcm=random_pcm4,
        weights=st.lists(positive_rationals, min_size=4, max_size=4),
        pair=st.sampled_from([(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]),
        on_plane=st.booleans(),
    )
    def test_exact_comparison_is_antisymmetric(self, pcm, weights, pair, on_plane):
        """Comparing w_j/w_i with a_ji gives the opposite sign of w_i/w_j with a_ij."""
        i, j = pair
        if on_plane:  # put w on the cutting plane w_i/w_j = a_ij
            weights[i - 1] = entry(pcm, i, j) * weights[j - 1]
        w = weight_vector(weights)
        forward = compare_ratio(w, i, j, entry(pcm, i, j))
        assert compare_ratio(w, j, i, entry(pcm, j, i)) == -forward
        if on_plane:
            assert forward == 0

    @pytest.mark.parametrize("target", [Fraction(1, 1000), Fraction(1), Fraction(1000)])
    @pytest.mark.parametrize("k,sign", [(0.5, 0), (-0.5, 0), (2, 1), (-2, -1)])
    def test_float_band_is_relative_to_the_target(self, target, k, sign):
        band = 1e-9
        w = weight_vector([float(target) * (1 + k * band), 1.0])
        assert compare_ratio(w, 1, 2, target, band) == sign
