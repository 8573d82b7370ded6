"""Parsing, validation and exact cycle/triad algebra."""

from fractions import Fraction

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
from effpcm.pcm import (
    Permutation,
    apply_permutation,
    consistent_four_cycles,
    consistent_triads,
    consistent_weights,
    cycle_product,
    is_consistent,
    parse_pcm,
    parse_rational,
    pcm_from_upper,
    triad_product,
    weight_vector,
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
        assert running_example.entry(1, 3) == 5
        assert running_example.entry(3, 4) == Fraction(1, 3)
        assert running_example.entry(4, 2) == Fraction(1, 8)

    def test_single_cell(self):
        assert parse_pcm([["1"]]).n == 1

    def test_decimals_are_exact(self):
        pcm = parse_pcm([["1", "0.25"], ["4", "1"]])
        assert pcm.entry(1, 2) == Fraction(1, 4)
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

    @pytest.mark.parametrize("cell", ["", "abc", "1/0", "1e3", "0.1234567890123456"])
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
                assert pcm.entry(i, j) * pcm.entry(j, i) == 1


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


class TestConsistentWeights:
    def test_consistent_example_weights(self, consistent_example):
        w = consistent_weights(consistent_example)
        assert w.components == (
            Fraction(35, 61), Fraction(14, 61), Fraction(7, 61), Fraction(5, 61),
        )
        # the defining property is the oracle: every entry reproduced exactly
        for i in range(1, 5):
            for j in range(1, 5):
                assert w.ratio(i, j) == consistent_example.entry(i, j)

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
        identity = Permutation.identity(4)
        assert apply_permutation(running_example, identity) == running_example

    def test_swap_first_two(self, running_example):
        swapped = apply_permutation(running_example, Permutation((2, 1, 3, 4)))
        assert swapped.entry(1, 2) == 1 / running_example.entry(1, 2)
        assert swapped.entry(1, 3) == running_example.entry(2, 3)
        assert swapped.entry(1, 4) == running_example.entry(2, 4)

    @given(random_pcm4, st.permutations([1, 2, 3, 4]))
    def test_inverse_round_trip(self, pcm, mapping):
        perm = Permutation(tuple(mapping))
        assert apply_permutation(apply_permutation(pcm, perm), perm.inverse()) == pcm

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

    def test_positivity(self):
        from effpcm.errors import NonPositiveWeightError
        with pytest.raises(NonPositiveWeightError):
            weight_vector([1, 0, 2])
