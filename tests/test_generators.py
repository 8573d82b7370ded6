"""Seeded instance generators: determinism and class correctness."""

import random
from fractions import Fraction

import pytest

from effpcm.generators import generate_pcm, random_exact_weights
from effpcm.generators import UPPER_PAIRS, OPPOSITE_PAIRS, TRIAD_SHARING_PAIRS
from effpcm.geometry import PerturbTag, classify

ALL_TAGS = [tag.value for tag in PerturbTag]


def test_element_pair_partition():
    assert len(UPPER_PAIRS) == 6
    assert len(OPPOSITE_PAIRS) == 3
    assert len(TRIAD_SHARING_PAIRS) == 12


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_generated_class_matches(tag):
    for seed in range(25):
        pcm = generate_pcm(seed, tag)
        assert classify(pcm).tag.value == tag


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_deterministic_per_seed(tag):
    assert generate_pcm(1234, tag) == generate_pcm(1234, tag)


def test_distinct_seeds_vary():
    matrices = {generate_pcm(seed, "triple") for seed in range(20)}
    assert len(matrices) > 1


def test_random_exact_weights_properties():
    rng = random.Random(0)
    w = random_exact_weights(rng)
    assert w.exact and w.is_normalized and w.n == 4
    rng_a, rng_b = random.Random(42), random.Random(42)
    assert random_exact_weights(rng_a) == random_exact_weights(rng_b)


def test_entries_are_positive_rationals():
    pcm = generate_pcm(7, "triple")
    for row in pcm.entries:
        for value in row:
            assert isinstance(value, Fraction) and value > 0
