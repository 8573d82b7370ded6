"""Seeded random instance generators for each perturbation class.

Perturbed classes start from a random consistent matrix and multiply a
class-appropriate entry set by random rational factors; the construction is
verified post hoc by classify() and resampled on mismatch, so accidental
extra consistencies cannot leak through.  All draws come from an explicit
random.Random, so a fixed seed reproduces the matrix bit for bit.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import GenerationFailedError
from .geometry import PerturbTag, classify
from .pcm import Pcm, WeightVector, pcm_from_upper

MAX_ATTEMPTS = 10_000

# random_exact_weights draws WEIGHT_COUNT integers in 1..WEIGHT_MAX_COMPONENT
WEIGHT_COUNT = 4
WEIGHT_MAX_COMPONENT = 9999

UPPER_PAIRS = ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

# The three element pairs that do not share a triad ("opposite" entries).
OPPOSITE_PAIRS = (
    ((1, 2), (3, 4)),
    ((1, 3), (2, 4)),
    ((1, 4), (2, 3)),
)

TRIAD_SHARING_PAIRS = tuple(
    (UPPER_PAIRS[a], UPPER_PAIRS[b])
    for a in range(6)
    for b in range(a + 1, 6)
    if (UPPER_PAIRS[a], UPPER_PAIRS[b]) not in OPPOSITE_PAIRS
)


def _saaty_like_entry(rng: random.Random) -> Fraction:
    """An entry s * 2^k with s in 1..9 or its reciprocal."""
    s = rng.randint(1, 9)
    value = Fraction(1, s) if rng.random() < 0.5 else Fraction(s)
    return value * Fraction(2) ** rng.randint(-2, 2)


def _random_factor(rng: random.Random) -> Fraction:
    while True:
        factor = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if factor != 1:
            return factor


def _consistent_upper(rng: random.Random) -> dict[tuple[int, int], Fraction]:
    weights = [Fraction(rng.randint(1, 20)) for _ in range(4)]
    return {(i, j): weights[i - 1] / weights[j - 1] for (i, j) in UPPER_PAIRS}


def _candidate(rng: random.Random, tag: PerturbTag) -> Pcm:
    if tag is PerturbTag.TRIPLE:
        return pcm_from_upper(4, {pair: _saaty_like_entry(rng) for pair in UPPER_PAIRS})
    upper = _consistent_upper(rng)
    if tag is PerturbTag.CONSISTENT:
        pass
    elif tag is PerturbTag.SIMPLE:
        pair = rng.choice(UPPER_PAIRS)
        upper[pair] *= _random_factor(rng)
    elif tag is PerturbTag.DOUBLE_TRIAD:
        first, second = rng.choice(TRIAD_SHARING_PAIRS)
        f, g = _random_factor(rng), _random_factor(rng)
        if f == g or f * g == 1:
            g = _random_factor(rng)
        upper[first] *= f
        upper[second] *= g
    elif tag is PerturbTag.DOUBLE_ONE_CYCLE:
        first, second = rng.choice(OPPOSITE_PAIRS)
        f, g = _random_factor(rng), _random_factor(rng)
        upper[first] *= f
        upper[second] *= g
    elif tag is PerturbTag.DOUBLE_TWO_CYCLES:
        # Equal factors on an opposite pair keep the two cycles through
        # exactly one of the entries consistent.
        first, second = rng.choice(OPPOSITE_PAIRS)
        f = _random_factor(rng)
        upper[first] *= f
        upper[second] *= f
    else:
        raise ValueError(f"unknown class tag {tag!r}")
    return pcm_from_upper(4, upper)


def generate_with_rng(rng: random.Random, class_tag: PerturbTag | str) -> Pcm:
    """Draw from an existing generator stream; classify-verified, resampled."""
    tag = PerturbTag(class_tag)
    for _ in range(MAX_ATTEMPTS):
        pcm = _candidate(rng, tag)
        if classify(pcm).tag is tag:
            return pcm
    raise GenerationFailedError(
        f"could not generate a {tag.value} matrix in {MAX_ATTEMPTS} attempts"
    )


def generate_pcm(seed: int, class_tag: PerturbTag | str) -> Pcm:
    """Deterministic per seed: a 4x4 matrix of the requested class."""
    return generate_with_rng(random.Random(seed), class_tag)


def random_exact_weights(rng: random.Random) -> WeightVector:
    """A random exact normalized weight vector with integer-born components."""
    draws = [rng.randint(1, WEIGHT_MAX_COMPONENT) for _ in range(WEIGHT_COUNT)]
    total = sum(draws)
    return WeightVector(tuple(Fraction(k, total) for k in draws))
