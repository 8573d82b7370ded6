"""Seeded random instance generators for each perturbation class.

Perturbed classes start from a random consistent matrix and multiply a
class-appropriate entry set by random rational factors, all as integer
(numerator, denominator) pairs.  A candidate's class is read off its integer
signs and it is resampled on mismatch, so accidental extra consistencies
cannot leak through; only the accepted one becomes a Pcm.  A trial's draws
are an explicit random.Random's getrandbits rejection draws (those randrange
takes) and random() coin flips, so a seed reproduces the matrix bit for bit.
"""

from __future__ import annotations

import math
import random

from .errors import GenerationFailedError
from .geometry import PerturbTag, classify_signs
from .pcm import Pcm, WeightVector, pcm_from_pairs, upper_signs

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


def _below(bits, n: int) -> int:
    """0..n-1 from getrandbits ``bits``: n.bit_length() bits until below n, as randrange(n)."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _saaty_like_entry(bits, coin) -> tuple[int, int]:
    """An entry s * 2^k with s in 1..9 or its reciprocal, as (numerator, denominator)."""
    s = 1 + _below(bits, 9)
    n, d = (1, s) if coin() < 0.5 else (s, 1)
    k = _below(bits, 5) - 2
    return (n << k, d) if k >= 0 else (n, d << -k)


def _random_factor(bits) -> tuple[int, int]:
    while True:
        p, q = 1 + _below(bits, 12), 1 + _below(bits, 12)
        if p != q:  # the factor p/q is not 1
            return p, q


def _candidate(rng: random.Random, tag: PerturbTag) -> list[tuple[int, int]]:
    """The six upper entries, in UPPER_PAIRS order, as (numerator, denominator) pairs."""
    bits = rng.getrandbits
    if tag is PerturbTag.TRIPLE:
        return [_saaty_like_entry(bits, rng.random) for _ in UPPER_PAIRS]
    weights = [1 + _below(bits, 20) for _ in range(4)]
    upper = {(i, j): (weights[i - 1], weights[j - 1]) for (i, j) in UPPER_PAIRS}  # consistent
    if tag is PerturbTag.CONSISTENT:
        factors = {}
    elif tag is PerturbTag.SIMPLE:
        factors = {UPPER_PAIRS[_below(bits, len(UPPER_PAIRS))]: _random_factor(bits)}
    elif tag is PerturbTag.DOUBLE_TRIAD:
        first, second = TRIAD_SHARING_PAIRS[_below(bits, len(TRIAD_SHARING_PAIRS))]
        f, g = _random_factor(bits), _random_factor(bits)
        if f[0] * g[1] == f[1] * g[0] or f[0] * g[0] == f[1] * g[1]:  # f == g or f * g == 1
            g = _random_factor(bits)
        factors = {first: f, second: g}
    elif tag is PerturbTag.DOUBLE_ONE_CYCLE:
        first, second = OPPOSITE_PAIRS[_below(bits, len(OPPOSITE_PAIRS))]
        factors = {first: _random_factor(bits), second: _random_factor(bits)}
    elif tag is PerturbTag.DOUBLE_TWO_CYCLES:
        # Equal factors on an opposite pair keep the two cycles through
        # exactly one of the entries consistent.
        first, second = OPPOSITE_PAIRS[_below(bits, len(OPPOSITE_PAIRS))]
        f = _random_factor(bits)
        factors = {first: f, second: f}
    else:
        raise ValueError(f"unknown class tag {tag!r}")
    for pair, (p, q) in factors.items():
        n, d = upper[pair]
        upper[pair] = (n * p, d * q)
    return list(upper.values())


def generate_with_rng(rng: random.Random, class_tag: PerturbTag | str) -> Pcm:
    """Draw from an existing generator stream; sign-verified, resampled."""
    tag = PerturbTag(class_tag)
    for _ in range(MAX_ATTEMPTS):
        pairs = _candidate(rng, tag)
        signs = upper_signs(pairs)
        if classify_signs(*signs).tag is tag:
            return pcm_from_pairs(pairs, signs)
    raise GenerationFailedError(
        f"could not generate a {tag.value} matrix in {MAX_ATTEMPTS} attempts"
    )


def generate_pcm(seed: int, class_tag: PerturbTag | str) -> Pcm:
    """Deterministic per seed: a 4x4 matrix of the requested class."""
    return generate_with_rng(random.Random(seed), class_tag)


def random_exact_weights(rng: random.Random) -> WeightVector:
    """A random exact normalized weight vector with integer-born components."""
    bits = rng.getrandbits
    draws = [1 + _below(bits, WEIGHT_MAX_COMPONENT) for _ in range(WEIGHT_COUNT)]
    g = math.gcd(*draws)  # it divides their total too
    return WeightVector(tuple([k // g for k in draws]), sum(draws) // g, 0)
