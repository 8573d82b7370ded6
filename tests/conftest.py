"""Shared fixtures: the reference matrices used throughout the suite.

The running example is a triple-perturbed matrix; the five variants below it
modify one, two or three entries (with reciprocals) to land in each of the
other perturbation classes.  The flip family varies a single entry through
the value that makes one 4-cycle consistent, reversing its orientation.
"""

from fractions import Fraction

import pytest

from effpcm.pcm import Pcm, parse_pcm, pcm_from_upper

RUNNING_ROWS = [
    ["1", "1", "5", "7"],
    ["1", "1", "2", "8"],
    ["1/5", "1/2", "1", "1/3"],
    ["1/7", "1/8", "3", "1"],
]

RUNNING_UPPER = {
    (1, 2): Fraction(1),
    (1, 3): Fraction(5),
    (1, 4): Fraction(7),
    (2, 3): Fraction(2),
    (2, 4): Fraction(8),
    (3, 4): Fraction(1, 3),
}


def _variant(**overrides) -> Pcm:
    upper = dict(RUNNING_UPPER)
    for key, value in overrides.items():
        i, j = int(key[1]), int(key[2])
        upper[(i, j)] = Fraction(value)
    return pcm_from_upper(4, upper)


@pytest.fixture
def running_example() -> Pcm:
    return parse_pcm(RUNNING_ROWS)


@pytest.fixture
def double_triad_example() -> Pcm:
    return _variant(a12=Fraction(5, 2))


@pytest.fixture
def double_one_cycle_example() -> Pcm:
    return _variant(a24=Fraction(14, 5))


@pytest.fixture
def double_two_cycles_example() -> Pcm:
    return _variant(a24=Fraction(14, 5), a34=Fraction(14, 25))


@pytest.fixture
def simple_example() -> Pcm:
    return _variant(a12=Fraction(5, 2), a24=Fraction(14, 5))


@pytest.fixture
def consistent_example() -> Pcm:
    return _variant(a12=Fraction(5, 2), a24=Fraction(14, 5), a34=Fraction(7, 5))


def flip_family(a14) -> Pcm:
    """One entry sweeps through the value making the (1,4,2,3) cycle consistent."""
    return pcm_from_upper(4, {
        (1, 2): Fraction(1),
        (1, 3): Fraction(2),
        (1, 4): Fraction(a14),
        (2, 3): Fraction(1),
        (2, 4): Fraction(3),
        (3, 4): Fraction(1),
    })
