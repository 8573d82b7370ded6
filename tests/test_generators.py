"""Seeded instance generators: determinism and class correctness."""

import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from effpcm.generators import _below, generate_pcm, generate_with_rng, random_exact_weights
from effpcm.generators import UPPER_PAIRS, OPPOSITE_PAIRS, TRIAD_SHARING_PAIRS
from effpcm.efficiency import BccDigraph
from effpcm.geometry import CycleOrientation, PerturbTag, classify
import effpcm.pcm
from effpcm.pcm import Pcm, WeightVector, parse_pcm, pcm_from_pairs, upper_signs
from effpcm.sampling import run_equivalence_trials
from oracles import normalized, vector_of

DATA = Path(__file__).parent / "data"

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
    assert w.band == 0 and sum(w.components) == 1 and w.n == 4
    rng_a, rng_b = random.Random(42), random.Random(42)
    assert random_exact_weights(rng_a) == random_exact_weights(rng_b)


def test_random_exact_weights_match_fraction_normalization():
    """One integer sum gives the components that dividing Fractions gave."""
    for seed in range(300):
        rng, reference = random.Random(seed), random.Random(seed)
        for _ in range(3):
            expected = normalized(vector_of([reference.randint(1, 9999) for _ in range(4)]))
            assert random_exact_weights(rng) == expected
        assert rng.random() == reference.random()


def test_entries_are_positive_rationals():
    pcm = generate_pcm(7, "triple")
    for row in pcm.entries:
        for value in row:
            assert isinstance(value, Fraction) and value > 0


def _trial_digest(seed, tag):
    """The generated matrix and the stream's next draw after it, digested."""
    rng = random.Random(seed)
    pcm = generate_with_rng(rng, tag)
    text = json.dumps([pcm.rows_as_strings(), repr(rng.random())])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_draw_stream_is_pinned(tag):
    """Seeds 0..149 per class give the recorded matrix and leave the
    generator where it was left when the digests were recorded, resampled
    candidates included."""
    recorded = json.loads((DATA / "draw_stream.json").read_text())[tag]
    assert len(recorded) == 150
    for seed, digest in enumerate(recorded):
        assert _trial_digest(seed, tag) == digest, seed


# The bounds the generators draw below, and bounds at and next to powers of two.
BELOW_BOUNDS = sorted({1, 2, 3, 5, 6, 8, 9, 12, 16, 20, 9999}
                      | {2**k + d for k in range(1, 41) for d in (-1, 0, 1)})


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**64), st.sampled_from(BELOW_BOUNDS))
def test_below_draws_as_randrange(seed, n):
    """The pinned draw stream (test_draw_stream_is_pinned) is the contract;
    this property only ties ``_below`` to the running interpreter's
    ``randrange``: the same value from the same getrandbits calls."""
    a, b = random.Random(seed), random.Random(seed)
    for _ in range(3):
        assert _below(a.getrandbits, n) == b.randrange(n)
    assert a.getstate() == b.getstate()


@pytest.mark.parametrize("table", [UPPER_PAIRS, OPPOSITE_PAIRS, TRIAD_SHARING_PAIRS])
def test_table_picks_draw_as_choice(table):
    """A pair table is picked as ``rng.choice`` picks from it, leaving the same state."""
    for seed in range(200):
        a, b = random.Random(seed), random.Random(seed)
        assert table[_below(a.getrandbits, len(table))] == b.choice(table)
        assert a.getstate() == b.getstate()


@pytest.mark.parametrize("tag", ALL_TAGS)
def test_generated_matrix_is_its_parsed_twin(tag):
    """The kept signs are those of the entries: the re-parsed matrix, which
    computes its own, has the same signs, equality and hash."""
    for seed in range(40):
        pcm = generate_pcm(seed, tag)
        twin = parse_pcm(pcm.rows_as_strings())
        assert pcm == twin and hash(pcm) == hash(twin)
        assert pcm.signs == twin.signs
        assert classify(twin).tag.value == tag


def test_one_pcm_per_generated_matrix(monkeypatch):
    """A rejected candidate builds no Pcm; the accepted one is validated once.
    Seeds 0..59 include candidates that missed their class."""
    built = []
    original = Pcm.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Pcm, "__post_init__", counting)
    for tag in ALL_TAGS:
        for seed in range(60):
            built.clear()
            pcm = generate_pcm(seed, tag)
            assert built == [pcm], (tag, seed)


def test_one_record_of_each_kind_per_trial(monkeypatch):
    """One sampler trial builds one matrix, one weight vector and one digraph; the
    region tests read the orientations built at import."""
    built = []
    for cls in (Pcm, WeightVector, BccDigraph, CycleOrientation):
        def counting(self, original=cls.__post_init__):
            built.append(type(self))
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    for tag in ALL_TAGS:
        for seed in range(20):
            built.clear()
            run_equivalence_trials(seed, 1, tag)
            names = sorted(cls.__name__ for cls in built)
            assert names == ["BccDigraph", "Pcm", "WeightVector"], (tag, seed)


def test_a_trial_builds_no_fraction(monkeypatch):
    """100 sampler trials per class construct no Fraction and no full grid: the
    matrix is the integer pairs of its upper triangle and the weight vector its
    integer form."""
    built, matrices = [], []
    new = Fraction.__new__
    validate = Pcm.__post_init__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    def keeping(self):
        matrices.append(self)
        validate(self)

    monkeypatch.setattr(Fraction, "__new__", counting)
    monkeypatch.setattr(Pcm, "__post_init__", keeping)
    for tag in ALL_TAGS:
        run_equivalence_trials(5, 100, tag)
    assert built == []
    assert len(matrices) == 100 * len(ALL_TAGS)
    assert not any("pairs" in pcm.__dict__ for pcm in matrices)


def test_a_trial_calls_no_randint_randrange_or_choice(monkeypatch):
    """100 sampler trials per class draw from getrandbits and random() alone:
    with randint, randrange and choice made to raise, every verdict still agrees."""
    def no_call(*args, **kwargs):
        raise AssertionError("a trial called a random wrapper")

    for name in ("randint", "randrange", "choice"):
        monkeypatch.setattr(random.Random, name, no_call)
    for tag in ALL_TAGS:
        report = run_equivalence_trials(5, 100, tag)
        assert report.agreements == 100 and report.disagreements == (), tag


def test_a_trial_builds_no_fraction_entries(monkeypatch):
    """A sampler trial's Pcm is its integer pairs: no trial reads ``entries``, and
    ``pcm_from_pairs`` and ``parse_pcm`` of numerals run with Fraction made to raise."""
    built = []
    original = Pcm.__post_init__

    def keeping(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Pcm, "__post_init__", keeping)
    for tag in ALL_TAGS:
        run_equivalence_trials(31, 20, tag)
    assert len(built) == 20 * len(ALL_TAGS)
    assert not any("entries" in pcm.__dict__ for pcm in built)

    pairs = [(6, 4), (10**20, 3), (7, 7), (2, 9), (18, 4), (5, 1)]
    expected = pcm_from_pairs(pairs, upper_signs(pairs))
    rows = expected.rows_as_strings()

    def no_fraction(*args):
        raise AssertionError("a Fraction was built")

    monkeypatch.setattr(effpcm.pcm, "Fraction", no_fraction)
    assert pcm_from_pairs(pairs, upper_signs(pairs)) == expected
    assert parse_pcm(rows) == expected
    assert parse_pcm([["1", "0.25"], ["4", "1"]]).pairs == (((1, 1), (1, 4)), ((4, 1), (1, 1)))
