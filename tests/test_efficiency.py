"""BCC digraph construction, strong connectivity, and Pareto dominance."""

import ast
import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from effpcm.errors import BadToleranceError, DimensionMismatchError, IndexOutOfRangeError, NonPositiveWeightError
from effpcm.export import load_weights
from effpcm.pcm import (
    CANONICAL_CYCLES,
    DEFAULT_EQUALITY_BAND,
    Permutation,
    WeightVector,
    apply_permutation,
    parse_pcm,
    pcm_from_upper,
    weight_vector,
)
import effpcm.efficiency
from effpcm.efficiency import (
    BccDigraph,
    bcc_digraph,
    digraph_from_signs,
    is_efficient,
    strongly_connected,
)
from effpcm.generators import generate_with_rng, random_exact_weights
from effpcm.geometry import PerturbTag, tetrahedron_for_cycle
from oracles import (
    DimensionTooLargeError,
    bcc_digraph_by_ratios,
    digraph_of,
    dominates,
    entry,
    find_dominator_sample,
    hamiltonian_cycle_exists,
    permute_weights,
    scaled,
    strongly_connected_by_closure,
    vector_of,
)
from test_pcm import positive_rationals, random_pcm4

UNIFORM = weight_vector([Fraction(1, 4)] * 4)

# arcs of the running example under uniform weights, in their sorted (i, j) order
EXPECTED_ARCS = ((1, 2), (2, 1), (3, 1), (3, 2), (3, 4), (4, 1), (4, 2))


_COMPONENTS = st.one_of(
    st.fractions(min_value=Fraction(1, 1000), max_value=1000),
    st.builds(Fraction, st.integers(1, 10**40), st.integers(1, 10**40)),
)

# float weights: the exact draws rounded, subnormals, and the magnitudes of
# the float-range cases (weights near 1e-300 and 1e300)
_FLOAT_COMPONENTS = st.one_of(
    _COMPONENTS.map(float),
    st.floats(min_value=0.0, max_value=sys.float_info.min, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e-300, max_value=1e300),
    st.sampled_from([1e-300, 1e300]),
)

# entries near and past the ends of the float range, as in the float-range cases
_RANGE_ENTRIES = st.sampled_from([Fraction(10) ** k for k in (-400, -330, -300, 300, 330, 400)])


@st.composite
def _matrix_and_vector(draw, min_n=2):
    """An n x n matrix, n = min_n..12, with int and Fraction entries, and an exact
    weight vector or one of floats' exact values with the default band; some
    pairs are forced to equal their ratio, and some entries lie near or past
    the ends of the float range."""
    n = draw(st.integers(min_n, 12))
    exact = draw(st.booleans())
    components = draw(st.lists(_COMPONENTS if exact else _FLOAT_COMPONENTS,
                               min_size=n, max_size=n))
    w = vector_of(components, 0 if exact else Fraction(DEFAULT_EQUALITY_BAND))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    kinds = draw(st.lists(st.sampled_from(["equal", "whole", "fraction", "range"]),
                          min_size=len(pairs), max_size=len(pairs)))
    values = iter(draw(st.lists(_COMPONENTS, min_size=kinds.count("fraction"),
                                max_size=kinds.count("fraction"))))
    far = iter(draw(st.lists(_RANGE_ENTRIES, min_size=kinds.count("range"),
                             max_size=kinds.count("range"))))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))  # whole values, sides, int or Fraction
    grid = [[rng.choice([1, Fraction(1)]) for _ in range(n)] for _ in range(n)]
    for (i, j), kind in zip(pairs, kinds):
        if kind == "equal":  # w_i / w_j itself
            value = w.components[i] / w.components[j]
        elif kind == "whole":
            value = Fraction(rng.randint(1, 9))
        else:
            value = next(values) if kind == "fraction" else next(far)
        value = 1 / value if rng.random() < 0.5 else value
        grid[i][j], grid[j][i] = value, 1 / value
        for a, b in ((i, j), (j, i)):
            if grid[a][b].denominator == 1 and rng.random() < 0.5:
                grid[a][b] = int(grid[a][b])
    return parse_pcm(grid), w


class TestBccOnIntegerPairs:
    """The digraph reads integer pairs; it must be the digraph of the Fraction
    ratio comparisons, within the vector's band (``band_ratio_sign``),
    whatever the floats' magnitudes."""

    @settings(max_examples=200, deadline=None)
    @given(_matrix_and_vector(), st.sampled_from([0.0, DEFAULT_EQUALITY_BAND, 1e-3]))
    # 1.0 / 0.001 rounds to 1000.0, but the given floats' ratio is not 1000
    @example((parse_pcm([[1, 1000], [Fraction(1, 1000), 1]]),
              vector_of((1.0, 0.001), Fraction(DEFAULT_EQUALITY_BAND))), 0.0)
    def test_digraph_and_verdict_match_the_oracles(self, matrix_and_vector, band):
        pcm, w = matrix_and_vector
        if w.band:  # the floats' values, rebuilt with the drawn band
            w = WeightVector(*w.integer_form, Fraction(band))
        g = bcc_digraph(pcm, w)
        assert g == bcc_digraph_by_ratios(pcm, w)
        assert strongly_connected(g) == strongly_connected_by_closure(g)


class TestBccDigraph:
    def test_running_uniform_matches_known_arcs(self, running_example):
        g = bcc_digraph(running_example, UNIFORM)
        assert g.arcs == EXPECTED_ARCS
        assert g.equality_pairs == ((1, 2),)

    def test_consistent_weights_give_complete_digraph(self, consistent_example):
        from effpcm.pcm import consistent_weights
        w = consistent_weights(consistent_example)
        g = bcc_digraph(consistent_example, w)
        assert len(g.arcs) == 12
        assert len(g.equality_pairs) == 6

    def test_tree_vertex_equalities(self, running_example):
        w = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        g = bcc_digraph(running_example, w)
        assert g.equality_pairs == ((1, 2), (2, 3), (3, 4))
        assert (4, 1) in g.arcs and (1, 4) not in g.arcs

    def test_dimension_mismatch(self, running_example):
        with pytest.raises(DimensionMismatchError):
            bcc_digraph(running_example, weight_vector([1, 2, 3]))

    def test_float_band_recognizes_near_equality(self, running_example):
        w = weight_vector([0.25, 0.25 * (1 + 1e-12), 0.25, 0.25])
        g = bcc_digraph(running_example, w)
        assert (1, 2) in g.equality_pairs

    def test_band_override(self, running_example):
        """``float_band`` is taken when a vector is built: it sets the band the vector keeps."""
        floats = [0.25, 0.25 * (1 + 1e-7), 0.25, 0.25]
        w = weight_vector(floats)
        assert (1, 2) not in bcc_digraph(running_example, w).equality_pairs
        assert w == weight_vector(floats, DEFAULT_EQUALITY_BAND)
        w = weight_vector(floats, float_band=1e-5)
        assert w.band == Fraction(1e-5)
        assert (1, 2) in bcc_digraph(running_example, w).equality_pairs

    @pytest.mark.parametrize("band", [math.nan, math.inf, -1e-9, "abc", True])
    def test_the_band_is_checked_where_it_enters(self, band):
        """``float_band`` must be a finite number >= 0; it is checked, after the values,
        whenever a vector is built through ``weight_vector``, exact or float."""
        for values in ([0.25] * 4, [Fraction(1, 4)] * 4):
            with pytest.raises(BadToleranceError,
                               match=rf"^BadTolerance: float_band={band!r} is not a finite number >= 0$"):
                weight_vector(values, float_band=band)
        with pytest.raises(NonPositiveWeightError):  # the values first
            weight_vector([Fraction(1, 4), 0], float_band=band)

    def test_the_library_reads_no_environment(self, running_example, tmp_path, monkeypatch):
        """A malformed EFFPCM_TOL reaches no library call: only the CLI reads it."""
        monkeypatch.setenv("EFFPCM_TOL", "abc")
        path = tmp_path / "w.json"
        path.write_text('{"w": [0.25, 0.25, 0.25, 0.25]}', encoding="utf-8")
        for w in (weight_vector([0.25] * 4), weight_vector(["1/4"] * 4), load_weights(path)):
            assert w.band in (0, Fraction(DEFAULT_EQUALITY_BAND))
            assert bcc_digraph(running_example, w).equality_pairs == ((1, 2),)

    def test_a_finite_band_past_the_float_range_makes_every_pair_an_equality(self, running_example):
        g = bcc_digraph(running_example, WeightVector((1,) * 4, 4, Fraction(10**400)))
        assert len(g.equality_pairs) == 6

    def test_a_float_vector_and_its_exact_twin_are_distinct_records(self):
        """Under the default band a float vector keeps it, so it is not the exact
        vector of the same values and need not get its digraph; under a zero band it is."""
        pcm = pcm_from_upper(2, {(1, 2): "2.0000000001"})
        w, twin = weight_vector([1.0, 0.5]), weight_vector(["1", "1/2"])
        assert w != twin and hash(w) != hash(twin)
        assert bcc_digraph(pcm, w).equality_pairs == ((1, 2),)
        assert bcc_digraph(pcm, w).equality_pairs != bcc_digraph(pcm, twin).equality_pairs
        assert WeightVector(*w.integer_form, 0) == twin
        w = weight_vector([1.0, 0.5], float_band=0)
        assert w == twin and hash(w) == hash(twin)
        assert bcc_digraph(pcm, w) == bcc_digraph(pcm, twin)

    @given(random_pcm4, st.tuples(*([st.integers(1, 500)] * 4)))
    def test_every_pair_has_an_arc(self, pcm, raw):
        w = weight_vector(list(raw))
        g = bcc_digraph(pcm, w)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert (i, j) in g.arcs or (j, i) in g.arcs
                both = (i, j) in g.arcs and (j, i) in g.arcs
                assert both == ((i, j) in g.equality_pairs)


def _pair_sign(g: BccDigraph, i: int, j: int) -> int:
    """The sign of w_i/w_j - a_ij that the digraph's arc pair records."""
    return ((i, j) in g.arcs) - ((j, i) in g.arcs)


class TestDigraphFromSigns:
    @settings(max_examples=150, deadline=None)
    @given(_matrix_and_vector(min_n=1))
    def test_bcc_digraphs_own_signs_give_an_equal_record(self, matrix_and_vector):
        pcm, w = matrix_and_vector
        g = bcc_digraph(pcm, w)
        signs = [_pair_sign(g, i, j) for i, j in itertools.combinations(range(1, pcm.n + 1), 2)]
        rebuilt = digraph_from_signs(pcm.n, iter(signs))
        assert rebuilt == g and hash(rebuilt) == hash(g)
        assert rebuilt.arcs == g.arcs and rebuilt.equality_pairs == g.equality_pairs

    def test_each_sign_sets_its_arcs(self):
        g = digraph_from_signs(3, [1, -1, 0])  # pairs (1, 2), (1, 3), (2, 3)
        assert g == digraph_of(3, {(1, 2), (3, 1), (2, 3), (3, 2)})
        assert g.equality_pairs == ((2, 3),)
        with pytest.raises(TypeError):  # a missing sign is not read as an equality
            digraph_from_signs(3, [1, None, 0])

    @pytest.mark.parametrize("signs", [[], [1, 1], [1, 1, 1, 1]])
    def test_one_sign_per_pair(self, signs):
        with pytest.raises(ValueError):
            digraph_from_signs(3, signs)


class TestPairSigns:
    @given(
        pcm=random_pcm4,
        weights=st.lists(positive_rationals, min_size=4, max_size=4),
        pair=st.sampled_from([(i, j) for i in range(1, 5) for j in range(1, 5) if i != j]),
        on_plane=st.booleans(),
    )
    def test_exact_comparison_is_antisymmetric(self, pcm, weights, pair, on_plane):
        """Comparing w_j/w_i with a_ji gives the opposite sign of w_i/w_j with a_ij:
        swapping i and j in matrix and vector reverses the pair's arcs."""
        i, j = pair
        if on_plane:  # put w on the cutting plane w_i/w_j = a_ij
            weights[i - 1] = entry(pcm, i, j) * weights[j - 1]
        w = weight_vector(weights)
        mapping = [1, 2, 3, 4]
        mapping[i - 1], mapping[j - 1] = j, i
        swap = Permutation(tuple(mapping))
        forward = _pair_sign(bcc_digraph(pcm, w), i, j)
        swapped = bcc_digraph(apply_permutation(pcm, swap), permute_weights(w, swap))
        assert _pair_sign(swapped, i, j) == -forward
        if on_plane:
            assert forward == 0

    @pytest.mark.parametrize("target", [Fraction(1, 1000), Fraction(1), Fraction(1000)])
    @pytest.mark.parametrize("k,sign", [(0.5, 0), (-0.5, 0), (2, 1), (-2, -1)])
    def test_float_band_is_relative_to_the_target(self, target, k, sign):
        band = 1e-9
        floats = weight_vector([float(target) * (1 + k * band), 1.0])
        w = WeightVector(*floats.integer_form, Fraction(band))
        pcm = pcm_from_upper(2, {(1, 2): target})
        assert _pair_sign(bcc_digraph(pcm, w), 1, 2) == sign


class TestStrongConnectivity:
    def test_running_uniform_is_not_strongly_connected(self, running_example):
        assert not strongly_connected(bcc_digraph(running_example, UNIFORM))

    def test_complete_bidirectional(self):
        arcs = frozenset((i, j) for i in range(1, 5) for j in range(1, 5) if i != j)
        g = digraph_of(4, arcs)
        assert g.equality_pairs == tuple(itertools.combinations(range(1, 5), 2))
        assert strongly_connected(g)

    def test_single_directed_cycle(self):
        g = digraph_of(4, {(1, 2), (2, 3), (3, 4), (4, 1)})
        assert strongly_connected(g)
        assert hamiltonian_cycle_exists(g)

    def test_hamiltonian_on_running_uniform(self, running_example):
        assert not hamiltonian_cycle_exists(bcc_digraph(running_example, UNIFORM))

    def test_hamiltonian_dimension_cap(self):
        g = digraph_of(9, ())
        with pytest.raises(DimensionTooLargeError):
            hamiltonian_cycle_exists(g)

    def test_camion_equivalence_fuzz(self):
        # strong connectivity and Hamiltonian-cycle existence agree on every
        # BCC digraph, equality pairs included
        rng = random.Random(2024)
        tags = ["triple", "double-triad", "double-one-cycle",
                "double-two-cycles", "simple", "consistent"]
        for k in range(10_000):
            pcm = generate_with_rng(rng, tags[k % 6])
            w = random_exact_weights(rng)
            g = bcc_digraph(pcm, w)
            assert strongly_connected(g) == hamiltonian_cycle_exists(g)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_no_arcs(self, n):
        if n == 0:  # a digraph has a vertex: the record refuses none
            with pytest.raises(IndexOutOfRangeError):
                digraph_of(n, ())
            return
        g = digraph_of(n, ())
        assert strongly_connected(g) == (n <= 1) == strongly_connected_by_closure(g)

    def test_matches_transitive_closure(self):
        # random digraphs, most of them with pairs joined by no arc in
        # either direction, which no BCC digraph has
        rng = random.Random(77)
        verdicts = set()
        for k in range(3000):
            n = 1 + k % 12
            density = rng.choice([0.1, 0.2, 0.3, 0.5, 0.8])
            arcs = frozenset(
                (i, j) for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j and rng.random() < density
            )
            g = digraph_of(n, arcs)
            expected = strongly_connected_by_closure(g)
            assert strongly_connected(g) == expected, sorted(arcs)
            verdicts.add((n > 1, expected))
        assert verdicts == {(False, True), (True, True), (True, False)}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 12).flatmap(lambda n: st.tuples(
        st.just(n), st.lists(st.integers(0, 2 ** (n * n) - 1), min_size=1, max_size=4))))
    def test_arbitrary_arc_masks_match_transitive_closure(self, drawn):
        """Masks with every density from 1/2 down (an AND of up to four draws), so
        most are not semicomplete: the closures must not assume an arc per pair."""
        n, draws = drawn
        diagonal = sum(1 << v * n + v for v in range(n))
        mask = functools.reduce(operator.and_, draws) & ~diagonal
        g = BccDigraph(n, mask)
        assert strongly_connected(g) == strongly_connected_by_closure(g)
        # both reads are tuples in ascending bit order, which is the sorted (i, j) order
        held = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if mask >> (i - 1) * n + (j - 1) & 1]
        assert g.arcs == tuple(held)
        assert g.equality_pairs == tuple((i, j) for i, j in held if i < j and (j, i) in held)


class TestEfficiency:
    def test_running_examples(self, running_example):
        assert not is_efficient(running_example, UNIFORM)
        vertex = weight_vector([Fraction(7, 20), Fraction(2, 5), Fraction(1, 5), Fraction(1, 20)])
        assert is_efficient(running_example, vertex)

    def test_consistent_weights_are_efficient(self, consistent_example):
        from effpcm.pcm import consistent_weights
        assert is_efficient(consistent_example, consistent_weights(consistent_example))

    @given(random_pcm4, st.tuples(*([st.integers(1, 300)] * 4)),
           positive_rationals)
    def test_scaling_invariance(self, pcm, raw, c):
        w = weight_vector(list(raw))
        assert is_efficient(pcm, w) == is_efficient(pcm, scaled(w, c))

    @given(random_pcm4, st.tuples(*([st.integers(1, 300)] * 4)),
           st.permutations([1, 2, 3, 4]))
    def test_permutation_equivariance(self, pcm, raw, mapping):
        w = weight_vector(list(raw))
        perm = Permutation(tuple(mapping))
        assert is_efficient(apply_permutation(pcm, perm), permute_weights(w, perm)) \
            == is_efficient(pcm, w)


# Powers of ten for entries, and binary exponents for weights, near and past
# the ends of the float range (normal floats span about 2.2e-308 to 1.8e308).
_EXTREME_ENTRY_EXPONENTS = st.sampled_from([-400, -330, -310, -300, 0, 300, 310, 330, 400])
_EXTREME_WEIGHT_EXPONENTS = st.sampled_from([-1074, -1060, -1030, -1000, 0, 1000, 1023])


@st.composite
def _matrix_and_float_weights(draw):
    """A 4x4 matrix and a positive float weight vector.  Either the matrix has
    entries and the vector weights near and past the float limits, or it is a
    generated matrix of any class with a vector that is arbitrary or a float
    convex combination of one tetrahedron's vertices (so that efficient
    vectors are drawn too)."""
    if draw(st.integers(0, 2)) == 0:
        upper = {(i, j): Fraction(10) ** draw(_EXTREME_ENTRY_EXPONENTS)
                 for i in range(1, 5) for j in range(i + 1, 5)}
        return pcm_from_upper(4, upper), [
            math.ldexp(draw(st.floats(1.0, 2.0, exclude_max=True)), draw(_EXTREME_WEIGHT_EXPONENTS))
            for _ in range(4)
        ]
    pcm = generate_with_rng(random.Random(draw(st.integers(0, 2**32 - 1))),
                            draw(st.sampled_from(list(PerturbTag))))
    if draw(st.booleans()):
        return pcm, draw(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    tet = tetrahedron_for_cycle(pcm, draw(st.sampled_from(CANONICAL_CYCLES)))
    mix = draw(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4)
               .filter(lambda m: max(m) >= 0.01))
    return pcm, [
        sum(m * float(v.components[i]) for m, v in zip(mix, tet.vertices)) for i in range(4)
    ]


class TestFloatPath:
    @settings(max_examples=200, deadline=None)
    @given(_matrix_and_float_weights())
    def test_off_band_float_vector_agrees_with_its_exact_twin(self, case):
        pcm, floats = case
        exact = [Fraction(f) for f in floats]
        band = 2 * Fraction(DEFAULT_EQUALITY_BAND)  # twice the band: clear of its edge
        for i in range(4):
            for j in range(4):
                if i != j:
                    a = pcm.entries[i][j]
                    assume(abs(exact[i] / exact[j] - a) > band * a)
        assert is_efficient(pcm, weight_vector(floats)) == is_efficient(pcm, weight_vector(exact))


class TestDominance:
    def test_known_dominator(self, running_example):
        w_new = weight_vector([Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5)])
        verdict = dominates(running_example, w_new, UNIFORM)
        assert verdict.dominates
        assert verdict.strict_pair == (1, 3)

    def test_self_and_scaled_never_dominate(self, running_example):
        assert not dominates(running_example, UNIFORM, UNIFORM).dominates
        larger = scaled(UNIFORM, Fraction(7, 2))
        assert not dominates(running_example, larger, UNIFORM).dominates

    def test_dimension_mismatch(self, running_example):
        with pytest.raises(DimensionMismatchError):
            dominates(running_example, weight_vector([1, 1, 1]), UNIFORM)


class TestDominatorSampler:
    def test_finds_dominator_for_uniform(self, running_example):
        found = find_dominator_sample(running_example, UNIFORM, trials=10_000, seed=7)
        assert found is not None
        assert dominates(running_example, found, UNIFORM).dominates

    def test_efficient_vertex_has_no_dominator(self, running_example):
        vertex = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        assert find_dominator_sample(running_example, vertex, trials=10_000, seed=3) is None

    def test_consistent_weights_have_no_dominator(self, consistent_example):
        from effpcm.pcm import consistent_weights
        w = consistent_weights(consistent_example)
        assert find_dominator_sample(consistent_example, w, trials=2_000, seed=5) is None

    def test_deterministic(self, running_example):
        a = find_dominator_sample(running_example, UNIFORM, trials=500, seed=11)
        b = find_dominator_sample(running_example, UNIFORM, trials=500, seed=11)
        assert a == b

    def test_one_sided_completeness_at_desk_scale(self):
        # statistical check: on inefficient inputs the sampler finds a
        # dominator in at least 99% of 1000 cases within 1e5 trials
        rng = random.Random(99)
        tags = ["triple", "double-triad", "double-one-cycle",
                "double-two-cycles", "simple", "consistent"]
        cases = 0
        successes = 0
        k = 0
        while cases < 1000:
            pcm = generate_with_rng(rng, tags[k % 6])
            w = random_exact_weights(rng)
            k += 1
            if is_efficient(pcm, w):
                continue
            cases += 1
            found = find_dominator_sample(pcm, w, trials=100_000, seed=k)
            if found is not None:
                assert dominates(pcm, found, w).dominates
                successes += 1
        assert successes >= 990, f"only {successes}/1000 searches succeeded"


def _float_sites(source: str) -> list[tuple[str, int]]:
    """(kind, line) of each true division, ``float`` name and float constant in source."""
    sites = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            sites.append(("/", node.lineno))
        elif isinstance(node, ast.Name) and node.id == "float":
            sites.append(("float", node.lineno))
        elif isinstance(node, ast.Constant) and type(node.value) is float:
            sites.append(("constant", node.lineno))
    return sorted(sites, key=lambda site: (site[1], site[0]))


def test_efficiency_decides_with_no_float():
    """The module that decides the digraph verdict divides nothing and names no float:
    every pair is signed, and both closures run, on integers."""
    source = Path(effpcm.efficiency.__file__).read_text(encoding="utf-8")
    assert _float_sites(source) == []


def test_the_float_guard_sees_each_kind():
    source = ('"""w_i/w_j is text"""\n'
              "a = x // y\n"
              "b = x / y\n"
              "b /= 2\n"
              "c = float(b)\n"
              "d: float = 1e-9\n"
              "e = 3 * 0.5\n")
    assert _float_sites(source) == [("/", 3), ("/", 4), ("float", 5), ("constant", 6),
                                    ("float", 6), ("constant", 7)]
