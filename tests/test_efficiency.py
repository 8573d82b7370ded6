"""BCC digraph construction, strong connectivity, and Pareto dominance."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from effpcm.errors import DimensionMismatchError, DimensionTooLargeError
from effpcm.pcm import Permutation, apply_permutation, permute_weights, weight_vector
from effpcm.efficiency import BccDigraph, bcc_digraph, is_efficient, strongly_connected
from effpcm.generators import generate_with_rng, random_exact_weights
from oracles import dominates, find_dominator_sample, hamiltonian_cycle_exists
from test_pcm import positive_rationals, random_pcm4

UNIFORM = weight_vector([Fraction(1, 4)] * 4)

# arc set of the running example under uniform weights
EXPECTED_ARCS = frozenset({(1, 2), (2, 1), (3, 1), (3, 2), (4, 2), (3, 4), (4, 1)})


class TestBccDigraph:
    def test_running_uniform_matches_known_arcs(self, running_example):
        g = bcc_digraph(running_example, UNIFORM)
        assert g.arcs == EXPECTED_ARCS
        assert g.equality_pairs == frozenset({(1, 2)})

    def test_consistent_weights_give_complete_digraph(self, consistent_example):
        from effpcm.pcm import consistent_weights
        w = consistent_weights(consistent_example)
        g = bcc_digraph(consistent_example, w)
        assert len(g.arcs) == 12
        assert len(g.equality_pairs) == 6

    def test_tree_vertex_equalities(self, running_example):
        w = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        g = bcc_digraph(running_example, w)
        assert g.equality_pairs == frozenset({(1, 2), (2, 3), (3, 4)})
        assert g.has_arc(4, 1) and not g.has_arc(1, 4)

    def test_dimension_mismatch(self, running_example):
        with pytest.raises(DimensionMismatchError):
            bcc_digraph(running_example, weight_vector([1, 2, 3]))

    def test_float_band_recognizes_near_equality(self, running_example):
        w = weight_vector([0.25, 0.25 * (1 + 1e-12), 0.25, 0.25])
        g = bcc_digraph(running_example, w)
        assert (1, 2) in g.equality_pairs

    def test_band_override(self, running_example, monkeypatch):
        w = weight_vector([0.25, 0.25 * (1 + 1e-7), 0.25, 0.25])
        assert (1, 2) not in bcc_digraph(running_example, w).equality_pairs
        monkeypatch.setenv("EFFPCM_TOL", "1e-5")
        assert (1, 2) in bcc_digraph(running_example, w).equality_pairs

    @given(random_pcm4, st.tuples(*([st.integers(1, 500)] * 4)))
    def test_every_pair_has_an_arc(self, pcm, raw):
        w = weight_vector(list(raw))
        g = bcc_digraph(pcm, w)
        for i in range(1, 5):
            for j in range(i + 1, 5):
                assert (i, j) in g.arcs or (j, i) in g.arcs
                both = (i, j) in g.arcs and (j, i) in g.arcs
                assert both == ((i, j) in g.equality_pairs)


class TestStrongConnectivity:
    def test_running_uniform_is_not_strongly_connected(self, running_example):
        assert not strongly_connected(bcc_digraph(running_example, UNIFORM))

    def test_complete_bidirectional(self):
        arcs = frozenset((i, j) for i in range(1, 5) for j in range(1, 5) if i != j)
        g = BccDigraph(4, arcs, frozenset((i, j) for i in range(1, 5) for j in range(i + 1, 5)))
        assert strongly_connected(g)

    def test_single_directed_cycle(self):
        g = BccDigraph(4, frozenset({(1, 2), (2, 3), (3, 4), (4, 1)}), frozenset())
        assert strongly_connected(g)
        assert hamiltonian_cycle_exists(g)

    def test_hamiltonian_on_running_uniform(self, running_example):
        assert not hamiltonian_cycle_exists(bcc_digraph(running_example, UNIFORM))

    def test_hamiltonian_dimension_cap(self):
        g = BccDigraph(9, frozenset(), frozenset())
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
        assert is_efficient(pcm, w) == is_efficient(pcm, w.scaled(c))

    @given(random_pcm4, st.tuples(*([st.integers(1, 300)] * 4)),
           st.permutations([1, 2, 3, 4]))
    def test_permutation_equivariance(self, pcm, raw, mapping):
        w = weight_vector(list(raw))
        perm = Permutation(tuple(mapping))
        assert is_efficient(apply_permutation(pcm, perm), permute_weights(w, perm)) \
            == is_efficient(pcm, w)


class TestDominance:
    def test_known_dominator(self, running_example):
        w_new = weight_vector([Fraction(3, 10), Fraction(3, 10), Fraction(1, 5), Fraction(1, 5)])
        verdict = dominates(running_example, w_new, UNIFORM)
        assert verdict.dominates
        assert verdict.strict_pair == (1, 3)

    def test_self_and_scaled_never_dominate(self, running_example):
        assert not dominates(running_example, UNIFORM, UNIFORM).dominates
        scaled = UNIFORM.scaled(Fraction(7, 2))
        assert not dominates(running_example, scaled, UNIFORM).dominates

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
