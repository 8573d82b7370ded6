"""Spanning-tree enumeration and tree-induced weight vectors."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from effpcm.errors import NotACanonicalCycleError
from effpcm.pcm import CANONICAL_CYCLES, consistent_weights, pcm_from_upper
from effpcm.efficiency import is_efficient
from effpcm.generators import generate_with_rng
from effpcm.geometry import embed, is_efficient_geometric
from effpcm.trees import SpanningTree, paths_of_cycle, tree_weight_vector
from oracles import (
    DimensionTooLargeError,
    entry,
    enumerate_labeled_paths,
    enumerate_spanning_trees,
    path_tree,
    ratio,
    restrict,
    tree_degrees,
    tree_weight_vector_by_fractions,
    vector_of,
)

# Saaty-scale values, 15-digit decimals up to 10, and entries past the float range
_ENTRIES = st.one_of(
    st.sampled_from([Fraction(k) for k in range(1, 10)] + [Fraction(1, k) for k in range(2, 10)]),
    st.integers(1, 10**16).map(lambda k: Fraction(k, 10**15)),
    st.sampled_from([Fraction(10**400), Fraction(1, 10**400), Fraction(10**400 + 1, 10**399)]),
)


@st.composite
def _matrix_and_tree(draw):
    """A random n x n matrix, n = 2..8, and a random path or spanning tree on it."""
    n = draw(st.integers(2, 8))
    upper = {(i, j): draw(_ENTRIES) for i in range(1, n + 1) for j in range(i + 1, n + 1)}
    order = draw(st.permutations(range(1, n + 1)))
    if draw(st.booleans()):
        tree = path_tree(order)
    else:  # each later vertex hangs off an earlier one
        edges = {tuple(sorted((order[k], order[draw(st.integers(0, k - 1))]))) for k in range(1, n)}
        tree = SpanningTree(n, frozenset(edges))
    return pcm_from_upper(n, upper), tree


class TestEnumeration:
    @pytest.mark.parametrize("n,count", [(2, 1), (3, 3), (4, 16), (5, 125), (6, 1296)])
    def test_cayley_counts(self, n, count):
        assert len(enumerate_spanning_trees(n)) == count

    def test_enumeration_caps(self):
        with pytest.raises(DimensionTooLargeError):
            enumerate_spanning_trees(7)
        with pytest.raises(DimensionTooLargeError):
            enumerate_spanning_trees(1)

    def test_deterministic_order(self):
        trees = enumerate_spanning_trees(4)
        assert trees == sorted(trees, key=lambda t: t.sorted_edges())
        assert len(set(trees)) == 16

    @pytest.mark.parametrize("n,count", [(3, 3), (4, 12)])
    def test_path_counts(self, n, count):
        paths = enumerate_labeled_paths(n)
        assert len(set(paths)) == len(paths) == count
        for path in paths:
            assert sorted(tree_degrees(path).values()) == [1, 1] + [2] * (n - 2)

    def test_paths_group_by_closing_cycle(self):
        # adding the endpoint edge to each path closes one of the three
        # undirected 4-cycles; each cycle collects exactly four paths
        groups = {}
        for path in enumerate_labeled_paths(4):
            ends = tuple(v for v, degree in tree_degrees(path).items() if degree == 1)
            closing = frozenset(path.edges | {ends})
            groups.setdefault(closing, []).append(path)
        assert len(groups) == 3
        assert all(len(g) == 4 for g in groups.values())

    @pytest.mark.parametrize("n,edges", [
        pytest.param(4, {(1, 2), (2, 3), (3, 5)}, id="out-of-range-vertex"),
        pytest.param(4, {(0, 1), (1, 2), (2, 3)}, id="vertex-zero"),
        pytest.param(4, {(1, 2), (3, 2), (3, 4)}, id="reversed-pair"),
        pytest.param(4, {(1, 2), (2, 3)}, id="n-minus-2-edges"),
        pytest.param(4, {(1, 2), (2, 3), (3, 4), (1, 4)}, id="n-edges"),
        pytest.param(4, {(1, 2), (2, 3), (1, 3)}, id="cycle-leaves-vertex-out"),
        pytest.param(5, {(1, 2), (3, 4), (4, 5), (3, 5)}, id="cycle-away-from-vertex-1"),
        pytest.param(4, {(2, 3), (3, 4), (2, 4)}, id="cycle-away-from-vertex-n"),
        pytest.param(3, {(1, 1), (2, 3)}, id="loop"),
        pytest.param(0, set(), id="no-vertices"),
    ])
    def test_rejects_non_trees(self, n, edges):
        with pytest.raises(ValueError, match=rf"not a spanning tree of 1\.\.{n}"):
            SpanningTree(n, frozenset(edges))

    def test_single_vertex_tree(self):
        assert tree_degrees(SpanningTree(1, frozenset())) == {1: 0}

    def test_stored_walk_leaves_the_record_as_it_was(self):
        edges = frozenset({(1, 2), (2, 3), (3, 4)})
        tree, twin = SpanningTree(4, edges), path_tree((4, 3, 2, 1))
        assert tree._order == ((4, 3), (3, 2), (2, 1))
        assert tree == twin and twin == tree
        assert hash(tree) == hash(twin)
        assert repr(tree) == f"SpanningTree(n=4, edges={edges!r})"


class TestPathsOfCycle:
    def test_rotations(self):
        assert paths_of_cycle((1, 2, 3, 4)) == [path_tree(s) for s in (
            (1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3))]
        assert paths_of_cycle((1, 4, 2, 3)) == [path_tree(s) for s in (
            (1, 4, 2, 3), (4, 2, 3, 1), (2, 3, 1, 4), (3, 1, 4, 2))]
        assert paths_of_cycle((1, 3, 4, 2)) == [path_tree(s) for s in (
            (1, 3, 4, 2), (3, 4, 2, 1), (4, 2, 1, 3), (2, 1, 3, 4))]

    def test_each_path_omits_one_cycle_edge(self):
        cycle = (1, 2, 3, 4)
        cycle_edges = {(1, 2), (2, 3), (3, 4), (1, 4)}
        omitted = []
        for tree in paths_of_cycle(cycle):
            missing = cycle_edges - tree.edges
            assert len(missing) == 1
            omitted.append(next(iter(missing)))
        assert set(omitted) == cycle_edges

    @pytest.mark.parametrize("cycle", CANONICAL_CYCLES)
    def test_kth_tree_omits_the_edge_into_the_kth_vertex(self, cycle):
        cycle_edges = {tuple(sorted(e)) for e in zip(cycle, cycle[1:] + cycle[:1])}
        for k, tree in enumerate(paths_of_cycle(cycle)):
            assert cycle_edges - tree.edges == {tuple(sorted((cycle[k - 1], cycle[k])))}

    def test_rejects_non_canonical(self):
        with pytest.raises(NotACanonicalCycleError):
            paths_of_cycle((1, 2, 4, 3))


class TestRestrict:
    def test_path_restriction(self, running_example):
        sub = restrict(running_example, path_tree((1, 2, 3, 4)))
        assert sub.entry(1, 2) == 1
        assert sub.entry(2, 3) == 2
        assert sub.entry(3, 4) == Fraction(1, 3)
        assert sub.entry(1, 3) is None
        assert sub.entry(1, 4) is None
        assert sub.entry(2, 1) == 1

    def test_star_restriction(self, running_example):
        star = SpanningTree(4, frozenset({(1, 2), (1, 3), (1, 4)}))
        sub = restrict(running_example, star)
        assert sub.entry(1, 4) == 7 and sub.entry(2, 3) is None

    def test_round_trip_to_representing_graph(self, running_example):
        for tree in enumerate_spanning_trees(4):
            assert restrict(running_example, tree).known_pairs() == tree.edges


class TestTreeWeights:
    def test_frozen_path_vectors(self, running_example):
        cases = {
            (1, 2, 3, 4): (Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)),
            (2, 3, 4, 1): (Fraction(7, 9), Fraction(2, 27), Fraction(1, 27), Fraction(1, 9)),
            (1, 4, 2, 3): (Fraction(7, 20), Fraction(2, 5), Fraction(1, 5), Fraction(1, 20)),
        }
        embeds = {
            (1, 2, 3, 4): (0.5, 0.375, 0.375),
            (2, 3, 4, 1): (0.851851852, 0.814814815, 0.111111111),
            (1, 4, 2, 3): (0.75, 0.55, 0.6),
        }
        for sequence, expected in cases.items():
            w = tree_weight_vector(running_example, path_tree(sequence))
            assert w.components == expected
            point = embed(w)
            for got, want in zip(point, embeds[sequence]):
                assert got == pytest.approx(want, abs=1e-6)

    def test_tree_edges_reproduced_exactly(self, running_example):
        for tree in enumerate_spanning_trees(4):
            w = tree_weight_vector(running_example, tree)
            for (i, j) in tree.edges:
                assert ratio(w, i, j) == entry(running_example, i, j)

    def test_tree_vectors_are_efficient_fuzz(self):
        # every spanning tree of every matrix induces an efficient vector
        rng = random.Random(5)
        tags = ["triple", "double-triad", "double-one-cycle",
                "double-two-cycles", "simple", "consistent"]
        trees = enumerate_spanning_trees(4)
        for k in range(120):
            pcm = generate_with_rng(rng, tags[k % 6])
            for tree in trees:
                w = tree_weight_vector(pcm, tree)
                assert is_efficient(pcm, w)
                for (i, j) in tree.edges:
                    assert ratio(w, i, j) == entry(pcm, i, j)

    def test_consistent_matrix_collapses_all_trees(self, consistent_example):
        expected = consistent_weights(consistent_example)
        for tree in enumerate_spanning_trees(4):
            assert tree_weight_vector(consistent_example, tree) == expected

    def test_star_vectors_inside_cycle_regions(self, running_example):
        star1 = SpanningTree(4, frozenset({(1, 2), (1, 3), (1, 4)}))
        w = tree_weight_vector(running_example, star1)
        assert w.components == (
            Fraction(35, 82), Fraction(35, 82), Fraction(7, 82), Fraction(5, 82),
        )
        assert is_efficient_geometric(running_example, w)
        rng = random.Random(6)
        stars = [t for t in enumerate_spanning_trees(4) if max(tree_degrees(t).values()) == 3]
        assert len(stars) == 4
        for k in range(100):
            pcm = generate_with_rng(rng, ["triple", "simple", "consistent"][k % 3])
            for star in stars:
                assert is_efficient_geometric(pcm, tree_weight_vector(pcm, star))

    @settings(max_examples=200, deadline=None)
    @given(_matrix_and_tree())
    def test_integer_chains_match_fraction_products(self, matrix_and_tree):
        pcm, tree = matrix_and_tree
        assert tree_weight_vector(pcm, tree) == tree_weight_vector_by_fractions(pcm, tree)

    @settings(max_examples=100, deadline=None)
    @given(_matrix_and_tree())
    # the second path tree of (1,2,3,4): its unreduced integers are (108, 72, 48, 32)
    @example((pcm_from_upper(4, {(1, 2): Fraction(3, 2), (2, 3): Fraction(3, 2),
                                 (3, 4): Fraction(3, 2), (1, 3): Fraction(9, 4),
                                 (2, 4): Fraction(9, 4), (1, 4): Fraction(27, 8)}),
              paths_of_cycle((1, 2, 3, 4))[1]))
    def test_the_integer_form_is_the_plain_vectors(self, matrix_and_tree):
        """A tree vector's integer form is that of the equal vector built plainly:
        its components over the product of their denominators, reduced by one gcd."""
        pcm, tree = matrix_and_tree
        w = tree_weight_vector(pcm, tree)
        assert w.integer_form == vector_of(w.components).integer_form
