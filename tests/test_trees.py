"""Spanning-tree enumeration and tree-induced weight vectors."""

import random
from fractions import Fraction

import pytest

from effpcm.errors import DimensionTooLargeError, NotACanonicalCycleError
from effpcm.pcm import consistent_weights
from effpcm.efficiency import is_efficient
from effpcm.generators import generate_with_rng
from effpcm.geometry import embed, is_efficient_geometric
from effpcm.trees import LabeledPath, SpanningTree, paths_of_cycle, tree_weight_vector
from oracles import enumerate_labeled_paths, enumerate_spanning_trees, restrict


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
        assert len(paths) == count
        for path in paths:
            assert path.sequence[0] < path.sequence[-1]
            assert max(path.tree().degrees().values()) <= 2

    def test_paths_group_by_closing_cycle(self):
        # adding the endpoint edge to each path closes one of the three
        # undirected 4-cycles; each cycle collects exactly four paths
        groups = {}
        for path in enumerate_labeled_paths(4):
            first, last = path.sequence[0], path.sequence[-1]
            closing = frozenset(path.tree().edges | {(min(first, last), max(first, last))})
            groups.setdefault(closing, []).append(path)
        assert len(groups) == 3
        assert all(len(g) == 4 for g in groups.values())


class TestPathsOfCycle:
    def test_rotations(self):
        assert [p.sequence for p in paths_of_cycle((1, 2, 3, 4))] == [
            (1, 2, 3, 4), (2, 3, 4, 1), (3, 4, 1, 2), (4, 1, 2, 3)]
        assert [p.sequence for p in paths_of_cycle((1, 4, 2, 3))] == [
            (1, 4, 2, 3), (4, 2, 3, 1), (2, 3, 1, 4), (3, 1, 4, 2)]
        assert [p.sequence for p in paths_of_cycle((1, 3, 4, 2))] == [
            (1, 3, 4, 2), (3, 4, 2, 1), (4, 2, 1, 3), (2, 1, 3, 4)]

    def test_each_path_omits_one_cycle_edge(self):
        cycle = (1, 2, 3, 4)
        cycle_edges = {(1, 2), (2, 3), (3, 4), (1, 4)}
        omitted = []
        for path in paths_of_cycle(cycle):
            missing = cycle_edges - path.tree().edges
            assert len(missing) == 1
            omitted.append(next(iter(missing)))
        assert set(omitted) == cycle_edges

    def test_rejects_non_canonical(self):
        with pytest.raises(NotACanonicalCycleError):
            paths_of_cycle((1, 2, 4, 3))


class TestRestrict:
    def test_path_restriction(self, running_example):
        sub = restrict(running_example, LabeledPath((1, 2, 3, 4)).tree())
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
            w = tree_weight_vector(running_example, LabeledPath(sequence))
            assert w.components == expected
            point = embed(w)
            for got, want in zip(point, embeds[sequence]):
                assert got == pytest.approx(want, abs=1e-6)

    def test_tree_edges_reproduced_exactly(self, running_example):
        for tree in enumerate_spanning_trees(4):
            w = tree_weight_vector(running_example, tree)
            for (i, j) in tree.edges:
                assert w.ratio(i, j) == running_example.entry(i, j)

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
                    assert w.ratio(i, j) == pcm.entry(i, j)

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
        stars = [t for t in enumerate_spanning_trees(4) if max(t.degrees().values()) == 3]
        assert len(stars) == 4
        for k in range(100):
            pcm = generate_with_rng(rng, ["triple", "simple", "consistent"][k % 3])
            for star in stars:
                assert is_efficient_geometric(pcm, tree_weight_vector(pcm, star))

    def test_accepts_path_or_tree(self, running_example):
        path = LabeledPath((1, 2, 3, 4))
        assert tree_weight_vector(running_example, path) \
            == tree_weight_vector(running_example, path.tree())
