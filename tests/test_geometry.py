"""Cycle orientations, rearrangements, tetrahedra, regions, classification,
coincidence structure, and the 3-simplex embedding."""

import itertools
import random
from fractions import Fraction

import pytest
from effpcm.errors import (
    ConsistentTriadPresentError,
    NotNormalizedError,
    UnsupportedDimensionError,
)
from effpcm.pcm import (
    CANONICAL_CYCLES,
    Permutation,
    apply_permutation,
    consistent_triads,
    consistent_weights,
    cycle_product,
    parse_pcm,
    permute_weights,
    triad_product,
    weight_vector,
)
from effpcm.efficiency import bcc_digraph, is_efficient
from effpcm.generators import _candidate, generate_with_rng, random_exact_weights
from effpcm.geometry import (
    Direction,
    PerturbTag,
    affine_rank,
    barycentric,
    canonical_rearrangement,
    classify,
    contains_cycle_region,
    cutting_planes,
    cycle_orientation,
    efficient_set,
    embed,
    is_efficient_geometric,
    plane_clip_polygon,
    tetrahedron_for_cycle,
    triad_rearrangement,
)
from effpcm.trees import paths_of_cycle
from conftest import flip_family
from oracles import canonical_rearrangement_search, triad_rearrangement_search

ALL_TAGS = ["triple", "double-triad", "double-one-cycle",
            "double-two-cycles", "simple", "consistent"]

UNIFORM = weight_vector([Fraction(1, 4)] * 4)

# embedded tetrahedron vertices of the running example, in path order per cycle
RUNNING_EMBEDS = {
    (1, 2, 3, 4): [
        (0.5, 0.375, 0.375),
        (0.851851852, 0.814814815, 0.111111111),
        (0.913043478, 0.47826087, 0.47826087),
        (0.756756757, 0.567567568, 0.567567568),
    ],
    (1, 4, 2, 3): [
        (0.75, 0.55, 0.6),
        (0.848484848, 0.727272727, 0.363636364),
        (0.803278689, 0.68852459, 0.344262295),
        (0.862068966, 0.482758621, 0.540229885),
    ],
    (1, 3, 4, 2): [
        (0.878787879, 0.181818182, 0.757575758),
        (0.923076923, 0.480769231, 0.480769231),
        (0.860215054, 0.516129032, 0.516129032),
        (0.714285714, 0.428571429, 0.428571429),
    ],
}

SHARED_POINT = (Fraction(35, 61), Fraction(14, 61), Fraction(7, 61), Fraction(5, 61))


def transpose(pcm):
    return parse_pcm([[str(pcm.entry(i, j)) for i in range(1, 5)] for j in range(1, 5)])


class TestCycleOrientation:
    def test_running_all_forward(self, running_example):
        for cycle in CANONICAL_CYCLES:
            orientation = cycle_orientation(running_example, cycle)
            assert orientation.direction is Direction.FORWARD
            assert orientation.directed == cycle

    def test_flip_family(self):
        low = cycle_orientation(flip_family(4), (1, 4, 2, 3))
        mid = cycle_orientation(flip_family(6), (1, 4, 2, 3))
        high = cycle_orientation(flip_family(8), (1, 4, 2, 3))
        assert low.direction is Direction.FORWARD
        assert mid.direction is Direction.CONSISTENT_BOTH
        assert high.direction is Direction.BACKWARD
        assert high.directed == (1, 3, 2, 4)

    def test_other_cycles_unchanged_by_flip(self):
        for a14 in (4, 6, 8):
            pcm = flip_family(a14)
            assert cycle_orientation(pcm, (1, 2, 3, 4)).direction is Direction.FORWARD
            assert cycle_orientation(pcm, (1, 3, 4, 2)).direction is Direction.FORWARD

    def test_requires_n4(self):
        with pytest.raises(UnsupportedDimensionError):
            cycle_orientation(parse_pcm([["1", "2"], ["1/2", "1"]]), (1, 2, 3, 4))


class TestCanonicalRearrangement:
    def test_running_is_fixed_point(self, running_example):
        perm, rearranged = canonical_rearrangement(running_example)
        assert perm.mapping == (1, 2, 3, 4)
        assert rearranged == running_example

    def test_all_products_above_one(self, running_example):
        flipped = transpose(running_example)
        for cycle in CANONICAL_CYCLES:
            assert cycle_product(flipped, cycle) > 1
        perm, rearranged = canonical_rearrangement(flipped)
        assert perm.mapping == (1, 2, 4, 3)
        for cycle in CANONICAL_CYCLES:
            assert cycle_product(rearranged, cycle) < 1

    def test_soundness_and_idempotence_fuzz(self):
        rng = random.Random(31)
        for k in range(600):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            perm, rearranged = canonical_rearrangement(pcm)
            assert apply_permutation(pcm, perm) == rearranged
            for cycle in CANONICAL_CYCLES:
                product = cycle_product(rearranged, cycle)
                assert product <= 1
                assert (product == 1) == (cycle_product(pcm, _image_cycle(perm, cycle)) == 1)
            again, _ = canonical_rearrangement(rearranged)
            assert again.mapping == (1, 2, 3, 4)

    def test_exactly_three_valid_reindexings_without_consistent_cycles(self):
        rng = random.Random(13)
        for _ in range(100):
            pcm = generate_with_rng(rng, "triple")
            valid = [
                mapping
                for mapping in itertools.permutations((1, 2, 3, 4))
                if all(
                    cycle_product(apply_permutation(pcm, Permutation(mapping)), c) < 1
                    for c in CANONICAL_CYCLES
                )
            ]
            assert len(valid) == 3


def _image_cycle(perm, cycle):
    """The vertex cycle of the original matrix that a rearranged cycle maps onto."""
    image = tuple(perm(v) for v in cycle)
    # normalize to a closed-walk representative over the original labels
    return image


class TestTriadRearrangement:
    def test_all_less_is_case_one_identity(self):
        pcm = flip_family(4)
        perm, rearranged, case = triad_rearrangement(pcm)
        assert (perm.mapping, case) == ((1, 2, 3, 4), 1)
        assert rearranged == pcm

    def test_single_reversed_triad_gives_case_two(self):
        pcm = flip_family(4)
        upper = pcm.upper_entries()
        upper[(1, 3)] = Fraction(1, 2)  # makes exactly the (1,2,3) relation '>'
        from effpcm.pcm import pcm_from_upper
        pcm = pcm_from_upper(4, upper)
        signs = [
            triad_product(pcm, (1, 2, 3)) > 1,
            triad_product(pcm, (2, 3, 4)) > 1,
            triad_product(pcm, (1, 3, 4)) > 1,
            triad_product(pcm, (1, 2, 4)) > 1,
        ]
        assert sum(signs) == 1
        perm, rearranged, case = triad_rearrangement(pcm)
        assert case == 2
        assert triad_product(rearranged, (1, 2, 3)) < 1
        assert triad_product(rearranged, (2, 3, 4)) < 1
        assert triad_product(rearranged, (1, 3, 4)) < 1
        assert triad_product(rearranged, (1, 2, 4)) > 1

    def test_case_tag_idempotent(self):
        rng = random.Random(17)
        for _ in range(60):
            pcm = generate_with_rng(rng, "triple")
            _, rearranged, case = triad_rearrangement(pcm)
            _, _, case_again = triad_rearrangement(rearranged)
            assert case_again == case

    def test_rejects_consistent_triads(self, double_triad_example):
        with pytest.raises(ConsistentTriadPresentError):
            triad_rearrangement(double_triad_example)


class TestRearrangementsMatchSearch:
    """Both rearrangements return exactly what the 24-matrix search returns."""

    @staticmethod
    def _check(pcm):
        assert canonical_rearrangement(pcm) == canonical_rearrangement_search(pcm)
        if consistent_triads(pcm):
            with pytest.raises(ConsistentTriadPresentError):
                triad_rearrangement(pcm)
        else:
            assert triad_rearrangement(pcm) == triad_rearrangement_search(pcm)

    def test_generated_matrices(self):
        rng = random.Random(79)
        for k in range(2000):
            self._check(generate_with_rng(rng, ALL_TAGS[k % 6]))

    def test_every_relabelling_of_the_reference_matrices(
        self, running_example, double_triad_example, double_one_cycle_example,
        double_two_cycles_example, simple_example, consistent_example,
    ):
        for pcm in (running_example, double_triad_example, double_one_cycle_example,
                    double_two_cycles_example, simple_example, consistent_example):
            for mapping in itertools.permutations((1, 2, 3, 4)):
                self._check(apply_permutation(pcm, Permutation(mapping)))


class TestTetrahedra:
    def test_running_vertices_match_reference_embeddings(self, running_example):
        all_vertices = set()
        for cycle, expected_points in RUNNING_EMBEDS.items():
            tet = tetrahedron_for_cycle(running_example, cycle)
            assert tet.degenerate_rank == 3
            for vertex, want in zip(tet.vertices, expected_points):
                got = embed(vertex)
                assert got == pytest.approx(want, abs=1e-6)
                all_vertices.add(vertex.components)
        assert len(all_vertices) == 12

    def test_vertices_follow_path_order(self, running_example):
        from effpcm.trees import tree_weight_vector
        for cycle in CANONICAL_CYCLES:
            tet = tetrahedron_for_cycle(running_example, cycle)
            for vertex, path in zip(tet.vertices, paths_of_cycle(cycle)):
                assert vertex == tree_weight_vector(running_example, path)

    def test_point_tetrahedron_of_consistent_cycle(self, double_one_cycle_example):
        tet = tetrahedron_for_cycle(double_one_cycle_example, (1, 4, 2, 3))
        assert tet.degenerate_rank == 0
        assert all(v.components == SHARED_POINT for v in tet.vertices)

    def test_consistent_matrix_all_points(self, consistent_example):
        expected = consistent_weights(consistent_example)
        for cycle in CANONICAL_CYCLES:
            tet = tetrahedron_for_cycle(consistent_example, cycle)
            assert tet.degenerate_rank == 0
            assert tet.vertices[0] == expected

    def test_rank_law_fuzz(self):
        rng = random.Random(23)
        for k in range(300):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            for cycle in CANONICAL_CYCLES:
                tet = tetrahedron_for_cycle(pcm, cycle)
                consistent = cycle_product(pcm, cycle) == 1
                assert (tet.degenerate_rank == 0) == consistent
                assert tet.degenerate_rank in (0, 3)


class TestRegions:
    def test_vertex_inside_own_region(self, running_example):
        w = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        orientation = cycle_orientation(running_example, (1, 2, 3, 4))
        assert contains_cycle_region(running_example, orientation, w)

    def test_uniform_outside_all_regions(self, running_example):
        for cycle in CANONICAL_CYCLES:
            orientation = cycle_orientation(running_example, cycle)
            assert not contains_cycle_region(running_example, orientation, UNIFORM)
        assert not is_efficient_geometric(running_example, UNIFORM)

    def test_every_tetrahedron_vertex_in_own_region(self, running_example):
        for cycle in CANONICAL_CYCLES:
            tet = tetrahedron_for_cycle(running_example, cycle)
            for vertex in tet.vertices:
                assert contains_cycle_region(running_example, tet.orientation, vertex)

    def test_known_efficient_vertex(self, running_example):
        w = weight_vector([Fraction(7, 20), Fraction(2, 5), Fraction(1, 5), Fraction(1, 20)])
        assert is_efficient_geometric(running_example, w)

    def test_consistent_region_is_single_point(self, double_one_cycle_example):
        orientation = cycle_orientation(double_one_cycle_example, (1, 4, 2, 3))
        assert orientation.direction is Direction.CONSISTENT_BOTH
        point = weight_vector(list(SHARED_POINT))
        assert contains_cycle_region(double_one_cycle_example, orientation, point)
        assert not contains_cycle_region(double_one_cycle_example, orientation, UNIFORM)

    def test_float_vectors_use_band(self, running_example):
        w = weight_vector([0.25, 0.25, 0.125, 0.375])
        orientation = cycle_orientation(running_example, (1, 2, 3, 4))
        assert contains_cycle_region(running_example, orientation, w)


def _inside_samples(rng, tet, count):
    """Exact points inside a tetrahedron: random convex combinations, plus
    boundary points with some zero coefficients."""
    samples = []
    for _ in range(count):
        lams = [Fraction(rng.randint(0, 12)) for _ in range(4)]
        if sum(lams) == 0:
            lams[rng.randrange(4)] = Fraction(1)
        total = sum(lams)
        lams = [l / total for l in lams]
        components = [
            sum(lams[k] * tet.vertices[k].components[i] for k in range(4))
            for i in range(4)
        ]
        samples.append(weight_vector(components))
    return samples


def _jittered(rng, w):
    """Multiply one component by a factor close to 1 (exact)."""
    factor = 1 + Fraction(rng.choice([-1, 1]), rng.randint(500, 5000))
    components = list(w.components)
    idx = rng.randrange(4)
    components[idx] = components[idx] * factor
    return weight_vector(components).normalized()


class TestOracleEquivalence:
    def test_geometric_matches_digraph_fuzz(self):
        rng = random.Random(47)
        comparisons = 0
        for k in range(2000):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            tet = tetrahedron_for_cycle(pcm, CANONICAL_CYCLES[k % 3])
            samples = [random_exact_weights(rng)]
            inside = _inside_samples(rng, tet, 2)
            samples += inside
            samples += [_jittered(rng, inside[0]), _jittered(rng, inside[1])]
            for w in samples:
                assert is_efficient(pcm, w) == is_efficient_geometric(pcm, w)
                comparisons += 1
        assert comparisons == 10_000

    def test_orientation_soundness(self):
        # any efficient vector's digraph carries at least one canonical cycle
        # in its computed orientation
        rng = random.Random(53)
        for k in range(300):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            tet = tetrahedron_for_cycle(pcm, CANONICAL_CYCLES[k % 3])
            for w in _inside_samples(rng, tet, 2):
                assert is_efficient(pcm, w)
                g = bcc_digraph(pcm, w)
                found = False
                for cycle in CANONICAL_CYCLES:
                    listing = cycle_orientation(pcm, cycle).directed
                    arcs = list(zip(listing, listing[1:] + listing[:1]))
                    if all(g.has_arc(a, b) for a, b in arcs):
                        found = True
                assert found


class TestBarycentric:
    def test_vertex_and_centroid(self, running_example):
        tet = tetrahedron_for_cycle(running_example, (1, 2, 3, 4))
        assert barycentric(tet, tet.vertices[0]) == (1, 0, 0, 0)
        centroid = weight_vector([
            sum(v.components[i] for v in tet.vertices) / 4 for i in range(4)
        ])
        assert barycentric(tet, centroid) == (Fraction(1, 4),) * 4

    def test_uniform_not_in_first_tetrahedron(self, running_example):
        tet = tetrahedron_for_cycle(running_example, (1, 2, 3, 4))
        assert barycentric(tet, UNIFORM) is None

    def test_requires_normalized(self, running_example):
        tet = tetrahedron_for_cycle(running_example, (1, 2, 3, 4))
        with pytest.raises(NotNormalizedError):
            barycentric(tet, weight_vector([1, 1, 1, 1]))

    def test_point_tetrahedron_membership(self, double_one_cycle_example):
        tet = tetrahedron_for_cycle(double_one_cycle_example, (1, 4, 2, 3))
        lams = barycentric(tet, weight_vector(list(SHARED_POINT)))
        assert lams is not None and sum(lams) == 1
        assert barycentric(tet, UNIFORM) is None

    def test_region_iff_barycentric_fuzz(self):
        rng = random.Random(59)
        for k in range(500):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            cycle = CANONICAL_CYCLES[k % 3]
            tet = tetrahedron_for_cycle(pcm, cycle)
            samples = [random_exact_weights(rng)]
            samples += _inside_samples(rng, tet, 2)
            samples.append(_jittered(rng, samples[1]))
            for w in samples:
                in_region = contains_cycle_region(pcm, tet.orientation, w)
                lams = barycentric(tet, w.normalized())
                assert in_region == (lams is not None)
                if lams is not None:
                    assert sum(lams) == 1
                    assert all(l >= 0 for l in lams)


class TestClassify:
    def test_reference_matrices(self, running_example, double_triad_example,
                                double_one_cycle_example, double_two_cycles_example,
                                simple_example, consistent_example):
        expectations = [
            (running_example, PerturbTag.TRIPLE, 0, 0),
            (double_triad_example, PerturbTag.DOUBLE_TRIAD, 1, 0),
            (double_one_cycle_example, PerturbTag.DOUBLE_ONE_CYCLE, 0, 1),
            (double_two_cycles_example, PerturbTag.DOUBLE_TWO_CYCLES, 0, 2),
            (simple_example, PerturbTag.SIMPLE, 2, 1),
            (consistent_example, PerturbTag.CONSISTENT, 4, 3),
        ]
        for pcm, tag, triads, cycles in expectations:
            cls = classify(pcm)
            assert cls.tag is tag
            assert (cls.consistent_triad_count, cls.consistent_cycle_count) == (triads, cycles)

    def test_requires_n4(self):
        with pytest.raises(UnsupportedDimensionError):
            classify(parse_pcm([["1", "2"], ["1/2", "1"]]))

    def test_classification_totality_fuzz(self):
        # classify must never see an inadmissible count pair, even on raw
        # generator candidates that miss their target class
        rng = random.Random(61)
        tags = [PerturbTag(t) for t in ALL_TAGS]
        for k in range(100_000):
            pcm = _candidate(rng, tags[k % 6])
            classify(pcm)


def _cycle_edges(cycle):
    return frozenset(
        (min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )


def _predicted_structural_pairs(cycle_a, cycle_b):
    """Combinatorial oracle: which edges must be collinear and which faces
    coplanar, from the trees' shared entries with the other cycle."""
    edges_a, edges_b = _cycle_edges(cycle_a), _cycle_edges(cycle_b)
    common = edges_a & edges_b
    trees_a = [p.tree().edges for p in paths_of_cycle(cycle_a)]
    trees_b = [p.tree().edges for p in paths_of_cycle(cycle_b)]
    edge_a = tuple(i + 1 for i, t in enumerate(trees_a) if common <= t)
    edge_b = tuple(i + 1 for i, t in enumerate(trees_b) if common <= t)
    faces = []
    for element in sorted(common):
        face_a = tuple(i + 1 for i, t in enumerate(trees_a) if element in t)
        face_b = tuple(i + 1 for i, t in enumerate(trees_b) if element in t)
        faces.append((face_a, face_b))
    return (edge_a, edge_b), faces


class TestCoincidences:
    def test_triple_class_pattern(self, running_example):
        report = efficient_set(running_example).coincidences
        assert report.shared_vertices == ()
        assert report.point_tetrahedra == ()
        for cycle_a, cycle_b in itertools.combinations(CANONICAL_CYCLES, 2):
            collinear = [
                pair for pair in report.collinear_edge_pairs
                if (pair[0][0], pair[1][0]) == (cycle_a, cycle_b)
            ]
            coplanar = [
                pair for pair in report.coplanar_face_pairs
                if (pair[0][0], pair[1][0]) == (cycle_a, cycle_b)
            ]
            assert len(collinear) >= 1
            assert len(coplanar) >= 2
            (edge_a, edge_b), faces = _predicted_structural_pairs(cycle_a, cycle_b)
            assert ((cycle_a, edge_a), (cycle_b, edge_b)) in collinear
            for face_a, face_b in faces:
                assert ((cycle_a, face_a), (cycle_b, face_b)) in coplanar

    def test_double_triad_shares_one_vertex_per_pair(self, double_triad_example):
        report = efficient_set(double_triad_example).coincidences
        assert report.point_tetrahedra == ()
        for cycle_a, cycle_b in itertools.combinations(CANONICAL_CYCLES, 2):
            assert report.shared_points(cycle_a, cycle_b) == 1

    def test_double_triad_frozen_shared_points(self, double_triad_example):
        effset = efficient_set(double_triad_example)
        points = {
            frozenset({(1, 2, 3, 4), (1, 4, 2, 3)}): SHARED_POINT,
            frozenset({(1, 2, 3, 4), (1, 3, 4, 2)}):
                (Fraction(5, 11), Fraction(2, 11), Fraction(1, 11), Fraction(3, 11)),
            frozenset({(1, 4, 2, 3), (1, 3, 4, 2)}):
                (Fraction(20, 33), Fraction(8, 33), Fraction(4, 33), Fraction(1, 33)),
        }
        for (ca, ia, cb, ib) in effset.coincidences.shared_vertices:
            expected = points[frozenset({ca, cb})]
            assert effset.tetrahedron(ca).vertices[ia - 1].components == expected
            assert effset.tetrahedron(cb).vertices[ib - 1].components == expected

    def test_double_one_cycle_pattern(self, double_one_cycle_example):
        report = efficient_set(double_one_cycle_example).coincidences
        assert report.point_tetrahedra == ((1, 4, 2, 3),)
        assert report.shared_vertices == ()

    def test_double_two_cycles_pattern(self, double_two_cycles_example):
        effset = efficient_set(double_two_cycles_example)
        report = effset.coincidences
        assert report.point_tetrahedra == ((1, 4, 2, 3), (1, 3, 4, 2))
        assert report.shared_vertices == ()
        first = effset.tetrahedron((1, 4, 2, 3)).vertices[0].components
        second = effset.tetrahedron((1, 3, 4, 2)).vertices[0].components
        assert first == SHARED_POINT
        assert first != second
        assert second == (
            Fraction(70, 179), Fraction(70, 179), Fraction(14, 179), Fraction(25, 179),
        )

    def test_simple_pattern(self, simple_example):
        effset = efficient_set(simple_example)
        report = effset.coincidences
        assert report.point_tetrahedra == ((1, 4, 2, 3),)
        point = effset.tetrahedron((1, 4, 2, 3)).vertices[0].components
        assert point == SHARED_POINT
        for other in ((1, 2, 3, 4), (1, 3, 4, 2)):
            vertices = [v.components for v in effset.tetrahedron(other).vertices]
            assert point in vertices
        assert report.shared_points((1, 2, 3, 4), (1, 3, 4, 2)) == 3

    def test_consistent_pattern(self, consistent_example):
        effset = efficient_set(consistent_example)
        report = effset.coincidences
        assert report.point_tetrahedra == CANONICAL_CYCLES
        expected = consistent_weights(consistent_example)
        for tet in effset.tetrahedra:
            assert tet.vertices[0] == expected

    def test_randomized_class_patterns(self):
        rng = random.Random(67)
        for k in range(150):
            tag = PerturbTag(ALL_TAGS[k % 6])
            pcm = generate_with_rng(rng, tag)
            effset = efficient_set(pcm)
            report = effset.coincidences
            points = report.point_tetrahedra
            if tag is PerturbTag.TRIPLE:
                assert points == () and report.shared_vertices == ()
            elif tag is PerturbTag.DOUBLE_TRIAD:
                assert points == ()
                for pair in itertools.combinations(CANONICAL_CYCLES, 2):
                    assert report.shared_points(*pair) == 1
            elif tag is PerturbTag.DOUBLE_ONE_CYCLE:
                assert len(points) == 1 and report.shared_vertices == ()
            elif tag is PerturbTag.DOUBLE_TWO_CYCLES:
                assert len(points) == 2 and report.shared_vertices == ()
            elif tag is PerturbTag.SIMPLE:
                assert len(points) == 1
                others = [c for c in CANONICAL_CYCLES if c != points[0]]
                point = effset.tetrahedron(points[0]).vertices[0].components
                for other in others:
                    assert point in [v.components for v in effset.tetrahedron(other).vertices]
                assert report.shared_points(others[0], others[1]) == 3
            else:
                assert points == CANONICAL_CYCLES


class TestEfficientSetEquivariance:
    def test_vertices_permute_with_matrix(self):
        rng = random.Random(71)
        mappings = list(itertools.permutations((1, 2, 3, 4)))
        for k in range(120):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            perm = Permutation(rng.choice(mappings))
            original = sorted(
                permute_weights(v, perm).components
                for tet in efficient_set(pcm).tetrahedra for v in tet.vertices
            )
            permuted = sorted(
                v.components
                for tet in efficient_set(apply_permutation(pcm, perm)).tetrahedra
                for v in tet.vertices
            )
            assert original == permuted


class TestEmbedding:
    def test_simplex_corner(self):
        assert embed((1, 0, 0, 0)) == (1.0, 1.0, 0.0)

    def test_uniform_center(self):
        assert embed(UNIFORM) == (0.5, 0.5, 0.5)

    def test_tree_vertex(self):
        w = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        assert embed(w) == (0.5, 0.375, 0.375)

    def test_requires_normalized(self):
        with pytest.raises(NotNormalizedError):
            embed((1, 1, 0, 0))


class TestCuttingPlanes:
    def test_running_plane_values(self, running_example):
        planes = cutting_planes(running_example)
        assert len(planes) == 6
        assert planes[0].pair == (1, 2) and planes[0].value == 1

    def test_split_point_ratio(self):
        from effpcm.pcm import pcm_from_upper
        pcm = pcm_from_upper(4, {(1, 2): 2, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 1, (3, 4): 1})
        plane = cutting_planes(pcm)[0]
        polygon = plane_clip_polygon(plane)
        assert polygon[0] == (Fraction(2, 3), Fraction(1, 3), 0, 0)
        assert embed(polygon[0]) == (1.0, pytest.approx(2 / 3), pytest.approx(1 / 3))
        # the other two vertices are the opposite simplex corners
        assert polygon[1] == (0, 0, 1, 0)
        assert polygon[2] == (0, 0, 0, 1)

    def test_all_ones_planes_hit_edge_midpoints(self):
        pcm = parse_pcm([["1"] * 4] * 4)
        for plane in cutting_planes(pcm):
            split = plane_clip_polygon(plane)[0]
            i, j = plane.pair
            assert split[i - 1] == Fraction(1, 2) and split[j - 1] == Fraction(1, 2)


class TestAffineRank:
    def test_basic_ranks(self):
        p = [Fraction(0)] * 4
        q = list(p); q[0] = Fraction(1)
        r = list(p); r[1] = Fraction(1)
        assert affine_rank([tuple(p)]) == 0
        assert affine_rank([tuple(p), tuple(p)]) == 0
        assert affine_rank([tuple(p), tuple(q)]) == 1
        assert affine_rank([tuple(p), tuple(q), tuple(r)]) == 2
        mid = tuple((a + b) / 2 for a, b in zip(p, q))
        assert affine_rank([tuple(p), tuple(q), mid]) == 1
