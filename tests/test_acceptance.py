"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; tolerances and runtime budgets are asserted, not just reported.
"""

import itertools
import random
import time
from fractions import Fraction

from effpcm.pcm import (
    CANONICAL_CYCLES,
    Permutation,
    apply_permutation,
    consistent_weights,
    cycle_product,
    weight_vector,
)
from effpcm.efficiency import bcc_digraph, is_efficient, strongly_connected
from effpcm.generators import generate_with_rng, random_exact_weights
from effpcm.geometry import (
    Direction,
    PerturbTag,
    canonical_rearrangement,
    canonical_orientations,
    classify,
    efficient_set,
    embed,
    is_efficient_geometric,
    tetrahedron_for_cycle,
)
from effpcm.sampling import run_equivalence_trials
from effpcm.trees import tree_weight_vector
from conftest import flip_family
from oracles import (
    entry,
    enumerate_spanning_trees,
    permute_weights,
    ratio,
    scaled,
    tree_degrees,
)

ALL_TAGS = [tag.value for tag in PerturbTag]

UNIFORM = weight_vector([Fraction(1, 4)] * 4)

REFERENCE_ARCS = frozenset({(1, 2), (2, 1), (3, 1), (3, 2), (4, 2), (3, 4), (4, 1)})

REFERENCE_POINT = (Fraction(35, 61), Fraction(14, 61), Fraction(7, 61), Fraction(5, 61))

REFERENCE_EMBEDS = {
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


def _verdict(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_reference_digraph(running_example):
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        digraph = bcc_digraph(running_example, UNIFORM)
        efficient = strongly_connected(digraph)
        best = min(best, time.perf_counter() - start)
    assert digraph.arcs == REFERENCE_ARCS
    assert digraph.equality_pairs == frozenset({(1, 2)})
    assert efficient is False
    assert best < 1e-3, f"digraph verdict took {best * 1e3:.3f} ms"
    _verdict(1, f"digraph arcs and inefficiency verdict exact ({best * 1e6:.0f} us)")


def test_criterion_2_vertex_coordinates(running_example):
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        tetrahedra = [tetrahedron_for_cycle(running_example, c) for c in CANONICAL_CYCLES]
        points = [
            embed(v) for tet in tetrahedra for v in tet.vertices
        ]
        best = min(best, time.perf_counter() - start)
    for tet in tetrahedra:
        for vertex, want in zip(tet.vertices, REFERENCE_EMBEDS[tet.cycle]):
            got = embed(vertex)
            for g, w in zip(got, want):
                assert abs(g - w) < 1e-6
    highlighted = [
        (0.5, 0.375, 0.375),
        (0.851851852, 0.814814815, 0.111111111),
        (0.913043478, 0.47826087, 0.47826087),
        (0.75, 0.55, 0.6),
        (0.714285714, 0.428571429, 0.428571429),
    ]
    for want in highlighted:
        assert any(
            all(abs(g - w) < 1e-6 for g, w in zip(point, want)) for point in points
        )
    assert len(points) == 12
    assert best < 1e-2, f"vertex construction took {best * 1e3:.2f} ms"
    _verdict(2, f"all 12 embedded vertices match reference coordinates within 1e-6 ({best * 1e3:.2f} ms)")


def test_criterion_3_taxonomy(running_example, double_triad_example,
                              double_one_cycle_example, double_two_cycles_example,
                              simple_example, consistent_example):
    expectations = [
        (running_example, PerturbTag.TRIPLE),
        (double_triad_example, PerturbTag.DOUBLE_TRIAD),
        (double_one_cycle_example, PerturbTag.DOUBLE_ONE_CYCLE),
        (double_two_cycles_example, PerturbTag.DOUBLE_TWO_CYCLES),
        (simple_example, PerturbTag.SIMPLE),
        (consistent_example, PerturbTag.CONSISTENT),
    ]
    for pcm, tag in expectations:
        assert classify(pcm).tag is tag

    # triple: no shared structure beyond collinear edges / coplanar faces
    triple = efficient_set(running_example).coincidences
    assert triple.shared_vertices == () and triple.point_tetrahedra == ()
    for pair in itertools.combinations(CANONICAL_CYCLES, 2):
        assert sum(1 for p in triple.collinear_edge_pairs
                   if (p[0][0], p[1][0]) == pair) >= 1
        assert sum(1 for p in triple.coplanar_face_pairs
                   if (p[0][0], p[1][0]) == pair) >= 2

    # double, one consistent triad: one shared vertex per pair
    report = efficient_set(double_triad_example).coincidences
    assert report.point_tetrahedra == ()
    for pair in itertools.combinations(CANONICAL_CYCLES, 2):
        assert report.shared_points(*pair) == 1

    # double, one consistent cycle: a point tetrahedron at the reference point
    effset = efficient_set(double_one_cycle_example)
    assert effset.coincidences.point_tetrahedra == ((1, 4, 2, 3),)
    assert effset.coincidences.shared_vertices == ()
    assert effset.tetrahedron((1, 4, 2, 3)).vertices[0].components == REFERENCE_POINT

    # double, two consistent cycles: two distinct point tetrahedra
    effset = efficient_set(double_two_cycles_example)
    assert effset.coincidences.point_tetrahedra == ((1, 4, 2, 3), (1, 3, 4, 2))
    assert effset.coincidences.shared_vertices == ()
    assert effset.tetrahedron((1, 4, 2, 3)).vertices[0].components == REFERENCE_POINT

    # simple: the point tetrahedron is a vertex of both others, which share a face
    effset = efficient_set(simple_example)
    report = effset.coincidences
    assert report.point_tetrahedra == ((1, 4, 2, 3),)
    point = effset.tetrahedron((1, 4, 2, 3)).vertices[0].components
    assert point == REFERENCE_POINT
    for other in ((1, 2, 3, 4), (1, 3, 4, 2)):
        assert point in [v.components for v in effset.tetrahedron(other).vertices]
    assert report.shared_points((1, 2, 3, 4), (1, 3, 4, 2)) == 3

    # consistent: a single point carrying all three tetrahedra
    effset = efficient_set(consistent_example)
    assert effset.coincidences.point_tetrahedra == CANONICAL_CYCLES
    assert consistent_weights(consistent_example).components == REFERENCE_POINT
    for tet in effset.tetrahedra:
        assert tet.vertices[0].components == REFERENCE_POINT
    _verdict(3, "six reference matrices classify and share structure exactly as specified")


def test_criterion_4_orientation_flip():
    directions = [
        canonical_orientations(flip_family(a14))[1].direction  # the cycle (1, 4, 2, 3)
        for a14 in (4, 6, 8)
    ]
    assert directions == [
        Direction.FORWARD, Direction.CONSISTENT_BOTH, Direction.BACKWARD,
    ]
    _verdict(4, "single-entry sweep flips the cycle orientation forward/both/backward")


def test_criterion_5_oracle_equivalence():
    total_elapsed = 0.0
    total_disagreements = 0
    for offset, tag in enumerate(ALL_TAGS):
        report = run_equivalence_trials(seed=1000 + offset, trials=10_000, class_tag=tag)
        total_elapsed += report.elapsed
        total_disagreements += len(report.disagreements)
        assert report.agreements + len(report.disagreements) == 10_000
    assert total_disagreements == 0
    assert total_elapsed < 30.0, f"sampling took {total_elapsed:.1f} s"
    _verdict(5, f"60,000 trials across six classes, zero disagreements ({total_elapsed:.1f} s)")


def test_criterion_6_tree_vectors_at_scale():
    rng = random.Random(2000)
    trees = enumerate_spanning_trees(4)
    stars = [t for t in trees if max(tree_degrees(t).values()) == 3]
    start = time.perf_counter()
    for _ in range(1000):
        pcm = generate_with_rng(rng, "triple")
        for tree in trees:
            w = tree_weight_vector(pcm, tree)
            assert is_efficient(pcm, w)
            for (i, j) in tree.edges:
                assert ratio(w, i, j) == entry(pcm, i, j)
        for star in stars:
            assert is_efficient_geometric(pcm, tree_weight_vector(pcm, star))
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"tree sweep took {elapsed:.1f} s"
    _verdict(6, f"16,000 tree vectors efficient and exact on tree entries ({elapsed:.1f} s)")


def test_criterion_7_invariance_suite():
    rng = random.Random(3000)
    mappings = list(itertools.permutations((1, 2, 3, 4)))
    for k in range(1000):
        pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
        if k % 4 == 0:
            tree = enumerate_spanning_trees(4)[rng.randrange(16)]
            w = tree_weight_vector(pcm, tree)
        else:
            w = random_exact_weights(rng)
        c = Fraction(rng.randint(1, 100), rng.randint(1, 100))
        sigma = Permutation(rng.choice(mappings))
        verdict = is_efficient(pcm, w)
        assert is_efficient(pcm, scaled(w, c)) == verdict
        assert is_efficient(apply_permutation(pcm, sigma), permute_weights(w, sigma)) == verdict
    _verdict(7, "scaling invariance and permutation equivariance on 1000 exact tuples")


def test_criterion_8_rearrangement_soundness():
    rng = random.Random(4000)
    for k in range(10_000):
        pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
        consistent_before = sum(
            1 for cycle in CANONICAL_CYCLES if cycle_product(pcm, cycle) == 1
        )
        perm, rearranged = canonical_rearrangement(pcm)
        products = [cycle_product(rearranged, cycle) for cycle in CANONICAL_CYCLES]
        assert all(product <= 1 for product in products)
        assert sum(1 for product in products if product == 1) == consistent_before
        again, _ = canonical_rearrangement(rearranged)
        assert again.mapping == (1, 2, 3, 4)
    _verdict(8, "10,000 rearrangements sound, equality only on consistent cycles, idempotent")
