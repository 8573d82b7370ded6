"""Cycle orientations, rearrangements, tetrahedra, regions, classification,
coincidence structure, and the 3-simplex embedding."""

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from effpcm.errors import (
    ConsistentTriadPresentError,
    DimensionMismatchError,
    ImpossibleCombinationError,
    NotACanonicalCycleError,
    UnsupportedDimensionError,
)
from effpcm.pcm import (
    CANONICAL_CYCLES,
    DEFAULT_EQUALITY_BAND,
    Permutation,
    WeightVector,
    apply_permutation,
    consistent_weights,
    cycle_product,
    format_rational,
    parse_pcm,
    pcm_from_upper,
    triad_product,
    upper_signs,
    weight_vector,
)
from effpcm.efficiency import bcc_digraph, is_efficient
from effpcm.export import geometry_document
from effpcm.generators import (
    UPPER_PAIRS,
    _candidate,
    generate_pcm,
    generate_with_rng,
    random_exact_weights,
)
from effpcm.geometry import (
    _ORIENTATIONS,
    _band_orientations,
    _embedded,
    CycleOrientation,
    Direction,
    PATH_TREES,
    PerturbClass,
    PerturbTag,
    SIMPLEX_CORNERS,
    Tetrahedron,
    affine_rank,
    barycentric,
    canonical_orientations,
    canonical_rearrangement,
    classify,
    classify_signs,
    contains_cycle_region,
    efficient_set,
    embed,
    is_efficient_geometric,
    tetrahedron_for_cycle,
    triad_rearrangement,
)
from effpcm.trees import paths_of_cycle, tree_weight_vector
from conftest import RUNNING_UPPER, flip_family
from oracles import (
    barycentric_by_fractions,
    canonical_rearrangement_search,
    coincidence_report_by_rank,
    consistent_triads,
    contains_cycle_region_by_zip,
    cycle_orientation,
    digraph_of,
    embed_exact,
    entry,
    normalized,
    permute_weights,
    plane_clip_polygon,
    triad_rearrangement_search,
    vector_of,
    vertex_points,
)

ALL_TAGS = ["triple", "double-triad", "double-one-cycle",
            "double-two-cycles", "simple", "consistent"]

UNIFORM = weight_vector([Fraction(1, 4)] * 4)

_POOL = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "pool.json"
_POOL_DECIMALS = [parse_pcm(item["entries"]) for item in json.loads(_POOL.read_text(encoding="utf-8"))["n4"]
                  if item["half"] == "decimal"]

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
    return parse_pcm([[str(entry(pcm, i, j)) for i in range(1, 5)] for j in range(1, 5)])


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
        with pytest.raises(UnsupportedDimensionError):
            canonical_orientations(parse_pcm([["1", "2"], ["1/2", "1"]]))

    def test_orientation_table_covers_every_sign_combination(self):
        # with the other entries 1, a13 = 2^(s2 - s0 - s1), a14 = 4^-s0 and
        # a24 = 2^-(s0 + s1 + s2) give the canonical cycles the signs (s0, s1, s2)
        for signs in itertools.product((-1, 0, 1), repeat=3):
            s0, s1, s2 = signs
            pcm = pcm_from_upper(4, {
                (1, 2): 1, (1, 3): Fraction(2) ** (s2 - s0 - s1), (1, 4): Fraction(4) ** -s0,
                (2, 3): 1, (2, 4): Fraction(2) ** -(s0 + s1 + s2), (3, 4): 1,
            })
            assert pcm.signs[1] == signs
            orientations = canonical_orientations(pcm)
            table = tuple(_ORIENTATIONS[c, s] for c, s in zip(CANONICAL_CYCLES, signs))
            assert all(o is t for o, t in zip(orientations, table))
            assert table == tuple(cycle_orientation(pcm, c) for c in CANONICAL_CYCLES)

    def test_canonical_orientations_match_the_any_listing_reference(self):
        rng = random.Random(31)
        for k in range(120):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            expected = tuple(cycle_orientation(pcm, cycle) for cycle in CANONICAL_CYCLES)
            assert canonical_orientations(pcm) == expected

    @pytest.mark.parametrize("direction", list(Direction))
    def test_directed_is_the_listing_or_its_reversal(self, direction):
        for listing in itertools.permutations((1, 2, 3, 4)):
            a, b, c, d = listing
            directed = CycleOrientation(listing, direction).directed
            assert directed == ((a, d, c, b) if direction is Direction.BACKWARD else listing)


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
    image = tuple(perm.mapping[v - 1] for v in cycle)
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


class TestNoFractionProducts:
    """Class, region test, rearrangements and generation read the seven signs alone."""

    def test_product_functions_are_not_called(
        self, monkeypatch, running_example, double_triad_example, double_one_cycle_example,
        double_two_cycles_example, simple_example, consistent_example,
    ):
        def forbidden(*args):
            raise AssertionError("a Fraction product was computed")

        for name, module in list(sys.modules.items()):
            if name == "effpcm" or name.startswith("effpcm."):
                for attribute in ("cycle_product", "triad_product"):
                    if hasattr(module, attribute):
                        monkeypatch.setattr(module, attribute, forbidden)
        for pcm in (running_example, double_triad_example, double_one_cycle_example,
                    double_two_cycles_example, simple_example, consistent_example):
            classify(pcm)
            for w in (UNIFORM, *tetrahedron_for_cycle(pcm, (1, 2, 3, 4)).vertices):
                is_efficient_geometric(pcm, w)
            canonical_rearrangement(pcm)
            if classify(pcm).consistent_triad_count:
                with pytest.raises(ConsistentTriadPresentError):
                    triad_rearrangement(pcm)
            else:
                triad_rearrangement(pcm)
        for tag in ALL_TAGS:
            generate_pcm(11, tag)


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

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.builds(lambda seed, tag: generate_with_rng(random.Random(seed), tag),
                  st.integers(0, 2**32 - 1), st.sampled_from(ALL_TAGS)),
        st.sampled_from(_POOL_DECIMALS),
    ))
    @example(pcm_from_upper(4, RUNNING_UPPER))
    def test_vertices_follow_path_order(self, pcm):
        """Over every generated class and the benchmark pool's 15-digit decimal
        matrices: each point is positive and primitive, vertex k is the vector of
        the cycle's k-th path tree, and the exported text is its components'."""
        document = geometry_document(pcm)
        for tet, exported in zip(efficient_set(pcm).tetrahedra, document["tetrahedra"]):
            for k, point in enumerate(tet.points):
                assert all(x > 0 for x in point) and math.gcd(*point) == 1
                vertex = tree_weight_vector(pcm, PATH_TREES[tet.cycle][k])
                assert tet.vertices[k] == vertex
                assert exported["vertices_exact"][k] == [format_rational(c) for c in vertex.components]

    def test_a_scaled_point_is_kept_reduced(self, running_example):
        """Points are reduced on the way in, so a record given multiples of them
        equals, and hashes like, the one built from the primitive points."""
        tet = tetrahedron_for_cycle(running_example, (1, 2, 3, 4))
        scaled = Tetrahedron(tet.orientation, [[6 * x for x in p] for p in tet.points])
        assert scaled.points == tet.points
        assert scaled == tet and hash(scaled) == hash(tet)
        assert scaled.vertices == tet.vertices

    def test_rejects_non_canonical_cycle(self, running_example):
        """By ``tetrahedron_for_cycle`` and the efficient set's lookup, in the same words."""
        for listing in ((1, 2, 4, 3), (2, 3, 4, 1), (1, 4, 3, 2)):
            with pytest.raises(NotACanonicalCycleError) as direct:
                tetrahedron_for_cycle(running_example, listing)
            with pytest.raises(NotACanonicalCycleError) as stored:
                efficient_set(running_example).tetrahedron(listing)
            assert str(stored.value) == str(direct.value)

    @pytest.mark.parametrize("cycle", CANONICAL_CYCLES)
    def test_a_canonical_cycle_given_as_a_list_is_refused(self, running_example, cycle):
        # the trees' lookup and the tetrahedra's agree: a cycle is a tuple
        with pytest.raises(NotACanonicalCycleError):
            paths_of_cycle(list(cycle))
        with pytest.raises(NotACanonicalCycleError):
            tetrahedron_for_cycle(running_example, list(cycle))
        with pytest.raises(NotACanonicalCycleError):
            efficient_set(running_example).tetrahedron(list(cycle))

    @pytest.mark.parametrize("sign", [-1, 0, 1])
    def test_cycle_and_rank_follow_the_orientation(self, running_example, sign):
        points = tetrahedron_for_cycle(running_example, (1, 3, 4, 2)).points
        for cycle in CANONICAL_CYCLES:
            tet = Tetrahedron(_ORIENTATIONS[cycle, sign], points)
            assert tet.cycle == cycle
            assert tet.degenerate_rank == (0 if sign == 0 else 3)

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


# NEAR_ROWS and NEAR_W of test_cli.py: the cycle (1,2,3,4) has product 1 + 1e-9, and the
# float vector holds it backward within the default band
NEAR_EXAMPLE = (
    pcm_from_upper(4, {(1, 2): Fraction(8, 3), (1, 3): Fraction(2, 3),
                       (1, 4): Fraction(3840000000, 1000000001), (2, 3): Fraction(4, 5),
                       (2, 4): Fraction(9, 2), (3, 4): Fraction(9, 5)}),
    vector_of([3.8399999980510415, 1.4399999976311004, 1.7999999985113047, 1.0],
              Fraction(DEFAULT_EQUALITY_BAND)),
)

WINDOW_BANDS = (0, 1e-9, 1e-4, 0.1, 0.99, 1, 2)


@st.composite
def _float_points_near_cycles(draw):
    """A generated matrix whose entry a_1j may then be scaled by 1 + e for a small e,
    which moves its consistent cycles' products off 1 by about e, and a float vector
    rounded from a point of one of the unscaled matrix's tetrahedra, each component
    then scaled by about 1 + 10^-k."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    pcm = generate_with_rng(rng, draw(st.sampled_from(ALL_TAGS)))
    tet = tetrahedron_for_cycle(pcm, draw(st.sampled_from(CANONICAL_CYCLES)))
    lams = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
    point = [sum(lam * v.components[i] for lam, v in zip(lams, tet.vertices)) for i in range(4)]
    k = draw(st.sampled_from([3, 6, 9, 12, 16]))
    w = weight_vector([float(c) * (1 + rng.uniform(-1, 1) * 10.0 ** -k) for c in point])
    e = draw(st.sampled_from([0, 1, 10, 10**3, 10**6, 10**8]))
    if e:
        upper = pcm.upper_entries()
        upper[1, draw(st.sampled_from([2, 3, 4]))] *= 1 + Fraction(rng.choice([-1, 1]), e * 10**2)
        pcm = pcm_from_upper(4, upper)
    return pcm, w


class TestRegions:
    def test_vertex_inside_own_region(self, running_example):
        w = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        orientation = cycle_orientation(running_example, (1, 2, 3, 4))
        assert contains_cycle_region(bcc_digraph(running_example, w), orientation)

    def test_uniform_outside_all_regions(self, running_example):
        for cycle in CANONICAL_CYCLES:
            orientation = cycle_orientation(running_example, cycle)
            assert not contains_cycle_region(bcc_digraph(running_example, UNIFORM), orientation)
        assert not is_efficient_geometric(running_example, UNIFORM)

    def test_every_tetrahedron_vertex_in_own_region(self, running_example):
        for cycle in CANONICAL_CYCLES:
            tet = tetrahedron_for_cycle(running_example, cycle)
            for vertex in tet.vertices:
                assert contains_cycle_region(bcc_digraph(running_example, vertex), tet.orientation)

    def test_known_efficient_vertex(self, running_example):
        w = weight_vector([Fraction(7, 20), Fraction(2, 5), Fraction(1, 5), Fraction(1, 20)])
        assert is_efficient_geometric(running_example, w)

    def test_consistent_region_is_single_point(self, double_one_cycle_example):
        orientation = cycle_orientation(double_one_cycle_example, (1, 4, 2, 3))
        assert orientation.direction is Direction.CONSISTENT_BOTH
        point = weight_vector(list(SHARED_POINT))
        assert contains_cycle_region(bcc_digraph(double_one_cycle_example, point), orientation)
        assert not contains_cycle_region(bcc_digraph(double_one_cycle_example, UNIFORM), orientation)

    def test_float_vectors_use_band(self, running_example):
        w = weight_vector([0.25, 0.25, 0.125, 0.375])
        orientation = cycle_orientation(running_example, (1, 2, 3, 4))
        assert contains_cycle_region(bcc_digraph(running_example, w), orientation)

    def test_kept_arc_masks_leave_the_record_as_it_was(self):
        forward, consistent = _ORIENTATIONS[(1, 2, 3, 4), -1], _ORIENTATIONS[(1, 2, 3, 4), 0]
        cycle = digraph_of(4, {(1, 2), (2, 3), (3, 4), (4, 1)}).arc_mask
        assert cycle == 1 << 1 | 1 << 6 | 1 << 11 | 1 << 12
        assert forward._arc_masks == (cycle,)
        assert consistent._arc_masks == (cycle, digraph_of(4, {(2, 1), (3, 2), (4, 3), (1, 4)}).arc_mask)
        twin = CycleOrientation((1, 2, 3, 4), Direction.FORWARD)
        assert twin == forward and hash(twin) == hash(forward)
        assert repr(twin) == "CycleOrientation(cycle=(1, 2, 3, 4), direction=<Direction.FORWARD: 'forward'>)"

    @settings(max_examples=200, deadline=None)
    @given(
        arcs=st.frozensets(st.sampled_from(list(itertools.permutations(range(1, 5), 2)))),
        built=st.tuples(st.sampled_from(list(Direction)), st.permutations((1, 2, 3, 4)),
                        st.sampled_from([tuple, list])),
    )
    def test_kept_arc_sets_agree_with_zipped_arcs(self, arcs, built):
        """Every import-time record, and records built from tuple and list listings."""
        digraph = digraph_of(4, arcs)
        direction, listing, kind = built
        user_built = CycleOrientation(kind(listing), direction)
        for orientation in (*_ORIENTATIONS.values(), user_built):
            assert (contains_cycle_region(digraph, orientation)
                    == contains_cycle_region_by_zip(digraph, orientation))

    @pytest.mark.parametrize("n", [3, 5])
    def test_a_region_reads_a_four_vertex_digraph_only(self, n):
        """The orientations keep 4-vertex masks, so another digraph, even a complete
        one that holds every cycle, is refused rather than misread."""
        complete = digraph_of(n, itertools.permutations(range(1, n + 1), 2))
        for orientation in _ORIENTATIONS.values():
            with pytest.raises(DimensionMismatchError, match=f"with a {n}-vertex digraph$"):
                contains_cycle_region(complete, orientation)

    def test_float_vector_near_a_consistent_cycle(self):
        """The cycle (1,2,3,4) has product 1 + 1e-9 and w holds it backward within the
        band: efficient by both tests.  Its exact twin holds it in neither direction."""
        pcm, w = NEAR_EXAMPLE
        assert cycle_product(pcm, (1, 2, 3, 4)) == 1 + Fraction(1, 10**9)
        assert is_efficient(pcm, w) and is_efficient_geometric(pcm, w)
        twin = WeightVector(*w.integer_form, 0)
        assert not is_efficient(pcm, twin) and not is_efficient_geometric(pcm, twin)

    @pytest.mark.parametrize("tol,within", [(0, False), (4.9e-10, False), (5e-10, True)])
    def test_band_window_bounds(self, tol, within):
        """Of the cycle products 1 + 2e-9, about 1/30 and 5/24, the first lies within
        [(1 - t)^4, (1 - t)^-4] from t = 5e-10 on, and all three do for t >= 1."""
        pcm = pcm_from_upper(4, {**RUNNING_UPPER, (1, 4): Fraction(2, 3) / (1 + Fraction(2, 10**9))})
        orientations = canonical_orientations(pcm)
        assert [cycle_product(pcm, c) for c in CANONICAL_CYCLES] == [
            1 + Fraction(2, 10**9), Fraction(1, 30) / (1 + Fraction(2, 10**9)), Fraction(5, 24)]
        regions = _band_orientations(pcm, weight_vector([0.25, 0.25, 0.25, 0.25], tol))
        assert regions[0] == (_ORIENTATIONS[(1, 2, 3, 4), 0] if within else orientations[0])
        assert regions[1:] == orientations[1:]
        assert all(r.direction is Direction.CONSISTENT_BOTH
                   for r in _band_orientations(pcm, weight_vector([0.25, 0.25, 0.25, 0.25], 1)))
        exact = _band_orientations(pcm, weight_vector([1, 1, 1, 1], 1))
        assert exact == canonical_orientations(pcm)

    @settings(max_examples=200, deadline=None)
    @given(_float_points_near_cycles())
    @example(NEAR_EXAMPLE)
    def test_the_band_rule_implies_the_window(self, pcm_and_w):
        """For a float vector and each band, every cycle's region test through
        ``_band_orientations`` equals reading the cycle's consistent record, that is
        in both directions: outside the window the digraph never holds a cycle
        against its orientation."""
        pcm, w = pcm_and_w
        for band in WINDOW_BANDS:
            w = WeightVector(*w.integer_form, Fraction(band))
            digraph = bcc_digraph(pcm, w)
            regions = _band_orientations(pcm, w)
            for cycle, region in zip(CANONICAL_CYCLES, regions):
                assert (contains_cycle_region(digraph, region)
                        == contains_cycle_region(digraph, _ORIENTATIONS[cycle, 0])), (band, cycle)


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
    return normalized(weight_vector(components))


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
                    if all(arc in g.arcs for arc in arcs):
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

    def test_scale_invariant(self, running_example):
        """w and 2w name the same point w / sum(w), exact or float."""
        tet = tetrahedron_for_cycle(running_example, (1, 2, 3, 4))
        centroid = [sum(v.components[i] for v in tet.vertices) / 4 for i in range(4)]
        for values in (tet.vertices[1].components, centroid, [0.25, 0.25, 0.125, 0.375],
                       [0.3, 0.2, 0.1, 0.4], [1, 1, 1, 1]):
            w = weight_vector(values)
            assert barycentric(tet, weight_vector([2 * c for c in values])) == barycentric(tet, w)
        assert barycentric(tet, weight_vector([1, 1, Fraction(1, 2), Fraction(3, 2)])) == (1, 0, 0, 0)

    def test_needs_four_components(self, running_example):
        tet = tetrahedron_for_cycle(running_example, (1, 2, 3, 4))
        for n in (3, 5):
            with pytest.raises(DimensionMismatchError, match=f"got {n}$"):
                barycentric(tet, weight_vector([1] * n))

    def test_point_tetrahedron_membership(self, double_one_cycle_example):
        """Built by ``tetrahedron_for_cycle``, and by hand from a consistent orientation."""
        built = tetrahedron_for_cycle(double_one_cycle_example, (1, 4, 2, 3))
        by_hand = Tetrahedron(CycleOrientation((1, 4, 2, 3), Direction.CONSISTENT_BOTH), built.points)
        for tet in (built, by_hand):
            lams = barycentric(tet, weight_vector(list(SHARED_POINT)))
            assert lams == (1, 0, 0, 0)
            assert barycentric(tet, weight_vector([61 * c for c in SHARED_POINT])) == lams
            assert barycentric(tet, UNIFORM) is None

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tag=st.sampled_from(ALL_TAGS),
        mapping=st.permutations((1, 2, 3, 4)),
        cycle=st.sampled_from(CANONICAL_CYCLES),
        weights=st.lists(st.fractions(min_value=Fraction(1, 1000), max_value=1000),
                         min_size=4, max_size=4),
    )
    def test_recovers_exact_coefficients(self, seed, tag, mapping, cycle, weights):
        pcm = generate_with_rng(random.Random(seed), tag)
        tet = tetrahedron_for_cycle(apply_permutation(pcm, Permutation(tuple(mapping))), cycle)
        if tet.degenerate_rank == 0:
            assert barycentric(tet, tet.vertices[0]) == (1, 0, 0, 0)
            return
        lambdas = tuple(x / sum(weights) for x in weights)
        w = weight_vector([
            sum(lam * v.components[i] for lam, v in zip(lambdas, tet.vertices))
            for i in range(4)
        ])
        assert barycentric(tet, w) == lambdas

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        tag=st.sampled_from(ALL_TAGS),
        cycle=st.sampled_from(CANONICAL_CYCLES),
        inside=st.booleans(),
        exact=st.booleans(),
    )
    def test_matches_the_fraction_oracle(self, seed, tag, cycle, inside, exact):
        """Coefficients from integer forms equal the Fraction computation's, for
        points inside and outside, exact and float, normalized or not, solid and
        point tetrahedra, and for a tetrahedron given its points scaled by 3.
        A float vector gets its exact twin's coefficients, which sum to 1."""
        rng = random.Random(seed)
        tet = tetrahedron_for_cycle(generate_with_rng(rng, tag), cycle)
        w = _inside_samples(rng, tet, 1)[0] if inside else random_exact_weights(rng)
        if not exact:
            w = weight_vector([float(c) * rng.choice((1, 3)) for c in w.components])
        rebuilt = Tetrahedron(tet.orientation, tuple(tuple(3 * x for x in p) for p in tet.points))
        twin = weight_vector([Fraction(c) for c in w.components])
        for t in (tet, rebuilt):
            lams = barycentric(t, w)
            assert lams == barycentric_by_fractions(t, w) == barycentric(t, twin)
            assert lams is None or sum(lams) == 1
            assert barycentric(t, t.vertices[0]) == barycentric_by_fractions(t, t.vertices[0])

    def test_region_iff_barycentric_fuzz(self):
        """An exact vector has coefficients iff its digraph holds the cycle.  Its
        float rounding has the coefficients of its own exact twin, which sum to 1;
        the float band only adds arcs, so the float digraph then holds the cycle."""
        rng = random.Random(59)
        for k in range(500):
            pcm = generate_with_rng(rng, ALL_TAGS[k % 6])
            cycle = CANONICAL_CYCLES[k % 3]
            tet = tetrahedron_for_cycle(pcm, cycle)
            samples = [random_exact_weights(rng)]
            samples += _inside_samples(rng, tet, 2)
            samples.append(_jittered(rng, samples[1]))
            for w in samples:
                floated = weight_vector([float(c) for c in w.components])
                twin = weight_vector([Fraction(c) for c in floated.components])
                for exact in (w, twin):
                    in_region = contains_cycle_region(bcc_digraph(pcm, exact), tet.orientation)
                    lams = barycentric(tet, exact)
                    assert in_region == (lams is not None)
                    if lams is not None:
                        assert sum(lams) == 1
                        assert all(l >= 0 for l in lams)
                float_lams = barycentric(tet, floated)
                assert float_lams == barycentric(tet, twin)
                if float_lams is not None:
                    assert contains_cycle_region(bcc_digraph(pcm, floated), tet.orientation)


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
        # generator candidates that miss their target class; the generator's
        # integer-sign class must be classify's on every candidate
        rng = random.Random(61)
        tags = [PerturbTag(t) for t in ALL_TAGS]
        for k in range(100_000):
            pairs = _candidate(rng, tags[k % 6])
            pcm = pcm_from_upper(4, {pair: Fraction(n, d) for pair, (n, d) in zip(UPPER_PAIRS, pairs)})
            assert classify(pcm) == classify_signs(*upper_signs(pairs))

    def test_inadmissible_count_pairs_raise(self):
        admissible = {
            (0, 0): PerturbTag.TRIPLE,
            (1, 0): PerturbTag.DOUBLE_TRIAD,
            (0, 1): PerturbTag.DOUBLE_ONE_CYCLE,
            (0, 2): PerturbTag.DOUBLE_TWO_CYCLES,
            (2, 1): PerturbTag.SIMPLE,
            (4, 3): PerturbTag.CONSISTENT,
        }
        for t, c in itertools.product(range(5), range(4)):
            triad_signs = (0,) * t + (1,) * (4 - t)
            cycle_signs = (-1,) * (3 - c) + (0,) * c
            if (t, c) in admissible:
                cls = classify_signs(triad_signs, cycle_signs)
                assert cls.tag is admissible[t, c]
                assert (cls.consistent_triad_count, cls.consistent_cycle_count) == (t, c)
                # one of the six records built at import, equal to a fresh one
                assert cls == PerturbClass(t, c)
                assert hash(cls) == hash(PerturbClass(t, c))
                assert classify_signs(list(triad_signs), list(cycle_signs)) is cls
            else:
                with pytest.raises(ImpossibleCombinationError) as raised:
                    classify_signs(triad_signs, cycle_signs)
                with pytest.raises(ImpossibleCombinationError) as fresh:
                    PerturbClass(t, c)
                assert str(raised.value) == str(fresh.value)


def _cycle_edges(cycle):
    return frozenset(
        (min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])
    )


def _predicted_structural_pairs(cycle_a, cycle_b):
    """Combinatorial oracle: which edges must be collinear and which faces
    coplanar, from the trees' shared entries with the other cycle."""
    edges_a, edges_b = _cycle_edges(cycle_a), _cycle_edges(cycle_b)
    common = edges_a & edges_b
    trees_a = [t.edges for t in paths_of_cycle(cycle_a)]
    trees_b = [t.edges for t in paths_of_cycle(cycle_b)]
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


def _decimal(rng):
    """A rational in [0.1, 10) with 15 fraction digits."""
    return Fraction(rng.randrange(10**14, 10**16), 10**15)


def _decimal_matrices(rng):
    """Each class rescaled by 15-digit decimal weights (a_ij * d_i / d_j keeps
    every triad and cycle product; vertices of about 60 bits), and three
    matrices of 15-digit decimal entries (vertices of about 150 bits)."""
    for tag in ALL_TAGS:
        base = generate_with_rng(rng, tag)
        d = [_decimal(rng) for _ in range(4)]
        yield pcm_from_upper(4, {
            (i, j): v * d[i - 1] / d[j - 1] for (i, j), v in base.upper_entries().items()
        })
    for _ in range(3):
        yield pcm_from_upper(4, {
            (i, j): _decimal(rng) for i in range(1, 5) for j in range(i + 1, 5)
        })


class TestIntegerGeometryMatchesRank:
    """The signs decide the ranks and the coincidence report that fraction ranks decide."""

    @staticmethod
    def _check(pcm):
        effset = efficient_set(pcm)
        assert effset.coincidences == coincidence_report_by_rank(effset.tetrahedra)
        for tet in effset.tetrahedra:
            assert tet.degenerate_rank == affine_rank(vertex_points(tet))
        return effset

    def test_every_relabelling_of_the_reference_matrices(
        self, running_example, double_triad_example, double_one_cycle_example,
        double_two_cycles_example, simple_example, consistent_example,
    ):
        for pcm in (running_example, double_triad_example, double_one_cycle_example,
                    double_two_cycles_example, simple_example, consistent_example):
            for mapping in itertools.permutations((1, 2, 3, 4)):
                self._check(apply_permutation(pcm, Permutation(mapping)))

    def test_generated_matrices(self):
        rng = random.Random(83)
        for k in range(300):
            self._check(generate_with_rng(rng, ALL_TAGS[k % 6]))

    def test_decimal_matrices(self):
        rng = random.Random(89)
        bits = []
        for pcm in _decimal_matrices(rng):
            effset = self._check(pcm)
            bits.append(max(
                c.denominator.bit_length()
                for tet in effset.tetrahedra for p in vertex_points(tet) for c in p
            ))
        assert sum(b >= 140 for b in bits) == 3


class TestStoredEfficientSet:
    def test_second_call_returns_the_same_object(self, running_example):
        effset = efficient_set(running_example)
        assert efficient_set(running_example) is effset

    def test_stored_set_leaves_the_record_as_it_was(self, running_example):
        efficient_set(running_example)
        fresh = parse_pcm(running_example.rows_as_strings())
        assert running_example == fresh and fresh == running_example
        assert hash(running_example) == hash(fresh)
        assert repr(running_example) == repr(fresh)
        with pytest.raises(AttributeError):
            running_example.entries = fresh.entries

    def test_requires_n4_on_every_call(self):
        pcm = parse_pcm([[str(Fraction(i + 1, j + 1)) for j in range(5)] for i in range(5)])
        for _ in range(2):
            with pytest.raises(UnsupportedDimensionError):
                efficient_set(pcm)


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


# Saaty-scale values, 15-digit decimals up to 10 and entries from 1e-40 to 1e40
_EMBEDDING_ENTRIES = st.one_of(
    st.sampled_from([Fraction(k) for k in range(1, 10)] + [Fraction(1, k) for k in range(2, 10)]),
    st.integers(1, 10**16).map(lambda k: Fraction(k, 10**15)),
    st.fractions(min_value=Fraction(1, 10**40), max_value=10**40),
)


@st.composite
def _embedding_matrices(draw):
    """A 4x4 matrix of those entries; up to two canonical cycles are then made
    consistent, each by dividing its first entry a_1j by the cycle's product."""
    upper = dict(zip(UPPER_PAIRS, draw(st.lists(_EMBEDDING_ENTRIES, min_size=6, max_size=6))))
    for cycle in draw(st.lists(st.sampled_from(CANONICAL_CYCLES), max_size=2, unique=True)):
        upper[cycle[:2]] /= cycle_product(pcm_from_upper(4, upper), cycle)
    return pcm_from_upper(4, upper)


# float components from below the normal range to the top, whose sum may overflow
_EMBEDDING_FLOATS = st.floats(min_value=0.0, max_value=sys.float_info.max, exclude_min=True)
_EMBEDDING_FRACTIONS = st.one_of(
    st.fractions(min_value=Fraction(1, 10**40), max_value=10**40),
    st.integers(1, 2**200).map(Fraction),
)


class TestEmbedding:
    def test_simplex_corner(self):
        """Each corner is the embedding of a unit vector (``_embedded`` takes zero parts)."""
        assert _embedded((1, 0, 0, 0), 1) == (1.0, 1.0, 0.0)
        for k, corner in enumerate(SIMPLEX_CORNERS):
            assert _embedded(tuple(int(i == k) for i in range(4)), 1) == corner

    def test_uniform_center(self):
        for w in (UNIFORM, weight_vector([3] * 4), weight_vector([0.1] * 4)):
            assert embed(w) == (0.5, 0.5, 0.5)

    def test_tree_vertex(self):
        w = weight_vector([Fraction(1, 4), Fraction(1, 4), Fraction(1, 8), Fraction(3, 8)])
        assert embed(w) == (0.5, 0.375, 0.375)
        assert embed(weight_vector([2, 2, 1, 3])) == (0.5, 0.375, 0.375)

    def test_needs_four_components(self):
        for values in ([1, 2, 3], [0.5, 0.25, 0.125, 0.0625, 0.0625]):
            with pytest.raises(DimensionMismatchError):
                embed(weight_vector(values))

    @given(st.lists(st.integers(2**150, 2**200), min_size=4, max_size=4))
    def test_exact_vector_rounds_its_exact_sums(self, parts):
        """Components of 150 bits or more, normalized or not: each coordinate is
        the exact sum, rounded once."""
        w = [Fraction(p, sum(parts)) for p in parts]
        rounded = tuple(float(x) for x in embed_exact(w))
        assert embed(weight_vector(w)) == rounded
        assert embed(weight_vector(parts)) == rounded

    @settings(max_examples=150, deadline=None)
    @given(_embedding_matrices())
    def test_tetrahedron_points_are_the_rounded_exact_sums(self, pcm):
        """Read off each tetrahedron's integer points, or from a vector rebuilt from
        the vertex's components over the product of their denominators: the same
        doubles either way."""
        for tet in efficient_set(pcm).tetrahedra:
            for vertex, point in zip(tet.vertices, tet.embedded):
                assert point == tuple(float(x) for x in embed_exact(vertex.components))
                rebuilt = vector_of(vertex.components)
                assert rebuilt == vertex
                assert embed(rebuilt) == point

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(_EMBEDDING_FLOATS, min_size=4, max_size=4),
                     st.lists(_EMBEDDING_FRACTIONS, min_size=4, max_size=4)),
           st.fractions(min_value=Fraction(1, 10**30), max_value=10**30))
    # the floats' sum overflows, and the float normalization of the second underflows
    @example([1.4875e308, 1.7e308, 8.5e307, 2.125e307], Fraction(3))
    @example([1e300, 1e300, 1e-300, 1e-300], Fraction(1, 7))
    def test_any_positive_vector_is_its_normalization_rounded_once(self, values, k):
        """embed(w) rounds each coordinate of the exact embedding of w / sum(w) once,
        for a float vector too; it does not change when w is scaled by an exact k > 0,
        and a float vector embeds as its exact Fraction twin does."""
        w = weight_vector(values)
        twin = [Fraction(c) for c in w.components]
        total = sum(twin)
        point = embed(w)
        assert point == tuple(float(x) for x in embed_exact([c / total for c in twin]))
        assert embed(weight_vector(twin)) == point
        assert embed(weight_vector([c * k for c in twin])) == point


class TestCuttingPlanes:
    def test_running_plane_values(self, running_example):
        planes = geometry_document(running_example)["planes"]
        assert [plane["pair"] for plane in planes] == [list(p) for p in UPPER_PAIRS]
        assert [plane["value"] for plane in planes] == [
            format_rational(v) for v in running_example.upper_entries().values()]
        assert planes[0]["pair"] == [1, 2] and planes[0]["value"] == "1"

    def test_split_point_ratio(self):
        polygon = plane_clip_polygon((1, 2), Fraction(2))
        assert polygon[0] == (Fraction(2, 3), Fraction(1, 3), 0, 0)
        assert embed_exact(polygon[0]) == (1, Fraction(2, 3), Fraction(1, 3))
        # the other two vertices are the opposite simplex corners
        assert polygon[1] == (0, 0, 1, 0)
        assert polygon[2] == (0, 0, 0, 1)

    def test_all_ones_planes_hit_edge_midpoints(self):
        pcm = parse_pcm([["1"] * 4] * 4)
        for (i, j), value in pcm.upper_entries().items():
            split = plane_clip_polygon((i, j), value)[0]
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
