"""Efficient-set geometry for 4x4 pairwise comparison matrices.

The set of efficient weight vectors of a 4x4 matrix is the union of three
tetrahedra, one per undirected Hamiltonian cycle of the alternatives.  Each
tetrahedron's vertices are the weight vectors of the four path trees obtained
by deleting one cycle edge, and membership in a tetrahedron is equivalent to
the four ratio inequalities along the cycle in its admissible orientation.
A cycle's admissible orientation is fixed by whether its entry product lies
below or above 1; a product of exactly 1 collapses the tetrahedron to a
single point.

Everything here is exact rational arithmetic; floats appear only in the
3-space embedding (w1+w2, w1+w3, w2+w3) used for visualization exports.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .efficiency import float_equality_band
from .errors import (
    ConsistentTriadPresentError,
    DimensionMismatchError,
    ImpossibleCombinationError,
    NotNormalizedError,
)
from .pcm import (
    CANONICAL_CYCLES,
    Pcm,
    Permutation,
    WeightVector,
    _require_n4,
    apply_permutation,
    compare_ratio,
    consistent_four_cycles,
    consistent_triads,
    cycle_product,
    triad_product,
)
from .trees import paths_of_cycle, tree_weight_vector


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    CONSISTENT_BOTH = "consistent"


@dataclass(frozen=True)
class CycleOrientation:
    """The admissible direction of a canonical 4-cycle for a given matrix.

    ``directed`` is the vertex listing to iterate arcs in the valid
    direction; a backward orientation stores the reversed listing so region
    tests never have to special-case the direction.
    """

    cycle: tuple[int, int, int, int]
    direction: Direction
    directed: tuple[int, int, int, int]


def cycle_orientation(pcm: Pcm, cycle: tuple[int, int, int, int]) -> CycleOrientation:
    """Forward when the cycle product is < 1, backward when > 1, both on equality."""
    _require_n4(pcm)
    product = cycle_product(pcm, cycle)
    if product < 1:
        return CycleOrientation(cycle, Direction.FORWARD, cycle)
    if product > 1:
        reversed_listing = (cycle[0],) + tuple(reversed(cycle[1:]))
        return CycleOrientation(cycle, Direction.BACKWARD, reversed_listing)
    return CycleOrientation(cycle, Direction.CONSISTENT_BOTH, cycle)


def canonical_rearrangement(pcm: Pcm) -> tuple[Permutation, Pcm]:
    """Reindex the alternatives so all three canonical cycle products are <= 1.

    Equality is allowed exactly when the corresponding cycle is consistent.
    Several reindexings always qualify; the lexicographically smallest image
    sequence is returned, so a matrix already in shape maps to the identity.
    A relabelling is tested on the original matrix, through the identity
    cycle_product(apply_permutation(A, p), c) = cycle_product(A, p(c)).
    """
    _require_n4(pcm)
    for mapping in itertools.permutations((1, 2, 3, 4)):
        if all(
            cycle_product(pcm, tuple(mapping[v - 1] for v in cycle)) <= 1
            for cycle in CANONICAL_CYCLES
        ):
            perm = Permutation(mapping)
            return perm, apply_permutation(pcm, perm)
    raise AssertionError("unreachable: some reindexing always exists")


def triad_rearrangement(pcm: Pcm) -> tuple[Permutation, Pcm, int]:
    """Reindex by triad relations alone, for matrices with no consistent triad.

    Case 1 has all four triad relations in the '<' direction; case 2 has the
    first three '<' and the (1,2,4) relation '>'.  Which case is reachable is
    decided by the parity of the '>' relations, which index swaps preserve.
    """
    _require_n4(pcm)
    if consistent_triads(pcm):
        raise ConsistentTriadPresentError(
            "ConsistentTriadPresent: triad relations must all be strict"
        )
    for mapping in itertools.permutations((1, 2, 3, 4)):
        # triad (i, j, k) of the relabelled matrix is (m_i, m_j, m_k) here
        m1, m2, m3, m4 = mapping
        if (
            triad_product(pcm, (m1, m2, m3)) < 1
            and triad_product(pcm, (m2, m3, m4)) < 1
            and triad_product(pcm, (m1, m3, m4)) < 1
        ):
            perm = Permutation(mapping)
            case = 1 if triad_product(pcm, (m1, m2, m4)) < 1 else 2
            return perm, apply_permutation(pcm, perm), case
    raise AssertionError("unreachable: parity argument guarantees one of the two cases")


@dataclass(frozen=True)
class Tetrahedron:
    """Four path-tree weight vectors of one cycle, with exact degeneracy rank."""

    cycle: tuple[int, int, int, int]
    orientation: CycleOrientation
    vertices: tuple[WeightVector, WeightVector, WeightVector, WeightVector]
    degenerate_rank: int

    def vertex_points(self) -> list[tuple[Fraction, ...]]:
        return [v.components for v in self.vertices]


def tetrahedron_for_cycle(pcm: Pcm, cycle: tuple[int, int, int, int]) -> Tetrahedron:
    _require_n4(pcm)
    vertices = tuple(tree_weight_vector(pcm, path) for path in paths_of_cycle(cycle))
    rank = affine_rank([v.components for v in vertices])
    return Tetrahedron(cycle, cycle_orientation(pcm, cycle), vertices, rank)


def contains_cycle_region(
    pcm: Pcm,
    orientation: CycleOrientation,
    w: WeightVector,
    band: float | None = None,
) -> bool:
    """Do the four ratio inequalities along the oriented cycle hold for w?

    A consistent cycle degenerates to the set where all four hold with
    equality.  Exact vectors are tested exactly; float vectors get the
    relative equality band.
    """
    if w.n != pcm.n:
        raise DimensionMismatchError("DimensionMismatch: matrix and weight vector disagree")
    _require_n4(pcm)
    if band is None:
        band = float_equality_band()
    listing = orientation.directed
    arcs = list(zip(listing, listing[1:] + listing[:1]))
    if orientation.direction is Direction.CONSISTENT_BOTH:
        return all(
            compare_ratio(w, a, b, pcm.entries[a - 1][b - 1], band) == 0 for a, b in arcs
        )
    return all(
        compare_ratio(w, a, b, pcm.entries[a - 1][b - 1], band) >= 0 for a, b in arcs
    )


def is_efficient_geometric(pcm: Pcm, w: WeightVector, band: float | None = None) -> bool:
    """Efficiency by geometry: membership in at least one cycle region."""
    _require_n4(pcm)
    if band is None:
        band = float_equality_band()
    return any(
        contains_cycle_region(pcm, cycle_orientation(pcm, cycle), w, band)
        for cycle in CANONICAL_CYCLES
    )


# ---------------------------------------------------------------------------
# exact linear algebra on small systems


def _row_reduce(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan elimination over the rationals, in place.

    Returns the reduced rows and the pivot column of each leading row; the
    pivot count is the rank.  Rows past the last pivot are zero.
    """
    m = len(rows)
    k = len(rows[0]) if m else 0
    pivot_cols: list[int] = []
    for c in range(k):
        r = len(pivot_cols)
        if r == m:
            break
        pivot_row = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        pivot = rows[r][c]
        rows[r] = [v / pivot for v in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
        pivot_cols.append(c)
    return rows, pivot_cols


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of the given exact points."""
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    return len(_row_reduce(rows)[1])


def barycentric(tet: Tetrahedron, w: WeightVector):
    """Exact convex coefficients of w over the tetrahedron vertices, if any.

    Solves sum(lambda_k * v_k) = w over the rationals; the unit-sum constraint
    is implied because the vertices and w are normalized.  For degenerate
    vertex sets a convex representation is searched over affinely independent
    vertex subsets, which is exhaustive by Caratheodory's theorem; w must then
    lie in the affine hull exactly.  Float vectors are admitted with a -1e-12
    slack on the coefficients.
    """
    if not w.is_normalized:
        raise NotNormalizedError("NotNormalized: barycentric needs a normalized vector")
    target = [
        c if isinstance(c, Fraction) else Fraction(c)
        for c in w.components
    ]
    threshold = Fraction(0) if w.exact else Fraction(-1, 10**12)
    columns = [v.components for v in tet.vertices]

    def solve(subset):
        """(solvable, coefficients over ``subset`` if they are unique)."""
        rows, pivots = _row_reduce(
            [[columns[k][i] for k in subset] + [target[i]] for i in range(4)]
        )
        if len(subset) in pivots:  # a pivot in the target column: no solution
            return False, None
        if len(pivots) < len(subset):
            return True, None
        return True, tuple(row[-1] for row in rows[:len(subset)])

    solvable, solution = solve(range(4))
    if solution is not None:
        return solution if all(lam >= threshold for lam in solution) else None
    if not solvable:
        return None
    # Degenerate vertex set: try affinely independent subsets.
    for size in range(1, 5):
        for subset in itertools.combinations(range(4), size):
            _, sub_solution = solve(subset)
            if sub_solution is not None and all(lam >= threshold for lam in sub_solution):
                lambdas = [Fraction(0)] * 4
                for pos, k in enumerate(subset):
                    lambdas[k] = sub_solution[pos]
                return tuple(lambdas)
    return None


# ---------------------------------------------------------------------------
# classification and coincidence structure


class PerturbTag(str, Enum):
    TRIPLE = "triple"
    DOUBLE_TRIAD = "double-triad"
    DOUBLE_ONE_CYCLE = "double-one-cycle"
    DOUBLE_TWO_CYCLES = "double-two-cycles"
    SIMPLE = "simple"
    CONSISTENT = "consistent"


_ADMISSIBLE_COUNTS = {
    (0, 0): PerturbTag.TRIPLE,
    (1, 0): PerturbTag.DOUBLE_TRIAD,
    (0, 1): PerturbTag.DOUBLE_ONE_CYCLE,
    (0, 2): PerturbTag.DOUBLE_TWO_CYCLES,
    (2, 1): PerturbTag.SIMPLE,
    (4, 3): PerturbTag.CONSISTENT,
}


@dataclass(frozen=True)
class PerturbClass:
    """Taxonomy by counts of exactly consistent triads and 4-cycles."""

    tag: PerturbTag
    consistent_triad_count: int
    consistent_cycle_count: int

    def __post_init__(self):
        counts = (self.consistent_triad_count, self.consistent_cycle_count)
        if _ADMISSIBLE_COUNTS.get(counts) is not self.tag:
            raise ImpossibleCombinationError(*counts)


def classify(pcm: Pcm) -> PerturbClass:
    """Map the consistency-count pair to its class; impossible pairs raise.

    The raise doubles as a falsification probe: no positive reciprocal 4x4
    matrix should ever produce a pair outside the six admissible ones.
    """
    _require_n4(pcm)
    t = len(consistent_triads(pcm))
    c = len(consistent_four_cycles(pcm))
    tag = _ADMISSIBLE_COUNTS.get((t, c))
    if tag is None:
        raise ImpossibleCombinationError(t, c)
    return PerturbClass(tag, t, c)


@dataclass(frozen=True)
class CoincidenceReport:
    """Exact shared-vertex / collinear-edge / coplanar-face structure.

    Vertex indices are 1-based positions in the tetrahedron vertex order;
    edges and faces are sorted index tuples.  Only nondegenerate edges
    (distinct endpoints) and faces (affine rank 2) participate in the
    collinearity and coplanarity listings.
    """

    shared_vertices: tuple[tuple[tuple, int, tuple, int], ...]
    collinear_edge_pairs: tuple[tuple[tuple[tuple, tuple], tuple[tuple, tuple]], ...]
    coplanar_face_pairs: tuple[tuple[tuple[tuple, tuple], tuple[tuple, tuple]], ...]
    point_tetrahedra: tuple[tuple, ...]

    def shared_points(self, cycle_a: tuple, cycle_b: tuple) -> int:
        """Number of distinct shared locations between two tetrahedra.

        Equality is transitive, so each location is a complete bipartite
        block of index pairs: its first-cycle indices share one neighbour
        set, and distinct locations have disjoint neighbour sets.
        """
        neighbours: dict[tuple, set] = {}
        for (ca, ia, cb, ib) in self.shared_vertices:
            if {ca, cb} == {cycle_a, cycle_b}:
                neighbours.setdefault((ca, ia), set()).add((cb, ib))
        return len({frozenset(block) for block in neighbours.values()})


def _coincidence_report(tetrahedra: Sequence[Tetrahedron]) -> CoincidenceReport:
    parts = []
    for tet in tetrahedra:
        points = tet.vertex_points()
        parts.append((tet.cycle, points, _nondegenerate_edges(points), _nondegenerate_faces(points)))
    shared = []
    collinear = []
    coplanar = []
    for (ca, pa, edges_a, faces_a), (cb, pb, edges_b, faces_b) in itertools.combinations(parts, 2):
        for ia in range(4):
            for ib in range(4):
                if pa[ia] == pb[ib]:
                    shared.append((ca, ia + 1, cb, ib + 1))
        for ea in edges_a:
            for eb in edges_b:
                pts = [pa[ea[0] - 1], pa[ea[1] - 1], pb[eb[0] - 1], pb[eb[1] - 1]]
                if affine_rank(pts) <= 1:
                    collinear.append(((ca, ea), (cb, eb)))
        for fa in faces_a:
            for fb in faces_b:
                pts = [pa[i - 1] for i in fa] + [pb[i - 1] for i in fb]
                if affine_rank(pts) <= 2:
                    coplanar.append(((ca, fa), (cb, fb)))
    points = tuple(t.cycle for t in tetrahedra if t.degenerate_rank == 0)
    return CoincidenceReport(tuple(shared), tuple(collinear), tuple(coplanar), points)


def _nondegenerate_edges(points: list[tuple[Fraction, ...]]) -> list[tuple[int, int]]:
    return [
        (i + 1, j + 1)
        for i in range(4)
        for j in range(i + 1, 4)
        if points[i] != points[j]
    ]


def _nondegenerate_faces(points: list[tuple[Fraction, ...]]) -> list[tuple[int, int, int]]:
    faces = []
    for combo in itertools.combinations(range(4), 3):
        pts = [points[i] for i in combo]
        if affine_rank(pts) == 2:
            faces.append(tuple(i + 1 for i in combo))
    return faces


@dataclass(frozen=True)
class EfficientSet:
    """The three tetrahedra, classification and coincidence structure."""

    tetrahedra: tuple[Tetrahedron, Tetrahedron, Tetrahedron]
    classification: PerturbClass
    coincidences: CoincidenceReport

    def tetrahedron(self, cycle: tuple) -> Tetrahedron:
        for tet in self.tetrahedra:
            if tet.cycle == cycle:
                return tet
        raise KeyError(cycle)


def efficient_set(pcm: Pcm) -> EfficientSet:
    """Construct the full efficient set of a 4x4 matrix, exactly."""
    _require_n4(pcm)
    tetrahedra = tuple(tetrahedron_for_cycle(pcm, cycle) for cycle in CANONICAL_CYCLES)
    return EfficientSet(tetrahedra, classify(pcm), _coincidence_report(tetrahedra))


# ---------------------------------------------------------------------------
# 3-simplex embedding and cutting planes


def embed_exact(components: Sequence) -> tuple:
    """(w1+w2, w1+w3, w2+w3): the normalized 4-simplex drawn in 3-space, unrounded."""
    w1, w2, w3, _ = components
    return (w1 + w2, w1 + w3, w2 + w3)


def embed(w: WeightVector | Sequence) -> tuple[float, float, float]:
    """Embed a normalized vector; rationals are rounded to nearest double."""
    components = w.components if isinstance(w, WeightVector) else tuple(w)
    if len(components) != 4:
        raise DimensionMismatchError("DimensionMismatch: embedding needs 4 components")
    total = sum(components)
    exact = all(isinstance(c, (Fraction, int)) for c in components)
    if (total != 1) if exact else (abs(total - 1.0) > 1e-12):
        raise NotNormalizedError("NotNormalized: components must sum to 1")
    x, y, z = embed_exact(components)
    return (float(x), float(y), float(z))


SIMPLEX_CORNERS = (
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
    (0.0, 0.0, 0.0),
)


@dataclass(frozen=True)
class CuttingPlane:
    """The locus w_i/w_j = a_ij inside the weight simplex."""

    pair: tuple[int, int]
    value: Fraction


def cutting_planes(pcm: Pcm) -> list[CuttingPlane]:
    _require_n4(pcm)
    return [
        CuttingPlane((i, j), pcm.entries[i - 1][j - 1])
        for i in range(1, 5)
        for j in range(i + 1, 5)
    ]


def plane_clip_polygon(plane: CuttingPlane) -> list[tuple[Fraction, Fraction, Fraction, Fraction]]:
    """Vertices of the plane's intersection with the closed weight simplex.

    The locus w_i = a * w_j meets the simplex in the triangle spanned by the
    point splitting the (i, j) edge in ratio a : 1 and the two opposite
    corners (where w_i = w_j = 0).
    """
    i, j = plane.pair
    a = plane.value
    split = [Fraction(0)] * 4
    split[i - 1] = a / (1 + a)
    split[j - 1] = 1 / (1 + a)
    corners = []
    for k in range(1, 5):
        if k not in (i, j):
            corner = [Fraction(0)] * 4
            corner[k - 1] = Fraction(1)
            corners.append(tuple(corner))
    return [tuple(split)] + corners
