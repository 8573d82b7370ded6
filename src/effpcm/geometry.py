"""Efficient-set geometry for 4x4 pairwise comparison matrices.

The set of efficient weight vectors of a 4x4 matrix is the union of three
tetrahedra, one per undirected Hamiltonian cycle of the alternatives.  Each
tetrahedron's vertices are the weight vectors of the four path trees obtained
by deleting one cycle edge, and membership in a tetrahedron is equivalent to
the four ratio inequalities along the cycle in its admissible orientation.
A cycle's admissible orientation is fixed by whether its entry product lies
below or above 1; a product of exactly 1 collapses the tetrahedron to a
single point.

Classification, the canonical cycles' orientations, the region test and both
rearrangements read the seven signs of ``pcm.product_signs`` (four triads,
three 4-cycles), computed once per call.  A relabelling maps each canonical
cycle or triad onto a canonical one, forward or reversed, so the
rearrangements scan a 24-entry table of those images built at import.

Everything here is exact rational arithmetic; floats appear only in the
3-space embedding (w1+w2, w1+w3, w2+w3) used for visualization exports.
Tetrahedron ranks and the coincidence report are decided on integer points:
the vertices scaled to a common denominator with the fourth coordinate
dropped, where every rank, collinearity and coplanarity question is one
integer cross or triple product.
"""

from __future__ import annotations

import itertools
import math
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
    CANONICAL_TRIADS,
    Pcm,
    Permutation,
    WeightVector,
    _require_n4,
    apply_permutation,
    compare_ratio,
    cycle_product,
    product_signs,
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


def _oriented(cycle: tuple[int, int, int, int], sign: int) -> CycleOrientation:
    """The orientation of a cycle whose product minus 1 has the given sign."""
    if sign < 0:
        return CycleOrientation(cycle, Direction.FORWARD, cycle)
    if sign > 0:
        reversed_listing = (cycle[0],) + tuple(reversed(cycle[1:]))
        return CycleOrientation(cycle, Direction.BACKWARD, reversed_listing)
    return CycleOrientation(cycle, Direction.CONSISTENT_BOTH, cycle)


def cycle_orientation(pcm: Pcm, cycle: tuple[int, int, int, int]) -> CycleOrientation:
    """Forward when the cycle product is < 1, backward when > 1, both on equality.

    Takes any vertex listing; the canonical cycles' orientations come
    cheaper from ``canonical_orientations``.
    """
    _require_n4(pcm)
    product = cycle_product(pcm, cycle)
    return _oriented(cycle, (product > 1) - (product < 1))


def canonical_orientations(pcm: Pcm) -> tuple[CycleOrientation, CycleOrientation, CycleOrientation]:
    """The orientations of the three canonical cycles, in CANONICAL_CYCLES order."""
    _, cycle_signs = product_signs(pcm)
    return tuple(_oriented(c, s) for c, s in zip(CANONICAL_CYCLES, cycle_signs))


def _images(listings: Sequence[tuple[int, ...]]):
    """For each relabelling in lexicographic order: (mapping, images).

    images[q] = (k, e) says that listings[q] relabelled, i.e. the walk
    (mapping[v - 1] for v in listings[q]), is a rotation of listings[k]
    (e = +1) or of its reversal (e = -1).  Its entry product is then the
    k-th listing's product raised to e, so its sign against 1 is e times
    the k-th sign.  Every listing of a triad is a rotation of the sorted
    triad or of its reversal, so the table covers triads too.
    """
    rotations = {}
    for k, listing in enumerate(listings):
        for e, walk in ((1, listing), (-1, tuple(reversed(listing)))):
            for r in range(len(walk)):
                rotations[walk[r:] + walk[:r]] = (k, e)
    return tuple(
        (mapping, tuple(rotations[tuple(mapping[v - 1] for v in listing)] for listing in listings))
        for mapping in itertools.permutations((1, 2, 3, 4))
    )


_CYCLE_IMAGES = _images(CANONICAL_CYCLES)
_TRIAD_IMAGES = _images(CANONICAL_TRIADS)


def canonical_rearrangement(pcm: Pcm) -> tuple[Permutation, Pcm]:
    """Reindex the alternatives so all three canonical cycle products are <= 1.

    Equality is allowed exactly when the corresponding cycle is consistent.
    Several reindexings always qualify; the lexicographically smallest image
    sequence is returned, so a matrix already in shape maps to the identity.
    A relabelling is tested on the original matrix's cycle signs, through the
    identity cycle_product(apply_permutation(A, p), c) = cycle_product(A, p(c))
    and the image table.
    """
    _, s = product_signs(pcm)
    for mapping, ((k0, e0), (k1, e1), (k2, e2)) in _CYCLE_IMAGES:
        if e0 * s[k0] <= 0 and e1 * s[k1] <= 0 and e2 * s[k2] <= 0:
            perm = Permutation(mapping)
            return perm, apply_permutation(pcm, perm)
    raise AssertionError("unreachable: some reindexing always exists")


def triad_rearrangement(pcm: Pcm) -> tuple[Permutation, Pcm, int]:
    """Reindex by triad relations alone, for matrices with no consistent triad.

    Case 1 has all four triad relations in the '<' direction; case 2 has the
    first three '<' and the (1,2,4) relation '>'.  Which case is reachable is
    decided by the parity of the '>' relations, which index swaps preserve.
    """
    t, _ = product_signs(pcm)
    if 0 in t:
        raise ConsistentTriadPresentError(
            "ConsistentTriadPresent: triad relations must all be strict"
        )
    # relabelled triads in CANONICAL_TRIADS order: (1,2,3), (1,2,4), (1,3,4), (2,3,4)
    for mapping, ((k0, e0), (k1, e1), (k2, e2), (k3, e3)) in _TRIAD_IMAGES:
        if e0 * t[k0] < 0 and e2 * t[k2] < 0 and e3 * t[k3] < 0:
            perm = Permutation(mapping)
            case = 1 if e1 * t[k1] < 0 else 2
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
    rank = _integer_rank(*integer_points([v.components for v in vertices]))
    orientation = canonical_orientations(pcm)[CANONICAL_CYCLES.index(cycle)]
    return Tetrahedron(cycle, orientation, vertices, rank)


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
        contains_cycle_region(pcm, orientation, w, band)
        for orientation in canonical_orientations(pcm)
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


def integer_points(points: Sequence[Sequence[Fraction]]) -> list[tuple[int, int, int]]:
    """Exact points on one hyperplane sum = const, as integer 3-tuples.

    Scales every point by the common denominator of all coordinates and
    drops the fourth coordinate.  Dropping it is an affine bijection of the
    hyperplane, so equality, collinearity, coplanarity and affine rank are
    those of the original points.
    """
    scale = math.lcm(*(c.denominator for p in points for c in p))
    return [tuple(c.numerator * (scale // c.denominator) for c in p[:3]) for p in points]


ORIGIN = (0, 0, 0)


def sub(p: Sequence, q: Sequence) -> tuple:
    return (p[0] - q[0], p[1] - q[1], p[2] - q[2])


def cross(u: Sequence, v: Sequence) -> tuple:
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def dot(u: Sequence, v: Sequence):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _integer_rank(a, b, c, d) -> int:
    """Affine rank of four integer 3-space points.

    3 when the triple product is nonzero; else 2 when a face through ``a``
    has a nonzero normal; else 1 when the points are not all equal.
    """
    u, v, w = sub(b, a), sub(c, a), sub(d, a)
    if dot(cross(u, v), w) != 0:
        return 3
    if any(cross(x, y) != ORIGIN for x, y in ((u, v), (u, w), (v, w))):
        return 2
    return 1 if any(x != ORIGIN for x in (u, v, w)) else 0


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
    triad_signs, cycle_signs = product_signs(pcm)
    t = triad_signs.count(0)
    c = cycle_signs.count(0)
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
    collinearity and coplanarity listings.  All twelve vertices are scaled
    to one common denominator (see ``integer_points``); two edges are
    collinear when the integer cross products of the first edge's direction
    with the second edge's endpoints vanish, and two faces coplanar when the
    first face's normal has a zero dot product with the second face's points.
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
    points = integer_points([p for tet in tetrahedra for p in tet.vertex_points()])
    parts = []
    for first, tet in zip(range(0, len(points), 4), tetrahedra):
        pts = points[first:first + 4]
        edges = [
            ((i + 1, j + 1), pts[i], sub(pts[j], pts[i]))
            for i, j in itertools.combinations(range(4), 2)
            if pts[i] != pts[j]
        ]
        faces = []
        for i, j, k in itertools.combinations(range(4), 3):
            normal = cross(sub(pts[j], pts[i]), sub(pts[k], pts[i]))
            if normal != ORIGIN:
                faces.append(((i + 1, j + 1, k + 1), pts[i], normal))
        parts.append((tet.cycle, pts, edges, faces))
    shared = []
    collinear = []
    coplanar = []
    for (ca, pa, edges_a, faces_a), (cb, pb, edges_b, faces_b) in itertools.combinations(parts, 2):
        for ia in range(4):
            for ib in range(4):
                if pa[ia] == pb[ib]:
                    shared.append((ca, ia + 1, cb, ib + 1))
        # edge ea is nondegenerate, so eb lies on its line iff both of eb's
        # endpoints do; face fa has rank 2, so likewise for fb and its plane
        for ea, base, direction in edges_a:
            for eb, _, _ in edges_b:
                if all(cross(direction, sub(pb[i - 1], base)) == ORIGIN for i in eb):
                    collinear.append(((ca, ea), (cb, eb)))
        for fa, base, normal in faces_a:
            for fb, _, _ in faces_b:
                if all(dot(normal, sub(pb[i - 1], base)) == 0 for i in fb):
                    coplanar.append(((ca, fa), (cb, fb)))
    point_cycles = tuple(t.cycle for t in tetrahedra if t.degenerate_rank == 0)
    return CoincidenceReport(tuple(shared), tuple(collinear), tuple(coplanar), point_cycles)


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
