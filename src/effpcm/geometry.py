"""Efficient-set geometry for 4x4 pairwise comparison matrices.

The set of efficient weight vectors of a 4x4 matrix is the union of three
tetrahedra, one per undirected Hamiltonian cycle of the alternatives.  Each
tetrahedron's vertices are the weight vectors of the four path trees obtained
by deleting one cycle edge, and membership in a tetrahedron is equivalent to
the four ratio inequalities along the cycle in its admissible orientation,
that is to w's BCC digraph holding the directed cycle: the region test
reads the digraph.  A cycle's admissible orientation is fixed by whether its
entry product lies below or above 1; a product of exactly 1 collapses the
tetrahedron to a single point.  Each orientation keeps the arc masks it
admits, built with the record, so a region test is one mask test per mask;
the nine orientations of the canonical cycles are built at import.  Each
record here keeps only what it cannot derive (an orientation its cycle and
direction, a tetrahedron its orientation and points, a class its two
counts), and derives the rest once as it is built: a directed listing, arc
masks, a cycle, a rank, a tag.  A vector read from floats carries a nonzero equality band, which lets it hold
a cycle whose product lies within a few bands of 1 in either direction, so
for it such a cycle is read through its consistent orientation
(``_band_orientations``).  ``bcc_digraph`` decides the band by one exact
rule on the weights' and entries' integer pairs, so that window holds with
no rounding and the region test agrees with strong connectivity for those
vectors too.  Both read the matrix and the vector alone.

Classification, the canonical cycles' orientations, the tetrahedra, the
coincidence report and both rearrangements read the seven signs of
``Pcm.signs`` (four triads, three 4-cycles), computed once per matrix.
``efficient_set`` assembles the tetrahedra, class and coincidence report
once and keeps them on the matrix too.  A relabelling maps each
canonical cycle or triad onto a canonical one, forward or reversed, so the
rearrangements scan a 24-entry table of those images built at import.

Everything here is exact rational arithmetic; floats appear only in
``_embedded``, the one 3-space embedding (w1+w2, w1+w3, w2+w3) used for
visualization exports, each coordinate rounded once from integers over one
total.  The tetrahedra read the same signs; their vertices, of the twelve
canonical path trees built once at import, are the reduced integer points of
``trees.tree_integers``, which the embedding, the exact text and
``barycentric`` read: a vertex ``WeightVector`` is built only when read.  A
tetrahedron is solid (rank 3) unless its cycle is consistent, when it is a
point.  Vertex k's path omits one cycle edge that the other three vertices
keep, so one 2x2 determinant per vertex gives its barycentric coordinate,
exact whatever w's band: it reads w's ``integer_form`` and places
w / sum(w), so the coefficients sum to exactly 1.  Each face lies on the
cutting plane w_i/w_j = a_ij of the edge {i, j} omitted by the opposite vertex.
Which vertices coincide and which edges and faces share a line or plane
depends only on which triads and cycles are consistent: a table per pair
of canonical cycles, built at import, lists those conditions.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from enum import Enum
from fractions import Fraction

from .efficiency import BccDigraph, arc_mask, bcc_digraph
from .errors import (
    ConsistentTriadPresentError,
    DimensionMismatchError,
    ImpossibleCombinationError,
    IndexOutOfRangeError,
)
from .pcm import (
    CANONICAL_CYCLES,
    CANONICAL_TRIADS,
    Pcm,
    Permutation,
    Record,
    WeightVector,
    apply_permutation,
    cycle_product,
    format_rational,
)
from .trees import canonical_index, paths_of_cycle, tree_integers


class Direction(str, Enum):
    FORWARD = "forward"
    BACKWARD = "backward"
    CONSISTENT_BOTH = "consistent"


class CycleOrientation(Record):
    """The admissible direction of a canonical 4-cycle for a given matrix.

    A record is its cycle, a listing of 1..4 as ints, and its ``Direction``;
    anything else raises ``IndexOutOfRange``.  The rest is derived once and
    kept outside the fields: ``directed``, the listing to iterate arcs in the
    valid direction (the cycle, or its reversal from the first vertex when
    backward), so region tests never have to special-case the direction; and
    ``_arc_masks``, each a 4-vertex mask from ``efficiency.arc_mask``: the
    directed cycle's, and for a consistent cycle their reversal too.
    """

    cycle: tuple[int, int, int, int]
    direction: Direction

    def __post_init__(self):
        cycle = self.__dict__["cycle"] = tuple(self.cycle)
        if (any(type(v) is not int for v in cycle) or sorted(cycle) != [1, 2, 3, 4]
                or not isinstance(self.direction, Direction)):  # "forward" == FORWARD holds
            raise IndexOutOfRangeError(f"{cycle}, {self.direction!r}: not a listing of 1..4 and a Direction")
        listing = cycle[:1] + cycle[:0:-1] if self.direction is Direction.BACKWARD else cycle
        turned = listing[1:] + listing[:1]
        masks = arc_mask(4, zip(listing, turned)), arc_mask(4, zip(turned, listing))
        self.__dict__["directed"] = listing
        self.__dict__["_arc_masks"] = masks if self.direction is Direction.CONSISTENT_BOTH else masks[:1]


# (canonical cycle, sign of its product minus 1) -> its orientation: the nine records, built once.
_ORIENTATIONS = {
    (c, s): CycleOrientation(c, direction) for c in CANONICAL_CYCLES
    for s, direction in ((-1, Direction.FORWARD), (0, Direction.CONSISTENT_BOTH), (1, Direction.BACKWARD))
}


def canonical_orientations(pcm: Pcm) -> tuple[CycleOrientation, CycleOrientation, CycleOrientation]:
    """The orientations of the three canonical cycles, in CANONICAL_CYCLES order."""
    return tuple(_ORIENTATIONS[c, s] for c, s in zip(CANONICAL_CYCLES, pcm.signs[1]))


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
    _, s = pcm.signs
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
    t, _ = pcm.signs
    if 0 in t:
        raise ConsistentTriadPresentError("triad relations must all be strict")
    # relabelled triads in CANONICAL_TRIADS order: (1,2,3), (1,2,4), (1,3,4), (2,3,4)
    for mapping, ((k0, e0), (k1, e1), (k2, e2), (k3, e3)) in _TRIAD_IMAGES:
        if e0 * t[k0] < 0 and e2 * t[k2] < 0 and e3 * t[k3] < 0:
            perm = Permutation(mapping)
            case = 1 if e1 * t[k1] < 0 else 2
            return perm, apply_permutation(pcm, perm), case
    raise AssertionError("unreachable: parity argument guarantees one of the two cases")


class Tetrahedron(Record):
    """One cycle's four path-tree vertices, vertex k the vector points[k] / sum(points[k]);
    each point is kept reduced, so equal vertices are equal points.  The cycle is the
    orientation's, and ``cycle`` and ``degenerate_rank`` are kept outside the fields: the
    rank is 0 for a consistent cycle, whose four points coincide, and 3 otherwise."""

    orientation: CycleOrientation
    points: tuple[tuple[int, int, int, int], ...]

    def __post_init__(self):
        self.__dict__["points"] = tuple(tuple(x // g for x in p) for p in self.points for g in [math.gcd(*p)])
        self.__dict__["cycle"] = self.orientation.cycle
        self.__dict__["degenerate_rank"] = 0 if self.orientation.direction is Direction.CONSISTENT_BOTH else 3

    @functools.cached_property
    def vertices(self) -> tuple[WeightVector, WeightVector, WeightVector, WeightVector]:
        """Each point as its normalized exact weight vector, built when first read."""
        return tuple(WeightVector(p, sum(p), 0) for p in self.points)  # gcd(p) = 1: in lowest terms

    @functools.cached_property
    def embedded(self) -> tuple[tuple[float, float, float], ...]:
        """``embed`` of each vertex, computed once and kept outside the fields."""
        return tuple(_embedded(p, sum(p)) for p in self.points)

    def vertex_strings(self) -> list[list[str]]:
        """Each vertex's exact components as ``format_rational`` text."""
        return [[format_rational(x, total) for x in p] for p in self.points for total in [sum(p)]]


PATH_TREES = {c: tuple(paths_of_cycle(c)) for c in CANONICAL_CYCLES}
# each canonical cycle's path trees as sorted edge lists, in vertex order
_PATH_EDGES = {cycle: tuple(tree.sorted_edges() for tree in trees) for cycle, trees in PATH_TREES.items()}

# Outward faces of a solid tetrahedron, the k-th opposite vertex k (0-based).
# Its region's slack rows S, each ordered by the vertex whose path omits that
# arc's edge, satisfy S [T_1..T_4] = diag(s_k(T_k)) > 0, so det[T_1..T_4] has
# the sign of det S = sign(perm) * (1 - p), p < 1 in the admissible direction.
# perm is odd forward and even backward for every canonical cycle.
_OUTWARD_FACES = {
    Direction.FORWARD: ((1, 3, 2), (0, 2, 3), (0, 3, 1), (0, 1, 2)),
    Direction.BACKWARD: ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)),
}


def tetrahedron_for_cycle(pcm: Pcm, cycle: tuple[int, int, int, int]) -> Tetrahedron:
    """The tetrahedron of a canonical 4-cycle of a 4x4 matrix: its orientation and the points
    of its four path trees.  An inconsistent cycle's four inequalities have a strictly
    feasible point, so its tetrahedron is solid; a consistent one's is a point.  Any other
    listing raises ``NotACanonicalCycle``."""
    sign = pcm.signs[1][canonical_index(cycle)]
    points = tuple(tree_integers(pcm, tree) for tree in PATH_TREES[cycle])
    return Tetrahedron(_ORIENTATIONS[cycle, sign], points)


def contains_cycle_region(digraph: BccDigraph, orientation: CycleOrientation) -> bool:
    """Is w, whose BCC digraph is given, in the region of the oriented cycle?

    It is when the digraph holds the four arcs (a, b) of the admissibly
    oriented cycle, w_a/w_b >= a_ab.  A consistent cycle's region is the
    point where all four are equalities; as ratios and entries have the same
    product along it, an exact w holding it in either direction is there.
    Each arc mask the orientation keeps is one test on the digraph's, whose
    layout is a 4-vertex one: any other digraph raises ``DimensionMismatch``.
    """
    if digraph.n != 4:
        raise DimensionMismatchError(f"4-cycle region with a {digraph.n}-vertex digraph")
    arcs = digraph.arc_mask
    for need in orientation._arc_masks:
        if arcs & need == need:
            return True
    return False


def _band_orientations(pcm: Pcm, w: WeightVector) -> tuple[CycleOrientation, ...]:
    """The orientation whose arc masks a region test for w reads, per canonical cycle.

    A vector w with band t = ``w.band`` holds the arc (a, b) exactly when
    w_a/w_b >= (1 - t) a_ab, the one band rule of ``bcc_digraph``, so along a
    cycle it holds, the entries' product in the held direction is at most
    (1 - t)^-4.  A cycle whose exact product P lies in [(1 - t)^4, (1 - t)^-4]
    can so be held in either direction, and is read through its consistent
    record's two arc masks; for t >= 1 every cycle is.  With t = 0, as for an
    exact vector, the admissible orientations are returned as they are.
    """
    orientations = canonical_orientations(pcm)
    band = w.band
    if not band:
        return orientations
    low = (1 - band) ** 4
    return tuple(
        _ORIENTATIONS[o.cycle, 0]
        if band >= 1 or low <= cycle_product(pcm, o.cycle) <= 1 / low else o
        for o in orientations
    )


def is_efficient_geometric(pcm: Pcm, w: WeightVector) -> bool:
    """Efficiency by geometry: membership in at least one cycle region."""
    orientations = _band_orientations(pcm, w)
    digraph = bcc_digraph(pcm, w)
    return any(contains_cycle_region(digraph, orientation) for orientation in orientations)


# ---------------------------------------------------------------------------
# exact linear algebra on small systems


def affine_rank(points: Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull of the given exact points.

    Gauss-Jordan elimination over the rationals on the differences from
    the first point; the pivot count is the rank.
    """
    if len(points) <= 1:
        return 0
    base = points[0]
    rows = [[p[i] - base[i] for i in range(len(base))] for p in points[1:]]
    rank = 0
    for c in range(len(base)):
        if rank == len(rows):
            break
        pivot_row = next((i for i in range(rank, len(rows)) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][c]
        rows[rank] = [v / pivot for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                factor = rows[i][c]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def barycentric(tet: Tetrahedron, w: WeightVector):
    """Exact convex coefficients of w / sum(w) over the tetrahedron vertices, if any.

    w is any positive 4-vector, whatever its band, read through its
    ``integer_form`` y / s; w / sum(w) is y / sum(y).  Vertex k's path omits
    the cycle edge {a, b} = {cycle[k-1], cycle[k]}; the other three vertices
    keep it, as does vertex k+1 (mod 4), u.  So x_a*u_b - x_b*u_a vanishes on
    every vertex but k, and on y / sum(y) = sum(lambda_j * v_j) it leaves
    lambda_k times its value at v = vertex k, which is nonzero unless the
    cycle is consistent.  The coefficients sum to 1 because the vertices are
    normalized.  A point tetrahedron holds w only when w is a multiple of its
    point.
    """
    if w.n != 4:
        raise DimensionMismatchError(f"barycentric needs 4 components, got {w.n}")
    y, _ = w.integer_form
    total = sum(y)
    points = tet.points
    if tet.degenerate_rank == 0:
        v, zero = points[0], Fraction(0)
        multiple = all(y_m * v[0] == y[0] * v_m for y_m, v_m in zip(y, v))
        return (Fraction(1), zero, zero, zero) if multiple else None
    lambdas = []
    for k in range(4):
        a, b = tet.cycle[k - 1] - 1, tet.cycle[k] - 1
        v, u = points[k], points[(k + 1) % 4]
        lambdas.append(Fraction((y[a] * u[b] - y[b] * u[a]) * sum(v), (v[a] * u[b] - v[b] * u[a]) * total))
    return tuple(lambdas) if all(lam >= 0 for lam in lambdas) else None


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


class PerturbClass(Record):
    """Taxonomy by counts of exactly consistent triads and 4-cycles: the counts fix ``tag``,
    kept outside the fields, and a pair outside the six admissible ones raises."""

    consistent_triad_count: int
    consistent_cycle_count: int

    def __post_init__(self):
        counts = (self.consistent_triad_count, self.consistent_cycle_count)
        if counts not in _ADMISSIBLE_COUNTS:
            raise ImpossibleCombinationError(*counts)
        self.__dict__["tag"] = _ADMISSIBLE_COUNTS[counts]


_CLASSES = {counts: PerturbClass(*counts) for counts in _ADMISSIBLE_COUNTS}


def classify_signs(triad_signs: Sequence[int], cycle_signs: Sequence[int]) -> PerturbClass:
    """Map the consistency-count pair of seven signs to its class; impossible pairs raise.

    The raise doubles as a falsification probe: no positive reciprocal 4x4
    matrix should ever produce a pair outside the six admissible ones.
    """
    counts = triad_signs.count(0), cycle_signs.count(0)
    return _CLASSES.get(counts) or PerturbClass(*counts)  # the constructor raises


def classify(pcm: Pcm) -> PerturbClass:
    """The class of a 4x4 matrix, from its seven signs (``classify_signs``)."""
    return classify_signs(*pcm.signs)


class CoincidenceReport(Record):
    """Exact shared-vertex / collinear-edge / coplanar-face structure.

    Vertex indices are 1-based positions in the tetrahedron vertex order;
    edges and faces are sorted index tuples.  Only nondegenerate edges
    (distinct endpoints) and faces (affine rank 2) participate in the
    collinearity and coplanarity listings, so only pairs of solid
    tetrahedra have any.  Every entry is decided by which triads and cycles
    are consistent (see ``_coincidence_table``).
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


def _omitted(cycle: tuple[int, int, int, int], k: int) -> frozenset:
    """The cycle edge that the path of vertex k (0-based) leaves out."""
    return frozenset((cycle[k - 1], cycle[k]))


def _coincidence_table():
    """Per pair of canonical cycles: their sign bits and every possible
    shared vertex, collinear edge pair and coplanar face pair, each with the
    bitmask of the signs (bit 0-3 triads, bit 4-6 cycles) that must be 0.

    Two path vectors are equal iff every edge {x, y} of the second path
    that the first lacks closes a consistent triad, or the first path's
    whole cycle, with the first path's walk from x to y.  A face of a solid tetrahedron lies on
    the cutting plane of the edge its opposite vertex omits; distinct edges
    give distinct planes.  An edge lies on the planes of its two opposite
    vertices, and on the third plane of their triad when they share a
    vertex and the triad is consistent.  Lines on the same planes are
    equal, so two edges are collinear iff they lie on the same two planes
    or all four of their planes are pairs of one consistent triad.
    """
    table = []
    for (a, ca), (b, cb) in itertools.combinations(enumerate(CANONICAL_CYCLES), 2):
        vertex_pairs = []
        for i, j in itertools.product(range(4), repeat=2):
            path, other, needs = ca[i:] + ca[:i], cb[j:] + cb[:j], 0
            for x, y in zip(other, other[1:]):
                lo, hi = sorted((path.index(x), path.index(y)))
                if hi - lo == 2:
                    needs |= 1 << CANONICAL_TRIADS.index(tuple(sorted(path[lo:hi + 1])))
                elif hi - lo == 3:
                    needs |= 1 << 4 + a
            vertex_pairs.append(((ca, i + 1, cb, j + 1), needs))
        lines = [
            [((c, (i + 1, j + 1)), frozenset(_omitted(c, k) for k in range(4) if k not in (i, j)))
             for i, j in itertools.combinations(range(4), 2)]
            for c in (ca, cb)
        ]
        edge_pairs = []
        for (ea, planes_a), (eb, planes_b) in itertools.product(*lines):
            corners = tuple(sorted(frozenset().union(*planes_a, *planes_b)))
            if planes_a == planes_b:
                edge_pairs.append(((ea, eb), 0))
            elif len(corners) == 3:
                edge_pairs.append(((ea, eb), 1 << CANONICAL_TRIADS.index(corners)))
        faces = [  # in index order, the faces opposite vertex 3, 2, 1, 0
            [((c, tuple(m + 1 for m in range(4) if m != k)), _omitted(c, k)) for k in (3, 2, 1, 0)]
            for c in (ca, cb)
        ]
        face_pairs = [(fa, fb) for (fa, pa), (fb, pb) in itertools.product(*faces) if pa == pb]
        table.append((1 << 4 + a | 1 << 4 + b, vertex_pairs, edge_pairs, face_pairs))
    return tuple(table)


_COINCIDENCES = _coincidence_table()


def _coincidence_report(pcm: Pcm) -> CoincidenceReport:
    """The table entries whose conditions the matrix's seven signs meet."""
    triad_signs, cycle_signs = pcm.signs
    nonzero = sum(1 << i for i, s in enumerate(triad_signs + cycle_signs) if s)
    shared, collinear, coplanar = [], [], []
    for both, vertex_pairs, edge_pairs, face_pairs in _COINCIDENCES:
        shared += [entry for entry, needs in vertex_pairs if not needs & nonzero]
        if both & nonzero == both:  # both tetrahedra solid
            collinear += [entry for entry, needs in edge_pairs if not needs & nonzero]
            coplanar += face_pairs
    points = tuple(c for c, s in zip(CANONICAL_CYCLES, cycle_signs) if not s)
    return CoincidenceReport(tuple(shared), tuple(collinear), tuple(coplanar), points)


class EfficientSet(Record):
    """The three tetrahedra, in ``CANONICAL_CYCLES`` order, classification and coincidence structure."""

    tetrahedra: tuple[Tetrahedron, Tetrahedron, Tetrahedron]
    classification: PerturbClass
    coincidences: CoincidenceReport

    def tetrahedron(self, cycle: tuple) -> Tetrahedron:
        """The tetrahedron of a canonical cycle; any other listing raises ``NotACanonicalCycle``."""
        return self.tetrahedra[canonical_index(cycle)]


def efficient_set(pcm: Pcm) -> EfficientSet:
    """The full efficient set of a 4x4 matrix, exactly; kept on the matrix by hand, the
    one value so kept, as ``pcm`` cannot import this module to make it a cached property."""
    if "_efficient_set" not in pcm.__dict__:
        tetrahedra = tuple(tetrahedron_for_cycle(pcm, c) for c in CANONICAL_CYCLES)
        effset = EfficientSet(tetrahedra, classify(pcm), _coincidence_report(pcm))
        pcm.__dict__["_efficient_set"] = effset
    return pcm.__dict__["_efficient_set"]


# ---------------------------------------------------------------------------
# 3-simplex embedding


def _embedded(x: Sequence[int], total: int) -> tuple[float, float, float]:
    """``embed`` of the vector x1..x4 / total: each int / int rounds correctly, once."""
    x1, x2, x3, _ = x
    return ((x1 + x2) / total, (x1 + x3) / total, (x2 + x3) / total)


def embed(w: WeightVector) -> tuple[float, float, float]:
    """(w1+w2, w1+w3, w2+w3) of w / sum(w), for a positive 4-vector w, whatever its band:
    read as its ``integer_form`` x / d, w / sum(w) is x / sum(x) (``_embedded``)."""
    if w.n != 4:
        raise DimensionMismatchError(f"embedding needs 4 components, got {w.n}")
    x, _ = w.integer_form
    return _embedded(x, sum(x))


SIMPLEX_CORNERS = (
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
    (0.0, 0.0, 0.0),
)
