"""Brute-force and randomized oracles that check the library's theory.

None of this is needed to decide efficiency or build the efficient set; the
tests use it as independent reference implementations: exhaustive
Hamiltonian-cycle search (Camion), strong connectivity by transitive
closure, Pareto dominance and a randomized dominator search, spanning-tree
and path enumeration (with the path tree of a vertex ordering), the
orientation of any cycle listing by its Fraction product (the library
orients the canonical cycles from their signs), the region test on arcs
zipped from the listing per call (the library keeps them per orientation), tree
restrictions to incomplete matrices, tree vectors by Fraction products
(the library uses integer chains), numerals converted by ``Fraction(str)``
(the library converts its regex groups), the cell-by-cell validation
loop, relabelling entry by entry, the BCC digraph from Fraction ratios
(the library cross-multiplies integer pairs), digraph records from arc sets
by their own mask encoder (the library sets bits from signs) and barycentric coefficients
in Fraction arithmetic (the library reads
integer pairs and integer forms), the clip polygons' split points written
out coordinate by coordinate (the library calls ``_embedded``), the geometry document's
exact-vertex reader and the exact cutting-plane polygons that its clip
polygons embed (the library writes them from each entry's numerator and
denominator), the 24-matrix rearrangement
searches that the library's rearrangements must reproduce, the
coincidence report by fraction row reduction and the mesh faces' outward
orientation by cross and dot products, both of which the library derives
from the seven product signs instead, and the unrounded 3-space embedding
that the library's rounded one must match.  It also holds the small
accessors, relabellings and consistency listings that only the tests read
values through (entries, ratios, scaled, normalized and permuted vectors,
inverse and identity permutations, tree degrees, tetrahedron vertex points, the
consistent triads and 4-cycles), and consistency of any matrix by its triad
products (the library checks a_ij * a_jn = a_in on integer pairs).
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction

from effpcm.efficiency import BccDigraph
from effpcm.geometry import (
    CoincidenceReport,
    CycleOrientation,
    Direction,
    Tetrahedron,
    _oriented,
    affine_rank,
)
from effpcm.errors import (
    BadNumeralError,
    ConsistentTriadPresentError,
    DimensionMismatchError,
    InputError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocityViolationError,
)
from effpcm.pcm import (
    CANONICAL_CYCLES,
    CANONICAL_TRIADS,
    Pcm,
    Permutation,
    WeightVector,
    _require_n4,
    apply_permutation,
    cycle_product,
    format_rational,
    parse_rational,
    pcm_from_upper,
    triad_product,
)
from effpcm.trees import SpanningTree, _walk

MAX_ENUMERATION_N = 6


class DimensionTooLargeError(InputError):
    """An enumeration asked for past the size the oracles enumerate."""

    code = "DimensionTooLarge"


# ---------------------------------------------------------------------------
# accessors, relabellings and consistency listings the tests read values through


def entry(pcm: Pcm, i: int, j: int) -> Fraction:
    """Entry a_ij, 1-based."""
    return pcm.entries[i - 1][j - 1]


def ratio(w: WeightVector, i: int, j: int):
    """w_i / w_j, 1-based."""
    return w.components[i - 1] / w.components[j - 1]


def vector_of(components, band=0) -> WeightVector:
    """The WeightVector of rational components with the given band: each component
    times the product of the denominators, all divided by one gcd; the library forms
    x / d over the lcm of the denominators instead."""
    fractions = [Fraction(c) for c in components]
    d = math.prod(c.denominator for c in fractions)
    x = [c.numerator * (d // c.denominator) for c in fractions]
    g = math.gcd(d, *x)
    return WeightVector(tuple(v // g for v in x), d // g, band)


def scaled(w: WeightVector, factor) -> WeightVector:
    return vector_of([c * factor for c in w.components], w.band)


def normalized(w: WeightVector) -> WeightVector:
    """w / sum(w) by Fraction division, with w's band."""
    total = sum(w.components)
    return vector_of([c / total for c in w.components], w.band)


def identity_permutation(n: int) -> Permutation:
    return Permutation(tuple(range(1, n + 1)))


def inverse_permutation(perm: Permutation) -> Permutation:
    inv = [0] * perm.n
    for i, image in enumerate(perm.mapping, start=1):
        inv[image - 1] = i
    return Permutation(tuple(inv))


def permute_weights(w: WeightVector, perm: Permutation) -> WeightVector:
    """Reindex a weight vector consistently with apply_permutation: v_i = w_{perm(i)}."""
    if perm.n != w.n:
        raise DimensionMismatchError("permutation and weight vector lengths differ")
    return vector_of([w.components[k - 1] for k in perm.mapping], w.band)


def is_consistent(pcm: Pcm) -> bool:
    """True iff a_ij * a_jk = a_ik for all triples, by a Fraction product per triad;
    the library's ``consistent_weights`` cross-multiplies a_ij * a_jn = a_in instead."""
    for i in range(1, pcm.n + 1):
        for j in range(i + 1, pcm.n + 1):
            for k in range(j + 1, pcm.n + 1):
                if triad_product(pcm, (i, j, k)) != 1:
                    return False
    return True


def consistent_triads(pcm: Pcm) -> list[tuple[int, int, int]]:
    """The canonical triads of a 4x4 matrix whose product is exactly 1."""
    triad_signs, _ = pcm.signs
    return [t for t, s in zip(CANONICAL_TRIADS, triad_signs) if s == 0]


def consistent_four_cycles(pcm: Pcm) -> list[tuple[int, int, int, int]]:
    """The canonical undirected 4-cycles of a 4x4 matrix whose product is exactly 1."""
    _, cycle_signs = pcm.signs
    return [c for c, s in zip(CANONICAL_CYCLES, cycle_signs) if s == 0]


def tree_degrees(tree: SpanningTree) -> dict[int, int]:
    deg = {v: 0 for v in range(1, tree.n + 1)}
    for (a, b) in tree.edges:
        deg[a] += 1
        deg[b] += 1
    return deg


def vertex_points(tet: Tetrahedron) -> list[tuple[Fraction, ...]]:
    """The tetrahedron's vertices as exact points of the weight simplex."""
    return [v.components for v in tet.vertices]


def cycle_orientation(pcm: Pcm, cycle: tuple[int, int, int, int]) -> CycleOrientation:
    """Forward when the cycle product is < 1, backward when > 1, both on equality.

    Takes any vertex listing, through the Fraction product of its entries.
    """
    _require_n4(pcm)
    product = cycle_product(pcm, cycle)
    return _oriented(cycle, (product > 1) - (product < 1))


def contains_cycle_region_by_zip(digraph: BccDigraph, orientation: CycleOrientation) -> bool:
    """The region test with the orientation's arcs zipped from its listing on every
    call, and reversed for a consistent cycle that the digraph does not hold
    forward; the library keeps each orientation's arc sets."""
    listing = orientation.directed
    arcs = set(zip(listing, listing[1:] + listing[:1]))
    if orientation.direction is Direction.CONSISTENT_BOTH and not arcs <= digraph.arcs:
        arcs = {(b, a) for a, b in arcs}
    return arcs <= digraph.arcs


def validate_by_cells(pairs) -> None:
    """The Pcm checks cell by cell on Fraction values: each cell's form and
    positivity over the grid in row-major order, then a_ij * a_ji == 1 over the
    upper triangle and diagonal; the library compares swapped pairs instead."""
    n = len(pairs)
    if n == 0 or any(len(row) != n for row in pairs):
        raise NonSquareError("entries must form a nonempty square grid")
    for i, row in enumerate(pairs, start=1):
        for j, cell in enumerate(row, start=1):
            if not (isinstance(cell, tuple) and len(cell) == 2 and all(type(x) is int for x in cell)
                    and cell[1] > 0 and Fraction(*cell).as_integer_ratio() == cell):
                raise BadNumeralError(f"a[{i},{j}]={cell!r} is not an int pair in lowest terms")
            if Fraction(*cell) <= 0:
                raise NonPositiveEntryError(i, j, f"a[{i},{j}]={format_rational(Fraction(*cell))}")
    for i in range(n):
        for j in range(i, n):
            a_ij, a_ji = Fraction(*pairs[i][j]), Fraction(*pairs[j][i])
            if a_ij * a_ji != 1:
                raise ReciprocityViolationError(
                    j + 1, i + 1,
                    f"a[{j + 1},{i + 1}]={format_rational(a_ji)} is not the reciprocal "
                    f"of a[{i + 1},{j + 1}]={format_rational(a_ij)}",
                )


def apply_permutation_by_entries(pcm: Pcm, perm: Permutation) -> Pcm:
    """b_ij = a_{perm(i), perm(j)}, read entry by entry through ``entry``; the
    library indexes whole rows by the mapping instead."""
    image = perm.mapping
    return pcm_from_upper(pcm.n, {
        (i, j): entry(pcm, image[i - 1], image[j - 1])
        for i in range(1, pcm.n + 1) for j in range(i + 1, pcm.n + 1)
    })


# ---------------------------------------------------------------------------
# digraphs and dominance


def band_ratio_sign(ratio: Fraction, target: Fraction, band) -> int:
    """Sign of ratio - target, where |ratio - target| <= band * target is
    equality: the equality band's rule in Fraction arithmetic."""
    if abs(ratio - target) <= Fraction(band) * target:
        return 0
    return (ratio > target) - (ratio < target)


def bcc_digraph_by_ratios(pcm: Pcm, w: WeightVector) -> BccDigraph:
    """The BCC digraph with each pair decided by comparing the Fraction ratio
    w_i/w_j with a_ij by ``band_ratio_sign``, within w's band: within
    band * a_ij, exactly for band 0."""
    arcs = set()
    for i in range(1, pcm.n + 1):
        for j in range(i + 1, pcm.n + 1):
            sign = band_ratio_sign(ratio(w, i, j), entry(pcm, i, j), w.band)
            if sign >= 0:
                arcs.add((i, j))
            if sign <= 0:
                arcs.add((j, i))
    return digraph_of(pcm.n, arcs)


def digraph_of(n: int, arcs) -> BccDigraph:
    """The record of an arc set, each arc (i, j) as bit (i - 1) n + (j - 1) of its
    mask, summed over the distinct arcs; the library ORs a per-n table of pair
    bits instead."""
    return BccDigraph(n, sum(1 << (i - 1) * n + (j - 1) for i, j in set(arcs)))


def strongly_connected_by_closure(g: BccDigraph) -> bool:
    """Strong connectivity from the boolean transitive closure (Warshall)."""
    reach = [[i == j or (i, j) in g.arcs for j in range(1, g.n + 1)] for i in range(1, g.n + 1)]
    for k in range(g.n):
        for i in range(g.n):
            if reach[i][k]:
                reach[i] = [a or b for a, b in zip(reach[i], reach[k])]
    return all(all(row) for row in reach)


def hamiltonian_cycle_exists(g: BccDigraph) -> bool:
    """Brute-force directed Hamiltonian cycle search, capped at n <= 8."""
    if g.n > 8:
        raise DimensionTooLargeError(f"Hamiltonian enumeration capped at n=8, got n={g.n}")
    if g.n == 1:
        return True
    vertices = list(range(2, g.n + 1))
    for rest in itertools.permutations(vertices):
        ordering = (1,) + rest
        if all(
            (ordering[k], ordering[(k + 1) % g.n]) in g.arcs
            for k in range(g.n)
        ):
            return True
    return False


@dataclass(frozen=True)
class DominanceVerdict:
    dominates: bool
    strict_pair: tuple[int, int] | None

    def __post_init__(self):
        if self.dominates and self.strict_pair is None:
            raise ValueError("a dominating vector must exhibit a strict pair")


def dominates(pcm: Pcm, w_new: WeightVector, w_old: WeightVector) -> DominanceVerdict:
    """Pareto dominance: w_new approximates every entry at least as well as
    w_old, and at least one entry strictly better.

    Exact arithmetic on the components; the bands are not read.  The first
    strictly improved ordered pair (row-major) is reported.
    """
    if pcm.n != w_new.n or pcm.n != w_old.n:
        raise DimensionMismatchError("matrix and weight vectors disagree")
    strict: tuple[int, int] | None = None
    for i in range(1, pcm.n + 1):
        for j in range(1, pcm.n + 1):
            if i == j:
                continue
            a = pcm.entries[i - 1][j - 1]
            err_new = abs(a - ratio(w_new, i, j))
            err_old = abs(a - ratio(w_old, i, j))
            if err_new > err_old:
                return DominanceVerdict(False, None)
            if strict is None and err_new < err_old:
                strict = (i, j)
    if strict is None:
        return DominanceVerdict(False, None)
    return DominanceVerdict(True, strict)


_PERTURBATION_SCALES = (1.0, 0.25, 0.0625)


def find_dominator_sample(
    pcm: Pcm,
    w: WeightVector,
    trials: int,
    seed: int,
) -> WeightVector | None:
    """Randomized multiplicative search for a dominating vector.

    Each trial perturbs w by component-wise factors exp(u) with u uniform on
    a symmetric range (base [-0.5, 0.5], cycled down for fine moves) and
    normalizes; the first candidate that dominates w is returned.  Trials
    alternate between independent per-component factors and a single shared
    factor on a random vertex subset.  The shared-factor move keeps ratios
    inside the subset exactly unchanged, which is essential whenever some
    entry is estimated perfectly: a dominator must reproduce that equality
    exactly, an event of probability zero under independent factors.

    The factors are converted to rationals, so the dominance re-check is
    exact and a returned vector always truly dominates.
    Positivity is preserved by construction; deterministic for a fixed seed.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    n = pcm.n
    subsets = [
        [i for i in range(n) if mask >> i & 1]
        for mask in range(1, 2 ** n - 1)
    ]
    for trial in range(trials):
        scale = _PERTURBATION_SCALES[trial % len(_PERTURBATION_SCALES)]
        if rng.random() < 0.5:
            shifts = [rng.uniform(-0.5, 0.5) * scale for _ in range(n)]
        else:
            shift = rng.uniform(-0.5, 0.5) * scale
            member = rng.choice(subsets)
            shifts = [shift if i in member else 0.0 for i in range(n)]
        factors = [math.exp(u) for u in shifts]
        components = tuple(
            c * Fraction(f).limit_denominator(10 ** 6)
            for c, f in zip(w.components, factors)
        )
        candidate = normalized(vector_of(components, w.band))
        if dominates(pcm, candidate, w).dominates:
            return candidate
    return None


# ---------------------------------------------------------------------------
# spanning trees, paths and incomplete matrices


def _check_enumeration_size(n: int) -> None:
    if not 2 <= n <= MAX_ENUMERATION_N:
        raise DimensionTooLargeError(
            f"enumeration supported for 2 <= n <= {MAX_ENUMERATION_N}, got {n}"
        )


def enumerate_spanning_trees(n: int) -> list[SpanningTree]:
    """All labeled spanning trees of K_n, ordered by sorted edge list."""
    _check_enumeration_size(n)
    all_edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    trees = []
    for subset in itertools.combinations(all_edges, n - 1):
        try:
            trees.append(SpanningTree(n, frozenset(subset)))
        except ValueError:  # the edge subset has a cycle
            continue
    trees.sort(key=lambda t: t.sorted_edges())
    return trees


def path_tree(sequence) -> SpanningTree:
    """The spanning tree of the Hamiltonian path visiting ``sequence`` in order."""
    edges = frozenset((min(a, b), max(a, b)) for a, b in zip(sequence, sequence[1:]))
    return SpanningTree(len(sequence), edges)


def enumerate_labeled_paths(n: int) -> list[SpanningTree]:
    """The path tree of each undirected Hamiltonian path, listed from its
    smaller endpoint, in lexicographic order of those listings."""
    _check_enumeration_size(n)
    return [path_tree(perm) for perm in itertools.permutations(range(1, n + 1))
            if perm[0] < perm[-1]]


@dataclass(frozen=True)
class IncompletePcm:
    """A reciprocal matrix with symmetric missing pairs (None entries)."""

    entries: tuple[tuple[Fraction | None, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise NonSquareError("entries must form a nonempty square grid")
        for i in range(1, n + 1):
            if self.entries[i - 1][i - 1] != 1:
                raise ReciprocityViolationError(i, i, "diagonal must be 1")
            for j in range(i + 1, n + 1):
                a_ij = self.entries[i - 1][j - 1]
                a_ji = self.entries[j - 1][i - 1]
                if (a_ij is None) != (a_ji is None):
                    raise ReciprocityViolationError(j, i, "missing entries must be symmetric")
                if a_ij is not None:
                    if a_ij <= 0:
                        raise NonPositiveEntryError(i, j)
                    if a_ij * a_ji != 1:
                        raise ReciprocityViolationError(j, i)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> Fraction | None:
        return self.entries[i - 1][j - 1]

    def known_pairs(self) -> frozenset[tuple[int, int]]:
        """Edges {i,j}, i<j, of the representing graph of known comparisons."""
        return frozenset(
            (i, j)
            for i in range(1, self.n + 1)
            for j in range(i + 1, self.n + 1)
            if self.entries[i - 1][j - 1] is not None
        )


def restrict(pcm: Pcm, tree: SpanningTree) -> IncompletePcm:
    """Keep exactly the tree-edge comparisons (plus the diagonal)."""
    if tree.n != pcm.n:
        raise DimensionMismatchError(f"tree on 1..{tree.n} with {pcm.n}x{pcm.n} matrix")
    grid: list[list[Fraction | None]] = [[None] * pcm.n for _ in range(pcm.n)]
    for i in range(pcm.n):
        grid[i][i] = Fraction(1)
    for (a, b) in tree.edges:
        grid[a - 1][b - 1] = pcm.entries[a - 1][b - 1]
        grid[b - 1][a - 1] = pcm.entries[b - 1][a - 1]
    return IncompletePcm(tuple(tuple(row) for row in grid))


def tree_weight_vector_by_fractions(pcm: Pcm, tree: SpanningTree) -> WeightVector:
    """The tree vector by Fraction products along the walk from root n and a
    Fraction normalization; the library carries integer numerator and
    denominator chains instead."""
    if tree.n != pcm.n:
        raise DimensionMismatchError(f"tree on 1..{tree.n} with {pcm.n}x{pcm.n} matrix")
    raw: dict[int, Fraction] = {pcm.n: Fraction(1)}
    for parent, child in _walk(pcm.n, tree.edges):
        # w_child / w_parent = a_{child,parent} on a tree edge
        raw[child] = raw[parent] * pcm.entries[child - 1][parent - 1]
    return normalized(vector_of([raw[v] for v in range(1, pcm.n + 1)]))


# ---------------------------------------------------------------------------
# numerals

_NUMERAL_RE = re.compile(r"^[+-]?\d+(?:/\d+|\.\d{1,15})?$", re.ASCII)


def parse_rational_by_fraction_string(text: Fraction | int | float | str) -> Fraction:
    """The numeral checked by one regex and then converted by ``Fraction(str)``,
    which matches it a second time; the library converts its regex groups
    with ``int`` instead."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, bool):
        raise BadNumeralError(f"{text!r} is not a numeral")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        text = repr(text)
    if not isinstance(text, str):
        raise BadNumeralError(f"{text!r} is not a Fraction, int, float or str")
    stripped = text.strip(" \t\n\r\f\v")  # ASCII padding only
    if not _NUMERAL_RE.match(stripped):
        raise BadNumeralError(f"{text!r} is not 'p', 'p/q' or a short decimal")
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise BadNumeralError(f"{text!r} ({exc})") from exc


# ---------------------------------------------------------------------------
# export round trip


def barycentric_by_fractions(tet: Tetrahedron, w: WeightVector):
    """``geometry.barycentric`` in Fraction arithmetic throughout: the components
    of w divided by their sum; the library works on the integer forms of w and
    of the vertices."""
    total = sum(w.components)
    target = [c / total for c in w.components]
    vertices = [v.components for v in tet.vertices]
    if tet.degenerate_rank == 0:
        multiple = target == list(vertices[0])
        return (Fraction(1), Fraction(0), Fraction(0), Fraction(0)) if multiple else None
    lambdas = []
    for k in range(4):
        a, b = tet.cycle[k - 1] - 1, tet.cycle[k] - 1
        v, u = vertices[k], vertices[(k + 1) % 4]
        lambdas.append((target[a] * u[b] - target[b] * u[a]) / (v[a] * u[b] - v[b] * u[a]))
    return tuple(lambdas) if all(lam >= 0 for lam in lambdas) else None


def clip_split_by_sums(pair: tuple[int, int], value: Fraction) -> list[float]:
    """The embedded split point of a clip polygon, written out as
    ((x1 + x2), (x1 + x3), (x2 + x3)) over n + d with n at i and d at j; the
    library calls ``_embedded`` on the split point."""
    i, j = pair
    n, d = value.numerator, value.denominator
    x1, x2, x3 = (n if k == i else d if k == j else 0 for k in (1, 2, 3))
    return [(x1 + x2) / (n + d), (x1 + x3) / (n + d), (x2 + x3) / (n + d)]


def parse_exact_vertices(doc: dict) -> list[list[tuple[Fraction, ...]]]:
    """Recover the exact tetrahedron vertices from a geometry document."""
    out = []
    for tet in doc["tetrahedra"]:
        out.append([
            tuple(parse_rational(s) for s in vertex)
            for vertex in tet["vertices_exact"]
        ])
    return out


def plane_clip_polygon(pair: tuple[int, int], value: Fraction) -> list[tuple[Fraction, ...]]:
    """Vertices of the cutting plane w_i = value * w_j inside the closed weight simplex.

    The plane meets the simplex in the triangle spanned by the point splitting
    the (i, j) edge in ratio value : 1 and the two opposite corners (where
    w_i = w_j = 0).
    """
    i, j = pair
    n, d = value.numerator, value.denominator
    split = [Fraction(0)] * 4
    split[i - 1] = Fraction(n, n + d)
    split[j - 1] = Fraction(d, n + d)
    corners = [k for k in range(1, 5) if k not in (i, j)]
    return [tuple(split)] + [tuple(Fraction(int(m == k)) for m in range(1, 5)) for k in corners]


# ---------------------------------------------------------------------------
# reference rearrangements: build and test all 24 relabelled matrices


def canonical_rearrangement_search(pcm: Pcm) -> tuple[Permutation, Pcm]:
    """First relabelling, in lexicographic order, whose three cycle products are <= 1."""
    for mapping in itertools.permutations((1, 2, 3, 4)):
        perm = Permutation(mapping)
        candidate = apply_permutation(pcm, perm)
        if all(cycle_product(candidate, c) <= 1 for c in CANONICAL_CYCLES):
            return perm, candidate
    raise AssertionError("unreachable: some reindexing always exists")


def triad_rearrangement_search(pcm: Pcm) -> tuple[Permutation, Pcm, int]:
    """First relabelling, in lexicographic order, in triad case 1 or case 2."""
    if consistent_triads(pcm):
        raise ConsistentTriadPresentError("triad relations must all be strict")
    for mapping in itertools.permutations((1, 2, 3, 4)):
        perm = Permutation(mapping)
        candidate = apply_permutation(pcm, perm)
        relations = (
            triad_product(candidate, (1, 2, 3)) < 1,
            triad_product(candidate, (2, 3, 4)) < 1,
            triad_product(candidate, (1, 3, 4)) < 1,
            triad_product(candidate, (1, 2, 4)) < 1,
        )
        if all(relations):
            return perm, candidate, 1
        if relations[0] and relations[1] and relations[2] and not relations[3]:
            return perm, candidate, 2
    raise AssertionError("unreachable: parity argument guarantees one of the two cases")


# ---------------------------------------------------------------------------
# reference coincidence report: every question is one fraction affine rank


def coincidence_report_by_rank(tetrahedra) -> CoincidenceReport:
    """Shared vertices, collinear edges and coplanar faces by ``affine_rank``."""
    parts = []
    for tet in tetrahedra:
        points = vertex_points(tet)
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


def _nondegenerate_edges(points) -> list[tuple[int, int]]:
    return [
        (i + 1, j + 1)
        for i in range(4)
        for j in range(i + 1, 4)
        if points[i] != points[j]
    ]


def _nondegenerate_faces(points) -> list[tuple[int, int, int]]:
    faces = []
    for combo in itertools.combinations(range(4), 3):
        pts = [points[i] for i in combo]
        if affine_rank(pts) == 2:
            faces.append(tuple(i + 1 for i in combo))
    return faces


# ---------------------------------------------------------------------------
# the unrounded embedding, and the reference mesh orientation: cross and dot
# products on exact points


def embed_exact(components) -> tuple:
    """(w1+w2, w1+w3, w2+w3): the normalized 4-simplex drawn in 3-space, unrounded."""
    w1, w2, w3, _ = components
    return (w1 + w2, w1 + w3, w2 + w3)


def _sub(p, q):
    return tuple(a - b for a, b in zip(p, q))


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def points_outward(points, face, opposite) -> bool:
    """Does the normal of face (a, b, c), by the right-hand rule, point away
    from the opposite vertex?  ``points`` are exact 3-space points."""
    a, b, c = (points[k] for k in face)
    normal = _cross(_sub(b, a), _sub(c, a))
    return _dot(normal, _sub(points[opposite], a)) < 0
