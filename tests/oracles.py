"""Brute-force and randomized oracles that check the library's theory.

None of this is needed to decide efficiency or build the efficient set; the
tests use it as independent reference implementations: exhaustive
Hamiltonian-cycle search (Camion), Pareto dominance and a randomized
dominator search, spanning-tree and path enumeration, tree restrictions to
incomplete matrices, the geometry document's exact-vertex reader, and the
24-matrix rearrangement searches that the library's rearrangements must
reproduce.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from effpcm.efficiency import BccDigraph
from effpcm.errors import (
    ConsistentTriadPresentError,
    DimensionMismatchError,
    DimensionTooLargeError,
    NonPositiveEntryError,
    NonSquareError,
    ReciprocityViolationError,
)
from effpcm.pcm import (
    CANONICAL_CYCLES,
    Pcm,
    Permutation,
    WeightVector,
    apply_permutation,
    consistent_triads,
    cycle_product,
    parse_rational,
    triad_product,
)
from effpcm.trees import LabeledPath, SpanningTree

MAX_ENUMERATION_N = 6


# ---------------------------------------------------------------------------
# digraphs and dominance


def hamiltonian_cycle_exists(g: BccDigraph) -> bool:
    """Brute-force directed Hamiltonian cycle search, capped at n <= 8."""
    if g.n > 8:
        raise DimensionTooLargeError(
            f"DimensionTooLarge: Hamiltonian enumeration capped at n=8, got n={g.n}"
        )
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

    Exact arithmetic when both vectors are exact; otherwise float arithmetic.
    The first strictly improved ordered pair (row-major) is reported.
    """
    if pcm.n != w_new.n or pcm.n != w_old.n:
        raise DimensionMismatchError("DimensionMismatch: matrix and weight vectors disagree")
    exact = w_new.exact and w_old.exact
    strict: tuple[int, int] | None = None
    for i in range(1, pcm.n + 1):
        for j in range(1, pcm.n + 1):
            if i == j:
                continue
            a = pcm.entries[i - 1][j - 1]
            if exact:
                err_new = abs(a - w_new.ratio(i, j))
                err_old = abs(a - w_old.ratio(i, j))
            else:
                a = float(a)
                err_new = abs(a - float(w_new.components[i - 1]) / float(w_new.components[j - 1]))
                err_old = abs(a - float(w_old.components[i - 1]) / float(w_old.components[j - 1]))
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

    For exact w the factors are converted to rationals, so the dominance
    re-check is exact and a returned vector always truly dominates.
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
        if w.exact:
            components = tuple(
                c * Fraction(f).limit_denominator(10 ** 6)
                for c, f in zip(w.components, factors)
            )
        else:
            components = tuple(c * f for c, f in zip(w.components, factors))
        candidate = WeightVector(components).normalized()
        if dominates(pcm, candidate, w).dominates:
            return candidate
    return None


# ---------------------------------------------------------------------------
# spanning trees, paths and incomplete matrices


def _check_enumeration_size(n: int) -> None:
    if not 2 <= n <= MAX_ENUMERATION_N:
        raise DimensionTooLargeError(
            f"DimensionTooLarge: enumeration supported for 2 <= n <= {MAX_ENUMERATION_N}, got {n}"
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


def enumerate_labeled_paths(n: int) -> list[LabeledPath]:
    """One representative per undirected Hamiltonian path (first < last endpoint)."""
    _check_enumeration_size(n)
    paths = []
    for perm in itertools.permutations(range(1, n + 1)):
        if perm[0] < perm[-1]:
            paths.append(LabeledPath(perm))
    return paths


@dataclass(frozen=True)
class IncompletePcm:
    """A reciprocal matrix with symmetric missing pairs (None entries)."""

    entries: tuple[tuple[Fraction | None, ...], ...]

    def __post_init__(self):
        n = len(self.entries)
        if n == 0 or any(len(row) != n for row in self.entries):
            raise NonSquareError("NonSquare: entries must form a nonempty square grid")
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
        raise DimensionMismatchError(
            f"DimensionMismatch: tree on 1..{tree.n} with {pcm.n}x{pcm.n} matrix"
        )
    grid: list[list[Fraction | None]] = [[None] * pcm.n for _ in range(pcm.n)]
    for i in range(pcm.n):
        grid[i][i] = Fraction(1)
    for (a, b) in tree.edges:
        grid[a - 1][b - 1] = pcm.entries[a - 1][b - 1]
        grid[b - 1][a - 1] = pcm.entries[b - 1][a - 1]
    return IncompletePcm(tuple(tuple(row) for row in grid))


# ---------------------------------------------------------------------------
# export round trip


def parse_exact_vertices(doc: dict) -> list[list[tuple[Fraction, ...]]]:
    """Recover the exact tetrahedron vertices from a geometry document."""
    out = []
    for tet in doc["tetrahedra"]:
        out.append([
            tuple(parse_rational(s) for s in vertex)
            for vertex in tet["vertices_exact"]
        ])
    return out


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
        raise ConsistentTriadPresentError(
            "ConsistentTriadPresent: triad relations must all be strict"
        )
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
