"""Spanning trees of the comparison graph and their induced weight vectors.

A spanning tree of known comparisons is the smallest structure that pins
down a weight vector: fixing one weight and propagating the exact ratios
along tree edges yields the unique vector reproducing every tree entry
perfectly.  Path-shaped trees are singled out because deleting one edge of
a 4-cycle leaves a path, and those four paths supply the tetrahedron
vertices used by the efficient-set geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DimensionMismatchError, NotACanonicalCycleError
from .pcm import CANONICAL_CYCLES, Pcm, WeightVector


@dataclass(frozen=True)
class SpanningTree:
    """An acyclic connected edge set over vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]  # unordered pairs stored with i < j

    def __post_init__(self):
        if len(self.edges) != self.n - 1 or not _is_spanning_forestless(self.n, self.edges):
            raise ValueError(f"not a spanning tree of 1..{self.n}: {sorted(self.edges)}")

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degrees(self) -> dict[int, int]:
        deg = {v: 0 for v in range(1, self.n + 1)}
        for (a, b) in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg


def _is_spanning_forestless(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    parent = list(range(n + 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b) in edges:
        if not (1 <= a < b <= n):
            return False
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
    return len({find(v) for v in range(1, n + 1)}) == 1


@dataclass(frozen=True)
class LabeledPath:
    """A Hamiltonian path given as a vertex ordering; induces a path tree."""

    sequence: tuple[int, ...]

    def __post_init__(self):
        n = len(self.sequence)
        if sorted(self.sequence) != list(range(1, n + 1)):
            raise ValueError(f"{self.sequence} is not an ordering of 1..{n}")

    @property
    def n(self) -> int:
        return len(self.sequence)

    def tree(self) -> SpanningTree:
        edges = frozenset(
            (min(a, b), max(a, b)) for a, b in zip(self.sequence, self.sequence[1:])
        )
        return SpanningTree(self.n, edges)


def paths_of_cycle(cycle: tuple[int, int, int, int]) -> list[LabeledPath]:
    """The four paths obtained from a canonical 4-cycle by deleting one edge each.

    The k-th path starts at the cycle's k-th vertex and walks the full cycle
    order, so it omits exactly the edge closing back to its start.
    """
    if cycle not in CANONICAL_CYCLES:
        raise NotACanonicalCycleError(
            f"NotACanonicalCycle: {cycle} is not one of {CANONICAL_CYCLES}"
        )
    return [
        LabeledPath(tuple(cycle[(k + m) % 4] for m in range(4)))
        for k in range(4)
    ]


def tree_weight_vector(pcm: Pcm, tree: SpanningTree | LabeledPath) -> WeightVector:
    """The unique normalized exact vector with w_i/w_j = a_ij on every tree edge.

    The highest-index vertex is used as propagation root with value 1 before
    normalizing; the root choice does not affect the normalized result.
    """
    if isinstance(tree, LabeledPath):
        tree = tree.tree()
    if tree.n != pcm.n:
        raise DimensionMismatchError(
            f"DimensionMismatch: tree on 1..{tree.n} with {pcm.n}x{pcm.n} matrix"
        )
    adjacency: dict[int, list[int]] = {v: [] for v in range(1, pcm.n + 1)}
    for (a, b) in tree.edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    raw: dict[int, Fraction] = {pcm.n: Fraction(1)}
    frontier = [pcm.n]
    while frontier:
        parent = frontier.pop()
        for child in adjacency[parent]:
            if child not in raw:
                # w_child / w_parent = a_{child,parent} on a tree edge
                raw[child] = raw[parent] * pcm.entries[child - 1][parent - 1]
                frontier.append(child)
    return WeightVector(tuple(raw[v] for v in range(1, pcm.n + 1))).normalized()
