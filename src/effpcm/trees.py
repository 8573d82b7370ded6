"""Spanning trees of the comparison graph and their induced weight vectors.

A spanning tree of known comparisons is the smallest structure that pins
down a weight vector: fixing one weight and propagating the exact ratios
along tree edges yields the unique vector reproducing every tree entry
perfectly.  Path-shaped trees are singled out because deleting one edge of
a 4-cycle leaves a path, and those four path trees supply the tetrahedron
vertices of the efficient-set geometry.  ``tree_integers`` propagates along
the walk a tree keeps from vertex n, on the entries' integer pairs; a tree
vector is those integers over their total.
"""

from __future__ import annotations

import math

from .errors import DimensionMismatchError, NotACanonicalCycleError, NotASpanningTreeError
from .pcm import CANONICAL_CYCLES, Pcm, Record, WeightVector


class SpanningTree(Record):
    """An acyclic connected edge set over vertices 1..n."""

    n: int
    edges: frozenset[tuple[int, int]]  # unordered pairs stored with i < j

    def __post_init__(self):
        # a frozenset, so a record built from a list hashes and cannot be mutated
        self.__dict__["edges"] = frozenset(self.edges)
        # n - 1 edges that connect all n vertices form a tree; its walk is kept
        if (
            len(self.edges) != self.n - 1
            or not all(1 <= a < b <= self.n for (a, b) in self.edges)
            or len(order := tuple(_walk(self.n, self.edges))) != self.n - 1
        ):
            raise NotASpanningTreeError(f"not a spanning tree of 1..{self.n}: {sorted(self.edges)}")
        self.__dict__["_order"] = order

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)


def _walk(n: int, edges: frozenset[tuple[int, int]]) -> list[tuple[int, int]]:
    """Each (parent, child) pair by which a walk over the undirected edges from vertex n
    first reaches child: every vertex reachable from n, bar n, once."""
    adjacency: list[list[int]] = [[] for _ in range(n + 1)]  # indexed by vertex
    for (a, b) in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    seen, frontier, pairs = {n}, [n], []
    while frontier:
        parent = frontier.pop()
        for child in adjacency[parent]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
                pairs.append((parent, child))
    return pairs


def canonical_index(cycle: tuple[int, int, int, int]) -> int:
    """The position of a canonical 4-cycle in CANONICAL_CYCLES.  Any other listing raises
    ``NotACanonicalCycle``, a list too: it is compared by equality."""
    if cycle not in CANONICAL_CYCLES:
        raise NotACanonicalCycleError(f"{cycle} is not one of {CANONICAL_CYCLES}")
    return CANONICAL_CYCLES.index(cycle)


def paths_of_cycle(cycle: tuple[int, int, int, int]) -> list[SpanningTree]:
    """The four path trees of a canonical 4-cycle, each missing one cycle edge.

    The k-th tree omits the edge {cycle[k-1], cycle[k]}: it is the path that
    starts at the cycle's k-th vertex and walks the full cycle order.
    """
    canonical_index(cycle)
    # edges[k - 1] joins cycle[k - 1] and cycle[k]
    edges = [(min(a, b), max(a, b)) for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    return [SpanningTree(4, frozenset(edges) - {edges[k - 1]}) for k in range(4)]


def tree_integers(pcm: Pcm, tree: SpanningTree) -> list[int]:
    """Positive integers x, not reduced, with x_i/x_j = a_ij on every tree edge: the tree's
    walk from its highest-index vertex, valued 1, reading each entry from the grid ``pcm.pairs``."""
    if tree.n != pcm.n:
        raise DimensionMismatchError(f"tree on 1..{tree.n} with {pcm.n}x{pcm.n} matrix")
    scaled = [0] * (pcm.n - 1) + [1]
    reached = [pcm.n - 1]
    for parent, child in tree._order:
        # x_child / x_parent = a_{child,parent} = p / q: the reached weights gain a factor q
        p, q = pcm.pairs[child - 1][parent - 1]
        scaled[child - 1] = scaled[parent - 1] * p
        for v in reached:
            scaled[v] *= q
        reached.append(child - 1)
    return scaled


def tree_weight_vector(pcm: Pcm, tree: SpanningTree) -> WeightVector:
    """The unique normalized exact vector with w_i/w_j = a_ij on every tree edge."""
    scaled = tree_integers(pcm, tree)
    g = math.gcd(*scaled)  # it divides their total too
    return WeightVector(tuple([x // g for x in scaled]), sum(scaled) // g, 0)
