"""Pareto efficiency of weight vectors via the Blanquero-Carrizosa-Conde digraph.

For a matrix A and positive weight vector w, the BCC digraph has an arc
i -> j whenever w_i/w_j >= a_ij.  A weight vector is efficient exactly when
this digraph is strongly connected; for tournaments (no perfectly estimated
pair) that is in turn equivalent to having a directed Hamiltonian cycle.

``bcc_digraph`` is the one place where a weight ratio meets its entry, and
it signs every pair by one rule on integers.  The weights are read as the
numerators x_i of their integer form x / d, each entry as num/den from
``Pcm.upper``, and the vector's own equality band as b_n/b_d: the float
band for a vector read from floats, so that a perfectly estimated pair is
still recognized as carrying both arcs, and 0 for an exact one.  With
lhs = x_i den and rhs = num x_j, the pair is an equality when
|lhs - rhs| b_d <= b_n rhs, that is when |w_i/w_j - a_ij| <= band * a_ij,
and otherwise takes the sign of lhs - rhs.  The digraph is a function of
the matrix and the vector alone.  The region test of ``geometry`` reads it.
"""

from __future__ import annotations

import itertools

from .errors import DimensionMismatchError
from .pcm import Pcm, Record, WeightVector


class BccDigraph(Record):
    """Arc set over the alternatives induced by comparing w_i/w_j to a_ij."""

    n: int
    arcs: frozenset[tuple[int, int]]
    equality_pairs: frozenset[tuple[int, int]]  # unordered, stored with i < j


def bcc_digraph(pcm: Pcm, w: WeightVector) -> BccDigraph:
    """Build the BCC digraph of (pcm, w) within w's band; both arcs appear on equality."""
    if pcm.n != w.n:
        raise DimensionMismatchError(f"{pcm.n}x{pcm.n} matrix with {w.n}-weight vector")
    band_num, band_den = w.band.as_integer_ratio()
    x = w.numerators
    arcs = set()
    equalities = set()
    for (i, j), (num, den) in zip(itertools.combinations(range(1, pcm.n + 1), 2), pcm.upper):
        lhs, rhs = x[i - 1] * den, num * x[j - 1]
        sign = 0 if abs(lhs - rhs) * band_den <= band_num * rhs else (lhs > rhs) - (lhs < rhs)
        if sign >= 0:
            arcs.add((i, j))
        if sign <= 0:
            arcs.add((j, i))
        if sign == 0:
            equalities.add((i, j))
    return BccDigraph(pcm.n, frozenset(arcs), frozenset(equalities))


def strongly_connected(g: BccDigraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path."""
    n = g.n
    if n <= 1:
        return True
    succ, pred = [[] for _ in range(n + 1)], [[] for _ in range(n + 1)]  # slot 0 unused
    for (a, b) in g.arcs:
        succ[a].append(b)
        pred[b].append(a)
    # vertex 1 reaches every vertex, and every vertex reaches vertex 1
    return len(_walk(succ, 1)) == n - 1 and len(_walk(pred, 1)) == n - 1


def _walk(adjacency: list[list[int]], start: int) -> list[tuple[int, int]]:
    """Each (parent, child) pair by which a walk over adjacency from start first
    reaches child: every vertex reachable from start, bar start, once."""
    seen = {start}
    frontier = [start]
    pairs = []
    while frontier:
        parent = frontier.pop()
        for child in adjacency[parent]:
            if child not in seen:
                seen.add(child)
                frontier.append(child)
                pairs.append((parent, child))
    return pairs


def is_efficient(pcm: Pcm, w: WeightVector) -> bool:
    """Efficiency test: strong connectivity of the BCC digraph."""
    return strongly_connected(bcc_digraph(pcm, w))
