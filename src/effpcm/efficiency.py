"""Pareto efficiency of weight vectors via the Blanquero-Carrizosa-Conde digraph.

For a matrix A and positive weight vector w, the BCC digraph has an arc
i -> j whenever w_i/w_j >= a_ij.  A weight vector is efficient exactly when
this digraph is strongly connected; for tournaments (no perfectly estimated
pair) that is in turn equivalent to having a directed Hamiltonian cycle.

A digraph is its arc mask, bit (i-1)n + (j-1) for the arc i -> j, so row i
is vertex i's successors.  Only this module writes that layout (others call
``arc_mask``), and it reads it in ascending bit order, the sorted (i, j)
order.  ``bcc_digraph`` is the one place where a weight
ratio meets its entry, and it signs every pair by one rule on integers.
The weights are read as the numerators x_i of their integer form x / d,
each entry as num/den from ``Pcm.upper``, and the vector's own equality
band as b_n/b_d: for a vector read from floats the band its reader passed,
so that a perfectly estimated pair is still recognized as carrying both
arcs, and 0 for an exact one.  With lhs = x_i den and rhs = num x_j, the
pair is an equality when |lhs - rhs| b_d <= b_n rhs, that is when
|w_i/w_j - a_ij| <= band * a_ij, and otherwise takes the sign of lhs - rhs;
``digraph_from_signs`` takes such signs as given.  An equality is a pair
with both arcs, so the one mask holds the equalities too.  The digraph is a
function of the matrix and the vector alone, never of a process setting.
Strong connectivity is two mask closures from vertex 1, and the region test
of ``geometry`` masks the arcs with a cycle's.
"""

from __future__ import annotations

import functools
import itertools

from .errors import DimensionMismatchError, IndexOutOfRangeError
from .pcm import Pcm, Record, WeightVector


class BccDigraph(Record):
    """Arcs over 1..n induced by comparing w_i/w_j to a_ij: bit (i-1)n + (j-1) of ``arc_mask``
    is i -> j.  Both reads are tuples in ascending bit order: ``arcs`` each set bit's
    pair, and ``equality_pairs`` the pairs i < j that carry both arcs."""

    n: int
    arc_mask: int

    def __post_init__(self):
        n, mask = self.n, self.arc_mask
        if type(n) is not int or n < 1 or type(mask) is not int or mask < 0 or mask >> n * n:
            raise IndexOutOfRangeError(f"BccDigraph(n={n!r}, arc_mask={mask!r}): not 0 <= mask < 2**(n*n), n >= 1")

    @functools.cached_property
    def arcs(self) -> tuple[tuple[int, int], ...]:
        n = self.n
        return tuple([(k // n + 1, k % n + 1) for k, bit in enumerate(bin(self.arc_mask)[:1:-1]) if bit == "1"])

    @functools.cached_property
    def equality_pairs(self) -> tuple[tuple[int, int], ...]:
        arcs = self.arc_mask
        return tuple([(i + 1, j + 1) for i, j, forward, backward in _pair_bits(self.n)
                      if arcs & forward and arcs & backward])


def arc_mask(n: int, arcs) -> int:
    """The mask of an n-vertex digraph with the given arcs (i, j), each once or more."""
    return sum({1 << (i - 1) * n + (j - 1) for i, j in arcs})


@functools.cache
def _pair_bits(n: int) -> tuple[tuple[int, int, int, int], ...]:
    """(i, j, bit of i -> j, bit of j -> i) per pair i < j of 0-based vertices, in
    ``itertools.combinations`` order, the order of ``Pcm.upper``."""
    return tuple((i, j, 1 << i * n + j, 1 << j * n + i) for i, j in itertools.combinations(range(n), 2))


def digraph_from_signs(n: int, signs) -> BccDigraph:
    """The digraph of one sign per pair i < j, in ``itertools.combinations`` order:
    +1 gives i -> j, -1 gives j -> i, and 0 both arcs, an equality."""
    arcs = 0
    for (_, _, forward, backward), sign in zip(_pair_bits(n), signs, strict=True):
        arcs |= forward | backward if sign == 0 else forward if sign > 0 else backward
    return BccDigraph(n, arcs)


def bcc_digraph(pcm: Pcm, w: WeightVector) -> BccDigraph:
    """Build the BCC digraph of (pcm, w) within w's band; both arcs appear on equality."""
    if pcm.n != w.n:
        raise DimensionMismatchError(f"{pcm.n}x{pcm.n} matrix with {w.n}-weight vector")
    band_num, band_den = w.band.as_integer_ratio()
    x = w.numerators
    arcs = 0
    for (i, j, forward, backward), (num, den) in zip(_pair_bits(pcm.n), pcm.upper):
        lhs, rhs = x[i] * den, num * x[j]
        arcs |= (forward | backward if abs(lhs - rhs) * band_den <= band_num * rhs
                 else forward if lhs > rhs else backward)
    return BccDigraph(pcm.n, arcs)


def strongly_connected(g: BccDigraph) -> bool:
    """True iff every ordered vertex pair is joined by a directed path: vertex 1 reaches
    every vertex (push each reached vertex's row of successors), and every vertex reaches
    vertex 1 (pull each vertex whose row meets the set already reaching it)."""
    n, arcs, full = g.n, g.arc_mask, (1 << g.n) - 1
    reached = frontier = 1
    while frontier:
        low = frontier & -frontier
        grown = arcs >> (low.bit_length() - 1) * n & full & ~reached
        reached |= grown
        frontier = frontier ^ low | grown
    if reached != full:
        return False
    rows = [arcs >> shift & full for shift in range(0, n * n, n)]
    reached, before = 1, 0
    while reached != before:
        before = reached
        for v, row in enumerate(rows):
            if row & reached:
                reached |= 1 << v
    return reached == full


def is_efficient(pcm: Pcm, w: WeightVector) -> bool:
    """Efficiency test: strong connectivity of the BCC digraph."""
    return strongly_connected(bcc_digraph(pcm, w))
