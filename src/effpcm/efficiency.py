"""Pareto efficiency of weight vectors via the Blanquero-Carrizosa-Conde digraph.

For a matrix A and positive weight vector w, the BCC digraph has an arc
i -> j whenever w_i/w_j >= a_ij.  A weight vector is efficient exactly when
this digraph is strongly connected; for tournaments (no perfectly estimated
pair) that is in turn equivalent to having a directed Hamiltonian cycle.

``bcc_digraph`` is the one place where a weight ratio meets its entry.
Exact weight vectors are compared exactly, by one cross-multiplication on
integer pairs: the weights' read once, the entries' as ``Pcm.pairs`` keeps
them.  Float vectors get an equality band relative to the entry, band *
a_ij (default band 1e-9, overridable through EFFPCM_TOL), so that a
perfectly estimated pair is still recognized as carrying both arcs.  Where
the float ratio or float(a_ij) is not a normal float (zero, subnormal or
past the range), the same band is applied in exact arithmetic to the
weights as given.  The region test of ``geometry`` reads this digraph.
"""

from __future__ import annotations

import math
import os
import sys
from fractions import Fraction

from .errors import BadToleranceError, DimensionMismatchError
from .pcm import Pcm, Record, WeightVector

DEFAULT_EQUALITY_BAND = 1e-9
_TINY, _HUGE = sys.float_info.min, sys.float_info.max  # the normal floats' range


def float_equality_band() -> float:
    """Relative tolerance for treating a float ratio as a perfect estimate.

    EFFPCM_TOL overrides the default; it must be a finite number >= 0.
    """
    text = os.environ.get("EFFPCM_TOL")
    if text is None:
        return DEFAULT_EQUALITY_BAND
    try:
        band = float(text)
    except ValueError:
        band = math.nan  # unparsable: rejected below
    if not (math.isfinite(band) and band >= 0):
        raise BadToleranceError(
            f"BadTolerance: EFFPCM_TOL={text!r} is not a finite number >= 0"
        )
    return band


class BccDigraph(Record):
    """Arc set over the alternatives induced by comparing w_i/w_j to a_ij."""

    n: int
    arcs: frozenset[tuple[int, int]]
    equality_pairs: frozenset[tuple[int, int]]  # unordered, stored with i < j


def bcc_digraph(pcm: Pcm, w: WeightVector, band: float | None = None) -> BccDigraph:
    """Build the BCC digraph of (pcm, w); both arcs appear on equality."""
    if pcm.n != w.n:
        raise DimensionMismatchError(
            f"DimensionMismatch: {pcm.n}x{pcm.n} matrix with {w.n}-weight vector"
        )
    if band is None:
        band = float_equality_band()
    exact = w.exact
    weights = [c.as_integer_ratio() for c in w.components] if exact else w.components
    arcs = set()
    equalities = set()
    for i, row in enumerate(pcm.pairs, start=1):
        wi = weights[i - 1]
        for j, (num, den) in enumerate(row[i:], start=i + 1):
            wj = weights[j - 1]
            if exact:
                lhs, rhs = wi[0] * wj[1] * den, num * wj[0] * wi[1]
                sign = (lhs > rhs) - (lhs < rhs)
            else:
                ratio, tol = wi / wj, band
                try:
                    target = num / den  # float(entry), correctly rounded
                except OverflowError:
                    target = math.inf
                if not (_TINY <= ratio <= _HUGE and _TINY <= target <= _HUGE):
                    ratio, target, tol = Fraction(wi) / Fraction(wj), Fraction(num, den), Fraction(band)
                sign = (0 if abs(ratio - target) <= tol * target
                        else (ratio > target) - (ratio < target))
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
