"""Pareto efficiency of weight vectors via the Blanquero-Carrizosa-Conde digraph.

For a matrix A and positive weight vector w, the BCC digraph has an arc
i -> j whenever w_i/w_j >= a_ij.  A weight vector is efficient exactly when
this digraph is strongly connected; for tournaments (no perfectly estimated
pair) that is in turn equivalent to having a directed Hamiltonian cycle.

Exact weight vectors are compared exactly.  Float vectors get a relative
equality band (default 1e-9, overridable through EFFPCM_TOL) so that a
perfectly estimated pair is still recognized as carrying both arcs.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

from .errors import BadToleranceError, DimensionMismatchError
from .pcm import Pcm, WeightVector, compare_ratio

DEFAULT_EQUALITY_BAND = 1e-9


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


@dataclass(frozen=True)
class BccDigraph:
    """Arc set over the alternatives induced by comparing w_i/w_j to a_ij."""

    n: int
    arcs: frozenset[tuple[int, int]]
    equality_pairs: frozenset[tuple[int, int]]  # unordered, stored with i < j

    def has_arc(self, i: int, j: int) -> bool:
        return (i, j) in self.arcs


def bcc_digraph(pcm: Pcm, w: WeightVector, band: float | None = None) -> BccDigraph:
    """Build the BCC digraph of (pcm, w); both arcs appear on equality."""
    if pcm.n != w.n:
        raise DimensionMismatchError(
            f"DimensionMismatch: {pcm.n}x{pcm.n} matrix with {w.n}-weight vector"
        )
    if band is None:
        band = float_equality_band()
    arcs = set()
    equalities = set()
    for i in range(1, pcm.n + 1):
        for j in range(i + 1, pcm.n + 1):
            sign = compare_ratio(w, i, j, pcm.entries[i - 1][j - 1], band)
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
    succ = {i: [] for i in range(1, n + 1)}
    for (a, b) in g.arcs:
        succ[a].append(b)
    order = _tarjan_components(n, succ)
    return len(order) == 1


def _tarjan_components(n: int, succ: dict[int, list[int]]) -> list[list[int]]:
    """Iterative Tarjan strongly-connected-components over vertices 1..n."""
    index = {}
    lowlink = {}
    on_stack = set()
    stack: list[int] = []
    components: list[list[int]] = []
    counter = itertools.count()

    for root in range(1, n + 1):
        if root in index:
            continue
        work = [(root, iter(succ[root]))]
        index[root] = lowlink[root] = next(counter)
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            advanced = False
            for u in it:
                if u not in index:
                    index[u] = lowlink[u] = next(counter)
                    stack.append(u)
                    on_stack.add(u)
                    work.append((u, iter(succ[u])))
                    advanced = True
                    break
                if u in on_stack:
                    lowlink[v] = min(lowlink[v], index[u])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[v])
            if lowlink[v] == index[v]:
                component = []
                while True:
                    u = stack.pop()
                    on_stack.discard(u)
                    component.append(u)
                    if u == v:
                        break
                components.append(component)
    return components


def is_efficient(pcm: Pcm, w: WeightVector, band: float | None = None) -> bool:
    """Efficiency test: strong connectivity of the BCC digraph."""
    return strongly_connected(bcc_digraph(pcm, w, band))
