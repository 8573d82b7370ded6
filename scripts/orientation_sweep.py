#!/usr/bin/env python3
"""Sweep one matrix entry through a consistency point and watch the geometry.

The family keeps five entries fixed and varies a_14.  At a_14 = 6 the
(1,4,2,3) cycle becomes consistent: its orientation flips from forward to
backward and the corresponding tetrahedron momentarily collapses to a point.
Triad relations alone cannot see this: every matrix in the sweep has all
four triad relations in the same direction.
"""

import argparse
from fractions import Fraction

from effpcm import (
    CANONICAL_CYCLES,
    cycle_product,
    classify,
    embed,
    pcm_from_upper,
    tetrahedron_for_cycle,
    triad_product,
)


def family(a14: Fraction):
    return pcm_from_upper(4, {
        (1, 2): Fraction(1),
        (1, 3): Fraction(2),
        (1, 4): Fraction(a14),
        (2, 3): Fraction(1),
        (2, 4): Fraction(3),
        (3, 4): Fraction(1),
    })


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--values", nargs="*", default=["4", "5", "6", "7", "8"])
    args = parser.parse_args()

    watched = (1, 4, 2, 3)
    for text in args.values:
        a14 = Fraction(text)
        pcm = family(a14)
        tet = tetrahedron_for_cycle(pcm, watched)
        triads = [triad_product(pcm, t) < 1 for t in
                  ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))]
        head = (f"a14={str(a14):>4s}  class={classify(pcm).tag.value:18s}"
                f"  cycle(1,4,2,3): product={cycle_product(pcm, watched)}"
                f"  orientation={tet.orientation.direction.value:10s}"
                f"  rank={tet.degenerate_rank}")
        print(head)
        print(f"          triad relations all '<': {all(triads)}")
        for vertex in tet.vertices:
            point = embed(vertex)
            print(f"          vertex {' '.join(vertex.as_strings()):28s}"
                  f" -> ({point[0]:.6f}, {point[1]:.6f}, {point[2]:.6f})")
        print()
    print("other cycles for reference:")
    for cycle in CANONICAL_CYCLES:
        products = [str(cycle_product(family(Fraction(v)), cycle)) for v in args.values]
        print(f"  {cycle}: products {products}")


if __name__ == "__main__":
    main()
