#!/usr/bin/env python3
"""Cup intersections against the triangle-pair reference on the clasp family.

For each k, builds clasp_family(k) at perturbations 0 and 1 and checks,
for every ordered surface pair, that ``trace.embedded_intersection`` (read
off the cup records) equals ``surface_intersection`` of ``tests/plref.py``
(every triangle pair through the 3D kernel) in curves, kinds, points and
order.  The tier-1 tests make the same comparison up to k = 6.  Prints one
line per k and exits 1 on any difference.

Usage: PYTHONPATH=src diff_cup_intersection.py [min_k] [max_k]
       (default 7 16)
"""

import os
import sys
import time
from itertools import permutations

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "tests"))

from masseylink.embed import build_embedding  # noqa: E402
from masseylink.fixtures import clasp_family  # noqa: E402
from masseylink.trace import embedded_intersection  # noqa: E402
from plref import surface_intersection  # noqa: E402


def main():
    lo = int(sys.argv[1]) if len(sys.argv) > 1 else 7
    hi = int(sys.argv[2]) if len(sys.argv) > 2 else 16
    print("  k  perturb  pairs  segments  cups s  reference s")
    differences = 0
    for k in range(lo, hi + 1):
        for perturb_index in (0, 1):
            e = build_embedding(clasp_family(k), perturb_index=perturb_index)
            pairs = list(permutations(sorted(e.surfaces), 2))
            t0 = time.time()
            got = [embedded_intersection(e, a, b) for a, b in pairs]
            t1 = time.time()
            want = [surface_intersection(e.surfaces[a], e.surfaces[b]) for a, b in pairs]
            t2 = time.time()
            bad = [pair for pair, g, w in zip(pairs, got, want) if g != w]
            differences += len(bad)
            segments = sum(len(c.points) - (c.kind == "arc") for cs in got for c in cs)
            print("%3d  %7d  %5d  %8d  %6.2f  %11.2f%s" % (
                k, perturb_index, len(pairs), segments, t1 - t0, t2 - t1,
                "  DIFFERENT %s" % bad if bad else ""))
    return 1 if differences else 0


if __name__ == "__main__":
    sys.exit(main())
