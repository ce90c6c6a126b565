#!/usr/bin/env python3
"""End-to-end walkthrough on the Borromean rings.

Builds the embedding, traces every surface pair, evaluates the third-order
linking number in all six orderings and checks massey3 = -milnor_mu, sign
included; exits 1 on any mismatch.  Pass an output path to also dump the
geometry JSON for plotting.
"""

import itertools
import sys
import time

from masseylink.embed import build_embedding
from masseylink.fixtures import load_fixture
from masseylink.magnus import milnor_mu
from masseylink.massey import massey3
from masseylink.plgeom import dump_geometry
from masseylink.trace import trace_derived_boundary


def main():
    d = load_fixture("borromean")
    print("Borromean rings: %d components, %d crossings" % (d.n_components, len(d.crossings)))
    print("linking matrix:", d.linking_matrix())

    t0 = time.time()
    e = build_embedding(d)
    print("embedding built in %.2fs; surface sizes: %s triangles"
          % (time.time() - t0, [len(e.surfaces[i]) for i in (1, 2, 3)]))

    for (a, b) in itertools.combinations((1, 2, 3), 2):
        db = trace_derived_boundary(e, a, b)
        labels = [p.label for p in db.pierce_points]
        print("pair (%d,%d): %d loop(s), pierce labels %s" % (a, b, len(db.loops), labels))

    print()
    print("ordering   term1  term2  value     -mu")
    mismatches = 0
    for order in itertools.permutations((1, 2, 3)):
        r = massey3(e, order)
        want = -milnor_mu(d, order)
        flag = "" if r.value == want else "  MISMATCH"
        mismatches += r.value != want
        print("%s   %5d  %5d  %5d   %5d%s"
              % (order, r.term_first, r.term_second, r.value, want, flag))

    if len(sys.argv) > 1:
        dump_geometry(
            sys.argv[1],
            curves=[e.curves[i] for i in (1, 2, 3)],
            surfaces=[e.surfaces[i] for i in (1, 2, 3)],
        )
        print("geometry written to", sys.argv[1])
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
