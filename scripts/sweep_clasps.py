#!/usr/bin/env python3
"""Sweep the Brunnian clasp family: geometric value versus the oracle.

Checks massey3 = -milnor_mu, sign included, in all six orderings; exits 1
on any mismatch.  Each k prints the build time and the process's peak
resident set so far (``resource.getrusage``), every ordering of the first
sweep, then the time of that sweep and of a second, warm sweep on the same
embedding (its intersections and pierces already computed).

Usage: sweep_clasps.py [max_k]   (default 16)
"""

import itertools
import resource
import sys
import time

from masseylink.embed import build_embedding
from masseylink.fixtures import clasp_family
from masseylink.magnus import milnor_mu
from masseylink.massey import massey3


def main():
    max_k = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    print("  k  crossings  ordering  massey3  -mu  time")
    mismatches = 0
    for k in range(1, max_k + 1):
        d = clasp_family(k)
        t0 = time.time()
        e = build_embedding(d)
        dt = time.time() - t0
        # ru_maxrss is in KiB on Linux
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print("%3d  %9d  build %.1fs, peak %.1f MB" % (k, len(d.crossings), dt, peak))
        first = 0.0
        wants = []
        for order in itertools.permutations((1, 2, 3)):
            t0 = time.time()
            r = massey3(e, order)
            dt = time.time() - t0
            first += dt
            want = -milnor_mu(d, order)
            wants.append(want)
            flag = "" if r.value == want else "  MISMATCH"
            mismatches += r.value != want
            print("%3d  %9d  %8s  %7d  %3d  %4.1fs%s"
                  % (k, len(d.crossings), "".join(map(str, order)), r.value,
                     want, dt, flag))
        t0 = time.time()
        warm = [massey3(e, order).value for order in itertools.permutations((1, 2, 3))]
        dt = time.time() - t0
        flag = "" if warm == wants else "  MISMATCH"
        mismatches += warm != wants
        print("%3d  %9d  sweep %.2fs, warm sweep %.2fs%s"
              % (k, len(d.crossings), first, dt, flag))
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
