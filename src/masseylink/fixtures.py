"""Bundled diagram fixtures and the braid-closure generator behind them.

Fixture files live in masseylink/fixtures/*.json in the documented JSON
diagram form; each carries a "comment" field naming its source diagram.
The directory can be overridden with the MASSEYLINK_FIXTURES environment
variable.
"""

import json
import os

from .diagram import build_diagram, diagram_from_json, pd_from_visits
from .errors import InputError

_HERE = os.path.join(os.path.dirname(__file__), "fixtures")


def fixture_dir():
    return os.environ.get("MASSEYLINK_FIXTURES", _HERE)


def fixture_names():
    return sorted(
        f[:-5] for f in os.listdir(fixture_dir()) if f.endswith(".json")
    )


def load_fixture(name):
    path = os.path.join(fixture_dir(), name + ".json")
    if not os.path.exists(path):
        raise InputError("no fixture %r (have: %s)" % (name, ", ".join(fixture_names())))
    with open(path) as fh:
        return diagram_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# braid closures


def braid_closure_pd(word, strands):
    """PD tuples of the closure of a braid word.

    word: sequence of nonzero ints, +i for the positive generator on
    positions (i, i+1), -i for its inverse.  A positive generator is the
    crossing whose over-strand runs from position i+1 to position i, which
    parses back with sign +1 under the package's conventions.
    """
    for g in word:
        if g == 0 or abs(g) >= strands:
            raise ValueError("bad braid letter %r" % (g,))

    # perm[top] = bottom position of the strand at top position, 0-based
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm = [i + 1 if p == i else i if p == i + 1 else p for p in perm]

    # each closure component walks the strands of its orbit, from the
    # least top position, and passes every crossing of its positions
    components = []
    seen = set()
    for top in range(strands):
        visits = []
        while top not in seen:
            seen.add(top)
            pos = top
            for t, g in enumerate(word):
                i = abs(g) - 1
                if pos in (i, i + 1):
                    over = (pos == i + 1) == (g > 0)
                    visits.append((t, "O" if over else "U", 1 if g > 0 else -1))
                    pos = i if pos == i + 1 else i + 1
            top = perm[top]
        components.append(visits)
    return pd_from_visits(components)


def braid_closure(word, strands, comment=""):
    return build_diagram(braid_closure_pd(word, strands), comment=comment)


def clasp_family(k):
    """Three-component Brunnian braid closure with k commutator blocks.

    k = 1 is the Borromean rings; pairwise linking numbers vanish for
    every k and the triple Milnor invariant has magnitude k.
    """
    return braid_closure((1, -2) * (3 * k), 3,
                         comment="closure of (s1 s2^-1)^%d on 3 strands" % (3 * k))
