"""Benchmark inputs: braid-closure diagrams and the oracle closure pool.

Everything here is generated by the benchmark itself, independently of the
package under test, so that a change to the package's own fixtures or
braid helpers cannot silently change what is measured.  The program only
ever receives the PD text produced here.
"""

import hashlib
import itertools
import random

ORDERINGS = list(itertools.permutations((1, 2, 3)))

# Borromean rings with a trefoil tied into component 1: the only input whose
# Seifert surfaces carry twisted bands (a copy of the bundled fixture).
BORROMEAN_KNOTTED = (
    (21, 24, 22, 25), (23, 20, 24, 21), (25, 22, 26, 23),
    (26, 60, 30, 70), (40, 50, 10, 80), (50, 100, 60, 90),
    (70, 110, 80, 120), (100, 40, 110, 30), (120, 10, 90, 20),
)


def braid_closure_pd(word, strands=3):
    """PD tuples of the closure of a braid word.

    +i is the positive generator on positions (i, i+1), -i its inverse.  Arcs
    are numbered along each component, components ordered by their smallest
    top position; this matches the package's own braid-closure convention
    (the self-check compares the two).
    """
    perm = list(range(strands))
    for g in word:
        i = abs(g) - 1
        perm = [i + 1 if p == i else i if p == i + 1 else p for p in perm]
    seen, orbits = set(), []
    for s in range(strands):
        orbit = []
        while s not in seen:
            seen.add(s)
            orbit.append(s)
            s = perm[s]
        if orbit:
            orbits.append(orbit)
    slots, arc = {}, 1
    for orbit in orbits:
        visits = []
        for pos in orbit:
            for t, g in enumerate(word):
                i = abs(g) - 1
                if pos not in (i, i + 1):
                    continue
                over = (pos == i + 1) == (g > 0)
                visits.append((t, "O" if over else "U"))
                pos = i if pos == i + 1 else i + 1
        m = len(visits)
        for j, (t, role) in enumerate(visits):
            slots.setdefault(t, {})[role] = (arc + (j - 1) % m, arc + j)
        arc += m
    tuples = []
    for t, g in enumerate(word):
        (ui, uo), (oi, oo) = slots[t]["U"], slots[t]["O"]
        tuples.append((ui, oo, uo, oi) if g > 0 else (ui, oi, uo, oo))
    return tuples


def pd_text(tuples):
    return ",".join("X(%d,%d,%d,%d)" % tuple(t) for t in tuples)


def clasp_word(k):
    """(s1 s2^-1)^(3k): the Brunnian clasp family, k = 1 the Borromean rings."""
    return (1, -2) * (3 * k)


class Diagram:
    """One benchmark input: a name, its PD text and its crossing count."""

    def __init__(self, name, tuples):
        self.name = name
        self.tuples = [tuple(t) for t in tuples]
        self.pd = pd_text(self.tuples)
        self.crossings = len(self.tuples)


def braid_diagram(name, word):
    return Diagram(name, braid_closure_pd(word))


def clasp(k):
    return braid_diagram("clasp_family(%d)" % k, clasp_word(k))


def knotted():
    return Diagram("borromean_knotted", BORROMEAN_KNOTTED)


def trivial():
    """The self-check size: the cheapest closure with three components."""
    return braid_diagram("trivial_4", (1, -1, 2, -2))


# ---------------------------------------------------------------------------
# oracle pool: 3-braid closures with zero pairwise linking

POOL_SEED = 14075027
POOL_LENGTHS = tuple(range(12, 61, 2))   # one stratum per target length
POOL_VARIANTS = 24                       # closures per stratum

# Pure-braid generators A12, A23, A13 on three strands.
_PURE = ((1, 1), (2, 2), (2, 1, 1, -2))


def _inverse(w):
    return tuple(-g for g in reversed(w))


def _free_reduce(word):
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def pairwise_linking(word, strands=3):
    """Linking numbers of a pure braid closure, from the letters alone."""
    at = list(range(strands))            # at[position] = strand
    twice = {}
    for g in word:
        i = abs(g) - 1
        a, b = sorted((at[i], at[i + 1]))
        twice[(a, b)] = twice.get((a, b), 0) + (1 if g > 0 else -1)
        at[i], at[i + 1] = at[i + 1], at[i]
    if at != list(range(strands)):
        return None                      # not pure: fewer than three components
    return {pair: v // 2 for pair, v in twice.items()}


def _touches_every_strand(word, strands=3):
    at, touched = list(range(strands)), set()
    for g in word:
        i = abs(g) - 1
        touched.update((at[i], at[i + 1]))
        at[i], at[i + 1] = at[i + 1], at[i]
    return len(touched) == strands


def _pool_word(rng, target):
    """A pure 3-braid with zero pairwise linking and about `target` letters.

    Conjugated generators A^e and their inverses are shuffled together, so
    every exponent sum, and with it every linking number, is zero, while
    the order of the factors gives the triple invariant its value.
    """
    tokens = []
    while True:
        gen = _PURE[rng.randrange(len(_PURE))]
        conj = (rng.choice((1, -1, 2, -2)),) if rng.random() < 0.5 else ()
        tok = conj + gen + _inverse(conj)
        if rng.random() < 0.5:
            tok = _inverse(tok)
        tokens += [tok, _inverse(tok)]
        rng.shuffle(tokens)
        word = _free_reduce(sum(tokens, ()))
        if len(word) < target:
            continue
        if len(word) > min(target + 4, 60) or not _touches_every_strand(word):
            tokens = []
            continue
        lk = pairwise_linking(word)
        if lk is not None and not any(lk.values()):
            return word


def oracle_pool():
    """The fixed pool, strata[length_index][variant] -> Diagram."""
    rng = random.Random(POOL_SEED)
    return [[braid_diagram("pool[%d][%d]" % (s, v), _pool_word(rng, target))
             for v in range(POOL_VARIANTS)]
            for s, target in enumerate(POOL_LENGTHS)]


def pool_digest(strata):
    h = hashlib.sha256()
    for row in strata:
        for d in row:
            h.update(d.pd.encode() + b"\n")
    return h.hexdigest()
