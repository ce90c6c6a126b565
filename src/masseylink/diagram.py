"""Oriented link diagrams: PD and Gauss code parsing, signs, linking numbers,
and the component gate of every invariant defined on unlinked components.

Conventions (documented in the README and relied on by every module
downstream):

* PD tuple X(a,b,c,d): slot 1 (= a) is the incoming under-strand and the
  slots proceed counterclockwise around the crossing, so the under-strand
  runs a -> c and the over-strand occupies b and d.
* Orientation is encoded by arc numbering: labels increase along each
  component and wrap at that component's largest label.
* Crossing sign: +1 when the over-strand direction is the under-strand
  direction rotated a quarter turn clockwise (the table convention); with
  the slot rule above this means the over-strand runs d -> b at a positive
  crossing and b -> d at a negative one.
"""

import json
import re
from dataclasses import dataclass, field
from itertools import combinations

from .errors import (
    InconsistentDiagram, InputError, MalformedCode, NonzeroLinking, UnknownComponent)


@dataclass(frozen=True)
class Crossing:
    slots: tuple          # (a, b, c, d) in PD order
    sign: int             # +1 or -1
    over_in: int          # incoming over-strand arc (d if sign>0 else b)
    over_out: int
    under_component: int  # 1-based component ids
    over_component: int

    @property
    def under_in(self):
        return self.slots[0]

    @property
    def under_out(self):
        return self.slots[2]


@dataclass(frozen=True)
class LinkDiagram:
    components: tuple     # tuple of tuples: arcs of each component in cyclic order
    crossings: tuple      # tuple of Crossing
    comment: str = ""
    _arc_comp: dict = field(default_factory=dict, repr=False, compare=False)
    # arc -> ((crossing, slot) the arc leaves, (crossing, slot) it enters);
    # crossingless components have no entry
    arc_ends: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = {}
        for ci, arcs in enumerate(self.components):
            for a in arcs:
                m[a] = ci + 1
        object.__setattr__(self, "_arc_comp", m)
        ends = {}
        for idx, x in enumerate(self.crossings):
            a, b, c, d = x.slots
            over = (3, 1) if (x.over_in, x.over_out) == (d, b) else (1, 3)
            for slot, end in ((0, 1), (2, 0), (over[0], 1), (over[1], 0)):
                ends.setdefault(x.slots[slot], [None, None])[end] = (idx, slot)
        object.__setattr__(self, "arc_ends", {a: tuple(e) for a, e in ends.items()})

    # -- basic queries ----------------------------------------------------

    @property
    def n_components(self):
        return len(self.components)

    def component_arcs(self, i):
        self._check_component(i)
        return self.components[i - 1]

    def arc_component(self, arc):
        return self._arc_comp[arc]

    def self_crossings(self, i):
        self._check_component(i)
        return [
            x for x in self.crossings
            if x.under_component == i and x.over_component == i
        ]

    def crossings_between(self, i, j):
        self._check_component(i)
        self._check_component(j)
        return [
            x for x in self.crossings
            if {x.under_component, x.over_component} == {i, j}
        ]

    def writhe(self, i):
        return sum(x.sign for x in self.self_crossings(i))

    def smoothed_cycles(self, arcs, smoothed):
        """Cycles through `arcs`, smoothing the crossings in `smoothed`.

        Each cycle starts at its least arc and lists ("arc", a) for every
        arc, each followed by a step through the crossing x the arc enters
        as strand role "U" (under) or "O" (over): ("pass", x, role) keeps
        to the strand, and ("bypass", x, role) at a crossing in `smoothed`
        turns onto the other strand's outgoing arc, the orientation
        respecting smoothing.  With every crossing smoothed the cycles are
        the Seifert circles; with none, the components.
        """
        todo = set(arcs)
        cycles = []
        while todo:
            a0 = min(todo)
            steps = []
            a = a0
            while True:
                todo.discard(a)
                steps.append(("arc", a))
                if a not in self.arc_ends:
                    break  # crossingless unknot component
                xi, slot = self.arc_ends[a][1]
                x = self.crossings[xi]
                role = "U" if slot == 0 else "O"
                if xi in smoothed:
                    steps.append(("bypass", xi, role))
                    a = x.over_out if role == "U" else x.under_out
                else:
                    steps.append(("pass", xi, role))
                    a = x.under_out if role == "U" else x.over_out
                if a == a0:
                    break
            cycles.append(steps)
        return cycles

    def _check_component(self, i):
        if not (1 <= i <= self.n_components):
            raise UnknownComponent("no component %r" % (i,))

    # -- linking numbers --------------------------------------------------

    def linking_number(self, a, b):
        """Half the signed crossing count between components a and b."""
        if a == b:
            raise UnknownComponent("linking number needs two distinct components")
        total = sum(x.sign for x in self.crossings_between(a, b))
        if total % 2:
            raise InconsistentDiagram("odd signed crossing total between components")
        return total // 2

    def linking_number_under(self, a, b):
        """Signed count of crossings where a passes under b (equal value)."""
        if a == b:
            raise UnknownComponent("linking number needs two distinct components")
        return sum(
            x.sign for x in self.crossings_between(a, b)
            if x.under_component == a
        )

    def linking_matrix(self):
        n = self.n_components
        mat = [[0] * n for _ in range(n)]
        for a in range(1, n + 1):
            for b in range(a + 1, n + 1):
                v = self.linking_number(a, b)
                mat[a - 1][b - 1] = mat[b - 1][a - 1] = v
        return mat

    def check_unlinked(self, components, size):
        """Admit `components` to an invariant defined only on unlinked tuples.

        Checked in this order, so that bad input is reported before an
        undefined invariant: InputError unless they are `size` distinct
        entries, UnknownComponent unless each is a component of the
        diagram, NonzeroLinking for the first pair, in the order given,
        with nonzero linking number.
        """
        if len(components) != size or len(set(components)) != size:
            raise InputError("expected %d distinct components" % size)
        for i in components:
            self._check_component(i)
        for a, b in combinations(components, 2):
            lk = self.linking_number(a, b)
            if lk:
                raise NonzeroLinking("lk(%d,%d) = %d" % (a, b, lk))

    # -- serialisation ----------------------------------------------------

    def to_json(self):
        return {
            "components": self.n_components,
            "crossings": [list(x.slots) for x in self.crossings],
            "comment": self.comment,
        }

    def normalized_pd(self):
        """Canonical PD tuples, invariant under arc relabeling.

        Arcs are renumbered sequentially along each component; the lexical
        minimum over all choices of starting arc is returned, so two
        diagrams differing only by labels normalize identically.
        """
        import itertools

        rotations = []
        for arcs in self.components:
            k = len(arcs)
            rotations.append([arcs[i:] + arcs[:i] for i in range(max(k, 1))])
        best = None
        for choice in itertools.product(*rotations):
            relabel = {}
            nxt = 1
            for order in choice:
                for a in order:
                    relabel[a] = nxt
                    nxt += 1
            cand = sorted(tuple(relabel[s] for s in x.slots) for x in self.crossings)
            if best is None or cand < best:
                best = cand
        return best


# ---------------------------------------------------------------------------
# PD parsing


_X_RE = re.compile(r"[Xx]\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text):
    """Parse a PD code, either X(a,b,c,d) tuples or the JSON form."""
    text = text.strip()
    if not text:
        raise MalformedCode("empty PD code")
    if text.startswith("{"):
        try:
            doc = json.loads(text)
        except ValueError as e:
            raise MalformedCode("bad JSON: %s" % e)
        return diagram_from_json(doc)
    tuples = [tuple(int(g) for g in m.groups()) for m in _X_RE.finditer(text)]
    leftover = _X_RE.sub("", text).replace(",", "").strip()
    if leftover or not tuples:
        raise MalformedCode("PD code must be X(a,b,c,d) tuples")
    return build_diagram(tuples)


def _is_int(v):
    """A JSON integer; JSON's true and false are not counts."""
    return isinstance(v, int) and not isinstance(v, bool)


def diagram_from_json(doc):
    if not isinstance(doc, dict) or not isinstance(doc.get("crossings"), list):
        raise MalformedCode("JSON diagram needs a 'crossings' list")
    components = doc.get("components")
    if components is not None and not _is_int(components):
        raise MalformedCode("'components' must be an integer")
    tuples = []
    for row in doc["crossings"]:
        if not (isinstance(row, list) and len(row) == 4 and all(map(_is_int, row))):
            raise MalformedCode("each crossing must be 4 integers")
        tuples.append(tuple(row))
    return build_diagram(
        tuples,
        declared_components=components,
        comment=doc.get("comment", ""),
    )


def build_diagram(tuples, declared_components=None, comment=""):
    """Validate raw PD tuples and build a LinkDiagram."""
    if any(s <= 0 for t in tuples for s in t):
        raise MalformedCode("arc labels must be positive integers")
    counts = {}
    for t in tuples:
        for s in t:
            counts[s] = counts.get(s, 0) + 1
    bad = [s for s, c in counts.items() if c != 2]
    if bad:
        raise InconsistentDiagram("arc labels used != 2 times: %s" % sorted(bad))

    # component partition: under and over pairs stay on one component
    parent = {s: s for s in counts}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        parent[find(x)] = find(y)

    for a, b, c, d in tuples:
        union(a, c)
        union(b, d)

    groups = {}
    for s in counts:
        groups.setdefault(find(s), []).append(s)
    comps = sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])

    # each arc's successor along its component, cyclically
    succ = {}
    for g in comps:
        succ.update(zip(g, g[1:] + g[:1]))

    # under-strand transitions must follow the numbering
    for a, b, c, d in tuples:
        if succ[a] != c:
            raise InconsistentDiagram(
                "under-strand at X%s does not follow arc numbering" % ((a, b, c, d),)
            )

    # orient the over-strands; each arc is incoming exactly once globally
    incoming_used = {a for a, b, c, d in tuples}  # under-in slots
    if len(incoming_used) != len(tuples):
        raise InconsistentDiagram("an arc is the incoming under-strand twice")
    over_dir = {}
    pending = []
    for t in tuples:
        a, b, c, d = t
        b_ok = succ[b] == d
        d_ok = succ[d] == b
        if b_ok and not d_ok:
            over_dir[t] = (b, d)
        elif d_ok and not b_ok:
            over_dir[t] = (d, b)
        elif b_ok and d_ok:
            pending.append(t)
        else:
            raise InconsistentDiagram("over-strand at X%s closes no cycle" % (t,))
    for t, (oin, oout) in over_dir.items():
        if oin in incoming_used:
            raise InconsistentDiagram("arc %d is incoming at two crossings" % oin)
        incoming_used.add(oin)
    # two-arc components passing over twice: settle by global consistency;
    # residual ties (a component that never goes under) default to the
    # over-strand entering at slot 4, the positive-crossing pattern
    for t in pending:
        a, b, c, d = t
        if b in incoming_used and d in incoming_used:
            raise InconsistentDiagram("over-strand arcs at X%s both consumed" % (t,))
        if d in incoming_used:
            over_dir[t] = (b, d)
        else:
            over_dir[t] = (d, b)
        incoming_used.add(over_dir[t][0])

    comp_of = {}
    for i, g in enumerate(comps):
        for s in g:
            comp_of[s] = i + 1

    crossings = []
    for t in tuples:
        a, b, c, d = t
        oin, oout = over_dir[t]
        sign = 1 if oin == d else -1
        crossings.append(
            Crossing(
                slots=t,
                sign=sign,
                over_in=oin,
                over_out=oout,
                under_component=comp_of[a],
                over_component=comp_of[b],
            )
        )

    components = [tuple(g) for g in comps]
    if declared_components is not None:
        if declared_components < len(components):
            raise InconsistentDiagram(
                "declared %d components but crossings span %d"
                % (declared_components, len(components))
            )
        # extra declared components are crossingless split unknots; give
        # each one a fresh arc label so it has an identity
        label = (max(counts) if counts else 0) + 1
        for _ in range(declared_components - len(components)):
            components.append((label,))
            label += 1
    return LinkDiagram(tuple(components), tuple(crossings), comment=comment)


# ---------------------------------------------------------------------------
# Gauss codes and crossing visits


def pd_from_visits(components):
    """PD tuples, in key order, of the crossings visited by `components`.

    Each component lists its visits (crossing key, "O" or "U", sign) in
    travel order, and every key is visited once over and once under.  Arcs
    are numbered along each component in turn: the arc after a
    component's j-th visit carries its j-th label, so labels increase with
    travel and wrap at the component's last.
    """
    ends, signs = {}, {}   # (key, role) -> (in arc, out arc); key -> sign
    arc = 1
    for visits in components:
        k = len(visits)
        for j, (key, role, sign) in enumerate(visits):
            ends[key, role] = (arc + (j - 1) % k, arc + j)
            signs[key] = sign
        arc += k
    tuples = []
    for key in sorted(signs):
        (ui, uo), (oi, oo) = ends[key, "U"], ends[key, "O"]
        tuples.append((ui, oo, uo, oi) if signs[key] > 0 else (ui, oi, uo, oo))
    return tuples


_G_RE = re.compile(r"([OoUu])\s*(\d+)\s*([+-])")


def parse_gauss(text):
    """Parse an oriented Gauss code: per-component O/U tokens with signs.

    Components are separated by ';' or newlines, e.g.
    "O1+ U2+ ; U1+ O2+".
    """
    chunks = [c for c in re.split(r"[;\n]", text) if c.strip()]
    if not chunks:
        raise MalformedCode("empty Gauss code")
    visits = []  # per component: list of (label, OU, sign)
    for chunk in chunks:
        toks = _G_RE.findall(chunk)
        leftover = _G_RE.sub("", chunk).replace(",", "").strip()
        if leftover or not toks:
            raise MalformedCode("bad Gauss tokens in %r" % chunk)
        visits.append([(int(lbl), ou.upper(), 1 if s == "+" else -1) for ou, lbl, s in toks])

    seen = {}
    for comp in visits:
        for lbl, ou, s in comp:
            seen.setdefault(lbl, []).append((ou, s))
    for lbl, occ in seen.items():
        if sorted(ou for ou, _ in occ) != ["O", "U"] or occ[0][1] != occ[1][1]:
            raise InconsistentDiagram(
                "crossing %d needs one O and one U visit with equal sign" % lbl
            )

    d = build_diagram(pd_from_visits(visits))
    # cross-check: the declared signs must match the rebuilt ones
    for lbl, x in zip(sorted(seen), d.crossings):
        if x.sign != seen[lbl][0][1]:
            raise InconsistentDiagram("sign of crossing %d is inconsistent" % lbl)
    return d
