"""Oriented intersection curves of two Seifert surfaces and the derived
boundary they generate.

For an ordered surface pair (F_a, F_b) the intersection curves are
oriented so that the frame (normal of F_a, normal of F_b, tangent) is
right-handed.  With that convention every arc leaves the +1 pierce points
of K_a through F_b and enters the -1 ones, so the closed 1-cycle bounding
the "next level" surface can be traced deterministically by one walk: take
the arc out of a departure, then travel along the curve it lands on to the
next departure not yet used.  A K_a loop starts at a -1 pierce not yet
landed on, travels along K_a to the next unused +1, follows its arc, travels
along K_b whenever the arc lands there, and closes when it lands on its
start again.  Arcs attached to K_b at both ends can close into K_b-only
loops that never meet a pierce: once the K_a loops are done, one starts at
each K_b departure still unused, in order along K_b, and closes when the
next departure is its own start.  Circles of the intersection join the
result as standalone loops.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .errors import NotGeneric, StuckTrace
from .plgeom import (
    PLCurve,
    curve_surface_crossings,
    point_key,
    stitch,
    v_cross,
)


@dataclass(frozen=True)
class PiercePoint:
    location: tuple
    label: int            # +1 / -1, local crossing sign of K_a through F_b
    position: object      # parameter along K_a


@dataclass(frozen=True)
class IntersectionCurve:
    points: tuple         # oriented polyline; circles omit the repeat
    kind: str             # "arc" | "circle"


@dataclass(frozen=True)
class BoundaryPiece:
    kind: str             # "interior" | "along" | "circle"
    component: object     # component id for "along", else None
    points: tuple         # oriented polyline of the piece


@dataclass(frozen=True)
class DerivedBoundary:
    pair: tuple
    loops: tuple          # tuple of tuples of BoundaryPiece
    pierce_points: tuple

    def loop_curves(self):
        """Each loop as a closed PLCurve."""
        out = []
        for loop in self.loops:
            pts = []
            for piece in loop:
                for p in piece.points:
                    if not pts or pts[-1] != p:
                        pts.append(p)
            if pts[0] == pts[-1]:
                pts.pop()
            out.append(PLCurve(pts, closed=True))
        return out


# ---------------------------------------------------------------------------
# surface-surface intersection curves


def surface_intersection(F_a, F_b):
    """Connected oriented components of the point set F_a meet F_b.

    Segments come from the triangle pairs of ``F_a.meets(F_b)``.  Arcs
    come first, then circles, each in the order of ``stitch``.  Points are
    keyed on the integers of ``point_key``, compared as rationals only to
    order the output.  Each segment is oriented by the contract of
    ``triangle_triangle``: from triangles whose planes are not parallel it
    runs along n_a x n_b, so a witness pair says +1 when its segment is in
    key order and -1 when not, and every witness of one segment must say
    the same.
    """
    segs = {}   # unordered key pair -> [p, q in key order, witnesses]
    for ia, ib, r in F_a.meets(F_b):
        if r[0] == "polygon":
            raise NotGeneric("overlapping coplanar triangles")
        if r[0] == "point":
            # tolerated only when a curve endpoint lands on a triangle
            # corner of the *other* pair member; real isolated contact
            # shows up as an unmatched key below
            p = q = r[1]
        else:
            p, q = r[1]
        kp, kq = point_key(p), point_key(q)
        # the kernel's segment runs along n_a x n_b: +1 when that is key order
        way = 1 if kp <= kq else -1
        key, ends = ((kp, kq), (p, q)) if way > 0 else ((kq, kp), (q, p))
        segs.setdefault(key, [*ends, []])[2].append((ia, ib, way))

    oriented = []
    for (kp, kq), (p, q, wits) in segs.items():
        if kp == kq:
            continue  # point contacts are checked after stitching
        dirs = set()
        for ia, ib, way in wits:
            # parallel normals: coplanar triangles touching along an edge
            if v_cross(F_a.planes[ia][0], F_b.planes[ib][0]) == (0, 0, 0):
                raise NotGeneric("tangential surface contact")
            dirs.add(way)
        if len(dirs) != 1:
            raise NotGeneric("inconsistent orientation along intersection")
        oriented.append((p, q) if dirs.pop() > 0 else (q, p))

    chains, loops = stitch(oriented)
    ends = {k for kp, kq in segs if kp != kq for k in (kp, kq)}
    if any(kp == kq and kp not in ends for kp, kq in segs):
        raise NotGeneric("isolated surface contact point")
    return [IntersectionCurve(points=tuple(c), kind="arc") for c in chains] + [
        IntersectionCurve(points=tuple(c), kind="circle") for c in loops
    ]


def reversed_intersection(curves):
    """``surface_intersection(F_b, F_a)`` from the curves of
    ``surface_intersection(F_a, F_b)``.

    Swapping the surfaces negates n_a x n_b, so every curve runs backwards:
    arcs are reversed and re-sorted by their new first point, circles keep
    their least vertex as the start and run the other way round.
    """
    arcs = sorted((c.points[::-1] for c in curves if c.kind == "arc"),
                  key=lambda pts: pts[0])
    return [IntersectionCurve(points=pts, kind="arc") for pts in arcs] + [
        IntersectionCurve(points=c.points[:1] + c.points[:0:-1], kind="circle")
        for c in curves if c.kind == "circle"
    ]


def embedded_intersection(e, a, b):
    """``surface_intersection(F_a, F_b)`` of an embedding.

    Each unordered pair is intersected once, as (lo, hi) with lo < hi, and
    kept in ``e.intersections``; the (hi, lo) curves are its reversal.  A
    NotGeneric propagates before anything is stored, and the rebuild of
    ``embed.measured`` is a fresh embedding with an empty cache.
    """
    lo, hi = min(a, b), max(a, b)
    curves = e.intersections.get((lo, hi))
    if curves is None:
        curves = surface_intersection(e.surfaces[lo], e.surfaces[hi])
        e.intersections[(lo, hi)] = curves
    return list(curves) if a < b else reversed_intersection(curves)


# ---------------------------------------------------------------------------
# pierce points


def pierce_points(K_a, F_b):
    """Transversal pierces of K_a through F_b with exact labels."""
    return [PiercePoint(location=x, label=s, position=pos)
            for pos, x, s, _ in curve_surface_crossings(K_a, F_b)]


# ---------------------------------------------------------------------------
# the derived boundary tracer


def _next_after(positions, pos, ok, stuck):
    """First of the sorted `positions` strictly after `pos`, cyclically,
    that passes `ok`; raises StuckTrace(stuck) when none does."""
    n = len(positions)
    k0 = bisect_right(positions, pos)
    for step in range(n):
        q = positions[(k0 + step) % n]
        if ok(q):
            return q
    raise StuckTrace(stuck)


def _balanced_pierces(K_a, F_b, pair):
    """The pierces of K_a through F_b as a tuple.  Their labels sum to the
    linking number, which the diagram has proved zero, so any other sum
    means the geometry disagrees with the diagram: StuckTrace."""
    pierces = tuple(pierce_points(K_a, F_b))
    total = sum(p.label for p in pierces)
    if total != 0:
        raise StuckTrace("pierce labels of pair %r sum to %d" % (pair, total))
    return pierces


def _trace(K_a, K_b, pierces, pair, curves):
    """Derived boundary from the pierces of K_a through F_b and the
    intersection curves of F_a and F_b."""
    curve_of = {"a": K_a, "b": K_b}
    component = {"a": pair[0], "b": pair[1]}
    pierce_at = {p.location: ("a", p.position) for p in pierces}
    label_at = {("a", p.position): p.label for p in pierces}

    def end(x):
        if x in pierce_at:
            return pierce_at[x]
        pos = K_b.locate(x)
        if pos is None:
            raise NotGeneric("intersection arc endpoint off both curves")
        return "b", pos

    # every end is located before any is checked, so that an end off both
    # curves is reported as the degeneracy it is
    arcs = [(c.points, end(c.points[0]), end(c.points[-1]))
            for c in curves if c.kind == "arc"]
    leaves = {}    # departure (side, position) -> (points, landing)
    ends = set()
    for points, dep, landing in arcs:
        # orientation convention: arcs leave +1 pierces and land on -1 ones
        for x, label in ((dep, 1), (landing, -1)):
            if x in ends or label_at.get(x, label) != label:
                if x[0] == "a":
                    raise StuckTrace("arc end is not a fresh %+d pierce" % label)
                raise NotGeneric("two arcs meet one point of the second component")
            ends.add(x)
        leaves[dep] = (points, landing)
    if sum(side == "a" for side, _ in ends) != len(pierces):
        raise StuckTrace("pierce/arc incidence mismatch")
    order = {side: sorted(pos for s, pos in leaves if s == side) for side in "ab"}

    # the one walk of the module docstring: K_a loops first, then K_b-only
    minus = sorted(p.position for p in pierces if p.label == -1)
    used = set()   # arc ends the walk has passed through
    loops = []
    for start in [("a", q) for q in minus] + [("b", q) for q in order["b"]]:
        if start in used:
            continue
        side, pos = start
        loop = []
        while True:
            if (side, pos) in leaves:
                points, landing = leaves[(side, pos)]
                used.update(((side, pos), landing))
                loop.append(BoundaryPiece(kind="interior", component=None,
                                          points=points))
                if start[0] == "b" and landing[0] == "a":
                    raise StuckTrace("second-component loop escaped to a pierce")
                side, pos = landing
            else:
                dep = _next_after(order[side], pos,
                                  lambda q: (side, q) == start or (side, q) not in used,
                                  "no reachable departure from %s %s" % (side, pos))
                loop.append(BoundaryPiece(
                    kind="along", component=component[side],
                    points=tuple(curve_of[side].subarc(pos, dep))))
                pos = dep
            if (side, pos) == start:
                break
        loops.append(tuple(loop))

    if len(used) != len(ends):
        raise StuckTrace("%d intersection arcs left untraced"
                         % ((len(ends) - len(used)) // 2))
    loops += [(BoundaryPiece(kind="circle", component=None, points=c.points),)
              for c in curves if c.kind == "circle"]
    db = DerivedBoundary(pair=pair, loops=tuple(loops), pierce_points=pierces)
    _check_closed(db)
    return db


def _check_closed(db):
    for loop in db.loops:
        if len(loop) == 1 and loop[0].kind == "circle":
            continue
        for k, piece in enumerate(loop):
            nxt = loop[(k + 1) % len(loop)]
            if piece.points[-1] != nxt.points[0]:
                raise StuckTrace("derived boundary loop fails to close")


def trace_derived_boundary(e, a, b):
    """Derived boundary of an embedded pair; requires lk(a, b) = 0.

    The pair is first admitted by the diagram's ``check_unlinked``:
    InputError unless it is two distinct components, NonzeroLinking when
    they link.  The pierces of K_a through F_b are found once per ordered
    pair and kept in ``e.pierces``; a NotGeneric or StuckTrace propagates
    before anything is stored.
    """
    e.diagram.check_unlinked((a, b), 2)
    pierces = e.pierces.get((a, b))
    if pierces is None:
        pierces = _balanced_pierces(e.curves[a], e.surfaces[b], (a, b))
        e.pierces[(a, b)] = pierces
    return _trace(e.curves[a], e.curves[b], pierces, (a, b),
                  embedded_intersection(e, a, b))
