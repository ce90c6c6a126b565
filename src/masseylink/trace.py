"""Oriented intersection curves of two Seifert surfaces and the derived
boundary they generate.

For an ordered surface pair (F_a, F_b) the intersection curves are
oriented so that the frame (normal of F_a, normal of F_b, tangent) is
right-handed.  With that convention every arc leaves the +1 pierce points
of K_a through F_b and enters the -1 ones, so the closed 1-cycle bounding
the "next level" surface can be traced deterministically: travel along
K_a from a -1 pierce to the first unconsumed +1, follow its arc, travel
along K_b whenever the arc lands there, skip arcs that cannot be followed,
and close up at the start.  Circles of the intersection join the result
as standalone loops.
"""

from bisect import bisect_right
from dataclasses import dataclass

from .errors import NonzeroLinking, NotGeneric, StuckTrace
from .plgeom import (
    PLCurve,
    curve_surface_crossings,
    point_key,
    stitch,
    tri_normal,
    triangle_triangle,
    v_cross,
    v_dot,
    v_sub,
)
from .rational import sign


@dataclass(frozen=True)
class PiercePoint:
    location: tuple
    label: int            # +1 / -1, local crossing sign of K_a through F_b
    component: int        # a
    position: object      # parameter along K_a
    triangle: int         # pierced triangle of F_b


@dataclass(frozen=True)
class IntersectionCurve:
    points: tuple         # oriented polyline; circles omit the repeat
    kind: str             # "arc" | "circle"
    ends: tuple           # per endpoint ("a", position) / ("b", position); () for circles
    pair: tuple           # (a, b)

    def curve(self):
        return PLCurve(list(self.points), closed=self.kind == "circle")


@dataclass(frozen=True)
class BoundaryPiece:
    kind: str             # "interior" | "along" | "circle"
    component: object     # component id for "along", else None
    points: tuple         # oriented polyline of the piece
    span: object          # (pos0, pos1) on the component for "along", else None


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


def surface_intersection(F_a, F_b, pair=(0, 0)):
    """Connected oriented components of the point set F_a meet F_b.

    Arcs come first, then circles, each in the order of ``stitch``.
    Points are keyed on the integers of ``point_key`` and compared as
    rationals only to order the output.
    """
    segs = {}   # unordered key pair -> [p, q, witness triangle pairs]
    for ia, box in enumerate(F_a.index.arr):
        for ib in F_b.index.query(box):
            r = triangle_triangle(F_a.lifted[ia], F_b.lifted[ib])
            if r[0] == "empty":
                continue
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
            key = (kp, kq) if kp <= kq else (kq, kp)
            segs.setdefault(key, [p, q, []])[2].append((ia, ib))

    oriented = []
    for (kp, kq), (p, q, wits) in segs.items():
        if kp == kq:
            continue  # point contacts are checked after stitching
        d = v_sub(q, p)
        dirs = set()
        for ia, ib in wits:
            # integer normals: positive multiples of the rational ones
            na = tri_normal(F_a.lifted[ia].verts)
            nb = tri_normal(F_b.lifted[ib].verts)
            s = sign(v_dot(v_cross(na, nb), d))
            if s == 0:
                raise NotGeneric("tangential surface contact")
            dirs.add(s)
        if len(dirs) != 1:
            raise NotGeneric("inconsistent orientation along intersection")
        oriented.append((p, q) if dirs.pop() > 0 else (q, p))

    chains, loops = stitch(oriented)
    ends = {k for kp, kq in segs if kp != kq for k in (kp, kq)}
    if any(kp == kq and kp not in ends for kp, kq in segs):
        raise NotGeneric("isolated surface contact point")
    return [
        IntersectionCurve(points=tuple(c), kind="arc", ends=(), pair=pair) for c in chains
    ] + [
        IntersectionCurve(points=tuple(c), kind="circle", ends=(), pair=pair) for c in loops
    ]


def reversed_intersection(curves, pair):
    """``surface_intersection(F_b, F_a, pair)`` from the curves of
    ``surface_intersection(F_a, F_b)``.

    Swapping the surfaces negates n_a x n_b, so every curve runs backwards:
    arcs are reversed and re-sorted by their new first point, circles keep
    their least vertex as the start and run the other way round.
    """
    arcs = sorted((c.points[::-1] for c in curves if c.kind == "arc"),
                  key=lambda pts: pts[0])
    return [
        IntersectionCurve(points=pts, kind="arc", ends=(), pair=pair) for pts in arcs
    ] + [
        IntersectionCurve(points=c.points[:1] + c.points[:0:-1], kind="circle",
                          ends=(), pair=pair)
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
        curves = surface_intersection(e.surfaces[lo], e.surfaces[hi], pair=(lo, hi))
        e.intersections[(lo, hi)] = curves
    return list(curves) if a < b else reversed_intersection(curves, (a, b))


# ---------------------------------------------------------------------------
# pierce points


def pierce_points(K_a, F_b, component=0):
    """Transversal pierces of K_a through F_b with exact labels."""
    events = curve_surface_crossings(K_a, F_b)
    return [
        PiercePoint(location=x, label=s, component=component, position=pos, triangle=ti)
        for pos, x, s, ti in events
    ]


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
    """The pierces of K_a through F_b as a tuple; NonzeroLinking unless
    their labels sum to zero."""
    pierces = tuple(pierce_points(K_a, F_b, component=pair[0]))
    total = sum(p.label for p in pierces)
    if total != 0:
        raise NonzeroLinking("pierce labels of pair %r sum to %d" % (pair, total))
    return pierces


def trace_pair(K_a, K_b, F_a, F_b, pair=(0, 0)):
    """Derived boundary of the ordered pair, on explicit curves/surfaces."""
    return _trace(K_a, K_b, _balanced_pierces(K_a, F_b, pair), pair,
                  lambda: surface_intersection(F_a, F_b, pair))


def _trace(K_a, K_b, pierces, pair, intersect):
    """Derived boundary from the pierces of K_a through F_b and the
    intersection curves that `intersect()` returns."""
    a_id, b_id = pair
    curves = intersect()

    pierce_at = {p.location: p for p in pierces}
    arcs = []
    circles = []
    for c in curves:
        if c.kind == "circle":
            circles.append(c)
            continue
        ends = []
        for endpoint in (c.points[0], c.points[-1]):
            if endpoint in pierce_at:
                ends.append(("a", pierce_at[endpoint].position))
            else:
                pos = K_b.locate(endpoint)
                if pos is None:
                    raise NotGeneric("intersection arc endpoint off both curves")
                ends.append(("b", pos))
        arcs.append(
            IntersectionCurve(points=c.points, kind="arc", ends=tuple(ends), pair=pair)
        )

    # orientation convention: arcs leave +1 pierces and enter -1 pierces
    out_arc = {}
    in_arc = {}
    departs_b = {}
    arrives_b = {}
    for k, c in enumerate(arcs):
        side0, pos0 = c.ends[0]
        side1, pos1 = c.ends[1]
        if side0 == "a":
            p = pierce_at[c.points[0]]
            if p.label != 1 or p.position in out_arc:
                raise StuckTrace("arc does not leave a fresh +1 pierce")
            out_arc[p.position] = k
        else:
            if pos0 in departs_b:
                raise NotGeneric("two arcs depart one attachment point")
            departs_b[pos0] = k
        if side1 == "a":
            p = pierce_at[c.points[-1]]
            if p.label != -1 or p.position in in_arc:
                raise StuckTrace("arc does not enter a fresh -1 pierce")
            in_arc[p.position] = k
        else:
            if pos1 in arrives_b:
                raise NotGeneric("two arcs arrive at one attachment point")
            arrives_b[pos1] = k

    plus = sorted(p.position for p in pierces if p.label == 1)
    minus = sorted(p.position for p in pierces if p.label == -1)
    if len(out_arc) != len(plus) or len(in_arc) != len(minus):
        raise StuckTrace("pierce/arc incidence mismatch")

    b_positions = sorted(departs_b)
    a_positions = sorted(p.position for p in pierces)
    used = set()
    consumed_minus = set()
    loops = []

    def fresh_plus(q):
        return q in out_arc and out_arc[q] not in used

    def fresh_departure(q):
        return departs_b[q] not in used

    for start in minus:
        if start in consumed_minus:
            continue
        loop = []
        cur = start
        while True:
            q = _next_after(a_positions, cur, fresh_plus,
                            "no reachable +1 pierce from position %s" % cur)
            loop.append(
                BoundaryPiece(
                    kind="along", component=a_id,
                    points=tuple(K_a.subarc(cur, q)), span=(cur, q),
                )
            )
            arc = arcs[out_arc[q]]
            used.add(out_arc[q])
            loop.append(BoundaryPiece(kind="interior", component=None,
                                      points=arc.points, span=None))
            side, pos = arc.ends[1]
            while side == "b":
                dep = _next_after(b_positions, pos, fresh_departure,
                                  "no reachable departure on the second component")
                loop.append(
                    BoundaryPiece(
                        kind="along", component=b_id,
                        points=tuple(K_b.subarc(pos, dep)), span=(pos, dep),
                    )
                )
                arc = arcs[departs_b[dep]]
                used.add(departs_b[dep])
                loop.append(
                    BoundaryPiece(kind="interior", component=None,
                                  points=arc.points, span=None)
                )
                side, pos = arc.ends[1]
            # landed on a -1 pierce of K_a
            consumed_minus.add(pos)
            if pos == start:
                break
            cur = pos
        loops.append(tuple(loop))

    # arcs attached to the second component at both ends can close into
    # loops that never meet a pierce of K_a; start each from any unused
    # departure and follow the same travel rule
    while True:
        remaining = [q for q in b_positions if departs_b[q] not in used]
        if not remaining:
            break
        start_q = remaining[0]
        loop = []
        k = departs_b[start_q]
        while True:
            used.add(k)
            arc = arcs[k]
            loop.append(BoundaryPiece(kind="interior", component=None,
                                      points=arc.points, span=None))
            side, pos = arc.ends[1]
            if side != "b":
                raise StuckTrace("second-component loop escaped to a pierce")
            q = _next_after(b_positions, pos,
                            lambda q: q == start_q or fresh_departure(q),
                            "no departure to continue a second-component loop")
            loop.append(
                BoundaryPiece(
                    kind="along", component=b_id,
                    points=tuple(K_b.subarc(pos, q)), span=(pos, q),
                )
            )
            if q == start_q:
                break
            k = departs_b[q]
        loops.append(tuple(loop))

    if len(used) != len(arcs):
        raise StuckTrace("%d intersection arcs left untraced" % (len(arcs) - len(used)))
    for c in circles:
        loops.append(
            (BoundaryPiece(kind="circle", component=None, points=c.points,
                           span=None),)
        )
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

    The pierces of K_a through F_b are found once per ordered pair and
    kept in ``e.pierces``; a NotGeneric or NonzeroLinking propagates before
    anything is stored.
    """
    if e.diagram.linking_number(a, b) != 0:
        raise NonzeroLinking(
            "lk(%d,%d) = %d" % (a, b, e.diagram.linking_number(a, b))
        )
    pierces = e.pierces.get((a, b))
    if pierces is None:
        pierces = _balanced_pierces(e.curves[a], e.surfaces[b], (a, b))
        e.pierces[(a, b)] = pierces
    return _trace(e.curves[a], e.curves[b], pierces, (a, b),
                  lambda: embedded_intersection(e, a, b))
