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

The intersection curves of two surfaces of an embedding are read off
their cup records (``cup_intersection``): a disk meets the walls of a
lower cup along that cup's footprint at the disk's level, and two walls
meet over the points where their footprints cross.  No triangle pair is
boxed, shadow-tested or handed to the 3D kernel; the generic
triangle-pair intersection stays in the tests as the reference.
"""

from bisect import bisect_right
from dataclasses import dataclass
from math import lcm

from .drawing import point_in_polygon
from .errors import NotGeneric, StuckTrace
from .plgeom import PLCurve, curve_surface_crossings, in_closed_tri2, orient2, stitch
from .rational import Q


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
# surface-surface intersection curves, read off the cups


def cup_intersection(e, lo, hi):
    """Connected oriented components of F_lo meet F_hi, lo < hi, for the
    surfaces of an embedding.

    The curves are those the generic triangle-pair intersection gives:
    its segments, from the triangle pairs that meet, stitched (arcs first,
    then circles, each in the order of ``stitch``), and each segment runs
    along n_lo x n_hi, the cross product of the normals of the two
    triangles as wound.  Here they are read off the cups, because two
    surfaces of ``build_embedding`` meet only disk against wall and wall
    against wall:

    - each band lies inside the diamond of its crossing, between the dip
      and the curve's height, and no other strand passes the diamond;
    - the disks of different components sit at distinct levels;
    - every rim lies above every disk level;
    - footprints of different components meet only at the chord crossing
      Y of a crossing between them, and there inside one edge of each.

    So a band meets no other surface: another surface's walls keep out
    of its diamond and its disks lie below it.  Two disks are parallel at
    distinct levels.  A disk at level L meets the walls of a lower cup of
    the other surface along that cup's footprint at height L, inside the
    disk's footprint (``_disk_section``): the section crosses the
    footprint's boundary at its points Y, and it is cut where it crosses
    the ear clip's diagonals, at the footprint's vertices (the quads'
    vertical edges) and where each quad's diagonal passes height L.  Two
    walls meet in the vertical segment over each Y they share, cut at
    both quads' diagonal heights (``_wall_segments``).  These are the
    segments of the triangle pairs, point for point, and no box, shadow
    or 3D kernel is needed to find them.  The tests check the four facts
    on every test input, and these curves against the triangle-pair
    reference.
    """
    F, G = e.surfaces[lo], e.surfaces[hi]
    segs = []
    for c in F.cups:
        ks = dict(c.crossings)
        for d in G.cups:
            shared = [(ks[xi], k) for xi, k in d.crossings if xi in ks]
            D, P, R = _common(c.footprint, d.footprint)
            if d.level < c.level:
                segs += _disk_section(D, c, P, G, d, R, shared, False)
            else:
                segs += _disk_section(D, d, R, F, c, P, [(b, a) for a, b in shared], True)
            segs += _wall_segments(D, F, c, P, G, d, R, shared)
    chains, loops = stitch(segs)
    return [IntersectionCurve(points=tuple(c), kind="arc") for c in chains] + [
        IntersectionCurve(points=tuple(c), kind="circle") for c in loops
    ]


def _common(f, g):
    """Two lifted footprints (D, points) at the denominator lcm: (D, P, R)."""
    (Df, P), (Dg, R) = f, g
    D = lcm(Df, Dg)
    if D != Df:
        P = [(x * (D // Df), y * (D // Df)) for x, y in P]
    if D != Dg:
        R = [(x * (D // Dg), y * (D // Dg)) for x, y in R]
    return D, P, R


def _cross_param(p0, p1, a, b):
    """(num, den), den > 0: where the line p0 p1 meets the line a b, as
    the parameter num / den along p0 -> p1; the lines are not parallel."""
    ex, ey = b[0] - a[0], b[1] - a[1]
    num = (a[0] - p0[0]) * ey - (a[1] - p0[1]) * ex
    den = (p1[0] - p0[0]) * ey - (p1[1] - p0[1]) * ex
    return (num, den) if den > 0 else (-num, -den)


def _at(D, R, k, num, den):
    """The rational xy at parameter num / den along edge k of R, over D."""
    (x0, y0), (x1, y1) = R[k], R[(k + 1) % len(R)]
    return (Q(den * x0 + num * (x1 - x0), den * D),
            Q(den * y0 + num * (y1 - y0), den * D))


def _disk_section(D, x, P, W, w, R, shared, hi_disk):
    """Oriented segments where the disk of cup x meets the walls of the
    lower cup w of surface W, at the disk's level.

    P and R are the footprints of x and w over one denominator D, and
    ``shared`` pairs the edge of P with the edge of R at each point Y
    they share.  Each run of R inside P starts at a Y where R crosses to
    P's inner side, or, when they share no Y and R lies inside P, at R's
    first vertex.  The disk's normal is (0, 0, s) for s the footprint's
    orientation, and a wall quad's normal is the left normal of its edge,
    so n_lo x n_hi runs along R when s > 0 and the disk is F_hi's, or
    s < 0 and it is F_lo's.
    """
    clip = x.clip
    s = orient2(*(P[i] for i in clip[0]))
    owner = {}
    for t, (i, j, k) in enumerate(clip):
        owner[i, j] = owner[j, k] = owner[k, i] = t
    n, m = len(P), len(R)
    runs = []
    for kx, kw in shared:
        a, b = P[kx], P[(kx + 1) % n]
        p0, p1 = R[kw], R[(kw + 1) % m]
        if s * ((b[0] - a[0]) * (p1[1] - p0[1]) - (b[1] - a[1]) * (p1[0] - p0[0])) > 0:
            runs.append(_walk_section(P, clip, owner, s, R, kw, _cross_param(p0, p1, a, b),
                                      owner[kx, (kx + 1) % n], False))
    if not shared and point_in_polygon(P, R[0]):
        first = next(t for t, tri in enumerate(clip)
                     if in_closed_tri2(P[tri[0]], P[tri[1]], P[tri[2]], R[0], s))
        runs.append(_walk_section(P, clip, owner, s, R, 0, (0, 1), first, True))
    along = (s > 0) == hi_disk
    L, walls = x.level, W.triangles[w.walls.start:w.walls.stop:2]
    out = []
    for cuts in runs:
        pts = []
        for (k, num, den), nxt in zip(cuts, cuts[1:] + [None]):
            pts.append(walls[k][0][:2] if num == 0 else _at(D, R, k, num, den))
            if nxt is None:
                break
            # the quad's diagonal p -> qb passes height L at p + u (q - p)
            p = walls[k][0]
            u = (p[2] - L) / (p[2] - w.level)
            if num * u.denominator < u.numerator * den and (
                    nxt[0] != k or u.numerator * nxt[2] < nxt[1] * u.denominator):
                pts.append(_at(D, R, k, u.numerator, u.denominator))
        pts = [(px, py, L) for px, py in pts]
        out += [(p, q) if along else (q, p) for p, q in zip(pts, pts[1:])]
    return out


def _walk_section(P, clip, owner, s, R, k, t, tri, closed):
    """Cuts (k, num, den) of a run of the polyline R through the ear clip
    of P, in order along R, from parameter t of edge k in triangle
    ``tri``: each vertex of R passed (num = 0) and each crossing of an
    edge of the clip, to P's boundary, or (``closed``) round to the
    start.

    This is the straight walk through a triangulation (Devillers, Pion
    and Teillaud, "Walking in a triangulation", IJFCS 13, 2002).  No
    corner of the clip lies on R (footprints meet only inside edges), so
    an edge of R that does not end in the current triangle leaves it
    through the one edge (u, v), in winding order, whose corners lie
    strictly on either side of its line: u right of it and v left when
    s > 0, and the other way round when s < 0.
    """
    m = len(R)
    cuts = [(k, *t)]
    tn, td = t
    start = k
    while True:
        (x0, y0), p1 = R[k], R[(k + 1) % m]
        dx, dy = p1[0] - x0, p1[1] - y0
        while True:
            i, j, l = clip[tri]
            if in_closed_tri2(P[i], P[j], P[l], p1, s):
                break
            for u, v in ((i, j), (j, l), (l, i)):
                su = s * (dx * (P[u][1] - y0) - dy * (P[u][0] - x0))
                sv = s * (dx * (P[v][1] - y0) - dy * (P[v][0] - x0))
                if su < 0 < sv:
                    break
            else:
                raise NotGeneric("wall section lost in a disk")
            num, den = _cross_param(R[k], p1, P[u], P[v])
            if num * td > tn * den:
                cuts.append((k, num, den))
                tn, td = num, den
            tri = owner.get((v, u))
            if tri is None:
                return cuts
        k = (k + 1) % m
        cuts.append((k, 0, 1))
        tn, td = 0, 1
        if closed and k == start:
            return cuts


def _wall_segments(D, F, c, P, G, d, R, shared):
    """Oriented vertical segments where the walls of cup c of F_lo meet
    those of cup d of F_hi: over each point Y that edge kc of c's
    footprint shares with edge kd of d's, from the higher level up to the
    lower rim, cut where either quad's diagonal passes Y.  Both normals
    are horizontal, the left normals of the edges, so n_lo x n_hi points
    up when edge kd turns left from edge kc.  P and R are the footprints
    of c and d over one denominator D."""
    out = []
    for kc, kd in shared:
        a, b = P[kc], P[(kc + 1) % len(P)]
        p0, p1 = R[kd], R[(kd + 1) % len(R)]
        num, den = _cross_param(a, b, p0, p1)
        zc = _wall_heights(F, c, kc, Q(num, den))
        zd = _wall_heights(G, d, kd, Q(*_cross_param(p0, p1, a, b)))
        bottom, top = max(c.level, d.level), min(zc[0], zd[0])
        zs = sorted({bottom, top} | {z for z in (zc[1], zd[1]) if bottom < z < top})
        x, y = _at(D, P, kc, num, den)
        pts = [(x, y, z) for z in zs]
        up = (b[0] - a[0]) * (p1[1] - p0[1]) - (b[1] - a[1]) * (p1[0] - p0[0]) > 0
        out += [(p, q) if up else (q, p) for p, q in zip(pts, pts[1:])]
    return out


def _wall_heights(S, cup, k, u):
    """Heights of the rim and of the quad's diagonal at parameter u along
    the wall quad over footprint edge k of a cup of surface S."""
    p, q = S.triangles[cup.walls.start + 2 * k][:2]
    return p[2] + u * (q[2] - p[2]), p[2] + u * (cup.level - p[2])


def reversed_intersection(curves):
    """The intersection curves of (F_b, F_a) from those of (F_a, F_b).

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
    """The oriented intersection curves of F_a and F_b of an embedding.

    Each unordered pair is intersected once, by ``cup_intersection`` as
    (lo, hi) with lo < hi, and kept in ``e.intersections``; the (hi, lo)
    curves are its reversal.  A
    NotGeneric propagates before anything is stored, and the rebuild of
    ``embed.measured`` is a fresh embedding with an empty cache.
    """
    lo, hi = min(a, b), max(a, b)
    curves = e.intersections.get((lo, hi))
    if curves is None:
        curves = cup_intersection(e, lo, hi)
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
