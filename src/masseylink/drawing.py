"""Exact planar drawings of link diagrams.

The diagram's rotation system (PD slots counterclockwise) fixes a
combinatorial map; its faces give the planarity test.  Node positions are
integers from the shift method on the map's stellated triangulation, so
the drawing is planar with the diagram's rotation by construction; one
exact check (distinct positions, planarity, slot order) confirms it, and
one integer scale makes the clearances follow from it.  Its planarity
part, ``segments_touch``, takes its candidate pairs from
``plgeom.BoxIndex.pairs`` like every other pair check.

Each crossing is finished on its own arms: every arm is cut where it
leaves a small bulged diamond around the crossing vertex, and the two
pairs of opposite cut points are joined by straight chords, which
intersect in a single interior point.  All later geometry lives on two
rails of stations, one on each chord (`CrossingStations`): the under rail
carries the dip, smoothing bypasses turn off at the rails' ends, and twist
bands are ruled between the two rails.

The diamond of radius r is the closed curve of the points
r * (1 + a(1-a)/2) * (+-a, +-(1-a)), 0 <= a <= 1, and the arm with
direction (dx, dy) leaves it at a = |dx| / (|dx| + |dy|), a rational
point.  The curve is strictly convex: in one quadrant
v(a) = (1 + a(1-a)/2) * (a, 1-a) has v' x v'' = -(3/2)(1 - a + a^2),
which is never zero, and at the axis points the tangent turns left, with
a cross product of 1 > 0.  So the four arms of a crossing, in distinct
counterclockwise directions as `_verify_positions` guarantees, leave it
at four points in strictly convex position, and the chords cross at one
point inside both, with no further check.  Each arm ray leaves the curve
once, so an arc's first segment meets the gadget only at its own exit;
the gadget lies within 9/8 r of its crossing, so the clearances the
scale gives keep every other arc and gadget away.  Nothing is rounded.
"""

from dataclasses import dataclass

from .errors import EmbeddingDegenerate, NonRealizable
from .plgeom import BoxIndex, orient2
from .rational import Q

# grid clearance in scaled grid units (see _verify_positions)
_MIN_CLEAR = 8


# ---------------------------------------------------------------------------
# 2D exact helpers


def seg2_properly_intersect(a, b, c, d):
    """Do closed segments ab and cd share a point, given no shared endpoint?"""
    o1, o2 = orient2(a, b, c), orient2(a, b, d)
    o3, o4 = orient2(c, d, a), orient2(c, d, b)
    if o1 != o2 and o3 != o4:
        return True
    for p, (u, v) in ((c, (a, b)), (d, (a, b)), (a, (c, d)), (b, (c, d))):
        if _on_seg2(u, v, p):
            return True
    return False


def _on_seg2(a, b, p):
    if orient2(a, b, p) != 0:
        return False
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def _strictly_between(a, b, p):
    return p != a and p != b and _on_seg2(a, b, p)


def segments_touch(segs):
    """Do two of the closed segments (a, b) of integer points meet anywhere
    other than in one common endpoint?

    The candidate pairs i < j are those whose float boxes, at z = 0,
    ``BoxIndex.pairs`` finds overlapping.  Every coordinate is shifted
    right by one amount that keeps it in float range; a shift, like the
    rounding after it, is monotone, so no overlapping pair is lost.
    """
    segs = list(segs)
    bits = max((abs(c).bit_length() for seg in segs for p in seg for c in p), default=0)
    shift = max(0, bits - 1000)

    def row(a, b):
        lo = [float(min(u, v) >> shift) for u, v in zip(a, b)]
        hi = [float(max(u, v) >> shift) for u, v in zip(a, b)]
        return (*lo, 0.0, *hi, 0.0)

    index = BoxIndex([row(a, b) for a, b in segs])
    for i, j in index.pairs(index):
        if i >= j:
            continue
        (a, b), (c, d) = segs[i], segs[j]
        shared = {a, b} & {c, d}
        if len(shared) > 1:
            return True
        if shared:
            # one common endpoint: neither segment may hold another
            # point of the other
            if any(_strictly_between(u, v, q)
                   for u, v, q in ((a, b, c), (a, b, d), (c, d, a), (c, d, b))):
                return True
        elif seg2_properly_intersect(a, b, c, d):
            return True
    return False


def seg2_intersection(a, b, c, d):
    """Intersection point of lines ab and cd (must not be parallel)."""
    d1 = (b[0] - a[0], b[1] - a[1])
    d2 = (d[0] - c[0], d[1] - c[1])
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if den == 0:
        raise ValueError("parallel chords")
    t = Q((c[0] - a[0]) * d2[1] - (c[1] - a[1]) * d2[0], den)
    return (a[0] + t * d1[0], a[1] + t * d1[1])


def point_in_polygon(poly, p):
    """Exact even-odd test; p must not lie on the polygon boundary."""
    inside = False
    n = len(poly)
    for i in range(n):
        a, b = poly[i], poly[(i + 1) % n]
        # half-open rule on the y-interval
        if (a[1] > p[1]) != (b[1] > p[1]):
            # x coordinate of the edge at height p[1], compared exactly
            # p.x < a.x + (p.y-a.y)*(b.x-a.x)/(b.y-a.y)
            lhs = (p[0] - a[0]) * (b[1] - a[1])
            rhs = (p[1] - a[1]) * (b[0] - a[0])
            if (lhs < rhs) if b[1] > a[1] else (lhs > rhs):
                inside = not inside
    return inside


def polygon_area2(poly):
    """Twice the signed area (positive for counterclockwise)."""
    s = 0
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        s += a[0] * b[1] - a[1] * b[0]
    return s


# ---------------------------------------------------------------------------
# combinatorial map


def _build_subdivided_graph(d, arcs):
    """Rotation lists of the 2-point subdivision (a simple graph)."""
    rot = {}
    for arc in arcs:
        for xo, _ in d.arc_ends[arc]:
            rot.setdefault(("x", xo), [None] * 4)
    for arc in arcs:
        (xo, so), (xi, si) = d.arc_ends[arc]
        n0, n1 = ("s", arc, 0), ("s", arc, 1)
        rot[("x", xo)][so] = n0
        rot[("x", xi)][si] = n1
        rot[n0] = [("x", xo), n1]
        rot[n1] = [n0, ("x", xi)]
    for key, lst in rot.items():
        if any(v is None for v in lst):
            raise NonRealizable("crossing with an unattached slot")
    return rot


def _trace_faces(rot):
    """Faces of a simple rotation map as lists of darts (node, neighbor-index).

    A walk arriving at v from u leaves by the neighbor after u in v's
    counterclockwise rotation, so each face lies to the right of its walk.
    """
    unused = {(u, k) for u, nbrs in rot.items() for k in range(len(nbrs))}
    faces = []
    while unused:
        start = cur = min(unused)
        walk = []
        while True:
            walk.append(cur)
            unused.discard(cur)
            v = rot[cur[0]][cur[1]]
            cur = (v, (rot[v].index(cur[0]) + 1) % len(rot[v]))
            if cur == start:
                break
        faces.append(walk)
    return faces


def _split_repeated_faces(rot):
    """Insert virtual chords until no face walk revisits a node.

    A revisit happens exactly at a cut vertex (a nugatory crossing or a
    connect-sum point); the chord between the nodes entered right after
    the two visits splits the face so each part sees the vertex once.
    The chords only let the grid layout treat every face as a simple
    cycle: they are not arcs, are never drawn, and removing them from a
    valid drawing keeps it valid.
    Returns the augmented rotation system.
    """
    rot = {u: list(nbrs) for u, nbrs in rot.items()}
    for _ in range(sum(len(n) for n in rot.values())):
        faces = _trace_faces(rot)
        target = None
        for face in faces:
            ns = [u for (u, _) in face]
            for i, u in enumerate(ns):
                if ns.count(u) > 1:
                    i2 = ns.index(u, i + 1)
                    target = (face, i, i2)
                    break
            if target:
                break
        if target is None:
            return rot
        face, i1, i2 = target
        m = len(face)
        # keep one visit on each side of the chord
        max_off = min(i2 - i1, m - (i2 - i1))
        chord = None
        for off in range(1, max_off):
            a = face[(i1 + off) % m][0]
            b = face[(i2 + off) % m][0]
            if a == b or b in rot[a]:
                continue
            chord = ((i1 + off) % m, (i2 + off) % m)
            break
        if chord is None:
            raise EmbeddingDegenerate("cannot split a degenerate face")
        ia, ib = chord
        a, ka = face[ia]
        b, kb = face[ib]
        # insert each chord dart at the leaving-dart position, which is
        # the angular gap this face occupies at the node
        rot[a].insert(ka, b)
        rot[b].insert(kb, a)
    raise EmbeddingDegenerate("face splitting did not terminate")


# ---------------------------------------------------------------------------
# grid layout (shift method) and its exact check


def _grid_positions(rot, faces, outer):
    """Integer grid drawing of the map with every face stellated.

    An apex inside each face, outer included, makes a simple triangulation
    (its faces are simple cycles); the outer face's apex and first edge
    bound its outer triangle.  A canonical ordering is peeled from that
    apex down, always taking the chord-free contour node of least degree,
    nearest the middle among ties (its surfaces meet fewer bounding boxes
    per query than with the middle node alone).  The shift method of de
    Fraysseix, Pach and Pollack places the nodes in that order, so straight
    edges are planar and every rotation counterclockwise by construction.
    Only the real nodes' positions are returned.
    """
    # the face that leaves u by dart (u, k) fills the gap before rot[u][k]
    apex = {dart: ("f", fi) for fi, face in enumerate(faces) for dart in face}
    tri = {("f", fi): [u for (u, _) in reversed(face)] for fi, face in enumerate(faces)}
    for u, nbrs in rot.items():
        tri[u] = [w for k, v in enumerate(nbrs) for w in (apex[(u, k)], v)]
    v1, k1 = outer[0]
    v2, vn = rot[v1][k1], apex[outer[0]]

    # peel: the contour runs v1 .. v2 over the top; count[u] is the number
    # of contour nodes adjacent to u, exactly 2 when u has no chord
    contour = [v1, vn, v2]
    count = {v1: 2, vn: 2, v2: 2}
    peeled = []
    while len(contour) > 2:
        i = min(
            (i for i in range(1, len(contour) - 1) if count[contour[i]] == 2),
            key=lambda i: (len(tri[contour[i]]), abs(2 * i - len(contour))),
        )
        wl, v, wr = contour[i - 1 : i + 2]
        peeled.append((v, wl, wr))
        del count[v]
        count[wl] -= 1
        count[wr] -= 1
        # v's remaining neighbors, counterclockwise from wl to wr, join
        j = tri[v].index(wl)
        ring = tri[v][j:] + tri[v][:j]
        new = ring[1 : ring.index(wr)]
        for u in new:
            near = [w for w in tri[u] if w in count]
            count[u] = len(near)
            for w in near:
                count[w] += 1
        contour[i : i + 1] = new

    # place in canonical order, shifting the covered and right parts
    x, y = {v1: 0, v2: 0}, {v1: 0, v2: 0}
    under = {v1: [v1], v2: [v2]}
    contour = [v1, v2]
    for v, wl, wr in reversed(peeled):
        p, q = contour.index(wl), contour.index(wr)
        for k, w in enumerate(contour[p + 1 :], p + 1):
            for u in under[w]:
                x[u] += 1 if k < q else 2
        x[v] = (x[wl] + x[wr] + y[wr] - y[wl]) // 2
        y[v] = (x[wr] - x[wl] + y[wr] + y[wl]) // 2
        under[v] = [v] + [u for w in contour[p + 1 : q] for u in under[w]]
        contour[p + 1 : q] = [v]
    return {u: (x[u], y[u]) for u in rot}


def _verify_positions(d, arcs, rot, pos):
    """Are the scaled grid positions distinct, with no two arc segments
    touching and every crossing's slots counterclockwise?

    Then the clearances hold at the scale _MIN_CLEAR * max(2, ceil(L_max)),
    L_max the longest edge before scaling.  A lattice point off a lattice
    segment of length L lies at least 1/L from it (foot inside: a nonzero
    integer cross product over L; else a distinct lattice end, 1 away),
    and a centre on a segment it does not end would make its own segments
    touch that one.  So each centre lies _MIN_CLEAR or more from every
    segment it does not end, and stubs and centre spacings 2 _MIN_CLEAR.
    """
    if len(set(pos.values())) != len(pos):
        return False
    # arc polylines in grid coordinates; positions are distinct, so no
    # segment is degenerate
    segs = []
    for arc in arcs:
        (xo, _), (xi, _) = d.arc_ends[arc]
        path = [pos[("x", xo)], pos[("s", arc, 0)], pos[("s", arc, 1)], pos[("x", xi)]]
        segs += zip(path, path[1:])
    if segments_touch(segs):
        return False
    # four arms in distinct directions, counterclockwise in slot order:
    # their chords then cross (module docstring)
    for u, nbrs in rot.items():
        X = pos[u]
        if u[0] == "x" and not _counterclockwise(
                [(pos[v][0] - X[0], pos[v][1] - X[1]) for v in nbrs]):
            return False
    return True


def _counterclockwise(dirs):
    """Do the four directions point distinct ways, in counterclockwise
    order 0, 1, 2, 3?"""
    # two arms pointing exactly the same way cannot be ordered
    for i in range(4):
        for j in range(i + 1, 4):
            u, v = dirs[i], dirs[j]
            if u[0] * v[1] - u[1] * v[0] == 0 and u[0] * v[0] + u[1] * v[1] > 0:
                return False

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    def less(u, v):
        hu, hv = half(u), half(v)
        if hu != hv:
            return hu < hv
        return u[0] * v[1] - u[1] * v[0] > 0

    order = []
    for i in range(4):
        j = 0
        while j < len(order) and less(dirs[order[j]], dirs[i]):
            j += 1
        order.insert(j, i)
    k = order.index(0)
    return order[k:] + order[:k] == [0, 1, 2, 3]


# ---------------------------------------------------------------------------
# public objects


# rail positions where the under-strand dips below the over chord
UNDER_DIP = (2, 3)


@dataclass(frozen=True)
class CrossingStations:
    """The two chords of one crossing and the rail of stations on each.

    Each rail runs in chord order, A..B and P1..P4 flanking the crossing
    point; the under-strand dips at rail positions ``UNDER_DIP``.  A
    smoothed passage runs its whole rail between the chord's ends; an
    unsmoothed under passage drops the rail's two ends, and an unsmoothed
    over passage runs straight.  A smoothing bypass turns from one rail's
    first station to the other rail's last, and the band of a smoothed
    crossing is ruled between the under rail and the reversed over rail.
    """

    center: tuple
    point: tuple          # intersection point of the two chords
    under_chord: tuple    # (entry, exit): where the strand's arms leave the diamond
    over_chord: tuple
    under: tuple          # m_in, A, D1, D2, B, m_out on the under chord
    over: tuple           # m_in, P1, P2, P3, P4, m_out on the over chord


def _rail(chord, ts):
    (ax, ay), (bx, by) = chord
    return tuple((ax + t * (bx - ax), ay + t * (by - ay)) for t in ts)


def _chord_param(chord, p):
    a, b = chord
    dx, dy = b[0] - a[0], b[1] - a[1]
    if abs(dx) >= abs(dy):
        return Q(p[0] - a[0], dx)
    return Q(p[1] - a[1], dy)


@dataclass(frozen=True)
class Drawing:
    scale: object                 # rational multiplier from grid ints
    arc_paths: dict               # arc -> list of 2D rational points
    stations: tuple               # one CrossingStations per crossing


# radius of the bulged diamond in grid units: the gadget lies within
# 9/8 * _DIAMOND of its crossing, well inside the clearance _MIN_CLEAR
_DIAMOND = Q(2)


def _diamond_exit(X, P, r):
    """Point where the arm X->P leaves the bulged diamond of radius r at X.

    With (dx, dy) = P - X and l1 = |dx| + |dy|, the point is
    X + r * (1 + |dx||dy| / (2 l1^2)) / l1 * (dx, dy); it depends only on
    the arm's direction.
    """
    dx, dy = P[0] - X[0], P[1] - X[1]
    l1 = abs(dx) + abs(dy)
    t = r * (2 * l1 * l1 + abs(dx * dy)) / (2 * l1 ** 3)
    return (X[0] + t * dx, X[1] + t * dy)


def draw_diagram(d, grid_scale=1):
    """Planar drawing of a diagram with exact rational coordinates."""
    if grid_scale < 1:
        raise ValueError("grid scale must be a positive integer")
    # split the diagram graph into connected pieces (components of the
    # 4-valent graph; crossingless unknot components are their own pieces)
    comp_ids = list(range(1, d.n_components + 1))
    # union components sharing a crossing
    parent = {ci: ci for ci in comp_ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in d.crossings:
        a, b = x.under_component, x.over_component
        parent[find(a)] = find(b)
    pieces = {}
    for ci in comp_ids:
        pieces.setdefault(find(ci), []).append(ci)

    # outer face: touched by the fewest smoothed circles (an outermost
    # region, matching the standard pictures), then the longest walk
    circle_of = {
        step[1]: k
        for k, steps in enumerate(d.smoothed_cycles(d.arc_ends, range(len(d.crossings))))
        for step in steps if step[0] == "arc"
    }

    def face_key(face):
        touched = set()
        for (u, k) in face:
            if u[0] == "s":
                touched.add(circle_of[u[1]])
            else:
                touched.add(circle_of[d.crossings[u[1]].slots[k]])
        return (len(touched), -len(face))

    all_pos = {}
    stations = [None] * len(d.crossings)
    arc_paths = {}
    offset_x = Q(0)
    margin = 40
    unit = Q(12 * grid_scale)

    for root in sorted(pieces):
        members = pieces[root]
        arcs = [a for ci in members for a in d.component_arcs(ci)]
        crossings_here = [
            i for i, x in enumerate(d.crossings) if x.under_component in members
        ]
        if not crossings_here:
            # crossingless split unknot: a small hexagon
            R = 8
            hexagon = [
                (2 * R, 0), (R, 2 * R), (-R, 2 * R), (-2 * R, 0),
                (-R, -2 * R), (R, -2 * R),
            ]
            pts = [
                ((x0 + 3 * R) * unit + offset_x, Q(y0) * unit)
                for (x0, y0) in hexagon
            ]
            (ci,) = members
            arc = d.component_arcs(ci)[0]
            arc_paths[arc] = pts
            offset_x += (6 * R + margin) * unit
            continue

        rot = _build_subdivided_graph(d, arcs)
        faces = _trace_faces(rot)
        V = len(rot)
        E = sum(len(nbrs) for nbrs in rot.values()) // 2
        if V - E + len(faces) != 2:
            raise NonRealizable(
                "diagram piece has genus %d" % ((2 - V + E - len(faces)) // 2)
            )
        # the shift method needs faces that visit each node once; virtual
        # chords split the faces at cut vertices
        split = _split_repeated_faces(rot)
        faces = _trace_faces(split)
        pos = _grid_positions(split, faces, min(faces, key=face_key))
        # at the scale _MIN_CLEAR * max(2, ceil(L_max)) the clearances
        # follow from the exact check (_verify_positions)
        longest2 = max(
            (pos[u][0] - pos[v][0]) ** 2 + (pos[u][1] - pos[v][1]) ** 2
            for u in rot for v in rot[u]
        )
        ceil_len = 2
        while ceil_len * ceil_len < longest2:
            ceil_len += 1
        s = _MIN_CLEAR * ceil_len
        pos = {u: (s * p[0], s * p[1]) for u, p in pos.items()}
        if not _verify_positions(d, arcs, rot, pos):
            raise EmbeddingDegenerate("grid drawing failed its exact check")

        # shift into this piece's band (its x starts at 0) and scale
        for u, p in pos.items():
            all_pos[u] = (p[0] * unit + offset_x, Q(p[1]) * unit)
        offset_x += (max(p[0] for p in pos.values()) + margin) * unit

    # the chords of every crossing join the points where its arms leave
    # the diamond; they cross by the slot order (module docstring)
    for idx, x in enumerate(d.crossings):
        X = all_pos[("x", idx)]
        exits = []
        for k, arc in enumerate(x.slots):
            nbr = ("s", arc, 1 if d.arc_ends[arc][1] == (idx, k) else 0)
            exits.append(_diamond_exit(X, all_pos[nbr], _DIAMOND * unit))
        under = (exits[0], exits[2])
        over = (exits[d.arc_ends[x.over_in][1][1]], exits[d.arc_ends[x.over_out][0][1]])
        Y = seg2_intersection(*under, *over)
        tU, tO = _chord_param(under, Y), _chord_param(over, Y)
        lam = min(tU, 1 - tU) / 4
        stations[idx] = CrossingStations(
            center=X, point=Y, under_chord=under, over_chord=over,
            under=_rail(under, (tU / 2, tU - lam, tU - lam / 2, tU + lam / 2,
                                tU + lam, (1 + tU) / 2)),
            over=_rail(over, (tO / 2, 3 * tO / 4, 7 * tO / 8, tO + (1 - tO) / 8,
                              tO + (1 - tO) / 4, (1 + tO) / 2)),
        )

    for arc, ((xo, so), (xi, si)) in d.arc_ends.items():
        g_out, g_in = stations[xo], stations[xi]
        start = (g_out.under_chord if so == 2 else g_out.over_chord)[1]
        stop = (g_in.under_chord if si == 0 else g_in.over_chord)[0]
        arc_paths[arc] = [
            start,
            all_pos[("s", arc, 0)],
            all_pos[("s", arc, 1)],
            stop,
        ]

    return Drawing(
        scale=unit,
        arc_paths=arc_paths,
        stations=tuple(stations),
    )
