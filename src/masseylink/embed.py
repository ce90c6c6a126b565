"""PL embeddings of diagrams: curves, Seifert surfaces, meridians, pushoffs.

Geometry scheme (all exact rationals, built on a verified plane drawing):

* the diagram lives in the z = 0 plane; at every crossing the under-strand
  dips to z = -DIP in a flat-bottomed vee whose flat part crosses under the
  over-strand, which stays in the plane;
* each Seifert circle bounds a horizontal polygon hung at a negative level
  determined by its nesting depth and component, joined to the circle by a
  vertical skirt wall whose top rim is the circle (following the curve's
  dips where the circle runs along the link);
* at a self-crossing a ruled twisted band connects the two smoothing
  bypasses, absorbing the strand dips, so disks plus bands have boundary
  exactly the component curve.

Deeper-nested circles hang higher than their ancestors so skirts never
pierce sibling polygons; distinct components use distinct levels so
horizontal polygons of different surfaces are never coplanar.
"""

from dataclasses import dataclass, field

from .drawing import draw_diagram, point_in_polygon, polygon_area2, segments_touch
from .errors import NotGeneric
from .plgeom import PLCurve, PLSurface, lift, orient2, v_add, v_cross, v_scale, v_sub
from .rational import Q


# ---------------------------------------------------------------------------
# Seifert circles (combinatorial smoothing + geometric nesting)


@dataclass(frozen=True)
class SeifertCircle:
    index: int
    component: int
    pieces: tuple          # ("arc", a) | ("pass", xi, role) | ("bypass", xi, role)
    footprint: tuple       # closed 2D polyline (projection of the rim)
    depth: int
    parent: int            # index of the innermost containing circle, -1 at top


@dataclass(frozen=True)
class SeifertBand:
    crossing: int
    sign: int
    joins: tuple           # (circle_index, circle_index)
    component: int


@dataclass(frozen=True)
class SeifertStructure:
    scope: object          # "diagram" or component id
    circles: tuple
    bands: tuple

    def circles_of(self, i):
        return [c for c in self.circles if c.component == i]

    def bands_of(self, i):
        return [b for b in self.bands if b.component == i]

    def euler_characteristic(self, i):
        """chi of the banded surface of component i: circles - bands."""
        return len(self.circles_of(i)) - len(self.bands_of(i))


def seifert_circles(d, component=None, drawing=None):
    """Orientation-respecting smoothing with geometric nesting.

    With component=None every crossing is smoothed (the classical whole
    diagram structure); with a component id only that component's arcs and
    self-crossings enter, which is the per-surface structure used by
    build_embedding.
    """
    if drawing is None:
        drawing = draw_diagram(d)
    if component is None:
        scope_arcs = [a for arcs in d.components for a in arcs]
        smoothed = set(range(len(d.crossings)))
        scope = "diagram"
    else:
        scope_arcs = list(d.component_arcs(component))
        smoothed = {
            i for i, x in enumerate(d.crossings)
            if x.under_component == component and x.over_component == component
        }
        scope = component
    circles = []
    for pieces in d.smoothed_cycles(scope_arcs, smoothed):
        comp = d.arc_component(pieces[0][1])
        fp = [p[:2] for p in _walk(drawing, pieces, smoothed, Q(0), Q(0))]
        circles.append((comp, pieces, fp))

    # nesting by exact containment among circles of the same scope;
    # footprints in one scope are pairwise disjoint
    n = len(circles)
    contains = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if component is None or circles[i][0] == circles[j][0]:
                contains[i][j] = point_in_polygon(circles[i][2], circles[j][2][0])
    out = []
    for j in range(n):
        containing = [i for i in range(n) if contains[i][j]]
        depth = len(containing)
        parent = -1
        if containing:
            parent = max(containing, key=lambda i: sum(contains[k][i] for k in range(n)))
        comp, pieces, fp = circles[j]
        out.append(
            SeifertCircle(
                index=j, component=comp, pieces=tuple(pieces),
                footprint=tuple(fp), depth=depth, parent=parent,
            )
        )

    circle_of_arc = {}
    for c in out:
        for p in c.pieces:
            if p[0] == "arc":
                circle_of_arc[p[1]] = c.index
    bands = []
    for xi in sorted(smoothed):
        x = d.crossings[xi]
        bands.append(
            SeifertBand(
                crossing=xi,
                sign=x.sign,
                joins=(circle_of_arc[x.under_in], circle_of_arc[x.over_in]),
                component=x.under_component,
            )
        )
    return SeifertStructure(scope=scope, circles=tuple(out), bands=tuple(bands))


# ---------------------------------------------------------------------------
# per-crossing local geometry in the plane


def _passage_points(loc, role, smoothed):
    """2D waypoints of a full strand passage through a crossing."""
    if role == "U":
        ends = loc.geo.under_chord
        mid = [loc.u_A, loc.u_D1, loc.u_D2, loc.u_B]
        if smoothed:
            mid = [loc.u_m_in] + mid + [loc.u_m_out]
    else:
        ends = loc.geo.over_chord
        mid = []
        if smoothed:
            mid = [loc.o_m_in] + loc.o_P + [loc.o_m_out]
    return [ends[0]] + mid + [ends[1]]


def _passage_heights(loc, role, pts, dip):
    """z for each waypoint: under passages dip between the D stations."""
    if role != "U":
        return [Q(0)] * len(pts)
    zs = []
    for p in pts:
        zs.append(dip if p in (loc.u_D1, loc.u_D2) else Q(0))
    return zs


def _bypass_entry(loc, role):
    """Waypoints from the passage entry to the smoothing bypass and on to
    the other strand's exit (all at z=0)."""
    u, o = loc.geo.under_chord, loc.geo.over_chord
    if role == "U":
        return [u[0], loc.u_m_in], [loc.o_m_out, o[1]]
    return [o[0], loc.o_m_in], [loc.u_m_out, u[1]]


def _walk(drawing, steps, smoothed, dip, zshift):
    """Closed 3D polyline along steps of LinkDiagram.smoothed_cycles,
    consecutive repeats dropped.

    Arcs and bypasses lie at z = 0 and an under passage dips to `dip`
    between its D stations, all shifted by `zshift`.  A passage through a
    crossing in `smoothed` also visits the stations its band is ruled on.
    """
    pts = []

    def push(ps, zs):
        for p, z in zip(ps, zs):
            v = (p[0], p[1], z + zshift)
            if not pts or pts[-1] != v:
                pts.append(v)

    for step in steps:
        if step[0] == "arc":
            ps = drawing.arc_paths[step[1]]
            push(ps, [Q(0)] * len(ps))
        elif step[0] == "pass":
            _, xi, role = step
            loc = drawing.stations[xi]
            ps = _passage_points(loc, role, smoothed=xi in smoothed)
            push(ps, _passage_heights(loc, role, ps, dip))
        else:
            enter, leave = _bypass_entry(drawing.stations[step[1]], step[2])
            push(enter + leave, [Q(0)] * (len(enter) + len(leave)))
    if pts and pts[0] == pts[-1]:
        pts.pop()
    return pts


# ---------------------------------------------------------------------------
# polygon triangulation (exact ear clipping, collinear vertices kept)


def _ear_clip(poly2, orient):
    """Triangulate a simple polygon given with its traversal orientation.

    Emitted triangles are wound in traversal order, so their induced
    boundary runs forward along the polygon.
    """
    idx = list(range(len(poly2)))
    tris = []
    guard = 0
    while len(idx) > 3:
        guard += 1
        if guard > 4 * len(poly2) * len(poly2):
            raise NotGeneric("ear clipping stalled")
        n = len(idx)
        clipped = False
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = poly2[i0], poly2[i1], poly2[i2]
            if orient2(a, b, c) != orient:
                continue
            # a vertex outside the triangle's box is outside the triangle
            x0, x1 = min(a[0], b[0], c[0]), max(a[0], b[0], c[0])
            y0, y1 = min(a[1], b[1], c[1]), max(a[1], b[1], c[1])
            ok = True
            for j in idx:
                if j in (i0, i1, i2):
                    continue
                p = poly2[j]
                if (x0 <= p[0] <= x1 and y0 <= p[1] <= y1
                        and _in_closed_tri2(a, b, c, p, orient)):
                    ok = False
                    break
            if ok:
                tris.append((i0, i1, i2))
                idx.pop(k)
                clipped = True
                break
        if not clipped:
            raise NotGeneric("no clippable ear found")
    i0, i1, i2 = idx
    if orient2(poly2[i0], poly2[i1], poly2[i2]) == orient:
        tris.append((i0, i1, i2))
    elif orient2(poly2[i0], poly2[i1], poly2[i2]) != 0:
        raise NotGeneric("final triangle has reversed orientation")
    return tris


def _in_closed_tri2(a, b, c, p, orient):
    s1 = orient2(a, b, p) * orient
    s2 = orient2(b, c, p) * orient
    s3 = orient2(c, a, p) * orient
    return s1 >= 0 and s2 >= 0 and s3 >= 0


# ---------------------------------------------------------------------------
# the embedding


@dataclass(frozen=True)
class EmbeddedLink:
    diagram: object
    drawing: object
    curves: dict                  # component -> closed PLCurve
    surfaces: dict                # component -> PLSurface
    provenance: dict              # component -> list of per-triangle tags
    tube_radius: object
    unit: object
    grid_scale: int = 1
    perturb_index: int = 0
    # (lo, hi) -> surface_intersection(F_lo, F_hi), filled by
    # trace.embedded_intersection; a copy made by dataclasses.replace
    # starts empty
    intersections: dict = field(
        default_factory=dict, init=False, compare=False, repr=False)
    # (a, b) -> pierce points of K_a through F_b, filled by
    # trace.trace_derived_boundary; also empty in a replaced copy
    pierces: dict = field(
        default_factory=dict, init=False, compare=False, repr=False)


def _wall_and_polygon(rim, level):
    """Skirt wall from the rim down to `level` plus the horizontal polygon.

    The two together form the circle's cup, and the cup is embedded: its
    triangles meet only in common vertices and edges, so verify_embedding
    does not compare them with each other.  Let P be the footprint, the
    rim projected to the plane.  Wall quad k is the vertical quad over
    edge e_k of P, hung from the rim down to `level`; the disk is an ear
    clipping of P at `level`.  If

      (i)  P is a simple polygon, and
      (ii) every rim point lies strictly above `level`,

    then quads over non-adjacent edges lie over disjoint segments, and
    quads over adjacent edges meet only over their common vertex, in
    their common vertical edge.  By (ii) a quad meets the plane z = level
    only in its bottom edge, e_k at `level`, on the boundary of P.  The
    ear clipping of a simple polygon (ears contain no other vertex, not
    even on their closed boundary) is a triangulation of P whose triangles
    meet only in common vertices and edges, and whose triangle on e_k has
    the quad's bottom edge as an edge.  Both conditions are checked here,
    exactly, on the integer form of the footprint; NotGeneric if either
    fails.
    """
    tris = []
    tags = []
    n = len(rim)
    for k in range(n):
        p, q = rim[k], rim[(k + 1) % n]
        if (p[0], p[1]) == (q[0], q[1]):
            raise NotGeneric("vertical rim edge")
        if p[2] <= level:
            raise NotGeneric("rim point not above its disk")
        pb = (p[0], p[1], level)
        qb = (q[0], q[1], level)
        tris.append((p, q, qb))
        tris.append((p, qb, pb))
        tags += ["wall", "wall"]
    poly2 = [(p[0], p[1]) for p in rim]
    poly = lift(poly2)[1]
    area = polygon_area2(poly)
    if area == 0:
        raise NotGeneric("degenerate circle footprint")
    _check_simple(poly)
    # the clip decides on orientation signs alone, which the integer form
    # over one common denominator keeps
    for (i0, i1, i2) in _ear_clip(poly, 1 if area > 0 else -1):
        a, b, c = poly2[i0], poly2[i1], poly2[i2]
        tris.append(((a[0], a[1], level), (b[0], b[1], level), (c[0], c[1], level)))
        tags.append("disk")
    return tris, tags


def _check_simple(poly):
    """NotGeneric unless the closed polygon (consecutive vertices distinct)
    is simple: adjacent edges meet only in their common vertex, and
    non-adjacent edges do not meet at all.  With distinct vertices, adjacent
    edges share exactly one vertex and non-adjacent edges none, so this is
    the segment contact rule of ``segments_touch``."""
    n = len(poly)
    edges = [(poly[k], poly[(k + 1) % n]) for k in range(n)]
    for k, (a, b) in enumerate(edges):
        c = edges[(k + 1) % n][1]
        if orient2(a, b, c) == 0 and (
                (b[0] - a[0]) * (c[0] - b[0]) + (b[1] - a[1]) * (c[1] - b[1]) < 0):
            raise NotGeneric("circle footprint folds back")
    if len(set(poly)) != n or segments_touch(edges):
        raise NotGeneric("circle footprint is not simple")


def _band_triangles(loc, dip, zshift):
    """Twisted strip absorbing a self-crossing: rules from the dipping
    under-path to the reversed flat over-path."""
    z0 = zshift
    U = [
        (p[0], p[1], z0) for p in (loc.u_m_in, loc.u_A)
    ] + [
        (loc.u_D1[0], loc.u_D1[1], dip + zshift),
        (loc.u_D2[0], loc.u_D2[1], dip + zshift),
    ] + [
        (p[0], p[1], z0) for p in (loc.u_B, loc.u_m_out)
    ]
    O = [(p[0], p[1], z0) for p in [loc.o_m_in] + loc.o_P + [loc.o_m_out]]
    tris = []
    for j in range(5):
        a, b = U[j], U[j + 1]
        c, d_ = O[4 - j], O[5 - j]
        tris.append((a, b, c))
        tris.append((a, c, d_))
    return tris


def _dist2_point_line(p, a, b):
    dx, dy = b[0] - a[0], b[1] - a[1]
    cr = dx * (p[1] - a[1]) - dy * (p[0] - a[0])
    return Q(cr * cr, dx * dx + dy * dy)


def _tube_radius(unit, stations):
    """Largest safe framing offset: a parallel of either strand within this
    distance still crosses the other strand inside its dip interval at
    every crossing, so pushoffs pierce walls exactly where their curves do."""
    r = unit / 8
    for loc in stations:
        o = loc.geo.over_chord
        d2 = min(
            _dist2_point_line(loc.u_A, o[0], o[1]),
            _dist2_point_line(loc.u_B, o[0], o[1]),
        )
        guard = 0
        while r * r * 8 > d2:
            r = r / 2
            guard += 1
            if guard > 80:
                raise NotGeneric("no usable tube radius at a crossing")
    return r


def build_embedding(d, grid_scale=1, perturb_index=0):
    """Embed the link with one Seifert surface per component."""
    drawing = draw_diagram(d, grid_scale)
    unit = drawing.scale
    H = 24 * unit
    dip = -H / 3
    m = d.n_components

    curves = {}
    surfaces = {}
    provenance = {}
    for i in range(1, m + 1):
        st = seifert_circles(d, component=i, drawing=drawing)
        zshift = Q(i * perturb_index, 4096) * unit
        maxdepth = max((c.depth for c in st.circles), default=0)
        self_sm = {b.crossing for b in st.bands}
        (steps,) = d.smoothed_cycles(d.component_arcs(i), ())
        curves[i] = PLCurve(_walk(drawing, steps, self_sm, dip, zshift), closed=True)
        tris = []
        tags = []
        for c in st.circles:
            level = -H * (2 + (maxdepth - c.depth) + Q(i, m + 1)) + zshift
            rim = _walk(drawing, c.pieces, self_sm, dip, zshift)
            t, g = _wall_and_polygon(rim, level)
            tris.extend(t)
            tags.extend("%s:%d" % (tag, c.index) for tag in g)
        for b in st.bands:
            bt = _band_triangles(drawing.stations[b.crossing], dip, zshift)
            tris.extend(bt)
            tags.extend(["band:%d" % b.crossing] * len(bt))
        surf = PLSurface(tris)
        surfaces[i] = surf
        provenance[i] = tags

    e = EmbeddedLink(
        diagram=d,
        drawing=drawing,
        curves=curves,
        surfaces=surfaces,
        provenance=provenance,
        tube_radius=_tube_radius(unit, drawing.stations),
        unit=unit,
        grid_scale=grid_scale,
        perturb_index=perturb_index,
    )
    verify_embedding(e)
    return e


def measured(source, measure, grid_scale=1, perturb_index=0):
    """Apply `measure` to an embedding of `source`; return (e, value).

    `source` is a LinkDiagram, embedded here, or a prebuilt EmbeddedLink,
    which is measured first and supplies the diagram, grid scale and
    perturbation index of a rebuild.  An exact degeneracy (NotGeneric) in
    building or in measuring triggers exactly one rebuild at the next
    perturbation index; a second one propagates.  This is the only place
    that retries.
    """
    prebuilt = isinstance(source, EmbeddedLink)
    if prebuilt:
        d, grid_scale, perturb_index = (
            source.diagram, source.grid_scale, source.perturb_index)
    else:
        d = source
    try:
        e = source if prebuilt else build_embedding(
            d, grid_scale=grid_scale, perturb_index=perturb_index)
        return e, measure(e)
    except NotGeneric:
        e = build_embedding(d, grid_scale=grid_scale, perturb_index=perturb_index + 1)
        return e, measure(e)


def verify_embedding(e):
    """Boundary and embeddedness checks for every component surface.

    The triangles of one cup (a circle's wall and disk, tagged "wall:c"
    and "disk:c") were proved embedded together when they were built
    (see _wall_and_polygon), so only the other pairs are checked in
    exact 3D: band triangles against anything, and cups of different
    circles against each other.
    """
    for i, surf in e.surfaces.items():
        loops = surf.boundary_curves()
        if len(loops) != 1:
            raise NotGeneric("surface %d has %d boundary loops" % (i, len(loops)))
        if not _same_cycle(loops[0], e.curves[i]):
            raise NotGeneric("boundary of surface %d is not its curve" % i)
        surf.check_embedded(cups=[_cup_key(tag) for tag in e.provenance[i]])


def _cup_key(tag):
    """The circle of a "wall:c" or "disk:c" tag; None for a band."""
    kind, _, c = tag.partition(":")
    return None if kind == "band" else c


def _same_cycle(c1, c2):
    """Equality of closed curves as oriented cycles (up to start vertex
    and collinear subdivision)."""
    a = _essential_vertices(c1.vertices)
    b = _essential_vertices(c2.vertices)
    if len(a) != len(b):
        return False
    if not a:
        return True
    try:
        k = b.index(a[0])
    except ValueError:
        return False
    return a == b[k:] + b[:k]


def _essential_vertices(vs):
    """The vertices of a closed polyline that are not collinear with both
    neighbours, decided on its integer form over one common denominator."""
    ws = lift(vs)[1]
    n = len(vs)
    out = []
    for i in range(n):
        p, q, r = ws[i - 1], ws[i], ws[(i + 1) % n]
        if v_cross(v_sub(q, p), v_sub(r, q)) != (0, 0, 0):
            out.append(vs[i])
    return out


# ---------------------------------------------------------------------------
# meridians, pushoffs


def _segment_frame(a, b):
    v = v_sub(b, a)
    if v[0] == 0 and v[1] == 0:
        u1 = (Q(1), Q(0), Q(0))
    else:
        u1 = (-v[1], v[0], Q(0))
    u2 = v_cross(v, u1)
    return u1, u2


def _scaled(u, r):
    return v_scale(u, Q(r, abs(u[0]) + abs(u[1]) + abs(u[2])))


def _arc_interior_position(e, i):
    """A position on a long horizontal stretch of component i."""
    curve = e.curves[i]
    best = None
    for k, (a, b) in enumerate(curve.segments()):
        if a[2] != b[2]:
            continue
        d2 = sum((b[t] - a[t]) ** 2 for t in range(3))
        if best is None or d2 > best[0]:
            best = (d2, k)
    if best is None:
        raise NotGeneric("component %d has no flat stretch" % i)
    return Q(best[1]) + Q(1, 2)


def meridian(e, i):
    """Small square meridian of component i with lk(K_i, meridian) = +1."""
    r = e.tube_radius
    curve = e.curves[i]
    pos = _arc_interior_position(e, i)
    k = int(pos)
    a, b = curve.segments()[k % len(curve.segments())]
    p = curve.point_at(pos)
    u1, u2 = _segment_frame(a, b)  # u1 = left normal, u2 completes the frame
    ua, ub = _scaled(u1, r), _scaled(u2, r)
    ring = [
        v_sub(v_add(p, ua), ub),
        v_add(v_add(p, ua), ub),
        v_add(v_sub(p, ua), ub),
        v_sub(v_sub(p, ua), ub),
    ]
    return PLCurve(ring, closed=True)


def left_offset(a, b, r):
    """Horizontal blackboard-framing offset for segment a->b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    l1 = abs(dx) + abs(dy)
    if l1 == 0:
        raise NotGeneric("vertical curve segment has no blackboard offset")
    t = Q(r, l1)
    return (-dy * t, dx * t, Q(0))


def _offset_walk(out, segments, r):
    """Append both ends of each segment, offset by its horizontal left
    normal, to `out`, skipping repeats of the last point."""
    for a, b in segments:
        n = left_offset(a, b, r)
        for p in (v_add(a, n), v_add(b, n)):
            if not out or out[-1] != p:
                out.append(p)
    return out


def pushoff_run(points, r):
    """Open pushoff of a run of curve points: radial joins at the ends,
    each segment offset by its horizontal left normal."""
    out = _offset_walk([points[0]], zip(points, points[1:]), r)
    if out[-1] != points[-1]:
        out.append(points[-1])
    return out


def pushoff_cycle(curve, r):
    """Closed full-curve pushoff in the blackboard framing."""
    out = _offset_walk([], curve.segments(), r)
    if out[0] == out[-1]:
        out.pop()
    return PLCurve(out, closed=True)
