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
  exactly the component curve (the boundary lemma of build_embedding), and
  only embeddedness is checked.

Deeper-nested circles hang higher than their ancestors so skirts never
pierce sibling polygons; distinct components use distinct levels so
horizontal polygons of different surfaces are never coplanar.
"""

from dataclasses import dataclass, field

from .drawing import (
    UNDER_DIP, draw_diagram, point_in_polygon, polygon_area2, segments_touch)
from .errors import InputError, NotGeneric
from .plgeom import (
    Cup, PLCurve, PLSurface, in_closed_tri2, lift, orient2, v_add, v_cross, v_lerp,
    v_scale, v_sub)
from .rational import Q


# ---------------------------------------------------------------------------
# Seifert circles (combinatorial smoothing + geometric nesting)


@dataclass(frozen=True)
class SeifertCircle:
    index: int
    component: int
    pieces: tuple          # ("arc", a) | ("pass", xi, role) | ("bypass", xi, role)
    footprint: tuple       # closed 2D polyline (projection of the rim)
    depth: int             # number of other footprints around footprint[0]


@dataclass(frozen=True)
class SeifertStructure:
    circles: tuple
    bands: tuple           # sorted indices of the smoothed crossings


def seifert_circles(d, component=None, drawing=None):
    """Orientation-respecting smoothing with geometric nesting.

    With component=None every crossing is smoothed (the classical whole
    diagram structure); with a component id only that component's arcs and
    self-crossings enter, which is the per-surface structure used by
    build_embedding.  Each smoothed crossing is one band.
    """
    if drawing is None:
        drawing = draw_diagram(d)
    if component is None:
        scope_arcs = [a for arcs in d.components for a in arcs]
        smoothed = set(range(len(d.crossings)))
    else:
        scope_arcs = list(d.component_arcs(component))
        smoothed = {
            i for i, x in enumerate(d.crossings)
            if x.under_component == component and x.over_component == component
        }
    circles = []
    for pieces in d.smoothed_cycles(scope_arcs, smoothed):
        fp = tuple(p[:2] for p in _walk(drawing, pieces, smoothed, Q(0), Q(0)))
        circles.append((d.arc_component(pieces[0][1]), tuple(pieces), fp))

    # footprints in one scope are pairwise disjoint, so a circle's depth is
    # the number of other footprints around its first footprint point
    out = tuple(
        SeifertCircle(
            index=j, component=comp, pieces=pieces, footprint=fp,
            depth=sum(point_in_polygon(other[2], fp[0])
                      for i, other in enumerate(circles) if i != j),
        )
        for j, (comp, pieces, fp) in enumerate(circles)
    )
    return SeifertStructure(circles=out, bands=tuple(sorted(smoothed)))


# ---------------------------------------------------------------------------
# per-crossing local geometry in the plane


def _rails(loc, dip, z):
    """The crossing's under and over rails at height z, the under rail's
    dip stations at z + dip."""
    under = [(p[0], p[1], z + dip if k in UNDER_DIP else z)
             for k, p in enumerate(loc.under)]
    return under, [(p[0], p[1], z) for p in loc.over]


def _waypoints(loc, kind, role, smoothed, dip, z):
    """3D waypoints of a passage or a bypass through a crossing, by the
    rules of CrossingStations; the strand `role` ("U" or "O") enters it."""
    rails = _rails(loc, dip, z)
    chords = [[(p[0], p[1], z) for p in c] for c in (loc.under_chord, loc.over_chord)]
    own = 0 if role == "U" else 1
    (start, end), rail = chords[own], rails[own]
    if kind == "bypass":
        return [start, rail[0], rails[1 - own][-1], chords[1 - own][1]]
    if not smoothed:
        rail = rail[1:-1] if role == "U" else []
    return [start, *rail, end]


def _walk(drawing, steps, smoothed, dip, zshift):
    """Closed 3D polyline along steps of LinkDiagram.smoothed_cycles,
    consecutive repeats dropped.

    Arcs and bypasses lie at z = 0 and an under passage dips to `dip`
    at its dip stations, all shifted by `zshift`.  A passage through a
    crossing in `smoothed` also visits the stations its band is ruled on.
    """
    pts = []
    for step in steps:
        if step[0] == "arc":
            ps = [(p[0], p[1], zshift) for p in drawing.arc_paths[step[1]]]
        else:
            kind, xi, role = step
            ps = _waypoints(drawing.stations[xi], kind, role, xi in smoothed, dip, zshift)
        for v in ps:
            if not pts or pts[-1] != v:
                pts.append(v)
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
    while len(idx) > 3:
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
                        and in_closed_tri2(a, b, c, p, orient)):
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


# ---------------------------------------------------------------------------
# the embedding


@dataclass(frozen=True)
class EmbeddedLink:
    diagram: object
    drawing: object
    curves: dict                  # component -> closed PLCurve
    surfaces: dict                # component -> PLSurface
    # component -> per-triangle tags ("wall:c", "disk:c", "band:x"); only
    # the tests and the benchmark tracer read them
    provenance: dict
    tube_radius: object
    grid_scale: int = 1
    perturb_index: int = 0
    # (lo, hi) -> trace.cup_intersection(e, lo, hi), filled by
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
    fails.  Returns the triangles, their tags, that integer form (D,
    points) and the ear clip's index triples.
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
    footprint = lift(poly2)
    poly = footprint[1]
    area = polygon_area2(poly)
    if area == 0:
        raise NotGeneric("degenerate circle footprint")
    _check_simple(poly)
    # the clip decides on orientation signs alone, which the integer form
    # over one common denominator keeps
    clip = _ear_clip(poly, 1 if area > 0 else -1)
    for (i0, i1, i2) in clip:
        a, b, c = poly2[i0], poly2[i1], poly2[i2]
        tris.append(((a[0], a[1], level), (b[0], b[1], level), (c[0], c[1], level)))
        tags.append("disk")
    return tris, tags, footprint, tuple(clip)


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


def _crossing_edges(drawing, pieces, smoothed, rim):
    """(crossing, k) for each passage of a circle through a crossing with
    another component: the footprint edge under rim edge k holds the
    crossing point of the chords.  It is the dip edge D1 -> D2 of an under passage, and the one
    edge of an over passage (see _waypoints)."""
    at = {p[:2]: k for k, p in enumerate(rim)}
    out = []
    for step in pieces:
        if step[0] == "pass" and step[1] not in smoothed:
            loc = drawing.stations[step[1]]
            first = loc.under[UNDER_DIP[0]] if step[2] == "U" else loc.over_chord[0]
            out.append((step[1], at[first]))
    return tuple(out)


def _band_triangles(loc, dip, zshift):
    """Twisted strip absorbing a self-crossing: rules from the dipping
    under rail to the reversed flat over rail."""
    U, O = _rails(loc, dip, zshift)
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
        d2 = min(_dist2_point_line(loc.under[k], *loc.over_chord) for k in (1, 4))
        guard = 0
        while r * r * 8 > d2:
            r = r / 2
            guard += 1
            if guard > 80:
                raise NotGeneric("no usable tube radius at a crossing")
    return r


def build_embedding(d, grid_scale=1, perturb_index=0):
    """Embed the link with one Seifert surface per component.

    Component i is lifted by i * perturb_index / 4096 units, and an under
    passage dips 8 units (H / 3).  Two lifts differ by less than the dip,
    and the disk levels of different components stay distinct, when
    0 <= perturb_index and (m - 1) * perturb_index < 32768 for m
    components.  Any other index is an InputError: a larger one flips a
    crossing between components, so it would measure another link.

    Boundary lemma: as a sum of directed edges, the boundary of surface i
    is curve i, each edge once, and every other edge is shared by two
    triangles in opposite directions; so verify_embedding does not compare
    them (the tests do, exactly).
    (a) A cup's boundary is its rim (see _wall_and_polygon).  Neighbouring
        wall quads cancel their vertical edges, each quad's diagonal
        cancels inside it, and its bottom edge cancels against the
        ear-clipped disk, which is wound in traversal order.
    (b) A band's strips cancel pairwise (strip j's rung U_j+1 -> O_4-j
        against strip j+1's), leaving U0 -> ... -> U5, O0 -> ... -> O5 and
        the rungs O5 -> U0 and U5 -> O0.  The two bypasses of _waypoints
        at that crossing hold U0 -> O5 and O0 -> U5, so the rungs cancel.
    (c) Rims and curve build arcs and passages with the same _walk and
        _waypoints from the same stations.  At a band, the outer edges of
        its two bypasses and the rails left by (b) make the curve's two
        passages through the crossing, so what is left is the curve.
    """
    m = d.n_components
    if perturb_index < 0 or (m - 1) * perturb_index >= 32768:
        raise InputError(
            "perturbation index %d out of range: need 0 <= index and "
            "(components - 1) * index < 32768" % perturb_index)
    drawing = draw_diagram(d, grid_scale)
    unit = drawing.scale
    H = 24 * unit
    dip = -H / 3

    curves = {}
    surfaces = {}
    provenance = {}
    for i in range(1, m + 1):
        st = seifert_circles(d, component=i, drawing=drawing)
        zshift = Q(i * perturb_index, 4096) * unit
        maxdepth = max((c.depth for c in st.circles), default=0)
        self_sm = set(st.bands)
        (steps,) = d.smoothed_cycles(d.component_arcs(i), ())
        curves[i] = PLCurve(_walk(drawing, steps, self_sm, dip, zshift), closed=True)
        tris, tags, cups = [], [], []
        for c in st.circles:
            level = -H * (2 + (maxdepth - c.depth) + Q(i, m + 1)) + zshift
            rim = _walk(drawing, c.pieces, self_sm, dip, zshift)
            t, g, footprint, clip = _wall_and_polygon(rim, level)
            start, n = len(tris), len(rim)
            tris.extend(t)
            tags.extend("%s:%d" % (tag, c.index) for tag in g)
            cups.append(Cup(
                walls=range(start, start + 2 * n),
                disk=range(start + 2 * n, len(tris)),
                level=level, footprint=footprint, clip=clip,
                crossings=_crossing_edges(drawing, c.pieces, self_sm, rim)))
        for xi in st.bands:
            bt = _band_triangles(drawing.stations[xi], dip, zshift)
            tris.extend(bt)
            tags.extend(["band:%d" % xi] * len(bt))
        surfaces[i] = PLSurface(tris, cups)
        provenance[i] = tags

    e = EmbeddedLink(
        diagram=d,
        drawing=drawing,
        curves=curves,
        surfaces=surfaces,
        provenance=provenance,
        tube_radius=_tube_radius(unit, drawing.stations),
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
    that retries.  Indices are bounded as in build_embedding, so a rebuild
    past the bound is an InputError too.
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
    """Embeddedness check of every component surface.

    Each surface bounds its curve by construction (the boundary lemma of
    build_embedding), so nothing compares them here.  The triangles of one
    cup (a circle's wall and disk, which end at one of
    ``PLSurface.cup_ends``) were proved embedded together when built (see
    _wall_and_polygon), so ``check_embedded`` compares the other pairs in
    exact 3D: bands against anything, and different cups.
    """
    for surf in e.surfaces.values():
        surf.check_embedded()


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


def meridian(e, i):
    """Small square meridian of component i with lk(K_i, meridian) = +1,
    around the midpoint of its longest horizontal segment (the first of
    equal ones)."""
    r = e.tube_radius
    flat = [(a, b) for a, b in e.curves[i].segments() if a[2] == b[2]]
    if not flat:
        raise NotGeneric("component %d has no flat stretch" % i)
    a, b = max(flat, key=lambda s: sum((s[1][t] - s[0][t]) ** 2 for t in range(3)))
    p = v_lerp(a, b, Q(1, 2))
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
