"""Point, plane and segment predicates that only the tests use.

Each is a thin entry point into the integer kernel of masseylink.plgeom,
so a test can ask one exact question (a sign, a point class, one
segment against one triangle) without building a surface.  The edge-hit
triangle kernel that ``plgeom.triangle_triangle`` replaced lives on here
as its differential reference, with the segment hits it is built from.
So do the rational float boxes and the per-row ``check_embedded`` and
``meets`` scans that ``BoxIndex.pairs`` replaced.  The generic
intersection of two triangulated surfaces, ``surface_intersection``
over the triangle pairs of ``sweep_meets``, is the reference that
``trace.cup_intersection`` must equal on every embedding, and it
intersects hand-made surfaces that have no cups.  ``linking_number``
reads the linking number of two closed curves off a projection, with no
surface, to check the traced loops against.
The seeded braid closures that several test modules run on are made here
too, so that they are one set.
"""

import random
from bisect import bisect_right

from masseylink.errors import NotGeneric
from masseylink.fixtures import braid_closure
from masseylink.trace import IntersectionCurve
from masseylink.plgeom import (
    EMPTY,
    BoxIndex,
    IntTriangle,
    _box_row,
    _common,
    _coplanar_triangle_triangle,
    _crossing,
    _drop_axis,
    _edge_planes,
    _plane,
    _proj,
    _rational,
    _seg_point_param,
    _where,
    int_triangle,
    lift,
    orient2,
    point_key,
    shadows_apart,
    stitch,
    tri_normal,
    triangle_triangle,
    v_add,
    v_cross,
    v_dot,
    v_scale,
    v_sub,
)
from masseylink.rational import Q, sign


def qpoint(x, y, z):
    return (Q(x), Q(y), Q(z))


def orient3(p, q, r, s):
    """Sign of det(q-p, r-p, s-p): +1 for a right-handed frame, 0 coplanar."""
    return sign(v_dot(v_cross(v_sub(q, p), v_sub(r, p)), v_sub(s, p)))


def plane_side(tri, p):
    """Sign of p against the oriented plane of tri (+1 on the normal side)."""
    return sign(v_dot(tri_normal(tri), v_sub(p, tri[0])))


def point_on_segment(a, b, p):
    return _seg_point_param(a, b, p) is not None


def point_in_triangle(tri, p):
    """Classify p against tri assuming p lies in tri's plane.

    Returns one of "interior", "edge", "vertex", "outside".
    """
    _, (a, b, c, q) = lift(tuple(tri) + (p,))
    T = (a, b, c)
    return _where(_edge_planes(T, tri_normal(T)), q, 1)


def segment_triangle(seg, tri):
    """Exact intersection of a closed segment with a closed triangle."""
    D, (p0, p1, a, b, c) = lift(tuple(seg) + tuple(tri))
    T = (a, b, c)
    n, k = _plane(T)
    hits = _segment_hits(
        p0, p1, seg[0], seg[1], v_dot(n, p0) - k, v_dot(n, p1) - k,
        T, n, _edge_planes(T, n),
    )
    if not hits:
        return EMPTY
    if len(hits) == 1:
        return ("point", _rational(hits[0], D))
    return ("segment", (_rational(hits[0], D), _rational(hits[1], D)))


# ---------------------------------------------------------------------------
# segment hits and the edge-hit triangle kernel


def _segment_hits(p0, p1, r0, r1, d0, d1, T, n, edges):
    """Hits of the integer segment p0 p1 (rational ends r0, r1) on the
    integer triangle T, given the plane values d0, d1 of its ends."""
    s0, s1 = sign(d0), sign(d1)
    if s0 == 0 and s1 == 0:
        return _coplanar_segment_hits(p0, p1, r0, r1, T, n)
    if s0 == s1:
        return []
    if s0 == 0:
        return [(p0, 1, r0)] if _where(edges, p0, 1) != "outside" else []
    if s1 == 0:
        return [(p1, 1, r1)] if _where(edges, p1, 1) != "outside" else []
    X, W = _crossing(p0, p1, d0, d1)
    if _where(edges, X, W) == "outside":
        return []
    return [(X, W, None)]


def _coplanar_segment_hits(p0, p1, r0, r1, T, n):
    ax = _drop_axis(n)
    a2, b2 = _proj(p0, ax), _proj(p1, ax)
    t2 = [_proj(v, ax) for v in T]
    if orient2(*t2) < 0:
        t2.reverse()
    # clip the segment parameter interval against the three half-planes;
    # parameters are fractions (numerator, positive denominator)
    lo, hi = (0, 1), (1, 1)
    d = (b2[0] - a2[0], b2[1] - a2[1])
    for i in range(3):
        e0, e1 = t2[i], t2[(i + 1) % 3]
        # inward normal: inside means orient2(e0, e1, x) >= 0
        nx, ny = e0[1] - e1[1], e1[0] - e0[0]
        num = nx * (a2[0] - e0[0]) + ny * (a2[1] - e0[1])
        den = nx * d[0] + ny * d[1]
        if den == 0:
            if num < 0:
                return []
            continue
        if den > 0:
            if -num * lo[1] > lo[0] * den:
                lo = (-num, den)
        elif num * hi[1] < hi[0] * -den:
            hi = (num, -den)
        if lo[0] * hi[1] > hi[0] * lo[1]:
            return []
    hits = [_segment_point(p0, p1, r0, r1, lo)]
    if lo[0] * hi[1] != hi[0] * lo[1]:
        hits.append(_segment_point(p0, p1, r0, r1, hi))
    return hits


def _segment_point(p0, p1, r0, r1, t):
    """Hit at p0 + t (p1 - p0) for the fraction t = (num, den)."""
    num, den = t
    if num == 0:
        return (p0, 1, r0)
    if num == den:
        return (p1, 1, r1)
    return (v_add(v_scale(p0, den - num), v_scale(p1, num)), den, None)


def _same(h, g):
    return v_scale(h[0], g[1]) == v_scale(g[0], h[1])


def _before(axis, h, g):
    """(axis . h, h) < (axis . g, g) lexicographically, for two hits."""
    (X, W, _), (Y, V, _) = h, g
    a, b = v_dot(axis, X) * V, v_dot(axis, Y) * W
    if a != b:
        return a < b
    return v_scale(X, V) < v_scale(Y, W)


def edge_hit_triangle_triangle(t1, t2):
    """The edge-hit triangle kernel: both triangles at the common
    denominator, every edge of each against the other, and the extreme
    hits along n1 x n2.  ``plgeom.triangle_triangle`` must give the same
    result on every pair of triangles with non-zero normals."""
    D1, A, R1 = t1 if isinstance(t1, IntTriangle) else int_triangle(t1)
    D2, B, R2 = t2 if isinstance(t2, IntTriangle) else int_triangle(t2)
    D, A, B = _common(D1, A, D2, B)
    n1, k1 = _plane(A)
    n2, k2 = _plane(B)
    d2 = [v_dot(n1, v) - k1 for v in B]
    if all(d > 0 for d in d2) or all(d < 0 for d in d2):
        return EMPTY
    d1 = [v_dot(n2, v) - k2 for v in A]
    if all(d > 0 for d in d1) or all(d < 0 for d in d1):
        return EMPTY
    if all(d == 0 for d in d2):
        return _coplanar_triangle_triangle(A, B, R1, n1, D)

    e1, e2 = _edge_planes(A, n1), _edge_planes(B, n2)
    hits = []
    for i in range(3):
        j = (i + 1) % 3
        hits += _segment_hits(A[i], A[j], R1[i], R1[j], d1[i], d1[j], B, n2, e2)
        hits += _segment_hits(B[i], B[j], R2[i], R2[j], d2[i], d2[j], A, n1, e1)
    if not hits:
        return EMPTY
    # all hits lie on the common line; order them along it
    axis = v_cross(n1, n2)
    if axis == (0, 0, 0):
        # parallel planes but contact detected: only possible when an edge
        # lies in the other plane; order along that edge instead
        (X0, W0, _), (X1, W1, _) = hits[0], hits[-1]
        axis = v_sub(v_scale(X1, W0), v_scale(X0, W1))
        if axis == (0, 0, 0):
            return ("point", _rational(hits[0], D))
    lo = hi = hits[0]
    for h in hits[1:]:
        if _before(axis, h, lo):
            lo = h
        if not _before(axis, h, hi):
            hi = h
    if _same(lo, hi):
        return ("point", _rational(lo, D))
    return ("segment", (_rational(lo, D), _rational(hi, D)))


def rational_triangle_triangle(t1, t2):
    """``plgeom.triangle_triangle`` of two rational vertex triples, each
    lifted and given its integer plane as a PLSurface would."""
    i1, i2 = int_triangle(t1), int_triangle(t2)
    return triangle_triangle(i1, i2, _plane(i1.verts), _plane(i2.verts))


# ---------------------------------------------------------------------------
# rational boxes and the per-row embedding check


def bbox(points):
    """Exact box (lo x, y, z, hi x, y, z) of rational points."""
    cols = list(zip(*points))
    return tuple([min(c) for c in cols] + [max(c) for c in cols])


def rational_rows(items):
    """The BoxIndex rows of point sequences, from ``float`` of each
    rational corner: what the rows of their lifted forms must equal."""
    return [tuple(float(c) for c in bbox(it)) for it in items]


def meets(surface, other):
    """``sweep_meets`` as one ``BoxIndex.query`` row scan per triangle
    of ``surface``, then the shadow reject, then the kernel, as a list."""
    out = []
    for i, row in enumerate(surface.index.arr):
        for j in other.index.query(row):
            t1, t2 = surface.lifted[i], other.lifted[j]
            if shadows_apart(t1, t2):
                continue
            r = triangle_triangle(t1, t2, surface.planes[i], other.planes[j])
            if r[0] != "empty":
                out.append((i, j, r))
    return out


def sweep_meets(surface, other):
    """(i, j, r), in (i, j) order, for each triangle i of ``surface`` and
    j of ``other`` that meet: candidates from ``BoxIndex.pairs``, then
    the shadow reject, then the kernel.  ``meets`` is its reference."""
    A, B = surface.lifted, other.lifted
    for i, j in surface.index.pairs(other.index):
        if shadows_apart(A[i], B[j]):
            continue
        r = triangle_triangle(A[i], B[j], surface.planes[i], other.planes[j])
        if r[0] != "empty":
            yield i, j, r


def surface_intersection(F_a, F_b):
    """Connected oriented components of the point set F_a meet F_b.

    Segments come from the triangle pairs of ``sweep_meets(F_a, F_b)``.
    Arcs come first, then circles, each in the order of ``stitch``.
    Points are keyed on the integers of ``point_key``, compared as
    rationals only to order the output.  Each segment is oriented by the
    contract of ``triangle_triangle``: from triangles whose planes are not
    parallel it runs along n_a x n_b, so a witness pair says +1 when its
    segment is in key order and -1 when not, and every witness of one
    segment must say the same.
    """
    segs = {}   # unordered key pair -> [p, q in key order, witnesses]
    for ia, ib, r in sweep_meets(F_a, F_b):
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


# projection directions (p, q) of ``linking_number``, tried in order
_DIRECTIONS = ((0, 0), (1, 2), (-2, 1), (3, -1), (-1, -3), (2, 5), (-5, 2), (4, 7))


def linking_number(c1, c2):
    """Linking number of two disjoint closed PLCurves, read off a
    projection, with no surface.

    The curves are projected along v = (p, q, 1): (x, y, z) goes to
    (x - p z, y - q z).  At a crossing of a segment of c1 with one of c2
    in the projection, the one with the greater z there is over, and the
    crossing counts sign((over direction) x (under direction)).  The sum
    over the crossings where c1 is over and the sum over those where c2
    is over are both the linking number, so they must agree.  A direction
    is degenerate when a segment projects to a point, when two projected
    segments meet other than in one point inside both, or when a crossing
    has equal heights (then the curves meet, and every direction is);
    the next (p, q) of ``_DIRECTIONS`` is tried, and NotGeneric raised
    after the last.  Candidate pairs come from ``BoxIndex.pairs`` over
    the projected segments' boxes at z = 0; every test is on integers
    over one common denominator.  It checks traced loops against the
    surfaces from a side that uses none.
    """
    n1 = len(c1)
    D, pts = lift(c1.vertices + c2.vertices)
    for p, q in _DIRECTIONS:
        proj = [(x - p * z, y - q * z) for x, y, z in pts]
        segs = [[(k, (k + 1) % n1) for k in range(n1)],
                [(n1 + k, n1 + (k + 1) % len(c2)) for k in range(len(c2))]]
        if any(proj[i] == proj[j] for seg in segs for i, j in seg):
            continue
        idx = [BoxIndex([_box_row((D, (proj[i] + (0,), proj[j] + (0,)))) for i, j in seg])
               for seg in segs]
        sums = _projected_crossings(pts, proj, segs, idx[0].pairs(idx[1]))
        if sums is not None:
            if sums[0] != sums[1]:
                raise NotGeneric("over and under sums of a projection disagree")
            return sums[0]
    raise NotGeneric("no generic projection direction for a linking number")


def _projected_crossings(pts, proj, segs, pairs):
    """(sum where c1 is over, sum where c2 is over) of the crossing signs
    of the candidate segment pairs, or None on a degenerate direction."""
    over = [0, 0]
    for i, j in pairs:
        (a0, a1), (b0, b1) = segs[0][i], segs[1][j]
        a, b, c, d = proj[a0], proj[a1], proj[b0], proj[b1]
        o = (orient2(a, b, c), orient2(a, b, d), orient2(c, d, a), orient2(c, d, b))
        if o[0] * o[1] < 0 and o[2] * o[3] < 0:
            # heights at the crossing: a + t (b - a) and c + u (d - c)
            e, f = (b[0] - a[0], b[1] - a[1]), (d[0] - c[0], d[1] - c[1])
            den = e[0] * f[1] - e[1] * f[0]
            t = Q((c[0] - a[0]) * f[1] - (c[1] - a[1]) * f[0], den)
            u = Q((c[0] - a[0]) * e[1] - (c[1] - a[1]) * e[0], den)
            z1 = pts[a0][2] + t * (pts[a1][2] - pts[a0][2])
            z2 = pts[b0][2] + u * (pts[b1][2] - pts[b0][2])
            if z1 == z2:
                return None
            over[z1 < z2] += sign(den) if z1 > z2 else -sign(den)
        elif any(s == 0 and _in_box(u, v, w) for s, (u, v, w) in zip(
                o, ((a, b, c), (a, b, d), (c, d, a), (c, d, b)))):
            return None
    return over


def _in_box(u, v, w):
    """Is w in the closed box of u and v (w on their line: w on uv)?"""
    return (min(u[0], v[0]) <= w[0] <= max(u[0], v[0])
            and min(u[1], v[1]) <= w[1] <= max(u[1], v[1]))


def check_embedded(surface):
    """``PLSurface.check_embedded`` as one ``BoxIndex.query`` row scan per
    triangle, the loop that the sweep replaced, skipping pairs within one
    cup: it must pass, or raise the same message, on every surface.  The
    cup of triangle i is the number of ``surface.cup_ends`` at or below i,
    and none after the last end."""
    idx = surface.index
    lifted, planes, ends = surface.lifted, surface.planes, surface.cup_ends
    cups = [bisect_right(ends, i) if ends and i < ends[-1] else None
            for i in range(len(surface))]
    for i, t1 in enumerate(surface.triangles):
        for j in idx.query(idx.arr[i]):
            if j <= i or (cups[i] is not None and cups[j] == cups[i]):
                continue
            if shadows_apart(lifted[i], lifted[j]):
                continue
            r = triangle_triangle(lifted[i], lifted[j], planes[i], planes[j])
            if r[0] == "empty":
                continue
            t2 = surface.triangles[j]
            shared = []
            for v in t1:
                if v in t2 and v not in shared:
                    shared.append(v)
            if r[0] == "point" and len(shared) >= 1 and r[1] in shared:
                continue
            if r[0] == "segment" and len(shared) == 2:
                a, b = sorted(shared)
                if tuple(sorted(r[1])) == (a, b):
                    continue
            raise NotGeneric("surface self-intersection between %d and %d" % (i, j))


# ---------------------------------------------------------------------------
# seeded inputs


def _three_unlinked(d):
    return d.n_components == 3 and not any(
        d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3)))


def seeded_closures():
    """16 seeded 3-braid closures with three components and vanishing
    pairwise linking, as (name, diagram)."""
    rng = random.Random(424242)
    out = []
    while len(out) < 16:
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 12)))
        d = braid_closure(word, 3)
        if _three_unlinked(d):
            out.append(("closure%s" % (word,), d))
    return out


def banded_closures():
    """Four seeded closures of random 4- and 5-strand words of 14-22
    letters with three components, vanishing pairwise linking and at least
    one self-crossing, so their surfaces carry twisted bands."""
    rng = random.Random(3)
    out = []
    while len(out) < 4:
        strands = rng.choice((4, 5))
        word = tuple(rng.choice((1, -1)) * rng.randint(1, strands - 1)
                     for _ in range(rng.randint(14, 22)))
        d = braid_closure(word, strands)
        if _three_unlinked(d) and any(d.self_crossings(c) for c in (1, 2, 3)):
            out.append(("banded%s" % (word,), d))
    return out
