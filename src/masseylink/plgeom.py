"""Exact piecewise-linear geometry kernel in Q^3.

Points are plain tuples of rationals.  Every predicate is exact: there
are no tolerances anywhere, degeneracies are reported (NotGeneric) or
returned as explicit result kinds, never absorbed.  Callers that need a
degeneracy resolved are expected to perturb their input and retry.
The triangle kernel decides every sign on integers (see "integer forms").

Every candidate pair (two triangles of one surface in
``PLSurface.check_embedded``, a curve segment and a triangle, or two
plane segments of ``drawing.segments_touch``) comes from one sweep over
two sets of float boxes, ``BoxIndex.pairs``.  A triangle pair of
``check_embedded`` then passes two more tests: their xy shadows must not
be proved apart (``shadows_apart``, exact), and only then does the exact
kernel ``triangle_triangle`` cut each triangle by the other's stored
plane and overlap the two cuts.  Neither filter drops a pair that
meets.  The kernel orients what it returns: a segment of two triangles
whose planes are not parallel runs along n1 x n2, the cross product of
their normals.
Two different surfaces of an embedding are never paired triangle by
triangle: their intersection curves are read off the ``Cup`` records
(``trace.cup_intersection``), in exact 2D work on footprints and levels.

Intersection results are tagged tuples:
  ("empty",)
  ("point", p)            p in Q^3
  ("segment", (p, q))
  ("polygon", [p0, ...])  coplanar overlap with positive area
"""

import json
from bisect import bisect_left, bisect_right
from functools import cached_property
from math import gcd, lcm
from typing import NamedTuple

from .errors import InputError, NotGeneric
from .rational import Q, qstr, sign

EMPTY = ("empty",)


# ---------------------------------------------------------------------------
# vector helpers


def v_add(a, b):
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2])


def v_sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def v_scale(a, t):
    return (a[0] * t, a[1] * t, a[2] * t)


def v_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def v_cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def v_lerp(a, b, t):
    return v_add(a, v_scale(v_sub(b, a), t))


def tri_normal(tri):
    a, b, c = tri
    return v_cross(v_sub(b, a), v_sub(c, a))


# ---------------------------------------------------------------------------
# integer forms
#
# Every sign test of the triangle kernel runs on Python ints.  A set of
# rational points (a triangle, or a curve segment on its own two ends) is
# lifted to one common denominator D, the lcm of its coordinate
# denominators.  Two lifted sets are compared by
# cross-multiplying their denominators; only a coplanar pair of triangles
# is brought to lcm(D1, D2) by integer multiplication.  A constructed
# point is carried as a homogeneous hit (X, W, r): the integer vector X
# and weight W > 0 stand for X / (W * D), and r is the rational point
# itself when the hit is an input vertex.  Rationals are built only for
# returned points, so each result is the canonical rational of the direct
# computation.


class IntTriangle(NamedTuple):
    """A rational triangle as integer vertices over one denominator."""

    den: int
    verts: tuple    # three int 3-tuples: the vertices times den
    tri: tuple      # the rational vertices


def lift(points):
    """(D, integer points): D is the lcm of every coordinate denominator."""
    D = lcm(*(c.denominator for p in points for c in p))
    return D, tuple(
        tuple(c.numerator * (D // c.denominator) for c in p) for p in points
    )


def int_triangle(tri):
    D, verts = lift(tri)
    return IntTriangle(D, verts, tuple(tri))


def _common(D1, P1, D2, P2):
    """Two lifted point tuples brought to the denominator lcm(D1, D2)."""
    if D1 == D2:
        return D1, P1, P2
    g = gcd(D1, D2)
    s1, s2 = D2 // g, D1 // g
    return (
        D1 * s1,
        tuple((x * s1, y * s1, z * s1) for x, y, z in P1),
        tuple((x * s2, y * s2, z * s2) for x, y, z in P2),
    )


def _rational(hit, D):
    X, W, r = hit
    if r is not None:
        return r
    den = W * D
    return (Q(X[0], den), Q(X[1], den), Q(X[2], den))


def _plane(T):
    """Normal n of an integer triangle and the offset n . T[0]."""
    n = tri_normal(T)
    return n, v_dot(n, T[0])


def _edge_planes(T, n):
    """Per directed edge uv: (m, m . u) with m . p >= m . u on T's side."""
    out = []
    for u, v in ((T[0], T[1]), (T[1], T[2]), (T[2], T[0])):
        m = v_cross(n, v_sub(v, u))
        out.append((m, v_dot(m, u)))
    return out


def _where(edges, X, W):
    """Classify the in-plane homogeneous point X / W against a triangle."""
    zeros = 0
    for m, k in edges:
        s = v_dot(m, X) - W * k
        if s < 0:
            return "outside"
        if s == 0:
            zeros += 1
    return ("interior", "edge", "vertex", "vertex")[zeros]


# ---------------------------------------------------------------------------
# 2D sub-kernel (used after projecting coplanar configurations)


def _drop_axis(n):
    # axis with the largest |component| of the normal; projection along it
    # is affinely faithful on the plane
    ax, best = 0, abs(n[0])
    for i in (1, 2):
        if abs(n[i]) > best:
            ax, best = i, abs(n[i])
    return ax


def _proj(p, ax):
    return tuple(p[i] for i in range(3) if i != ax)


def orient2(a, b, c):
    return sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def in_closed_tri2(a, b, c, p, orient):
    """Is p in the closed plane triangle abc of orientation ``orient``?"""
    return (orient2(a, b, p) * orient >= 0 and orient2(b, c, p) * orient >= 0
            and orient2(c, a, p) * orient >= 0)


def _orient2h(a, b, c):
    """orient2 of homogeneous points (x, y, w) with w > 0."""
    return sign(
        a[0] * (b[1] * c[2] - b[2] * c[1])
        - a[1] * (b[0] * c[2] - b[2] * c[0])
        + a[2] * (b[0] * c[1] - b[1] * c[0])
    )


def _lex_less(p, q):
    """p < q lexicographically, for homogeneous points (x, y, w)."""
    return (p[0] * q[2], p[1] * q[2]) < (q[0] * p[2], q[1] * p[2])


def _seg_point_param(a, b, p):
    """Parameter t with p = a + t(b-a) if p lies on segment ab, else None."""
    d = v_sub(b, a)
    e = v_sub(p, a)
    if v_cross(d, e) != (0, 0, 0):
        return None
    dd = v_dot(d, d)
    if dd == 0:
        return Q(0) if e == (0, 0, 0) else None
    t = Q(v_dot(e, d), dd)
    if t < 0 or t > 1:
        return None
    return t


# ---------------------------------------------------------------------------
# segment / plane


def _crossing(p0, p1, d0, d1):
    """Homogeneous form (X, W), W > 0, of p0 + d0 / (d0 - d1) (p1 - p0),
    where p0 p1 crosses a plane with values d0, d1 of opposite signs."""
    X, W = v_sub(v_scale(p1, d0), v_scale(p0, d1)), d0 - d1
    return (X, W) if W > 0 else (v_scale(X, -1), -W)


# ---------------------------------------------------------------------------
# triangle / triangle


def shadows_apart(t1, t2):
    """True when the xy shadows of two IntTriangles are proved disjoint.

    That is, some edge line of one shadow has all three vertices of the
    other triangle strictly on its far side: the side away from its own
    third vertex, or either side when its shadow is a segment (a vertical
    wall).  An edge whose shadow is a single point is skipped.  Proof of
    soundness: a common point of the triangles would project to a common
    point of the shadows.  Signs are exact: with A over D_A and B over
    D_B, the side of q in B against the edge u -> v of A is the sign of
    (v - u) x (D_A q - D_B u) in xy, a positive multiple of the
    rational one.  This is the separating-axis exit of fast
    triangle-triangle tests (Moller, JGT 1997), taken on the shadow.
    """
    D1, A, _ = t1
    D2, B, _ = t2
    return _beyond_an_edge(A, D1, B, D2) or _beyond_an_edge(B, D2, A, D1)


def _beyond_an_edge(A, DA, B, DB):
    """Some edge line of A's xy shadow has all of B strictly beyond it."""
    (x0, y0, _), (x1, y1, _), (x2, y2, _) = B
    x0, y0, x1, y1, x2, y2 = DA * x0, DA * y0, DA * x1, DA * y1, DA * x2, DA * y2
    for u, v, w in ((A[0], A[1], A[2]), (A[1], A[2], A[0]), (A[2], A[0], A[1])):
        ex, ey = v[0] - u[0], v[1] - u[1]
        ux, uy = DB * u[0], DB * u[1]
        # B's first vertex picks the side, so that it reads positive; an
        # edge with a point shadow reads 0 for every vertex and is skipped
        s = ex * (y0 - uy) - ey * (x0 - ux)
        if s == 0:
            continue
        if s < 0:
            ex, ey = -ex, -ey
        # A's third vertex on the other side or on the line (a wall), the
        # rest of B strictly on this side
        if (ex * (w[1] - u[1]) - ey * (w[0] - u[0]) <= 0
                and ex * (y1 - uy) - ey * (x1 - ux) > 0
                and ex * (y2 - uy) - ey * (x2 - ux) > 0):
            return True
    return False


def triangle_triangle(t1, t2, plane1, plane2):
    """Exact intersection of two closed triangles with non-zero normals.

    Each triangle is an IntTriangle and each plane its integer plane
    (n, k), n . X = k on the integer vertices: a PLSurface keeps both for
    every triangle, in ``lifted`` and ``planes``.

    ``PLSurface.check_embedded`` calls this kernel third, after the float
    boxes and the xy shadows of the pair.  It then decides the pair by plane cuts,
    the interval test of Moller ("A Fast Triangle-Triangle Intersection
    Test", JGT 1997) in exact integers.  The side of a vertex of B
    against A's plane is D_A (n_A . B_i) - D_B k_A, a positive multiple
    of the rational one, and likewise for A against B's plane.  All of one
    triangle strictly on one side means no contact.  All of B on A's plane
    means coplanar triangles, which alone are brought to one denominator
    and clipped in 2D.  Otherwise each triangle is cut by the other's
    plane (``_cut``): a point or a segment of the line both planes share.
    The triangles meet in the overlap of the two cuts, found by ordering
    their ends along n_A x n_B with cross-multiplied denominators.

    Orientation contract: when the planes are not parallel, a "segment"
    (p, q) runs along n1 x n2, that is (n1 x n2) . (q - p) > 0, with n1,
    n2 the normals of the triangles as wound.  Only coplanar triangles
    give a "polygon" or a segment of no set direction.  A triangle with a
    zero normal (collinear vertices) is outside the contract.
    """
    D1, A, R1 = t1
    D2, B, R2 = t2
    n1, k1 = plane1
    n2, k2 = plane2
    d2 = [D1 * v_dot(n1, v) - D2 * k1 for v in B]
    if all(d > 0 for d in d2) or all(d < 0 for d in d2):
        return EMPTY
    d1 = [D2 * v_dot(n2, v) - D1 * k2 for v in A]
    if all(d > 0 for d in d1) or all(d < 0 for d in d1):
        return EMPTY
    if not any(d2):
        D, A, B = _common(D1, A, D2, B)
        return _coplanar_triangle_triangle(A, B, R1, n1, D)
    axis = v_cross(n1, n2)
    lo1, hi1 = _cut(A, R1, d1, D1, axis)
    lo2, hi2 = _cut(B, R2, d2, D2, axis)
    # the overlap runs from the later low end to the earlier high end
    lo = lo2 if _after(lo2, lo1) else lo1
    hi = hi2 if _after(hi1, hi2) else hi1
    if _after(lo, hi):
        return EMPTY
    if not _after(hi, lo):
        return ("point", _rational(lo[2], lo[3]))
    return ("segment", (_rational(lo[2], lo[3]), _rational(hi[2], hi[3])))


def _cut(T, R, d, D, axis):
    """The low and the high end along ``axis`` of the cut of a triangle by
    a plane, given the sides d of its vertices: neither all zero nor all
    of one strict sign.  T holds the integer vertices over D and R the
    rational ones.  An end is (axis . X, W, hit, D) for the hit (X, W, r)
    at X / (W D): a vertex on the plane, or an edge crossing it."""
    ends = []
    for i in range(3):
        di, dj = d[i], d[(i + 1) % 3]
        if di == 0:
            X, W, r = T[i], 1, R[i]
        elif dj != 0 and (di > 0) != (dj > 0):
            (X, W), r = _crossing(T[i], T[(i + 1) % 3], di, dj), None
        else:
            continue
        ends.append((v_dot(axis, X), W, (X, W, r), D))
    # one end when a lone vertex touches the plane, else two
    if len(ends) == 1 or not _after(ends[0], ends[1]):
        return ends[0], ends[-1]
    return ends[1], ends[0]


def _after(e, f):
    """End e lies strictly beyond end f along the axis of ``_cut``."""
    return e[0] * f[1] * f[3] > f[0] * e[1] * e[3]


def _coplanar_triangle_triangle(A, B, R1, n, D):
    ax = _drop_axis(n)
    p2 = [_proj(v, ax) for v in B]
    if orient2(*p2) < 0:
        p2.reverse()
    # Sutherland-Hodgman clip of t1 by t2 on homogeneous points
    # (x, y, w, r), w > 0, r the rational vertex of t1 or None
    poly = [_proj(v, ax) + (1, r) for v, r in zip(A, R1)]
    if orient2(*poly) <= 0:
        poly.reverse()
    for i in range(3):
        e0, e1 = p2[i], p2[(i + 1) % 3]
        ex, ey = e1[0] - e0[0], e1[1] - e0[1]
        # w * (cross product behind orient2(e0, e1, p)), linear in p
        side = [ex * (p[1] - e0[1] * p[2]) - ey * (p[0] - e0[0] * p[2]) for p in poly]
        out = []
        m = len(poly)
        for j in range(m):
            cur, nxt = poly[j], poly[(j + 1) % m]
            sc, sn = side[j], side[(j + 1) % m]
            if sc >= 0:
                out.append(cur)
            if sc < 0 < sn or sn < 0 < sc:
                # exact edge crossing: the zero of the side form on cur nxt
                x, y, w = (sn * c - sc * q for c, q in zip(cur[:3], nxt[:3]))
                out.append((x, y, w, None) if w > 0 else (-x, -y, -w, None))
        poly = out
        if not poly:
            return EMPTY
    uniq = []
    for p in poly:
        if not any(p[0] * q[2] == q[0] * p[2] and p[1] * q[2] == q[1] * p[2]
                   for q in uniq):
            uniq.append(p)
    keep = [i for i in range(3) if i != ax]
    k = v_dot(n, A[0])

    def unproject(p):
        # recover the dropped coordinate from the plane equation
        x, y, w, r = p
        if r is not None:
            return r
        out = [None] * 3
        out[keep[0]], out[keep[1]] = Q(x, w * D), Q(y, w * D)
        out[ax] = Q(k * w - n[keep[0]] * x - n[keep[1]] * y, n[ax] * w * D)
        return tuple(out)

    if len(uniq) == 1:
        return ("point", unproject(uniq[0]))
    if len(uniq) == 2:
        return ("segment", (unproject(uniq[0]), unproject(uniq[1])))
    # check for zero area (collinear ring)
    if all(_orient2h(uniq[0], uniq[i], uniq[i + 1]) == 0 for i in range(1, len(uniq) - 1)):
        lo = hi = uniq[0]
        for p in uniq[1:]:
            if _lex_less(p, lo):
                lo = p
            if _lex_less(hi, p):
                hi = p
        return ("segment", (unproject(lo), unproject(hi)))
    return ("polygon", [unproject(p) for p in uniq])


# ---------------------------------------------------------------------------
# curves and surfaces


def _qvertex(v):
    # rational coordinates are kept, not copied, so curves and surfaces
    # built from shared points share their coordinate objects
    return tuple(c if type(c) is Q else Q(c) for c in v)


class PLCurve:
    """Oriented polyline; closed curves do not repeat the first vertex."""

    def __init__(self, vertices, closed=True):
        self.vertices = [_qvertex(v) for v in vertices]
        self.closed = closed
        if closed and len(self.vertices) < 3:
            raise ValueError("closed curve needs at least 3 vertices")
        for a, b in zip(self.vertices, self.vertices[1:]):
            if a == b:
                raise ValueError("repeated consecutive vertex")
        if closed and self.vertices[0] == self.vertices[-1]:
            raise ValueError("closed curve must not repeat its first vertex")

    def __len__(self):
        return len(self.vertices)

    def segments(self):
        vs = self.vertices
        n = len(vs)
        m = n if self.closed else n - 1
        return [(vs[i], vs[(i + 1) % n]) for i in range(m)]

    def reversed(self):
        return PLCurve(list(reversed(self.vertices)), self.closed)

    @cached_property
    def lifted(self):
        """``lift`` of each segment: (D, (p0, p1)) on its own two ends."""
        return [lift(seg) for seg in self.segments()]

    @cached_property
    def index(self):
        return BoxIndex([_box_row(it) for it in self.lifted])

    def locate(self, p):
        """Position (seg_index + t in [0,1)) of p on the curve, or None.

        Candidates are the segments whose float box holds float(p), in
        segment order; a segment whose box misses it cannot hold p
        (rounding is monotone), so the first hit is the scan's.
        """
        vs = self.vertices
        n = len(vs)
        for i in self.index.query(p + p):
            t = _seg_point_param(vs[i], vs[(i + 1) % n], p)
            if t is not None and t < 1:
                return Q(i) + t
        # closed curve: p may equal the final wrap vertex handled above;
        # open curve: allow the very last vertex
        if not self.closed and p == self.vertices[-1]:
            return Q(len(self.vertices) - 1)
        return None

    def point_at(self, pos):
        i = int(pos)
        vs = self.vertices
        n = len(vs)
        k = i % (n if self.closed else n - 1)
        return v_lerp(vs[k], vs[(k + 1) % n], pos - i)

    def subarc(self, pos0, pos1):
        """Vertices of the forward sub-arc from pos0 to pos1 (cyclic).

        pos0 and pos1 must be distinct positions on a closed curve.
        """
        if not self.closed:
            raise ValueError("subarc only on closed curves")
        if pos0 == pos1:
            raise ValueError("subarc endpoints coincide")
        n = len(self.vertices)
        i = int(pos0) % n
        i1 = int(pos1) % n
        frac0 = pos0 - int(pos0)
        frac1 = pos1 - int(pos1)
        out = [self.point_at(pos0)]
        if i1 == i and frac1 > frac0:
            out.append(self.point_at(pos1))
            return out
        while True:
            i = (i + 1) % n
            v = self.vertices[i]
            if v != out[-1]:
                out.append(v)
            if i == i1:
                if frac1 > 0:
                    out.append(self.point_at(pos1))
                return out


class Cup(NamedTuple):
    """One Seifert circle's cup in a PLSurface: vertical wall quads over
    its footprint, hung from the rim down to ``level``, then the
    horizontal disk at ``level``.

    ``walls`` holds two triangles per footprint edge k, (p, q, qb) and
    (p, qb, pb) for the rim edge p -> q and its feet pb, qb; ``disk``
    follows it, one triangle per index triple of ``clip``.  ``footprint``
    is (D, points): the rim's xy as integers over one denominator D.
    ``crossings`` pairs each crossing of this circle with another
    component with the footprint edge k that holds the crossing point of
    its chords, as (crossing, k).
    """

    walls: range
    disk: range
    level: object
    footprint: tuple
    clip: tuple
    crossings: tuple


class PLSurface:
    """Oriented triangulated surface with exact vertices.

    Triangles are ordered vertex triples; the winding defines the
    orientation.  Interior edges must be shared by exactly two triangles
    with opposite induced directions.  ``lifted`` holds the IntTriangle of
    each triangle, made once here for the exact kernel, ``planes`` its
    integer plane (n, k) at the triangle's own denominator, and ``index``
    the one BoxIndex of the triangles, built from those integer forms.
    ``cups`` are the Cup records, in triangle order from index 0, each
    proved embedded; ``cup_ends`` is where each ends.  The triangles
    after the last cup (the bands) are proved nothing, and with no cups
    the whole surface is one unproved part.
    """

    def __init__(self, triangles, cups=()):
        self.triangles = [tuple(_qvertex(v) for v in t) for t in triangles]
        self.cups = list(cups)
        self.lifted = [int_triangle(t) for t in self.triangles]
        self.planes = [_plane(it.verts) for it in self.lifted]
        self.index = BoxIndex([_box_row(it) for it in self.lifted])

    @property
    def cup_ends(self):
        return [c.disk.stop for c in self.cups]

    def __len__(self):
        return len(self.triangles)

    def validate(self):
        """Check edge pairing; returns the list of boundary (directed) edges.

        Edges are keyed on the ``point_key`` of their ends.
        """
        edges = {}
        for t in self.triangles:
            keys = [point_key(v) for v in t]
            for i in range(3):
                j = (i + 1) % 3
                k = (keys[i], keys[j])
                if k in edges:
                    raise ValueError("repeated directed edge %r" % ((t[i], t[j]),))
                edges[k] = (t[i], t[j])
        return [e for k, e in edges.items() if (k[1], k[0]) not in edges]

    def boundary_curves(self):
        """Boundary as oriented closed PLCurves (induced orientation).

        Loops are ordered as by ``stitch``.
        """
        # at every vertex boundary edges come in and go out equally often,
        # so they stitch into loops only
        return [PLCurve(loop, closed=True) for loop in stitch(self.validate())[1]]

    def _contacts(self, pairs):
        """(i, j, r) for each candidate (i, j) whose shadows are not proved
        apart and whose kernel result r is not empty."""
        A = self.lifted
        for i, j in pairs:
            if shadows_apart(A[i], A[j]):
                continue
            r = triangle_triangle(A[i], A[j], self.planes[i], self.planes[j])
            if r[0] != "empty":
                yield i, j, r

    def check_embedded(self):
        """Exact self-intersection check of the pairs i < j no cup proves:
        each part (see ``cup_ends``) against every later part, the last
        against itself.  Triangles may share vertices/edges (mesh adjacency);
        any other contact raises NotGeneric, first pair in (i, j) order."""
        cuts = [0, *self.cup_ends, len(self)]
        parts = [(lo, BoxIndex(self.index.arr[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]
        lo, idx = parts[-1]
        pairs = [(lo + i, lo + j) for i, j in idx.pairs(idx) if i < j]
        for k, (lo, idx) in enumerate(parts):
            for lo2, idx2 in parts[k + 1:]:
                pairs += [(lo + i, lo2 + j) for i, j in idx.pairs(idx2)]
        pairs.sort()
        for i, j, r in self._contacts(pairs):
            # distinct common vertices, compared without hashing
            t1, t2 = self.triangles[i], self.triangles[j]
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


def point_key(p):
    """The (numerator, denominator) ints of a rational point: they name it
    exactly and hash far cheaper than its Fractions."""
    x, y, z = p
    return (x.numerator, x.denominator, y.numerator, y.denominator,
            z.numerator, z.denominator)


def stitch(segments):
    """Join directed segments (p, q) end to start; returns (chains, loops).

    Points are keyed on ``point_key``; NotGeneric when two segments leave or
    enter one point.  Chains and loops are point lists: the chains sorted by
    first point, each loop starting at its least point and the loops in the
    order of those points.
    """
    at, nxt, prv = {}, {}, {}
    for p, q in segments:
        kp, kq = point_key(p), point_key(q)
        if kp in nxt or kq in prv:
            raise NotGeneric("segments branch at a point")
        nxt[kp] = kq
        prv[kq] = kp
        at[kp], at[kq] = p, q
    chains = []
    for k in sorted((k for k in nxt if k not in prv), key=at.__getitem__):
        chain = [at[k]]
        while k in nxt:
            k = nxt.pop(k)
            chain.append(at[k])
        chains.append(chain)
    # every point left in nxt lies on a loop
    loops = []
    for k in sorted(nxt, key=at.__getitem__):
        loop = []
        while k in nxt:
            loop.append(at[k])
            k = nxt.pop(k)
        if loop:
            loops.append(loop)
    return chains, loops


_FLOAT_RANGE = ("coordinates beyond the float range of the box prefilter "
                "(about 1.8e308)")


def _box_row(item):
    """Float box (lo x, y, z, hi x, y, z) of a lifted item: an
    IntTriangle or a (D, integer points) pair."""
    D, cols = item[0], list(zip(*item[1]))
    try:
        return tuple([min(c) / D for c in cols] + [max(c) / D for c in cols])
    except OverflowError:
        raise InputError(_FLOAT_RANGE) from None


class BoxIndex:
    """Float bounding-box prefilter over lifted triangles or segments.

    ``arr`` is the list of float rows (lo x, y, z, hi x, y, z) it is made
    from, one ``_box_row`` per item in item order; the owners, ``PLCurve``
    and ``PLSurface``, compute each row once, and ``check_embedded`` slices
    them.  ``pairs`` of two indexes is the one way the package finds
    candidate pairs: for ``check_embedded``, curve crossings and
    ``drawing.segments_touch``; ``query``, a scan of every row against
    one box, is what it must equal, and ``PLCurve.locate`` takes its
    candidates from it, so it stays here.
    A corner past the float range is an InputError.
    No pair whose exact boxes overlap is missed, at any scale: min(ints) /
    D is one correctly rounded int/int division, the ``float`` of the
    rational corner, so it is monotone and exact ``lo <= hi`` implies
    ``float(lo) <= float(hi)``.  Rounding can only add candidates, and
    callers confirm every candidate exactly.
    """

    def __init__(self, rows):
        self.arr = rows
        # rows by low x, sorted once; pairs bisects them
        self._by_x = sorted(enumerate(self.arr), key=lambda r: r[1][0])
        self._x0 = [row[0] for _, row in self._by_x]

    def query(self, box):
        try:
            x0, y0, z0, x1, y1, z1 = [float(c) for c in box]
        except OverflowError:
            raise InputError(_FLOAT_RANGE) from None
        return [
            i for i, (a0, b0, c0, a1, b1, c1) in enumerate(self.arr)
            if a0 <= x1 and a1 >= x0 and b0 <= y1 and b1 >= y0 and c0 <= z1 and c1 >= z0
        ]

    def pairs(self, other):
        """Every (i, j) with row i of this index overlapping row j of
        ``other``, sorted: ``other.query`` of each row, in row order.

        A pair is found once, from the row with the lesser low x (the row
        here on a tie): row i takes the rows of ``other`` whose low x is
        in [lo x, hi x] of row i, and row j of ``other`` the rows here
        whose low x is in (lo x, hi x] of row j.  Both are bisections of
        the rows sorted by low x; y and z decide.
        """
        out = []
        for rows, scan, first, flip in ((self.arr, other, bisect_left, False),
                                        (other.arr, self, bisect_right, True)):
            xs, by_x = scan._x0, scan._by_x
            for i, (x0, y0, z0, x1, y1, z1) in enumerate(rows):
                for j, (_, b0, c0, _, b1, c1) in by_x[first(xs, x0):bisect_right(xs, x1)]:
                    if b0 <= y1 and b1 >= y0 and c0 <= z1 and c1 >= z0:
                        out.append((j, i) if flip else (i, j))
        out.sort()
        return out


# ---------------------------------------------------------------------------
# signed curve-surface intersection counts


def curve_surface_crossings(curve, surface):
    """All transversal pierce events of a PLCurve through a PLSurface,
    as (position, point, sign, triangle index) sorted along the curve.

    Candidates come from ``curve.index.pairs(surface.index)``, in
    (segment, triangle) order.  Each segment is lifted on its own two
    ends to (Dc, (p0, p1)) and each triangle's plane (n, k) is taken at
    its own denominator Dt, so the plane value d = Dt n . p - Dc k of a
    segment end is a positive multiple of the value at the common
    denominator of segment and triangle: every sign, every parameter
    d0 / (d0 - d1) and every point class is that one's.
    """
    events = []
    for si, ti in curve.index.pairs(surface.index):
        Dc, (p0, p1) = curve.lifted[si]
        Dt, T, _ = surface.lifted[ti]
        n, k = surface.planes[ti]
        d0, d1 = Dt * v_dot(n, p0) - Dc * k, Dt * v_dot(n, p1) - Dc * k
        s0, s1 = sign(d0), sign(d1)
        if s0 == 0 or s1 == 0:
            # an endpoint lies on the plane: harmless when outside the
            # triangle, degenerate when touching it
            edges = _edge_planes(T, n)
            for p, s in ((p0, s0), (p1, s1)):
                if s == 0 and _where(edges, v_scale(p, Dt), Dc) != "outside":
                    raise NotGeneric("curve vertex on surface")
            continue
        if s0 == s1:
            continue
        # 0 < d0 / (d0 - d1) < 1: the pierce is never a segment end
        X, W = _crossing(p0, p1, d0, d1)
        where = _where(_edge_planes(T, n), v_scale(X, Dt), W * Dc)
        if where == "outside":
            continue
        if where != "interior":
            raise NotGeneric("curve crosses a triangle edge of the surface")
        events.append((si + Q(d0, d0 - d1), _rational((X, W, None), Dc),
                       1 if s0 < 0 else -1, ti))
    events.sort(key=lambda ev: ev[0])
    return events


def curve_surface_count(curve, surface):
    """Signed count of pierces; +1 per negative-to-positive-side crossing."""
    return sum(s for _, _, s, _ in curve_surface_crossings(curve, surface))


# ---------------------------------------------------------------------------
# debug geometry dump


def geometry_json(curves=(), surfaces=(), labels=None):
    """Documented JSON form of curves and surfaces for offline plotting."""
    doc = {"schema_version": 1, "curves": [], "surfaces": []}
    for i, c in enumerate(curves):
        doc["curves"].append(
            {
                "closed": c.closed,
                "points": [[qstr(x) for x in v] for v in c.vertices],
            }
        )
    for s in surfaces:
        doc["surfaces"].append(
            {"triangles": [[[qstr(x) for x in v] for v in t] for t in s.triangles]}
        )
    if labels:
        doc["labels"] = list(labels)
    return doc


def dump_geometry(path, **kw):
    with open(path, "w") as fh:
        json.dump(geometry_json(**kw), fh, indent=1, sort_keys=True)
        fh.write("\n")
