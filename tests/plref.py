"""Point, plane and segment predicates that only the tests use.

Each is a thin entry point into the integer kernel of masseylink.plgeom,
so a test can ask one exact question (a sign, a point class, one
segment against one triangle) without building a surface.
"""

from masseylink.plgeom import (
    EMPTY,
    _edge_planes,
    _plane,
    _rational,
    _seg_point_param,
    _segment_hits,
    _where,
    lift,
    tri_normal,
    v_cross,
    v_dot,
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
