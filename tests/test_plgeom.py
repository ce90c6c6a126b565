import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement, permutations

import pytest
from hypothesis import given, settings, strategies as st

from masseylink import trace
from masseylink.embed import build_embedding, meridian, pushoff_cycle, pushoff_run
from masseylink.errors import InputError, NonzeroLinking, NotGeneric
from masseylink.fixtures import clasp_family, fixture_names, load_fixture
from masseylink.plgeom import (
    BoxIndex,
    Cup,
    PLCurve,
    PLSurface,
    _box_row,
    _common,
    _crossing,
    _edge_planes,
    _plane,
    _rational,
    _seg_point_param,
    _where,
    curve_surface_count,
    curve_surface_crossings,
    int_triangle,
    lift,
    shadows_apart,
    stitch,
    triangle_triangle,
    v_add,
    v_cross,
    v_dot,
    v_scale,
    v_sub,
)
from masseylink.rational import Q
from masseylink.trace import trace_derived_boundary
from plref import (
    banded_closures,
    bbox,
    check_embedded as ref_check_embedded,
    edge_hit_triangle_triangle,
    linking_number,
    meets as ref_meets,
    orient3,
    point_in_triangle,
    qpoint as P,
    rational_rows,
    rational_triangle_triangle,
    seeded_closures,
    segment_triangle,
    sweep_meets,
)


def test_orient3_right_handed_basis():
    assert orient3(P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)) == 1


def test_orient3_coplanar():
    assert orient3(P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(3, -2, 0)) == 0


def test_orient3_swap_antisymmetry():
    a, b, c, d = P(0, 0, 0), P(1, 0, 0), P(0, 1, 0), P(0, 0, 1)
    assert orient3(b, a, c, d) == -1
    assert orient3(a, c, b, d) == -1


rat = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
).map(lambda f: Q(f.numerator, f.denominator))
pt = st.tuples(rat, rat, rat)


def _det_oracle(p, q, r, s):
    """Leibniz permutation expansion over stdlib Fractions (independent of
    the cross/dot formulation used by orient3)."""
    rows = [
        [Fraction(int((x - y).numerator), int((x - y).denominator))
         for x, y in zip(v, p)]
        for v in (q, r, s)
    ]
    det = Fraction(0)
    for perm, sgn in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        term = Fraction(1)
        for i, j in enumerate(perm):
            term *= rows[i][j]
        det += sgn * term
    return (det > 0) - (det < 0)


@settings(max_examples=200, deadline=None)
@given(pt, pt, pt, pt)
def test_orient3_matches_determinant_oracle(p, q, r, s):
    assert orient3(p, q, r, s) == _det_oracle(p, q, r, s)


# -- segment / triangle ------------------------------------------------------

TRI = (P(0, 0, 0), P(4, 0, 0), P(0, 4, 0))


def test_segment_triangle_transversal_pierce():
    r = segment_triangle((P(1, 1, -1), P(1, 1, 1)), TRI)
    assert r[0] == "point" and r[1] == P(1, 1, 0)


def test_segment_triangle_coplanar_overlap():
    r = segment_triangle((P(-1, 1, 0), P(5, 1, 0)), TRI)
    assert r[0] == "segment"
    assert sorted(r[1]) == [P(0, 1, 0), P(3, 1, 0)]


def test_segment_triangle_disjoint():
    assert segment_triangle((P(9, 9, 1), P(9, 9, 5)), TRI) == ("empty",)


# -- triangle / triangle -----------------------------------------------------


def test_triangle_triangle_generic_cross():
    t1 = (P(-2, 0, -2), P(2, 0, -2), P(0, 0, 2))
    t2 = (P(0, -2, -1), P(0, 2, -1), P(0, 0, 3))
    r = rational_triangle_triangle(t1, t2)
    assert r[0] == "segment"
    for p in r[1]:
        assert p[0] == 0 and p[1] == 0


def test_triangle_triangle_shared_vertex_only():
    t1 = (P(0, 0, 0), P(2, 0, 0), P(0, 2, 0))
    t2 = (P(0, 0, 0), P(-2, 0, 1), P(0, -2, 1))
    r = rational_triangle_triangle(t1, t2)
    assert r == ("point", P(0, 0, 0))


def test_triangle_triangle_parallel_disjoint():
    t1 = (P(0, 0, 0), P(1, 0, 0), P(0, 1, 0))
    t2 = (P(0, 0, 1), P(1, 0, 1), P(0, 1, 1))
    assert rational_triangle_triangle(t1, t2) == ("empty",)


def test_triangle_triangle_symmetric_support():
    t1 = (P(-2, 0, -2), P(2, 0, -2), P(0, 0, 2))
    t2 = (P(0, -2, -1), P(0, 2, -1), P(0, 0, 3))
    r12 = rational_triangle_triangle(t1, t2)
    r21 = rational_triangle_triangle(t2, t1)
    assert sorted(r12[1]) == sorted(r21[1])


def test_triangle_triangle_coplanar_overlap_reported():
    t1 = (P(0, 0, 0), P(4, 0, 0), P(0, 4, 0))
    t2 = (P(1, 1, 0), P(5, 1, 0), P(1, 5, 0))
    assert rational_triangle_triangle(t1, t2)[0] == "polygon"


# -- curve-surface counts ----------------------------------------------------


def _disk():
    # two-triangle square spanning the small loop's linking partner
    a, b, c, d = P(-2, -2, 0), P(2, -2, 0), P(2, 2, 0), P(-2, 2, 0)
    return PLSurface([(a, b, c), (a, c, d)])


def _loop():
    # four-segment rectangle climbing through the disk once at (1/2, 0)
    return PLCurve(
        [P(Q(1, 2), 0, -1), P(Q(1, 2), 0, 1), P(5, 0, 1), P(5, 0, -1)],
        closed=True,
    )


def test_count_hand_built_loop_disk():
    # the disk's normal points +z; the loop ascends inside it: one +1 pierce
    assert curve_surface_count(_loop(), _disk()) == 1


def test_count_reversed_loop_negates():
    assert curve_surface_count(_loop().reversed(), _disk()) == -1


def test_count_disjoint_curve():
    far = PLCurve([P(50, 50, 0), P(51, 50, 1), P(50, 51, 2)], closed=True)
    assert curve_surface_count(far, _disk()) == 0


def test_count_closed_surface_is_zero():
    # boundary of a tetrahedron, outward-oriented: every closed loop counts 0
    a, b, c, d = P(0, 0, 0), P(4, 0, 0), P(0, 4, 0), P(0, 0, 4)
    tet = PLSurface([(a, c, b), (a, b, d), (b, c, d), (a, d, c)])
    assert tet.validate() == []  # closed
    loop = PLCurve(
        [P(1, 1, -3), P(1, 1, 9), P(7, 7, 9), P(7, 7, -3)], closed=True
    )
    assert curve_surface_count(loop, tet) == 0


def test_count_degenerate_vertex_on_surface():
    bad = PLCurve([P(Q(1, 2), 0, 0), P(1, 0, 1), P(0, 1, 1)], closed=True)
    with pytest.raises(NotGeneric):
        curve_surface_count(bad, _disk())


def _ref_segment_crossings(seg, surface):
    """Pierces of one segment, each candidate triangle brought to the
    common denominator of segment and triangle (the per-segment kernel
    curve_surface_crossings replaced)."""
    Ds, S = lift(seg)
    for ti in surface.index.query(bbox(seg)):
        Dt, T, _ = surface.lifted[ti]
        D, (p0, p1), T = _common(Ds, S, Dt, T)
        n, k = _plane(T)
        d0, d1 = v_dot(n, p0) - k, v_dot(n, p1) - k
        s0, s1 = _ref_sign(d0), _ref_sign(d1)
        if s0 == 0 or s1 == 0:
            edges = _edge_planes(T, n)
            for p, s in ((p0, s0), (p1, s1)):
                if s == 0 and _where(edges, p, 1) != "outside":
                    raise NotGeneric("curve vertex on surface")
            continue
        if s0 == s1:
            continue
        X, W = _crossing(p0, p1, d0, d1)
        where = _where(_edge_planes(T, n), X, W)
        if where == "outside":
            continue
        if where != "interior":
            raise NotGeneric("curve crosses a triangle edge of the surface")
        yield Q(d0, d0 - d1), _rational((X, W, None), D), (1 if s0 < 0 else -1), ti


def _ref_curve_surface_crossings(curve, surface):
    events = []
    for si, seg in enumerate(curve.segments()):
        for t, x, s, ti in _ref_segment_crossings(seg, surface):
            events.append((Q(si) + t, x, s, ti))
    events.sort(key=lambda ev: ev[0])
    return events


def _crossings_or_error(fn, curve, surface):
    try:
        return fn(curve, surface)
    except NotGeneric as exc:
        return "NotGeneric: %s" % exc


def _traced_curves(e):
    """Every traced loop of every ordered pair of zero linking number, and
    the open pushoff of every run of a loop along a component."""
    curves = []
    for a, b in permutations(sorted(e.curves), 2):
        try:
            db = trace_derived_boundary(e, a, b)
        except (NonzeroLinking, NotGeneric):
            continue
        curves += db.loop_curves()
        curves += [PLCurve(pushoff_run(piece.points, e.tube_radius), closed=False)
                   for loop in db.loops for piece in loop if piece.kind == "along"]
    return curves


@lru_cache(maxsize=None)
def _kernel_cases():
    """(name, curves, surfaces) for the crossing-kernel differential: the
    inputs of ``_surface_cases`` with their component curves, pushoffs,
    meridians and traced curves."""
    out = []
    for name, e in _surface_cases():
        curves = []
        for i, c in e.curves.items():
            curves += [c, pushoff_cycle(c, e.tube_radius), meridian(e, i)]
        out.append((name, curves + _traced_curves(e), list(e.surfaces.values())))
    return out


def test_curve_surface_crossings_match_per_segment_reference():
    events = raised = open_curves = 0
    for name, curves, surfaces in _kernel_cases():
        for ci, curve in enumerate(curves):
            open_curves += not curve.closed
            for si, surf in enumerate(surfaces):
                want = _crossings_or_error(_ref_curve_surface_crossings, curve, surf)
                got = _crossings_or_error(curve_surface_crossings, curve, surf)
                assert got == want, (name, ci, si)
                if isinstance(want, str):
                    raised += 1
                else:
                    events += len(want)
    assert events > 0 and raised > 0
    assert open_curves > 0


def test_curve_rows_are_the_rational_segment_boxes():
    # locate skips a segment by its row, so each row must be the float of
    # the segment's rational box, whatever denominator it was lifted to
    for name, curves, _ in _kernel_cases():
        for ci, curve in enumerate(curves):
            assert curve.index.arr == rational_rows(curve.segments()), (name, ci)


@pytest.mark.parametrize("curve, message", [
    # a vertex inside the lower triangle of the disk
    (PLCurve([P(Q(1, 2), 0, 0), P(1, 0, 1), P(0, 1, 1)]), "curve vertex on surface"),
    # through the diagonal edge the disk's two triangles share
    (PLCurve([P(Q(1, 3), Q(1, 3), -1), P(Q(1, 3), Q(1, 3), 1), P(5, 5, 1)]),
     "curve crosses a triangle edge of the surface"),
])
def test_curve_surface_crossings_degenerate_like_reference(curve, message):
    for c in (curve, curve.reversed(), PLCurve(curve.vertices, closed=False)):
        for fn in (_ref_curve_surface_crossings, curve_surface_crossings):
            with pytest.raises(NotGeneric, match=message):
                fn(c, _disk())


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([1, 3, 5]), st.integers(1, 5))
def test_count_invariant_under_subdivision(ku, kv):
    # odd curve subdivision counts keep new vertices off the z=0 disk plane
    # subdividing curve segments and disk triangles never changes the count
    loop, disk = _loop(), _disk()
    vs = []
    for a, b in loop.segments():
        vs.append(a)
        for t in range(1, ku):
            vs.append(tuple(ai + Q(t, ku) * (bi - ai) for ai, bi in zip(a, b)))
    loop2 = PLCurve(vs, closed=True)
    tris = []
    for (a, b, c) in disk.triangles:
        # split at the barycenter-ish rational point, kv-dependent
        m = tuple((ai + bi + ci) / 3 + (Q(kv, 97)) * 0 for ai, bi, ci in zip(a, b, c))
        tris += [(a, b, m), (b, c, m), (c, a, m)]
    disk2 = PLSurface(tris)
    assert curve_surface_count(loop2, disk2) == curve_surface_count(loop, disk)


def test_surface_validation_catches_bad_mesh():
    a, b, c = P(0, 0, 0), P(1, 0, 0), P(0, 1, 0)
    with pytest.raises(ValueError, match=r"repeated directed edge \(\(Fraction"):
        PLSurface([(a, b, c), (a, b, c)]).validate()


def test_validate_returns_rational_boundary_edges_in_order():
    # the hexagon fan's interior spokes pair up; the rim comes back as the
    # rational edges, in triangle order
    o = P(0, 0, Q(1, 3))
    rim = [P(2, 0, 0), P(1, 2, 0), P(-1, 2, 0), P(-2, 0, 0), P(-1, -2, 0), P(1, -2, 0)]
    fan = PLSurface([(o, rim[k], rim[(k + 1) % 6]) for k in range(6)])
    assert fan.validate() == [(rim[k], rim[(k + 1) % 6]) for k in range(6)]
    assert all(type(c) is Fraction for e in fan.validate() for v in e for c in v)


def _cups(*ends):
    """Cup records of hand-made surfaces: only where each cup ends, with
    empty walls, footprint, clip and crossings."""
    return [Cup(walls=range(lo, lo), disk=range(lo, hi), level=0, footprint=(1, ()),
                clip=(), crossings=())
            for lo, hi in zip((0,) + ends, ends)]


def test_check_embedded_skips_pairs_within_one_cup():
    # two crossing triangles: compared unless one cup ends after both
    t1 = (P(0, 0, 0), P(4, 0, 0), P(0, 4, 0))
    t2 = (P(1, 1, -1), P(1, 1, 1), P(2, -3, 0))
    PLSurface([t1, t2], cups=_cups(2)).check_embedded()
    for ends in ((), (1,), (1, 2)):
        with pytest.raises(NotGeneric):
            PLSurface([t1, t2], cups=_cups(*ends)).check_embedded()


def test_check_embedded_matches_per_row_scan():
    # the sweep reports what the per-row scan reports, on every surface
    # with and without its cup ends, and on the union of two surfaces of
    # one input, where the first crossing pair found names the message
    def outcome(check, surface):
        try:
            check(surface)
        except NotGeneric as exc:
            return str(exc)

    raised = 0
    for name, e in _surface_cases():
        for i, F in e.surfaces.items():
            for G in (F, PLSurface(F.triangles)):
                want = outcome(ref_check_embedded, G)
                assert outcome(PLSurface.check_embedded, G) == want, (name, i)
        if len(e.surfaces) > 1:
            F1, F2 = e.surfaces[1], e.surfaces[2]
            both = PLSurface(F1.triangles + F2.triangles)
            want = outcome(ref_check_embedded, both)
            assert outcome(PLSurface.check_embedded, both) == want, name
            raised += want is not None
    assert raised > 0


def test_check_embedded_reports_the_first_crossing_pair():
    # triangles 1 and 2 cross at low x, triangles 0 and 3 at high x, and
    # row 3 starts left of row 0: the pair first in (i, j) order is
    # reported, not the one the sweep meets first
    def crossing(x):
        return ((P(x, 0, 0), P(x + 4, 0, 0), P(x, 4, 0)),
                (P(x + 1, 1, -1), P(x + 1, 1, 1), P(x + 2, -3, 0)))

    (a, b), (c, d) = crossing(100), crossing(0)
    s = PLSurface([b, c, d, a])
    message = "surface self-intersection between 0 and 3"
    for check in (PLSurface.check_embedded, ref_check_embedded):
        with pytest.raises(NotGeneric, match=message):
            check(s)


def test_check_embedded_reports_contacts_across_parts():
    # crossing(x) is a flat triangle at low x = x and one crossing it at
    # low x = x + 1.  Each cup of the first surface meets a later cup whose
    # row has the lesser low x; the second surface crosses twice among
    # the bands after its one cup.  Either reports its first pair in
    # (i, j) order, not the one the sweep meets first
    def crossing(x):
        return ((P(x, 0, 0), P(x + 4, 0, 0), P(x, 4, 0)),
                (P(x + 1, 1, -1), P(x + 1, 1, 1), P(x + 2, -3, 0)))

    (a, b), (c, d) = crossing(100), crossing(0)
    far = crossing(1000)[0]
    cases = [(PLSurface([b, d, c, a], cups=_cups(1, 2, 4)), "between 0 and 3"),
             (PLSurface([far, b, c, d, a], cups=_cups(1)), "between 1 and 4")]
    for s, message in cases:
        for check in (PLSurface.check_embedded, ref_check_embedded):
            with pytest.raises(NotGeneric, match=message):
                check(s)


def test_box_index_padding_never_misses():
    disk = _disk()
    idx = disk.index
    assert set(idx.query(bbox([v for t in disk.triangles for v in t]))) == {0, 1}


def _exact_overlap(b1, b2):
    return all(b1[t] <= b2[t + 3] and b2[t] <= b1[t + 3] for t in range(3))


def _overlap_items():
    """Box items (lo, hi) as two rational points: ``small`` on dyadic
    coordinates that floats hold exactly, ``big`` near 2**60, with ties
    and gaps of 2**-100 that floats round away."""
    rng = random.Random(5027)

    def box(base, dens):
        lo = tuple(base + Q(rng.randint(-64, 64), rng.choice(dens)) for _ in range(3))
        return lo, tuple(c + Q(rng.randint(0, 64), rng.choice(dens)) for c in lo)

    tiny = Q(1, 2**100)
    far = 2**60
    dyadic = (1, 2, 8, 2**20)  # floats represent these coordinates exactly
    small = [box(0, dyadic) for _ in range(80)]
    small += [
        (P(0, 0, 0), P(1, 1, 1)),
        (P(1, 0, 0), P(2, 1, 1)),                          # touches a face
        (P(1, 1, 1), P(2, 2, 2)),                          # touches a corner
        (P(1 + Q(1, 2**20), 0, 0), P(2, 1, 1)),            # just clear
    ]
    big = [box(far, (1, 3, 7)) for _ in range(60)]
    corner = P(far, far, far)
    big += [
        (corner, corner),
        (P(far + tiny, far, far), P(far + 1, far, far)),  # clear by 2**-100
        (P(far - 1, far, far), P(far + tiny, far, far)),  # overlaps by 2**-100
        (P(far + tiny, far, far), P(far + tiny, far + 1, far + 1)),  # touches
    ]
    return small, big


def test_box_index_query_matches_exact_overlap():
    small, big = _overlap_items()
    for items, exact_in_float in ((small, True), (big, False)):
        idx = BoxIndex([_box_row(lift(it)) for it in items])
        for q in items:
            qbox = (*q[0], *q[1])
            exact = {i for i, it in enumerate(items) if _exact_overlap((*it[0], *it[1]), qbox)}
            found = idx.query(qbox)
            if exact_in_float:
                assert found == sorted(exact)
            else:
                assert found == sorted(set(found)) and exact <= set(found)
    # past the float range a row and a query box are input errors
    huge = (P(2**1100, 0, 0), P(2**1100, 1, 1))
    for make in (lambda: _box_row(lift(huge)), lambda: idx.query((*huge[0], *huge[1]))):
        with pytest.raises(InputError, match="float range"):
            make()


def _query_pairs(idx, other):
    """The per-row query list that BoxIndex.pairs must equal."""
    return [(i, j) for i, row in enumerate(idx.arr) for j in other.query(row)]


def test_box_pairs_match_queries_on_synthetic_rows():
    # coordinates on a 5-point grid: low x ties, boxes that touch in one
    # coordinate (overlapping or apart in the others) and zero-width rows
    # are all common
    rng = random.Random("box-pairs")

    def box():
        lo = [rng.randint(0, 4) for _ in range(3)]
        return P(*lo), P(*(c + rng.choice((0, 0, 1, 2)) for c in lo))

    touching = [
        (P(0, 0, 0), P(1, 1, 1)),
        (P(1, 0, 0), P(2, 1, 1)),       # touches the first in x only
        (P(0, 1, 0), P(1, 2, 1)),       # touches the first in y only
        (P(1, 2, 0), P(3, 3, 1)),       # touches in x, apart in y
        (P(0, 0, 2), P(0, 0, 2)),       # a point
        (P(1, 1, 0), P(1, 1, 5)),       # zero width in x and y
    ]
    def index(items):
        return BoxIndex([_box_row(lift(it)) for it in items])

    for _ in range(40):
        a = index([box() for _ in range(rng.randint(0, 30))] + touching[:rng.randint(0, 6)])
        b = index([box() for _ in range(rng.randint(0, 30))] + touching[rng.randint(0, 6):])
        for x, y in ((a, b), (b, a), (a, a)):
            assert x.pairs(y) == _query_pairs(x, y)
    # the float ties and near misses of the exact-overlap items
    small, big = (index(items) for items in _overlap_items())
    for x, y in ((small, small), (big, big), (small, big), (big, small)):
        assert x.pairs(y) == _query_pairs(x, y)
    assert big.pairs(big) != [(i, i) for i in range(len(big.arr))]
    t = index(touching)
    assert t.pairs(index([])) == [] and index([]).pairs(t) == []
    own = t.pairs(t)
    assert (0, 1) in own and (0, 2) in own and (0, 3) not in own


def test_shadows_apart_on_a_vertical_wall():
    # the wall's shadow is the segment (0, 0) - (10, 10): only its own line
    # separates it from `below`, whose edges all leave the wall on the
    # side of their third vertex
    wall = int_triangle((P(0, 0, 0), P(0, 0, 10), P(10, 10, 0)))
    below = int_triangle((P(6, 5, 3), P(-100, -200, 3), P(200, -100, 3)))
    across = int_triangle((P(6, 7, 3), P(-100, -200, 3), P(200, -100, 3)))
    assert shadows_apart(wall, below) and shadows_apart(below, wall)
    assert not shadows_apart(wall, across) and not shadows_apart(across, wall)
    # a shadow touching the other one at a point is not apart
    corner = int_triangle((P(10, 10, 5), P(20, 10, 5), P(20, 20, 5)))
    assert not shadows_apart(wall, corner)


def test_shadows_apart_drops_most_empty_surface_pairs():
    # the reject is sound on real candidates and does most of the work:
    # on clasp_family(2) it drops over nine in ten of the empty box pairs
    # of every surface pair
    e = build_embedding(clasp_family(2))
    for a, b in ((1, 2), (1, 3), (2, 3)):
        Fa, Fb = e.surfaces[a], e.surfaces[b]
        empty = dropped = 0
        for i, j in Fa.index.pairs(Fb.index):
            apart = shadows_apart(Fa.lifted[i], Fb.lifted[j])
            r = triangle_triangle(Fa.lifted[i], Fb.lifted[j], Fa.planes[i], Fb.planes[j])
            if r[0] != "empty":
                assert not apart, (a, b, i, j)
                continue
            empty += 1
            dropped += apart
        assert dropped >= 0.9 * empty, (a, b, dropped, empty)


def test_meets_matches_query_scan():
    # every ordered pair of two surfaces of one input: the contacts the
    # sweep yields are those of the per-row query scan
    found = 0
    for name, e in _surface_cases():
        for a, F in e.surfaces.items():
            for b, Fb in e.surfaces.items():
                if b != a:
                    want = ref_meets(F, Fb)
                    assert list(sweep_meets(F, Fb)) == want, (name, a, b)
                    found += len(want)
    assert found > 0
    # a surface given as the other one is compared in every ordered pair,
    # each triangle with itself and within one cup too
    t1 = (P(0, 0, 0), P(4, 0, 0), P(0, 4, 0))
    t2 = (P(1, 1, -1), P(1, 1, 1), P(2, -3, 0))
    s = PLSurface([t1, t2], cups=_cups(2))
    assert [(i, j) for i, j, _ in sweep_meets(s, s)] == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert list(sweep_meets(s, s)) == ref_meets(s, s)


@lru_cache(maxsize=None)
def _surface_cases():
    """(name, embedding) of every fixture, clasp_family(1..4), the seeded
    closures and the banded closures, each built once for this module."""
    diagrams = (
        [(name, load_fixture(name)) for name in fixture_names()]
        + [("clasp_family(%d)" % k, clasp_family(k)) for k in (1, 2, 3, 4)]
        + seeded_closures() + banded_closures()
    )
    return [(name, build_embedding(d)) for name, d in diagrams]


def test_surface_triangles_have_nonzero_normals():
    # the precondition of triangle_triangle holds on every surface built;
    # for the disks it holds because an ear is clipped only when orient2 of
    # its corners is the polygon's nonzero orientation
    for name, e in _surface_cases():
        for k, F in e.surfaces.items():
            assert all(n != (0, 0, 0) for n, _ in F.planes), (name, k)


def test_plane_cuts_match_edge_hit_kernel_on_surface_pairs():
    # every pair that passes the box and the shadow filters, within one
    # surface (as check_embedded sees them) and across two surfaces in both
    # orders, gives the edge-hit kernel's result from the stored planes;
    # segments of non-parallel planes run along n1 x n2
    kinds = Counter()
    for name, e in _surface_cases():
        for a, b in combinations_with_replacement(sorted(e.surfaces), 2):
            Fa, Fb = e.surfaces[a], e.surfaces[b]
            for i, j in Fa.index.pairs(Fb.index):
                if a == b and j <= i:
                    continue
                sides = [(Fa, i, Fb, j)] + ([(Fb, j, Fa, i)] if a != b else [])
                for F, s, G, t in sides:
                    t1, t2 = F.lifted[s], G.lifted[t]
                    if shadows_apart(t1, t2):
                        continue
                    got = triangle_triangle(t1, t2, F.planes[s], G.planes[t])
                    assert got == edge_hit_triangle_triangle(t1, t2), (name, a, b, i, j)
                    axis = v_cross(F.planes[s][0], G.planes[t][0])
                    if got[0] == "segment" and axis != (0, 0, 0):
                        p, q = got[1]
                        assert v_dot(axis, v_sub(q, p)) > 0, (name, a, b, i, j)
                    kinds[got[0], a == b] += 1
    assert {k for k, _ in kinds} == {"empty", "point", "segment"}, kinds
    assert all(kinds[k, False] for k in ("empty", "point", "segment")), kinds


def _ref_locate(curve, p):
    """The linear scan PLCurve.locate filters by segment boxes."""
    for i, (a, b) in enumerate(curve.segments()):
        t = _seg_point_param(a, b, p)
        if t is not None and t < 1:
            return Q(i) + t
    if not curve.closed and p == curve.vertices[-1]:
        return Q(len(curve.vertices) - 1)
    return None


def _locate_queries(rng, curve):
    """Points on eight seeded segments, on their extensions and just off
    the curve."""
    out = []
    segs = curve.segments()
    for a, b in rng.sample(segs, min(8, len(segs))):
        t = Q(rng.randint(0, 40), rng.randint(1, 40))
        p = v_add(a, v_scale(v_sub(b, a), t % 1))
        ahead = v_scale(v_sub(b, a), t + Q(1, 89))
        out += [p, v_sub(a, ahead), v_add(b, ahead),
                v_add(p, (Q(0), Q(0), Q(1, rng.randint(2, 1000))))]
    return out


def test_locate_matches_linear_scan():
    rng = random.Random("locate")
    diagrams = ([load_fixture(name) for name in fixture_names()]
                + [clasp_family(k) for k in (1, 2, 3)])
    found = set()
    for d in diagrams:
        e = build_embedding(d)
        ends = [p for a, b in permutations(sorted(e.curves), 2)
                for c in trace.embedded_intersection(e, a, b) if c.kind == "arc"
                for p in (c.points[0], c.points[-1])]
        for c in e.curves.values():
            vs = c.vertices
            m = len(vs) // 2 + 2
            half = PLCurve(vs[:m], closed=False)
            # every vertex and arc end on the closed curve; on the open
            # half its last vertex and the vertex after it
            for curve, more in ((c, vs + ends), (half, vs[m - 1:m + 1])):
                for p in _locate_queries(rng, curve) + more:
                    want = _ref_locate(curve, p)
                    assert curve.locate(p) == want, p
                    found.add(want is None)
    assert found == {True, False}


def test_linking_number_reads_a_projection():
    # a square in the plane z = 0 and a square through it: linked once,
    # the sign flips with either orientation; a copy shifted off the first
    # square does not link it.  The through-square has vertical sides,
    # which the straight-down projection squashes to points, so a tilted
    # direction is read
    flat = PLCurve([P(0, 0, 0), P(4, 0, 0), P(4, 4, 0), P(0, 4, 0)])
    ring = PLCurve([P(1, 3, -1), P(1, 3, 1), P(5, 3, 1), P(5, 3, -1)])
    away = PLCurve([P(9, 2, -1), P(9, 2, 1), P(13, 2, 1), P(13, 2, -1)])
    lk = linking_number(flat, ring)
    assert lk in (1, -1)
    assert linking_number(ring, flat) == lk
    assert linking_number(flat.reversed(), ring) == -lk
    assert linking_number(flat, ring.reversed()) == -lk
    assert linking_number(flat, away) == 0
    # the sign agrees with the pierce count of the ring through the
    # square's disk
    disk = PLSurface([(P(0, 0, 0), P(4, 0, 0), P(4, 4, 0)), (P(0, 0, 0), P(4, 4, 0), P(0, 4, 0))])
    assert curve_surface_count(ring, disk) == lk
    # curves that meet have no linking number in any direction
    touching = PLCurve([P(4, 2, 0), P(4, 2, 1), P(7, 2, 1), P(7, 2, -1)])
    with pytest.raises(NotGeneric, match="no generic projection"):
        linking_number(flat, touching)


def test_boundary_curves_of_disk():
    (loop,) = _disk().boundary_curves()
    assert loop.closed and len(loop) == 4


def _path(*xy):
    return [P(x, y, Q(1, 3)) for x, y in xy]


def _directed(points, closed):
    return list(zip(points, points[1:] + points[:1] if closed else points[1:]))


def test_stitch_is_independent_of_segment_order():
    chains = [_path((5, 0), (1, 1), (Q(1, 2), 7)), _path((-2, 3), (4, 4))]
    loops = [_path((9, 9), (3, 8), (8, 2)), _path((0, 0), (-1, 4), (-3, -1), (2, -2))]
    segments = [s for c in chains for s in _directed(c, False)]
    segments += [s for c in loops for s in _directed(c, True)]
    # chains by first point; each loop starts at its least point, and the
    # loops come in the order of those points
    want = (
        [chains[1], chains[0]],
        [loops[1][2:] + loops[1][:2], loops[0][1:] + loops[0][:1]],
    )
    rng = random.Random(7)
    for _ in range(20):
        rng.shuffle(segments)
        assert stitch(segments) == want


@pytest.mark.parametrize("extra", [
    _path((1, 1), (2, 5)),   # a second segment leaving (1, 1)
    _path((2, 5), (3, 0)),   # a second segment entering (3, 0)
], ids=["two_leave", "two_enter"])
def test_stitch_rejects_branching(extra):
    segments = _directed(_path((0, 0), (1, 1), (3, 0)), False) + [tuple(extra)]
    for order in (segments, segments[::-1]):
        with pytest.raises(NotGeneric, match="branch"):
            stitch(order)


# -- integer kernel against the rational reference ----------------------------
#
# The reference below is the direct rational kernel the integer one
# replaced, kept verbatim in substance: every predicate and constructed
# point in Fraction arithmetic.  The integer kernel must return the same
# result kind and the same exact points, in the same order.


def _ref_sign(x):
    return (x > 0) - (x < 0)


def _ref_normal(tri):
    a, b, c = tri
    return v_cross(v_sub(b, a), v_sub(c, a))


def _ref_dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _ref_lerp(a, b, t):
    return tuple(x + (y - x) * t for x, y in zip(a, b))


def _ref_drop_axis(n):
    ax, best = 0, abs(n[0])
    for i in (1, 2):
        if abs(n[i]) > best:
            ax, best = i, abs(n[i])
    return ax


def _ref_proj(p, ax):
    return tuple(p[i] for i in range(3) if i != ax)


def _ref_orient2(a, b, c):
    return _ref_sign((b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0]))


def _ref_point_in_triangle(tri, p):
    a, b, c = tri
    n = _ref_normal(tri)
    ss = (
        _ref_sign(_ref_dot(n, v_cross(v_sub(b, a), v_sub(p, a)))),
        _ref_sign(_ref_dot(n, v_cross(v_sub(c, b), v_sub(p, b)))),
        _ref_sign(_ref_dot(n, v_cross(v_sub(a, c), v_sub(p, c)))),
    )
    if any(s < 0 for s in ss):
        return "outside"
    return ("interior", "edge", "vertex", "vertex")[ss.count(0)]


def _ref_segment_triangle(seg, tri):
    p0, p1 = seg
    n = _ref_normal(tri)
    d0 = _ref_dot(n, v_sub(p0, tri[0]))
    d1 = _ref_dot(n, v_sub(p1, tri[0]))
    s0, s1 = _ref_sign(d0), _ref_sign(d1)
    if s0 == 0 and s1 == 0:
        return _ref_coplanar_segment_triangle(seg, tri, n)
    if s0 == s1:
        return ("empty",)
    for p, s in ((p0, s0), (p1, s1)):
        if s == 0:
            if _ref_point_in_triangle(tri, p) == "outside":
                return ("empty",)
            return ("point", p)
    x = _ref_lerp(p0, p1, Fraction(d0) / (d0 - d1))
    if _ref_point_in_triangle(tri, x) == "outside":
        return ("empty",)
    return ("point", x)


def _ref_coplanar_segment_triangle(seg, tri, n):
    ax = _ref_drop_axis(n)
    a2, b2 = _ref_proj(seg[0], ax), _ref_proj(seg[1], ax)
    t2 = [_ref_proj(v, ax) for v in tri]
    if _ref_orient2(*t2) < 0:
        t2.reverse()
    lo, hi = Fraction(0), Fraction(1)
    d = (b2[0] - a2[0], b2[1] - a2[1])
    for i in range(3):
        e0, e1 = t2[i], t2[(i + 1) % 3]
        nx, ny = e0[1] - e1[1], e1[0] - e0[0]
        num = nx * (a2[0] - e0[0]) + ny * (a2[1] - e0[1])
        den = nx * d[0] + ny * d[1]
        if den == 0:
            if num < 0:
                return ("empty",)
            continue
        t = Fraction(-num) / den
        if den > 0:
            lo = max(lo, t)
        else:
            hi = min(hi, t)
        if lo > hi:
            return ("empty",)
    if lo == hi:
        return ("point", _ref_lerp(seg[0], seg[1], lo))
    return ("segment", (_ref_lerp(seg[0], seg[1], lo), _ref_lerp(seg[0], seg[1], hi)))


def _ref_triangle_triangle(t1, t2):
    n1, n2 = _ref_normal(t1), _ref_normal(t2)
    d2 = [_ref_sign(_ref_dot(n1, v_sub(v, t1[0]))) for v in t2]
    if all(s > 0 for s in d2) or all(s < 0 for s in d2):
        return ("empty",)
    d1 = [_ref_sign(_ref_dot(n2, v_sub(v, t2[0]))) for v in t1]
    if all(s > 0 for s in d1) or all(s < 0 for s in d1):
        return ("empty",)
    if all(s == 0 for s in d2):
        return _ref_coplanar_triangle_triangle(t1, t2, n1)
    pts = []
    for i in range(3):
        for ta, tb in ((t1, t2), (t2, t1)):
            r = _ref_segment_triangle((ta[i], ta[(i + 1) % 3]), tb)
            if r[0] == "point":
                pts.append(r[1])
            elif r[0] == "segment":
                pts.extend(r[1])
    if not pts:
        return ("empty",)
    axis = v_cross(n1, n2)
    if axis == (0, 0, 0):
        axis = v_sub(pts[-1], pts[0])
        if axis == (0, 0, 0):
            return ("point", pts[0])
    keyed = sorted((_ref_dot(axis, p), p) for p in pts)
    lo, hi = keyed[0], keyed[-1]
    if lo[1] == hi[1]:
        return ("point", lo[1])
    return ("segment", (lo[1], hi[1]))


def _ref_coplanar_triangle_triangle(t1, t2, n):
    ax = _ref_drop_axis(n)
    p1 = [_ref_proj(v, ax) for v in t1]
    p2 = [_ref_proj(v, ax) for v in t2]
    if _ref_orient2(*p2) < 0:
        p2 = list(reversed(p2))
    poly = p1 if _ref_orient2(*p1) > 0 else list(reversed(p1))
    for i in range(3):
        e0, e1 = p2[i], p2[(i + 1) % 3]
        out = []
        m = len(poly)
        for j in range(m):
            cur, nxt = poly[j], poly[(j + 1) % m]
            sc = _ref_orient2(e0, e1, cur)
            sn = _ref_orient2(e0, e1, nxt)
            if sc >= 0:
                out.append(cur)
            if sc * sn < 0:
                nx, ny = e1[1] - e0[1], e0[0] - e1[0]
                num = nx * (cur[0] - e0[0]) + ny * (cur[1] - e0[1])
                den = nx * (nxt[0] - cur[0]) + ny * (nxt[1] - cur[1])
                t = Fraction(-num) / den
                out.append((cur[0] + t * (nxt[0] - cur[0]), cur[1] + t * (nxt[1] - cur[1])))
        poly = out
        if not poly:
            return ("empty",)
    uniq = []
    for p in poly:
        if p not in uniq:
            uniq.append(p)

    def unproject(p2d):
        keep = [i for i in range(3) if i != ax]
        rhs = _ref_dot(n, t1[0]) - n[keep[0]] * p2d[0] - n[keep[1]] * p2d[1]
        out = [Fraction(0)] * 3
        out[keep[0]], out[keep[1]], out[ax] = p2d[0], p2d[1], Fraction(rhs) / n[ax]
        return tuple(out)

    lifted = [unproject(p) for p in uniq]
    if len(uniq) == 1:
        return ("point", lifted[0])
    if len(uniq) == 2:
        return ("segment", (lifted[0], lifted[1]))
    if all(_ref_orient2(uniq[0], uniq[i], uniq[i + 1]) == 0 for i in range(1, len(uniq) - 1)):
        keyed = sorted(uniq)
        return ("segment", (unproject(keyed[0]), unproject(keyed[-1])))
    return ("polygon", lifted)


_DENOMS = (1, 2, 3, 4, 7, 12, 2 ** 20, 3 ** 13, 2 ** 38 + 5)


def _rq(rng, span=6):
    d = rng.choice(_DENOMS)
    return Fraction(rng.randint(-span * d, span * d), d)


def _rp(rng):
    return (_rq(rng), _rq(rng), _rq(rng))


def _on(rng, a, b):
    """A rational point of the closed segment ab, ends included."""
    t = rng.choice((Fraction(0), Fraction(1), Fraction(rng.randint(1, 6), 7)))
    return _ref_lerp(a, b, t)


def _in_plane(rng, tri):
    """A rational point of tri's plane, inside or outside tri."""
    a, b, c = tri
    u, v = _rq(rng, 2), _rq(rng, 2)
    return tuple(x + u * (y - x) + v * (z - x) for x, y, z in zip(a, b, c))


def _nondegenerate(tri):
    return _ref_normal(tri) != (0, 0, 0)


def _pair(rng, kind):
    t1 = (_rp(rng), _rp(rng), _rp(rng))
    a, b, c = t1
    if kind == "random":
        t2 = (_rp(rng), _rp(rng), _rp(rng))
    elif kind == "shared_vertex":
        t2 = (a, _rp(rng), _rp(rng))
    elif kind == "shared_edge":
        far = _in_plane(rng, t1) if rng.random() < 0.5 else _rp(rng)
        t2 = (b, a, far)
    elif kind == "coplanar":
        t2 = (_in_plane(rng, t1), _in_plane(rng, t1), _in_plane(rng, t1))
    elif kind == "edge_touch":
        t2 = (_on(rng, a, b), _rp(rng), _rp(rng))
    elif kind == "vertical":
        # a wall: two vertices over one xy point, so the shadow is a segment
        p = _on(rng, a, b) if rng.random() < 0.5 else _rp(rng)
        t2 = (p, (p[0], p[1], _rq(rng)), _rp(rng))
    else:  # parallel planes: a translate of an in-plane triangle
        off = _rp(rng) if rng.random() < 0.7 else (0, 0, 0)
        t2 = tuple(v_add(_in_plane(rng, t1), off) for _ in range(3))
    if rng.random() < 0.5:
        t1, t2 = t2, t1
    return t1, t2


_KINDS = ["random", "shared_vertex", "shared_edge", "coplanar", "edge_touch",
          "parallel", "vertical"]


@pytest.mark.parametrize("kind", _KINDS)
def test_triangle_triangle_matches_rational_reference(kind):
    rng = random.Random("tri-tri-" + kind)
    kinds = set()
    checked = 0
    while checked < 300:
        t1, t2 = _pair(rng, kind)
        if not (_nondegenerate(t1) and _nondegenerate(t2)):
            continue
        want = _ref_triangle_triangle(t1, t2)
        assert rational_triangle_triangle(t1, t2) == want, (t1, t2)
        assert edge_hit_triangle_triangle(t1, t2) == want, (t1, t2)
        kinds.add(want[0])
        checked += 1
    assert len(kinds) >= 2, kinds


def test_triangle_triangle_segments_run_along_the_normal_cross_product():
    # the orientation contract that surface_intersection reads: every
    # segment of two triangles whose planes are not parallel runs along
    # n1 x n2, whichever triangle comes first
    rng = random.Random("tri-tri-orientation")
    segments = dict.fromkeys(_KINDS, 0)
    for kind in _KINDS:
        for _ in range(300):
            t1, t2 = _pair(rng, kind)
            if not (_nondegenerate(t1) and _nondegenerate(t2)):
                continue
            axis = v_cross(_ref_normal(t1), _ref_normal(t2))
            for axis, (u, v) in ((axis, (t1, t2)), (v_scale(axis, -1), (t2, t1))):
                r = rational_triangle_triangle(u, v)
                if r[0] != "segment" or axis == (0, 0, 0):
                    continue
                lo, hi = r[1]
                assert v_dot(axis, v_sub(hi, lo)) > 0, (kind, u, v)
                segments[kind] += 1
    assert all(segments[k] > 0 for k in _KINDS if k not in ("coplanar", "parallel")), segments


def test_shadows_apart_never_drops_a_meeting_pair():
    rng = random.Random("shadows")
    rejected = dict.fromkeys(_KINDS, 0)
    for kind in _KINDS:
        for _ in range(300):
            t1, t2 = _pair(rng, kind)
            if not (_nondegenerate(t1) and _nondegenerate(t2)):
                continue
            if shadows_apart(int_triangle(t1), int_triangle(t2)):
                assert _ref_triangle_triangle(t1, t2) == ("empty",), (kind, t1, t2)
                rejected[kind] += 1
    # a shared vertex is a common shadow point, so only some kinds can part
    assert rejected["shared_vertex"] == rejected["shared_edge"] == 0
    assert all(rejected[k] > 0 for k in ("random", "parallel", "vertical")), rejected


def test_segment_triangle_matches_rational_reference():
    rng = random.Random("seg-tri")
    kinds = set()
    for _ in range(600):
        tri = (_rp(rng), _rp(rng), _rp(rng))
        if not _nondegenerate(tri):
            continue
        a, b, c = tri
        style = rng.randrange(4)
        if style == 0:
            seg = (_rp(rng), _rp(rng))
        elif style == 1:
            seg = (_in_plane(rng, tri), _in_plane(rng, tri))
        elif style == 2:
            seg = (_on(rng, a, b), _rp(rng))
        else:
            seg = (_in_plane(rng, tri), _rp(rng))
        if seg[0] == seg[1]:
            continue
        want = _ref_segment_triangle(seg, tri)
        assert segment_triangle(seg, tri) == want, (seg, tri)
        p = seg[0] if style in (1, 3) else _in_plane(rng, tri)
        assert point_in_triangle(tri, p) == _ref_point_in_triangle(tri, p)
        kinds.add(want[0])
    assert kinds == {"empty", "point", "segment"}


def test_integer_forms_reproduce_rational_vertices():
    rng = random.Random("lift")
    tris = [(_rp(rng), _rp(rng), _rp(rng)) for _ in range(200)]
    surf = PLSurface(tris)
    for tri, form in zip(surf.triangles, surf.lifted):
        D, verts, rational = form
        assert rational == tri
        assert D == math.lcm(*(c.denominator for v in tri for c in v))
        assert all(isinstance(x, int) for v in verts for x in v)
        assert tuple(tuple(Fraction(x, D) for x in v) for v in verts) == tri
        assert form == int_triangle(tri)
