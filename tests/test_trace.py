import dataclasses
import random
from bisect import bisect_right
from collections import Counter
from functools import lru_cache
from itertools import permutations

import pytest

from masseylink import trace
from masseylink.embed import build_embedding
from masseylink.errors import NonzeroLinking, NotGeneric, StuckTrace
from masseylink.fixtures import braid_closure, clasp_family, fixture_names, load_fixture
from masseylink.massey import massey3
from masseylink.plgeom import PLCurve, PLSurface, v_sub, v_cross, v_dot
from masseylink.rational import Q, sign
from masseylink.trace import (
    BoundaryPiece,
    DerivedBoundary,
    _check_closed,
    embedded_intersection,
    pierce_points,
    reversed_intersection,
    surface_intersection,
    trace_derived_boundary,
)
from plref import qpoint as P, seeded_closures


def trace_pair(K_a, K_b, F_a, F_b, pair=(0, 0)):
    """Derived boundary of the ordered pair on explicit curves and
    surfaces, with no embedding and no cache."""
    return trace._trace(K_a, K_b, trace._balanced_pierces(K_a, F_b, pair), pair,
                        trace.surface_intersection(F_a, F_b))


# -- surface_intersection on hand geometry ------------------------------------


def _square(center, du, dv):
    a = tuple(c - u - v for c, u, v in zip(center, du, dv))
    b = tuple(c + u - v for c, u, v in zip(center, du, dv))
    c_ = tuple(c + u + v for c, u, v in zip(center, du, dv))
    d = tuple(c - u + v for c, u, v in zip(center, du, dv))
    return PLSurface([(a, b, c_), (a, c_, d)])


def test_disjoint_disks_intersect_empty():
    s1 = _square(P(0, 0, 0), (1, 0, 0), (0, 1, 0))
    s2 = _square(P(9, 9, 9), (1, 0, 0), (0, 1, 0))
    assert surface_intersection(s1, s2) == []


def test_two_squares_crossing_in_an_x():
    s1 = _square(P(0, 0, 0), (1, 0, 0), (0, 0, 1))  # xz-plane
    s2 = _square(P(0, 0, 0), (0, 1, 0), (0, 0, 1))  # yz-plane
    curves = surface_intersection(s1, s2)
    assert len(curves) == 1
    (c,) = curves
    assert c.kind == "arc"
    assert {c.points[0], c.points[-1]} == {P(0, 0, -1), P(0, 0, 1)}
    # orientation: tangent t satisfies det(n1, n2, t) > 0
    n1 = v_cross(v_sub(s1.triangles[0][1], s1.triangles[0][0]),
                 v_sub(s1.triangles[0][2], s1.triangles[0][0]))
    n2 = v_cross(v_sub(s2.triangles[0][1], s2.triangles[0][0]),
                 v_sub(s2.triangles[0][2], s2.triangles[0][0]))
    t = v_sub(c.points[-1], c.points[0])
    assert sign(v_dot(v_cross(n1, n2), t)) == 1


def test_pair_order_reversal_negates_arcs():
    s1 = _square(P(0, 0, 0), (1, 0, 0), (0, 0, 1))
    s2 = _square(P(0, 0, 0), (0, 1, 0), (0, 0, 1))
    (c12,) = surface_intersection(s1, s2)
    (c21,) = surface_intersection(s2, s1)
    assert c12.points == tuple(reversed(c21.points))


_FLOOR = (P(-5, -5, 0), P(5, -5, 0), P(0, 5, 0))
# coplanar with the floor, outside it, touching its edge y = -5 along
# x in [-1, 1]; wound either way
_TOUCH = (P(1, -5, 0), P(-1, -5, 0), P(0, -7, 0))
# two triangles folded along x in [-1, 1] on the floor, both above it: the
# fold is their one contact with the floor and each witness orients it
# the other way
_TENT = [(P(-1, 0, 0), P(1, 0, 0), P(0, -1, 1)), (P(1, 0, 0), P(-1, 0, 0), P(0, 1, 1))]


@pytest.mark.parametrize("touch", [_TOUCH, _TOUCH[::-1],
                                   (P(-5, -5, 0), P(5, -5, 0), P(0, -7, 0))])
def test_coplanar_edge_contact_is_tangential(touch):
    floor, edge = PLSurface([_FLOOR]), PLSurface([touch])
    for F_a, F_b in ((floor, edge), (edge, floor)):
        with pytest.raises(NotGeneric, match="tangential surface contact"):
            surface_intersection(F_a, F_b)


def test_folded_contact_is_inconsistently_oriented():
    floor, tent = PLSurface([_FLOOR]), PLSurface(_TENT)
    for F_a, F_b in ((floor, tent), (tent, floor)):
        with pytest.raises(NotGeneric, match="inconsistent orientation along intersection"):
            surface_intersection(F_a, F_b)
    # each refusal is raised at its segment, in the order the witnesses
    # were found
    with pytest.raises(NotGeneric, match="inconsistent orientation"):
        surface_intersection(PLSurface(_TENT + [_TOUCH]), floor)
    with pytest.raises(NotGeneric, match="tangential surface contact"):
        surface_intersection(PLSurface([_TOUCH] + _TENT), floor)


# -- a synthetic two-disk configuration traced by hand -------------------------
#
# d2: a large horizontal square disk with boundary K_2; K_1 a rectangle
# loop diving through d2 twice; F_1 the rectangle's disk.  The
# intersection is one arc between the two pierce points, so the derived
# boundary is a single loop alternating along-K_1 and interior pieces.


def _figure_two_geometry():
    K2 = PLCurve(
        [P(-8, -8, 0), P(8, -8, 0), P(8, 8, 0), P(-8, 8, 0)], closed=True
    )
    a, b, c, d = K2.vertices
    F2 = PLSurface([(a, b, c), (a, c, d)])
    K1 = PLCurve(
        [P(-2, -1, -3), P(-2, -1, 3), P(2, -1, 3), P(2, -1, -3)], closed=True
    )
    q, r, s, t = K1.vertices
    F1 = PLSurface([(q, r, s), (q, s, t)])
    return K1, K2, F1, F2


def test_figure_two_pierce_labels():
    K1, K2, F1, F2 = _figure_two_geometry()
    ps = pierce_points(K1, F2)
    assert [p.label for p in ps] == [1, -1]
    assert sum(p.label for p in ps) == 0


def test_figure_two_trace_single_alternating_loop():
    K1, K2, F1, F2 = _figure_two_geometry()
    db = trace_pair(K1, K2, F1, F2, pair=(1, 2))
    assert len(db.loops) == 1
    kinds = [piece.kind for piece in db.loops[0]]
    assert kinds == ["along", "interior"]
    assert db.loops[0][0].component == 1
    # closed loop through both pierce points
    lc = db.loop_curves()[0]
    locs = {p.location for p in db.pierce_points}
    assert locs <= set(lc.vertices)


def test_figure_two_orientation_convention():
    # arcs leave the +1 pierce and enter the -1 pierce
    K1, K2, F1, F2 = _figure_two_geometry()
    ps = pierce_points(K1, F2)
    (arc,) = surface_intersection(F1, F2)
    by_label = {p.label: p.location for p in ps}
    assert arc.points[0] == by_label[1]
    assert arc.points[-1] == by_label[-1]


# -- traced boundaries on real embeddings --------------------------------------


def test_borromean_pairs_trace_totally(e_borromean):
    for (a, b) in ((1, 2), (2, 3), (1, 3), (2, 1), (3, 2), (3, 1)):
        db = trace_derived_boundary(e_borromean, a, b)
        labels = [p.label for p in db.pierce_points]
        assert len(labels) % 2 == 0
        assert sum(labels) == 0
        for loop in db.loops:
            for k, piece in enumerate(loop):
                nxt = loop[(k + 1) % len(loop)]
                assert piece.points[-1] == nxt.points[0]


def test_borromean_interior_arcs_match_surface_intersection(e_borromean):
    db = trace_derived_boundary(e_borromean, 2, 3)
    curves = surface_intersection(
        e_borromean.surfaces[2], e_borromean.surfaces[3]
    )
    arcs = {c.points for c in curves if c.kind == "arc"}
    traced = {
        piece.points
        for loop in db.loops
        for piece in loop
        if piece.kind == "interior"
    }
    assert traced == arcs


def _zero_linking_closures(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 12)))
        d = braid_closure(word, 3)
        if d.n_components == 3 and not any(
                d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3))):
            out.append(("closure%s" % (word,), d))
    return out


@lru_cache(maxsize=None)
def _cases():
    """(name, embedding): every fixture, clasp_family(1), (2) and seeded
    zero-linking closures, each built once for this module."""
    diagrams = (
        [(name, load_fixture(name)) for name in fixture_names()]
        + [("clasp_family(%d)" % k, clasp_family(k)) for k in (1, 2)]
        + _zero_linking_closures(4, seed=9151)
    )
    return [(name, build_embedding(d)) for name, d in diagrams]


def _ordered_pairs(e):
    return list(permutations(sorted(e.curves), 2))


def test_pair_reversal_negates_arcs_on_embedding():
    # the curves of (b, a) are exactly those of (a, b) reversed, list for
    # list, and the embedding serves both from one intersection
    checked = 0
    for name, e in _cases():
        pairs = [(a, b) for a, b in _ordered_pairs(e) if a < b]
        for a, b in pairs:
            ab = surface_intersection(e.surfaces[a], e.surfaces[b])
            ba = surface_intersection(e.surfaces[b], e.surfaces[a])
            assert reversed_intersection(ab) == ba, (name, a, b)
            assert reversed_intersection(ba) == ab, (name, a, b)
            assert embedded_intersection(e, b, a) == ba, (name, a, b)
            assert embedded_intersection(e, a, b) == ab, (name, a, b)
            checked += len(ab)
        assert sorted(e.intersections) == pairs, name
    assert checked > 0


def test_cached_trace_equals_uncached_trace():
    # the first trace of a pair fills both caches, the second reads them
    traced = 0
    for name, e in _cases():
        for a, b in _ordered_pairs(e):
            if e.diagram.linking_number(a, b):
                continue
            uncached = trace_pair(e.curves[a], e.curves[b], e.surfaces[a],
                                  e.surfaces[b], pair=(a, b))
            assert trace_derived_boundary(e, a, b) == uncached, (name, a, b)
            assert e.pierces[(a, b)] == uncached.pierce_points, (name, a, b)
            assert trace_derived_boundary(e, a, b) == uncached, (name, a, b)
            traced += bool(uncached.loops)
    assert traced > 0


def _pairs_of(calls, e):
    """Calls recorded as (id, id) of curves or surfaces, as index pairs."""
    ids = {id(x): k for k, x in list(e.curves.items()) + list(e.surfaces.items())}
    return [(ids[x], ids[y]) for x, y in calls]


def _count_intersections(monkeypatch, fail_first=False):
    """Record (id of F_a, id of F_b) per surface_intersection call."""
    calls = []
    orig = trace.surface_intersection

    def counting(F_a, F_b):
        calls.append((id(F_a), id(F_b)))
        if fail_first and len(calls) == 1:
            raise NotGeneric("forced degeneracy")
        return orig(F_a, F_b)

    monkeypatch.setattr(trace, "surface_intersection", counting)
    return calls


def test_six_orderings_intersect_each_pair_once(borromean, monkeypatch):
    e = build_embedding(borromean)
    calls = _count_intersections(monkeypatch)
    values = {o: massey3(e, o).value for o in permutations((1, 2, 3))}
    assert sorted(_pairs_of(calls, e)) == [(1, 2), (1, 3), (2, 3)]
    assert set(values.values()) == {1, -1}


def test_not_generic_intersection_is_not_cached(borromean, monkeypatch):
    e = build_embedding(borromean)
    calls = _count_intersections(monkeypatch, fail_first=True)
    with pytest.raises(NotGeneric, match="forced"):
        trace_derived_boundary(e, 2, 1)
    assert e.intersections == {}
    db = trace_derived_boundary(e, 2, 1)
    assert _pairs_of(calls, e) == [(1, 2), (1, 2)]
    assert list(e.intersections) == [(1, 2)]
    assert db == trace_pair(e.curves[2], e.curves[1], e.surfaces[2],
                            e.surfaces[1], pair=(2, 1))


def test_retry_after_not_generic_rebuilds_with_empty_cache(borromean, monkeypatch):
    e = build_embedding(borromean)
    calls = _count_intersections(monkeypatch, fail_first=True)
    r = massey3(e, (1, 2, 3))
    assert e.intersections == {}
    assert r.embedding is not e and r.embedding.perturb_index == 1
    assert sorted(r.embedding.intersections) == [(1, 2), (2, 3)]
    assert len(calls) == 3
    assert (r.term_first, r.term_second) == (1, 0)


def test_replaced_embedding_starts_with_empty_cache(borromean):
    e = build_embedding(borromean)
    trace_derived_boundary(e, 1, 2)
    assert list(e.intersections) == [(1, 2)]
    assert dataclasses.replace(e).intersections == {}


def _count_pierces(monkeypatch, fail=None):
    """Record (id of K_a, id of F_b) per pierce_points call; `fail` makes the first
    call raise NotGeneric ("raise") or drop all pierces but one
    ("unbalanced")."""
    calls = []
    orig = trace.pierce_points

    def counting(K_a, F_b):
        calls.append((id(K_a), id(F_b)))
        if fail == "raise" and len(calls) == 1:
            raise NotGeneric("forced degeneracy")
        found = orig(K_a, F_b)
        return found[:1] if fail == "unbalanced" and len(calls) == 1 else found

    monkeypatch.setattr(trace, "pierce_points", counting)
    return calls


def test_six_orderings_pierce_each_ordered_pair_once(borromean, monkeypatch):
    e = build_embedding(borromean)
    calls = _count_pierces(monkeypatch)
    values = {o: massey3(e, o).value for o in permutations((1, 2, 3))}
    assert sorted(_pairs_of(calls, e)) == list(permutations((1, 2, 3), 2))
    assert sorted(e.pierces) == list(permutations((1, 2, 3), 2))
    assert set(values.values()) == {1, -1}


@pytest.mark.parametrize("fail, error", [("raise", NotGeneric),
                                         ("unbalanced", StuckTrace)])
def test_failed_pierces_are_not_cached(borromean, monkeypatch, fail, error):
    e = build_embedding(borromean)
    calls = _count_pierces(monkeypatch, fail)
    with pytest.raises(error):
        trace_derived_boundary(e, 1, 2)
    assert e.pierces == {}
    db = trace_derived_boundary(e, 1, 2)
    assert _pairs_of(calls, e) == [(1, 2), (1, 2)]
    assert list(e.pierces) == [(1, 2)]
    assert db == trace_pair(e.curves[1], e.curves[2], e.surfaces[1],
                            e.surfaces[2], pair=(1, 2))
    assert len(db.pierce_points) == 2


def test_retry_after_not_generic_pierce_rebuilds_with_empty_cache(borromean, monkeypatch):
    e = build_embedding(borromean)
    calls = _count_pierces(monkeypatch, "raise")
    r = massey3(e, (1, 2, 3))
    assert e.pierces == {}
    assert r.embedding is not e and r.embedding.perturb_index == 1
    assert sorted(r.embedding.pierces) == [(1, 2), (2, 3)]
    assert len(calls) == 3
    assert (r.term_first, r.term_second) == (1, 0)


def test_replaced_embedding_starts_with_empty_pierces(borromean):
    e = build_embedding(borromean)
    trace_derived_boundary(e, 1, 2)
    assert list(e.pierces) == [(1, 2)]
    assert dataclasses.replace(e).pierces == {}


def test_trace_pierces_are_consumed_once(e_borromean):
    db = trace_derived_boundary(e_borromean, 1, 2)
    ends = []
    for loop in db.loops:
        for k, piece in enumerate(loop):
            if piece.kind == "along" and piece.component == 1:
                ends.append(piece.points[0])
                ends.append(piece.points[-1])
    # every pierce appears exactly once as a start and once as an arc target
    locs = [p.location for p in db.pierce_points]
    for loc in locs:
        assert ends.count(loc) in (1, 2)


def test_nonzero_linking_rejected(e_hopf):
    with pytest.raises(NonzeroLinking):
        trace_derived_boundary(e_hopf, 1, 2)


def test_hopf_pierce_labels_sum_to_linking(e_hopf):
    ps = pierce_points(e_hopf.curves[1], e_hopf.surfaces[2])
    assert sum(p.label for p in ps) == e_hopf.diagram.linking_number(1, 2) == 1
    assert len(ps) == 1 and ps[0].label == 1


def test_pierce_labels_match_crossing_signs(e_borromean):
    d = e_borromean.diagram
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            if a == b:
                continue
            ps = pierce_points(e_borromean.curves[a], e_borromean.surfaces[b])
            signs = sorted(
                x.sign for x in d.crossings
                if x.under_component == a and x.over_component == b
            )
            assert sorted(p.label for p in ps) == signs


def _square_tube(cx, cy, h):
    """Walls of a vertical square tube over [cx-h, cx+h] x [cy-h, cy+h],
    from z = -1 to z = 1, and its top rim."""
    corners = [P(cx - h, cy - h, 0), P(cx + h, cy - h, 0),
               P(cx + h, cy + h, 0), P(cx - h, cy + h, 0)]
    lift = lambda p, z: (p[0], p[1], Q(z))
    walls = []
    for k in range(4):
        p, q = corners[k], corners[(k + 1) % 4]
        walls.append((lift(p, -1), lift(q, -1), lift(q, 1)))
        walls.append((lift(p, -1), lift(q, 1), lift(p, 1)))
    return walls, PLCurve([lift(p, 1) for p in corners], closed=True)


def test_circle_component_becomes_standalone_loop():
    # a square tube crossing a large horizontal disk: the intersection is
    # a closed circle, kept as its own loop of the derived boundary
    big = 8
    rim = PLCurve(
        [P(-big, -big, 0), P(big, -big, 0), P(big, big, 0), P(-big, big, 0)],
        closed=True,
    )
    a, b, c, d = rim.vertices
    disk = PLSurface([(a, b, c), (a, c, d)])
    walls, top_rim = _square_tube(0, 0, 2)
    tube = PLSurface(walls)
    db = trace_pair(rim, top_rim, disk, tube, pair=(1, 2))
    assert len(db.loops) == 1
    (loop,) = db.loops
    assert [piece.kind for piece in loop] == ["circle"]
    assert db.pierce_points == ()


def test_reversal_rule_on_arcs_and_circles():
    # two tubes and two upright squares through a horizontal disk meet it
    # in two circles and two arcs
    disk = _square(P(0, 0, 0), (8, 0, 0), (0, 8, 0))
    tris = _square_tube(-3, -3, 1)[0] + _square_tube(3, 2, 1)[0]
    tris += _square(P(0, 4, 0), (6, 1, 0), (0, 0, 1)).triangles
    tris += _square(P(4, -4, 0), (2, -1, 0), (0, 0, 1)).triangles
    other = PLSurface(tris)
    ab = surface_intersection(disk, other)
    ba = surface_intersection(other, disk)
    assert [c.kind for c in ab] == ["arc", "arc", "circle", "circle"]
    for c in ab + ba:
        if c.kind == "circle":
            assert c.points[0] == min(c.points)
    assert reversed_intersection(ab) == ba
    assert reversed_intersection(ba) == ab


def test_split_pair_traces_empty():
    e = build_embedding(load_fixture("unlink3"))
    db = trace_derived_boundary(e, 1, 2)
    assert db.loops == ()
    assert db.pierce_points == ()


# -- tracer refusals on hand-made pierces and arcs -----------------------------
#
# K_1 and K_2 are two unit-4 squares, one above the other.  Each case places
# pierces on K_1 and arcs between points of K_1, K_2 or neither, bypassing
# the geometry, so that the tracer's own input checks are what refuses.

_K1 = PLCurve([P(0, 0, 0), P(4, 0, 0), P(4, 4, 0), P(0, 4, 0)], closed=True)
_K2 = PLCurve([P(0, 0, 2), P(4, 0, 2), P(4, 4, 2), P(0, 4, 2)], closed=True)


def _end(spec):
    """("a", pos) / ("b", pos) -> the point at pos on K_1 / K_2; else spec."""
    side, pos = spec
    return {"a": _K1, "b": _K2}[side].point_at(pos) if side in "ab" else pos


def _refused(pierces, arcs):
    ps = tuple(trace.PiercePoint(location=_end(at), label=label, position=at[1])
               for at, label in pierces)
    curves = [trace.IntersectionCurve(points=(_end(s), _end(t)), kind="arc")
              for s, t in arcs]
    return lambda: trace._trace(_K1, _K2, ps, (1, 2), curves)


_A = ("a", Q(1, 2))
_B = ("a", Q(3, 2))
_C = ("a", Q(5, 2))
_X, _Y, _Z = (("b", Q(k, 2)) for k in (1, 3, 5))
_REFUSALS = {
    # an arc leaves a -1 pierce, or lands on a +1 one
    "leaves a -1 pierce": (StuckTrace, [(_A, 1), (_B, -1)], [(_B, _A)]),
    "lands on a +1 pierce": (StuckTrace, [(_A, 1), (_B, -1)], [(_X, _A)]),
    # two arcs leave one +1 pierce, or land on one -1 pierce
    "two arcs leave a +1 pierce": (StuckTrace, [(_A, 1), (_B, -1)],
                                   [(_A, _B), (_A, _X)]),
    "two arcs land on a -1 pierce": (StuckTrace, [(_A, 1), (_B, -1), (_C, 1)],
                                     [(_A, _B), (_C, _B)]),
    # a pierce that no arc meets
    "pierce/arc mismatch": (StuckTrace, [(_A, 1), (_B, -1)], []),
    # from the -1 pierce the next +1 arc lands on K_2, which has no departure
    "no departure on K_2": (StuckTrace, [(_A, -1), (_B, 1), (_C, 1)],
                            [(_B, _X), (_C, _A)]),
    # the second -1 pierce finds no +1 left on K_1
    "no departure on K_1": (StuckTrace, [(_A, -1), (_B, -1), (_C, 1)],
                            [(_C, _A), (_X, _B)]),
    # the -1 pierce's loop closes before the arc to K_2 is reached
    "arcs left untraced": (StuckTrace, [(_A, -1), (_B, 1), (_C, 1)],
                           [(_B, _A), (_C, _X)]),
    "two arcs depart one K_2 point": (NotGeneric, [], [(_X, _Y), (_X, _Z)]),
    "two arcs arrive at one K_2 point": (NotGeneric, [], [(_Y, _X), (_Z, _X)]),
    "arc end off both curves": (NotGeneric, [(_A, 1), (_B, -1)],
                                [(_A, ("-", P(2, 2, 1)))]),
}


@pytest.mark.parametrize("case", sorted(_REFUSALS))
def test_trace_refusals_keep_their_exception_class(case):
    error, pierces, arcs = _REFUSALS[case]
    with pytest.raises(error):
        _refused(pierces, arcs)()


# -- the one walk against the two-phase tracer it replaced ---------------------


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


def _two_phase_trace(K_a, K_b, pierces, pair, intersect):
    """The tracer this module's walk replaced, verbatim except that each
    arc's ends are kept in the local list `arc_ends`."""
    a_id, b_id = pair
    curves = intersect()

    pierce_at = {p.location: p for p in pierces}
    arcs = []
    arc_ends = []
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
        arcs.append(c)
        arc_ends.append(tuple(ends))

    # orientation convention: arcs leave +1 pierces and enter -1 pierces
    out_arc = {}
    in_arc = {}
    departs_b = {}
    arrives_b = {}
    for k, c in enumerate(arcs):
        side0, pos0 = arc_ends[k][0]
        side1, pos1 = arc_ends[k][1]
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
                    points=tuple(K_a.subarc(cur, q)),
                )
            )
            arc = arcs[out_arc[q]]
            used.add(out_arc[q])
            loop.append(BoundaryPiece(kind="interior", component=None,
                                      points=arc.points))
            side, pos = arc_ends[out_arc[q]][1]
            while side == "b":
                dep = _next_after(b_positions, pos, fresh_departure,
                                  "no reachable departure on the second component")
                loop.append(
                    BoundaryPiece(
                        kind="along", component=b_id,
                        points=tuple(K_b.subarc(pos, dep)),
                    )
                )
                arc = arcs[departs_b[dep]]
                used.add(departs_b[dep])
                loop.append(
                    BoundaryPiece(kind="interior", component=None,
                                  points=arc.points)
                )
                side, pos = arc_ends[departs_b[dep]][1]
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
                                      points=arc.points))
            side, pos = arc_ends[k][1]
            if side != "b":
                raise StuckTrace("second-component loop escaped to a pierce")
            q = _next_after(b_positions, pos,
                            lambda q: q == start_q or fresh_departure(q),
                            "no departure to continue a second-component loop")
            loop.append(
                BoundaryPiece(
                    kind="along", component=b_id,
                    points=tuple(K_b.subarc(pos, q)),
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
            (BoundaryPiece(kind="circle", component=None, points=c.points),)
        )
    db = DerivedBoundary(pair=pair, loops=tuple(loops), pierce_points=pierces)
    _check_closed(db)
    return db


def _loop_shape(loop, pair):
    """ "circle", "K_a only", "K_a visits K_b" or "K_b only"."""
    if loop[0].kind == "circle":
        return "circle"
    along = {piece.component for piece in loop if piece.kind == "along"}
    return {frozenset([pair[0]]): "K_a only", frozenset(pair): "K_a visits K_b",
            frozenset([pair[1]]): "K_b only"}[frozenset(along)]


def _walk_cases():
    """Every fixture, clasp_family(1..3) and the 16 seeded closures."""
    return ([(name, load_fixture(name)) for name in fixture_names()]
            + [("clasp_family(%d)" % k, clasp_family(k)) for k in (1, 2, 3)]
            + seeded_closures())


def test_box_pairs_match_queries_on_every_surface_pair():
    # surface_intersection pairs triangles with one sweep; it must see the
    # candidates of the per-row query loop, in the same order
    for name, d in _walk_cases() + [("clasp_family(4)", clasp_family(4))]:
        e = build_embedding(d)
        for a, b in _ordered_pairs(e):
            A, B = e.surfaces[a].index, e.surfaces[b].index
            want = [(i, j) for i, row in enumerate(A.arr) for j in B.query(row)]
            assert A.pairs(B) == want, (name, a, b)


def test_one_walk_matches_two_phase_trace():
    shapes = Counter()
    per_pair = {}
    for name, d in _walk_cases():
        e = build_embedding(d)
        for a, b in _ordered_pairs(e):
            if d.linking_number(a, b):
                continue
            K_a, K_b = e.curves[a], e.curves[b]
            pierces = tuple(pierce_points(K_a, e.surfaces[b]))
            curves = embedded_intersection(e, a, b)
            try:
                expected = _two_phase_trace(K_a, K_b, pierces, (a, b), lambda: curves)
            except (NotGeneric, StuckTrace) as err:
                with pytest.raises(type(err)):
                    trace._trace(K_a, K_b, pierces, (a, b), curves)
                continue
            db = trace._trace(K_a, K_b, pierces, (a, b), curves)
            assert db == expected, (name, a, b)
            found = Counter(_loop_shape(loop, (a, b)) for loop in db.loops)
            shapes.update(found)
            per_pair[name, a, b] = found
    # the inputs hold every loop shape, so the comparison covers each rule
    assert set(shapes) == {"circle", "K_a only", "K_a visits K_b", "K_b only"}
    assert per_pair["brunn_3", 2, 1]["K_b only"] == 3
    assert per_pair["closure(1, 2, -2, -1, -1, 1)", 1, 2]["K_a visits K_b"] > 0
