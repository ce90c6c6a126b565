import dataclasses
import json
import random
import re
from functools import cmp_to_key, lru_cache
from itertools import combinations
from math import gcd, isqrt

import pytest
from hypothesis import assume, given, settings, strategies as st

from masseylink.diagram import parse_pd
from masseylink.drawing import (
    _DIAMOND,
    _MIN_CLEAR,
    _counterclockwise,
    _diamond_exit,
    _on_seg2,
    _strictly_between,
    _verify_positions,
    draw_diagram,
    point_in_polygon,
    seg2_intersection,
    seg2_properly_intersect,
    segments_touch,
)
from masseylink import embed
from masseylink.embed import (
    _dist2_point_line,
    _in_closed_tri2,
    _wall_and_polygon,
    build_embedding,
    meridian,
    pushoff_cycle,
    seifert_circles,
    verify_embedding,
)
from masseylink.errors import NonRealizable, NotGeneric
from masseylink.fixtures import braid_closure, clasp_family, fixture_names, load_fixture
from masseylink.plgeom import (
    PLCurve,
    PLSurface,
    curve_surface_count,
    lift,
    orient2,
)
from masseylink.rational import Q
from plref import banded_closures, qpoint as P, rational_rows, seeded_closures


def _euler(surface):
    V = len({v for t in surface.triangles for v in t})
    E = len(
        {
            tuple(sorted((t[i], t[(i + 1) % 3])))
            for t in surface.triangles
            for i in range(3)
        }
    )
    return V - E + len(surface.triangles)


# -- drawing -----------------------------------------------------------------


def test_drawing_realizes_slot_rotation(borromean):
    assert len(draw_diagram(borromean).stations) == 6
    for name in fixture_names():
        for g in draw_diagram(load_fixture(name)).stations:
            # the chords cross at an interior point of both passages
            assert g.point != g.under_chord[0] and g.point != g.under_chord[1]
            assert g.point != g.over_chord[0] and g.point != g.over_chord[1]
            assert orient2(*g.under_chord, g.point) == 0, name
            assert orient2(*g.over_chord, g.point) == 0, name


def _ray(v):
    """The direction of v as a rational point on the L1 unit circle."""
    l1 = abs(v[0]) + abs(v[1])
    return (Q(v[0]) / l1, Q(v[1]) / l1)


def _by_angle(dirs):
    def half(v):
        return 0 if v[1] > 0 or (v[1] == 0 and v[0] > 0) else 1

    def before(u, v):
        if half(u) != half(v):
            return half(u) - half(v)
        return v[0] * u[1] - v[1] * u[0]

    return sorted(dirs, key=cmp_to_key(before))


def _assert_chords_cross_in_convex_quad(quad):
    # four points in counterclockwise order: every turn is strictly left,
    # and the diagonals meet strictly inside both
    for i in range(4):
        assert orient2(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4]) == 1, quad
    Y = seg2_intersection(quad[0], quad[2], quad[1], quad[3])
    assert _strictly_between(quad[0], quad[2], Y), quad
    assert _strictly_between(quad[1], quad[3], Y), quad


def test_diamond_exits_are_in_strictly_convex_position():
    rng = random.Random(1027)
    seeded = [(rng.choice([-1, 1]) * rng.randint(1, 50),
               rng.choice([-1, 1]) * rng.randint(1, 50)) for _ in range(8)]
    signs = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
    special = (
        [(1, 0), (0, 1), (-1, 0), (0, -1)]
        + signs
        + [(sx, sy * 10**6) for sx, sy in signs]
        + [(sx * 10**6, sy) for sx, sy in signs]
    )
    clasp_arms = []
    for g in draw_diagram(clasp_family(8)).stations:
        X = g.center
        ends = [*g.under_chord, *g.over_chord]
        clasp_arms += [(e[0] - X[0], e[1] - X[1]) for e in ends]
        # each drawn crossing: its own four exits, around its center
        by_angle = _by_angle(clasp_arms[-4:])
        quad = [(X[0] + v[0], X[1] + v[1]) for v in by_angle]
        _assert_chords_cross_in_convex_quad(quad)
        assert {quad[0], quad[2]} in ({*g.under_chord}, {*g.over_chord})
    for pool in (seeded + special, clasp_arms):
        rays = _by_angle(set(map(_ray, pool)))
        exits = [_diamond_exit((0, 0), v, _DIAMOND) for v in rays]
        assert len(set(exits)) == len(exits)
        # combinations keep the counterclockwise order of the rays
        for quad in combinations(exits, 4):
            _assert_chords_cross_in_convex_quad(quad)


def test_coordinates_fit_in_128_bits():
    diagrams = [load_fixture(n) for n in fixture_names()] + [
        clasp_family(k) for k in (1, 2, 3, 4)]
    for d in diagrams:
        e = build_embedding(d, grid_scale=1)
        points = [v for c in e.curves.values() for v in c.vertices] + [
            v for s in e.surfaces.values() for t in s.triangles for v in t]
        bits = max(
            (max(x.numerator.bit_length(), x.denominator.bit_length())
             for v in points for x in v))
        assert bits <= 128, (d.comment, bits)


def _touch_all_pairs(segs):
    """Reference for segments_touch: every pair, no sweep and no box reject."""
    for (a, b), (c, d) in combinations(segs, 2):
        shared = {a, b} & {c, d}
        if not shared:
            if seg2_properly_intersect(a, b, c, d):
                return True
            continue
        if len(shared) > 1:
            return True
        if any(_on_seg2(a, b, q) and q not in (a, b) for q in (c, d)):
            return True
        if any(_on_seg2(c, d, q) and q not in (c, d) for q in (a, b)):
            return True
    return False


def _random_segment(rng):
    # a 5 x 5 grid gives collinear overlaps, shared endpoints, vertical
    # segments and x ranges that meet in a single value
    while True:
        a, b = [(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2)]
        if a != b:
            return a, b


def test_segments_touch_matches_all_pairs():
    rng = random.Random(1215)
    cases = [
        [((0, 0), (4, 0)), ((2, 0), (6, 0))],        # collinear overlap
        [((0, 0), (4, 0)), ((4, 0), (6, 0))],        # collinear, one end shared
        [((0, 0), (4, 0)), ((4, 0), (2, 0))],        # folds back over a shared end
        [((0, 0), (4, 0)), ((0, 0), (4, 0))],        # the same segment twice
        [((2, 0), (2, 4)), ((0, 2), (4, 2))],        # vertical through horizontal
        [((0, 0), (2, 2)), ((2, 3), (4, 0))],        # x ranges meet only at 2
        [((0, 0), (2, 2)), ((2, 2), (4, 0))],        # ... and share an end there
        [((0, 4), (2, 2)), ((2, 1), (2, 3))],        # an end inside a vertical
    ]
    cases += [[_random_segment(rng) for _ in range(rng.randint(2, 6))]
              for _ in range(600)]
    # each pair of the small sets alone exercises the box reject
    for segs in cases:
        for pair in combinations(segs, 2):
            assert segments_touch(pair) == _touch_all_pairs(pair), pair
    # drawn arcs and cup footprints, in the integer form over one common
    # denominator that _check_simple gets
    for name in fixture_names():
        d = load_fixture(name)
        dr = draw_diagram(d)
        paths = list(dr.arc_paths.values())
        ints = iter(lift([p for path in paths for p in path])[1])
        paths = [[next(ints) for _ in path] for path in paths]
        cases.append([s for path in paths for s in zip(path, path[1:])])
        for scope in [None] + list(range(1, d.n_components + 1)):
            for c in seifert_circles(d, component=scope, drawing=dr).circles:
                fp = lift(c.footprint)[1]
                cases.append(list(zip(fp, fp[1:] + fp[:1])))
    verdicts = []
    for segs in cases:
        want = _touch_all_pairs(segs)
        assert segments_touch(segs) == want, segs
        assert segments_touch(segs[::-1]) == want, segs
        # moved and scaled past float range, the verdict stays
        big = [tuple((x * 2**1100 + 1, y * 2**1100 - 1) for x, y in seg) for seg in segs]
        assert segments_touch(big) == want, segs
        verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_drawing_rejects_nonplanar_gauss():
    # the standard non-realizable Gauss sequence 1 2 3 1 2 3 on one component
    from masseylink.diagram import parse_gauss

    with pytest.raises(NonRealizable):
        d = parse_gauss("O1+ O2+ O3+ U1+ U2+ U3+")
        draw_diagram(d)


def test_split_pieces_have_disjoint_bands():
    d = load_fixture("hopf_split")
    dr = draw_diagram(d)
    xs3 = [p[0] for p in dr.arc_paths[d.component_arcs(3)[0]]]
    xs12 = [
        p[0]
        for arc in d.component_arcs(1) + d.component_arcs(2)
        for p in dr.arc_paths[arc]
    ]
    assert min(xs3) > max(xs12) or min(xs12) > max(xs3)


@pytest.mark.parametrize("word", [(1,) * 18, (1, -1) * 9], ids=["18 twists", "9 clasps"])
def test_long_twist_regions_draw(word):
    dr = draw_diagram(braid_closure(word, 2))
    assert len(dr.stations) == 18


def _pieces_with_crossings(d):
    groups = []
    for x in d.crossings:
        pair = {x.under_component, x.over_component}
        joined = [g for g in groups if g & pair]
        groups = [g for g in groups if not g & pair] + [pair.union(*joined)]
    return len(groups)


def _checked_layouts(monkeypatch, diagrams):
    """(d, arcs, rot, pos) of every layout that draw_diagram checks while
    drawing the diagrams, in the order checked."""
    import masseylink.drawing as drawing

    calls = []
    monkeypatch.setattr(drawing, "_verify_positions",
                        lambda *args: calls.append(args) or _verify_positions(*args))
    for d in diagrams:
        draw_diagram(d)
    return calls


def test_one_exact_layout_check_per_piece(monkeypatch):
    # the grid layout is planar by construction: its single exact check
    # per piece with crossings must pass, with no retry behind it
    diagrams = (
        [(name, load_fixture(name)) for name in fixture_names()]
        + [(k, clasp_family(k)) for k in (1, 2, 3, 4)]
        + [(w, braid_closure(w, 3)) for w in _zero_linking_words(16, seed=424242)]
    )
    for name, d in diagrams:
        calls = _checked_layouts(monkeypatch, [d])
        assert len(calls) == _pieces_with_crossings(d), name
        assert all(_verify_positions(*args) is True for args in calls), name


def _layout_segments(d, arcs, pos):
    segs = []
    for arc in arcs:
        (xo, _), (xi, _) = d.arc_ends[arc]
        path = [pos[("x", xo)], pos[("s", arc, 0)], pos[("s", arc, 1)], pos[("x", xi)]]
        segs += zip(path, path[1:])
    return segs


def _too_close(p, a, b, clear2):
    """Is the integer point p nearer than sqrt(clear2) to segment ab?"""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    dot, len2 = px * dx + py * dy, dx * dx + dy * dy
    if dot <= 0:
        return px * px + py * py < clear2
    if dot >= len2:
        qx, qy = p[0] - b[0], p[1] - b[1]
        return qx * qx + qy * qy < clear2
    # the foot lies inside: squared distance is cross**2 / len2
    return (dx * py - dy * px) ** 2 < clear2 * len2


def _clearances_hold(d, arcs, rot, pos):
    """The unfiltered clearance scan, at the bounds the grid scale proves:
    every crossing centre at least _MIN_CLEAR from every segment it does
    not end, and every arm stub and any two centres at least 2 _MIN_CLEAR
    long or apart."""
    clear2 = _MIN_CLEAR * _MIN_CLEAR

    def far(p, q):
        return (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 >= 4 * clear2

    centres = [u for u in rot if u[0] == "x"]
    return (
        all(pos[u] in (a, b) or not _too_close(pos[u], a, b, clear2)
            for u in centres for a, b in _layout_segments(d, arcs, pos))
        and all(far(pos[u], pos[v]) for u in centres for v in rot[u])
        and all(far(pos[u], pos[v]) for u, v in combinations(centres, 2))
    )


def test_checked_layouts_keep_every_clearance(monkeypatch):
    # the clearances are not checked in the package: the scale proves them
    diagrams = (
        [load_fixture(name) for name in fixture_names()]
        + [clasp_family(k) for k in range(1, 9)]
        + [braid_closure(w, 3) for w in _zero_linking_words(16, seed=424242)]
    )
    calls = _checked_layouts(monkeypatch, diagrams)
    refused = 0
    for d, arcs, rot, pos in calls:
        assert _clearances_hold(d, arcs, rot, pos), d.comment
        # the same layout at scale _MIN_CLEAR alone: the scan can refuse
        g = gcd(*(c for p in pos.values() for c in p))
        small = {u: (x // g * _MIN_CLEAR, y // g * _MIN_CLEAR) for u, (x, y) in pos.items()}
        assert _verify_positions(d, arcs, rot, small)
        refused += not _clearances_hold(d, arcs, rot, small)
    assert refused > len(calls) // 2, (refused, len(calls))


def _dist2_point_seg_fraction(p, a, b):
    """Exact squared distance from point p to segment ab, in Fractions."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    px, py = p[0] - a[0], p[1] - a[1]
    t = min(max(Q(px * dx + py * dy, dx * dx + dy * dy), Q(0)), Q(1))
    ex, ey = px - t * dx, py - t * dy
    return ex * ex + ey * ey


_lattice_point = st.tuples(st.integers(-40, 40), st.integers(-40, 40))


@settings(max_examples=400, deadline=None)
@given(_lattice_point, _lattice_point, _lattice_point)
def test_lattice_point_off_a_segment_clears_the_scale(a, b, p):
    # the lemma behind the dropped clearance checks: a lattice point off
    # a lattice segment of length L lies at least 1/L from it
    assume(a != b and not _on_seg2(a, b, p))
    len2 = (b[0] - a[0]) ** 2 + (b[1] - a[1]) ** 2
    ceil_len = isqrt(len2 - 1) + 1
    s = _MIN_CLEAR * max(2, ceil_len)
    a, b, p = [(s * x, s * y) for x, y in (a, b, p)]
    assert _dist2_point_seg_fraction(p, a, b) >= _MIN_CLEAR * _MIN_CLEAR
    assert not _too_close(p, a, b, _MIN_CLEAR * _MIN_CLEAR)


def test_layout_check_refuses_each_broken_fact(monkeypatch, borromean):
    (layout,) = _checked_layouts(monkeypatch, [borromean])
    d, arcs, rot, pos = layout
    assert _verify_positions(*layout)

    def slot_orders(q, turn=1):
        """Are the slots of each crossing counterclockwise (turn -1: of the
        reversed slots, so clockwise)?"""
        return {_counterclockwise([(q[v][0] - q[u][0], q[v][1] - q[u][1])
                                   for v in rot[u]][::turn])
                for u in rot if u[0] == "x"}

    # a repeated position
    u, v = sorted(pos)[:2]
    assert not _verify_positions(d, arcs, rot, {**pos, u: pos[v]})
    # two subdivision nodes swapped so that arc segments cross; some of
    # these swaps keep every slot order, so the planarity test alone
    # refuses them
    subs = sorted(u for u in rot if u[0] == "s")
    planarity_only = 0
    for u, v in combinations(subs, 2):
        swapped = {**pos, u: pos[v], v: pos[u]}
        if segments_touch(_layout_segments(d, arcs, swapped)):
            assert not _verify_positions(d, arcs, rot, swapped), (u, v)
            planarity_only += slot_orders(swapped) == {True}
    assert planarity_only > 0
    # the mirror image: planar, but every crossing clockwise
    mirror = {u: (-x, y) for u, (x, y) in pos.items()}
    assert not segments_touch(_layout_segments(d, arcs, mirror))
    assert slot_orders(mirror) == {False}
    assert slot_orders(mirror, turn=-1) == {True}
    assert not _verify_positions(d, arcs, rot, mirror)


# -- Seifert structure -------------------------------------------------------


def test_hopf_whole_diagram_smoothing(hopf):
    st = seifert_circles(hopf)
    assert len(st.circles) == 2
    assert len(st.bands) == 2
    assert sorted(c.depth for c in st.circles) == [0, 1]


def test_unknot_structure():
    d = load_fixture("unknot0")
    st = seifert_circles(d)
    assert len(st.circles) == 1 and len(st.bands) == 0


def test_trefoil_euler_characteristic(trefoil):
    st = seifert_circles(trefoil, component=1)
    assert len(st.circles) == 2
    assert len(st.bands) == 3
    assert len(st.circles) - len(st.bands) == -1  # genus-one Seifert surface


def test_borromean_components_are_disks(borromean):
    for i in (1, 2, 3):
        st = seifert_circles(borromean, component=i)
        assert len(st.circles) - len(st.bands) == 1


def test_bands_join_same_component_circles(trefoil, borromean):
    for d in (trefoil, borromean):
        for i in range(1, d.n_components + 1):
            st = seifert_circles(d, component=i)
            on_circles = {p[1] for c in st.circles for p in c.pieces if p[0] == "arc"}
            assert list(st.bands) == sorted(
                xi for xi, x in enumerate(d.crossings)
                if x.under_component == x.over_component == i)
            for xi in st.bands:
                x = d.crossings[xi]
                assert {x.under_in, x.over_in} <= on_circles


def test_nesting_forest_consistent():
    inputs = [(name, load_fixture(name)) for name in fixture_names()]
    inputs += [("clasp%d" % k, clasp_family(k)) for k in range(1, 5)]
    structures = 0
    for name, d in inputs + seeded_closures() + banded_closures():
        dr = draw_diagram(d)
        for scope in [None] + list(range(1, d.n_components + 1)):
            circles = seifert_circles(d, component=scope, drawing=dr).circles
            structures += 1
            # the circles around a circle's first footprint point are a
            # chain of depths 0 .. depth - 1
            for c in circles:
                around = sorted(o.depth for o in circles
                                if o is not c and point_in_polygon(o.footprint, c.footprint[0]))
                assert around == list(range(c.depth)), (name, scope, c.index)
            # the footprints are pairwise disjoint: no shared vertex, and no
            # edges touching, all lifted to one common denominator
            fps = [c.footprint for c in circles]
            assert len({p for fp in fps for p in fp}) == sum(len(fp) for fp in fps), name
            ints = iter(lift([p for fp in fps for p in fp])[1])
            edges = []
            for fp in fps:
                q = [next(ints) for _ in fp]
                edges += zip(q, q[1:] + q[:1])
            assert not segments_touch(edges), (name, scope)
    assert structures == 144


# -- embeddings --------------------------------------------------------------


def test_embedding_boundary_is_curve():
    # the boundary lemma of build_embedding, which verify_embedding relies
    # on: each surface's boundary is one loop with its curve's vertex list,
    # exactly, up to rotation (no collinear subdivision either way)
    inputs = [(name, load_fixture(name)) for name in fixture_names()]
    inputs += [("clasp%d" % k, clasp_family(k)) for k in range(1, 6)]
    surfaces = 0
    for name, d in inputs + seeded_closures() + banded_closures():
        for perturb_index in (0, 1):
            e = build_embedding(d, perturb_index=perturb_index)
            for i, surf in e.surfaces.items():
                (loop,) = surf.boundary_curves()
                vs, ws = loop.vertices, e.curves[i].vertices
                k = ws.index(vs[0])
                assert vs == ws[k:] + ws[:k], (name, perturb_index, i)
                surfaces += 1
    assert surfaces == 220


def test_embedding_with_bands(e_trefoil):
    surf = e_trefoil.surfaces[1]
    assert _euler(surf) == -1
    tags = e_trefoil.provenance[1]
    assert sum(1 for t in tags if t.startswith("band")) == 30  # 3 bands x 10


def test_embedding_is_deterministic(borromean):
    e1 = build_embedding(borromean)
    e2 = build_embedding(borromean)
    for i in (1, 2, 3):
        assert e1.curves[i].vertices == e2.curves[i].vertices
        assert e1.surfaces[i].triangles == e2.surfaces[i].triangles


def test_unknot_embedding_is_disk():
    e = build_embedding(load_fixture("unknot0"))
    assert _euler(e.surfaces[1]) == 1


def test_grid_scale_scales_coordinates(hopf):
    e1 = build_embedding(hopf, grid_scale=1)
    e2 = build_embedding(hopf, grid_scale=3)
    v1 = e1.curves[1].vertices[0]
    v2 = e2.curves[1].vertices[0]
    assert [3 * c for c in v1] == list(v2)


def test_pairwise_surfaces_generic(e_borromean):
    # normal position: every intersection component is an arc or circle
    from masseylink.trace import surface_intersection

    for (a, b) in ((1, 2), (2, 3), (1, 3)):
        curves = surface_intersection(
            e_borromean.surfaces[a], e_borromean.surfaces[b]
        )
        for c in curves:
            assert c.kind in ("arc", "circle")
            assert len(c.points) >= 2


# -- embeddedness: cups proved in 2D, everything else in exact 3D -------------


def _zero_linking_words(count, seed):
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 12)))
        d = braid_closure(word, 3)
        if d.n_components == 3 and not any(
                d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3))):
            words.append(word)
    return words


_EMBEDDING_CASES = (
    [pytest.param(("fixture", name), id=name) for name in fixture_names()]
    + [pytest.param(("clasp_family", k), id="clasp_family(%d)" % k) for k in (1, 2)]
    + [pytest.param(("closure", w), id="closure%s" % (w,))
       for w in _zero_linking_words(3, seed=5027)]
)
_GEOMETRIES = ((1, 0), (2**40, 0), (1, 1))   # (grid scale, perturbation index)


@lru_cache(maxsize=None)
def _embeddings(case):
    kind, arg = case
    if kind == "fixture":
        d = load_fixture(arg)
    elif kind == "clasp_family":
        d = clasp_family(arg)
    else:
        d = braid_closure(arg, 3)
    return [build_embedding(d, grid_scale=g, perturb_index=p) for g, p in _GEOMETRIES]


@pytest.mark.parametrize("case", _EMBEDDING_CASES)
def test_cup_proof_agrees_with_full_check(case):
    # build_embedding ran verify_embedding, which skips pairs inside one
    # cup; the full check, on the triangles without their cup ends,
    # compares every box-overlapping pair in 3D
    for e in _embeddings(case):
        verify_embedding(e)
        for i, surf in e.surfaces.items():
            # a cup ends where the circle of the wall and disk tags changes,
            # and every band tag comes after the last end
            kinds = [tag.partition(":") for tag in e.provenance[i]]
            circles = [c for kind, _, c in kinds if kind != "band"]
            n = len(circles)
            assert surf.cup_ends == [k for k in range(1, n + 1)
                                     if k == n or circles[k] != circles[k - 1]]
            assert all(kind == "band" for kind, _, _ in kinds[n:])
            PLSurface(surf.triangles).check_embedded()


@pytest.mark.parametrize("case", _EMBEDDING_CASES)
def test_surface_index_matches_rational_boxes(case):
    for e in _embeddings(case):
        for i, surf in e.surfaces.items():
            assert surf.index.arr == rational_rows(surf.triangles)


def _ear_clip_unfiltered(poly2, orient):
    """embed._ear_clip without its bbox reject: every remaining vertex is
    tested against the closed ear."""
    idx = list(range(len(poly2)))
    tris = []
    while len(idx) > 3:
        n = len(idx)
        for k in range(n):
            i0, i1, i2 = idx[(k - 1) % n], idx[k], idx[(k + 1) % n]
            a, b, c = poly2[i0], poly2[i1], poly2[i2]
            if orient2(a, b, c) == orient and not any(
                    j not in (i0, i1, i2) and _in_closed_tri2(a, b, c, poly2[j], orient)
                    for j in idx):
                tris.append((i0, i1, i2))
                idx.pop(k)
                break
        else:
            raise NotGeneric("no clippable ear found")
    i0, i1, i2 = idx
    if orient2(poly2[i0], poly2[i1], poly2[i2]) == orient:
        tris.append((i0, i1, i2))
    return tris


def test_ear_clip_reject_keeps_every_ear(monkeypatch):
    footprints = []
    orig = embed._ear_clip

    def recording(poly2, orient):
        footprints.append((poly2, orient))
        return orig(poly2, orient)

    monkeypatch.setattr(embed, "_ear_clip", recording)
    for d in ([load_fixture(name) for name in fixture_names()]
              + [clasp_family(k) for k in range(1, 9)]):
        build_embedding(d)
    assert len(footprints) > 50
    for poly2, orient in footprints:
        assert orig(poly2, orient) == _ear_clip_unfiltered(poly2, orient)


def _rim(*xyz):
    return [P(*p) for p in xyz]


@pytest.mark.parametrize("rim, message", [
    # a bowtie with lobes of unequal area (ear clipping alone fails on it
    # too, at its reversed final triangle)
    (_rim((0, 0, 0), (6, 4, 0), (6, 0, 0), (0, 6, 0)), "not simple"),
    # a self-overlapping pentagon that ear clipping alone accepts
    (_rim((3, 1, 0), (3, 3, 0), (5, 0, 0), (0, 0, 0), (4, 5, 0)), "not simple"),
    (_rim((0, 0, 0), (4, 0, 0), (2, 0, 0), (2, 4, 0)), "folds back"),
    (_rim((0, 0, 0), (4, 0, 0), (4, 4, -1), (0, 4, 0)), "not above"),
], ids=["bowtie", "overlap", "foldback", "rim_at_level"])
def test_cup_conditions_are_checked(rim, message):
    with pytest.raises(NotGeneric, match=message):
        _wall_and_polygon(rim, Q(-1))


def test_band_through_a_disk_is_still_caught():
    # lower one band vertex (and the curve with it) below the deepest disk:
    # the band triangles at it now pierce that disk, and verify_embedding
    # compares band triangles with every cup
    e = build_embedding(load_fixture("trefoil"))
    surf, tags = e.surfaces[1], e.provenance[1]
    band = tags.index("band:0")
    dip = e.drawing.stations[0].under[2]
    v = next(p for t in surf.triangles[band:band + 10] for p in t if p[:2] == dip)
    deepest = min(t[0][2] for t, g in zip(surf.triangles, tags) if g.startswith("disk"))
    w = (v[0], v[1], deepest - e.drawing.scale)
    bad = dataclasses.replace(
        e,
        surfaces={1: PLSurface([[w if p == v else p for p in t] for t in surf.triangles],
                               surf.cup_ends)},
        curves={1: PLCurve([w if p == v else p for p in e.curves[1].vertices])},
    )
    with pytest.raises(NotGeneric, match="self-intersection") as err:
        verify_embedding(bad)
    kinds = {tags[int(k)].split(":")[0] for k in re.findall(r"\d+", str(err.value))}
    assert kinds == {"band", "disk"}


_RAIL_CASES = (
    [pytest.param(load_fixture(name), id=name) for name in fixture_names()]
    + [pytest.param(clasp_family(k), id="clasp_family(%d)" % k) for k in (1, 2, 3, 4)]
)


@pytest.mark.parametrize("d", _RAIL_CASES)
def test_tube_radius_keeps_the_rail_contract(d):
    # a parallel of either strand within the tube radius still crosses the
    # other strand between A and B, so it dips where its curve does: A and
    # B lie far enough from the over chord and on opposite sides of it, and
    # so do the two dip stations between them
    e = build_embedding(d)
    for loc in e.drawing.stations:
        a, b = loc.over_chord
        A, D1, D2, B = loc.under[1:5]
        assert 8 * e.tube_radius ** 2 <= _dist2_point_line(A, a, b)
        assert 8 * e.tube_radius ** 2 <= _dist2_point_line(B, a, b)
        assert orient2(a, b, D1) * orient2(a, b, D2) == -1
        assert orient2(a, b, A) * orient2(a, b, B) == -1


# -- meridians, pushoffs -----------------------------------------------------


def test_meridian_links_once(e_borromean):
    for i in (1, 2, 3):
        mu = meridian(e_borromean, i)
        assert curve_surface_count(mu, e_borromean.surfaces[i]) == 1


def test_pushoff_cycle_links_like_the_curve(e_hopf):
    # blackboard pushoff of K_1 still links K_2 once
    po = pushoff_cycle(e_hopf.curves[1], e_hopf.tube_radius)
    assert curve_surface_count(po, e_hopf.surfaces[2]) == 1
