import json
import random
from functools import lru_cache
from itertools import permutations

import pytest

from masseylink import massey as massey_mod
from masseylink.diagram import parse_pd
from masseylink.embed import (
    _offset_walk,
    build_embedding,
    meridian,
    pushoff_cycle,
    pushoff_run,
)
from masseylink.errors import MasseyUndefined
from masseylink.fixtures import (
    braid_closure,
    braid_closure_pd,
    clasp_family,
    fixture_names,
    load_fixture,
)
from masseylink.magnus import milnor_mu
from masseylink.massey import (
    FourthOrderPlan,
    _SCHEMA,
    _massey3_on,
    first_term,
    massey3,
    massey4,
    second_term,
)
from masseylink.plgeom import (
    PLCurve,
    PLSurface,
    curve_surface_count,
    qpoint as P,
    v_add,
    v_sub,
)
from masseylink.rational import Q
from masseylink.trace import trace_derived_boundary


def test_borromean_value(e_borromean):
    r = massey3(e_borromean, (1, 2, 3))
    assert (r.term_first, r.term_second) == (1, 0)
    assert r.value == 1


def test_cyclic_orderings_agree(e_borromean):
    vals = {o: massey3(e_borromean, o).value for o in ((1, 2, 3), (2, 3, 1), (3, 1, 2))}
    assert len(set(vals.values())) == 1
    flipped = massey3(e_borromean, (2, 1, 3)).value
    assert flipped == -vals[(1, 2, 3)]


def test_unlink_vanishes():
    e = build_embedding(load_fixture("unlink3"))
    assert massey3(e, (1, 2, 3)).value == 0


def test_split_trefoil_vanishes():
    e = build_embedding(load_fixture("split_trefoil"))
    assert massey3(e, (1, 2, 3)).value == 0


def test_undefined_for_nonzero_linking():
    e = build_embedding(load_fixture("hopf_split"))
    with pytest.raises(MasseyUndefined):
        massey3(e, (1, 2, 3))


def test_bad_ordering_rejected(e_borromean):
    with pytest.raises(MasseyUndefined):
        massey3(e_borromean, (1, 1, 2))


def test_component_copy_leaves_first_term_unchanged(e_borromean):
    # adding a full component cycle cannot change lk against any surface
    db = trace_derived_boundary(e_borromean, 2, 3)
    base = first_term(e_borromean, db, 1)
    for m in (2, 3):
        extra = curve_surface_count(e_borromean.curves[m], e_borromean.surfaces[1])
        assert extra == 0
        assert base + extra == base


def test_framing_independence(e_borromean):
    db = trace_derived_boundary(e_borromean, 1, 2)
    base = second_term(e_borromean, db, 1, 3)
    F_3 = e_borromean.surfaces[3]
    twist = curve_surface_count(meridian(e_borromean, 1), F_3)
    assert base + twist == base
    assert base + 3 * twist == base
    longitude = pushoff_cycle(e_borromean.curves[1], e_borromean.tube_radius)
    assert base + curve_surface_count(longitude, F_3) == base


def test_empty_boundary_second_term_zero():
    e = build_embedding(load_fixture("unlink3"))
    db = trace_derived_boundary(e, 1, 2)
    assert second_term(e, db, 1, 3) == 0


def test_determinism(borromean):
    r1 = massey3(borromean, (1, 2, 3))
    r2 = massey3(borromean, (1, 2, 3))
    assert (r1.term_first, r1.term_second) == (r2.term_first, r2.term_second)


def test_knotted_component_leaves_value_unchanged():
    # a trefoil tied into one ring adds twist bands to its surface but
    # cannot change the triple invariant
    d = load_fixture("borromean_knotted")
    assert len(d.self_crossings(1)) == 3
    r = massey3(d, (1, 2, 3))
    assert (r.term_first, r.term_second) == (1, 0)
    assert abs(milnor_mu(d, (1, 2, 3))) == 1


def test_perturbed_embedding_gives_same_value(borromean):
    # per-component vertical shifts change the geometry but no count
    e = build_embedding(borromean, perturb_index=2)
    r = massey3(e, (1, 2, 3))
    assert (r.term_first, r.term_second) == (1, 0)
    db = trace_derived_boundary(e, 1, 2)
    base = second_term(e, db, 1, 3)
    assert base + curve_surface_count(meridian(e, 1), e.surfaces[3]) == base


def _three_unlinked(d):
    return d.n_components == 3 and not any(
        d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3)))


def _seeded_closures():
    """16 seeded 3-braid closures with three components and vanishing
    pairwise linking."""
    rng = random.Random(424242)
    out = []
    while len(out) < 16:
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 12)))
        d = braid_closure(word, 3)
        if _three_unlinked(d):
            out.append(("closure%s" % (word,), d))
    return out


def _banded_closures():
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


@lru_cache(maxsize=None)
def _cases():
    """(name, diagram, embedding) of every fixture, clasp_family(1..3), the
    seeded closures and the banded closures, each built once for this
    module."""
    diagrams = (
        [(name, load_fixture(name)) for name in fixture_names()]
        + [("clasp_family(%d)" % k, clasp_family(k)) for k in (1, 2, 3)]
        + _seeded_closures() + _banded_closures()
    )
    return [(name, d, build_embedding(d)) for name, d in diagrams]


def _oracle_check(prefix):
    """massey3 == -milnor_mu in all six orderings of the cases whose name
    starts with `prefix`; returns the results."""
    results = []
    for name, d, e in _cases():
        if not name.startswith(prefix):
            continue
        for o in permutations((1, 2, 3)):
            r = massey3(e, o)
            assert r.value == -milnor_mu(d, o), (name, o)
            results.append(r)
    return results


def test_random_zero_linking_closures_match_oracle():
    # seeded sweep over 3-braid closures with vanishing pairwise linking
    assert len(_oracle_check("closure")) == 16 * 6


def test_banded_closures_match_oracle():
    # twisted bands on the surfaces; the set holds a nonzero value and a
    # nonzero tube term
    results = _oracle_check("banded")
    assert len(results) == 4 * 6
    assert any(r.value for r in results)
    assert any(r.term_second for r in results)


# -- the tube term against the position-based pushoff it replaced ---------------


def _ref_pushoff_points(curve, pos0, pos1, r):
    """Open pushoff of the subarc pos0->pos1: radial joins at the ends,
    each segment offset by its horizontal left normal."""
    sub = curve.subarc(pos0, pos1)
    out = _offset_walk([sub[0]], zip(sub, sub[1:]), r)
    if out[-1] != sub[-1]:
        out.append(sub[-1])
    return out


def _ref_along_spans(e, db, i):
    """(pos0, pos1) spans on K_i of the along-K_i pieces of a boundary,
    located from each piece's ends."""
    curve = e.curves[i]
    return [(curve.locate(piece.points[0]), curve.locate(piece.points[-1]))
            for loop in db.loops for piece in loop
            if piece.kind == "along" and piece.component == i]


def _ref_pushoff_family_count(e, spans, i, surface):
    """Signed count against `surface` of the blackboard pushoffs of the
    (pos0, pos1) spans on K_i; a span with pos0 == pos1 is all of K_i."""
    curve = e.curves[i]
    total = 0
    for pos0, pos1 in spans:
        if pos0 == pos1:
            family = pushoff_cycle(curve, e.tube_radius)
        else:
            family = PLCurve(
                _ref_pushoff_points(curve, pos0, pos1, e.tube_radius), closed=False
            )
        total += curve_surface_count(family, surface)
    return total


def test_tube_pushoffs_match_positional_reference():
    # each along piece is the subarc between its located ends, and its
    # pushoff run is vertex for vertex the subarc pushoff; so is every count
    pieces = nonzero = 0
    for name, d, e in _cases():
        r = e.tube_radius
        for i, j in permutations(sorted(e.curves), 2):
            if d.linking_number(i, j):
                continue
            db = trace_derived_boundary(e, i, j)
            for loop in db.loops:
                for piece in loop:
                    if piece.kind != "along":
                        continue
                    curve = e.curves[piece.component]
                    pos0 = curve.locate(piece.points[0])
                    pos1 = curve.locate(piece.points[-1])
                    assert None not in (pos0, pos1), (name, i, j)
                    assert tuple(curve.subarc(pos0, pos1)) == piece.points, (name, i, j)
                    assert (pushoff_run(piece.points, r)
                            == _ref_pushoff_points(curve, pos0, pos1, r)), (name, i, j)
                    pieces += 1
            spans = _ref_along_spans(e, db, i)
            for k in sorted(set(e.curves) - {i, j}):
                value = second_term(e, db, i, k)
                assert value == _ref_pushoff_family_count(
                    e, spans, i, e.surfaces[k]), (name, i, j, k)
                nonzero += value != 0
    assert pieces > 0 and nonzero > 0


def test_long_twist_region_closure_matches_oracle():
    # nine s1 s1^-1 clasps in a row make a long chain of thin faces
    d = braid_closure((1, -1) * 9 + (2, -1, 2, -1, 2, -1), 3)
    e = build_embedding(d)
    for o in permutations((1, 2, 3)):
        assert massey3(e, o).value == -milnor_mu(d, o), o


# -- fourth order ---------------------------------------------------------------


def test_massey4_unlink_computed_zero():
    plan = massey4(load_fixture("unlink4"), (1, 2, 3, 4))
    assert plan.status == "computed"
    assert plan.summands == (0, 0, 0)
    assert plan.value == 0


def _four_components(word, strands):
    tuples = [list(t) for t in braid_closure_pd(word, strands)]
    return parse_pd(json.dumps({"components": 4, "crossings": tuples}))


def _pair_plus_two_split():
    # components 1,2 form a four-crossing zero-linking tangle whose
    # surfaces genuinely intersect; components 3,4 are split unknots
    return _four_components((1, 1, -1, -1), 2)


def _two_tangles():
    # two zero-linking two-component tangles side by side
    return _four_components((1, 1, -1, -1, 3, 3, -3, -3), 4)


def _borromean_plus_split(borromean):
    doc = {"components": 4, "crossings": [list(x.slots) for x in borromean.crossings]}
    return parse_pd(json.dumps(doc))


def _strip_along(e, i):
    """A vertical strip whose bottom edge is the first segment of K_i."""
    a, b = e.curves[i].segments()[0]
    up = (0, 0, 17 * e.unit)
    return PLSurface([(a, b, v_add(b, up)), (a, v_add(b, up), v_add(a, up))])


def _across_pushoff(e, i):
    """A small vertical triangle that the blackboard pushoff of K_i crosses
    once, at the middle of its longest flat segment."""
    def length2(seg):
        (x0, y0, _), (x1, y1, _) = seg
        return (x1 - x0) ** 2 + (y1 - y0) ** 2

    ring = pushoff_cycle(e.curves[i], e.tube_radius)
    a, b = max((seg for seg in ring.segments() if seg[0][2] == seg[1][2]), key=length2)
    m = tuple((x + y) / 2 for x, y in zip(a, b))
    # half the tube radius across and up: clear of K_i, one radius away
    h = e.tube_radius / 2
    dx, dy = b[0] - a[0], b[1] - a[1]
    t = h / (abs(dx) + abs(dy))
    u = (-dy * t, dx * t, Q(0))
    w = (Q(0), Q(0), h)
    return PLSurface([(v_sub(v_sub(m, u), w), v_sub(v_add(m, u), w), v_add(m, w))])


def test_massey4_unsupported_without_provider():
    d = _pair_plus_two_split()
    e = build_embedding(d)
    db12 = trace_derived_boundary(e, 1, 2)
    assert db12.loops  # the interesting pair is nonempty
    plan = massey4(e, (1, 2, 3, 4))
    assert plan.status == "unsupported"
    assert plan.reason == "C_123 spanning surface required"


def test_massey4_with_provider_computes():
    d = _pair_plus_two_split()
    e = build_embedding(d)

    far = PLSurface([(P(10**6, 0, 0), P(10**6 + 4, 0, 0), P(10**6, 4, 0))])

    def provider(key):
        return far

    plan = massey4(e, (1, 2, 3, 4), provider=provider)
    assert plan.status == "computed"
    # the provided surface is far from the tube family: all terms countable
    # by hand as 0
    assert plan.value == sum(plan.summands) == 0


def test_massey4_provider_surface_with_boundary_on_component():
    # the provided spanning surface has one boundary edge running along
    # K_1, so the tube restriction machinery extracts a genuine run
    e = build_embedding(_pair_plus_two_split())
    strip = _strip_along(e, 1)
    runs = massey_mod._surface_k_runs(e, strip, 1)
    assert runs == [tuple(e.curves[1].segments()[0])]
    plan = massey4(e, (1, 2, 3, 4), provider=lambda key: strip)
    assert plan.status == "computed"
    assert plan.value == sum(plan.summands)


def test_massey4_two_tangles_all_summands_exercised():
    # two zero-linking two-component tangles side by side: the first and
    # third summands need provided surfaces, the second counts a real
    # pushoff family against one
    d = _two_tangles()
    assert d.linking_matrix() == [[0] * 4 for _ in range(4)]
    e = build_embedding(d)
    assert trace_derived_boundary(e, 1, 2).loops
    assert trace_derived_boundary(e, 3, 4).loops
    plan_missing = massey4(e, (1, 2, 3, 4))
    assert plan_missing.status == "unsupported"
    assert plan_missing.reason == "C_234 spanning surface required"

    far = PLSurface([(P(10**7, 0, 0), P(10**7 + 4, 0, 0), P(10**7, 4, 0))])
    plan = massey4(e, (1, 2, 3, 4), provider=lambda key: far)
    assert plan.status == "computed"
    assert plan.summands == (0, 0, 0)


def test_massey4_checks_third_order(e_borromean):
    # borromean plus a split component: the (1,2,3) product is 1, so the
    # fourth-order product is undefined
    e4 = build_embedding(_borromean_plus_split(e_borromean.diagram))
    with pytest.raises(MasseyUndefined):
        massey4(e4, (1, 2, 3, 4))


# -- massey4 against the summand blocks it replaced ------------------------------


def _ref_surface_k_spans(e, surf, i):
    """Spans on K_i cut out by the boundary of a provided spanning surface."""
    curve = e.curves[i]
    spans = []
    for loop in surf.boundary_curves():
        vs = list(loop.vertices)
        located = [curve.locate(v) for v in vs]
        n = len(vs)
        k0 = next((t for t in range(n) if located[t] is None), None)
        if k0 is None:
            # the whole boundary loop runs along K_i
            spans.append((located[0], located[0]))
            continue
        order = list(range(k0, n)) + list(range(k0))
        run = []
        for t in order:
            if located[t] is not None:
                run.append(located[t])
            elif run:
                if len(run) >= 2:
                    spans.append((run[0], run[-1]))
                run = []
        if len(run) >= 2:
            spans.append((run[0], run[-1]))
    return spans


def _ref_boundary_empty(db):
    return db is not None and not db.loops


def _ref_massey4_on(e, ordering, provider):
    massey_mod._check_ordering(e, ordering, 4)
    i, j, k, l = ordering
    for triple in ((i, j, k), (i, j, l), (i, k, l), (j, k, l)):
        r = _massey3_on(e, triple)
        if r.value != 0:
            raise MasseyUndefined(
                "third-order product %r = %d, fourth order undefined"
                % (triple, r.value)
            )

    boundaries = {
        (i, j): trace_derived_boundary(e, i, j),
        (j, k): trace_derived_boundary(e, j, k),
        (k, l): trace_derived_boundary(e, k, l),
    }
    provider = provider or (lambda key: None)
    summands = []
    # summand 1: tube(i) . F_i . C_jkl
    if _ref_boundary_empty(boundaries[(j, k)]) and _ref_boundary_empty(boundaries[(k, l)]):
        summands.append(0)
    else:
        C_jkl = provider((j, k, l))
        if C_jkl is None:
            return FourthOrderPlan(
                ordering, boundaries, _SCHEMA, "unsupported",
                "C_%d%d%d spanning surface required" % (j, k, l), (), None,
            )
        summands.append(
            curve_surface_count(pushoff_cycle(e.curves[i], e.tube_radius), C_jkl)
        )
    # summand 2: tube(i) . C_ij . C_kl
    if _ref_boundary_empty(boundaries[(i, j)]) or _ref_boundary_empty(boundaries[(k, l)]):
        summands.append(0)
    else:
        C_kl = provider((k, l))
        if C_kl is None:
            return FourthOrderPlan(
                ordering, boundaries, _SCHEMA, "unsupported",
                "C_%d%d spanning surface required" % (k, l), (), None,
            )
        spans = _ref_along_spans(e, boundaries[(i, j)], i)
        summands.append(
            _ref_pushoff_family_count(e, spans, i, C_kl)
        )
    # summand 3: tube(i) . C_ijk . F_l
    if _ref_boundary_empty(boundaries[(i, j)]) and _ref_boundary_empty(boundaries[(j, k)]):
        summands.append(0)
    else:
        C_ijk = provider((i, j, k))
        if C_ijk is None:
            return FourthOrderPlan(
                ordering, boundaries, _SCHEMA, "unsupported",
                "C_%d%d%d spanning surface required" % (i, j, k), (), None,
            )
        spans = _ref_surface_k_spans(e, C_ijk, i)
        summands.append(
            _ref_pushoff_family_count(e, spans, i, e.surfaces[l])
        )

    return FourthOrderPlan(
        ordering, boundaries, _SCHEMA, "computed", "",
        tuple(summands), sum(summands),
    )


def _outcome(fn, e, ordering, provider):
    """The keys asked of the provider, in order, then the compared fields
    of the plan or the class and message of what was raised."""
    asked = []

    def ask(key):
        asked.append(key)
        return provider(key)

    try:
        plan = fn(e, ordering, provider and ask)
    except Exception as err:
        return asked, type(err), str(err)
    return asked, plan.status, plan.reason, plan.summands, plan.value


def test_massey4_summand_loop_matches_copied_blocks(borromean):
    far = PLSurface([(P(10**7, 0, 0), P(10**7 + 4, 0, 0), P(10**7, 4, 0))])
    nonzero = second = computed = 0
    for d in (load_fixture("unlink4"), _pair_plus_two_split(), _two_tangles(),
              _borromean_plus_split(borromean)):
        e = build_embedding(d)
        strip = _strip_along(e, 1)
        across = {i: _across_pushoff(e, i) for i in e.curves}
        for ordering in permutations((1, 2, 3, 4)):
            i = ordering[0]
            for provider in (None, lambda key: far, lambda key: strip,
                             lambda key: across[i]):
                got = _outcome(massey_mod._massey4_on, e, ordering, provider)
                assert got == _outcome(_ref_massey4_on, e, ordering, provider), ordering
                if got[1] == "computed":
                    computed += 1
                    nonzero += any(got[3])
                    second += got[3][1] != 0
    assert computed > 0 and nonzero > 0 and second > 0
