import json
from itertools import permutations

import pytest

from masseylink.diagram import parse_pd
from masseylink.embed import build_embedding, meridian, pushoff_cycle
from masseylink.errors import MasseyUndefined
from masseylink.fixtures import braid_closure, load_fixture
from masseylink.massey import (
    first_term,
    massey3,
    massey4,
    second_term,
)
from masseylink.plgeom import PLSurface, curve_surface_count, qpoint as P
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
    from masseylink.magnus import milnor_mu

    assert abs(milnor_mu(d, (1, 2, 3))) == 1


def test_perturbed_embedding_gives_same_value(borromean):
    # per-component vertical shifts change the geometry but no count
    e = build_embedding(borromean, perturb_index=2)
    r = massey3(e, (1, 2, 3))
    assert (r.term_first, r.term_second) == (1, 0)
    db = trace_derived_boundary(e, 1, 2)
    base = second_term(e, db, 1, 3)
    assert base + curve_surface_count(meridian(e, 1), e.surfaces[3]) == base


def test_random_zero_linking_closures_match_oracle():
    # seeded sweep over 3-braid closures with vanishing pairwise linking
    import random

    from masseylink.magnus import milnor_mu

    rng = random.Random(424242)
    tested = 0
    while tested < 16:
        word = tuple(rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(6, 12)))
        d = braid_closure(word, 3)
        if d.n_components != 3:
            continue
        if any(d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3))):
            continue
        e = build_embedding(d)
        for o in permutations((1, 2, 3)):
            assert massey3(e, o).value == -milnor_mu(d, o), (word, o)
        tested += 1


def test_long_twist_region_closure_matches_oracle():
    # nine s1 s1^-1 clasps in a row make a long chain of thin faces
    from masseylink.magnus import milnor_mu

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


def _pair_plus_two_split():
    # components 1,2 form a four-crossing zero-linking tangle whose
    # surfaces genuinely intersect; components 3,4 are split unknots
    word = (1, 1, -1, -1)
    tuples = [list(t) for t in __import__("masseylink.fixtures", fromlist=["braid_closure_pd"]).braid_closure_pd(word, 2)]
    return parse_pd(json.dumps({"components": 4, "crossings": tuples}))


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
    # K_1, so the tube restriction machinery extracts a genuine span
    d = _pair_plus_two_split()
    e = build_embedding(d)
    from masseylink.massey import _surface_k_spans
    from masseylink.plgeom import v_add

    curve = e.curves[1]
    seg = curve.segments()[0]
    up = (0, 0, 17 * e.unit)
    a, b = seg
    strip = PLSurface(
        [(a, b, v_add(b, up)), (a, v_add(b, up), v_add(a, up))]
    )
    spans = _surface_k_spans(e, strip, 1)
    assert len(spans) == 1
    plan = massey4(e, (1, 2, 3, 4), provider=lambda key: strip)
    assert plan.status == "computed"
    assert plan.value == sum(plan.summands)


def test_massey4_two_tangles_all_summands_exercised():
    # two zero-linking two-component tangles side by side: the first and
    # third summands need provided surfaces, the second counts a real
    # pushoff family against one
    word = (1, 1, -1, -1, 3, 3, -3, -3)
    tuples = [
        list(t)
        for t in __import__(
            "masseylink.fixtures", fromlist=["braid_closure_pd"]
        ).braid_closure_pd(word, 4)
    ]
    d = parse_pd(json.dumps({"components": 4, "crossings": tuples}))
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
    d = e_borromean.diagram
    doc = {"components": 4, "crossings": [list(x.slots) for x in d.crossings]}
    e4 = build_embedding(parse_pd(json.dumps(doc)))
    with pytest.raises(MasseyUndefined):
        massey4(e4, (1, 2, 3, 4))
