import itertools
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from masseylink.errors import NonzeroLinking
from masseylink.fixtures import braid_closure, clasp_family, load_fixture
from masseylink.magnus import (
    TruncatedSeries,
    longitude_series,
    longitude_word,
    milnor_mu,
)


# -- Wirtinger presentations ---------------------------------------------------


@dataclass(frozen=True)
class WirtingerPresentation:
    generators: tuple        # arc labels
    relations: tuple         # (under_out, over_in, sign, under_in) per crossing
    component_map: dict      # arc -> component id


def wirtinger(d):
    """Wirtinger presentation on the diagram's arcs.

    Each crossing contributes the relation
    under_out = over^{-sign} under_in over^{sign}; the two over-strand
    arcs at a crossing represent the same group element.
    """
    gens = tuple(a for arcs in d.components for a in arcs)
    rels = tuple(
        (x.under_out, x.over_in, x.sign, x.under_in) for x in d.crossings
    )
    comp = {a: d.arc_component(a) for a in gens}
    return WirtingerPresentation(gens, rels, comp)


def test_unknot_presentation():
    d = load_fixture("unknot0")
    w = wirtinger(d)
    assert len(w.generators) == 1
    assert len(w.relations) == 0


def test_hopf_presentation(hopf):
    w = wirtinger(hopf)
    assert len(w.generators) == 4
    assert len(w.relations) == 2
    assert all(w.component_map[g] in (1, 2) for g in w.generators)


def test_borromean_presentation(borromean):
    w = wirtinger(borromean)
    assert len(w.generators) == 12  # four arcs per component
    assert len(w.relations) == 6


# -- longitudes ----------------------------------------------------------------


def test_unknot_longitude_empty():
    d = load_fixture("unknot0")
    assert longitude_word(d, 1) == []


def test_hopf_longitude_single_letter(hopf):
    word = longitude_word(hopf, 1)
    assert len(word) == 1
    (g, e) = word[0]
    assert hopf.arc_component(g) == 2
    assert e == 1


def test_borromean_longitude_exponent_sums_vanish(borromean):
    for i in (1, 2, 3):
        s = longitude_series(borromean, i)
        for j in (1, 2, 3):
            if j != i:
                assert s.coefficient((j,)) == borromean.linking_number(i, j) == 0


def test_exponent_sum_equals_linking():
    d = braid_closure((1, 1, 1, 1), 2)  # (2,4) torus link, lk = 2
    assert d.linking_number(1, 2) == 2
    s = longitude_series(d, 1)
    assert s.coefficient((2,)) == 2


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=8))
def test_exponent_sums_equal_linking_numbers(word):
    d = braid_closure(tuple(word), 3)
    for i in range(1, d.n_components + 1):
        s = longitude_series(d, i, degree=2)
        for j in range(1, d.n_components + 1):
            if i != j:
                assert s.coefficient((j,)) == d.linking_number(i, j)


# -- triple invariants -----------------------------------------------------------


def test_unlink_mu_zero():
    d = load_fixture("unlink3")
    assert milnor_mu(d, (1, 2, 3)) == 0


def test_borromean_mu_is_unit(borromean):
    assert abs(milnor_mu(borromean, (1, 2, 3))) == 1


def test_clasp_family_magnitudes():
    for k in (1, 2, 3):
        d = clasp_family(k)
        assert abs(milnor_mu(d, (1, 2, 3))) == k


def test_cyclic_symmetry(borromean):
    for d in (borromean, clasp_family(2)):
        v = milnor_mu(d, (1, 2, 3))
        assert milnor_mu(d, (2, 3, 1)) == v
        assert milnor_mu(d, (3, 1, 2)) == v


def test_antisymmetry(borromean):
    for d in (borromean, clasp_family(2)):
        assert milnor_mu(d, (2, 1, 3)) == -milnor_mu(d, (1, 2, 3))


def test_pairwise_linking_guard(hopf):
    from masseylink.diagram import parse_pd
    import json

    d = parse_pd(
        json.dumps({"components": 3, "crossings": [[1, 3, 2, 4], [3, 1, 4, 2]]})
    )
    with pytest.raises(NonzeroLinking):
        milnor_mu(d, (1, 2, 3))


# -- truncated series algebra ----------------------------------------------------

small = st.integers(-2, 2)
words = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
series = st.dictionaries(words, small, max_size=5).map(
    lambda d: TruncatedSeries(3, d) + TruncatedSeries.one(3)
)


@settings(max_examples=60, deadline=None)
@given(series, series, series)
def test_series_multiplication_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(series)
def test_series_inverse(a):
    one = TruncatedSeries.one(3)
    assert a * a.inverse() == one
    assert a.inverse() * a == one


def test_generator_power_consistency():
    g = TruncatedSeries.generator(3, 1, power=2)
    gg = TruncatedSeries.generator(3, 1) * TruncatedSeries.generator(3, 1)
    assert g == gg
    ginv = TruncatedSeries.generator(3, 1, power=-1)
    assert ginv == TruncatedSeries.generator(3, 1).inverse()
