import importlib.util
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from masseylink import magnus
from masseylink.diagram import parse_pd
from masseylink.errors import NonzeroLinking
from masseylink.fixtures import braid_closure, clasp_family, fixture_names, load_fixture
from masseylink.magnus import (
    TruncatedSeries,
    longitude_series,
    longitude_word,
    milnor_mu,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
ORDERS = list(itertools.permutations((1, 2, 3)))


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


# -- the expansion against a per-arc-inverse reference ---------------------------


def _ref_arc_expansions(d, degree):
    """Magnus series of every arc generator, resolved to the given degree,
    inverting the running conjugator from scratch at every arc."""
    over_pairs = {x.over_out: x.over_in for x in d.crossings}
    exp = {}
    for ci, arcs in enumerate(d.components):
        for a in arcs:
            exp[a] = TruncatedSeries.generator(degree, ci + 1)
    under_at = {x.under_in: x for x in d.crossings}
    for _ in range(max(degree - 1, 1)):
        new = {}
        for ci, arcs in enumerate(d.components):
            base = TruncatedSeries.generator(degree, ci + 1)
            conj = TruncatedSeries.one(degree)
            for a in arcs:
                new[a] = conj.inverse() * base * conj
                x = under_at.get(a)
                if x is not None:
                    g = exp[x.over_in]
                    if x.sign > 0:
                        conj = conj * g
                    else:
                        conj = conj * g.inverse()
        for out_arc, in_arc in over_pairs.items():
            new[out_arc] = new[in_arc]
        exp = new
    return exp


def _free_reduce(word):
    out = []
    for g in word:
        if out and out[-1] == -g:
            out.pop()
        else:
            out.append(g)
    return tuple(out)


def _zero_linking_closures(count=24, seed=20261020):
    """Seeded pure 3-braid closures of 12-60 crossings with zero pairwise
    linking: conjugated pure generators, each shuffled in with its inverse."""
    rng = random.Random(seed)
    pure = ((1, 1), (2, 2), (2, 1, 1, -2))
    out = []
    while len(out) < count:
        tokens = []
        for _ in range(rng.randint(2, 8)):
            c = rng.choice((1, -1, 2, -2))
            tok = (c,) + rng.choice(pure) + (-c,)
            tokens += [tok, tuple(-g for g in reversed(tok))]
        rng.shuffle(tokens)
        word = _free_reduce(sum(tokens, ()))
        if 12 <= len(word) <= 60:
            out.append(braid_closure(word, 3))
    return out


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=10)
       .filter(lambda w: any(g < 0 for g in w)))
def test_carried_inverse_matches_reference_on_closures(word):
    d = braid_closure(tuple(word), 3)
    for degree in (2, 3):
        assert magnus._arc_expansions(d, degree) == _ref_arc_expansions(d, degree)


@pytest.mark.parametrize("name", fixture_names())
def test_carried_inverse_matches_reference_on_fixtures(name):
    d = load_fixture(name)
    for degree in (2, 3):
        assert magnus._arc_expansions(d, degree) == _ref_arc_expansions(d, degree)


def _three_unlinked(d):
    return d.n_components == 3 and not any(
        d.linking_number(a, b) for a, b in ((1, 2), (2, 3), (1, 3)))


def test_degree_two_mu_matches_degree_three_reference(monkeypatch):
    closures = _zero_linking_closures()
    assert all(map(_three_unlinked, closures))
    assert any(milnor_mu(d, (1, 2, 3)) for d in closures)
    fixtures = [d for d in map(load_fixture, fixture_names()) if _three_unlinked(d)]
    for d in fixtures + [clasp_family(k) for k in (1, 2, 3)] + closures:
        with monkeypatch.context() as m:
            m.setattr(magnus, "_arc_expansions", _ref_arc_expansions)
            ref = {k: longitude_series(d, k, 3) for k in (1, 2, 3)}
        for i, j, k in ORDERS:
            assert milnor_mu(d, (i, j, k)) == ref[k].coefficient((i, j)), (d, (i, j, k))


def test_oracle_reproduces_recorded_pool_values():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", PERFBENCH / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    recorded = json.loads((PERFBENCH / "expected.json").read_text())["oracle_pool"]
    pool = inputs.oracle_pool()
    assert inputs.pool_digest(pool) == recorded["digest"]
    got = [[milnor_mu(parse_pd(d.pd), (1, 2, 3)) for d in row] for row in pool]
    assert got == recorded["mu123"]


# -- truncated series algebra ----------------------------------------------------

small = st.integers(-2, 2)
words = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)
degrees = st.sampled_from((2, 3))


def series(degree, count):
    """`count` series at one truncation degree, each with constant term 1."""
    one = st.dictionaries(words, small, max_size=5).map(
        lambda d: TruncatedSeries(degree, d) + TruncatedSeries.one(degree)
    )
    return st.tuples(*[one] * count)


@settings(max_examples=60, deadline=None)
@given(degrees.flatmap(lambda n: series(n, 3)))
def test_series_multiplication_associative(abc):
    a, b, c = abc
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(degrees.flatmap(lambda n: series(n, 1)))
def test_series_inverse(series_1):
    (a,) = series_1
    one = TruncatedSeries.one(a.degree)
    assert a * a.inverse() == one
    assert a.inverse() * a == one


def test_generator_power_consistency():
    g = TruncatedSeries.generator(3, 1, power=2)
    gg = TruncatedSeries.generator(3, 1) * TruncatedSeries.generator(3, 1)
    assert g == gg
    ginv = TruncatedSeries.generator(3, 1, power=-1)
    assert ginv == TruncatedSeries.generator(3, 1).inverse()
