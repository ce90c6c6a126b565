import json

import pytest
from hypothesis import given, settings, strategies as st

from masseylink.diagram import (
    build_diagram,
    parse_gauss,
    parse_pd,
)
from masseylink.errors import (
    InconsistentDiagram,
    InputError,
    MalformedCode,
    MasseyUndefined,
    NonzeroLinking,
    UnknownComponent,
)
from masseylink.fixtures import (
    braid_closure, braid_closure_pd, clasp_family, load_fixture)


def test_unknot0_fixture():
    d = load_fixture("unknot0")
    assert d.n_components == 1
    assert len(d.crossings) == 0
    assert d.linking_matrix() == [[0]]


def test_hopf_pos_parse():
    d = parse_pd("X(1,3,2,4), X(3,1,4,2)")
    assert d.n_components == 2
    assert len(d.crossings) == 2
    assert [x.sign for x in d.crossings] == [1, 1]
    assert d.linking_number(1, 2) == 1
    assert d.linking_matrix() == [[0, 1], [1, 0]]


def test_hopf_under_formula_agrees():
    d = load_fixture("hopf_pos")
    assert d.linking_number_under(1, 2) == d.linking_number(1, 2)
    assert d.linking_number(1, 2) == d.linking_number(2, 1)


def test_borromean_counts_and_linking():
    d = load_fixture("borromean")
    assert d.n_components == 3
    assert len(d.crossings) == 6
    assert d.linking_matrix() == [[0, 0, 0], [0, 0, 0], [0, 0, 0]]


def test_trefoil_is_one_component_writhe_minus_three():
    d = load_fixture("trefoil")
    assert d.n_components == 1
    assert [x.sign for x in d.crossings] == [-1, -1, -1]
    assert d.writhe(1) == -3


def test_json_form_roundtrip():
    d = load_fixture("borromean")
    d2 = parse_pd(json.dumps(d.to_json()))
    assert d2.normalized_pd() == d.normalized_pd()


def test_split_unlink_linking():
    d = parse_pd(json.dumps({"components": 2, "crossings": []}))
    assert d.linking_number(1, 2) == 0


def test_single_component_matrix():
    d = load_fixture("trefoil")
    assert d.linking_matrix() == [[0]]


def test_malformed_pd():
    with pytest.raises(MalformedCode):
        parse_pd("")
    with pytest.raises(MalformedCode):
        parse_pd("X(1,2,3)")
    with pytest.raises(MalformedCode):
        parse_pd("frogs")


@pytest.mark.parametrize("code", [
    "X(0,1,1,0)",
    '{"crossings": [[0, 1, 1, 0]]}',
    '{"crossings": [[-1, 2, 2, -1]]}',
], ids=["tuples", "json", "json negative"])
def test_both_pd_forms_refuse_nonpositive_labels(code):
    # one label rule for both forms, in build_diagram
    with pytest.raises(MalformedCode, match="arc labels must be positive"):
        parse_pd(code)


def test_inconsistent_label_count():
    with pytest.raises(InconsistentDiagram):
        parse_pd("X(1,1,1,2), X(2,3,3,4)")


def test_inconsistent_cycle():
    # under-strand transition 1 -> 3 skips arc 2 of the same component
    with pytest.raises(InconsistentDiagram):
        build_diagram([(1, 4, 3, 5), (3, 5, 2, 6), (2, 6, 1, 4)])


def test_arc_incoming_twice_rejected():
    with pytest.raises(InconsistentDiagram):
        build_diagram([(1, 3, 2, 4), (1, 4, 2, 3)])


def test_unknown_component():
    d = load_fixture("hopf_pos")
    with pytest.raises(UnknownComponent):
        d.linking_number(1, 3)
    with pytest.raises(UnknownComponent):
        d.linking_number(1, 1)


def test_linking_number_under_checks_both_components():
    d = load_fixture("hopf_pos")
    with pytest.raises(UnknownComponent):
        d.linking_number_under(1, 7)
    with pytest.raises(UnknownComponent):
        d.linking_number_under(0, -3)


@pytest.mark.parametrize("components, size", [
    ((1, 2), 3),
    ((1, 2, 2), 3),
    ((1, 2, 4), 3),     # no component 4, beside the linked pair (1, 2)
], ids=["wrong size", "repeat", "unknown"])
def test_check_unlinked_refuses_bad_input_first(components, size):
    with pytest.raises(InputError):
        load_fixture("hopf_split").check_unlinked(components, size)


def test_check_unlinked_refuses_a_linked_pair():
    d = load_fixture("hopf_split")
    d.check_unlinked((1, 3), 2)
    with pytest.raises(NonzeroLinking) as err:
        d.check_unlinked((3, 2, 1), 3)
    assert isinstance(err.value, MasseyUndefined)
    assert str(err.value) == "lk(2,1) = 1"


@pytest.mark.parametrize("name, closure", [
    pytest.param(name, closure, id=name) for name, closure in (
        ("brunn_1", lambda: clasp_family(1)),
        ("brunn_2", lambda: clasp_family(2)),
        ("brunn_3", lambda: clasp_family(3)),
        ("borromean", lambda: clasp_family(1)),
        ("borromean_mirror", lambda: braid_closure((-1, 2) * 3, 3)),
    )])
def test_braid_fixtures_are_their_closures(name, closure):
    d, c = load_fixture(name), closure()
    assert [x.slots for x in d.crossings] == [x.slots for x in c.crossings]
    assert d.components == c.components


# -- Gauss codes -----------------------------------------------------------


def export_gauss(d):
    """Gauss code of a diagram; the inverse of parse_gauss up to relabeling,
    so a round trip checks the parser."""
    chunks = []
    for arcs in d.components:
        toks = []
        for a in arcs:
            if a in d.arc_ends:
                idx, slot = d.arc_ends[a][1]
                s = "+" if d.crossings[idx].sign > 0 else "-"
                toks.append("%s%d%s" % ("U" if slot == 0 else "O", idx + 1, s))
        chunks.append(" ".join(toks))
    return " ; ".join(chunks)


def test_gauss_hopf_matches_pd():
    d = parse_pd("X(1,3,2,4), X(3,1,4,2)")
    g = parse_gauss(export_gauss(d))
    assert g.normalized_pd() == d.normalized_pd()
    assert [x.sign for x in g.crossings] == [1, 1]


def test_gauss_kink():
    d = parse_gauss("O1+ U1+")
    assert d.n_components == 1
    assert len(d.crossings) == 1
    assert d.crossings[0].sign == 1


def test_gauss_empty_is_malformed():
    with pytest.raises(MalformedCode):
        parse_gauss("")
    with pytest.raises(MalformedCode):
        parse_gauss(" ; ")


def test_gauss_sign_mismatch_rejected():
    with pytest.raises(InconsistentDiagram):
        parse_gauss("O1+ U1-")


# -- orientation reversal and the sign rule ---------------------------------


def _reverse_component(d, comp):
    """PD of the same diagram with one component's orientation reversed."""
    arcs = d.component_arcs(comp)
    lo, hi = min(arcs), max(arcs)
    relabel = lambda a: lo + hi - a if a in set(arcs) else a
    tuples = []
    for x in d.crossings:
        t = tuple(relabel(s) for s in x.slots)
        if x.under_component == comp:
            t = t[2:] + t[:2]
        tuples.append(t)
    return build_diagram(tuples)


def test_reversing_one_component_negates_signs():
    d = load_fixture("hopf_pos")
    r = _reverse_component(d, 1)
    assert sorted(x.sign for x in r.crossings) == [-1, -1]
    assert r.linking_number(1, 2) == -1


def test_reversing_both_components_preserves_signs():
    d = load_fixture("hopf_pos")
    r = _reverse_component(_reverse_component(d, 1), 2)
    assert [x.sign for x in r.crossings] == [1, 1]
    assert r.linking_number(1, 2) == 1


# -- randomized properties over braid closures ------------------------------

braid_words = st.lists(
    st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=10
)


@settings(max_examples=60, deadline=None)
@given(braid_words)
def test_braid_closures_parse_consistently(word):
    d = braid_closure(tuple(word), 4)
    # a component with no underpass leaves its over-strand pairing to the
    # parser's tie-break convention, so exact per-crossing signs are only
    # promised when every component goes under somewhere
    unders = {x.under_component for x in d.crossings}
    if unders >= set(range(1, d.n_components + 1)) - {
        c + 1
        for c in range(d.n_components)
        if len(d.components[c]) == 1  # crossingless split circles
    }:
        assert [x.sign for x in d.crossings] == [
            1 if g > 0 else -1 for g in word
        ]
    for a in range(1, d.n_components + 1):
        for b in range(a + 1, d.n_components + 1):
            assert d.linking_number(a, b) == d.linking_number(b, a)
            assert d.linking_number(a, b) == d.linking_number_under(a, b)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from([1, -1, 2, -2]), min_size=1, max_size=10))
def test_gauss_roundtrip_on_braids(word):
    d = braid_closure(tuple(word), 3)
    code = export_gauss(d)
    if not code.replace(";", "").strip():
        return  # crossingless pieces do not export
    if any(not chunk.strip() for chunk in code.split(";")):
        return
    d2 = parse_gauss(code)
    assert d2.normalized_pd() == d.normalized_pd()
