"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report.  Every tolerance here is exact integer equality; the two runtime
budgets are asserted in wall-clock seconds.
"""

import itertools
import json
import random
import time
from fractions import Fraction

import pytest

from masseylink.chains import (
    Chain,
    DualComplex,
    boundary,
    boundary_simplex,
    coboundary,
    evaluate_triple_pairing,
    torus_9,
    u_basis,
    _random_chain,
    _random_cochain,
)
from masseylink.cli import main as cli_main
from masseylink.embed import build_embedding, meridian, pushoff_cycle
from masseylink.errors import MasseyUndefined
from masseylink.fixtures import load_fixture
from masseylink.magnus import milnor_mu
from masseylink.massey import first_term, massey3, second_term
from masseylink.plgeom import v_add, v_scale
from masseylink.rational import Q
from masseylink.trace import trace_derived_boundary
from plref import (
    orient3,
    plane_side,
    point_in_triangle,
    point_on_segment,
    rational_triangle_triangle,
)

ORACLE_FIXTURES = ["borromean", "borromean_mirror", "brunn_1", "brunn_2", "brunn_3"]


@pytest.fixture(scope="module")
def oracle_embeddings():
    return {name: build_embedding(load_fixture(name)) for name in ORACLE_FIXTURES}


def test_criterion_1_borromean_third_order():
    t0 = time.time()
    r = massey3(load_fixture("borromean"), (1, 2, 3))
    elapsed = time.time() - t0
    assert (r.term_first, r.term_second) == (1, 0)
    assert r.value == 1
    assert elapsed < 10.0
    print("criterion 1: PASS  massey3(borromean, 1,2,3) = 1 + 0 = 1  (%.1fs)" % elapsed)


def test_criterion_2_oracle_equivalence(oracle_embeddings):
    assert len(ORACLE_FIXTURES) >= 5
    for name, e in oracle_embeddings.items():
        d = e.diagram
        assert d.linking_matrix() == [[0] * 3 for _ in range(3)]
        for order in itertools.permutations((1, 2, 3)):
            v = massey3(e, order).value
            mu = milnor_mu(d, order)
            assert v == -mu, (name, order, v, mu)
    print("criterion 2: PASS  massey3 = -milnor mu in all six orderings on %d fixtures"
          % len(ORACLE_FIXTURES))


def test_criterion_3_trivial_vanishing():
    for name in ("unlink3", "split_trefoil"):
        r = massey3(load_fixture(name), (1, 2, 3))
        assert r.value == 0, name
    print("criterion 3: PASS  unlink and split fixtures give 0 exactly")


def test_criterion_4_definedness_guard(capsys):
    with pytest.raises(MasseyUndefined):
        massey3(load_fixture("hopf_split"), (1, 2, 3))
    code = cli_main(["massey3", "--order", "1,2,3", "--fixture", "hopf_split"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out.strip() == ""  # never a number
    print("criterion 4: PASS  nonzero pairwise linking yields exit 2, no value")


def test_criterion_5_choice_and_framing_independence(oracle_embeddings):
    from masseylink.plgeom import curve_surface_count

    checked = 0
    for name, e in oracle_embeddings.items():
        db23 = trace_derived_boundary(e, 2, 3)
        base_first = first_term(e, db23, 1)
        for m in (2, 3):
            extra = curve_surface_count(e.curves[m], e.surfaces[1])
            assert base_first + extra == base_first, name
            checked += 1
        db12 = trace_derived_boundary(e, 1, 2)
        base_second = second_term(e, db12, 1, 3)
        F_3 = e.surfaces[3]
        twist = curve_surface_count(meridian(e, 1), F_3)
        assert base_second + twist == base_second, name
        longitude = pushoff_cycle(e.curves[1], e.tube_radius)
        assert base_second + curve_surface_count(longitude, F_3) == base_second, name
        checked += 2
    print("criterion 5: PASS  %d independence checks, all exact" % checked)


def test_criterion_6_tracer_totality(oracle_embeddings):
    pairs_checked = 0
    for name, e in oracle_embeddings.items():
        for (a, b) in ((1, 2), (2, 3), (1, 3)):
            db = trace_derived_boundary(e, a, b)
            labels = [p.label for p in db.pierce_points]
            assert len(labels) % 2 == 0, name
            assert sum(labels) == 0, name
            # each pierce point is an endpoint of exactly one along piece
            # and one interior arc
            along_ends = []
            interior_ends = []
            for loop in db.loops:
                for piece in loop:
                    if piece.kind == "along" and piece.component == a:
                        along_ends += [piece.points[0], piece.points[-1]]
                    elif piece.kind == "interior":
                        interior_ends += [piece.points[0], piece.points[-1]]
                # loops close
                for k, piece in enumerate(loop):
                    assert piece.points[-1] == loop[(k + 1) % len(loop)].points[0]
            for p in db.pierce_points:
                assert along_ends.count(p.location) == 1, name
                assert interior_ends.count(p.location) == 1, name
            pairs_checked += 1
    print("criterion 6: PASS  totality on %d traced pairs" % pairs_checked)


def test_criterion_7_chains_engine():
    t0 = time.time()
    # (a) the worked dual-product example
    K = boundary_simplex(4)
    dual = DualComplex(K)
    sub = dual.sub
    for sigma in K.simplices(2):
        for i in range(3):
            tau = sigma[:i] + sigma[i + 1:]
            prod = dual.intersection_product(
                Chain(2, {sigma: 1}), dual.phi(u_basis(tau))
            )
            inc = boundary(Chain(2, {sigma: 1})).coeffs[tau]
            assert prod == Chain(
                1, {(sub.vertex_of[tau], sub.vertex_of[sigma]): inc}
            )
        front = sigma[:2]
        prod = dual.intersection_product(
            Chain(2, {sigma: 1}), dual.phi(u_basis(front))
        )
        assert list(prod._clean().values()) == [1]
    # (b) 200 random triple pairings with coefficients in [-3, 3]
    rng = random.Random(11)
    for _ in range(200):
        alpha = _random_cochain(rng, K.simplices(1), 1)
        beta = _random_cochain(rng, K.simplices(1), 1)
        T = _random_chain(rng, K.simplices(2), 2)
        lhs, rhs = evaluate_triple_pairing(dual, T, alpha, beta)
        assert lhs == rhs
    # (c) the duality coboundary identity on the sphere and the torus
    for Kc in (K, torus_9()):
        dc = DualComplex(Kc)
        for s in Kc.all_simplices():
            p = len(s) - 1
            if p == Kc.dim:
                continue
            lhs = dc.realize(dc.phi(coboundary(Kc, u_basis(s))))
            rhs = (-1) ** (p + 1) * boundary(dc.dual_cell(s))
            assert lhs == rhs
    # (d) the boundary formula for 200 random pairs on the 3-sphere,
    # with the stated signs (n = 3)
    n = 3
    for _ in range(200):
        p = rng.randint(1, n)
        q = rng.randint(max(n - p + 1, 1), n)
        a = _random_chain(rng, K.simplices(p), p)
        b = dual.phi(_random_cochain(rng, K.simplices(n - q), n - q))
        lhs = boundary(dual.intersection_product(a, b))
        rhs = (-1) ** (n - q) * dual.intersection_product(boundary(a), b) + (
            -1
        ) ** (n + 1) * dual.intersection_product(a, dual.dual_boundary(b))
        assert lhs == rhs
    elapsed = time.time() - t0
    assert elapsed < 60.0
    print("criterion 7: PASS  chains engine identities, exact  (%.1fs)" % elapsed)


def _rand_q(rng):
    return Q(rng.randint(-12, 12), rng.choice([1, 2, 3, 4]))


def _rand_point(rng):
    return (_rand_q(rng), _rand_q(rng), _rand_q(rng))


def _rand_triangle(rng, planar=False):
    while True:
        t = tuple(_rand_point(rng) for _ in range(3))
        if planar:
            t = tuple((p[0], p[1], Q(0)) for p in t)
        if orient3(t[0], t[1], t[2], v_add(t[0], (0, 0, 1))) != 0 or planar:
            from masseylink.plgeom import tri_normal

            if tri_normal(t) != (0, 0, 0):
                return t


def _in_triangle3(tri, p):
    return plane_side(tri, p) == 0 and point_in_triangle(tri, p) != "outside"


def _in_result(res, p):
    if res[0] == "empty":
        return False
    if res[0] == "point":
        return p == res[1]
    if res[0] == "segment":
        return point_on_segment(res[1][0], res[1][1], p)
    poly = res[1]
    for i in range(1, len(poly) - 1):
        tri = (poly[0], poly[i], poly[i + 1])
        from masseylink.plgeom import tri_normal

        if tri_normal(tri) == (0, 0, 0):
            if point_on_segment(poly[0], poly[i + 1], p):
                return True
            continue
        if _in_triangle3(tri, p):
            return True
    return False


def _sample_points(rng, t1, t2, res):
    pts = []
    for tri in (t1, t2):
        for _ in range(20):
            w = [Q(rng.randint(0, 6)) for _ in range(3)]
            tot = sum(w) or Q(1)
            p = (Q(0), Q(0), Q(0))
            for wi, v in zip(w, tri):
                p = v_add(p, v_scale(v, Q(wi, 1) / tot))
            pts.append(p)
    if res[0] == "point":
        pts += [res[1]] * 10
    elif res[0] == "segment":
        a, b = res[1]
        for _ in range(10):
            t = Q(rng.randint(0, 8), 8)
            pts.append(v_add(v_scale(a, 1 - t), v_scale(b, t)))
    elif res[0] == "polygon":
        pts += list(res[1])[:10]
    return pts[:50] if len(pts) >= 50 else pts + [t1[0]] * (50 - len(pts))


def test_criterion_8_pl_kernel_oracles():
    rng = random.Random(12)
    pairs = 0
    while pairs < 1000:
        planar = rng.random() < 0.3
        t1 = _rand_triangle(rng, planar=planar)
        t2 = _rand_triangle(rng, planar=planar)
        res = rational_triangle_triangle(t1, t2)
        for p in _sample_points(rng, t1, t2, res):
            in_both = _in_triangle3(t1, p) and _in_triangle3(t2, p)
            assert in_both == _in_result(res, p), (t1, t2, res, p)
        pairs += 1

    # orientation predicate against an independent determinant expansion
    def det_oracle(p, q, r, s):
        rows = [
            [Fraction(int((x - y).numerator), int((x - y).denominator))
             for x, y in zip(v, p)]
            for v in (q, r, s)
        ]
        det = (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )
        return (det > 0) - (det < 0)

    for _ in range(10**4):
        p, q, r, s = (_rand_point(rng) for _ in range(4))
        assert orient3(p, q, r, s) == det_oracle(p, q, r, s)
    print("criterion 8: PASS  1000 triangle pairs + 10^4 orientation quadruples")


def test_criterion_9_figure_only_example_excluded():
    # the published three-component example with third-order value -3 exists
    # only as a picture; it is excluded and documented, with quantitative
    # coverage supplied by the clasp family instead (criterion 2)
    import os

    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    readme = open(os.path.join(here, "README.md")).read()
    assert "-3" in readme and "figure" in readme.lower()
    from masseylink.fixtures import fixture_names

    assert all("example2" not in n for n in fixture_names())
    print("criterion 9: PASS  figure-only example documented as excluded")
