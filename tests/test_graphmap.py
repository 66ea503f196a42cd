from fractions import Fraction as F

import pytest

from corpus import random_cone, random_gamma, random_graph_point, random_tangent_pair, rng
from polyvar import cones, graphmap
from polyvar.cones import PolyCone, face_difference
from polyvar.graphmap import (
    GraphPoint,
    directional_coderivative_normal_map,
    directional_limiting_normal_graph,
    graph_tangent_member,
    limiting_normal_graph,
    regular_normal_graph,
)
from polyvar.linalg import QVector
from polyvar.oracle import piece_sets_equal, sample_graph_directional
from polyvar.sets import Polyhedron


def wedge_graph_point() -> GraphPoint:
    gamma = Polyhedron(2, A=[[1, -2], [1, 2]], b=[0, 0])
    return GraphPoint(gamma, QVector([0, 0]), QVector([0, 0]))


def test_graph_point_validation():
    gamma = Polyhedron(2, A=[[1, -2], [1, 2]], b=[0, 0])
    with pytest.raises(ValueError):
        GraphPoint(gamma, QVector([0, 0]), QVector([0, 1]))  # not a normal vector


def test_graph_tangent_member_cases():
    gp = wedge_graph_point()
    assert graph_tangent_member(gp, QVector([-1, 0]), QVector([0, 0]))
    assert graph_tangent_member(gp, QVector([0, 0]), gp.critical.polar().rays[0])
    assert not graph_tangent_member(gp, QVector([1, 1]), QVector([0, 0]))


def test_graph_tangent_member_turns_each_vector_into_integers_once(monkeypatch):
    gp = wedge_graph_point()
    calls = []
    for module in (graphmap, cones):
        real = module._ints
        monkeypatch.setattr(module, "_ints", lambda v, real=real: calls.append(v) or real(v))
    assert graph_tangent_member(gp, QVector([-1, 0]), QVector([0, 0]))
    assert graph_tangent_member(gp, QVector([0, 0]), gp.critical.polar().rays[0])
    assert len(calls) == 4


@pytest.mark.parametrize(
    "v, vstar",
    (
        ([-1, 0, 0], [0, 0]),  # v too long
        ([-1], [0, 0]),  # v too short
        ([-1, 0], [0, 0, 0]),  # v* too long, v in K
        ([1, 1], [0]),  # v* too short, v not in K
    ),
)
def test_graph_tangent_member_rejects_vectors_of_the_wrong_length(v, vstar):
    with pytest.raises(ValueError, match="point has wrong dimension"):
        graph_tangent_member(wedge_graph_point(), QVector(v), QVector(vstar))


def test_regular_normal_graph():
    gp = wedge_graph_point()
    gnc = regular_normal_graph(gp)
    assert len(gnc.pieces) == 1
    piece = gnc.pieces[0]
    assert piece.k == gp.critical
    assert piece.kpolar == gp.critical.polar()


def test_regular_normal_graph_degenerate():
    whole = Polyhedron(2)
    gp = GraphPoint(whole, QVector([1, 1]), QVector([0, 0]))
    piece = regular_normal_graph(gp).pieces[0]
    assert piece.k == PolyCone.full_space(2) and piece.kpolar.is_trivial()
    point = Polyhedron(2, E=[[1, 0], [0, 1]], e=[0, 0])
    gp2 = GraphPoint(point, QVector([0, 0]), QVector([3, -2]))
    piece2 = regular_normal_graph(gp2).pieces[0]
    assert piece2.k.is_trivial() and piece2.kpolar == PolyCone.full_space(2)


def test_regular_provenance_is_the_faces_of_largest_and_smallest_span():
    # K is the critical cone of K itself at (0, 0); the ends of its face
    # lattice are the faces that span the most and the least
    r = rng(919)
    for i in range(3000):
        k = random_cone(r, 1 + i % 4)
        ineqs, eqs = k._h
        gamma = Polyhedron(k.dim, A=ineqs, b=[0] * len(ineqs), E=eqs, e=[0] * len(eqs))
        zero = QVector.zero(k.dim)
        gp = GraphPoint(gamma, zero, zero)
        (piece,) = regular_normal_graph(gp).pieces
        faces = gp.critical.faces()
        assert piece.k == k
        assert piece.f1 == max(faces, key=lambda f: f.cone.span_dim())
        assert piece.f2 == min(faces, key=lambda f: f.cone.span_dim())


def test_limiting_normal_graph_nine_pieces():
    gp = wedge_graph_point()
    gnc = limiting_normal_graph(gp)
    assert len(gnc.pieces) == 9
    cones = {p.k.key() for p in gnc.pieces}
    assert PolyCone.from_ineqs(2, [[1, 2]]).key() in cones  # halfplane v1/2 + v2 <= 0
    assert PolyCone.from_ineqs(2, [[1, -2]]).key() in cones
    assert PolyCone.origin(2).key() in cones
    assert PolyCone.full_space(2).key() in cones


def test_limiting_normal_graph_small_cases():
    whole = Polyhedron(3)
    gp = GraphPoint(whole, QVector([0, 0, 0]), QVector([0, 0, 0]))
    gnc = limiting_normal_graph(gp)
    assert len(gnc.pieces) == 1 and gnc.pieces[0].k == PolyCone.full_space(3)
    # a supported halfline: critical cone is one ray; pairs give {0}, ray, line
    halfline = Polyhedron(2, A=[[0, -1], [0, 1]], b=[0, 0], E=[], e=[])
    gp2 = GraphPoint(halfline, QVector([0, 0]), QVector([0, 0]))
    k = gp2.critical
    assert len(k.rays) + len(k.lin) >= 1


def test_single_ray_critical_cone_pieces():
    gamma = Polyhedron(2, A=[[-1, 0], [0, -1]], b=[0, 0])  # R2+
    gp = GraphPoint(gamma, QVector([0, 0]), QVector([-1, 0]))
    # critical cone = {u : u1 >= 0} ∩ [(-1,0)]^⊥ = ray e2... compute:
    assert gp.critical == PolyCone.from_generators(2, [[0, 1]])
    gnc = limiting_normal_graph(gp)
    cones = sorted((len(p.k.rays), len(p.k.lin)) for p in gnc.pieces)
    # pairs of the ray cone's faces: {0}, the ray, and the full line
    assert len(gnc.pieces) == 3
    assert cones == [(0, 0), (0, 1), (1, 0)]


def test_directional_cases_of_worked_example():
    gp = wedge_graph_point()
    d1 = directional_limiting_normal_graph(gp, QVector([-1, 0]), QVector([0, 0]))
    assert len(d1.pieces) == 1
    assert d1.pieces[0].k == PolyCone.full_space(2)
    assert d1.pieces[0].kpolar.is_trivial()
    d4 = directional_limiting_normal_graph(gp, QVector([0, 0]), QVector([1, 0]))
    assert len(d4.pieces) == 1
    assert d4.pieces[0].k.is_trivial()
    assert d4.pieces[0].kpolar == PolyCone.full_space(2)
    # case (ii): direction along the upper edge with its normal shift
    v = QVector([F(-4, 3), F(2, 3)])
    vstar = QVector([F(1, 3), F(2, 3)])
    d2 = directional_limiting_normal_graph(gp, v, vstar)
    assert len(d2.pieces) == 1
    k1 = d2.pieces[0].k
    assert k1 == PolyCone.from_generators(2, lin=[[-1, F(1, 2)]])


def test_directional_rejects_off_tangent():
    gp = wedge_graph_point()
    with pytest.raises(ValueError):
        directional_limiting_normal_graph(gp, QVector([1, 1]), QVector([0, 0]))


def test_zero_direction_collapse():
    gp = wedge_graph_point()
    zero = QVector([0, 0])
    a = directional_limiting_normal_graph(gp, zero, zero)
    b = limiting_normal_graph(gp)
    assert {p.k.key() for p in a.pieces} == {p.k.key() for p in b.pieces}


def test_sandwich_and_provenance_on_corpus():
    r = rng(41)
    for i in range(10):
        gamma = random_gamma(r, 2 + (i % 2))
        ybar, ybarstar = random_graph_point(r, gamma)
        gp = GraphPoint(gamma, ybar, ybarstar)
        reg = regular_normal_graph(gp)
        lim = limiting_normal_graph(gp)
        v, vstar = random_tangent_pair(r, gp.critical)
        assert graph_tangent_member(gp, v, vstar)
        mid = directional_limiting_normal_graph(gp, v, vstar)
        reg_keys = {p.k.key() for p in reg.pieces}
        mid_keys = {p.k.key() for p in mid.pieces}
        lim_keys = {p.k.key() for p in lim.pieces}
        # the face-pair filters only remove pieces, and at direction zero
        # nothing is removed; the regular piece always survives there
        assert mid_keys <= lim_keys
        assert reg_keys <= lim_keys
        zero = QVector.zero(gamma.dim)
        at_zero = {p.k.key() for p in directional_limiting_normal_graph(gp, zero, zero).pieces}
        assert reg_keys <= at_zero == lim_keys
        for p in mid.pieces:
            assert p.kpolar == p.k.polar()
            assert face_difference(p.f1.cone, p.f2.cone) == p.k
            assert p.f2.cone.contains(v)
            assert p.f2.cone.subcone_of(p.f1.cone)
            assert all(vstar.dot(g) == 0 for g in p.f1.cone.generators())


def test_directional_coderivative_of_normal_map():
    gp = wedge_graph_point()
    v = QVector([F(-4, 3), F(2, 3)])
    vstar = QVector([F(1, 3), F(2, 3)])
    # -wstar on the K1 line: coderivative value is the perpendicular line
    wstar = QVector([2, -1])
    got = directional_coderivative_normal_map(gp, v, vstar, wstar)
    assert got.pieces == (PolyCone.from_generators(2, lin=[[1, 2]]),)
    # wstar = 0 lies in every piece: union of all polars
    everything = directional_coderivative_normal_map(gp, v, vstar, QVector([0, 0]))
    assert not everything.is_empty()
    # -wstar outside every piece: empty value
    outside = directional_coderivative_normal_map(gp, v, vstar, QVector([0, 1]))
    assert outside.is_empty()


def test_graph_oracle_agreement_on_corpus():
    r = rng(53)
    done = 0
    for i in range(8):
        gamma = random_gamma(r, 2)
        ybar, ybarstar = random_graph_point(r, gamma)
        gp = GraphPoint(gamma, ybar, ybarstar)
        v, vstar = random_tangent_pair(r, gp.critical)
        closed = directional_limiting_normal_graph(gp, v, vstar)
        sampled = sample_graph_directional(gp, v, vstar)
        assert piece_sets_equal([p.k for p in closed.pieces], sampled)
        done += 1
    assert done == 8
