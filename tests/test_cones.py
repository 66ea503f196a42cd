import json
from fractions import Fraction as F
from itertools import combinations, product
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import counting_dd, random_cone, rng
from polyvar.cones import (
    PolyCone,
    _canonical,
    _dd,
    _dd_steps,
    _generators,
    _of_rows,
    _orthogonal,
    _project_off,
    cone_plain,
    face_difference,
    open_cell,
    strictly_feasible,
)
from polyvar.linalg import QVector, _dot, _ints, _kernel, _neg, _reduce, rank_of_rows, vec_plain
from polyvar.sets import Polyhedron, critical_cone


def wedge():
    # {z : z1/2 <= z2 <= -z1/2}
    return PolyCone.from_ineqs(2, [[F(1, 2), -1], [F(1, 2), 1]])


CORPUS = [random_cone(rng(100 + i), d) for d in (2, 3, 4) for i in range(14)]


def test_orthant_from_ineqs():
    c = PolyCone.from_ineqs(2, [[-1, 0], [0, -1]])
    assert set(c.rays) == {QVector([1, 0]), QVector([0, 1])}
    assert c.lin == ()


def test_wedge_rays():
    assert set(wedge().rays) == {QVector([-2, 1]), QVector([-2, -1])}


def test_whole_space_from_no_constraints():
    c = PolyCone.from_ineqs(2)
    assert c.rays == () and len(c.lin) == 2


def test_generators_halfline_and_trivial():
    h = PolyCone.from_generators(2, [[-1, F(1, 2)]])
    assert h.rays == (QVector([-2, 1]),)
    t = PolyCone.from_generators(2)
    assert t.is_trivial()


def test_opposite_rays_become_line():
    c = PolyCone.from_generators(2, [[1, 0], [-1, 0]])
    assert c.rays == () and len(c.lin) == 1


def test_polar_orthant():
    assert PolyCone.from_ineqs(2, [[-1, 0], [0, -1]]).polar() == PolyCone.from_ineqs(
        2, [[1, 0], [0, 1]]
    )


def test_polar_wedge():
    p = wedge().polar()
    assert set(p.rays) == {QVector([1, 2]), QVector([1, -2])}


def test_polar_origin_is_everything():
    assert PolyCone.origin(3).polar() == PolyCone.from_ineqs(3)


def test_intersect_orthants_trivial():
    plus = PolyCone.from_ineqs(2, [[-1, 0], [0, -1]])
    minus = PolyCone.from_ineqs(2, [[1, 0], [0, 1]])
    assert plus.intersect(minus).is_trivial()


def test_minkowski_sum_of_wedge_edges():
    f2 = PolyCone.from_generators(2, [[-1, F(1, 2)]])
    f3 = PolyCone.from_generators(2, [[-1, -F(1, 2)]])
    assert f2.minkowski_sum(f3) == wedge()


def test_faces_of_wedge():
    faces = wedge().faces()
    assert len(faces) == 4
    spans = sorted(f.cone.dim - len(f.cone._h[1]) for f in faces)
    assert spans == [0, 1, 1, 2]


def test_faces_of_orthant():
    assert len(PolyCone.from_ineqs(2, [[-1, 0], [0, -1]]).faces()) == 4
    n = 7  # one face per set of active facets, spanned by the other n - k rays
    faces = PolyCone.from_ineqs(n, [[-1 if i == j else 0 for i in range(n)] for j in range(n)]).faces()
    assert len(faces) == 2**n
    assert all(len(f.cone.rays) == n - len(f.active_set) for f in faces)


def test_faces_of_line():
    line = PolyCone.from_generators(2, lin=[[1, 0]])
    faces = line.faces()
    assert len(faces) == 1 and faces[0].cone == line


def test_face_witness_recovers_face():
    # the sum z* of a face's active rows lies in the polar and exposes it
    c = wedge()
    for f in c.faces():
        witness = sum((c.ineqs[i] for i in f.active_set), QVector.zero(2))
        assert c.polar().contains(witness)
        cut = PolyCone.from_ineqs(2, list(c.ineqs), list(c.eqs) + [witness])
        assert cut == f.cone


def test_face_difference_examples():
    k = wedge()
    f2 = PolyCone.from_generators(2, [[-2, 1]])
    d = face_difference(f2, f2)
    assert d.rays == () and len(d.lin) == 1  # the line through (-2, 1)
    k4 = face_difference(k, f2)
    assert k4 == PolyCone.from_ineqs(2, [[1, 2]])
    z = PolyCone.origin(2)
    assert face_difference(z, z).is_trivial()


def test_face_difference_requires_containment():
    with pytest.raises(ValueError):
        face_difference(PolyCone.from_generators(2, [[1, 0]]), PolyCone.from_generators(2, [[0, 1]]))


def test_subcone_of_rejects_other_dimension():
    flat = PolyCone.from_generators(2, [[1, 0]])
    half = PolyCone.from_ineqs(3, [[-1, 0, 0]])
    with pytest.raises(ValueError):
        flat.subcone_of(half)
    with pytest.raises(ValueError):
        face_difference(half, flat)


def test_membership_helpers():
    plus = PolyCone.from_ineqs(2, [[-1, 0], [0, -1]])
    assert plus.contains(QVector([1, 1]))
    assert not plus.contains(QVector([-1, 1]))
    e1 = PolyCone.from_generators(2, [[1, 0]])
    diag = PolyCone.from_generators(2, [[-1, 1]])
    assert e1.intersect(diag).is_trivial()
    f2 = PolyCone.from_generators(2, [[-1, F(1, 2)]])
    ri = f2.rel_interior_point()
    assert ri == QVector([-2, 1])
    assert PolyCone.origin(2).rel_interior_point() == QVector([0, 0])


def test_rel_interior_point_strictness():
    c = PolyCone.from_ineqs(3, [[-1, 0, 0], [0, -1, 0]])
    p = c.rel_interior_point()
    assert c.contains(p)
    for a in c.ineqs:
        assert a.dot(p) < 0


def test_polar_involution_on_corpus():
    for c in CORPUS:
        assert c.polar().polar() == c


def test_polarity_duality_laws_on_corpus():
    r = rng(7)
    pairs = [(random_cone(r, d), random_cone(r, d)) for d in (2, 3) for _ in range(8)]
    for c1, c2 in pairs:
        assert c1.intersect(c2).polar() == c1.polar().minkowski_sum(c2.polar())
        assert c1.minkowski_sum(c2).polar() == c1.polar().intersect(c2.polar())


def test_face_lattice_closed_under_intersection():
    for c in CORPUS[:24]:
        faces = c.faces()
        keys = {f.cone.key() for f in faces}
        for f1 in faces:
            for f2 in faces:
                assert f1.cone.intersect(f2.cone).key() in keys


def test_faces_are_active_set_slices():
    for c in CORPUS[:18]:
        for f in c.faces():
            assert f.cone.subcone_of(c)
            cut = PolyCone.from_ineqs(
                c.dim, list(c.ineqs), list(c.eqs) + [c.ineqs[i] for i in sorted(f.active_set)]
            )
            assert cut == f.cone


def test_vrep_hrep_mutual_consistency():
    for c in CORPUS:
        for g in c.generators():
            assert c.contains(g)
        # every inequality row is active somewhere on the cone (irredundant)
        for a in c.ineqs:
            assert any(a.dot(g) < 0 for g in c.generators()) or all(
                a.dot(g) == 0 for g in c.generators()
            )


def test_face_difference_of_face_with_itself_is_its_span():
    line = PolyCone.from_generators(3, lin=[[1, 1, 0]])
    assert face_difference(line, line) == line
    ray = PolyCone.from_generators(3, [[1, 2, 0]])
    d = face_difference(ray, ray)
    assert d.rays == () and len(d.lin) == 1


def tangent_difference(f1, f2):
    """F1 - F2 by the conversion ``face_difference`` replaced: the cone of
    F1's equations and of the rows of F1 that vanish on every generator of
    F2, the tangent cone of F1 at a relative-interior point of F2."""
    (ineqs, eqs), gens = f1._h, f2._int_generators()
    return _of_rows(f1.dim, [a for a in ineqs if not any(_dot(a, g) for g in gens)], eqs)


@st.composite
def nested_cones(draw):
    """(F1, F2) with F2 ⊆ F1: F1 a corpus cone, one of its faces, the trivial
    cone, the full space or a lineality-only cone; F2 a face of F1, a cone of
    the pool inside F1, or the cone of some of F1's generators (not always a
    face)."""
    dim = draw(st.integers(1, 4))
    r = rng(draw(st.integers(0, 10**6)))
    c = random_cone(r, dim)
    pool = [PolyCone.origin(dim), PolyCone.from_ineqs(dim), PolyCone.from_generators(dim, lin=[[1] * dim])]
    pool += [c, PolyCone.from_generators(dim, lin=c.lin), *(f.cone for f in c.faces())]
    f1 = draw(st.sampled_from(pool))
    inner = [f.cone for f in f1.faces()] + [d for d in pool if d.subcone_of(f1)]
    gens = f1.generators()
    inner.append(PolyCone.from_generators(dim, draw(st.lists(st.sampled_from(gens), max_size=4)) if gens else []))
    return f1, draw(st.sampled_from(inner))


@settings(max_examples=150, deadline=None)
@given(nested_cones())
def test_face_difference_is_the_tangent_cone_conversion_hypothesis(pair):
    # F1 - F2 is the polar of the face of F1's polar that F2's rays expose:
    # the same canonical cone as the conversion of F1's rows that vanish on
    # F2, read off with no double description pass
    f1, f2 = pair
    with counting_dd() as calls:
        got = face_difference(f1, f2)
        views = got.key(), got._h, got._v
    ref = tangent_difference(f1, f2)
    assert calls == [] and views == (ref.key(), ref._h, ref._v)
    if not f1.subcone_of(f2):
        with pytest.raises(ValueError, match="^face_difference requires F2 to be contained in F1$"):
            face_difference(f2, f1)


def test_face_difference_errors():
    with pytest.raises(ValueError, match="^face_difference requires F2 to be contained in F1$"):
        face_difference(PolyCone.from_generators(2, [[1, 0]]), PolyCone.from_generators(2, lin=[[1, 0]]))
    with pytest.raises(ValueError, match="^cone dimension mismatch$"):
        face_difference(PolyCone.from_ineqs(3), PolyCone.origin(2))


small_ints = st.integers(-2, 2)


def cone_strategy(dim):
    rows = st.lists(st.lists(small_ints, min_size=dim, max_size=dim), min_size=0, max_size=dim + 2)
    return rows.map(
        lambda rs: PolyCone.from_ineqs(dim, [r for r in rs if any(r)])
    )


@settings(max_examples=40, deadline=None)
@given(cone_strategy(3))
def test_polar_involution_hypothesis(c):
    assert c.polar().polar() == c


@settings(max_examples=30, deadline=None)
@given(cone_strategy(2), cone_strategy(2))
def test_duality_laws_hypothesis(c1, c2):
    assert c1.intersect(c2).polar() == c1.polar().minkowski_sum(c2.polar())
    assert c1.minkowski_sum(c2).polar() == c1.polar().intersect(c2.polar())


# -- meets and sums continue the first operand's conversion -------------------------


def cold_meet(a, b):
    """Reference for ``PolyCone.intersect``: one fresh conversion of the
    stacked rows of both operands."""
    return PolyCone.from_ineqs(a.dim, a._h[0] + b._h[0], a._h[1] + b._h[1])


def cold_sum(a, b):
    """Reference for ``PolyCone.minkowski_sum``: one fresh conversion of the
    stacked generators of both operands."""
    return PolyCone.from_generators(a.dim, a._v[0] + b._v[0], a._v[1] + b._v[1])


def make_cone(dim, side):
    """A cone from (as_generators, rows, more): rays and lineality vectors
    when ``as_generators``, inequality and equation rows otherwise."""
    as_generators, rows, more = side
    return (PolyCone.from_generators if as_generators else PolyCone.from_ineqs)(dim, rows, more)


@st.composite
def cone_pairs(draw):
    """(dim, side of a, side of b) for ``make_cone``, up to dimension 4: each
    operand from either side, with zero, repeated and opposite rows; "same"
    gives b the rows of a, "nested" gives b more rows of a's kind (more
    constraints, or fewer generators), and "swap" exchanges the two."""
    dim = draw(st.integers(0, 4))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)

    def side():
        return draw(st.booleans()), draw(st.lists(row, max_size=dim + 2)), draw(st.lists(row, max_size=2))

    a, b = side(), side()
    relation = draw(st.sampled_from(["free", "same", "nested"]))
    if relation == "same":
        b = a
    elif relation == "nested":
        as_generators, rows, more = a
        b = (as_generators, rows[: len(rows) // 2], more) if as_generators else (False, rows + b[1], more)
    if draw(st.booleans()):
        a, b = b, a
    return dim, a, b


@settings(max_examples=200, deadline=None)
@given(cone_pairs())
@example((0, (False, [], []), (True, [], [])))  # dim 0
@example((3, (True, [], []), (False, [[1, 0, 0]], [])))  # a = {0}
@example((3, (False, [[-1, 0, 0]], []), (True, [], [])))  # b = {0}
@example((3, (False, [], []), (True, [[1, 0, 0], [0, 1, 1]], [])))  # a = R^n
@example((3, (True, [[1, 0, 0]], [[0, 1, 0]]), (False, [], [])))  # b = R^n
@example((3, (True, [], [[1, 2, 0]]), (False, [[1, 0, 0], [0, -1, 0]], [])))  # lineality only
@example((3, (False, [[0, 0, 1]], []), (True, [], [[1, 2, 0], [0, 1, 1]])))
@example((3, (False, [], [[1, 1, 0], [0, 1, 1]]), (False, [], [[1, 0, 0]])))  # equations only
@example((2, (False, [[-1, 0], [0, -1]], []), (False, [[-1, 0]], [])))  # a ⊆ b
@example((2, (False, [[-1, 0]], []), (True, [[1, 0], [1, 1]], [])))  # b ⊆ a
@example((2, (False, [[-1, 0], [0, -1]], []), (True, [[1, 0], [0, 1]], [])))  # a == b
@example((2, (False, [[-1, 0], [0, -1]], []), (False, [[1, 0], [0, 1]], [])))  # meet only at 0
@example((3, (True, [[1, 0, 0], [0, 1, 0]], []), (True, [[-1, 0, 0], [0, -1, 0]], [])))  # sum a plane
@example((2, (False, [[1, 1], [1, 1], [-1, -1]], []), (False, [[1, 1], [2, 2], [-1, -1], [0, 1]], [])))  # duplicates
@example((3, (True, [[1, 0, 0], [0, 1, 0], [0, 0, 1]], []), (False, [[0, 0, 1]], [[1, -1, 0]])))  # b has eqs
@example((3, (False, [[-1, 0, 0]], [[0, 0, 1]]), (False, [[0, 1, 0]], [[1, -1, 0], [0, 0, 1]])))
def test_meet_and_sum_match_the_cold_conversion_hypothesis(pair):
    # The warm meet and sum give the cone, the canonical forms and the JSON
    # of one conversion of the stacked rows (or generators) of both
    # operands; each is one conversion, and reading its second side (off the
    # incidence for the meet, off the meet of the polars for the sum) makes
    # none.
    dim, a_side, b_side = pair
    for op, cold in (("intersect", cold_meet), ("minkowski_sum", cold_sum)):
        a, b = make_cone(dim, a_side), make_cone(dim, b_side)
        with counting_dd() as calls:
            got = getattr(a, op)(b)
            assert len(calls) == 1
            views = (got.key(), got._h, got._v, json.dumps(cone_plain(got), sort_keys=True))
            assert len(calls) == 1
        want = cold(a, b)
        assert views == (want.key(), want._h, want._v, json.dumps(cone_plain(want), sort_keys=True))


def test_a_meet_processes_only_the_second_operands_new_rows():
    # a ∩ b is one pass of the step loop from a's generators and facets: its
    # new rows are b's facets that are not a's, and each of b's equations e
    # as e and -e.
    a = PolyCone.from_ineqs(3, [[-1, 0, 0], [0, -1, 0], [1, 1, -1]])
    b = PolyCone.from_ineqs(3, [[-1, 0, 0], [0, 1, -2]], [[0, 1, -1]])
    (a_ineqs, a_eqs), (a_rays, a_lin) = a._h, a._v
    assert b._h == (((-1, 0, 0), (0, -1, -1)), ((0, 1, -1),))
    with counting_dd() as calls:
        meet = a.intersect(b)
    [(dim, basis, rays, zeros, done, new, eq_echelon)] = calls
    assert (dim, list(basis), rays, done, eq_echelon) == (3, list(a_lin), a_rays, a_ineqs, a_eqs)
    assert zeros == [sum(1 << i for i, r in enumerate(a_ineqs) if _dot(r, ray) == 0) for ray in a_rays]
    assert new == [(0, -1, -1), (0, 1, -1), (0, -1, 1)]
    assert meet == cold_meet(a, b)
    # the sum continues the polar of a through the rays of b (its facets)
    with counting_dd() as calls:
        total = a.minkowski_sum(b)
    [(*_, done, new, eq_echelon)] = calls
    assert done == a._v[0] and eq_echelon == a._v[1]
    assert new == [r for r in b._v[0] if r not in a._v[0]] + [r for l in b._v[1] for r in (l, _neg(l))]
    assert total == cold_sum(a, b)


@settings(max_examples=25, deadline=None)
@given(cone_strategy(3))
def test_generators_satisfy_own_hrep_hypothesis(c):
    for g in c.generators():
        assert c.contains(g)
    for f in c.faces():
        assert f.cone.subcone_of(c)


# -- property tests of the integer kernel on rational and degenerate input ---------


@st.composite
def rational_systems(draw):
    """(dim, ineqs, eqs) with non-integer rational rows, zero rows, repeated
    and opposite rows, systems of equations only, and empty lists; "pointed"
    prepends the orthant rows, so later rows must combine rays."""
    dim = draw(st.integers(1, 4))
    scalar = st.one_of(small_ints, st.fractions(-2, 2, max_denominator=4))
    row = st.lists(scalar, min_size=dim, max_size=dim)
    ineqs = draw(st.lists(row, max_size=dim + 2))
    eqs = draw(st.lists(row, max_size=2))
    for shape in draw(st.sets(st.sampled_from(["pointed", "zero", "repeat", "opposite", "eqs_only"]))):
        if shape == "pointed":
            ineqs = [[-F(1, j + 1) if i == j else 0 for i in range(dim)] for j in range(dim)] + ineqs
        elif shape == "zero":
            ineqs.append([0] * dim)
        elif shape == "repeat" and ineqs:
            s = draw(st.fractions(F(1, 3), 3))
            ineqs.append([s * x for x in ineqs[0]])
        elif shape == "opposite" and ineqs:
            ineqs.append([-x for x in ineqs[-1]])
        elif shape == "eqs_only":
            ineqs = []
            eqs = eqs or [[1] + [0] * (dim - 1)]
    return dim, ineqs, eqs


@settings(max_examples=80, deadline=None)
@given(rational_systems())
def test_rays_are_extreme_and_complete_hypothesis(system):
    dim, ineqs, eqs = system
    c = PolyCone.from_ineqs(dim, ineqs, eqs)
    rows = [QVector(a) for a in ineqs]
    for r in c.rays:
        assert all(a.dot(r) <= 0 for a in rows) and all(QVector(e).dot(r) == 0 for e in eqs)
        tight = list(c.eqs) + [a for a in c.ineqs if a.dot(r) == 0]
        assert rank_of_rows(tight) == dim - len(c.lin) - 1
    assert c.dim - len(c._h[1]) == rank_of_rows(list(c.rays) + list(c.lin))
    # no ray is missing: on a grid, membership agrees with the input rows
    for z in map(QVector, product(range(-2, 3), repeat=dim)):
        feasible = all(a.dot(z) <= 0 for a in rows) and all(QVector(e).dot(z) == 0 for e in eqs)
        assert c.contains(z) == feasible


@settings(max_examples=80, deadline=None)
@given(rational_systems())
def test_generators_round_trip_hypothesis(system):
    dim, ineqs, eqs = system
    c = PolyCone.from_ineqs(dim, ineqs, eqs)
    assert PolyCone.from_generators(dim, c.rays, c.lin) == c
    # rescaling every row by a positive rational gives the same cone
    assert PolyCone.from_ineqs(dim, [[F(3, 2) * x for x in a] for a in ineqs], eqs) == c


# -- the kernel against the per-ray extremality filter it no longer runs ----------


def reference_dd(dim, ineqs, eqs):
    """``cones._dd`` with the extremality filter it dropped: each ray is kept
    only if its active rows have rank dim - len(lin) - 1 and its projection
    off the lineality space is new."""
    eq_rows = [e for e in eqs if any(e)]
    rows = [a for a in ineqs if any(a)]
    basis = _kernel(eq_rows, dim)
    rays, zeros = [], []
    for k, a in enumerate(rows):
        bit = 1 << k
        prods_b = [_dot(a, b) for b in basis]
        pivot = next((i for i, p in enumerate(prods_b) if p), None)
        if pivot is not None:
            b0, p0 = basis[pivot], prods_b[pivot]
            if p0 > 0:
                b0, p0 = _neg(b0), -p0
            q = -p0

            def shift(v, p):
                return _reduce([q * x + p * y for x, y in zip(v, b0)]) if p else v

            basis = [shift(b, p) for i, (b, p) in enumerate(zip(basis, prods_b)) if i != pivot]
            rays = [shift(r, _dot(a, r)) for r in rays]
            zeros = [z | bit for z in zeros] + [bit - 1]
            rays.append(b0)
            continue
        vals = [_dot(a, r) for r in rays]
        if not any(v > 0 for v in vals):
            zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals)]
            continue
        neg = [i for i, v in enumerate(vals) if v < 0]
        zero = [i for i, v in enumerate(vals) if v == 0]
        new_rays = [rays[i] for i in neg] + [rays[i] for i in zero]
        new_zeros = [zeros[i] for i in neg] + [zeros[i] | bit for i in zero]
        for ip in (i for i, v in enumerate(vals) if v > 0):
            for jn in neg:
                common = zeros[ip] & zeros[jn]
                if any(z & common == common for t, z in enumerate(zeros) if t != ip and t != jn):
                    continue
                comb = _reduce([vals[ip] * x - vals[jn] * y for x, y in zip(rays[jn], rays[ip])])
                if any(comb):
                    new_rays.append(comb)
                    new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros
    target = dim - len(basis) - 1
    ortho = _orthogonal(basis)
    result, seen = [], set()
    for r, z in zip(rays, zeros):
        rp = _project_off(r, ortho)
        if not any(rp) or rp in seen:
            continue
        if rank_of_rows([QVector(a) for a in eq_rows + [a for j, a in enumerate(rows) if z >> j & 1]]) == target:
            seen.add(rp)
            result.append(rp)
    return basis, result


@st.composite
def integer_systems(draw):
    """(dim, ineqs, eqs) as primitive integer rows up to dimension 7 with up
    to 12 inequality rows: zero, repeated and opposite rows, systems of
    equations only, subspaces (every row with its opposite), and "pointed"
    systems that start with the orthant rows."""
    dim = draw(st.integers(1, 7))
    row = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    ineqs = draw(st.lists(row, max_size=12))
    eqs = draw(st.lists(row, max_size=2))
    for shape in draw(st.sets(st.sampled_from(["pointed", "zero", "repeat", "opposite", "eqs_only", "subspace"]))):
        if shape == "pointed":
            ineqs = [[-1 if i == j else 0 for i in range(dim)] for j in range(dim)] + ineqs
        elif shape == "zero":
            ineqs.insert(draw(st.integers(0, len(ineqs))), [0] * dim)
        elif shape == "repeat" and ineqs:
            ineqs.append([2 * x for x in draw(st.sampled_from(ineqs))])
        elif shape == "opposite" and ineqs:
            ineqs.append([-x for x in draw(st.sampled_from(ineqs))])
        elif shape == "eqs_only":
            ineqs = []
            eqs = eqs or [[1] + [0] * (dim - 1)]
        elif shape == "subspace":
            ineqs = [r for a in ineqs[:6] for r in (a, [-x for x in a])]
    return dim, [_ints(a) for a in ineqs[:12]], [_ints(e) for e in eqs]


@settings(max_examples=300, deadline=None)
@given(integer_systems())
def test_dd_matches_reference_with_extremality_filter_hypothesis(system):
    # Adjacency is decided exactly, so the filter never drops a ray: the
    # kernel returns the same basis and, once projected off it (a pass
    # leaves its rays unprojected), the same rays in the same order.
    basis, rays = _dd(*system)[:2]
    ortho = _orthogonal(basis)
    assert (basis, [_project_off(r, ortho) for r in rays]) == reference_dd(*system)


@settings(max_examples=200, deadline=None)
@given(integer_systems(), st.integers(0, 14))
def test_a_pass_continued_from_an_unprojected_state_is_the_cold_conversion_hypothesis(system, split):
    # A pass reduces its basis and rays once, at its end, and does not
    # project the rays off span(B).  Continuing the first rows' state
    # through the rest gives the conversion of all rows at once, once
    # ``_canonical`` projects the rays, and every vector a pass returns is
    # primitive.
    dim, ineqs, eqs = system
    rows = [a for a in ineqs if any(a)]
    first = _dd(dim, rows[:split], eqs)
    state = _dd_steps(dim, *first[:4], rows[split:], first[4])
    for basis, rays, *_ in (first, state):
        assert all(type(v) is tuple and gcd(*v) == 1 for v in [*basis, *rays])
    lin, rays, incidence = _canonical(dim, *state)
    assert (lin, rays, incidence) == _generators(dim, ineqs, eqs)
    assert not any(_dot(r, v) for r in rays for v in lin)  # projected off the lineality space


def test_family_ceiling_counts():
    # the orthant of R^12 from its rows: 12 rays and 12 facets, one
    # conversion, and the facets are read off its incidence
    orthant = [[-1 if i == j else 0 for i in range(12)] for j in range(12)]
    with counting_dd() as calls:
        c = PolyCone.from_ineqs(12, orthant)
        assert len(c.rays) == 12 and c.lin == ()
        assert len(calls) == 1
        assert len(c.ineqs) == 12 and c.eqs == ()
        assert len(calls) == 1
    # the cone over the cross-polytope in R^7 from its 12 generators: 64
    # facets, and the 12 generators are read back off their incidence
    gens = [tuple(s if i == k else 1 if i == 6 else 0 for i in range(7)) for k in range(6) for s in (1, -1)]
    with counting_dd() as calls:
        x = PolyCone.from_generators(7, gens)
        assert len(x.ineqs) == 64 and x.eqs == ()
        assert len(calls) == 1
        assert x._v == (tuple(sorted(gens)), ())
        assert len(calls) == 1


def slack_point(dim, leq, eqs, strict):
    """Reference for ``open_cell``: a point q with leq.q <= 0, eqs.q = 0 and
    strict.q < 0, or None; rows are integer tuples.

    Homogenize with a slack s: such a q exists iff the cone
    {(q, s) : eqs.q = 0, leq.q <= 0, <c,q> + s <= 0 for each strict row c,
    -s <= 0} has an extreme ray with s > 0 (its lineality space has s = 0).
    The first such ray, divided by its s, is returned.
    """
    if not all(map(any, strict)):
        return None  # <0, q> < 0 is unsatisfiable
    if not strict:
        return QVector.zero(dim)  # q = 0 works
    ineqs = [_ints(c + (1,)) for c in strict] + [_ints(a + (0,)) for a in leq] + [(0,) * dim + (-1,)]
    rays = _dd(dim + 1, ineqs, [_ints(e + (0,)) for e in eqs])[1]
    for r in rays:
        if r[dim] > 0:
            return QVector([F(x, r[dim]) for x in r[:dim]])
    return None


@settings(max_examples=80, deadline=None)
@given(rational_systems(), st.lists(st.fractions(-2, 2, max_denominator=3), min_size=4, max_size=4))
def test_strict_feasibility_matches_relative_interior_hypothesis(system, point):
    dim, stricts, eqs = system
    rows = [QVector(a) for a in stricts]
    p = PolyCone.from_ineqs(dim, stricts, eqs).rel_interior_point()
    want = all(a.dot(p) < 0 for a in rows)
    assert strictly_feasible(dim, [QVector(e) for e in eqs], rows) == want
    q = slack_point(dim, [], [_ints(e) for e in eqs], [_ints(a) for a in stricts])
    assert (q is not None) == want
    if q is not None:
        assert all(a.dot(q) < 0 for a in rows) and all(QVector(e).dot(q) == 0 for e in eqs)
    # membership on a rational point agrees with evaluating the rows directly
    c = PolyCone.from_ineqs(dim, stricts, eqs)
    z = QVector(point[:dim])
    assert c.contains(z) == (all(a.dot(z) <= 0 for a in c.ineqs) and all(e.dot(z) == 0 for e in c.eqs))


@st.composite
def cells(draw):
    """(dim, leq rows, strict rows, equation rows) of a homogeneous cell, as
    integer rows: the systems of ``rational_systems`` (orthant-prefixed,
    repeated, opposite and zero rows, equations only) as strict rows, also
    with no strict rows, with every row zero on the last coordinate so that
    the closure has a lineality direction, or with a prefix of the rows
    taken as non-strict (leq) rows."""
    dim, stricts, eqs = draw(rational_systems())
    leq = []
    shape = draw(st.sampled_from(["as_drawn", "no_stricts", "lineality", "leq"]))
    if shape == "no_stricts":
        stricts = []
    elif shape == "lineality":
        stricts, eqs = ([r[:-1] + [0] for r in rows] for rows in (stricts, eqs))
    elif shape == "leq":
        k = draw(st.integers(0, len(stricts)))
        leq, stricts = stricts[:k], stricts[k:]
    return dim, [_ints(a) for a in leq], [_ints(a) for a in stricts], [_ints(e) for e in eqs]


@settings(max_examples=200, deadline=None)
@given(cells())
def test_open_cell_matches_slack_lp_hypothesis(cell):
    # the closure's rays decide what the homogenized slack LP decides
    dim, leq, stricts, eqs = cell
    got = open_cell(dim, leq, eqs, stricts)
    assert (got is not None) == (slack_point(dim, leq, eqs, stricts) is not None)
    if got is not None:
        rays, lin = got._v
        z = _reduce([sum(r[i] for r in rays) for i in range(dim)])
        assert all(_dot(a, z) <= 0 for a in leq) and not any(_dot(e, z) for e in eqs)
        assert all(_dot(c, z) < 0 for c in stricts)
        built = got
        want = PolyCone.from_ineqs(dim, leq + stricts, eqs)
        assert cone_fields(built) == cone_fields(want) and (built.rays, built.lin) == (want.rays, want.lin)


# -- face lattices against the definition by active sets -------------------------


def oracle_faces(c):
    """The faces by definition: each subset of inequality rows taken as
    equalities gives a face, identified by its implied active set (the rows
    zero on the whole face); ordered by size, then by sorted indices."""
    ineqs, eqs = list(c.ineqs), list(c.eqs)
    found = {}
    for k in range(len(ineqs) + 1):
        for subset in combinations(range(len(ineqs)), k):
            sub = PolyCone.from_ineqs(c.dim, ineqs, eqs + [ineqs[i] for i in subset])
            gens = sub.generators()
            implied = frozenset(i for i, a in enumerate(ineqs) if all(a.dot(g) == 0 for g in gens))
            found.setdefault(implied, sub)
    return [(s, found[s]) for s in sorted(found, key=lambda s: (len(s), sorted(s)))]


def cone_fields(c):
    return (c.key(), c.ineqs, c.eqs, c._h, c._v)


@settings(max_examples=60, deadline=None)
@given(rational_systems(), st.booleans())
def test_faces_match_active_set_definition_hypothesis(system, as_generators):
    """Covers no rows, equations only, lineality only (generators with lin and
    no rays), lower-dimensional cones and orthant-prefixed systems."""
    dim, rows, more = system
    if as_generators:
        c = PolyCone.from_generators(dim, [r for r in rows if any(r)], [r for r in more if any(r)])
    else:
        c = PolyCone.from_ineqs(dim, rows, more)
    want = oracle_faces(c)
    got = c.faces()
    assert [f.active_set for f in got] == [s for s, _ in want]
    for f, (active, sub) in zip(got, want):
        assert cone_fields(f.cone) == cone_fields(sub)
        witness = QVector.zero(dim)
        for i in sorted(active):
            witness = witness + c.ineqs[i]
        assert PolyCone.from_ineqs(dim, list(c.ineqs), list(c.eqs) + [witness]) == f.cone


# -- the second representation, read off the incidence on first read --------------


def cone_views(c):
    return (c.key(), c._h, c._v, c.rays, c.lin, c.ineqs, c.eqs)


@settings(max_examples=80, deadline=None)
@given(rational_systems(), st.booleans(), st.sampled_from(["h", "v", "polar"]))
def test_second_representation_built_once_on_first_read_hypothesis(system, as_generators, first):
    # Whichever side is read first, a cone and its polar hold the canonical
    # forms of the cone built from its generators, and reading them makes no
    # conversion beyond the one that built the cone.
    dim, rows, more = system
    with counting_dd() as calls:
        if as_generators:
            c = PolyCone.from_generators(dim, [r for r in rows if any(r)], [r for r in more if any(r)])
        else:
            c = PolyCone.from_ineqs(dim, rows, more)
        assert len(calls) == 1
        p = c.polar()
        if first == "h":
            c._h
        elif first == "v":
            c._v
        else:
            p._h, p._v
        got, got_polar = cone_views(c), cone_views(p)
        assert len(calls) == 1
    rays, lin = c._v
    ref = PolyCone.from_generators(dim, rays, lin)
    assert got == cone_views(ref)
    assert got_polar == cone_views(ref.polar())
    assert p.polar() == c and p.polar()._h == c._h


def assert_read_off_matches_a_fresh_conversion(make):
    """``make()`` builds the same cone on each call, with one side kept and
    the other still to be read.  Read through the cone and through its
    polar, the other side is a fresh conversion of the kept side, and
    reading it makes no conversion."""
    c = make()
    missing = c._reps.index(None)
    lin, rays, _ = _generators(c.dim, *c._reps[1 - missing])
    for cone in (c, make().polar()):
        with counting_dd() as calls:
            got = cone._v if cone._side == missing else cone._h
        assert calls == [] and got == (rays, lin)


@settings(max_examples=150, deadline=None)
@given(integer_systems(), st.sampled_from(["ineqs", "generators", "cell", "critical"]), st.integers(0, 2**12))
@example((0, [], []), "ineqs", 0)  # dim 0
@example((0, [], []), "generators", 0)
@example((3, [], []), "ineqs", 0)  # R^n
@example((3, [], []), "generators", 0)  # {0}
@example((3, [], [(1, 2, 0)]), "generators", 0)  # lineality only
@example((3, [(1, 0, 0), (0, 0, 0), (0, 1, 0)], []), "ineqs", 0)  # a zero row
@example((2, [(1, 0), (1, 0), (0, 1), (0, 1)], []), "generators", 0)  # duplicate rows
@example((2, [(1, 1), (-1, -1), (0, 1)], []), "ineqs", 0)  # an implicit equation
@example((2, [(1, 1), (-1, -1), (0, 1)], []), "critical", 0b100)
@example((3, [], [(1, 1, 0), (0, 1, 1)]), "ineqs", 0)  # equations only
@example((3, [], [(1, 1, 0), (0, 1, 1)]), "cell", 0)
def test_second_side_from_incidence_matches_a_fresh_conversion_hypothesis(system, kind, pick):
    # Covers from_ineqs, from_generators, open_cell closures (the first
    # ``pick`` rows non-strict) and critical cones of the cone as a
    # polyhedron at 0 (y* the sum of the rows in the mask ``pick`` and of the
    # equations), and then every face of each.
    dim, ineqs, eqs = system
    if kind == "ineqs":
        make = lambda: PolyCone.from_ineqs(dim, ineqs, eqs)
    elif kind == "generators":
        make = lambda: PolyCone.from_generators(dim, [r for r in ineqs if any(r)], [e for e in eqs if any(e)])
    elif kind == "cell":
        k = pick % (len(ineqs) + 1)
        make = lambda: open_cell(dim, ineqs[:k], eqs, ineqs[k:])
        if make() is None:
            return
    else:
        p = Polyhedron(dim, ineqs, [0] * len(ineqs), eqs, [0] * len(eqs))
        ystar = [sum(x) for x in zip([0] * dim, *(a for i, a in enumerate(ineqs) if pick >> i & 1), *eqs)]
        make = lambda: critical_cone(p, QVector.zero(dim), QVector(ystar))
    assert_read_off_matches_a_fresh_conversion(make)
    # the helper reads face i of one fresh lattice, then face i of another
    for first, second in zip(make().faces(), make().faces()):
        if None in first.cone._reps[:2]:
            fresh = iter((first.cone, second.cone))
            assert_read_off_matches_a_fresh_conversion(lambda: next(fresh))
    # the span's dimension reads off the equation rows, an echelon basis of
    # the polar's lineality space
    for c in (make(), *(f.cone for f in make().faces())):
        assert c.dim - len(c._h[1]) == rank_of_rows(list(c.rays) + list(c.lin))


# -- the JSON-plain view, written from the integer forms --------------------------


def reference_plain(c):
    """``cone_plain`` built from the rational views of the generators."""
    return {"dim": c.dim, "rays": [vec_plain(r) for r in c.rays], "lin": [vec_plain(l) for l in c.lin]}


def reference_rows(c):
    """The rows of a cone as strings, built from the rational views."""
    return {"ineqs": [vec_plain(a) for a in c.ineqs], "eqs": [vec_plain(e) for e in c.eqs]}


def polar_rows(c):
    """The rows of a cone as the view of its polar writes them."""
    view = cone_plain(c.polar())
    return {"ineqs": view["rays"], "eqs": view["lin"]}


def test_cone_plain_divides_echelon_rows_by_their_pivot():
    # lineality and equation rows whose integer pivots are not 1
    c = PolyCone.from_generators(3, [[0, 0, 1]], [[2, 3, 0]])
    assert cone_plain(c)["lin"] == [["1", "3/2", "0"]]
    assert polar_rows(c.polar())["eqs"] == [["1", "3/2", "0"]]
    d = PolyCone.from_ineqs(3, [], [[2, 3, 0], [0, 4, -6]])
    assert polar_rows(d)["eqs"] == [["1", "0", "9/4"], ["0", "1", "-3/2"]]
    for cone in (c, c.polar(), d, d.polar(), PolyCone.origin(2), PolyCone.from_ineqs(2), wedge()):
        assert cone_plain(cone) == reference_plain(cone)
        assert polar_rows(cone) == reference_rows(cone)


@settings(max_examples=80, deadline=None)
@given(rational_systems(), st.booleans())
def test_cone_plain_matches_rational_views_hypothesis(system, as_generators):
    dim, rows, more = system
    if as_generators:
        c = PolyCone.from_generators(dim, rows, more)
    else:
        c = PolyCone.from_ineqs(dim, rows, more)
    assert cone_plain(c) == reference_plain(c)
    assert cone_plain(c.polar()) == reference_plain(c.polar())
    assert polar_rows(c) == reference_rows(c)
    assert cone_plain(c) is cone_plain(c)  # built once per cone


@settings(max_examples=80, deadline=None)
@given(rational_systems(), st.booleans())
def test_a_view_determines_its_cone_hypothesis(system, as_generators):
    # the view holds the generators only, and they rebuild the cone
    dim, rows, more = system
    if as_generators:
        c = PolyCone.from_generators(dim, rows, more)
    else:
        c = PolyCone.from_ineqs(dim, rows, more)
    view = cone_plain(c)
    assert sorted(view) == ["dim", "lin", "rays"]
    assert PolyCone.from_generators(view["dim"], map(QVector, view["rays"]), map(QVector, view["lin"])) == c
    # the polar's view writes the strings of the "ineqs" and "eqs" keys that
    # a cone's view held when it wrote both sides: each facet row's integers,
    # and each echelon equation row divided by its pivot
    ineqs, eqs = c._h
    pivots = [next(x for x in e if x) for e in eqs]
    both_sides = {
        "ineqs": [[str(x) for x in a] for a in ineqs],
        "eqs": [[str(F(x, p)) for x in e] for e, p in zip(eqs, pivots)],
    }
    assert polar_rows(c) == both_sides


# -- identity by the canonical integer generators ---------------------------------


IDENTITY_POOL = CORPUS + [
    cone
    for d in (1, 2, 3)
    for cone in (
        PolyCone.origin(d),
        PolyCone.from_ineqs(d),
        PolyCone.from_generators(d, lin=[[2] + [1] * (d - 1)]),  # lineality only, pivot 2
        PolyCone.from_generators(d, [[1] + [0] * (d - 1)]),  # a ray: lower-dimensional
    )
]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(IDENTITY_POOL),
    st.sampled_from(IDENTITY_POOL),
    st.sampled_from(["drawn", "generators", "rows", "polar of polar"]),
    st.fractions(F(1, 3), 3),
)
def test_equality_is_equality_of_the_rational_generators_hypothesis(a, b, rebuild, s):
    # b is drawn, or rebuilt from a: from its generators scaled by s (so the
    # lineality rows have other pivots), from its rows, or as a double polar
    if rebuild == "generators":
        b = PolyCone.from_generators(a.dim, [r.scale(s) for r in a.rays], [l.scale(s) for l in a.lin])
    elif rebuild == "rows":
        b = PolyCone.from_ineqs(a.dim, [r.scale(s) for r in a.ineqs], list(a.eqs))
    elif rebuild == "polar of polar":
        b = a.polar().polar()
    same = (a.dim, a.rays, a.lin) == (b.dim, b.rays, b.lin)  # {0} in R^1 is not {0} in R^2
    assert (a == b) == same == (b == a)
    if same:
        assert hash(a) == hash(b) and a.key() == b.key()


def test_a_cone_reads_its_key_once_however_often_it_is_hashed(monkeypatch):
    # equal cones built five ways hash equal, and each cone builds key()
    # for its first hash only: the memo, ConeUnion and the graph map's
    # dedup hash the same cones many times
    real, calls = PolyCone.key, []

    def counted(self):
        calls.append(id(self))
        return real(self)

    monkeypatch.setattr(PolyCone, "key", counted)
    rows = [[-1, 0, 0], [0, -1, 0]]
    orthant = PolyCone.from_ineqs(3, rows)
    cones = [
        orthant,
        PolyCone.from_generators(3, [[1, 0, 0], [0, 2, 0]], [[0, 0, -3]]),
        PolyCone.from_ineqs(3, rows[:1]).intersect(PolyCone.from_ineqs(3, rows[1:])),
        orthant.polar().polar(),
        PolyCone.from_ineqs(3, rows + [[-1, -1, 0]]),
    ]
    assert len({hash(c) for c in cones for _ in range(4)}) == 1
    assert sorted(calls) == sorted(map(id, cones))
    assert all(c == orthant for c in cones)


@st.composite
def unreduced_integer_rows(draw):
    """(dim, ineqs, eqs) as integer tuples that are not primitive in
    general: ``integer_systems`` rows times positive integers, with zero
    rows, duplicates and positive multiples mixed in, and dim 0."""
    if draw(st.integers(0, 9)) == 0:
        return 0, [()] * draw(st.integers(0, 2)), [()] * draw(st.integers(0, 1))
    dim, ineqs, eqs = draw(integer_systems())
    scale = st.integers(1, 6)
    ineqs = [tuple(draw(scale) * x for x in a) for a in ineqs]
    eqs = [tuple(draw(scale) * x for x in e) for e in eqs]
    for shape in draw(st.sets(st.sampled_from(["zero", "duplicate", "multiple", "eqs_only"]))):
        if shape == "zero":
            ineqs.insert(draw(st.integers(0, len(ineqs))), (0,) * dim)
            eqs.append((0,) * dim)
        elif shape == "duplicate" and ineqs:
            ineqs.append(draw(st.sampled_from(ineqs)))
        elif shape == "multiple" and ineqs:
            ineqs.append(tuple(draw(scale) * x for x in draw(st.sampled_from(ineqs))))
        elif shape == "eqs_only":
            ineqs = []
    return dim, ineqs, eqs


@settings(max_examples=200, deadline=None)
@given(unreduced_integer_rows())
@example((0, [], []))
@example((0, [()], [()]))
@example((2, [(2, 4), (0, 0), (2, 4), (3, 6)], []))
@example((3, [], [(2, 2, 0), (0, 0, 0)]))
def test_integer_rows_give_the_cone_of_the_public_constructors_hypothesis(system):
    # the integer entry point runs no type scan, but makes rows primitive and
    # checks their length: the same cone as from_ineqs, and as
    # from_generators when the rows are generators
    dim, ineqs, eqs = system
    for got, want in (
        (_of_rows(dim, ineqs, eqs), PolyCone.from_ineqs(dim, ineqs, eqs)),
        (_of_rows(dim, ineqs, eqs, "generator").polar(), PolyCone.from_generators(dim, ineqs, eqs)),
    ):
        assert got == want and got.key() == want.key()
        assert got._h == want._h and got._v == want._v
    longer = [(*ineqs[0], 1)] if ineqs else [(1,) * (dim + 1)]
    for rows in ((longer, eqs), (ineqs, longer)):
        with pytest.raises(ValueError) as want:
            PolyCone.from_ineqs(dim, *rows)
        with pytest.raises(ValueError) as got:
            _of_rows(dim, *rows)
        assert str(got.value) == str(want.value) == "constraint row has wrong dimension"
    with pytest.raises(ValueError) as want:
        PolyCone.from_generators(dim, longer)
    with pytest.raises(ValueError) as got:
        _of_rows(dim, longer, (), "generator")
    assert str(got.value) == str(want.value) == "generator has wrong dimension"
