from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from corpus import (
    boundary_points,
    complementarity,
    counting_dd,
    graph_union,
    random_affine_union,
    random_cone,
    random_gamma,
    random_graph_point,
    random_tangent_pair,
    random_union,
    rng,
)
from families import FAMILIES
from polyvar import sets
from polyvar.cones import PolyCone, open_cell
from polyvar.linalg import QVector, _ints, _neg
from polyvar.oracle import sample_union_normals
from polyvar.sets import (
    ConeUnion,
    InfeasibleError,
    Polyhedron,
    UnionSet,
    critical_cone,
    direction_strata,
    directional_normal_cone,
    nearby_critical_cone,
    union_tangent_cone,
)


def r2minus():
    return Polyhedron(2, A=[[1, 0], [0, 1]], b=[0, 0])


def r2plus():
    return Polyhedron(2, A=[[-1, 0], [0, -1]], b=[0, 0])


def wedge_poly():
    return Polyhedron(2, A=[[1, -2], [1, 2]], b=[0, 0])


def ex3_union():
    p1 = Polyhedron(4, A=[[-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], b=[0, 0, 0], E=[[0, 1, 0, 0]], e=[0])
    p2 = Polyhedron(4, A=[[0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], b=[0, 0, 0], E=[[1, 0, 0, 0]], e=[0])
    return UnionSet([p1, p2])


def test_empty_polyhedron_rejected():
    with pytest.raises(InfeasibleError):
        Polyhedron(2, A=[[1, 0], [-1, 0]], b=[-1, -1])


def test_tangent_cone_examples():
    p = r2minus()
    assert p.tangent_cone(QVector([0, 0])) == PolyCone.from_ineqs(2, [[1, 0], [0, 1]])
    assert p.tangent_cone(QVector([-1, 0])) == PolyCone.from_ineqs(2, [[0, 1]])
    g = wedge_poly()
    assert g.tangent_cone(QVector([0, 0])) == PolyCone.from_ineqs(2, [[1, -2], [1, 2]])
    with pytest.raises(ValueError):
        p.tangent_cone(QVector([1, 1]))


def test_normal_cone_examples():
    p = r2minus()
    assert p.normal_cone(QVector([0, 0])) == PolyCone.from_ineqs(2, [[-1, 0], [0, -1]])
    assert p.normal_cone(QVector([-1, 0])) == PolyCone.from_generators(2, [[0, 1]])
    g = wedge_poly()
    assert g.normal_cone(QVector([0, 0])) == PolyCone.from_generators(2, [[1, -2], [1, 2]])


def test_polarity_of_tangent_and_normal_on_corpus():
    r = rng(21)
    for i in range(10):
        gamma = random_gamma(r, 2 + i % 2)
        for y in boundary_points(gamma, limit=4):
            assert gamma.tangent_cone(y).polar() == gamma.normal_cone(y)


def test_critical_cone_examples():
    g = wedge_poly()
    k = critical_cone(g, QVector([0, 0]), QVector([0, 0]))
    assert k == PolyCone.from_ineqs(2, [[1, -2], [1, 2]])
    p = r2plus()
    k = critical_cone(p, QVector([1, 0]), QVector([0, -1]))
    assert k == PolyCone.from_generators(2, lin=[[1, 0]])
    assert critical_cone(p, QVector([1, 1]), QVector([1, 0])) is None
    assert critical_cone(p, QVector([-1, 0]), QVector([0, 0])) is None


def test_critical_cone_presence_iff_graph_point():
    r = rng(5)
    for i in range(8):
        gamma = random_gamma(r, 2)
        y, ystar = random_graph_point(r, gamma)
        assert critical_cone(gamma, y, ystar) is not None
        outside = QVector([3, 3])
        if not gamma.contains(outside):
            assert critical_cone(gamma, outside, ystar) is None


def test_nearby_critical_cone_trivial_shift():
    g = wedge_poly()
    y0 = QVector([0, 0])
    assert nearby_critical_cone(g, y0, y0, y0, y0) == critical_cone(g, y0, y0)


def test_nearby_critical_cone_wedge_edge():
    g = wedge_poly()
    y0 = QVector([0, 0])
    t = F(1, 4)
    y = QVector([-t, t / 2])
    got = nearby_critical_cone(g, y0, y0, y, y0)
    assert got == PolyCone.from_ineqs(2, [[1, 2]])  # halfplane v1/2 + v2 <= 0


def stabilized_scale(gamma, ybar, ybarstar, w, wstar):
    """Largest t in a halving ladder where the pair is a graph point and the
    direct critical cone has stopped changing (the local regime)."""
    t = F(1, 2)
    for _ in range(20):
        d1 = critical_cone(gamma, ybar + w.scale(t), ybarstar + wstar.scale(t))
        d2 = critical_cone(gamma, ybar + w.scale(t / 2), ybarstar + wstar.scale(t / 2))
        if d1 is not None and d1 == d2:
            return t
        t = t / 2
    return None


def test_nearby_critical_cone_matches_direct_on_samples():
    r = rng(31)
    checked = 0
    for i in range(12):
        gamma = random_gamma(r, 2 + (i % 2))
        ybar, ybarstar = random_graph_point(r, gamma)
        k = critical_cone(gamma, ybar, ybarstar)
        for _ in range(6):
            w, wstar = random_tangent_pair(r, k)
            t = stabilized_scale(gamma, ybar, ybarstar, w, wstar)
            if t is None:
                continue
            for tt in (t, t / 2):
                y = ybar + w.scale(tt)
                ystar = ybarstar + wstar.scale(tt)
                direct = critical_cone(gamma, y, ystar)
                assert nearby_critical_cone(gamma, ybar, ybarstar, y, ystar) == direct
                checked += 1
    assert checked >= 60


def test_union_tangent_cone_examples():
    d = ex3_union()
    t = union_tangent_cone(d, QVector([0, 0, 0, 0]))
    assert len(t.pieces) == 2
    assert t.contains(QVector([1, 0, -1, -1]))
    single = UnionSet([r2minus()])
    t2 = union_tangent_cone(single, QVector([0, 0]))
    assert t2.pieces == (PolyCone.from_ineqs(2, [[1, 0], [0, 1]]),)
    t3 = union_tangent_cone(single, QVector([-1, -1]))
    assert t3.pieces == (PolyCone.from_ineqs(2),)
    with pytest.raises(ValueError):
        union_tangent_cone(single, QVector([1, 1]))


def test_directional_normal_cone_single_piece():
    d = UnionSet([r2minus()])
    y0 = QVector([0, 0])
    got = directional_normal_cone(d, y0, QVector([-1, 0]))
    assert got.pieces == (PolyCone.from_generators(2, [[0, 1]]),)
    # zero direction gives the full limiting cone
    zero = directional_normal_cone(d, y0, QVector([0, 0]))
    assert zero.contains(QVector([1, 1]))
    # off-tangent direction reaches nothing
    assert directional_normal_cone(d, y0, QVector([1, 0])).is_empty()


def test_directional_normal_cone_complementarity():
    d = ex3_union()
    w = QVector([1, 0, -1, -1])
    got = directional_normal_cone(d, QVector([0, 0, 0, 0]), w)
    assert got.pieces == (PolyCone.from_generators(4, lin=[[0, 1, 0, 0]]),)


def test_bounded_complementarity_has_the_strata_at_zero_of_the_unbounded_one():
    # the bounds are slack at 0, so their faces miss 0 and change no stratum
    def forms(d, y0):
        return [
            [(c.key(), c._h, c._v) for c in (s.normal, *s.reach)] for s in direction_strata(d, y0)
        ]

    for k in FAMILIES["complementarity"].tier1:
        FAMILIES["complementarity"].check(k)
        y0 = QVector.zero(2 * k)
        assert forms(complementarity(k, {0: 2, 1: 1, 3: 5}), y0) == forms(complementarity(k, {}), y0)


def test_directional_normal_cone_antitone_in_direction():
    r = rng(11)
    for i in range(8):
        d = random_union(r, 2 + (i % 2))
        y0 = QVector.zero(d.dim)
        if not d.contains(y0):
            continue
        full = directional_normal_cone(d, y0, y0)
        t = union_tangent_cone(d, y0)
        w = t.pieces[0].rel_interior_point()
        direct = directional_normal_cone(d, y0, w)
        assert all(any(c.subcone_of(e) for e in full.pieces) for c in direct.pieces)


def assert_enters(d, ybar, w, label):
    """ybar + t w lies in the stratum named by ``label`` for an exact small t:
    in the relative interior of the face of each piece it names, outside
    each piece it does not name."""
    t = F(1)  # small enough that no row slack or violated at ybar changes sign
    for p in d.pieces:
        for a, bv in [*zip(p.A, p.b), *zip(p.E, p.e)]:
            s, aw = a.dot(ybar) - bv, a.dot(w)
            if s != 0 and aw != 0:
                t = min(t, abs(s / aw) / 2)
    y = ybar + w.scale(t)
    parts = [part.split("@") for part in label.split(" & ")]
    indices = [int(name[1:]) for name, _ in parts]
    assert indices == sorted(set(indices)), label  # each live piece once, in index order
    named = dict(zip(indices, (face for _, face in parts)))
    for i, p in enumerate(d.pieces):
        if i not in named:
            assert not p.contains(y), (label, w)
        else:
            active = [j for j, s in enumerate(p._slacks(y)[0]) if s == 0]
            assert p.contains(y) and named[i] == f"F{active}", (label, w)


def test_directional_normal_cone_matches_sampling_oracle():
    r = rng(13)
    cases = []
    for i in range(10):
        dim = 2 if i % 2 == 0 else 3
        d = random_union(r, dim)
        y0 = QVector.zero(dim)
        if not d.contains(y0):
            continue
        dirs = [QVector.zero(dim)]
        t = union_tangent_cone(d, y0)
        dirs.append(t.pieces[0].rel_interior_point())
        if len(t.pieces) > 1:
            dirs.append(t.pieces[-1].rel_interior_point())
        cases += [(d, y0, w) for w in dirs]
    # away from the origin: rows slack or violated at ybar, pieces that miss
    # it; the directions are 0 and one relative-interior point per reach cell,
    # and each such point must enter its stratum
    r = rng(17)
    for _ in range(15):
        d, ybar = random_affine_union(r, 2)
        dirs = {QVector.zero(d.dim): None}
        for s in direction_strata(d, ybar):
            for q in s.reach:
                w = q.rel_interior_point()
                assert_enters(d, ybar, w, s.label)
                dirs[w] = None
        cases += [(d, ybar, w) for w in dirs]
    for d, ybar, w in cases:
        closed = directional_normal_cone(d, ybar, w)
        sampled = sample_union_normals(d, ybar, w)
        # the oracle is authoritative: it must find nothing beyond the
        # closed form, and the closed form must reproduce it exactly
        assert {c.key() for c in sampled.pieces} == {c.key() for c in closed.pieces}
    assert len(cases) >= 12


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 3), st.booleans())
def test_strata_decide_tangency_hypothesis(seed, dim, affine):
    # D is polyhedral, so N_D(ybar; w) is nonempty exactly when w is tangent
    # to D at ybar: some reach cone of the strata holds w iff the tangent
    # cone of the union does
    r = rng(seed)
    if affine:
        d, ybar = random_affine_union(r, dim)
        assume(not ybar.is_zero())
    else:
        d, ybar = random_union(r, dim), QVector.zero(dim)
    strata = direction_strata(d, ybar)
    tangent = union_tangent_cone(d, ybar)
    dirs = [QVector(w) for w in product((-1, 0, 1), repeat=dim)]
    dirs += [q.rel_interior_point() for s in strata for q in s.reach]
    for w in dirs:
        reached = any(q.contains(w) for s in strata for q in s.reach)
        assert reached == tangent.contains(w), w
        assert reached == (not directional_normal_cone(d, ybar, w).is_empty())


def test_union_keeps_no_strata():
    # the strata are a function of the union and the point together, so the
    # union holds only its pieces and each call computes them again
    d = ex3_union()
    assert UnionSet.__slots__ == ("dim", "pieces")
    y0 = QVector.zero(4)
    first = direction_strata(d, y0)
    with counting_dd() as calls:
        again = direction_strata(d, y0)
    assert again == first and calls


def test_cone_union_canonicalization():
    ray = PolyCone.from_generators(2, [[1, 0]])
    quad = PolyCone.from_ineqs(2, [[-1, 0], [0, -1]])
    u = ConeUnion(2, [ray, quad, ray])
    assert u.pieces == (quad,)
    assert ConeUnion(2, []).is_empty()


def quadratic_union(pieces):
    """The pieces of ``ConeUnion(dim, pieces)`` by the filter it replaced:
    every distinct cone tested against every other one."""
    uniq = list(dict.fromkeys(pieces))
    keep = [c for c in uniq if not any(d is not c and c.subcone_of(d) for d in uniq)]
    return tuple(sorted(keep, key=lambda c: c.key()))


@st.composite
def cone_lists(draw):
    # corpus cones and their faces (nested by construction), or the strata
    # normals at 0 of a corpus union or of complementarity with k <= 3 pairs
    # (pieces that share generators); with equal cones built apart, the
    # trivial cone and cones that are only a lineality space
    kind = draw(st.sampled_from(["corpus", "strata", "complementarity"]))
    r = rng(draw(st.integers(0, 10**6)))
    if kind == "corpus":
        dim, found = draw(st.integers(1, 4)), []
        for c in (random_cone(r, dim) for _ in range(draw(st.integers(1, 4)))):
            found += [c, *(f.cone for f in c.faces())]
    else:
        d = random_union(r, draw(st.integers(1, 3))) if kind == "strata" else complementarity(draw(st.integers(1, 3)), {})
        dim, found = d.dim, [s.normal for s in direction_strata(d, QVector.zero(d.dim))]
    pool = [PolyCone.origin(dim), PolyCone.from_ineqs(dim), PolyCone.from_generators(dim, lin=[[1] * dim])]
    for c in found:
        pool += [c, PolyCone.from_ineqs(dim, c.ineqs, c.eqs), PolyCone.from_generators(dim, lin=c.lin)]
    return dim, draw(st.lists(st.sampled_from(pool), max_size=32))


@settings(max_examples=150, deadline=None)
@given(cone_lists())
def test_cone_union_keeps_the_pieces_of_the_quadratic_filter_hypothesis(case):
    dim, pieces = case
    assert ConeUnion(dim, pieces).pieces == quadratic_union(pieces)


def test_cone_union_of_one_piece_reads_no_rows():
    c = PolyCone.from_ineqs(3, [[1, 0, 0], [0, 1, -1]])  # built with its generators
    assert ConeUnion(3, [c, PolyCone.from_ineqs(3, [[0, 1, -1], [1, 0, 0]])]).pieces == (c,)
    assert c._reps[1] is None  # its rows are not read off


@pytest.mark.parametrize("k, holds_tests", [(4, 1296), (5, 4860)])
def test_cone_union_tests_each_pooled_generator_once_per_pooled_row(monkeypatch, k, holds_tests):
    # the 3^k normals of complementarity k at 0 have the 4k generators +-e_j
    # and their rows (e and -e for an equation e) are among the 4k rows
    # +-e_j, so one dot per pooled generator and distinct row makes at most
    # (4k)^2 of them; the generator pool it replaced made holds_tests,
    # 4k 3^k tests of a generator against a cone's rows
    normals = [s.normal for s in direction_strata(complementarity(k, {}), QVector.zero(2 * k))]
    rows = {a for c in normals for a in (*c._h[0], *c._h[1], *map(_neg, c._h[1]))}
    calls, dot = [], sets._dot
    monkeypatch.setattr(sets, "_dot", lambda a, z: calls.append((a, z)) or dot(a, z))
    assert len(ConeUnion(2 * k, normals).pieces) == 3**k
    assert len(rows) <= 4 * k and len(calls) <= len(rows) * 4 * k < holds_tests
    assert len(set(calls)) == len(calls) and {a for a, _ in calls} == rows and len({z for _, z in calls}) <= 4 * k


def test_cone_union_rejects_pieces_of_another_dimension():
    with pytest.raises(ValueError, match="cone dimension mismatch"):
        ConeUnion(2, [PolyCone.from_ineqs(3)])
    with pytest.raises(ValueError, match="cone dimension mismatch"):
        ConeUnion(3, [PolyCone.origin(3), PolyCone.origin(2)])


def test_polyhedron_subset_and_canonical_hrep():
    p = Polyhedron(2, A=[[1, 0], [0, 1], [1, 1]], b=[1, 1, 5])  # third row redundant
    assert len(p.A) == 2
    q = Polyhedron(2, A=[[1, 0], [0, 1]], b=[2, 2])
    # P ⊆ Q iff their homogenization cones nest
    assert p._homog.subcone_of(q._homog) and not q._homog.subcone_of(p._homog)


# -- face lattices against the definition by active sets -------------------------


def oracle_polyhedron_faces(p):
    """The nonempty faces by definition: each subset of rows of A taken as
    equalities that leaves a nonempty polyhedron gives a face, identified by
    its implied active set; ordered by size, then by sorted indices."""
    n = len(p.A)
    found = set()
    for k in range(n + 1):
        for subset in combinations(range(n), k):
            try:
                sub = Polyhedron(
                    p.dim, p.A, p.b, list(p.E) + [p.A[i] for i in subset], list(p.e) + [p.b[i] for i in subset]
                )
            except InfeasibleError:
                continue
            verts, rec = sub.vertices_and_recession()
            found.add(
                frozenset(
                    i
                    for i in range(n)
                    if all(p.A[i].dot(v) == p.b[i] for v in verts)
                    and all(p.A[i].dot(g) == 0 for g in rec.generators())
                )
            )
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def relint_point(p, active):
    """A point in the relative interior of the face with this active set: all
    of its generators with positive weights."""
    rows = sorted(active)
    face = Polyhedron(p.dim, p.A, p.b, list(p.E) + [p.A[i] for i in rows], list(p.e) + [p.b[i] for i in rows])
    verts, rec = face.vertices_and_recession()
    y = QVector.zero(p.dim)
    for v in verts:
        y = y + v.scale(F(1, len(verts)))
    for g in rec.generators():
        y = y + g
    return y


small = st.integers(-2, 2)


@st.composite
def polyhedra(draw):
    """Polyhedra of dimension 1-3: no rows, equations only, with a lineality
    space, lower-dimensional, a single point, unbounded, or boxed."""
    dim = draw(st.integers(1, 3))
    row = st.lists(small, min_size=dim, max_size=dim)
    A = draw(st.lists(row, max_size=5))
    b = draw(st.lists(st.integers(-1, 2), min_size=len(A), max_size=len(A)))
    E, e = [], []
    shape = draw(st.sampled_from(["unbounded", "no_rows", "eqs_only", "lineality", "lower_dim", "point", "box"]))
    if shape == "no_rows":
        A, b = [], []
    elif shape == "eqs_only":
        A, b = [], []
        E, e = [draw(row)], [draw(small)]
    elif shape == "lineality":
        A = [r[:-1] + [0] for r in A]
    elif shape == "lower_dim":
        E, e = [draw(row)], [0]
    elif shape == "point":
        E = [[1 if i == j else 0 for i in range(dim)] for j in range(dim)]
        e = draw(st.lists(small, min_size=dim, max_size=dim))
    elif shape == "box":
        A = A + [[s if i == j else 0 for i in range(dim)] for j in range(dim) for s in (1, -1)]
        b = b + [1] * (2 * dim)
    try:
        return Polyhedron(dim, A, b, E, e)
    except InfeasibleError:
        assume(False)


@settings(max_examples=100, deadline=None)
@given(polyhedra(), st.data())
def test_polyhedron_faces_match_active_set_definition_hypothesis(p, data):
    want = oracle_polyhedron_faces(p)
    got = p.faces()
    assert [f.active_set for f in got] == want
    for f in got:
        active = [p.A[i] for i in sorted(f.active_set)]
        normal = PolyCone.from_generators(p.dim, active, list(p.E))
        assert (f.normal.key(), f.normal._h, f.normal._v) == (normal.key(), normal._h, normal._v)
        assert f.parent is p
        # the cones at a relative interior point, against cones built from rows
        y = relint_point(p, f.active_set)
        assert p.tangent_cone(y) == PolyCone.from_ineqs(p.dim, active, list(p.E))
        mask = data.draw(st.lists(st.booleans(), min_size=len(active), max_size=len(active)))
        ystar = QVector.zero(p.dim)
        for a, keep in zip(active, mask):
            if keep:
                ystar = ystar + a
        assert critical_cone(p, y, ystar) == PolyCone.from_ineqs(p.dim, active, list(p.E) + [ystar])
        other = QVector(data.draw(st.lists(small, min_size=p.dim, max_size=p.dim)))
        if normal.contains(other):
            assert critical_cone(p, y, other) == PolyCone.from_ineqs(p.dim, active, list(p.E) + [other])
        else:
            assert critical_cone(p, y, other) is None


def five_cube():
    n = 5
    return Polyhedron(n, [[s if i == j else 0 for i in range(n)] for j in range(n) for s in (1, -1)], [1] * (2 * n))


def test_face_count_of_the_five_cube():
    faces = five_cube().faces()
    assert len(faces) == 3**5
    assert sum(1 for f in faces if len(f.active_set) == 5) == 2**5  # the vertices


def test_polyhedron_faces_make_no_cone_conversion(monkeypatch):
    # face normals are built on first read, not by faces()
    cube = five_cube()

    def conversion(*args, **kwargs):
        raise AssertionError("faces() converted a cone")

    monkeypatch.setattr(PolyCone, "from_generators", staticmethod(conversion))
    monkeypatch.setattr(PolyCone, "from_ineqs", staticmethod(conversion))
    assert len(cube.faces()) == 3**5


# -- the integer point test against the rational views ------------------------------


def probe_points(p):
    """The relative-interior point of each face, and points pushed off the
    polyhedron along each row of A and of E, plus a few grid points."""
    inside = [relint_point(p, f.active_set) for f in p.faces()]
    pts = list(inside)
    for a in list(p.A) + list(p.E):
        pts += [inside[0] + a, inside[-1] - a.scale(F(1, 3))]
    pts += [QVector(c) for c in product((-2, F(1, 2), 1), repeat=p.dim)]
    return pts


def assert_point_test_matches_views(p):
    rows = list(zip(p.A, p.b))
    eqs = list(zip(p.E, p.e))
    for y in probe_points(p):
        inside = all(a.dot(y) <= bv for a, bv in rows) and all(g.dot(y) == ev for g, ev in eqs)
        assert p.contains(y) == inside, (p, y)
        active = [i for i, s in enumerate(p._slacks(y)[0]) if s == 0]
        assert active == [i for i, (a, bv) in enumerate(rows) if a.dot(y) == bv], (p, y)
    again = Polyhedron(p.dim, p.A, p.b, p.E, p.e)
    assert again.key() == p.key()
    assert (again._homog._h, again._homog._v) == (p._homog._h, p._homog._v)


def point_test_shapes():
    """Polyhedra of dimension 0, with no rows, with equations only, and a
    single point."""
    return [
        Polyhedron(0),
        Polyhedron(2),
        Polyhedron(3, E=[[1, -2, 0], [0, 1, 1]], e=[1, F(1, 2)]),
        Polyhedron(2, E=[[1, 0], [0, 3]], e=[F(-1, 2), 2]),
        Polyhedron(2, A=[[1, 1], [-1, 0], [0, -1]], b=[1, 0, 0], E=[[1, -1]], e=[0]),
    ]


@pytest.mark.parametrize("p", point_test_shapes(), ids=["dim0", "no_rows", "eqs_only", "point", "segment"])
def test_integer_point_test_matches_rational_views_on_shapes(p):
    assert_point_test_matches_views(p)


@settings(max_examples=100, deadline=None)
@given(polyhedra())
def test_integer_point_test_matches_rational_views_hypothesis(p):
    assert_point_test_matches_views(p)


def test_point_tests_make_no_rational_dot(monkeypatch):
    polys = point_test_shapes() + [five_cube(), wedge_poly()]
    points = [(p, y) for p in polys for y in probe_points(p)]

    def dot(self, other):
        raise AssertionError("a point test took a rational dot product")

    monkeypatch.setattr(QVector, "dot", dot)
    for p, y in points:
        if p.contains(y):
            p.tangent_cone(y)


@settings(max_examples=100, deadline=None)
@given(polyhedra(), polyhedra(), st.booleans(), st.fractions(F(1, 3), 3))
def test_polyhedron_equality_is_equality_of_the_rational_views_hypothesis(p, q, rebuild, s):
    # q is drawn, or p rebuilt from its views with every row and right-hand
    # side scaled by s
    if rebuild:
        q = Polyhedron(
            p.dim, [a.scale(s) for a in p.A], [s * bv for bv in p.b], [g.scale(s) for g in p.E], [s * ev for ev in p.e]
        )
    same = (p.dim, p.A, p.b, p.E, p.e) == (q.dim, q.A, q.b, q.E, q.e)
    assert (p == q) == same == (q == p)
    if same:
        assert hash(p) == hash(q) and p.key() == q.key()


# -- a piece that misses the reference point ----------------------------------------


def test_piece_missing_the_point_adds_one_out_cell():
    # gph N_Γ of Γ = {-y1-y2 <= 1, -y1+2y2 <= 2, y1-y2 <= 1, y1 <= 1}: only 4
    # of its 9 pieces hold g0; the others are out in every direction and add
    # no hyperplane to the walk
    gamma = Polyhedron(2, A=[[-1, -1], [-1, 2], [1, -1], [1, 0]], b=[1, 2, 1, 1])
    d = graph_union(gamma)
    g0 = QVector([0, -1, 0, 0])
    assert sum(p.contains(g0) for p in d.pieces) == 4
    with counting_dd() as calls:
        strata = direction_strata(d, g0)
    assert len(strata) == 9
    assert len(calls) < 10_000


# -- the enumeration the walk replaced, kept as a reference --------------------------


def options_at(p, ybar):
    """A piece's choices near ybar, each row checked once against ybar.

    Face options are (face, equation rows, strict rows) of the face's cell
    in direction space: only faces containing ybar, closed on the rows of E
    and the face's active rows, open on the tight rows it leaves inactive.
    A piece that misses ybar has the single "out" choice (); one that holds
    it has one per row that can be violated near it (a.y > b for a row
    tight at ybar, g.y < e or g.y > e): the homogeneous strict row.
    """
    sa, se = p._slacks(ybar)
    if any(s > 0 for s in sa) or any(se):
        return [], [()]
    A, E = p._int_rows()
    tight = {i for i, s in enumerate(sa) if s == 0}
    faces = []
    for f in p.faces():
        if f.active_set <= tight:
            eqs = E + [A[i] for i in sorted(f.active_set)]
            faces.append((f, eqs, [A[i] for i in sorted(tight - f.active_set)]))
    outs = [(_neg(A[i]),) for i in sorted(tight)] + [(c,) for g in E for c in (g, _neg(g))]
    return faces, outs


def enumerated_strata(d, ybar):
    """(label, normal, reach cones) of every stratum reachable from ybar, by
    the product over the pieces of (face, or "out") and, per assignment, the
    product of the out pieces' choices: one open cell each.  The label names
    the pieces that are assigned a face."""
    face_options, out_options = zip(*(options_at(p, ybar) for p in d.pieces))
    strata = []
    for assignment in product(*(faces + [None] for faces in face_options)):
        active = [opt for opt in assignment if opt is not None]
        if not active:
            continue
        eqs = [g for _, rows, _ in active for g in rows]
        stricts = [c for _, _, rows in active for c in rows]
        outs = [out_options[i] for i, opt in enumerate(assignment) if opt is None]
        cells = (open_cell(d.dim, (), eqs, stricts + [c for choice in combo for c in choice]) for combo in product(*outs))
        reach = [q for q in cells if q is not None]
        if not reach:
            continue
        normal = active[0][0].normal
        for face, _, _ in active[1:]:
            normal = normal.intersect(face.normal)
        label = " & ".join(f"P{i}@F{sorted(opt[0].active_set)}" for i, opt in enumerate(assignment) if opt is not None)
        strata.append((label, normal, reach))
    return strata


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["cones", "affine", "graph"]), st.data())
def test_walk_has_the_strata_of_the_enumeration_hypothesis(seed, kind, data):
    # the same labels in the same order, the same normal cones, and reach
    # cones that hold the same points of {-2..2}^dim; on cone unions the
    # point is any grid point of the union, so pieces can miss it
    r = rng(seed)
    if kind == "cones":
        d = random_union(r, data.draw(st.integers(1, 3)))
        points = [QVector(y) for y in product((-1, 0, 1), repeat=d.dim)]
        ybar = data.draw(st.sampled_from([y for y in points if d.contains(y)]))
    elif kind == "affine":
        d, ybar = random_affine_union(r, data.draw(st.integers(1, 3)))
    else:
        gamma = random_gamma(r, 2)
        d = graph_union(gamma)
        y, ystar = random_graph_point(r, gamma)
        ybar = QVector((*y.entries, *ystar.entries))
    walk = direction_strata(d, ybar)
    ref = enumerated_strata(d, ybar)
    assert [s.label for s in walk] == [label for label, _, _ in ref]
    grid = [tuple(w) for w in product(range(-2, 3), repeat=d.dim)]
    for s, (_, normal, reach) in zip(walk, ref):
        assert s.normal == normal
        for w in grid:
            assert any(q._holds(w) for q in s.reach) == any(q._holds(w) for q in reach), (s.label, w)


# -- the walk along one direction -----------------------------------------------------


@settings(max_examples=90, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["cones", "affine", "graph"]), st.data())
def test_walk_along_a_direction_is_the_filtered_walk_hypothesis(seed, kind, data):
    # along w the walk visits exactly the cells whose closure holds w: the
    # strata of the full walk with such a cell, in order, with their normals
    # and just those cells; directions are 0, a point of each cell and
    # random grid points
    r = rng(seed)
    if kind == "cones":
        d = random_union(r, data.draw(st.integers(1, 3)))
        points = [QVector(y) for y in product((-1, 0, 1), repeat=d.dim)]
        ybar = data.draw(st.sampled_from([y for y in points if d.contains(y)]))
    elif kind == "affine":
        d, ybar = random_affine_union(r, data.draw(st.integers(1, 3)))
    else:
        gamma = random_gamma(r, 2)
        d = graph_union(gamma)
        y, ystar = random_graph_point(r, gamma)
        ybar = QVector((*y.entries, *ystar.entries))
    full = direction_strata(d, ybar)
    dirs = [QVector.zero(d.dim), *(q.rel_interior_point() for s in full for q in s.reach)]
    grid = st.lists(st.integers(-2, 2), min_size=d.dim, max_size=d.dim)
    dirs += [QVector(data.draw(grid)) for _ in range(4)]
    for w in dirs:
        wi = _ints(w)
        hit = [(s.label, s.normal, [q.key() for q in s.reach if q._holds(wi)]) for s in full]
        walk = [(s.label, s.normal, [q.key() for q in s.reach]) for s in direction_strata(d, ybar, w)]
        assert walk == [h for h in hit if h[2]], w
    assert direction_strata(d, ybar, QVector.zero(d.dim)) == full
    for n in (d.dim - 1, d.dim + 1):
        with pytest.raises(ValueError, match="direction has wrong dimension"):
            direction_strata(d, ybar, QVector([1] * n))
