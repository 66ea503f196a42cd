"""Deterministic randomized instance generation shared by the test modules,
the scalable complementarity families, and a counter of cone conversions."""

from __future__ import annotations

import importlib.util
import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

from polyvar import cones
from polyvar.certify import ConstraintSystemSpec
from polyvar.cones import PolyCone
from polyvar.fileio import problem_from_dict
from polyvar.linalg import QMatrix, QVector
from polyvar.sets import InfeasibleError, Polyhedron, UnionSet


def rng(seed: int) -> random.Random:
    return random.Random(seed)


@contextmanager
def counting_dd():
    """The list of the arguments of every pass of the double description
    step loop (``cones._dd_steps``) made inside: one per conversion, cold
    (``cones._dd``) or continued (``PolyCone.intersect``, a step of
    ``sets.direction_strata``).  Every module that bound the loop sees the
    counting one."""
    calls = []
    real = cones._dd_steps

    def counted(*args):
        calls.append(args)
        return real(*args)

    bound = [m for name, m in sys.modules.items() if name.startswith("polyvar.") and vars(m).get("_dd_steps") is real]
    for m in bound:
        m._dd_steps = counted
    try:
        yield calls
    finally:
        for m in bound:
            m._dd_steps = real


def random_cone(r: random.Random, dim: int) -> PolyCone:
    """A cone from random small integer rows or from random generators (with
    at most one lineality vector): often degenerate, a subspace or {0}."""
    if r.random() < 0.5:
        rows = []
        for _ in range(r.randint(0, dim + 2)):
            row = [r.randint(-2, 2) for _ in range(dim)]
            rows.append(row)
        return PolyCone.from_ineqs(dim, [q for q in rows if any(q)])
    rays = [[r.randint(-2, 2) for _ in range(dim)] for _ in range(r.randint(0, dim + 1))]
    lin = [[r.randint(-1, 1) for _ in range(dim)] for _ in range(r.randint(0, 1))]
    return PolyCone.from_generators(
        dim, [q for q in rays if any(q)], [q for q in lin if any(q)]
    )


def random_gamma(r: random.Random, dim: int, max_facets: int = 6) -> Polyhedron:
    """A nonempty polyhedron containing the origin, with small integer data."""
    nfac = r.randint(2, max_facets)
    rows, rhs = [], []
    for _ in range(nfac):
        row = [r.randint(-2, 2) for _ in range(dim)]
        if all(x == 0 for x in row):
            row[r.randrange(dim)] = 1
        rows.append(row)
        rhs.append(r.choice([0, 0, 1, 2]))  # bias to faces through the origin
    return Polyhedron(dim, rows, rhs)


def boundary_points(gamma: Polyhedron, limit: int = 12) -> list[QVector]:
    """Grid points of the polyhedron, boundary-first."""
    dim = gamma.dim
    pts = []
    for combo in product((-1, 0, 1, Fraction(1, 2), Fraction(-1, 2)), repeat=dim):
        y = QVector(combo)
        if gamma.contains(y):
            pts.append((gamma._slacks(y)[0].count(0), y))
    pts.sort(key=lambda t: (-t[0], tuple(map(str, t[1].entries))))
    return [y for _, y in pts[:limit]]


def random_normal_at(r: random.Random, gamma: Polyhedron, y: QVector) -> QVector:
    gens = gamma.normal_cone(y).generators()
    v = QVector.zero(gamma.dim)
    for g in gens:
        v = v + g.scale(r.choice([0, 0, 1, 1, 2, Fraction(1, 2)]))
    return v


def random_graph_point(r: random.Random, gamma: Polyhedron):
    pts = boundary_points(gamma)
    y = r.choice(pts)
    return y, random_normal_at(r, gamma, y)


def graph_union(gamma: Polyhedron) -> UnionSet:
    """The graph of the normal-cone map of gamma as an explicit union in
    R^(2n): one piece per face F, the (y, y*) with y in F (F's active rows
    as equations) and y* in the normal cone at the relative interior of F."""
    zero = (0,) * gamma.dim
    ys = [(*a.entries, *zero) for a in gamma.A]
    pieces = []
    for f in gamma.faces():
        active = sorted(f.active_set)
        n_ineqs, n_eqs = f.normal.ineqs, f.normal.eqs
        pieces.append(
            Polyhedron(
                2 * gamma.dim,
                ys + [(*zero, *a.entries) for a in n_ineqs],
                list(gamma.b) + [0] * len(n_ineqs),
                [ys[i] for i in active]
                + [(*g.entries, *zero) for g in gamma.E]
                + [(*zero, *g.entries) for g in n_eqs],
                [gamma.b[i] for i in active] + list(gamma.e) + [0] * len(n_eqs),
            )
        )
    return UnionSet(pieces)


def random_member(r: random.Random, cone: PolyCone) -> QVector:
    v = QVector.zero(cone.dim)
    for g in cone.generators():
        v = v + g.scale(r.choice([0, 0, 1, 2, Fraction(1, 2)]))
    return v


def random_tangent_pair(r: random.Random, k: PolyCone):
    """A pair (v, v*) in the graph of the normal-cone map of k."""
    v = random_member(r, k)
    nk = PolyCone.from_ineqs(
        k.dim, list(k.polar().ineqs), list(k.polar().eqs) + ([v] if not v.is_zero() else [])
    )
    vstar = random_member(r, nk)
    return v, vstar


def random_union(r: random.Random, dim: int, max_pieces: int = 3) -> UnionSet:
    """A union of cones through the origin (so strata are rich at 0)."""
    pieces = []
    for _ in range(r.randint(1, max_pieces)):
        nfac = r.randint(1, 3)
        rows = []
        for _ in range(nfac):
            row = [r.randint(-1, 1) for _ in range(dim)]
            if all(x == 0 for x in row):
                row[r.randrange(dim)] = 1
            rows.append(row)
        eqs = []
        if r.random() < 0.4:
            eq = [r.randint(-1, 1) for _ in range(dim)]
            if any(x != 0 for x in eq):
                eqs.append(eq)
        try:
            pieces.append(Polyhedron(dim, rows, [0] * len(rows), eqs, [0] * len(eqs)))
        except InfeasibleError:
            continue
    if not pieces:
        pieces.append(Polyhedron(dim, [[1] + [0] * (dim - 1)], [0]))
    return UnionSet(pieces)


def random_affine_union(r: random.Random, dim: int) -> tuple[UnionSet, QVector]:
    """A union of polyhedra around a grid point ybar, returned with ybar.

    Rows are tight, slack or violated at ybar and some pieces carry one
    equation; one piece contains ybar and at least one piece misses it.
    """
    ybar = QVector([r.randint(-1, 1) for _ in range(dim)])

    def row():
        v = [r.randint(-1, 1) for _ in range(dim)]
        if all(x == 0 for x in v):
            v[r.randrange(dim)] = 1
        return v

    def rhs(v, offsets):
        return QVector(v).dot(ybar) + r.choice(offsets)

    def piece(offsets):
        rows = [row() for _ in range(r.randint(1, 3))]
        eqs = [row()] if r.random() < 0.3 else []
        return Polyhedron(dim, rows, [rhs(v, offsets) for v in rows], eqs, [rhs(g, offsets[:2]) for g in eqs])

    pieces = [piece((0, 0, 1))]  # contains ybar: every row tight or slack
    for _ in range(r.randint(1, 2)):
        try:
            pieces.append(piece((0, -1, 1)))
        except InfeasibleError:
            continue
    if all(p.contains(ybar) for p in pieces):
        v = row()
        pieces.append(Polyhedron(dim, [v], [QVector(v).dot(ybar) - 1]))
    r.shuffle(pieces)
    return UnionSet(pieces), ybar


def random_matrix(r: random.Random, nrows: int, ncols: int, lo=-2, hi=2) -> QMatrix:
    return QMatrix([[r.randint(lo, hi) for _ in range(ncols)] for _ in range(nrows)])


def random_symmetric(r: random.Random, n: int) -> QMatrix:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = r.randint(-2, 2)
    return QMatrix(m)


def complementarity(k, bounds):
    """The 2^k pieces of k pairs y_i >= 0, y_{k+i} >= 0, y_i y_{k+i} = 0 in
    R^{2k}, with y_j <= bounds[j] on each piece where y_j may be positive."""
    m = 2 * k

    def unit(j, s=1):
        return [s if i == j else 0 for i in range(m)]

    pieces = []
    for choice in product((0, 1), repeat=k):
        A, b, E = [], [], []
        for i, c in enumerate(choice):
            free, zero = (i, k + i) if c == 0 else (k + i, i)
            A.append(unit(free, -1))
            b.append(0)
            E.append(unit(zero))
            if free in bounds:
                A.append(unit(free))
                b.append(bounds[free])
        pieces.append(Polyhedron(m, A, b, E, [0] * k))
    return UnionSet(pieces)


def admissible_complementarity(k: int, second: int = 1) -> ConstraintSystemSpec:
    """Complementarity with k pairs at g0 = 0 (l = 1, n = 2, m = 2k) with
    admissible strata: Jx = [e_1 e_(second+1)], Jp = e_1, and every
    Hessian diag(1, -1).  The default puts Jx's columns at the first
    coordinates of pairs 0 and 1; ``second=k`` puts both in pair 0."""
    m = 2 * k
    return ConstraintSystemSpec(
        l=1, n=2, m=m,
        Jp=[[int(i == 0)] for i in range(m)],
        Jx=[[int(i == 0), int(i == second)] for i in range(m)],
        g0=[0] * m,
        D=complementarity(k, {}),
        hessians=[QMatrix([[1, 0], [0, -1]])] * m,
    )


def parametric_complementarity(k: int, l: int) -> ConstraintSystemSpec:
    """The benchmark's ``constraint_complementarity(0, 0, k, False, l)``
    (perfbench/problems.py, loaded read-only): k pairs with l parameters and
    seeded Jacobians, so Phase A projects up to 2^k pieces into R^l."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "problems.py"
    found = importlib.util.spec_from_file_location("perfbench_problems", path)
    problems = importlib.util.module_from_spec(found)
    found.loader.exec_module(problems)
    return problem_from_dict(problems.constraint_complementarity(0, 0, k, False, l))
