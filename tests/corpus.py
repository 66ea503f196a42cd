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
from polyvar.certify import ConstraintSystemSpec, VariationalSystemSpec
from polyvar.cones import PolyCone
from polyvar.fileio import problem_from_dict
from polyvar.linalg import QMatrix, QVector
from polyvar.sets import InfeasibleError, Polyhedron, UnionSet


def rng(seed: int) -> random.Random:
    return random.Random(seed)


@contextmanager
def counting_calls(name: str):
    """The list of the arguments of every call of ``cones.<name>`` made
    inside.  Every module that bound the function sees the counting one."""
    calls = []
    real = getattr(cones, name)

    def counted(*args):
        calls.append(args)
        return real(*args)

    bound = [m for n, m in sys.modules.items() if n.startswith("polyvar.") and vars(m).get(name) is real]
    for m in bound:
        setattr(m, name, counted)
    try:
        yield calls
    finally:
        for m in bound:
            setattr(m, name, real)


def counting_dd():
    """``counting_calls`` of the double description step loop
    (``cones._dd_steps``): one pass per conversion, cold (``cones._dd``) or
    continued (``PolyCone.intersect``, a step of ``sets.direction_strata``)."""
    return counting_calls("_dd_steps")


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
    coordinates of pairs 0 and 1; ``second=k`` puts both in pair 0.

    Per pair (y_i, y_(k+i)), a direction w of T_D(0) has w_i > 0 = w_(k+i)
    (state A), w_(k+i) > 0 = w_i (B) or both 0 (Z): 3^k strata, one reach
    cell each, with normal cones v_i = 0 (A), v_(k+i) = 0 (B) or v_i,
    v_(k+i) <= 0 (Z) per pair.

    By default Jx u = (u_1, u_2, 0, ...), so a u-cell is nontrivial iff
    pair 0 or pair 1 is in A: 9 - 4 = 5 choices for those two pairs times
    3^(k-2) for the rest.  ker Jx^T = {v_0 = v_1 = 0} keeps the free
    v_(k+i) of a pair in A, so each of these 5 * 3^(k-2) strata is violated,
    with dual lineality: check_soscms takes the lineality branch there and
    never reaches _negativity_on_cone.  Its lin[0] is a unit e_j, and every
    Hessian is diag(1, -1), so v* = +e_j iff u^T diag(1, -1) u >= 0 for the
    cell's sample u: (1, 0) when only pair 0 is in A, (0, 1) when only pair
    1 is, (1, 1) when both are; that is 3 * 3^(k-2) plus signs and
    2 * 3^(k-2) minus signs.  (q, u) = (1, -1, 0) spans ker [Jp Jx], so
    Phase A covers every q and every stratum's (q, u) cell is nontrivial:
    3^k Phase B entries.  For k >= 3 a pair i >= 2 keeps a free or a <= 0
    coordinate of v in ker Jx^T, and ker Jp^T = {v_0 = 0} cuts nothing
    more, so all 3^k entries are violated in the corollary and in the joint
    check.

    With ``second=k``, Jx = [e_1 e_(k+1)], a u-cell is nontrivial iff pair
    0 is in A or B: 2 * 3^(k-1) violated strata.  Now ker Jx^T kills v_0
    and v_k, so the dual cone is pointed exactly when every other pair is
    in Z, with the 2(k - 1) rays -e_i, -e_(k+i), each contracting the
    Hessians to -diag(1, -1).  The u-cell is the ray (1, 0) in A, where the
    form is -1 < 0 (no witness), and (0, 1) in B, where it is 1 (one
    witness per ray): 2 * 3^(k-1) - 2 strata violated with dual lineality
    and 2 * 3^(k-1) - 2 + 2(k - 1) second order witnesses.
    """
    m = 2 * k
    return ConstraintSystemSpec(
        l=1, n=2, m=m,
        Jp=[[int(i == 0)] for i in range(m)],
        Jx=[[int(i == 0), int(i == second)] for i in range(m)],
        g0=[0] * m,
        D=complementarity(k, {}),
        hessians=[QMatrix([[1, 0], [0, -1]])] * m,
    )


def _orthant_system(n: int, jx_diagonal) -> VariationalSystemSpec:
    """Γ = R^n_+ at xbar = ybarstar = 0 with Jp = -e_1 (l = 1) and Jx =
    diag(jx_diagonal).  The critical cone is K = R^n_+, and a face pair F2 ⊆
    F1 of K puts each coordinate in F2, in F1 only, or outside F1: 3^n pairs,
    whose difference cones Kd = F1 - F2 are R, R_+ or {0} in those states."""
    return VariationalSystemSpec(
        l=1, n=n, Jp=[[-int(i == 0)] for i in range(n)],
        Jx=[[jx_diagonal[i] if i == j else 0 for j in range(n)] for i in range(n)],
        gamma=Polyhedron(n, A=[[-int(i == j) for j in range(n)] for i in range(n)], b=[0] * n),
        xbar=[0] * n, ybarstar=[0] * n,
    )


def orthant_spec(n: int) -> VariationalSystemSpec:
    """The orthant system with Jx = I, which Phase B certifies at every n.

    The (q, u) cell of (F2, F1) holds the u ∈ F2 with q e_1 - u ∈ K° ∩ F1^⊥:
    u_i = 0 for i >= 2, and u_1 = q >= 0 if e_1 ∈ F2, q = u_1 = 0 if e_1 ∈ F1
    only, and u_1 = 0 >= q otherwise.  So the cell is nontrivial exactly when
    e_1 ∉ F1 or e_1 ∈ F2: 2 * 3^(n-1) adjoint strata.  Every adjoint cone is
    {0}, as -v* lies in Kd and in Kd°.
    """
    return _orthant_system(n, [1] * n)


def refuted_orthant(n: int) -> VariationalSystemSpec:
    """The orthant system with Jx = 0, which Phase A refutes at every n.

    The solution piece of a face F of K is the cell (F, F): u ∈ F and
    -Jp q - Jx u = q e_1 ∈ K° ∩ F^⊥.  So q e_1 must lie in R^n_- ∩ F^⊥.  Of
    the 2^n faces, the 2^(n-1) that contain e_1 have e_1 ∉ F^⊥ and force
    q = 0: their pieces project to {0}.  The other 2^(n-1) have e_1 ∈ F^⊥,
    leave only q <= 0, and project to R_-.  The two projections leave q > 0
    uncovered, and the gap is q = (1).  (With Jp = 0 instead, q is free and
    Phase A covers.)
    """
    return _orthant_system(n, [0] * n)


def singular_orthant(n: int) -> VariationalSystemSpec:
    """The orthant system with Jx = diag(1, ..., 1, 0), which Phase B does
    not certify and Phase A does not refute at every n >= 2.

    In the cell of (F2, F1), q e_1 - Jx u ∈ K° ∩ F1^⊥ forces u_i = 0 for
    1 < i < n as for the orthant with Jx = I, constrains coordinate 1 as
    there, and leaves u_n >= 0 free when e_n ∈ F2 (Jx's last column is
    zero).  So the cell is trivial exactly when e_1 ∈ F1 only and e_n ∉ F2:
    of the 3^n pairs, 3^n - 2 * 3^(n-2) = 7 * 3^(n-2) are adjoint strata.
    The solution pieces (F, F) project to R_+ (e_1 ∈ F) and R_- (e_1 ∉ F),
    so Phase A covers R.  The adjoint cone {v* : -v* ∈ Kd, -Jx^T v* ∈ Kd°}
    has v*_i = 0 for i < n, as for Jx = I, while v*_n is free when e_n ∈
    F2, <= 0 when e_n ∈ F1 only, and 0 when e_n ∉ F1.  So a stratum is
    violated when e_n ∈ F2 (3 states of coordinate 1) or when e_n ∈ F1 only
    and e_1 ∈ F2 or e_1 ∉ F1 (2 states): 5 * 3^(n-2) witnesses of
    check_aubin.  Every adjoint cone lies in ker Jp^T = {v*_1 = 0}, so the
    joint check has the same 5 * 3^(n-2) witnesses.
    """
    return _orthant_system(n, [1] * (n - 1) + [0])


def cross_polytope_spec(n: int) -> VariationalSystemSpec:
    """Γ = {x : s.x <= 1 for every s in {1, -1}^n}, the cross-polytope, at
    its vertex xbar = -e_1 with ybarstar = 0, Jx = I and Jp = -a for
    a = e_1 + e_2 (l = 1).  Phase B certifies it at every n >= 3; at n = 2
    Γ is a square.

    The critical cone is K = T_Γ(-e_1) = {w : w_1 >= |w_2| + ... + |w_n|},
    the cone over an (n-1)-dimensional cross-polytope: not a product for
    n >= 3.  Its rays are e_1 ± e_i (i >= 2), and K° = {z : z_1 <= -|z_i|
    for every i >= 2}.  Every face other than K spans the rays e_1 + τ_i e_i
    of a sign vector τ in {-, 0, +}^(n-1) ({0} for τ = 0): 3^(n-1) + 1 faces.
    Face pairs F2 ⊆ F1 take (0, 0), (0, ±) or (±, ±) per coordinate, or
    have F1 = K: 5^(n-1) + 3^(n-1) + 1 pairs.

    The cell of (F2, F1) holds the (q, u) with u ∈ F2 and z = qa - u ∈
    K° ∩ F1^⊥.  There u ∈ K, z ∈ K° and u.z = 0, so u and z are the
    projections of qa onto K and K° (Moreau).  For q > 0, qa lies on the ray
    a of K, so u = qa and z = 0: the pairs with a ∈ F2 have a cell,
    5^(n-2) + 3^(n-2) + 1 of them.  For q < 0, qa ∈ K°, so u = 0 and z = qa,
    which is orthogonal to F1 iff F1 lies in K ∩ a^⊥, the ray b = e_1 - e_2:
    the pairs ({0}, {0}), ({0}, b) and (b, b).  So there are
    5^(n-2) + 3^(n-2) + 4 adjoint strata, one difference cone Kd = F1 - F2
    each (K is pointed, so F2 = lin Kd and F1 = K ∩ span Kd), and every
    adjoint cone is {0}, as -v* lies in Kd and in Kd°.  The solution piece
    (F, F) projects to R_+ when a ∈ F (3^(n-2) + 1 faces), to R_- for
    F = {0} and F = b, and to {0} for the other 2 * 3^(n-2) - 2 faces, so
    Phase A covers R.
    """
    return VariationalSystemSpec(
        l=1, n=n, Jp=[[-int(i < 2)] for i in range(n)],
        Jx=[[int(i == j) for j in range(n)] for i in range(n)],
        gamma=Polyhedron(n, A=[list(s) for s in product((1, -1), repeat=n)], b=[1] * 2**n),
        xbar=[-int(i == 0) for i in range(n)], ybarstar=[0] * n,
    )


def polygon_cone(r: int) -> ConstraintSystemSpec:
    """D = P_r x R_- in R^4 at 0, for P_r the cone over the r-gon with
    vertices (t, t^2), t = 0..r-1: the rays (t, t^2, 1).  l = 1, Jp = 0,
    Jx = [I_3; 0], and the Hessians are 0, 0, 0 and -I."""
    facets = PolyCone.from_generators(3, [[t, t * t, 1] for t in range(r)]).ineqs
    rows = [[*a.entries, 0] for a in facets] + [[0, 0, 0, 1]]
    zero = [[0] * 3] * 3
    return ConstraintSystemSpec(
        l=1, n=3, m=4,
        Jp=[[0]] * 4,
        Jx=[[int(i == j) for j in range(3)] for i in range(4)],
        g0=[0] * 4,
        D=UnionSet([Polyhedron(4, rows, [0] * len(rows))]),
        hessians=[zero, zero, zero, [[-int(i == j) for j in range(3)] for i in range(3)]],
    )


def free_kernel(n: int) -> ConstraintSystemSpec:
    """D = R_- in R at 0, l = 1, Jp = [1], Jx = 0 in R^(1 x n) and the one
    Hessian -I_n: every u-cell is R^n, a lineality space."""
    return ConstraintSystemSpec(
        l=1, n=n, m=1,
        Jp=[[1]],
        Jx=[[0] * n],
        g0=[0],
        D=UnionSet([Polyhedron(1, [[1]], [0])]),
        hessians=[[[-int(i == j) for j in range(n)] for i in range(n)]],
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
