"""The sign-analysis kernel behind the second order condition.

The decision is exact: ``_negativity_on_cone`` returns None when the form is
strictly negative on the cone minus the origin, and otherwise a witness: a
nonzero primitive integer vector of the cone on which the form is
nonnegative.  It splits the lineality space off first, in one q-orthogonal
pass over its rows, so on the subspace R^n (``whole``) it decides negative
definiteness by the signs of the pivots b^T q b, which Sylvester's
criterion checks.  A test-local reference reads a lineality row l as the
two generators l and -l and tries every nonempty set of generators,
dependent ones too.  Forms are integer matrices and
directions integer tuples: each rational matrix below is scaled by one
positive integer (``ints``), which keeps every sign.
"""

from fractions import Fraction as F
from itertools import combinations, permutations, product
from math import lcm

from hypothesis import given, settings
from hypothesis import strategies as st

from polyvar.certify import _form_value, _lift, _negativity_on_cone, _restrict_form
from polyvar.cones import PolyCone, open_cell
from polyvar.linalg import QMatrix, QVector, _neg, _reduce


def orthant(n):
    return PolyCone.from_ineqs(n, [[-(i == j) for j in range(n)] for i in range(n)])


def whole(n):
    return PolyCone.from_generators(n, lin=[[int(i == j) for j in range(n)] for i in range(n)])


def ints(m):
    """A rational matrix times the lcm of its denominators, as integer rows."""
    rows = [[F(x) for x in r] for r in m]
    den = lcm(*(x.denominator for r in rows for x in r))
    return tuple(tuple(int(x * den) for x in r) for r in rows)


def violation(q, cone):
    """The kernel's witness, checked: nonzero, in the cone, form >= 0."""
    wit = _negativity_on_cone(q, cone)
    assert wit is not None and any(wit)
    assert cone.contains(QVector(wit)) and _form_value(q, wit) >= 0
    return wit


def test_trivial_cone_is_vacuously_negative():
    assert _negativity_on_cone(ints([[1]]), PolyCone.origin(1)) is None


def test_single_ray_exact():
    ray = PolyCone.from_generators(2, [[1, 0]])
    assert _negativity_on_cone(ints([[-1, 0], [0, 1]]), ray) is None
    assert violation(ints([[1, 0], [0, -1]]), ray) == (1, 0)


def test_two_rays_interior_violation_found_exactly():
    # diagonal entries negative but a large positive cross term pushes the
    # form nonnegative strictly inside the cone
    violation(ints([[-1, 2], [2, -1]]), orthant(2))


def test_two_rays_negative_with_positive_cross():
    q = ints([[-1, F(9, 10)], [F(9, 10), -1]])
    assert _negativity_on_cone(q, orthant(2)) is None


def test_subspace_cases():
    line = PolyCone.from_generators(2, lin=[[1, 0]])
    assert _negativity_on_cone(ints([[-1, 0], [0, 5]]), line) is None
    violation(ints([[1, 0], [0, -5]]), line)
    # negative semidefinite with a kernel direction: the kernel vector is a
    # witness since the condition demands strict negativity
    q = ints([[0, 0], [0, -1]])
    assert _form_value(q, violation(q, line)) == 0


def test_three_rays_all_cross_nonpositive_certified():
    q = ints([[-1, 0, -2], [0, -1, -2], [-2, -2, -1]])
    assert _negativity_on_cone(q, orthant(3)) is None


def test_three_rays_span_negative_definite_certified():
    q = ints([[-2, F(1, 2), 0], [F(1, 2), -2, 0], [0, 0, -1]])
    assert _negativity_on_cone(q, whole(3)) is None
    assert _negativity_on_cone(q, orthant(3)) is None


def test_negative_on_orthant_though_indefinite_on_span():
    # indefinite on the span of the orthant (at n = 3 take u = (1,1,-2)),
    # with one positive cross term; still strictly negative on the orthant,
    # since 1.8 u1 u2 <= 0.9 (u1^2 + u2^2) and every other term is negative.
    # At n = 10 all 1023 supports are tried, none feasible.
    for n in (3, 10):
        q = ints([[-1 if i == j else (F(9, 10) if {i, j} == {0, 1} else -2) for j in range(n)] for i in range(n)])
        violation(q, whole(n))
        assert _form_value(q, (1, 1, -2) + (0,) * (n - 3)) > 0
        assert _negativity_on_cone(q, orthant(n)) is None


def test_mixed_lineality_and_ray():
    halfplane = PolyCone.from_generators(2, rays=[[0, 1]], lin=[[1, 0]])
    assert _negativity_on_cone(ints([[-1, 0], [0, -1]]), halfplane) is None
    violation(ints([[-1, 3], [3, -1]]), halfplane)


def leibniz_det(rows):
    total = F(0)
    n = len(rows)
    for perm in permutations(range(n)):
        term = F((-1) ** sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n)))
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


@st.composite
def symmetric_matrices(draw, min_n=1, max_n=4):
    """Small symmetric rational matrices, diagonals biased negative so that
    definite, semidefinite and indefinite cases all come up."""
    n = draw(st.integers(min_n, max_n))
    m = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        m[i][i] = draw(st.fractions(F(-4), F(1), max_denominator=3))
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.fractions(F(-2), F(2), max_denominator=3))
    return QMatrix(m)


@settings(max_examples=200, deadline=None)
@given(symmetric_matrices())
def test_neg_definite_matches_sylvester(m):
    # Sylvester: negative definite iff (-1)^k d_k > 0 for every leading
    # principal minor d_k, here by the Leibniz formula
    rows = [r.entries for r in m.rows]
    minors = [leibniz_det([r[:k] for r in rows[:k]]) for k in range(1, m.nrows + 1)]
    c = _negativity_on_cone(ints(m), whole(m.nrows))
    assert (c is None) == all((-1) ** k * d > 0 for k, d in enumerate(minors, 1))
    if c is not None:
        assert len(c) == m.nrows and any(c) and _form_value(ints(m), c) >= 0


def every_support(q, cone):
    """A witness from the KKT system of every nonempty set J of generators,
    dependent ones too, or None.  A dependent G_J can vanish on a solution
    (on l and -l every solution gives u = 0), so J counts only when a ray of
    its solutions' closure lifts to u != 0; that ray, with lam >= 0 and
    mu >= 0, is itself a witness, as u^T q u = mu sum(lam)."""
    rays, lin = cone._v
    gens = [g for v in lin for g in (v, _neg(v))] + list(rays)
    gram = _restrict_form(q, gens)
    for size in range(1, len(gens) + 1):
        for support in combinations(range(len(gens)), size):
            eqs = [[gram[t][j] for j in support] + [-1] for t in support]
            strict = [tuple(-int(j == i) for j in range(size + 1)) for i in range(size)]
            cell = open_cell(size + 1, [(0,) * size + (-1,)], [_reduce(e) for e in eqs], strict)
            for r in cell._v[0] if cell is not None else ():
                u = _lift([gens[j] for j in support], r[:-1])
                if any(u):
                    return u
    return None


@st.composite
def cones_and_forms(draw):
    """A cone in R^2..R^4 from up to dim + 3 rays and up to 2 lineality
    vectors, and a small symmetric integer form on it."""
    n = draw(st.integers(2, 4))
    vectors = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    rays, lin = draw(st.lists(vectors, max_size=n + 3)), draw(st.lists(vectors, max_size=2))
    return PolyCone.from_generators(n, rays, lin), ints(draw(symmetric_matrices(n, n)))


@settings(max_examples=150, deadline=None)
@given(cones_and_forms())
def test_independent_supports_decide_as_every_support_does(case):
    cone, q = case
    want = every_support(q, cone)
    assert (_negativity_on_cone(q, cone) is None) == (want is None)
    if want is not None:
        assert cone.contains(QVector(want)) and _form_value(q, want) >= 0
        violation(q, cone)


small_vectors = st.lists(st.integers(-2, 2), min_size=3, max_size=3).filter(any)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(small_vectors, min_size=1, max_size=3),
    st.lists(small_vectors, max_size=1),
    symmetric_matrices(3, 3),
)
def test_cone_decision_matches_dense_grid(rays, lin, q):
    # every point sum c_i g_i with ray coefficients in 0..4 and lineality
    # coefficients in -4..4 lies in the cone; the sign of the form does not
    # depend on the scale, so this is a rational grid on the generators
    cone = PolyCone.from_generators(3, rays, lin)
    q = ints(q)
    gens = rays + lin
    ranges = [range(5)] * len(rays) + [range(-4, 5)] * len(lin)
    grid_hit = False
    for coeffs in product(*ranges):
        u = tuple(sum(c * g[i] for c, g in zip(coeffs, gens)) for i in range(3))
        if any(u) and _form_value(q, u) >= 0:
            grid_hit = True
            break
    if _negativity_on_cone(q, cone) is None:
        assert not grid_hit
    else:
        violation(q, cone)
