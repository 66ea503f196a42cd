"""The sign-analysis kernel behind the second order condition.

The decision is three-valued: "neg" certifies strict negativity of the form
on the cone, "viol" returns an exact witness, "unknown" is the honest
fallback when neither sound certificate applies and the bounded grid finds
no violation.
"""

from fractions import Fraction as F
from itertools import permutations

from hypothesis import given, settings
from hypothesis import strategies as st

from polyvar.certify import _form_value, _neg_definite, _negativity_on_cone
from polyvar.cones import PolyCone
from polyvar.linalg import QMatrix, QVector


def orthant(n):
    return PolyCone.from_ineqs(n, [[-(i == j) for j in range(n)] for i in range(n)])


def test_trivial_cone_is_vacuously_negative():
    verdict, wit = _negativity_on_cone(QMatrix([[1]]), PolyCone.origin(1))
    assert verdict == "neg" and wit is None


def test_single_ray_exact():
    ray = PolyCone.from_generators(2, [[1, 0]])
    assert _negativity_on_cone(QMatrix([[-1, 0], [0, 1]]), ray)[0] == "neg"
    verdict, wit = _negativity_on_cone(QMatrix([[1, 0], [0, -1]]), ray)
    assert verdict == "viol" and _form_value(QMatrix([[1, 0], [0, -1]]), wit) >= 0


def test_two_rays_interior_violation_found_exactly():
    # diagonal entries negative but a large positive cross term pushes the
    # form nonnegative strictly inside the cone
    q = QMatrix([[-1, 2], [2, -1]])
    verdict, wit = _negativity_on_cone(q, orthant(2))
    assert verdict == "viol"
    assert _form_value(q, wit) >= 0 and not wit.is_zero()
    assert orthant(2).contains(wit)


def test_two_rays_negative_with_positive_cross():
    q = QMatrix([[-1, F(9, 10)], [F(9, 10), -1]])
    assert _negativity_on_cone(q, orthant(2))[0] == "neg"


def test_subspace_cases():
    line = PolyCone.from_generators(2, lin=[[1, 0]])
    assert _negativity_on_cone(QMatrix([[-1, 0], [0, 5]]), line)[0] == "neg"
    verdict, wit = _negativity_on_cone(QMatrix([[1, 0], [0, -5]]), line)
    assert verdict == "viol" and line.contains(wit)
    # negative semidefinite with a kernel direction: the kernel vector is a
    # witness since the condition demands strict negativity
    verdict, wit = _negativity_on_cone(QMatrix([[0, 0], [0, -1]]), line)
    assert verdict == "viol" and _form_value(QMatrix([[0, 0], [0, -1]]), wit) == 0


def test_three_rays_all_cross_nonpositive_certified():
    q = QMatrix([[-1, 0, -2], [0, -1, -2], [-2, -2, -1]])
    assert _negativity_on_cone(q, orthant(3))[0] == "neg"


def test_three_rays_span_negative_definite_certified():
    q = QMatrix([[-2, F(1, 2), 0], [F(1, 2), -2, 0], [0, 0, -1]])
    assert _neg_definite(q)
    assert _negativity_on_cone(q, orthant(3))[0] == "neg"


def test_honest_unknown_when_no_certificate_applies():
    # strictly negative on the orthant, but indefinite on its span (take
    # u = (1,1,-2)), with one positive cross term defeating both sound
    # certificates; the bounded grid finds no violation because none exists
    q = QMatrix([[-1, F(9, 10), -2], [F(9, 10), -1, -2], [-2, -2, -1]])
    assert not _neg_definite(q)
    assert _form_value(q, QVector([1, 1, -2])) > 0
    verdict, wit = _negativity_on_cone(q, orthant(3))
    assert verdict == "unknown" and wit is None


def test_mixed_lineality_and_ray():
    halfplane = PolyCone.from_generators(2, rays=[[0, 1]], lin=[[1, 0]])
    assert _negativity_on_cone(QMatrix([[-1, 0], [0, -1]]), halfplane)[0] == "neg"
    q = QMatrix([[-1, 3], [3, -1]])
    verdict, wit = _negativity_on_cone(q, halfplane)
    assert verdict == "viol" and halfplane.contains(wit) and _form_value(q, wit) >= 0


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
def symmetric_matrices(draw):
    """Small symmetric rational matrices, diagonals biased negative so that
    definite, semidefinite and indefinite cases all come up."""
    n = draw(st.integers(1, 4))
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
    assert _neg_definite(m) == all((-1) ** k * d > 0 for k, d in enumerate(minors, 1))
