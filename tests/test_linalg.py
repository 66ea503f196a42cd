from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyvar import linalg
from polyvar.cones import PolyCone
from polyvar.linalg import (
    _SMALL,
    QMatrix,
    QVector,
    frac,
    kernel,
    kernel_of_rows,
    orth_complement,
    rank_of_rows,
    rref,
    solve,
)

rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=4
)


def small_matrices(max_dim=5):
    return st.integers(1, max_dim).flatmap(
        lambda nc: st.lists(
            st.lists(rationals, min_size=nc, max_size=nc), min_size=1, max_size=max_dim
        )
    ).map(QMatrix)


@st.composite
def matrices_with_zero_rows(draw, max_dim=5):
    """(ncols, rows): often with zero rows, sometimes with no rows at all."""
    nc = draw(st.integers(1, max_dim))
    row = st.one_of(st.just([Fraction(0)] * nc), st.lists(rationals, min_size=nc, max_size=nc))
    return nc, draw(st.lists(row, max_size=max_dim))


def reference_rank(rows):
    """Rank by Gaussian elimination over Fraction."""
    m = [list(r) for r in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        p = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[rank], m[p] = m[p], m[rank]
        for i in range(rank + 1, len(m)):
            f = m[i][c] / m[rank][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


def test_rref_identity():
    res = rref(QMatrix.identity(2))
    assert res.rank == 2
    assert res.reduced == QMatrix.identity(2)
    assert res.pivot_cols == (0, 1)


def test_rref_dependent_rows():
    res = rref(QMatrix([[1, 2], [2, 4]]))
    assert res.rank == 1
    assert res.reduced == QMatrix([[1, 2], [0, 0]])
    assert res.pivot_cols == (0,)


def test_rref_frozen_jacobian():
    # d/dx of (x1 - p, -x2 + x2^2) at the origin
    res = rref(QMatrix([[1, 0], [0, -1]]))
    assert res.rank == 2


def test_kernel_zero_matrix():
    basis = kernel(QMatrix([[0, 0], [0, 0]]))
    assert len(basis) == 2


def test_kernel_identity_empty():
    assert kernel(QMatrix.identity(3)) == []


def test_kernel_adjoint_rows():
    basis = kernel(QMatrix([[0, 0], [1, -1]]))
    assert len(basis) == 1
    v = basis[0]
    assert v[0] == v[1] != 0


def test_orth_complement_empty_and_zero():
    assert len(orth_complement([], 2)) == 2
    assert len(orth_complement([QVector([0, 0])], 2)) == 2


def test_kernel_of_rows_rejects_wrong_dimension():
    with pytest.raises(ValueError):
        kernel_of_rows([QVector([1, 2, 3])], 2)
    with pytest.raises(ValueError):
        kernel_of_rows([QVector([1, 2]), QVector([1])], 2)


def test_orth_complement_line():
    basis = orth_complement([QVector([1, 2])], 2)
    assert len(basis) == 1
    z = basis[0]
    assert z.dot(QVector([1, 2])) == 0 and not z.is_zero()


def test_solve_identity():
    assert solve(QMatrix.identity(2), QVector([3, 5])) == QVector([3, 5])


def test_solve_underdetermined():
    x = solve(QMatrix([[1, 1]]), QVector([2]))
    assert x is not None and x[0] + x[1] == 2


def test_solve_inconsistent():
    assert solve(QMatrix([[1], [1]]), QVector([1, 2])) is None


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_rref_idempotent(m):
    red = rref(m).reduced
    assert rref(red).reduced == red


@settings(max_examples=60, deadline=None)
@given(small_matrices(max_dim=6))
def test_rank_nullity(m):
    res = rref(m)
    assert res.rank + len(kernel(m)) == m.ncols


@settings(max_examples=80, deadline=None)
@given(matrices_with_zero_rows())
def test_rref_and_kernel_with_zero_rows(shape):
    nc, rows = shape
    res = rref(QMatrix(rows))
    red = [list(r) for r in res.reduced.rows]
    piv = res.pivot_cols
    # reduced echelon shape: one row per input row, the zero rows last,
    # rising pivots equal to 1 and alone in their columns
    assert len(red) == len(rows) and res.rank == len(piv)
    assert all(not any(r) for r in red[res.rank:])
    assert list(piv) == sorted(set(piv))
    for i, pc in enumerate(piv):
        assert not any(red[i][:pc]) and red[i][pc] == 1
        assert all(red[k][pc] == 0 for k in range(len(red)) if k != i)
    # the same row space: the nonzero reduced rows are independent and add
    # nothing to the span of the input
    assert reference_rank(rows) == res.rank == reference_rank(rows + red[: res.rank])
    # one kernel vector per free column: 1 there, 0 at the other free columns
    free = [j for j in range(nc) if j not in piv]
    basis = kernel_of_rows([QVector(r) for r in rows], nc)
    assert len(basis) == len(free)
    for f, v in zip(free, basis):
        assert all(QVector(r).dot(v) == 0 for r in rows)
        assert [v[j] for j in free] == [int(j == f) for j in free]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(rationals, min_size=3, max_size=3), min_size=0, max_size=3))
def test_orth_complement_involution(rows):
    vecs = [QVector(r) for r in rows]
    dbl = orth_complement(orth_complement(vecs, 3), 3)
    # double complement spans exactly span(vecs)
    nz = [v for v in vecs if not v.is_zero()]
    assert rank_of_rows(dbl) == rank_of_rows(nz)
    assert rank_of_rows(dbl + nz) == rank_of_rows(dbl)


@settings(max_examples=60, deadline=None)
@given(small_matrices())
def test_arithmetic_stays_canonical(m):
    res = rref(m)
    for row in res.reduced.rows:
        for x in row:
            assert x.denominator > 0
            assert Fraction(x.numerator, x.denominator) == x


def test_vector_ops_and_immutability():
    v = QVector(["1/2", 1])
    w = QVector([1, "2/4"])
    assert (v + w) == QVector(["3/2", "3/2"])
    assert (v - w) == QVector(["-1/2", "1/2"])
    assert v.dot(w) == Fraction(1)
    with pytest.raises(AttributeError):
        v.entries = ()


def test_primitive_scaling():
    assert QVector(["2/3", "-4/3"]).primitive() == QVector([1, -2])
    assert QVector([0, 0]).primitive() == QVector([0, 0])


def test_unit_rejects_an_index_outside_the_dimension():
    assert QVector.unit(3, 2) == QVector([0, 0, 1])
    for i in (3, 7, -1):
        with pytest.raises(ValueError):
            QVector.unit(3, i)


# ints inside and just outside the shared range, bools, Fractions, integer
# strings (with an optional sign) and "n/d" strings
entries = st.one_of(
    st.integers(-260, 260),
    st.booleans(),
    rationals,
    st.integers(-260, 260).map(str),
    st.integers(0, 260).map(lambda n: f"+{n}"),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-260, 260), st.integers(1, 9)),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(entries, max_size=8))
def test_qvector_coerces_each_entry_as_fraction_does(xs):
    v = QVector(xs)
    assert v.entries == tuple(Fraction(x) for x in xs)
    assert all(type(x) is Fraction for x in v.entries)


def test_small_integers_give_the_shared_fractions():
    for n in (-256, -1, 0, 1, 256):
        assert frac(n) is _SMALL[n]
        assert frac(str(n)) is _SMALL[n]
        assert all(x is _SMALL[n] for x in QVector([n, str(n)]))
    assert frac(257) == 257 and frac("-257") == -257


def test_bad_entries_raise_as_fraction_parsing_does():
    with pytest.raises(TypeError):
        QVector([1, 0.5])
    for text in ("1e3", "0.5"):
        with pytest.raises(ValueError):
            QVector([text])
    with pytest.raises(ZeroDivisionError):
        QVector(["1/0"])


def test_small_integers_construct_no_fraction(monkeypatch):
    orthant = PolyCone.from_ineqs(8, [[-int(i == j) for j in range(8)] for i in range(8)])
    made = []

    class Counting(type):
        def __instancecheck__(cls, x):
            return isinstance(x, Fraction)

        def __call__(cls, *args):
            made.append(args)
            return Fraction(*args)

    monkeypatch.setattr(linalg, "Fraction", Counting("Fraction", (), {}))
    frac(7), frac("-7"), frac(Fraction(1, 2))
    QVector([1, -256, 256, 0]), QVector(["3", "-3", "+0"])
    views = orthant.rays, orthant.lin, orthant.ineqs, orthant.eqs
    monkeypatch.undo()
    assert made == []
    assert [len(v) for v in views] == [8, 0, 8, 0]
