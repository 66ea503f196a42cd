import fractions
import sys
from fractions import Fraction
from math import gcd, lcm

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


def reference_rref(rows, dim):
    """(nonzero rows, pivot columns) of the RREF by Gauss-Jordan over Fraction."""
    m = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(dim):
        k = len(pivots)
        p = next((i for i in range(k, len(m)) if m[i][c]), None)
        if p is None:
            continue
        m[k], m[p] = m[p], m[k]
        m[k] = [x / m[k][c] for x in m[k]]
        for i in range(len(m)):
            if i != k and m[i][c]:
                m[i] = [a - m[i][c] * b for a, b in zip(m[i], m[k])]
        pivots.append(c)
    return m[: len(pivots)], pivots


def primitive(row):
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


@st.composite
def primitive_rows(draw):
    """(dim, rows): no row, one row or several primitive integer rows in
    dimensions 0 to 7, with zero rows, repeated rows (some negated) and
    negative leading entries mixed in; or rows built so that elimination
    must swap a lower row up to the pivot (the first rows are zero in a
    column a later row is not) and meets pivots of both signs."""
    dim = draw(st.integers(0, 7))
    row = st.one_of(
        st.just((0,) * dim), st.lists(st.integers(-4, 4), min_size=dim, max_size=dim).map(primitive)
    )
    rows = draw(st.one_of(st.just([]), st.lists(row, min_size=1, max_size=1), st.lists(row, max_size=6)))
    if rows:
        for i, negate in draw(st.lists(st.tuples(st.integers(0, len(rows) - 1), st.booleans()), max_size=3)):
            rows.append(tuple(-x for x in rows[i]) if negate else rows[i])
    if dim >= 2 and draw(st.booleans()):
        # rows zero in column c, then a row with a pivot of either sign there
        c = draw(st.integers(0, dim - 2))
        tail = st.lists(st.integers(-4, 4), min_size=dim - c - 1, max_size=dim - c - 1)
        zero_at_c = [primitive((0,) * (c + 1) + tuple(t)) for t in draw(st.lists(tail, min_size=1, max_size=3))]
        pivot = draw(st.sampled_from([-3, -1, 1, 2]))
        lead = primitive((0,) * c + (pivot,) + tuple(draw(tail)))
        return dim, zero_at_c + [lead] + rows
    return dim, draw(st.permutations(rows))


@settings(max_examples=300, deadline=None)
@given(primitive_rows())
def test_integer_echelon_is_a_positive_multiple_of_the_rref_hypothesis(system):
    # the integer form the cone layer reads, rank 0 and 1 included: each row
    # primitive with a positive pivot, zero in the other pivot columns, and a
    # positive integer multiple of the matching row of the rational RREF
    dim, rows = system
    ech, pivots = linalg._echelon(rows, dim)
    ref, ref_pivots = reference_rref(rows, dim)
    assert pivots == ref_pivots and len(ech) == len(ref)
    for i, (r, q, pc) in enumerate(zip(ech, ref, pivots)):
        assert len(r) == dim and gcd(*r) == 1 and r[pc] > 0
        assert all(r[c] == 0 for k, c in enumerate(pivots) if k != i)
        assert [Fraction(x, r[pc]) for x in r] == q


def test_echelon_kernel_of_no_rows_is_the_unit_basis():
    for d in range(8):
        assert linalg._echelon_kernel([], [], d) == [tuple(int(j == i) for j in range(d)) for i in range(d)]


def test_integer_text_in_every_spelling_gives_the_integer():
    # str(n) is a table lookup; "+n", the zero-padded form and "-0" are
    # parsed, and give the shared Fraction whenever n is small; "0/5" is zero
    for n in range(-300, 301):
        for text in (str(n), f"{n:+d}", f"{n:05d}"):
            x = frac(text)
            assert type(x) is Fraction and x == n
            if -256 <= n <= 256:
                assert x is _SMALL[n]
    assert frac("-0") is _SMALL[0] and frac("0/5") == 0


def test_canonical_small_integer_text_skips_the_parser(monkeypatch):
    class Parsed(Exception):
        pass

    class Stub:
        def fullmatch(self, text):
            raise Parsed(text)

    monkeypatch.setattr(linalg, "_RATIONAL", Stub())
    v = QVector([str(n) for n in range(-256, 257)])
    assert all(x is _SMALL[n] for x, n in zip(v, range(-256, 257)))
    with pytest.raises(Parsed):
        QVector(["+1"])


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
    for den in (0, -2):
        with pytest.raises(ValueError):
            QVector([1, 2], den)


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


# -- the integer form behind the Fraction API ------------------------------------


def vectors_of(dim: int):
    """Vectors of ``dim`` drawn entries (so mixed denominators), or zero."""
    return st.one_of(st.just([0] * dim), st.lists(entries, min_size=dim, max_size=dim))


def reference_ints(xs):
    """The primitive integer vector that is a positive multiple of xs."""
    den = lcm(*(x.denominator for x in xs))
    ints = [x.numerator * (den // x.denominator) for x in xs]
    g = gcd(*ints)
    return tuple(n // g for n in ints) if g else tuple(ints)


@st.composite
def vector_systems(draw):
    """(x, y, rows of a 3 x dim matrix, a square matrix, a scalar), dim 0 to 5."""
    dim = draw(st.integers(0, 5))
    rows = draw(st.lists(vectors_of(dim), min_size=3, max_size=3))
    n = draw(st.integers(0, 3))
    square = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    return draw(vectors_of(dim)), draw(vectors_of(dim)), rows, square, draw(entries)


@settings(max_examples=200, deadline=None)
@given(vector_systems())
def test_qvector_and_qmatrix_agree_with_fraction_arithmetic_hypothesis(system):
    xs, ys, rows, square, s = system
    fx, fy, fs = [Fraction(x) for x in xs], [Fraction(y) for y in ys], Fraction(s)
    v, w = QVector(xs), QVector(ys)
    # every read is a Fraction equal to the drawn entry
    for got in (v.entries, tuple(v[i] for i in range(v.dim)), tuple(v)):
        assert got == tuple(fx) and all(type(x) is Fraction for x in got)
    assert v[1:] == tuple(fx[1:]) and hash(v) == hash(v.entries)
    assert repr(v) == "(" + ", ".join(map(str, fx)) + ")" and linalg.vec_plain(v) == list(map(str, fx))
    # equal values in other forms give an equal vector, with an equal hash
    den = lcm(*(x.denominator for x in fx))
    nums = [x.numerator * (den // x.denominator) for x in fx]
    for same in (QVector(fx), QVector(map(str, fx)), QVector(nums, den), QVector([3 * n for n in nums], 3 * den)):
        assert same == v and hash(same) == hash(v)
    # arithmetic on the integers matches Fraction arithmetic
    assert (v + w).entries == tuple(a + b for a, b in zip(fx, fy))
    assert (v - w).entries == tuple(a - b for a, b in zip(fx, fy))
    assert (-v).entries == tuple(-a for a in fx)
    assert v.scale(s).entries == tuple(fs * a for a in fx)
    assert v.dot(w) == sum(a * b for a, b in zip(fx, fy)) and type(v.dot(w)) is Fraction
    assert linalg._ints(v) == reference_ints(fx) == linalg._ints(xs)
    m = QMatrix(rows)
    assert m.matvec(v).entries == tuple(sum(Fraction(a) * b for a, b in zip(r, fx)) for r in rows)
    assert m.T.rows == tuple(QVector(c) for c in zip(*[[Fraction(a) for a in r] for r in rows]))
    sq = [[Fraction(x) for x in r] for r in square]
    mirrored = [[sq[min(i, j)][max(i, j)] for j in range(len(sq))] for i in range(len(sq))]
    assert QMatrix(square).is_symmetric() == all(sq[i][j] == sq[j][i] for i in range(len(sq)) for j in range(i))
    assert QMatrix(mirrored).is_symmetric()


def test_a_benchmark_op_on_the_bundled_examples_calls_no_fraction_code():
    """ex3, ex4 and ex5 through the path of a benchmark op (perfbench/ops.py):
    the parse, every check the op runs on that kind of problem, the matvec
    and sum that make the dir-reg direction, the graph normal cones, and
    the rendered reports with their JSON blocks.  Fractions are built only
    when a caller reads an entry, and none of these reads one."""
    from polyvar import certify, fileio, graphmap
    from polyvar.cli import bundled_problem_path

    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            calls.append(frame.f_code.co_name)

    for name in ("ex3", "ex4", "ex5"):
        path = bundled_problem_path(f"{name}.json")
        spec = fileio.parse_problem(path)
        if spec.kind == "variational":  # a tangent direction (u, w), chosen before the op from a parse of its own
            k = spec.graph_point().critical
            u = sum(k.generators(), QVector.zero(k.dim))
            normal = PolyCone.from_ineqs(k.dim, list(k.polar().ineqs), list(k.polar().eqs) + [u])
            w = sum(normal.generators(), QVector.zero(k.dim))
        sys.setprofile(profile)
        try:
            spec = fileio.parse_problem(path)
            if spec.kind == "constraint":
                certs = {
                    "foscms": certify.check_foscms(spec),
                    "calmness": certify.check_calmness_constraint(spec, "first"),
                    "aubin": certify.check_aubin(spec, "corollary"),
                }
                if spec.hessians is not None:
                    certs["soscms"] = certify.check_soscms(spec)
            else:
                certs = {"aubin": certify.check_aubin(spec, "corollary"), "foscms-joint": certify.check_foscms_joint(spec)}
                if certs["foscms-joint"].holds():
                    certs["aubin-theorem"] = certify.check_aubin(spec, "theorem")
                certs["dir-reg"] = certify.check_directional_metric_regularity(spec, u, w + spec.Jx.matvec(u))
                graphmap.limiting_normal_graph(spec.graph_point())
                graphmap.directional_limiting_normal_graph(spec.graph_point(), u, w)
            blocks = [fileio.render_report(check, cert).json_block() for check, cert in certs.items()]
        finally:
            sys.setprofile(None)
        assert blocks
        assert not calls, f"{name}: {len(calls)} calls into fractions: {sorted(set(calls))}"
