"""Exact rational vectors, matrices and the one elimination kernel that
the cone layer is built on.

Values at the API are ``fractions.Fraction`` (arbitrary precision, always in
canonical reduced form with positive denominator) held in immutable, hashable
``QVector``/``QMatrix`` objects, a boundary only: the package computes on
primitive integer tuples (``IntVec``).  ``QVector(entries)`` is the one way
to build a rational vector, from integer rows as from user input; small
integers share their Fractions (``_SMALL``), and so does their text, with
one lookup (``_SMALL_TEXT``).  Each row is scaled once by a positive
rational to a primitive integer vector (``_ints``), the reduced echelon
form is kept in integers by cross-multiplying and dividing by the gcd
(``_echelon``), and the null space is read off that echelon form
(``_kernel``): that is the one elimination.  ``rref``, ``rank_of_rows``,
``kernel``, ``orth_complement`` and ``QVector.primitive`` are public
wrappers that read their results off the integer ones, dividing back into
rationals once, at the end.  Every operation is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # sign, digits, "/digits"


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like "2/4" or "-3" to Fraction.

    The text of a small integer, as ``str`` writes it, is one table lookup
    that returns the shared Fraction (``_SMALL_TEXT``); any other text is
    parsed.  Other strings raise ValueError; ``Fraction`` never sees them,
    since it would build a ten-million-digit integer for "1e10000000"."""
    if type(x) is str:
        shared = _SMALL_TEXT.get(x)
        if shared is not None:
            return shared
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return _SMALL[x] if type(x) is int and -256 <= x <= 256 else Fraction(x)
    if isinstance(x, str):
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValueError(f"not a rational 'n' or 'n/d': {x!r}")
        return Fraction(int(m[1]), int(m[2])) if m[2] else frac(int(m[1]))
    raise TypeError(f"cannot build an exact rational from {x!r}")


# One shared Fraction per small integer, for ``frac`` and ``QVector``: cone
# data and problem rows are mostly small integers (over 99% of the integer
# entries on each benchmark workload lie in this range), so most vectors
# allocate no new Fractions, and cached cones share them.  Their text as
# ``str`` writes it ("-2", never "+2", "-0" or "007") maps to the same
# Fractions, so integer text from a file or the command line is one lookup.
_SMALL = {n: Fraction(n) for n in range(-256, 257)}
_SMALL_TEXT = {str(n): x for n, x in _SMALL.items()}


class QVector:
    """Immutable vector of rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        small = _SMALL  # the int branch of ``frac``, inline
        entries = tuple([small[x] if type(x) is int and -256 <= x <= 256 else frac(x) for x in entries])
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    @property
    def dim(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(str(x) for x in self.entries) + ")"

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        return QVector(a - b for a, b in zip(self.entries, other.entries))

    def __neg__(self) -> "QVector":
        return QVector(-a for a in self.entries)

    def scale(self, s) -> "QVector":
        s = frac(s)
        return QVector(s * a for a in self.entries)

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return sum((a * b for a, b in zip(self.entries, other.entries)), _SMALL[0])

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    @staticmethod
    def zero(dim: int) -> "QVector":
        return QVector((0,) * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "QVector":
        if not 0 <= i < dim:
            raise ValueError(f"unit vector index {i} outside range({dim})")
        return QVector([1 if j == i else 0 for j in range(dim)])

    def primitive(self) -> "QVector":
        """Scale by a positive rational so entries are coprime integers.

        The zero vector stays zero.  Sign is preserved, so this is the
        canonical representative of a ray direction.
        """
        return QVector(_ints(self))


def vec_plain(v: QVector) -> list[str]:
    """JSON-plain view of a vector: its entries as strings."""
    return [str(x) for x in v.entries]


class QMatrix:
    """Immutable rectangular matrix of rationals, stored as row QVectors."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable):
        rws = []
        for r in rows:
            rws.append(r if isinstance(r, QVector) else QVector(r))
        object.__setattr__(self, "rows", tuple(rws))
        if self.rows:
            d = self.rows[0].dim
            if any(r.dim != d for r in self.rows):
                raise ValueError("rows have unequal lengths")

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return self.rows[0].dim if self.rows else 0

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        return "QMatrix[" + "; ".join(repr(r) for r in self.rows) + "]"

    def __getitem__(self, i) -> QVector:
        return self.rows[i]

    def col(self, j: int) -> QVector:
        return QVector(r[j] for r in self.rows)

    @property
    def T(self) -> "QMatrix":
        return QMatrix([self.col(j) for j in range(self.ncols)])

    def matvec(self, v: QVector) -> QVector:
        if v.dim != self.ncols:
            raise ValueError("matvec dimension mismatch")
        return QVector(r.dot(v) for r in self.rows)

    def is_symmetric(self) -> bool:
        rows = [r.entries for r in self.rows]
        return self.nrows == self.ncols and all(r[j] == rows[j][i] for i, r in enumerate(rows) for j in range(i))

    @staticmethod
    def identity(n: int) -> "QMatrix":
        return QMatrix([QVector.unit(n, i) for i in range(n)])

    @staticmethod
    def zero(nrows: int, ncols: int) -> "QMatrix":
        return QMatrix([[0] * ncols for _ in range(nrows)])


@dataclass(frozen=True)
class RrefResult:
    rank: int
    reduced: QMatrix
    pivot_cols: tuple[int, ...]


def rref(m: QMatrix) -> RrefResult:
    """Reduced row echelon form over the rationals (unique): the integer
    echelon form with each row divided by its pivot, and the zero rows
    padded back."""
    ech, pivots = _echelon([_ints(r) for r in m.rows], m.ncols)
    reduced = _rref_q(ech) + (QVector.zero(m.ncols),) * (m.nrows - len(ech))
    return RrefResult(len(pivots), QMatrix(reduced), tuple(pivots))


def kernel(m: QMatrix) -> list[QVector]:
    """Basis of the null space {x : m x = 0}."""
    if m.nrows == 0:
        raise ValueError("kernel of a matrix with no rows is ambiguous; pass explicit rows")
    return kernel_of_rows(m.rows, m.ncols)


def kernel_of_rows(rows: Sequence[QVector], dim: int) -> list[QVector]:
    """Like kernel() but tolerates an empty row list (kernel = all of R^dim).

    One vector per free column f of the RREF: 1 at f, 0 at the other free
    columns.  The integer kernel vector's last nonzero entry is the one at f,
    so dividing by it gives exactly that vector.
    """
    if any(len(r) != dim for r in rows):
        raise ValueError("kernel row has wrong dimension")
    return [_divided(v, next(x for x in reversed(v) if x)) for v in _kernel([_ints(r) for r in rows], dim)]


def orth_complement(vectors: Sequence[QVector], dim: int) -> list[QVector]:
    """Basis of { z : <z, v> = 0 for every given v }."""
    return kernel_of_rows(vectors, dim)


def solve(a: QMatrix, b: QVector) -> QVector | None:
    """Some solution of a x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if a.nrows != b.dim:
        raise ValueError("solve: right-hand side has wrong dimension")
    if a.nrows == 0:
        return QVector.zero(a.ncols)
    aug = QMatrix([list(r.entries) + [bv] for r, bv in zip(a.rows, b.entries)])
    res = rref(aug)
    nc = a.ncols
    x = [0] * nc
    for i, pc in enumerate(res.pivot_cols):
        if pc == nc:
            return None  # pivot in the augmented column: inconsistent
        x[pc] = res.reduced[i][nc]
    return QVector(x)


def rank_of_rows(rows: Sequence[QVector]) -> int:
    return rref(QMatrix(rows)).rank


def row_space_basis(rows: Sequence[QVector], dim: int) -> list[QVector]:
    """Canonical (RREF) basis of the span of the given vectors."""
    res = rref(QMatrix(rows))
    return list(res.reduced.rows[: res.rank])


# -- integer elimination ----------------------------------------------------------


def _reduce(v: Sequence[int]) -> IntVec:
    """Divide an integer vector by the gcd of its entries (zero stays zero)."""
    g = gcd(*v)
    return tuple([x // g for x in v]) if g > 1 else tuple(v)


def _ints(v) -> IntVec:
    """The primitive integer vector that is a positive multiple of v.

    Accepts a QVector or a sequence of exact scalars (ints, Fractions, or
    strings such as "1/2").
    """
    if isinstance(v, QVector):  # entries are Fractions
        nums = [x.numerator for x in v.entries]
        dens = [x.denominator for x in v.entries]
        if dens.count(1) == len(dens):  # integer entries: no lcm
            return _reduce(nums)
        den = lcm(*dens)
        return _reduce([n * (den // d) for n, d in zip(nums, dens)])
    xs = tuple(v)
    if not all(type(x) is int for x in xs):
        xs = [x if isinstance(x, (int, Fraction)) else frac(x) for x in xs]
        den = lcm(*(x.denominator for x in xs))
        xs = [x.numerator * (den // x.denominator) for x in xs]
    return _reduce(xs)


def _dot(a: IntVec, b: IntVec) -> int:
    return sum(map(mul, a, b))


def _neg(v: IntVec) -> IntVec:
    return tuple([-x for x in v])


def _echelon(rows: Sequence[IntVec], dim: int) -> tuple[list[IntVec], list[int]]:
    """Integer reduced echelon form: (rows, pivot columns).

    Each returned row is primitive with a positive pivot and zeros in the
    other pivot columns; divided by its pivot it is the matching row of the
    rational RREF.  Zero rows are dropped.  Input rows must be primitive.
    No elimination runs when at most one row is nonzero: that row is its
    own echelon form, its sign made positive at its first nonzero column.
    Otherwise each column takes one plain scan for a pivot row below the
    rows placed so far and one swap; the pivot row is negated only when
    its pivot is negative, and every other row with a nonzero entry there
    is cross-multiplied against it and divided by its gcd.
    """
    m = [r for r in rows if any(r)]
    n = len(m)
    if n <= 1:
        if not m:
            return [], []
        r = m[0]
        for c, x in enumerate(r):
            if x:
                break
        return [r if x > 0 else _neg(r)], [c]
    pivots: list[int] = []
    k = 0
    for c in range(dim):
        for p in range(k, n):
            if m[p][c]:
                break
        else:
            continue
        pr = m[p]
        if p != k:
            m[p] = m[k]
        pv = pr[c]
        if pv < 0:
            pr, pv = _neg(pr), -pv
        m[k] = pr
        for i in range(n):
            mi = m[i]
            f = mi[c]
            if f and i != k:
                v = [pv * x - f * y for x, y in zip(mi, pr)]
                g = gcd(*v)
                m[i] = tuple([x // g for x in v]) if g > 1 else tuple(v)
        pivots.append(c)
        k += 1
        if k == n:
            break
    return m[:k], pivots


def _divided(v: IntVec, d: int) -> QVector:
    """The rational vector v / d."""
    return QVector(v if d == 1 else [Fraction(x, d) for x in v])


def _rref_q(rows: Sequence[IntVec]) -> tuple[QVector, ...]:
    """The rational RREF rows of an integer echelon form."""
    return tuple(_divided(r, next(x for x in r if x)) for r in rows)


def _kernel(rows: Sequence[IntVec], dim: int) -> list[IntVec]:
    """Null space basis of primitive integer rows: one primitive vector per
    free column, positive there and zero at the other free columns (unit
    vectors when there are no rows)."""
    return _echelon_kernel(*_echelon(rows, dim), dim)


def _echelon_kernel(ech: Sequence[IntVec], pivots: Sequence[int], dim: int) -> list[IntVec]:
    """``_kernel`` of rows already in the integer echelon form ``_echelon``
    returns."""
    if not ech:
        return [(0,) * f + (1,) + (0,) * (dim - 1 - f) for f in range(dim)]
    basis = []
    rows = list(zip(ech, pivots))
    for f in range(dim):
        if f in pivots:
            continue
        scale = 1
        for r, pc in rows:
            if r[f]:
                scale = lcm(scale, r[pc])
        v = [0] * dim
        v[f] = scale
        for r, pc in rows:
            if r[f]:
                v[pc] = -r[f] * (scale // r[pc])
        basis.append(_reduce(v))
    return basis
