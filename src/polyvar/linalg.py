"""Exact rational vectors, matrices and the one elimination kernel that
the cone layer is built on.

A ``QVector`` holds integer numerators over one positive denominator, in
lowest terms.  Values at the API are ``fractions.Fraction`` (arbitrary
precision, always in canonical reduced form with positive denominator),
built only when a caller reads an entry (``entries``, ``v[i]``, ``iter``);
a small integer reads as its one shared Fraction (``_SMALL``).
``QVector(entries, den=1)`` is the one way to build a rational vector, the
vector of entries / den, from integer rows of results as from user input
(ints, Fractions, strings "n" or "n/d"); the text of a small integer is one
lookup (``_SMALL_TEXT``).  Its arithmetic (``+``, ``-``, ``scale``,
``dot``, ``QMatrix.matvec``) runs on the integers, and the other modules
take its integer forms through ``_ints`` (primitive) and ``_cleared`` (over
a common denominator), never through Fractions.  The package computes on
primitive integer tuples (``IntVec``): the reduced echelon form is kept in
integers by cross-multiplying and dividing by the gcd (``_echelon``), and
the null space is read off that echelon form (``_kernel``): that is the one
elimination.  ``rref``, ``rank_of_rows``, ``kernel``, ``orth_complement``,
``solve`` and ``QVector.primitive`` are public wrappers that read their
results off the integer ones, over one denominator per vector.  Every
operation is exact.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")  # sign, digits, "/digits"

# Cone data and problem rows are mostly small integers (over 99% of the
# integer entries on each benchmark workload lie in -256..256).  Each has one
# shared Fraction, which every read of such an entry returns, and its text
# as ``str`` writes it ("-2", never "+2", "-0" or "007") is one lookup to the
# int, for ``frac``, ``QVector`` and the problem-file parser alike.
_SMALL = {n: Fraction(n) for n in range(-256, 257)}
_SMALL_TEXT = {str(n): n for n in _SMALL}


def _pair(x) -> tuple[int, int]:
    """(numerator, positive denominator) of an int, a Fraction or a string
    "n" or "n/d", unreduced.  Other strings raise ValueError; ``Fraction``
    never sees them, since it would build a ten-million-digit integer for
    "1e10000000"."""
    if isinstance(x, str):
        n = _SMALL_TEXT.get(x)
        if n is not None:
            return n, 1
        m = _RATIONAL.fullmatch(x)
        if m is None:
            raise ValueError(f"not a rational 'n' or 'n/d': {x!r}")
        d = int(m[2] or 1)
        if not d:
            raise ZeroDivisionError(f"zero denominator in {x!r}")
        return int(m[1]), d
    if isinstance(x, int):
        return int(x), 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"cannot build an exact rational from {x!r}")


def _q(n: int, d: int) -> Fraction:
    """The Fraction n / d (d > 0), shared when it is a small integer."""
    if d != 1:
        if n % d:
            return Fraction(n, d)
        n //= d
    return _SMALL[n] if -256 <= n <= 256 else Fraction(n)


def frac(x) -> Fraction:
    """Coerce ints, Fractions and strings like "2/4" or "-3" to Fraction."""
    return x if isinstance(x, Fraction) else _q(*_pair(x))


class QVector:
    """Immutable vector of rationals: the integer numerators ``_num`` over
    one positive denominator ``_den``, in lowest terms.  ``QVector(entries,
    den)`` is the vector entries / den.  Equal vectors have equal integer
    forms, and hash as their tuples of entries do."""

    __slots__ = ("_num", "_den")

    def __init__(self, entries: Iterable, den: int = 1):
        num = tuple(entries)
        for x in num:
            if type(x) is not int:
                try:  # small-integer text, one lookup each
                    num = tuple([x if type(x) is int else _SMALL_TEXT[x] for x in num])
                except (KeyError, TypeError):  # other text, Fractions or bools: over one denominator
                    num, d = _common([_pair(x) for x in num])
                    den *= d
                break
        if den != 1:
            if den < 1:
                raise ValueError(f"denominator {den} is not positive")
            g = gcd(den, *num)
            if g > 1:
                num, den = tuple([x // g for x in num]), den // g
        object.__setattr__(self, "_num", num)
        object.__setattr__(self, "_den", den)

    def __setattr__(self, name, value):
        raise AttributeError("QVector is immutable")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        d = self._den
        return tuple([_q(x, d) for x in self._num])

    @property
    def dim(self) -> int:
        return len(self._num)

    def __len__(self) -> int:
        return len(self._num)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i] if isinstance(i, slice) else _q(self._num[i], self._den)

    def __eq__(self, other) -> bool:
        return isinstance(other, QVector) and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # hash(Fraction(n)) == hash(n): an integer vector hashes its numerators
        return hash(self._num if self._den == 1 else self.entries)

    def __repr__(self) -> str:
        return "(" + ", ".join(vec_plain(self)) + ")"

    def __add__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        (a, b), d = _cleared((self, other))
        return QVector(map(add, a, b), d)

    def __sub__(self, other: "QVector") -> "QVector":
        self._check_dim(other)
        (a, b), d = _cleared((self, other))
        return QVector(map(sub, a, b), d)

    def __neg__(self) -> "QVector":
        return QVector([-x for x in self._num], self._den)

    def scale(self, s) -> "QVector":
        n, d = _pair(s)
        return QVector([n * x for x in self._num], d * self._den)

    def dot(self, other: "QVector") -> Fraction:
        self._check_dim(other)
        return _q(_dot(self._num, other._num), self._den * other._den)

    def is_zero(self) -> bool:
        return not any(self._num)

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
    """JSON-plain view of a vector: its entries as strings, as ``str``
    writes their Fractions."""
    return _plain(v._num, v._den)


def _plain(num: Sequence[int], den: int) -> list[str]:
    """The strings of the rationals x / den for x in num (den > 0)."""
    if den == 1:
        return list(map(str, num))
    out = []
    for x in num:
        g = gcd(x, den)
        out.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return out


def _common(pairs: Sequence[tuple[int, int]]) -> tuple[IntVec, int]:
    """The numerators of (n, d) pairs over their least common denominator,
    and it."""
    d = lcm(*[q for _, q in pairs])
    return tuple([p * (d // q) for p, q in pairs]), d


def _cleared(vectors: Iterable) -> tuple[tuple[IntVec, ...], int]:
    """The vectors (QVectors, or what ``QVector`` takes) times the least
    positive integer d that clears every denominator, and d."""
    vs = [v if isinstance(v, QVector) else QVector(v) for v in vectors]
    d = lcm(*[v._den for v in vs])
    return tuple([v._num if v._den == d else tuple([x * (d // v._den) for x in v._num]) for v in vs]), d


def _augmented(rows: Iterable, rhs: Iterable) -> list[IntVec]:
    """For each row a and its entry b of ``rhs``, the primitive integer
    vector that is a positive multiple of (a, b)."""
    (an, s), ((bn,), bd) = _cleared(rows), _cleared([rhs])
    return [_reduce([x * bd for x in r] + [y * s]) for r, y in zip(an, bn)]


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
        rows, d = _cleared(self.rows)
        return QVector([r[j] for r in rows], d)

    @property
    def T(self) -> "QMatrix":
        return QMatrix([self.col(j) for j in range(self.ncols)])

    def matvec(self, v: QVector) -> QVector:
        if v.dim != self.ncols:
            raise ValueError("matvec dimension mismatch")
        rows, d = _cleared(self.rows)
        return QVector([_dot(r, v._num) for r in rows], d * v._den)

    def is_symmetric(self) -> bool:
        rows = _cleared(self.rows)[0]  # one common scale keeps the symmetry
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
    return [QVector(v, next(x for x in reversed(v) if x)) for v in _kernel([_ints(r) for r in rows], dim)]


def orth_complement(vectors: Sequence[QVector], dim: int) -> list[QVector]:
    """Basis of { z : <z, v> = 0 for every given v }."""
    return kernel_of_rows(vectors, dim)


def solve(a: QMatrix, b: QVector) -> QVector | None:
    """Some solution of a x = b, or None if the system is inconsistent.

    Free variables are set to zero, so the answer is deterministic.
    """
    if a.nrows != b.dim:
        raise ValueError("solve: right-hand side has wrong dimension")
    nc = a.ncols
    ech, pivots = _echelon(_augmented(a.rows, b), nc + 1)
    if nc in pivots:
        return None  # pivot in the augmented column: inconsistent
    # x at pivot column pc is r[nc] / r[pc], over the pivots' common multiple
    d = lcm(*[r[pc] for r, pc in zip(ech, pivots)])
    x = [0] * nc
    for r, pc in zip(ech, pivots):
        x[pc] = r[nc] * (d // r[pc])
    return QVector(x, d)


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
    strings such as "1/2"): its numerators, divided by their gcd.
    """
    return _reduce((v if isinstance(v, QVector) else QVector(v))._num)


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


def _rref_q(rows: Sequence[IntVec]) -> tuple[QVector, ...]:
    """The rational RREF rows of an integer echelon form."""
    return tuple(QVector(r, next(x for x in r if x)) for r in rows)


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
