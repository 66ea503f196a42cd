"""Exact rational vectors, matrices and the linear-algebra kernels everything
else is built on.

All scalars are ``fractions.Fraction`` (arbitrary precision, always in
canonical reduced form with positive denominator), so every operation in this
module is exact.  Values are immutable and hashable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


def frac(x) -> Fraction:
    """Coerce ints, strings like "2/4" or "-3", and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {x!r}")


# One shared Fraction per small integer: canonical cone data is small
# primitive integers (over 99% of the entries ``_of_ints`` sees on each
# benchmark workload lie in this range), so most vectors built from integers
# allocate no new Fractions, and cached cones share them.
_SMALL = {n: Fraction(n) for n in range(-256, 257)}


class QVector:
    """Immutable vector of rationals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(frac(x) for x in entries))

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
        return sum((a * b for a, b in zip(self.entries, other.entries)), Fraction(0))

    def is_zero(self) -> bool:
        return all(a == 0 for a in self.entries)

    def _check_dim(self, other: "QVector") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    @staticmethod
    def _of_ints(ints: Iterable[int]) -> "QVector":
        """The vector with the given int entries (no coercion, no checks)."""
        v = object.__new__(QVector)
        small = _SMALL
        object.__setattr__(
            v, "entries", tuple([small[x] if -256 <= x <= 256 else Fraction(x) for x in ints])
        )
        return v

    @staticmethod
    def zero(dim: int) -> "QVector":
        return QVector([0] * dim)

    @staticmethod
    def unit(dim: int, i: int) -> "QVector":
        return QVector([1 if j == i else 0 for j in range(dim)])

    def primitive(self) -> "QVector":
        """Scale by a positive rational so entries are coprime integers.

        The zero vector is returned unchanged.  Sign is preserved, so this is
        the canonical representative of a ray direction.
        """
        from math import gcd, lcm

        if self.is_zero():
            return self
        den = lcm(*(x.denominator for x in self.entries))
        ints = [int(x * den) for x in self.entries]
        g = 0
        for v in ints:
            g = gcd(g, abs(v))
        return QVector(Fraction(v, g) for v in ints)


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

    def matmul(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("matmul dimension mismatch")
        cols = [other.col(j) for j in range(other.ncols)]
        return QMatrix([[r.dot(c) for c in cols] for r in self.rows])

    def is_symmetric(self) -> bool:
        return self.nrows == self.ncols and self == self.T

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
    """Reduced row echelon form over the rationals (unique)."""
    rows = [list(r.entries) for r in m.rows]
    nr, nc = m.nrows, m.ncols
    piv_cols: list[int] = []
    pr = 0
    for pc in range(nc):
        pivot = next((i for i in range(pr, nr) if rows[i][pc] != 0), None)
        if pivot is None:
            continue
        rows[pr], rows[pivot] = rows[pivot], rows[pr]
        pv = rows[pr][pc]
        rows[pr] = [x / pv for x in rows[pr]]
        for i in range(nr):
            if i != pr and rows[i][pc] != 0:
                f = rows[i][pc]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[pr])]
        piv_cols.append(pc)
        pr += 1
        if pr == nr:
            break
    return RrefResult(len(piv_cols), QMatrix(rows), tuple(piv_cols))


def kernel(m: QMatrix) -> list[QVector]:
    """Basis of the null space {x : m x = 0}."""
    if m.nrows == 0:
        raise ValueError("kernel of a matrix with no rows is ambiguous; pass explicit rows")
    res = rref(m)
    nc = m.ncols
    piv = set(res.pivot_cols)
    free = [j for j in range(nc) if j not in piv]
    basis = []
    for f in free:
        v = [Fraction(0)] * nc
        v[f] = Fraction(1)
        for i, pc in enumerate(res.pivot_cols):
            v[pc] = -res.reduced[i][f]
        basis.append(QVector(v))
    return basis


def kernel_of_rows(rows: Sequence[QVector], dim: int) -> list[QVector]:
    """Like kernel() but tolerates an empty row list (kernel = all of R^dim)."""
    if not rows:
        return [QVector.unit(dim, i) for i in range(dim)]
    return kernel(QMatrix(rows))


def orth_complement(vectors: Sequence[QVector], dim: int) -> list[QVector]:
    """Basis of { z : <z, v> = 0 for every given v }."""
    vecs = [v for v in vectors if not v.is_zero()]
    return kernel_of_rows(vecs, dim)


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
    x = [Fraction(0)] * nc
    for i, pc in enumerate(res.pivot_cols):
        if pc == nc:
            return None  # pivot in the augmented column: inconsistent
        x[pc] = res.reduced[i][nc]
    return QVector(x)


def rank_of_rows(rows: Sequence[QVector]) -> int:
    if not rows:
        return 0
    return rref(QMatrix(rows)).rank


def row_space_basis(rows: Sequence[QVector], dim: int) -> list[QVector]:
    """Canonical (RREF) basis of the span of the given vectors."""
    nz = [r for r in rows if not r.is_zero()]
    if not nz:
        return []
    res = rref(QMatrix(nz))
    return [res.reduced[i] for i in range(res.rank)]
