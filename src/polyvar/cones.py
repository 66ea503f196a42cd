"""Polyhedral convex cones whose second representation is read off the incidence.

A ``PolyCone`` has two representations:

* an irredundant H-representation: rows ``a`` with ``<a, z> <= 0`` (``ineqs``)
  and rows ``e`` with ``<e, z> = 0`` (``eqs``), and
* an irredundant V-representation: extreme-ray representatives of the pointed
  part (``rays``) and a basis of the lineality space (``lin``).

A cone keeps the one it was built with (``from_ineqs`` converts its rows to
generators, ``from_generators`` its generators to rows) together with the
incidence that conversion tracks, one zero-set bitmask per ray over the
rows, and reads the other off that incidence the first time it is read
(``_read_off``): the rows zero on every ray are implicit equations, and
among the others the rows with inclusion-maximal zero sets are the facets
(Fukuda & Prodon 1996; Schrijver 1986, §8.2).  So each cone costs one
conversion, a cone and its polar share both sides, and a side nothing reads
is never built.  Faces, the closures ``open_cell`` returns and exposed
faces (critical cones, stratum normals, polars of difference cones, graph
cells) read their rows off the same incidence, cut to their rays.

Conversion between the two runs the double description method: equalities are
absorbed into the start basis (``_dd``), inequalities are processed one at a
time while the (lineality basis, ray list) pair is kept in sync
(``_dd_steps``), and the ray list is irredundant after every step, because
adjacency is decided exactly.  The method is incremental, so an intersection
continues its first operand's conversion: ``intersect`` starts the step loop
from that cone's generators and their zero sets over its facets, and
processes only the other operand's rows; ``minkowski_sum`` is the polar of
the intersection of the polars, and ``sets.direction_strata`` and Phase A's
``certify.covers_space`` cut a cell by more rows the same way.  Both representations are
canonicalized so that cone equality is plain structural equality of integer
tuples:

* the lineality basis is in integer echelon form (unique; ``lin`` divides
  each row by its pivot, which gives the RREF basis),
* each ray is orthogonally projected onto the complement of the lineality
  space and scaled to a primitive integer vector (unique representative of
  its ray class), once, when the cone is made canonical (``_canonical``),
  and the ray list is sorted,
* ``ineqs``/``eqs`` are read off in the form the same pipeline gives the
  V-representation of the polar cone: the equation rows in integer echelon
  form, each facet row projected off their span, primitive, and sorted.

The conversion works on primitive integer tuples: each input row is scaled
once by a positive rational to coprime integers (``linalg._ints``).  Within
a pass of ``_dd_steps`` a row that cuts the lineality space moves the basis
and the rays by integer cross-multiplication with no division, a new ray is
the combination of an adjacent pair divided by its gcd, and the pass divides
its basis and rays by their gcds once, before it returns; it leaves its rays
unprojected off the lineality space, as the pass that continues them tests
only rows that vanish there.  Rows that are integer tuples already (the rows
and generators of other cones, the certifiers' pullbacks, a problem file's
polyhedra) enter through ``_of_rows``, which divides each row by its gcd and
checks its length; ``from_ineqs`` and ``from_generators`` scale their rows
with ``_ints`` and only check the lengths (``_of_primitive``).
Two rays are combined only if they are adjacent, which is decided
combinatorially from their zero sets (Fukuda & Prodon, "Double description
method revisited", 1996), so every ray kept is extreme and no rank is computed
per ray.  The start basis and the canonical lineality rows come from the
integer elimination routines of ``linalg`` (echelon form, kernel), called
directly.
A ``PolyCone`` stores only these integer forms, and ``key()``, equality and
hashing read them.  ``fractions.Fraction`` appears only at the API boundary:
``ineqs``, ``eqs``, ``rays`` and ``lin`` are ``QVector`` views built from the
integer forms when they are read (each the integer row over one denominator,
so no Fraction is built until an entry is read), and ``cone_plain`` writes the generators'
strings from the integer forms directly, afresh on each call; a cone's rows are
the generators of its polar, so their strings are the polar's view.

The second order test asks "is the open cell {leq.z <= 0, eqs.z = 0,
strict.z < 0} nonempty?", and ``open_cell`` answers it from the rays of the
cell's closure, whose canonical generators it returns as a cone.  Cones are built from canonical generators and their
incidence in one step (``_of_generators``), so no cell pays for a polar
conversion: a nonempty cell's rows are read off when they are first read.

Face lattices are read off the ray/row incidence of the two representations
(Kaibel & Pfetsch, 2002): a face is spanned by the rays zero on its active
rows, and its implied active set is the rows zero on all of those rays.  The
enumeration (``_face_lattice``) makes no conversion per candidate face, and
``sets.Polyhedron.faces`` runs it on the homogenization cone.

Everything is exact; there is no tolerance anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .linalg import IntVec, QVector, _dot, _echelon, _echelon_kernel, _ints, _neg, _plain, _reduce, _rref_q


def _orthogonal(basis: Sequence[IntVec]) -> list[tuple[IntVec, int]]:
    """Integer Gram-Schmidt: pairwise orthogonal vectors spanning the same
    space as the (independent) basis, each with its squared norm."""
    out: list[tuple[IntVec, int]] = []
    for b in basis:
        q = _project_off(b, out)
        out.append((q, sum(map(mul, q, q))))
    return out


def _project_off(v: IntVec, ortho: Sequence[tuple[IntVec, int]]) -> IntVec:
    """Positive multiple of the component of v orthogonal to span(ortho),
    primitive when v is; ``ortho`` comes from ``_orthogonal``."""
    for q, qq in ortho:
        c = sum(map(mul, q, v))
        if c:
            v = _reduce([qq * x - c * y for x, y in zip(v, q)])
    return v


def _dd(
    dim: int, ineqs: Sequence, eqs: Sequence
) -> tuple[list[IntVec], list[IntVec], list[int], list[IntVec], list[IntVec]]:
    """Generators (lineality basis, extreme rays) of {z : ineqs.z <= 0, eqs.z = 0},
    with the incidence the conversion tracks: the zero set of each ray (a
    bitmask over the nonzero inequality rows), those rows, and the integer
    echelon form of the equations.

    The start of a double description: the equations are absorbed into the
    start basis, the kernel of their echelon form, with no ray and no row
    processed; ``_dd_steps`` processes the nonzero inequality rows from there.
    Rows are primitive integer tuples (see ``_ints``), and so are the
    generators that come back, the rays not projected off the basis
    (``_canonical`` projects them).
    """
    eq_echelon, pivots = _echelon(eqs, dim) if eqs else ([], [])
    basis = _echelon_kernel(eq_echelon, pivots, dim)
    return _dd_steps(dim, basis, [], [], [], [a for a in ineqs if any(a)], eq_echelon)


def _dd_steps(
    dim: int,
    basis: Sequence[IntVec],
    rays: Sequence[IntVec],
    zeros: Sequence[int],
    done: Sequence[IntVec],
    new: Sequence[IntVec],
    eq_echelon: Sequence[IntVec],
) -> tuple[list[IntVec], list[IntVec], list[int], list[IntVec], list[IntVec]]:
    """Continue a double description pair through the rows ``new``.

    span(basis) + cone(rays) must be {z : done.z <= 0, eq_echelon.z = 0},
    with each extreme ray class in ``rays`` once (any primitive
    representative of the class modulo span(basis)) and ``zeros`` its
    bitmask over ``done``; ``eq_echelon`` is an integer echelon form
    (independent rows).  ``_dd`` starts with no row done;
    ``PolyCone.intersect`` starts from a cone's generators and facets,
    ``sets.direction_strata`` from a cell's closure.  Returns what ``_dd`` does, over the rows ``done`` then
    ``new``.

    Incremental double description: after each step span(B) + cone(R) is
    the cone of the rows processed so far, and R holds each extreme ray
    class once, with its zero set over the processed rows.  So no ray is
    tested for extremality:

    * a row a that cuts span(B) splits the new cone as the direct sum
      ray(b0) ⊕ (the old pointed part moved into <a, z> = 0 along b0);
    * otherwise the new rays are the old ones with <a, r> <= 0 and a positive
      combination w of each adjacent pair with <a, r> of both signs, adjacent
      iff no third zero set holds their common one (Fukuda & Prodon 1996);
      w's zero set is exactly ``common | bit``, as <a_j, w> adds two terms <= 0;
    * different adjacent pairs span different 2-faces, so no w repeats.

    An adjacent pair spans a face of dimension len(B) + 2, so its common rows
    and the equations (of rank dim - nstart, nstart = dim - len(eq_echelon))
    have rank dim - len(B) - 2: a pair with fewer than nstart - len(B) - 2
    common rows is skipped before the scan for a third ray.

    The pass normalises once.  The pivot b0 is the first basis vector with
    <a, b0> != 0, and the vectors before it are kept as they are; the other
    basis vectors and the rays are moved by cross-multiplication with no
    gcd, and the vectors so moved are divided by their gcds just before the
    pass returns.  A combination of an adjacent pair is divided by its gcd
    at once, since its entries would otherwise double in size at every
    step.  Every update is a positive multiple of the primitive one, so the
    signs, zero sets and order of the rays do not depend on when the gcd is
    taken.  The rays come back unprojected off span(B): a ray of the class
    may carry any vector of span(B), and every processed row vanishes there,
    so the signs and zero sets that a later pass tests are those of the
    class.  ``_canonical`` projects them.
    """
    nstart = dim - len(eq_echelon)
    cut = False
    for k, a in enumerate(new, len(done)):
        bit = 1 << k
        for pivot, b0 in enumerate(basis):
            if p0 := sum(map(mul, a, b0)):
                break
        else:
            p0 = 0
        if p0:
            # a cuts the lineality space: b0 (with <a, b0> < 0) becomes a ray,
            # and the basis vectors after it and the rays are moved into the
            # hyperplane <a, z> = 0 along b0, with no gcd: a vector moved in
            # this pass is a list until the pass reduces it at its end.
            if p0 > 0:
                b0, p0 = (_neg(b0) if type(b0) is tuple else [-x for x in b0]), -p0
            q = -p0
            basis = list(basis[:pivot]) + [
                [q * x + p * y for x, y in zip(b, b0)] if (p := sum(map(mul, a, b))) else b for b in basis[pivot + 1 :]
            ]
            rays = [[q * x + p * y for x, y in zip(r, b0)] if (p := sum(map(mul, a, r))) else r for r in rays]
            zeros = [z | bit for z in zeros]
            rays.append(b0)
            zeros.append(bit - 1)  # b0 lies in the old lineality space
            cut = True
            continue
        vals = [sum(map(mul, a, r)) for r in rays]
        neg, zero, pos = [], [], []
        for i, v in enumerate(vals):
            (neg if v < 0 else pos if v else zero).append(i)
        if not pos:
            zeros = [z | bit if v == 0 else z for z, v in zip(zeros, vals)]
            continue
        new_rays = [rays[i] for i in neg] + [rays[i] for i in zero]
        new_zeros = [zeros[i] for i in neg] + [zeros[i] | bit for i in zero]
        need = nstart - len(basis) - 2
        for ip in pos:
            rp, zp, vp = rays[ip], zeros[ip], vals[ip]
            for jn in neg:
                common = zp & zeros[jn]
                if common.bit_count() < need:
                    continue
                # Adjacent iff no third ray's zero set contains the common one
                # (the pair's own two do).
                held = 0
                for z in zeros:
                    if z & common == common:
                        held += 1
                        if held > 2:
                            break
                else:
                    vn = vals[jn]
                    new_rays.append(_reduce([vp * x - vn * y for x, y in zip(rays[jn], rp)]))
                    new_zeros.append(common | bit)
        rays, zeros = new_rays, new_zeros

    if cut:
        basis = [_reduce(b) if type(b) is list else b for b in basis]
        rays = [_reduce(r) if type(r) is list else r for r in rays]
    return basis, rays, zeros, [*done, *new], eq_echelon


def _generators(dim: int, ineqs: Sequence, eqs: Sequence) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple]:
    """Canonical integer (lineality echelon rows, sorted rays) of the cone
    {z : ineqs.z <= 0, eqs.z = 0}, and the incidence (rows, equation echelon
    rows, zero sets of the rays) that ``_read_off`` reads its rows from."""
    return _canonical(dim, *_dd(dim, ineqs, eqs))


def _canonical(
    dim: int,
    basis: Sequence[IntVec],
    rays: Sequence[IntVec],
    zeros: Sequence[int],
    rows: Sequence[IntVec],
    eq_echelon: Sequence[IntVec],
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], tuple]:
    """What ``_generators`` returns, from what ``_dd`` or ``_dd_steps`` does:
    the lineality basis in integer echelon form and the rays projected off
    it (``_projected``), sorted."""
    lin = tuple(_echelon(basis, dim)[0]) if basis else ()
    return lin, tuple(sorted(_projected(basis, rays))), (rows, eq_echelon, zeros)


def _projected(basis: Sequence[IntVec], rays: Sequence[IntVec]) -> Sequence[IntVec]:
    """Each (primitive) ray projected off span(basis), made primitive: the
    one representative of its class modulo the lineality space.  A pass of
    ``_dd_steps`` leaves its rays unprojected; ``_canonical`` projects them,
    as do ``_read_off`` its facet rows and ``certify.covers_space`` a gap
    cell's rays before it sums them."""
    if basis and rays:
        ortho = _orthogonal(basis)
        return [_project_off(r, ortho) for r in rays]
    return rays


def _read_off(
    dim: int, rows: Sequence[IntVec], eqs: Sequence[IntVec], zeros: Sequence[int]
) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...]]:
    """Canonical (sorted rays, lineality echelon rows) of the polar of a cone,
    read off the incidence of the cone's rays with its rows; no conversion.

    ``rows`` are primitive rows <= 0 on the cone and ``eqs`` echelon rows = 0
    on it; ``zeros`` holds, per ray (in any order), the bitmask of the rows
    zero on it.  The cone must be {rows.z <= 0, eqs.z = 0} with its implicit
    equations, the rows zero on every ray, also taken as equations (a face is
    its cone's rows with the face's active set).  Then the polar's lineality
    space is spanned by ``eqs`` and the implicit equations.  Among the other
    rows, those whose sets of zero rays are inclusion-maximal define the
    facets (Schrijver, "Theory of Linear and Integer Programming", 1986,
    §8.2); rows with one such set define the same facet.  Projected off the
    lineality space and made primitive, one row per facet is the polar's
    extreme ray as the double description of the polar returns it.
    """
    implicit = (1 << len(rows)) - 1
    for z in zeros:
        implicit &= z
    lin = _echelon([*eqs, *(rows[i] for i in _bits(implicit))], dim)[0] if implicit else eqs
    on_rays: dict[int, int] = {}  # set of zero rays -> the first row with it
    for i in range(len(rows)):
        if not implicit >> i & 1:
            mask = 0
            for k, z in enumerate(zeros):
                if z >> i & 1:
                    mask |= 1 << k
            on_rays.setdefault(mask, i)
    facets = []
    for s, i in on_rays.items():
        for t in on_rays:
            if t & s == s and t != s:
                break
        else:
            facets.append(rows[i])
    return tuple(sorted(_projected(lin, facets))), tuple(lin)


def _of_rows(
    dim: int, ineqs: Iterable[Sequence[int]], eqs: Iterable[Sequence[int]], what: str = "constraint row"
) -> "PolyCone":
    """The cone {z : ineqs.z <= 0, eqs.z = 0} of rows that are integer
    tuples already: ``from_ineqs`` with no type scan.  Each row is made
    primitive and its length checked; ``what`` names a row in the error."""
    return _of_primitive(dim, map(_reduce, ineqs), map(_reduce, eqs), what)


def _of_primitive(
    dim: int, ineqs: Iterable[IntVec], eqs: Iterable[IntVec], what: str = "constraint row"
) -> "PolyCone":
    """``_of_rows`` of rows that are primitive already, such as those
    ``_ints`` returns to ``from_ineqs`` and ``from_generators``: only their
    lengths are checked."""
    ineqs, eqs = _sized(dim, ineqs, what), _sized(dim, eqs, what)
    return _of_generators(dim, *_generators(dim, ineqs, eqs))


def _sized(dim: int, rows: Iterable[IntVec], what: str) -> list[IntVec]:
    """The rows as a list, each checked to have length ``dim``."""
    out = []
    for r in rows:
        if len(r) != dim:
            raise ValueError(f"{what} has wrong dimension")
        out.append(r)
    return out


def _of_generators(dim: int, lin: tuple[IntVec, ...], rays: tuple[IntVec, ...], incidence: tuple) -> "PolyCone":
    """The cone with these canonical generators (as ``_generators`` returns
    them); its irredundant H-rep is read off ``incidence`` (the arguments of
    ``_read_off`` after ``dim``) when it is first read."""
    return _cone(dim, [(rays, lin), None, incidence], 0)


def _cone(dim: int, reps: list, side: int) -> "PolyCone":
    """The cone whose (rays, lin) are ``reps[side]`` and whose (ineqs, eqs)
    are ``reps[1 - side]``; a side not read yet is None, and ``reps[2]``
    holds the incidence it is read off.  The polar reads the same list from
    the other side, so the two share both sides."""
    c = object.__new__(PolyCone)
    object.__setattr__(c, "dim", dim)
    object.__setattr__(c, "_reps", reps)
    object.__setattr__(c, "_side", side)
    object.__setattr__(c, "_faces", None)
    object.__setattr__(c, "_hash", None)
    return c


class PolyCone:
    """Polyhedral convex cone; construct via from_ineqs / from_generators.

    The integer forms of the two representations are the cone's only data:
    ``_h`` holds (ineqs, eqs) and ``_v`` holds (rays, lin), the inequality
    rows and rays as sorted primitive integer tuples, the equation rows and
    lineality basis as integer echelon rows.  A cone is built with one of
    them and the incidence of its generators with the rows that describe
    it; the other side is read off that incidence (``_read_off``, no
    conversion) the first time ``_h`` or ``_v`` is read, kept in the list
    ``_reps`` that the cone shares with its polars, and then held in its
    slot like the first.  ``key()`` is (dim, lineality rows, rays) of
    ``_v``; ``_hash`` holds its hash once the cone is first hashed, as
    ``_v`` never changes once it is read.  ``ineqs``, ``eqs``, ``rays`` and
    ``lin`` are rational views built from the integer forms on each read.
    """

    __slots__ = ("dim", "_reps", "_side", "_h", "_v", "_faces", "_hash")

    def __init__(self, *args, **kwargs):
        raise TypeError("use PolyCone.from_ineqs or PolyCone.from_generators")

    def __getattr__(self, name):
        # Called only for a slot not set yet: _h and _v fill on first read.
        if name != "_v" and name != "_h":
            raise AttributeError(name)
        reps = self._reps
        i = self._side if name == "_v" else 1 - self._side
        value = reps[i]
        if value is None:
            value = reps[i] = _read_off(self.dim, *reps[2])
            reps[2] = None  # both sides are known
        object.__setattr__(self, name, value)
        return value

    def __setattr__(self, name, value):
        if name == "_faces":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("PolyCone is immutable")

    # -- rational views ----------------------------------------------------

    @property
    def ineqs(self) -> tuple[QVector, ...]:
        return tuple(map(QVector, self._h[0]))

    @property
    def eqs(self) -> tuple[QVector, ...]:
        return _rref_q(self._h[1])  # the RREF rows

    @property
    def rays(self) -> tuple[QVector, ...]:
        return tuple(map(QVector, self._v[0]))

    @property
    def lin(self) -> tuple[QVector, ...]:
        return _rref_q(self._v[1])  # the RREF basis

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_ineqs(dim: int, ineqs: Iterable = (), eqs: Iterable = ()) -> "PolyCone":
        return _of_primitive(dim, map(_ints, ineqs), map(_ints, eqs))

    @staticmethod
    def from_generators(dim: int, rays: Iterable = (), lin: Iterable = ()) -> "PolyCone":
        # The cone is the polar of {a : <a,r> <= 0, <a,l> = 0}.
        return _of_primitive(dim, map(_ints, rays), map(_ints, lin), "generator").polar()

    @staticmethod
    def origin(dim: int) -> "PolyCone":
        return PolyCone.from_generators(dim)

    # -- canonical identity ------------------------------------------------

    def key(self):
        rays, lin = self._v
        return (self.dim, lin, rays)

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyCone) and self.key() == other.key()

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash(self.key())
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"PolyCone(dim={self.dim}, rays={list(self.rays)}, lin={list(self.lin)})"

    # -- queries -----------------------------------------------------------

    def contains(self, z: QVector) -> bool:
        if z.dim != self.dim:
            raise ValueError("point has wrong dimension")
        return self._holds(_ints(z))

    def _holds(self, z: IntVec) -> bool:
        """Membership of a positive multiple of a point, in integers."""
        ineqs, eqs = self._h
        return all(sum(map(mul, a, z)) <= 0 for a in ineqs) and not any(sum(map(mul, e, z)) for e in eqs)

    def is_trivial(self) -> bool:
        return not self._v[0] and not self._v[1]

    def generators(self) -> list[QVector]:
        """Rays plus +/- lineality basis: a conic generating set."""
        gens = list(self.rays)
        for l in self.lin:
            gens.append(l)
            gens.append(-l)
        return gens

    def _int_generators(self) -> list[IntVec]:
        rays, lin = self._v
        return list(rays) + [g for l in lin for g in (l, _neg(l))]

    def subcone_of(self, other: "PolyCone") -> bool:
        self._check_dim(other)
        return all(other._holds(g) for g in self._int_generators())

    def rel_interior_point(self) -> QVector:
        """A point in the relative interior (0 for the trivial cone)."""
        rays = self._v[0]
        return QVector(map(sum, zip(*rays))) if rays else QVector.zero(self.dim)

    # -- algebra -----------------------------------------------------------

    def polar(self) -> "PolyCone":
        """Negative polar cone {z* : <z*, z> <= 0 on self}.

        Pure representation swap: generators become constraints and vice
        versa.  The polar reads the cone's own pair of representations, so a
        side converted for either one is there for both.
        """
        return _cone(self.dim, self._reps, 1 - self._side)

    def intersect(self, other: "PolyCone") -> "PolyCone":
        """The cone self ∩ other, by continuing self's conversion.

        Double description is incremental, so the meet starts from self's
        generators (its lineality basis and extreme rays, with their zero
        sets over self's facets, under self's equations) and processes only
        other's facets that are not self's, and each of other's equations e
        as the two rows e and -e: one pass of ``_dd_steps`` over other's
        rows.  The meet's rows are read off that incidence when they are
        first read.
        """
        self._check_dim(other)
        (ineqs, eqs), (rays, lin) = self._h, self._v
        other_ineqs, other_eqs = other._h
        mine = set(ineqs)
        new = [a for a in other_ineqs if a not in mine] + [r for e in other_eqs for r in (e, _neg(e))]
        steps = _dd_steps(self.dim, list(lin), rays, _zero_sets(ineqs, rays), ineqs, new, eqs)
        return _of_generators(self.dim, *_canonical(self.dim, *steps))

    def minkowski_sum(self, other: "PolyCone") -> "PolyCone":
        """The cone self + other: the polar of the meet of the polars, so it
        continues the conversion of self's polar (see ``intersect``)."""
        return self.polar().intersect(other.polar()).polar()

    def _check_dim(self, other: "PolyCone") -> None:
        if self.dim != other.dim:
            raise ValueError("cone dimension mismatch")

    # -- faces ---------------------------------------------------------------

    def faces(self) -> tuple["Face", ...]:
        """All closed faces, from the cone itself down to the lineality space.

        Faces come from the ray/row incidence relation (``_face_lattice``),
        with no conversion per candidate face.  A face is spanned by the
        cone's rays zero on its active rows plus the lineality space, so its
        V-representation is a sorted subset of the cone's and is already
        canonical; its H-representation is read off the zero sets of those
        rays over the cone's rows when it is first read (``_read_off``).
        """
        if self._faces is not None:
            return self._faces
        ineqs, eqs = self._h
        rays, lin = self._v
        zero_sets = _zero_sets(ineqs, rays)
        out = []
        for active, ray_mask in _face_lattice(len(ineqs), zero_sets):
            on = _bits(ray_mask)
            if len(on) == len(rays):
                cone = self
            else:
                cone = _of_generators(
                    self.dim, lin, tuple(rays[k] for k in on), (ineqs, eqs, [zero_sets[k] for k in on])
                )
            out.append(Face(frozenset(active), cone))
        self._faces = tuple(out)
        return self._faces


def _bits(mask: int) -> list[int]:
    """Indices of the set bits of a mask, ascending."""
    out, k = [], 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def _zero_sets(rows: Sequence[IntVec], rays: Sequence[IntVec]) -> list[int]:
    """Per ray, the bitmask of the rows zero on it."""
    out = []
    for r in rays:
        zero = 0
        for i, a in enumerate(rows):
            if not sum(map(mul, a, r)):
                zero |= 1 << i
        out.append(zero)
    return out


def _face_lattice(nrows: int, zero_sets: Sequence[int], keep: int | None = None) -> list[tuple[list[int], int]]:
    """Faces of a cone as (active row indices, ray mask) pairs, from incidence.

    ``zero_sets`` holds, per extreme ray of the cone, the bitmask of its
    irredundant inequality rows (``nrows`` of them) zero on that ray
    (``_zero_sets``); the lineality space lies in every face.  Faces are exactly
    the closed sets of the ray/row incidence relation (Kaibel & Pfetsch,
    "Computing the face lattice of a polytope from its vertex-facet
    incidences", 2002): a face's rays are the rays zero on its active rows,
    and its implied active set is the rows zero on all of its rays (every row
    when it has none).  Breadth-first from the whole cone, a child's rays are
    its parent's rays that are zero on one more row.  With ``keep``, only
    faces with a ray in that mask are returned and expanded.  The result is
    sorted by the size of the active set, then by its sorted indices.
    """
    full = (1 << nrows) - 1
    on_row = [sum(1 << k for k, z in enumerate(zero_sets) if z >> i & 1) for i in range(nrows)]

    def closure(ray_mask: int) -> int:
        active = full
        for k in _bits(ray_mask):
            active &= zero_sets[k]
        return active

    all_rays = (1 << len(zero_sets)) - 1
    found = {closure(all_rays): all_rays}
    queue = list(found)
    for active in queue:  # grows while it is walked
        ray_mask = found[active]
        for i in range(nrows):
            if active >> i & 1:
                continue
            child_rays = ray_mask & on_row[i]
            if keep is not None and not child_rays & keep:
                continue
            child = closure(child_rays)
            if child not in found:
                found[child] = child_rays
                queue.append(child)
    faces = [(_bits(active), ray_mask) for active, ray_mask in found.items()]
    return sorted(faces, key=lambda f: (len(f[0]), f[0]))


@dataclass(frozen=True)
class Face:
    """A closed face of a PolyCone.

    ``active_set`` is the implied active set of inequality rows (canonical
    face id) and ``cone`` the face itself.
    """

    active_set: frozenset
    cone: PolyCone

    def __repr__(self) -> str:
        return f"Face(active={sorted(self.active_set)}, {self.cone!r})"


def _exposed_face(cone: PolyCone, zstar: IntVec) -> PolyCone:
    """The face cone ∩ [z*]^⊥ for an integer z* in the polar: the cone's rays
    orthogonal to z* plus its lineality, with no conversion, and rows read
    off their zero sets over the cone's rows (those writing z* come out as
    equations).  Critical cones, stratum normals (``sets.direction_strata``),
    graph cells (``certify._graph_cell``) and, as polars, difference cones
    (``face_difference``) are such faces."""
    ineqs, eqs = cone._h
    rays, lin = cone._v
    face = tuple([r for r in rays if not sum(map(mul, r, zstar))])
    return _of_generators(cone.dim, lin, face, (ineqs, eqs, _zero_sets(ineqs, face)))


def face_difference(f1: PolyCone, f2: PolyCone) -> PolyCone:
    """The cone F1 - F2 = F1 + (-F2); requires F2 ⊆ F1.  Its polar is the
    face of F1's polar that z, the sum of F2's rays, exposes (every vector
    of F1's polar vanishes on lin F1, so on lin F2), and the polar's polar
    is read off that face's incidence: no conversion."""
    if not f2.subcone_of(f1):
        raise ValueError("face_difference requires F2 to be contained in F1")
    return _exposed_face(f1.polar(), tuple(map(sum, zip((0,) * f1.dim, *f2._v[0])))).polar()


def cone_plain(c: PolyCone) -> dict:
    """JSON-plain view of a cone, ``{dim, lin, rays}``: its dimension and its
    generators, each entry as the string of the rational that ``rays`` and
    ``lin`` hold, written straight from the integer forms.  The generators
    are the cone's identity (``key()``), so the view never reads the row
    side; the facets and equations are the view of the polar, whose rays and
    lineality rows are this cone's ``ineqs`` and ``eqs``.  Nothing is kept
    on the cone: each call builds a new dict."""
    rays, lin = c._v
    # a lineality row is an integer echelon row over its (positive) pivot
    lin = [_plain(l, next(filter(None, l))) for l in lin]
    return {"dim": c.dim, "rays": [list(map(str, r)) for r in rays], "lin": lin}


def pick_nonzero(c: PolyCone) -> QVector | None:
    """Deterministic nonzero element of the cone, or None if trivial."""
    if c._v[0]:
        return c.rel_interior_point()  # of the pointed part; never zero
    if c._v[1]:
        return c.lin[0]
    return None


def open_cell(dim: int, leq: Sequence[IntVec], eqs: Sequence[IntVec], strict: Sequence[IntVec]) -> PolyCone | None:
    """The closure {leq.z <= 0, eqs.z = 0, strict.z <= 0} of the relatively
    open cell {leq.z <= 0, eqs.z = 0, strict.z < 0}, or None when the cell
    is empty.  Rows are primitive integer tuples.  The closure's rows are
    read off the incidence of its one conversion when they are first read.

    The cell is nonempty iff no strict row is an implicit equality of the
    closure (Schrijver, "Theory of Linear and Integer Programming", 1986,
    §8.2), i.e. iff each strict row is negative on some ray of the closure
    (every row of the closure vanishes on its lineality space); the sum of
    the rays then lies in the cell.
    """
    lin, rays, incidence = _generators(dim, [*leq, *strict], eqs)
    if all(any(_dot(c, r) < 0 for r in rays) for c in strict):
        return _of_generators(dim, lin, rays, incidence)
    return None


def strictly_feasible(dim: int, eq_rows: Sequence[QVector], strict_rows: Sequence[QVector]) -> bool:
    """Is there u with eq_rows.u = 0 and <c, u> < 0 for every strict row?
    ``open_cell`` on rational rows; the package itself calls ``open_cell``."""
    return open_cell(dim, (), [_ints(e) for e in eq_rows], [_ints(c) for c in strict_rows]) is not None
