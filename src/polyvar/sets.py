"""Convex polyhedra, finite unions of polyhedra, and their variational cones.

The central computation is the directional limiting normal cone to a finite
union of convex polyhedra.  The union is stratified by signatures: each piece
is either assigned one of its closed faces ("the point lies in the relative
interior of that face") or marked inactive ("the point lies outside the
piece").  On such a stratum the regular normal cone of the union is constant
(the intersection of the active pieces' normal cones), and a stratum
contributes to the directional cone at ``ybar`` in direction ``w`` exactly
when ``w`` lies in the closure of the feasible-direction cone of one of the
stratum's cells.  Cells are relatively open polyhedra: face assignments give
equalities plus strict inequalities, and "outside a piece" splits facet-wise
into strictly violated constraints.

Reachability of a cell from ``ybar`` is decided exactly, and each row of a
piece is checked against ``ybar`` once, not once per cell.  Only faces that
contain ``ybar`` can be assigned, so a piece that misses ``ybar`` is always
"out" with no row in its cell.  Near ``ybar`` a slack row holds strictly and
a violated row stays violated, so a cell is a homogeneous system in the rows
tight at ``ybar``: equations plus strict rows in the direction.  Each distinct cell costs one
conversion, of its closure (the cone with the strict rows closed): the cell
is reachable iff it is nonempty (``cones.open_cell``, which decides this
from the rays of the closure), and then the closure is the closure of its
directions.  No cell costs a conversion of the polar: a reachable cell's
rows are read off the incidence of its one conversion.

A polyhedron is stored only as its homogenization cone: ``A``, ``b``, ``E``
and ``e`` are rational views of the cone's integer rows, and a point is
tested by one integer evaluation of those rows.  Its faces, from which the
face assignments are drawn, are the faces of that cone that have a ray with
t > 0; they come from the cone layer's incidence enumeration with no
conversion per face.  Its normal cone at y, cone(active rows of A) +
span(E), is built once per active set when it is first read and serves the
face with that active set too; the tangent cone is its polar, and the
critical cone the face of the tangent cone that y* exposes, read off the
tangent cone's rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Iterable, Sequence

from .cones import PolyCone, _exposed_face, _face_lattice, _of_rows, _zero_sets, open_cell
from .linalg import IntVec, QVector, _dot, _ints, _neg, _reduce, frac


class InfeasibleError(ValueError):
    """Raised when a polyhedron is constructed from an infeasible system."""


class Polyhedron:
    """Nonempty convex polyhedron {y : A y <= b, E y = e}.

    Stored only as its homogenization cone, whose canonical irredundant rows
    give the canonical H-representation; ``A``, ``b``, ``E`` and ``e`` are
    rational views of them, and the cone is the polyhedron's identity.
    Feasibility is verified exactly at construction.  The rational
    constructor scales each homogenized row (a, -b) and (g, -e) to
    integers; ``_of_int_rows`` takes such integer rows directly (a problem
    file's rows, parsed straight to integers), and both build the cone in
    ``_homogenized``.
    """

    __slots__ = ("dim", "_homog", "_rows", "_faces", "_normals")

    def __init__(self, dim: int, A: Iterable = (), b: Iterable = (), E: Iterable = (), e: Iterable = ()):
        A, b, E, e = list(A), list(b), list(E), list(e)
        if len(A) != len(b) or len(E) != len(e):
            raise ValueError("constraint rows and right-hand sides differ in length")
        ineqs = [_ints((*r, -frac(bv))) for r, bv in zip(A, b)]
        self._homogenized(dim, ineqs, [_ints((*g, -frac(ev))) for g, ev in zip(E, e)])

    @staticmethod
    def _of_int_rows(dim: int, ineqs: Iterable[Sequence[int]], eqs: Iterable[Sequence[int]]) -> "Polyhedron":
        """The polyhedron {y : a.y <= b, g.y = e} from integer tuples that are
        positive multiples of its homogenized rows (a, -b) and (g, -e)."""
        p = object.__new__(Polyhedron)
        p._homogenized(dim, ineqs, eqs)
        return p

    def _homogenized(self, dim: int, ineqs: Iterable[Sequence[int]], eqs: Iterable[Sequence[int]]) -> None:
        # The homogenization cone {(y, t) : A y - b t <= 0, E y - e t = 0,
        # -t <= 0}; the conversion rejects a row of the wrong length.
        homog = _of_rows(dim + 1, [*ineqs, (0,) * dim + (-1,)], eqs)
        if not any(r[dim] > 0 for r in homog._v[0]):
            raise InfeasibleError("polyhedron is empty")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_homog", homog)
        # the rows (a, -b) of A: every homogenization row but -t <= 0
        object.__setattr__(self, "_rows", tuple(r for r in homog._h[0] if any(r[:dim])))
        object.__setattr__(self, "_faces", None)
        object.__setattr__(self, "_normals", {})

    def __setattr__(self, name, value):
        if name == "_faces":
            object.__setattr__(self, name, value)
            return
        raise AttributeError("Polyhedron is immutable")

    @property
    def A(self) -> tuple[QVector, ...]:
        return tuple(QVector(r[: self.dim]) for r in self._rows)

    @property
    def b(self) -> tuple:
        """The right-hand sides of A, as Fractions."""
        return tuple(frac(-r[self.dim]) for r in self._rows)

    @property
    def E(self) -> tuple[QVector, ...]:
        return tuple(QVector(g.entries[: self.dim]) for g in self._homog.eqs)

    @property
    def e(self) -> tuple:
        """The right-hand sides of E, as Fractions."""
        return tuple(-g[self.dim] for g in self._homog.eqs)

    def key(self):
        return self._homog.key()

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._homog == other._homog

    def __hash__(self):
        return hash(self._homog)

    def __repr__(self):
        ineq = ", ".join(f"{a!r}.y<={bv}" for a, bv in zip(self.A, self.b))
        eq = ", ".join(f"{g!r}.y={ev}" for g, ev in zip(self.E, self.e))
        return f"Polyhedron(dim={self.dim}, [{ineq}] [{eq}])"

    # -- basic queries -------------------------------------------------------

    def _slacks(self, y: QVector) -> tuple[list[int], list[int]]:
        """Positive multiples of a.y - b and g.y - e per row of A and of E:
        each homogenization row dotted with a multiple of (y, 1)."""
        if y.dim != self.dim:
            raise ValueError("point has wrong dimension")
        yt = _ints(y.entries + (1,))
        return [_dot(r, yt) for r in self._rows], [_dot(g, yt) for g in self._homog._h[1]]

    def _int_rows(self) -> tuple[list[IntVec], list[IntVec]]:
        """The rows of A and of E as primitive integer vectors."""
        return [_reduce(r[: self.dim]) for r in self._rows], [_reduce(g[: self.dim]) for g in self._homog._h[1]]

    def contains(self, y: QVector) -> bool:
        sa, se = self._slacks(y)
        return all(s <= 0 for s in sa) and not any(se)

    def active_ineqs(self, y: QVector) -> list[int]:
        return [i for i, s in enumerate(self._slacks(y)[0]) if s == 0]

    def vertices_and_recession(self) -> tuple[list[QVector], PolyCone]:
        """Generator view: some vertices/points plus the recession cone."""
        verts = []
        rec_rays, rec_lin = [], []
        for r in self._homog.rays:
            t = r[self.dim]
            if t > 0:
                verts.append(QVector(x / t for x in r.entries[:self.dim]))
            else:
                rec_rays.append(QVector(r.entries[:self.dim]))
        for l in self._homog.lin:
            rec_lin.append(QVector(l.entries[:self.dim]))
        rec = PolyCone.from_generators(self.dim, rec_rays, rec_lin)
        return verts, rec

    def subset_of(self, other: "Polyhedron") -> bool:
        # P ⊆ Q iff homogenization cones nest: that of P is generated by the
        # (y, 1), y in P, and (r, 0), r a recession direction of P (so of Q).
        return self._homog.subcone_of(other._homog)

    # -- variational cones ----------------------------------------------------

    def _normal(self, active: frozenset) -> PolyCone:
        """cone(rows of A in ``active``) + span(rows of E): the normal cone
        at the points whose active set is ``active``, built once per set."""
        if active not in self._normals:
            A, E = self._int_rows()
            self._normals[active] = _of_rows(self.dim, [A[i] for i in sorted(active)], E, "generator").polar()
        return self._normals[active]

    def normal_cone(self, y: QVector) -> PolyCone:
        sa, se = self._slacks(y)
        if any(s > 0 for s in sa) or any(se):
            raise ValueError("tangent cone requested at a point outside the polyhedron")
        return self._normal(frozenset(i for i, s in enumerate(sa) if s == 0))

    def tangent_cone(self, y: QVector) -> PolyCone:
        return self.normal_cone(y).polar()

    # -- faces -----------------------------------------------------------------

    def faces(self) -> tuple["PolyFace", ...]:
        """All nonempty closed faces, ordered like ``PolyCone.faces``.

        The nonempty faces are the faces of the homogenization cone that are
        not inside {t = 0}, i.e. that have a ray with t > 0; they come from
        the same incidence routine as cone faces.  The row -t <= 0 is never
        active on such a face, so the routine runs on the rows of ``A``.
        """
        if self._faces is not None:
            return self._faces
        rays = self._homog._v[0]
        finite = sum(1 << k for k, r in enumerate(rays) if r[self.dim] > 0)
        lattice = _face_lattice(len(self._rows), _zero_sets(self._rows, rays), keep=finite)
        self._faces = tuple(PolyFace(frozenset(active), self) for active, _ in lattice)
        return self._faces


@dataclass(frozen=True)
class PolyFace:
    """A nonempty closed face of a polyhedron.

    ``normal`` is the (constant) normal cone of the polyhedron at relative
    interior points of the face, generated by the face's active rows of
    ``A`` and the rows of ``E``.  It is the cone ``normal_cone`` returns
    there, built by the polyhedron once per active set when it is first
    read: strata need it only for the faces they assign.
    """

    active_set: frozenset
    parent: Polyhedron

    @property
    def normal(self) -> PolyCone:
        return self.parent._normal(self.active_set)


def critical_cone(p: Polyhedron, y: QVector, ystar: QVector) -> PolyCone | None:
    """Tangent cone at y intersected with [ystar]^⊥, or None off the graph.

    When ystar is a normal vector at y, this is the face of the tangent cone
    that ystar exposes: its rays orthogonal to ystar plus its lineality,
    canonical generators with no conversion, and rows read off their
    incidence with the tangent cone's rows.  Returns None when y is outside
    the polyhedron or ystar is not a normal vector at y; absence is a value,
    not an error.
    """
    if y.dim != p.dim or ystar.dim != p.dim:
        raise ValueError("dimension mismatch")
    if not p.contains(y):
        return None
    normal = p.normal_cone(y)
    if not normal.contains(ystar):
        return None
    return _exposed_face(normal.polar(), _ints(ystar))


def nearby_critical_cone(
    p: Polyhedron, ybar: QVector, ybarstar: QVector, y: QVector, ystar: QVector
) -> PolyCone | None:
    """Critical cone at a nearby graph point from reference-point data alone:
    (K ∩ [ystar - ybarstar]^⊥) + [y - ybar], with K the reference critical
    cone.  None when (y, ystar) is not a graph point of the normal-cone map.
    """
    kbar = critical_cone(p, ybar, ybarstar)
    if kbar is None:
        raise ValueError("reference pair is not in the graph of the normal-cone map")
    if critical_cone(p, y, ystar) is None:
        return None
    restricted = PolyCone.from_ineqs(p.dim, kbar._h[0], kbar._h[1] + (_ints(ystar - ybarstar),))
    rays, lin = restricted._v
    return PolyCone.from_generators(p.dim, rays, lin + (_ints(y - ybar),))


class UnionSet:
    """Finite union of convex polyhedra of equal dimension.

    ``_strata`` holds the direction strata already computed, by reference
    point.
    """

    __slots__ = ("dim", "pieces", "_strata")

    def __init__(self, pieces: Sequence[Polyhedron]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a union needs at least one piece")
        dim = pieces[0].dim
        if any(p.dim != dim for p in pieces):
            raise ValueError("pieces have unequal dimensions")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pieces", pieces)
        object.__setattr__(self, "_strata", {})

    def __setattr__(self, name, value):
        raise AttributeError("UnionSet is immutable")

    def __repr__(self):
        return f"UnionSet({len(self.pieces)} pieces, dim={self.dim})"

    def contains(self, y: QVector) -> bool:
        return any(p.contains(y) for p in self.pieces)

    def pieces_containing(self, y: QVector) -> list[int]:
        return [i for i, p in enumerate(self.pieces) if p.contains(y)]


class ConeUnion:
    """Finite union of polyhedral cones in canonical irredundant form.

    Pieces subsumed by another piece are dropped, duplicates merged, and the
    list is sorted by canonical key, so equality of values is structural.
    Every piece lies in R^dim; the empty union (empty set) is allowed.
    """

    __slots__ = ("dim", "pieces")

    def __init__(self, dim: int, pieces: Iterable[PolyCone]):
        uniq = list(dict.fromkeys(pieces))
        if any(c.dim != dim for c in uniq):
            raise ValueError("cone dimension mismatch")
        keep = [c for c in uniq if not any(d is not c and c.subcone_of(d) for d in uniq)]
        keep.sort(key=lambda c: c.key())
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pieces", tuple(keep))

    def __setattr__(self, name, value):
        raise AttributeError("ConeUnion is immutable")

    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, v: QVector) -> bool:
        return any(c.contains(v) for c in self.pieces)

    def subset_of(self, other: "ConeUnion") -> bool:
        return all(any(c.subcone_of(d) for d in other.pieces) for c in self.pieces)

    def __eq__(self, other):
        return (
            isinstance(other, ConeUnion)
            and self.dim == other.dim
            and self.pieces == other.pieces
        )

    def __hash__(self):
        return hash((self.dim, self.pieces))

    def __repr__(self):
        return f"ConeUnion({list(self.pieces)!r})"


def union_tangent_cone(d: UnionSet, y: QVector) -> ConeUnion:
    """Union of the tangent cones of the pieces containing y."""
    idx = d.pieces_containing(y)
    if not idx:
        raise ValueError("point lies in no piece of the union")
    return ConeUnion(d.dim, [d.pieces[i].tangent_cone(y) for i in idx])


# -- direction strata ---------------------------------------------------------


@dataclass(frozen=True)
class DirectionStratum:
    """One signature of a union near a reference point.

    ``label`` names each piece's face (active, point in the relative
    interior of that face) or marks it "out".  ``normal`` is the constant
    regular normal cone of the union on the stratum, and ``reach`` the list
    of direction cones (one per nonempty cell) whose union is the closure of
    directions entering the stratum from the reference point.
    """

    label: str
    normal: PolyCone
    reach: tuple[PolyCone, ...]

    def reachable(self, w: QVector) -> bool:
        return any(q.contains(w) for q in self.reach)


def _options_at(p: Polyhedron, ybar: QVector):
    """A piece's choices near ybar, each row checked once against ybar.

    Face options are (face, equation rows, strict rows) of the face's cell
    in direction space: only faces containing ybar, closed on the rows of E
    and the face's active rows, open on the tight rows it leaves inactive.
    A piece that misses ybar has the single "out" choice (); one that holds
    it has one per row that can be violated near it (a.y > b for a row
    tight at ybar, g.y < e or g.y > e): the homogeneous strict row.
    """
    sa, se = p._slacks(ybar)
    if any(s > 0 for s in sa) or any(se):
        # near ybar the piece is absent in every direction: each other "out"
        # cell would lie inside the cell of ()
        return [], [()]
    A, E = p._int_rows()
    tight = {i for i, s in enumerate(sa) if s == 0}
    faces = []
    for f in p.faces():
        if f.active_set <= tight:
            eqs = E + [A[i] for i in sorted(f.active_set)]
            faces.append((f, eqs, [A[i] for i in sorted(tight - f.active_set)]))
    outs = [(_neg(A[i]),) for i in sorted(tight)] + [(c,) for g in E for c in (g, _neg(g))]
    return faces, list(dict.fromkeys(outs))  # equal choices give equal cells


def direction_strata(d: UnionSet, ybar: QVector) -> tuple[DirectionStratum, ...]:
    """All strata of the union with their reach cones from ybar.

    Only strata reachable from ybar in at least one direction are returned.
    Results are memoized per union: the certifiers evaluate the same
    stratification several times per spec.
    """
    if ybar in d._strata:
        return d._strata[ybar]
    if not d.contains(ybar):
        raise ValueError("reference point lies in no piece of the union")
    face_options, out_options = zip(*(_options_at(p, ybar) for p in d.pieces))

    # cells with identical equations and strict rows share one reach cone;
    # the union of polyhedra reuses many such cells across signatures
    reach_memo: dict = {}

    def memo_reach(eqs: list, stricts: list) -> PolyCone | None:
        key = (frozenset(eqs), frozenset(stricts))
        if key not in reach_memo:
            reach_memo[key] = open_cell(d.dim, (), eqs, stricts)
        return reach_memo[key]

    strata: list[DirectionStratum] = []
    for assignment in product(*(faces + [None] for faces in face_options)):
        active = [opt for opt in assignment if opt is not None]
        if not active:
            continue
        eqs = [g for _, rows, _ in active for g in rows]
        stricts = [c for _, _, rows in active for c in rows]
        outs = [out_options[i] for i, opt in enumerate(assignment) if opt is None]
        reach: list[PolyCone] = []
        for combo in product(*outs):
            q = memo_reach(eqs, stricts + [c for choice in combo for c in choice])
            if q is not None:
                reach.append(q)
        if not reach:
            continue
        normal = active[0][0].normal
        for face, _, _ in active[1:]:
            normal = normal.intersect(face.normal)
        label = " & ".join(
            f"P{i}:out" if opt is None else f"P{i}@F{sorted(opt[0].active_set)}" for i, opt in enumerate(assignment)
        )
        strata.append(DirectionStratum(label=label, normal=normal, reach=tuple(dict.fromkeys(reach))))
    d._strata[ybar] = tuple(strata)
    return d._strata[ybar]


def directional_normal_cone(d: UnionSet, ybar: QVector, w: QVector) -> ConeUnion:
    """Directional limiting normal cone to the union at ybar in direction w.

    Union over all strata reachable from ybar in direction w of their
    (constant) regular normal cones.  Direction w = 0 yields the full
    limiting normal cone.  An empty union means no sequence approaches ybar
    along w inside the set.
    """
    if w.dim != d.dim:
        raise ValueError("direction has wrong dimension")
    strata = direction_strata(d, ybar)
    hit = [s.normal for s in strata if s.reachable(w)]
    return ConeUnion(d.dim, hit)
