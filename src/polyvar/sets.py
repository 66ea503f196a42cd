"""Convex polyhedra, finite unions of polyhedra, and their variational cones.

The central computation is the directional limiting normal cone to a finite
union of convex polyhedra.  The union is stratified by signatures: each piece
is either assigned one of its closed faces ("the point lies in the relative
interior of that face") or marked inactive ("the point lies outside the
piece"), and a stratum's label names its live pieces alone.  On such a
stratum the regular normal cone of the union is constant
(the intersection of the active pieces' normal cones), and a stratum
contributes to the directional cone at ``ybar`` in direction ``w`` exactly
when ``w`` lies in the closure of the directions that enter the stratum
from ``ybar``.

Near ``ybar`` the union is locally conic: a slack row holds strictly, a
violated row stays violated, and a piece that misses ``ybar`` stays out.
So the stratum that ``ybar + t w`` enters for small t > 0 depends only on
the signs of h.w over the hyperplanes h of the rows tight at ``ybar``
(the union's tangent cone is the common refinement of the pieces'; Gfrerer,
SIAM J. Optim. 2014), and ``direction_strata`` walks those signs; along
one w, only over the cells whose closure holds w.  A stratum's normal is
read off, not converted: the face of the meet of its pieces' normal cones
at ``ybar`` that a direction in its cell exposes.  The strata are a
function of the union and the reference point together, so neither object
keeps them: ``direction_strata`` computes them on every call, and a
certifier keeps the strata of D at g0 in its spec's memo.

A polyhedron is stored only as its homogenization cone: ``A``, ``b``, ``E``
and ``e`` are rational views of the cone's integer rows, and a point is
tested by one integer evaluation of those rows.  Its faces are the faces of
that cone that have a ray with t > 0; they come from the cone layer's
incidence enumeration with no conversion per face, and are not kept.  Its
normal cone at y, cone(active rows of A) + span(E), is built once per
active set when it is first read, and a face's ``normal`` reads the same
cone; the tangent cone is its polar, and the critical cone the face of the
tangent cone that y* exposes, read off the tangent cone's rays.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import and_, mul
from typing import Iterable, Sequence

from .cones import PolyCone, _canonical, _dd, _dd_steps, _exposed_face, _face_lattice, _of_generators, _of_rows, _zero_sets
from .linalg import IntVec, QVector, _augmented, _cleared, _dot, _ints, _neg, _reduce, frac


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

    __slots__ = ("dim", "_homog", "_rows", "_normals")

    def __init__(self, dim: int, A: Iterable = (), b: Iterable = (), E: Iterable = (), e: Iterable = ()):
        A, b, E, e = list(A), list(b), list(E), list(e)
        if len(A) != len(b) or len(E) != len(e):
            raise ValueError("constraint rows and right-hand sides differ in length")
        self._homogenized(dim, _augmented(A, -QVector(b)), _augmented(E, -QVector(e)))

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
        object.__setattr__(self, "_normals", {})

    def __setattr__(self, name, value):
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
        return tuple(QVector(g[: self.dim], next(filter(None, g))) for g in self._homog._h[1])

    @property
    def e(self) -> tuple:
        """The right-hand sides of E, as Fractions."""
        return tuple(QVector((-g[self.dim],), next(filter(None, g)))[0] for g in self._homog._h[1])

    def key(self):
        return self._homog.key()

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self._homog == other._homog

    def __hash__(self):
        return hash(self._homog)

    def __repr__(self):
        ineqs, eqs = self._row_texts()
        return f"Polyhedron(dim={self.dim}, [{', '.join(ineqs)}] [{', '.join(eqs)}])"

    def _row_texts(self) -> tuple[list[str], list[str]]:
        """Each row of A written as its inequality ``(1, 0).y<=0`` and each
        row of E as its equation ``(0, 1).y=2``."""
        return [f"{a!r}.y<={bv}" for a, bv in zip(self.A, self.b)], [f"{g!r}.y={ev}" for g, ev in zip(self.E, self.e)]

    # -- basic queries -------------------------------------------------------

    def _slacks(self, y: QVector) -> tuple[list[int], list[int]]:
        """Positive multiples of a.y - b and g.y - e per row of A and of E:
        each homogenization row dotted with a multiple of (y, 1)."""
        if y.dim != self.dim:
            raise ValueError("point has wrong dimension")
        ((yn,), yd) = _cleared([y])
        yt = yn + (yd,)
        return [_dot(r, yt) for r in self._rows], [_dot(g, yt) for g in self._homog._h[1]]

    def _int_rows(self) -> tuple[list[IntVec], list[IntVec]]:
        """The rows of A and of E as primitive integer vectors."""
        return [_reduce(r[: self.dim]) for r in self._rows], [_reduce(g[: self.dim]) for g in self._homog._h[1]]

    def contains(self, y: QVector) -> bool:
        sa, se = self._slacks(y)
        return all(s <= 0 for s in sa) and not any(se)

    def vertices_and_recession(self) -> tuple[list[QVector], PolyCone]:
        """Generator view: some vertices/points plus the recession cone."""
        verts, rec_rays = [], []
        rays, lin = self._homog._v  # integer rows (y, t)
        for r in rays:
            t = r[self.dim]
            if t > 0:
                verts.append(QVector(r[: self.dim], t))
            else:
                rec_rays.append(r[: self.dim])
        return verts, PolyCone.from_generators(self.dim, rec_rays, [l[: self.dim] for l in lin])

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
        Not cached, and nothing in the package reads it: a stratum names a
        face by the active set that the signs of a direction give.
        """
        rays = self._homog._v[0]
        finite = sum(1 << k for k, r in enumerate(rays) if r[self.dim] > 0)
        lattice = _face_lattice(len(self._rows), _zero_sets(self._rows, rays), keep=finite)
        return tuple(PolyFace(frozenset(active), self) for active, _ in lattice)


@dataclass(frozen=True)
class PolyFace:
    """A nonempty closed face of a polyhedron.

    ``normal`` is the (constant) normal cone of the polyhedron at relative
    interior points of the face, generated by the face's active rows of
    ``A`` and the rows of ``E``.  It is the cone ``normal_cone`` returns
    there, built by the polyhedron once per active set when it is first
    read; strata read their normals off the normal cones at ``ybar``.
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
    """Finite union of convex polyhedra of equal dimension."""

    __slots__ = ("dim", "pieces")

    def __init__(self, pieces: Sequence[Polyhedron]):
        pieces = tuple(pieces)
        if not pieces:
            raise ValueError("a union needs at least one piece")
        dim = pieces[0].dim
        if any(p.dim != dim for p in pieces):
            raise ValueError("pieces have unequal dimensions")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pieces", pieces)

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
    list is sorted by canonical key, so unions built from the same cones, in
    any order and with any repeats, have equal ``pieces`` tuples.
    Every piece lies in R^dim; the empty union (empty set) is allowed.

    c ⊆ d iff d holds every generator of c: each distinct generator gets,
    on first use, the bitmask of the cones that hold it, and cone k is
    dropped iff the AND of its generators' masks has a bit other than k.
    The rows are pooled too: each distinct row a (a cone's inequality
    a.z <= 0, and e and -e for an equation e.z = 0) keeps the bitmask of
    the cones that have it, so a generator g is held by the cones none of
    whose rows has a.g > 0, with one dot per distinct row.
    """

    __slots__ = ("dim", "pieces")

    def __init__(self, dim: int, pieces: Iterable[PolyCone]):
        cones = list(dict.fromkeys(pieces))
        if any(c.dim != dim for c in cones):
            raise ValueError("cone dimension mismatch")
        everyone = (1 << len(cones)) - 1  # the AND over no generator
        rows: dict[IntVec, int] = {}  # row -> bitmask of the cones that have it
        if len(cones) > 1:  # one cone is kept with no test, and its rows are not read
            for j, c in enumerate(cones):
                ineqs, eqs = c._h
                for a in (*ineqs, *eqs, *map(_neg, eqs)):
                    rows[a] = rows.get(a, 0) | 1 << j
        pool: dict[IntVec, int] = {}  # generator -> bitmask of the cones that hold it

        def held(g: IntVec) -> int:
            if g not in pool:
                violated = 0
                for a, cones_with_a in rows.items():
                    if _dot(a, g) > 0:
                        violated |= cones_with_a
                pool[g] = everyone & ~violated
            return pool[g]

        keep = [c for k, c in enumerate(cones) if 1 << k in accumulate(map(held, c._int_generators()), and_, initial=everyone)]
        keep.sort(key=PolyCone.key)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "pieces", tuple(keep))

    def __setattr__(self, name, value):
        raise AttributeError("ConeUnion is immutable")

    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, v: QVector) -> bool:
        return any(c.contains(v) for c in self.pieces)

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

    ``label`` names each live piece's face (point in its relative interior)
    by index, ``P0@F[0] & P2@F[]``; a piece it does not name is out.
    ``normal`` is the constant regular normal cone of the union on the
    stratum (the meet of its faces' normals, read off as an exposed face),
    and ``reach`` the list of direction cones (the closures of the
    stratum's cells, one per leaf of the walk) whose union is the closure
    of directions entering the stratum from the reference point; along w,
    only the cells whose closure holds w.
    """

    label: str
    normal: PolyCone
    reach: tuple[PolyCone, ...]


def direction_strata(d: UnionSet, ybar: QVector, w: QVector | None = None) -> tuple[DirectionStratum, ...]:
    """The strata of the union reachable from ybar, with their reach cones;
    along w != 0, those whose closed cells hold w, with just those cells.

    Strata come in the product order over the pieces of (faces by active set
    size, then by indices; "out" last): a leaf's key is the entry
    (i, size, active rows) of each live piece i, then (len(pieces),), built
    from the live pieces alone, as the label is.  A depth-first walk over
    the hyperplanes h (up to sign) of the rows tight at ybar tries the signs
    0, -, + of h.z; along w only the sign of h.w where it is not 0, so it
    visits exactly the cells whose closure holds w.  A node is a relatively
    open cell, held as the double description of its closure.  Only
    hyperplanes of pieces that no chosen sign violates are decided; a child
    with no such piece is pruned, and a node with no hyperplane left is a
    leaf, labelled by those pieces' faces (their tight rows of sign 0).  The
    cell is dense in its closure, so h takes - (or +) on it iff it does on a
    generator, and 0 iff it takes both signs or vanishes on all; when it takes
    both, h cuts the cell and each child continues the conversion by one
    ``_dd_steps`` pass over h (or h and -h).

    For w in a cell where piece P has the face F, N_P(F) = N_P(ybar) ∩ w^⊥,
    so a stratum's normal is the face of M_S, the meet of the normal cones
    at ybar of its live pieces S, that w exposes (``_exposed_face``), w the
    sum of the rays of its first cell's closure as the walk's pass left
    them, unprojected: M_S is <= 0 on the closure, so it vanishes on the
    closure's lineality space, and a ray of M_S is orthogonal to w iff it
    is to every ray of the closure, whichever representatives those are.
    Each piece's normal at
    ybar is converted once and M_S once per S of two or more pieces, from
    their stacked rows; leaves keep only piece indices and active sets.
    """
    wi = _ints(w) if w is not None else (0,) * d.dim
    if len(wi) != d.dim:
        raise ValueError("direction has wrong dimension")
    planes: dict[IntVec, int] = {}  # hyperplane, first entry positive -> index
    holding = {}  # index of a piece that holds ybar -> {hyperplane: (sign, row of A, or None for E)}
    for i, p in enumerate(d.pieces):
        sa, se = p._slacks(ybar)
        if any(s > 0 for s in sa) or any(se):
            continue  # out in every direction
        A, E = p._int_rows()
        rows = {}  # no two rows of a piece are parallel: they are canonical
        for r, j in [*((g, None) for g in E), *((A[j], j) for j, s in enumerate(sa) if s == 0)]:
            sign = 1 if next(x for x in r if x) > 0 else -1
            rows[planes.setdefault(r if sign > 0 else _neg(r), len(planes))] = (sign, j)
        holding[i] = rows
    if not holding:
        raise ValueError("reference point lies in no piece of the union")
    hyper, dim = list(planes), d.dim
    signs: dict[int, int] = {}  # the signs chosen on the path to the node
    leaves: dict[tuple, list] = {}  # order key (each live piece and its face's active set) -> leaf cells

    def compatible(rows: dict, k: int, s: int) -> bool:
        # a row of E on h allows the sign 0, a row of A the signs keeping it <= 0
        sign, j = rows.get(k, (0, 0))
        return not s if j is None else sign * s <= 0

    def walk(live: list, cell: tuple) -> None:
        k = next((k for _, rows in live for k in rows if k not in signs), None)
        if k is None:
            faces = [(i, sorted(j for q, (_, j) in rows.items() if j is not None and not signs[q])) for i, rows in live]
            key = (*((i, len(f), tuple(f)) for i, f in faces), (len(d.pieces),))
            leaves.setdefault(key, []).append(cell)
            return
        h, (basis, rays, zeros, done, eqs) = hyper[k], cell
        if any(sum(map(mul, h, b)) for b in basis):  # the signs of h on the closure's generators
            found = {-1, 1}
        else:
            found = {(v > 0) - (v < 0) for r in rays if (v := sum(map(mul, h, r)))}
        cuts, hw, nh = len(found) == 2, _dot(h, wi), _neg(h)
        for s, new in ((0, (h, nh)), (-1, (h,)), (1, (nh,))):
            if (cuts or s in found or not (s or found)) and (not hw or s * hw > 0):
                kept = [piece for piece in live if compatible(piece[1], k, s)]
                if kept:
                    signs[k] = s
                    walk(kept, _dd_steps(dim, basis, rays, zeros, done, new, eqs) if cuts else cell)
                    del signs[k]

    walk(list(holding.items()), _dd(dim, (), ()))
    strata: list[DirectionStratum] = []
    meets: dict[tuple, PolyCone] = {}  # live pieces -> the meet of their normal cones at ybar
    for key in sorted(leaves):
        cells, live = leaves[key], tuple(i for i, *_ in key[:-1])
        if live not in meets:
            normals = [d.pieces[i]._normal(frozenset(j for _, j in holding[i].values() if j is not None)) for i in live]
            stacked = [dict.fromkeys(r for n in normals for r in n._h[side]) for side in (0, 1)]
            meets[live] = normals[0] if len(live) == 1 else _of_rows(dim, *stacked)
        normal = _exposed_face(meets[live], tuple(map(sum, zip((0,) * dim, *cells[0][1]))))
        label = " & ".join(f"P{i}@F{list(face)}" for i, _, face in key[:-1])
        reach = tuple(_of_generators(dim, *_canonical(dim, *cell)) for cell in cells)
        strata.append(DirectionStratum(label=label, normal=normal, reach=reach))
    return tuple(strata)


def directional_normal_cone(d: UnionSet, ybar: QVector, w: QVector) -> ConeUnion:
    """Directional limiting normal cone to the union at ybar in direction w.

    The union of the normal cones of the strata ``direction_strata`` walks
    along w.  Direction w = 0 yields the full limiting normal cone.  An
    empty union means no sequence approaches ybar along w inside the set.
    """
    return ConeUnion(d.dim, [s.normal for s in direction_strata(d, ybar, w)])
