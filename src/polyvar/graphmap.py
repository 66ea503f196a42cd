"""Cones attached to the graph of the normal-cone map of a convex polyhedron.

For a graph point (ybar, ybarstar) of the normal-cone map of a polyhedron,
every object here is governed by the critical cone K = T(ybar) ∩ [ybarstar]^⊥:

* the graph tangent cone is the graph of the normal-cone map of K,
* the regular normal cone to the graph is the single product K° × K,
* the directional limiting normal cone in a tangent direction (v, v*) is
  the union of products (F1-F2)° × (F1-F2) over the ordered pairs of closed
  faces F2 ⊆ F1 of K with v ∈ F2 and F1 ⊆ [v*]^⊥,
* the limiting normal cone is the directional cone in direction (0, 0), so
  it keeps every pair; one filter (``face_pairs``) serves both, and its
  pairs at (0, 0) are also the certifier's strata of the graph (one per
  difference cone F1-F2, with reach cone F2 × (K° ∩ F1^⊥)).

Pieces are deduplicated by the difference cone K alone (its polar is
determined by it), which compares by its canonical integer generators, and
sorted by its key; provenance face pairs are retained on each piece for
auditing.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cones import Face, PolyCone, cone_plain, face_difference
from .linalg import IntVec, QVector, _dot, _ints
from .sets import ConeUnion, Polyhedron, critical_cone


class GraphPoint:
    """A point (ybar, ybarstar) of the graph of the normal-cone map of gamma."""

    __slots__ = ("gamma", "ybar", "ybarstar", "critical", "_differences")

    def __init__(self, gamma: Polyhedron, ybar: QVector, ybarstar: QVector):
        k = critical_cone(gamma, ybar, ybarstar)
        if k is None:
            raise ValueError("(ybar, ybarstar) is not in the graph of the normal-cone map")
        object.__setattr__(self, "gamma", gamma)
        object.__setattr__(self, "ybar", ybar)
        object.__setattr__(self, "ybarstar", ybarstar)
        object.__setattr__(self, "critical", k)
        object.__setattr__(self, "_differences", {})

    def __setattr__(self, name, value):
        raise AttributeError("GraphPoint is immutable")

    def __repr__(self):
        return f"GraphPoint(ybar={self.ybar!r}, ybarstar={self.ybarstar!r})"

    def difference(self, f1: Face, f2: Face) -> PolyCone:
        """F1 - F2 for faces F2 ⊆ F1 of the critical cone, built once per
        graph point and keyed by the pair of active sets."""
        pair = (f1.active_set, f2.active_set)
        if pair not in self._differences:
            self._differences[pair] = face_difference(f1.cone, f2.cone)
        return self._differences[pair]


@dataclass(frozen=True)
class ProductPiece:
    """One product set K° × K with the face pair that produced it."""

    kpolar: PolyCone
    k: PolyCone
    f1: Face
    f2: Face

    def contains(self, xstar: QVector, ystar: QVector) -> bool:
        return self.kpolar.contains(xstar) and self.k.contains(ystar)


@dataclass(frozen=True)
class GraphNormalCone:
    """A finite union of product pieces K° × K."""

    pieces: tuple[ProductPiece, ...]

    def contains(self, xstar: QVector, ystar: QVector) -> bool:
        return any(p.contains(xstar, ystar) for p in self.pieces)

    def to_plain(self) -> list[dict]:
        """JSON-plain view: one record per piece with its provenance faces."""
        return [
            {
                "k": cone_plain(p.k),
                "kpolar": cone_plain(p.kpolar),
                "f1_active_set": sorted(p.f1.active_set),
                "f2_active_set": sorted(p.f2.active_set),
            }
            for p in self.pieces
        ]


def _assemble(gp: GraphPoint, pairs: list[tuple[Face, Face]]) -> GraphNormalCone:
    by_k: dict[PolyCone, ProductPiece] = {}
    for f1, f2 in pairs:
        k = gp.difference(f1, f2)
        if k not in by_k:
            by_k[k] = ProductPiece(k.polar(), k, f1, f2)
    pieces = sorted(by_k.values(), key=lambda p: p.k.key())
    return GraphNormalCone(tuple(pieces))


def graph_tangent_member(gp: GraphPoint, v: QVector, vstar: QVector) -> bool:
    """Is (v, v*) tangent to the graph at the reference point?

    Tangency means v lies in the critical cone and v* in its polar with
    v ⊥ v*.  Each test reads v and v* only through their rays, so each is
    turned into a primitive integer vector once.
    """
    return _tangent(gp, *_direction(gp, v, vstar))


def _direction(gp: GraphPoint, v: QVector, vstar: QVector) -> tuple[IntVec, IntVec]:
    """v and v* as primitive integer vectors, checked to lie in R^n."""
    k = gp.critical
    if v.dim != k.dim or vstar.dim != k.dim:
        raise ValueError("point has wrong dimension")
    return _ints(v), _ints(vstar)


def _tangent(gp: GraphPoint, vi: IntVec, vs: IntVec) -> bool:
    """``graph_tangent_member`` on positive integer multiples of v and v*."""
    k = gp.critical
    return k._holds(vi) and k.polar()._holds(vs) and _dot(vi, vs) == 0


def regular_normal_graph(gp: GraphPoint) -> GraphNormalCone:
    """Regular normal cone to the graph: the single product K° × K."""
    k = gp.critical
    faces = k.faces()  # from K itself down to its lineality face
    # K - lineality(K) = K, so the ends of the lattice are a valid provenance pair.
    return GraphNormalCone((ProductPiece(k.polar(), k, faces[0], faces[-1]),))


def face_pairs(gp: GraphPoint, vi: IntVec, vs: IntVec) -> list[tuple[Face, Face]]:
    """The ordered face pairs (F1, F2) of the critical cone K with F2 ⊆ F1,
    v ∈ F2 and F1 ⊥ v*, for (v, v*) tangent to the graph, given as integer
    tuples ``vi`` and ``vs`` that are positive multiples of v and v*: F1 in
    the order of ``K.faces()``, and F2 in that order within each F1.

    For faces of one cone, F2 ⊆ F1 iff F1's active set is inside F2's, and
    for v ∈ K a face contains v iff its active rows all vanish at v.
    """
    k = gp.critical
    faces = k.faces()
    tight = {i for i, a in enumerate(k._h[0]) if _dot(a, vi) == 0}
    holding_v = [f for f in faces if f.active_set <= tight]
    pairs = []
    for f1 in faces:
        if any(_dot(vs, g) for g in f1.cone._int_generators()):
            continue
        pairs += [(f1, f2) for f2 in holding_v if f1.active_set <= f2.active_set]
    return pairs


def limiting_normal_graph(gp: GraphPoint) -> GraphNormalCone:
    """Limiting normal cone to the graph: the directional cone at (0, 0),
    so products over all face pairs F2 ⊆ F1."""
    zero = (0,) * gp.gamma.dim
    return _assemble(gp, face_pairs(gp, zero, zero))


def directional_limiting_normal_graph(gp: GraphPoint, v: QVector, vstar: QVector) -> GraphNormalCone:
    """Directional limiting normal cone to the graph in direction (v, v*).

    Only defined on the graph tangent cone; face pairs F2 ⊆ F1 of the
    critical cone survive exactly when v ∈ F2 and F1 ⊥ v*.
    """
    vi, vs = _direction(gp, v, vstar)
    if not _tangent(gp, vi, vs):
        raise ValueError("(v, vstar) is not tangent to the graph at the reference point")
    return _assemble(gp, face_pairs(gp, vi, vs))


def directional_coderivative_normal_map(
    gp: GraphPoint, v: QVector, vstar: QVector, wstar: QVector
) -> ConeUnion:
    """Directional limiting coderivative of the normal-cone map applied to wstar.

    Union of the polar cones K° over the directional pieces (K°, K) whose K
    contains -wstar; empty when no piece admits -wstar.
    """
    gnc = directional_limiting_normal_graph(gp, v, vstar)
    neg = -wstar
    hit = [p.kpolar for p in gnc.pieces if p.k.contains(neg)]
    return ConeUnion(gp.gamma.dim, hit)
