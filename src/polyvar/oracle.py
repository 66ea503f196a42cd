"""Definition-level sampling oracles used to cross-check the closed forms.

These deliberately avoid the combinatorial machinery they validate: the
union oracle evaluates regular normal cones of the union at actual sampled
points near the reference along a rational direction grid, and the graph
oracle walks actual graph points of the normal-cone map reached from the
reference along sampled graph directions.  Both stabilize the sampling scale
geometrically so that every collected cone is a genuine limit.

If an oracle and a closed form ever disagree, the oracle is authoritative:
report the discrepancy, do not patch the closed form silently.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .cones import PolyCone
from .graphmap import GraphPoint
from .linalg import QVector
from .sets import ConeUnion, UnionSet, nearby_critical_cone


def _signature(d: UnionSet, y: QVector):
    """Activity pattern of y in the union: per piece None (outside) or the
    tuple of active inequality indices."""
    sig = []
    inside = False
    for p in d.pieces:
        sa, se = p._slacks(y)  # one row evaluation answers both questions
        if all(s <= 0 for s in sa) and not any(se):
            inside = True
            sig.append(tuple(i for i, s in enumerate(sa) if s == 0))
        else:
            sig.append(None)
    return tuple(sig) if inside else None


def _cone_for_signature(d: UnionSet, sig) -> PolyCone:
    normal = None
    for p, s in zip(d.pieces, sig):
        if s is None:
            continue
        # normal cone at the sampled point: active normals plus eq-row span
        nc = PolyCone.from_generators(d.dim, [p.A[i] for i in s], list(p.E))
        normal = nc if normal is None else normal.intersect(nc)
    return normal


# the sampling grids of ``sample_union_normals`` (g, delta, t) and ``_face_reps`` (s)
_GRID = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2))
_OFFSET_SCALES = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
_T_LADDER = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
_REP_SCALES = (Fraction(1, 2), Fraction(1, 8))


def sample_union_normals(d: UnionSet, ybar: QVector, w: QVector) -> ConeUnion:
    """Union of regular normal cones sampled at ybar + t w' for perturbed
    directions w' = w + delta*g, g on a rational grid, and shrinking t.

    Two stabilizations keep every accepted cone a genuine limit: along t, a
    sample counts only when its activity pattern survives two further
    halvings of t; along the perturbation, a pattern counts only when it
    shows up at every offset scale delta, since the defining limit lets the
    sampled directions converge to w rather than sit at a fixed distance.
    """
    if not d.contains(ybar):
        raise ValueError("reference point lies in no piece of the union")
    per_scale: list[set] = []
    for delta in _OFFSET_SCALES:
        sigs = set()
        for g in product(_GRID, repeat=d.dim):
            wprime = w + QVector(g).scale(delta)
            for t in _T_LADDER:
                s0 = _signature(d, ybar + wprime.scale(t))
                s1 = _signature(d, ybar + wprime.scale(t / 2))
                s2 = _signature(d, ybar + wprime.scale(t / 4))
                if s0 is not None and s0 == s1 == s2:
                    sigs.add(s0)
        per_scale.append(sigs)
    accepted = set.intersection(*per_scale)
    cones = [_cone_for_signature(d, s) for s in sorted(accepted, key=repr)]
    return ConeUnion(d.dim, cones)


def _face_reps(cone: PolyCone, base: QVector):
    """Points base + s * (subset sums of generators), one or two
    representatives per activity class, all inside the cone."""
    gens = cone.generators()
    reps: dict[tuple, list[QVector]] = {}
    subsets: list[list[QVector]] = [[]]
    if len(gens) <= 10:
        subsets = []
        for mask in range(1 << len(gens)):
            subsets.append([g for i, g in enumerate(gens) if mask >> i & 1])
    for sub in subsets:
        step = QVector.zero(cone.dim)
        for g in sub:
            step = step + g
        for s in _REP_SCALES:
            pt = base + step.scale(s)
            if not cone.contains(pt):
                continue
            act = tuple(i for i, a in enumerate(cone.ineqs) if a.dot(pt) == 0)
            bucket = reps.setdefault(act, [])
            if len(bucket) < 2 and pt not in bucket:
                bucket.append(pt)
    out = []
    for act in sorted(reps):
        out.extend(reps[act])
    return out


def sample_graph_directional(gp: GraphPoint, v: QVector, vstar: QVector) -> list[PolyCone]:
    """Difference cones K' realized by actual graph points reached from the
    reference along sampled graph directions (w, w*) near (v, v*).

    For each sampled direction pair the corresponding nearby critical cone is
    evaluated at a small scale t (halved until the shifted pair is a graph
    point, and checked stable under one more halving).  The full directional
    limiting normal cone is then the union of the products (K'°, K').
    """
    k = gp.critical
    kp = k.polar()
    results: dict = {}
    for w in _face_reps(k, v):
        nkw = PolyCone.from_ineqs(
            k.dim, list(kp.ineqs), list(kp.eqs) + ([w] if not w.is_zero() else [])
        )
        if not nkw.contains(vstar):
            continue
        for wstar in _face_reps(nkw, vstar):
            cone = _stable_nearby_cone(gp, w, wstar)
            if cone is not None:
                results.setdefault(cone.key(), cone)
    return [results[key] for key in sorted(results)]


def _stable_nearby_cone(gp: GraphPoint, w: QVector, wstar: QVector) -> PolyCone | None:
    t = Fraction(1, 2)
    for _ in range(24):
        c1 = nearby_critical_cone(
            gp.gamma, gp.ybar, gp.ybarstar, gp.ybar + w.scale(t), gp.ybarstar + wstar.scale(t)
        )
        if c1 is not None:
            c2 = nearby_critical_cone(
                gp.gamma,
                gp.ybar,
                gp.ybarstar,
                gp.ybar + w.scale(t / 2),
                gp.ybarstar + wstar.scale(t / 2),
            )
            if c2 is not None and c1 == c2:
                return c1
        t = t / 2
    return None


def piece_sets_equal(a, b) -> bool:
    """Do two lists of cones hold the same cones, as sets of canonical keys?
    For unions of products K° x K this is mutual piece-wise containment,
    since one product lies in another iff the difference cones coincide."""
    keys_a = {c.key() for c in a}
    keys_b = {c.key() for c in b}
    return keys_a == keys_b
