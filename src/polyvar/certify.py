"""Decision procedures certifying stability of implicit multifunctions.

Two input shapes are supported.  A *constraint system* couples a smooth map
through its frozen Jacobians ``Jp`` (parameter) and ``Jx`` (decision) with a
finite union of polyhedra ``D`` that the map must hit; a *variational system*
couples the Jacobians with the normal-cone map of a convex polyhedron
``gamma``.  All certificates are sufficiency checks run in exact integer
arithmetic (rationals only in the spec's data and in returned vectors) over
strata: the direction strata of D for a constraint
system, and for a variational system the closed-form strata of the graph of
the normal-cone map, one per difference cone F1 - F2 of a face pair
F2 ⊆ F1 of the critical cone (``graphmap.face_pairs``), whose (q, u) cells
are faces of one pulled-back cone:

* ``check_foscms`` / ``check_soscms``: first/second order sufficient
  conditions for metric subregularity of the frozen-parameter system,
* ``check_calmness_constraint``: the same conditions plus solvability rates
  (linear or square-root order) for the parameterized system,
* ``check_aubin``: solvability of the linearized system for every parameter
  direction plus triviality of the direction-stratified adjoint inclusions,
* ``check_directional_metric_regularity``: the exact (if and only if)
  directional criterion, so a failure here is a refutation,
* ``check_second_order_directional_subregularity``: curvature test along one
  direction,
* ``check_foscms_joint``: metric subregularity of the joint map in (p, x),
  used as evidence by the theorem-mode Aubin check.

Every certificate carries a structured trace (JSON-plain) of the strata
examined, and every negative certificate carries witnesses that replay
through the cone layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps
from itertools import combinations
from operator import mul
from typing import Sequence

from .cones import PolyCone, _dd_steps, _exposed_face, _of_rows, _projected, cone_plain, open_cell, pick_nonzero
from .graphmap import GraphPoint, _assemble, _tangent, face_pairs
from .linalg import IntVec, QMatrix, QVector, _cleared, _dot, _echelon, _echelon_kernel, _ints, _neg, _reduce, vec_plain
from .sets import ConeUnion, InfeasibleError, Polyhedron, direction_strata, union_tangent_cone

HOLDS = "holds"
NOT_CERTIFIED = "not_certified"


class PreconditionError(ValueError):
    """A certifier was called outside its documented preconditions (a bad
    mode or order, a zero direction, missing second order data, or theorem
    mode without subregularity evidence)."""


# -- specs ---------------------------------------------------------------------


def _per_spec(fn):
    """Compute ``fn(spec, *args)`` once per spec and arguments, kept in the
    spec's memo under ``(fn.__name__, *args)``: the one cache of geometry
    derived from a spec.  Specs are immutable, so a memoised value (a tuple
    or an immutable object, only read) stays valid while its spec lives and
    dies with it; arguments are cones, active sets or primitive integer
    directions, never rationals.
    """
    name = fn.__name__

    @wraps(fn)
    def memoised(spec, *args):
        key = (name, *args)
        memo = spec._memo
        out = memo.get(key, memo)  # the memo itself marks a miss
        if out is memo:
            out = memo[key] = fn(spec, *args)
        return out

    return memoised


class _SystemSpec:
    """The data both kinds of system share: the dimensions l (parameter), n
    (decision) and m (range), the frozen Jacobians ``Jp`` (m x l) and ``Jx``
    (m x n), the parameter-Lipschitz assertion, a label and the memo of
    ``_per_spec``.  Immutable once built; ``m_name`` is how the shape
    messages write m."""

    __slots__ = ("l", "n", "m", "Jp", "Jx", "param_lipschitz", "label", "_memo")

    def __init__(self, l, n, m, Jp, Jx, param_lipschitz, label, m_name):
        Jp = Jp if isinstance(Jp, QMatrix) else QMatrix(Jp)
        Jx = Jx if isinstance(Jx, QMatrix) else QMatrix(Jx)
        if Jp.nrows != m or (Jp.rows and Jp.ncols != l):
            raise ValueError(f"Jp must be {m_name} x l")
        if Jx.nrows != m or (Jx.rows and Jx.ncols != n):
            raise ValueError(f"Jx must be {m_name} x n")
        self._set(l=l, n=n, m=m, Jp=Jp, Jx=Jx, param_lipschitz=bool(param_lipschitz), label=label, _memo={})

    def _set(self, **fields) -> None:
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError("spec is immutable")


class ConstraintSystemSpec(_SystemSpec):
    """Frozen first/second order data of a parameterized constraint system.
    ``_hessian_rows`` holds the Hessians as integer matrices, all times one
    positive integer (one scale per matrix would change sum v*_i H_i)."""

    __slots__ = ("g0", "D", "hessians", "_hessian_rows")
    kind = "constraint"

    def __init__(self, l, n, m, Jp, Jx, g0, D, hessians=None, param_lipschitz=False, label=""):
        super().__init__(l, n, m, Jp, Jx, param_lipschitz, label, "m")
        g0 = g0 if isinstance(g0, QVector) else QVector(g0)
        if g0.dim != m or D.dim != m:
            raise ValueError("g0 and D must live in R^m")
        if not D.contains(g0):
            bad = []
            for i, p in enumerate(D.pieces):
                (sa, se), (ineqs, eqs) = p._slacks(g0), p._row_texts()
                viols = [t for t, s in zip(ineqs, sa) if s > 0] + [t for t, s in zip(eqs, se) if s]
                bad.append(f"piece {i}: violates " + ", ".join(viols))
            raise ValueError("g0 lies in no piece of D (" + "; ".join(bad) + ")")
        rows = None
        if hessians is not None:
            hessians = tuple(h if isinstance(h, QMatrix) else QMatrix(h) for h in hessians)
            if len(hessians) != m:
                raise ValueError("need one Hessian per component")
            if any(h.nrows != n or h.ncols != n for h in hessians):
                raise ValueError("Hessians must be symmetric n x n")
            flat = _cleared([r for h in hessians for r in h.rows])[0]
            rows = tuple(flat[k * n : (k + 1) * n] for k in range(m))
            if any(h[i][j] != h[j][i] for h in rows for i in range(n) for j in range(i)):
                raise ValueError("Hessians must be symmetric n x n")
        self._set(g0=g0, D=D, hessians=hessians, _hessian_rows=rows)


class VariationalSystemSpec(_SystemSpec):
    """Frozen first order data of a generalized equation with a polyhedral
    normal-cone term (so the range dimension m equals n)."""

    __slots__ = ("gamma", "xbar", "ybarstar")
    kind = "variational"

    def __init__(self, l, n, Jp, Jx, gamma, xbar, ybarstar, param_lipschitz=False, label=""):
        super().__init__(l, n, n, Jp, Jx, param_lipschitz, label, "n")
        xbar = xbar if isinstance(xbar, QVector) else QVector(xbar)
        ybarstar = ybarstar if isinstance(ybarstar, QVector) else QVector(ybarstar)
        if gamma.dim != n or xbar.dim != n or ybarstar.dim != n:
            raise ValueError("gamma, xbar, ybarstar must live in R^n")
        if not gamma.contains(xbar):
            raise ValueError("xbar lies outside gamma")
        if not gamma.normal_cone(xbar).contains(ybarstar):
            raise ValueError("ybarstar is not a normal vector to gamma at xbar")
        self._set(gamma=gamma, xbar=xbar, ybarstar=ybarstar)

    @_per_spec
    def graph_point(self) -> GraphPoint:
        return GraphPoint(self.gamma, self.xbar, self.ybarstar)


# -- certificates ----------------------------------------------------------------


@dataclass(frozen=True)
class Witness:
    """A replayable counterexample to a sufficiency condition."""

    stratum: str
    vstar: QVector | None
    u: QVector | None = None
    q: QVector | None = None


@dataclass(frozen=True)
class Certificate:
    status: str
    witnesses: tuple[Witness, ...] = ()
    rates: tuple[tuple[str, bool], ...] | None = None
    refuted: bool = False
    trace: tuple = ()
    notes: tuple[str, ...] = ()

    def holds(self) -> bool:
        return self.status == HOLDS

    def rate(self, name: str) -> bool:
        return bool(self.rates) and dict(self.rates).get(name, False)


# -- shared linear-geometry helpers ------------------------------------------------


def _apply(rows: Sequence[IntVec], v: IntVec) -> IntVec:
    """The integer vector of the products <r, v>, one per row."""
    return tuple([sum(map(mul, r, v)) for r in rows])


@_per_spec
def _jacobian(spec) -> tuple[tuple[IntVec, ...], int]:
    """The rows of [Jp Jx] in integers, times the least positive integer s
    that clears their denominators, and s: every linear map the certifiers
    apply is read off this one form."""
    rows, s = _cleared(spec.Jp.rows + spec.Jx.rows)
    return tuple(p + x for p, x in zip(rows, rows[spec.m :])), s


@_per_spec
def _w_map_T(spec) -> tuple[IntVec, ...]:
    """The transpose of the linearized map (q, u) -> w in integer rows, scaled
    by a positive integer: w = Jp q + Jx u for a constraint system and
    w = -Jp q - Jx u for a variational one.  Row j < l is the column of q_j,
    row l + j the column of u_j; the last n rows are a multiple of ±Jx^T."""
    rows = _jacobian(spec)[0]
    cols = tuple(tuple(r[j] for r in rows) for j in range(spec.l + spec.n))
    return cols if spec.kind == "constraint" else tuple(map(_neg, cols))


@_per_spec
def _jx_rows(spec) -> tuple[IntVec, ...]:
    """The rows of s Jx, with s the scale of ``_jacobian``."""
    return tuple(r[spec.l :] for r in _jacobian(spec)[0])


def _pullback(cone: PolyCone, mt: Sequence[IntVec]) -> PolyCone:
    """Preimage {z : M z ∈ cone} in R^len(mt), where ``mt`` holds the rows
    of a positive multiple of M^T.  ``_of_rows`` makes every pulled-back
    row primitive, so the scale does not show in the cone."""
    ineqs, eqs = cone._h
    return _of_rows(len(mt), [_apply(mt, a) for a in ineqs], [_apply(mt, e) for e in eqs])


@_per_spec
def _x_pullback(spec: ConstraintSystemSpec, cone: PolyCone) -> PolyCone:
    """{u : Jx u ∈ cone} in R^n."""
    return _pullback(cone, _w_map_T(spec)[spec.l:])


@_per_spec
def _qu_pullback(spec: ConstraintSystemSpec, cone: PolyCone) -> PolyCone:
    """{(q, u) : Jp q + Jx u ∈ cone} in R^(l+n)."""
    return _pullback(cone, _w_map_T(spec))


@_per_spec
def _d_tangent(spec: ConstraintSystemSpec) -> ConeUnion:
    """The tangent cone of D at g0."""
    return union_tangent_cone(spec.D, spec.g0)


@_per_spec
def _kernel_meet(spec: ConstraintSystemSpec, normal: PolyCone) -> PolyCone:
    """ker Jx^T ∩ normal: the adjoint cone of a normal-cone piece of D, in
    one conversion of the normal's integer rows with the columns of Jx (a
    positive multiple of them) as further equations."""
    ineqs, eqs = normal._h
    return _of_rows(spec.m, ineqs, eqs + _w_map_T(spec)[spec.l:])


def _split_qu(vec: QVector, l: int) -> tuple[QVector, QVector]:
    ((num,), den) = _cleared([vec])
    return QVector(num[:l], den), QVector(num[l:], den)


# -- projection onto parameter space ------------------------------------------------


def fm_project(cone: PolyCone, keep: int) -> PolyCone:
    """Project a cone onto its first ``keep`` coordinates.

    A linear map carries generators to generators: the image of
    cone(R) + span(L) is cone(πR) + span(πL), so the projection is the cone
    generated by the truncated rays and lineality vectors: the polar of
    {a : <a, πr> <= 0, <a, πl> = 0}.
    """
    rays, lin = cone._v
    return _of_rows(keep, [r[:keep] for r in rays], [l[:keep] for l in lin], "generator").polar()


def covers_space(pieces: Sequence[PolyCone], dim: int) -> tuple[bool, QVector | None]:
    """Does the union of the cones cover R^dim?  If not, return a direction
    in the complement.

    The complement is split facet-wise, piece by piece, into relatively open
    cells, searched depth first in split order.  A cell continues its
    parent's double description by one ``_dd_steps`` pass over its rows (an
    equation e as e and -e) and is pruned when a strict row is negative on
    no ray of its closure; a repeated piece is skipped (it leaves each cell
    whole).  The first cell that avoids every piece ends the search, and
    the gap is the primitive sum of its closure's rays, each projected off
    the closure's lineality space (``cones._projected``): a pass leaves its
    rays unprojected, and the projected rays depend only on the cell.
    """
    rows = [p._h for p in dict.fromkeys(pieces)]
    stack = [(0, (_echelon_kernel((), (), dim), [], [], [], []), None, ())]
    while stack:
        i, (basis, rays, zeros, done, eqs), new, strict = stack.pop()
        if new is not None:
            basis, rays, zeros, done, eqs = _dd_steps(dim, basis, rays, zeros, done, new, eqs)
            if not all(any(_dot(c, r) < 0 for r in rays) for c in strict):
                continue
        if i == len(rows):
            return False, QVector(_reduce([sum(x) for x in zip(*_projected(basis, rays))])) if rays else QVector.zero(dim)
        ineqs, eq_rows = rows[i]
        pairs = [r for e in eq_rows for r in (e, _neg(e))]
        cells = [(ineqs[:k] + (_neg(a),), _neg(a)) for k, a in enumerate(ineqs)]
        cells += [((*ineqs, *pairs[: k - k % 2], c), c) for k, c in enumerate(pairs)]
        stack += [(i + 1, (basis, rays, zeros, done, eqs), cell, strict + (c,)) for cell, c in reversed(cells)]
    return True, None


# -- quadratic-form sign analysis (for the second order condition) -----------------


def _restrict_form(q: Sequence[IntVec], basis: Sequence[IntVec]) -> tuple[IntVec, ...]:
    qb = [_apply(q, g) for g in basis]
    return tuple(tuple(_dot(g, qg) for qg in qb) for g in basis)


def _form_value(q: Sequence[IntVec], u: IntVec) -> int:
    return _dot(u, _apply(q, u))


def _lift(gens: Sequence[IntVec], coeffs: Sequence[int]) -> IntVec:
    """The primitive integer representative of sum c_i g_i."""
    return _reduce([_dot(coeffs, col) for col in zip(*gens)])


def _negativity_on_cone(q: Sequence[IntVec], cone: PolyCone) -> IntVec | None:
    """A nonzero integer u in the cone with u^T q u >= 0, or None when the
    integer form q is strictly negative on the cone minus the origin.

    The cone is cone(R) + L, R its canonical rays and L the span of its
    canonical lineality rows.  One q-orthogonal pass splits L off: the first
    row b, with d = b^T q b, is a witness if d >= 0; if not, every later row
    and every ray v becomes the primitive form of (-d) v + (v^T q b) b,
    q-orthogonal to b.  If every d < 0, q is negative definite on L, and the
    rays so projected, R', are q-orthogonal to L with cone(R') + L the cone.
    So each u in it is r + l, r in cone(R') and l in L, with
    u^T q u = r^T q r + l^T q l <= r^T q r, and equality iff l = 0: r
    maximises the form over u + L (a Schur complement), and as r = 0 leaves
    u^T q u < 0, the cone has a witness iff cone(R') has one.

    Each support J of s <= dim linearly independent rays G_J of R',
    smallest first, gets one feasibility test of the KKT system
    G_J^T q G_J lam = mu 1, lam > 0, mu >= 0 (the principal-submatrix
    criteria of Cottle, Habetler and Lemke, and of Väliaho, 1986);
    dependent supports are skipped.  The test is sound: a solution gives
    u = G_J lam, nonzero as G_J is independent, with
    u^T q u = mu sum(lam) >= 0.  It is complete: a witness scales into
    conv(R'), by Carathéodory it is G_J lam' for an independent G_J and
    lam' > 0, so the maximum of lam^T G_J^T q G_J lam over the simplex of J
    is >= 0; it is attained in the relative interior of the simplex of some
    J' ⊆ J, where the KKT system of J' holds with mu the maximum.
    """
    gens, lin = cone._v
    while lin:
        b, *lin = lin
        qb = _apply(q, b)
        d = _dot(b, qb)
        if d >= 0:
            return b
        lin, gens = [[_reduce([-d * x + _dot(v, qb) * y for x, y in zip(v, b)]) for v in part] for part in (lin, gens)]
    gram = _restrict_form(q, gens)
    for size in range(1, min(len(gens), cone.dim) + 1):
        for support in combinations(range(len(gens)), size):
            picked = [gens[j] for j in support]
            if len(_echelon(picked, cone.dim)[0]) < size:
                continue
            # variables (lam_J, mu)
            eqs = [_reduce([gram[t][j] for j in support] + [-1]) for t in support]
            strict = [tuple(-int(j == i) for j in range(size + 1)) for i in range(size)]
            cell = open_cell(size + 1, [(0,) * size + (-1,)], eqs, strict)
            if cell is not None:
                z = [sum(x) for x in zip(*cell._v[0])]  # a point of the cell
                return _lift(picked, z[:-1])
    return None


# -- constraint-system strata -------------------------------------------------------


@_per_spec
def _strata(spec: ConstraintSystemSpec, w: IntVec):
    """The direction strata of D at g0 along the primitive integer direction
    w, with their reach cells: every certificate of a constraint system reads
    them, the first and second order checks, Phase B and the joint check
    along w = 0, where the walk visits every cell, and a directional check
    along its own w, where it visits only the cells whose closure holds w."""
    return direction_strata(spec.D, spec.g0, QVector(w))


@_per_spec
def check_foscms(spec: ConstraintSystemSpec) -> Certificate:
    """First order sufficient condition for metric subregularity of the
    frozen-parameter constraint system at the reference point.

    For every direction stratum of D reachable by Jx u with u != 0, the cone
    {v : Jx^T v = 0} ∩ (stratum normal cone) must be trivial.  Computed once
    per spec: the calmness check reuses it.
    """
    if spec.kind != "constraint":
        raise TypeError("check_foscms expects a constraint system")
    trace = []
    witnesses = []
    for s in _strata(spec, (0,) * spec.m):
        v_cone = _kernel_meet(spec, s.normal)
        u_cells = (_x_pullback(spec, qc) for qc in s.reach)
        active_cells = [u for u in u_cells if not u.is_trivial()]
        rec = dict(
            stratum=s.label,
            normal_cone=cone_plain(s.normal),
            dual_test_cone=cone_plain(v_cone),
            admissible_directions=bool(active_cells),
        )
        if active_cells and not v_cone.is_trivial():
            u = pick_nonzero(active_cells[0])
            vstar = pick_nonzero(v_cone)
            witnesses.append(Witness(s.label, vstar, u=u))
            rec["outcome"] = "violated"
        else:
            rec["outcome"] = "ok"
        trace.append(rec)
    status = NOT_CERTIFIED if witnesses else HOLDS
    return Certificate(status, tuple(witnesses), trace=tuple(trace))


@_per_spec
def check_soscms(spec: ConstraintSystemSpec) -> Certificate:
    """Second order sufficient condition for metric subregularity.

    On every stratum that survives the first order test with a nontrivial
    dual cone, a violating pair must additionally make u^T (sum v*_i H_i) u
    nonnegative.  The sign of the quadratic term on each admissible
    direction cone is decided exactly, in integers (``_negativity_on_cone``
    on positive multiples of the forms).  Computed once per spec, like
    ``check_foscms``.
    """
    if spec.kind != "constraint":
        raise TypeError("check_soscms expects a constraint system")
    if spec.hessians is None:
        raise PreconditionError("check_soscms needs the component Hessians")
    trace = []
    witnesses = []
    for s in _strata(spec, (0,) * spec.m):
        v_cone = _kernel_meet(spec, s.normal)
        u_cells = (_x_pullback(spec, qc) for qc in s.reach)
        active_cells = [u for u in u_cells if not u.is_trivial()]
        rec = dict(
            stratum=s.label,
            dual_test_cone=cone_plain(v_cone),
            admissible_directions=bool(active_cells),
        )
        if not active_cells or v_cone.is_trivial():
            rec["outcome"] = "ok (first order)"
            trace.append(rec)
            continue
        rays, lin = v_cone._v
        if lin:
            # both signs of a lineality direction are dual-feasible, so the
            # quadratic term can always be made nonnegative
            u = pick_nonzero(active_cells[0])
            lstar = v_cone.lin[0]  # the RREF row; lin[0] is a positive multiple of it
            qform = _hessian_contraction(spec, lin[0])
            vstar = lstar if _form_value(qform, _ints(u)) >= 0 else -lstar
            witnesses.append(Witness(s.label, vstar, u=u))
            rec["outcome"] = "violated (dual lineality)"
            trace.append(rec)
            continue
        stratum_outcome = "ok (quadratic term negative)"
        for rstar in rays:
            qform = _hessian_contraction(spec, rstar)
            for u_cell in active_cells:
                wit = _negativity_on_cone(qform, u_cell)
                if wit is not None:
                    witnesses.append(Witness(s.label, QVector(rstar), u=QVector(wit)))
                    stratum_outcome = "violated"
        rec["outcome"] = stratum_outcome
        trace.append(rec)
    status = NOT_CERTIFIED if witnesses else HOLDS
    return Certificate(status, tuple(witnesses), trace=tuple(trace))


def _hessian_contraction(spec: ConstraintSystemSpec, vstar: IntVec) -> tuple[IntVec, ...]:
    """A positive multiple of sum v*_i H_i, given a positive integer multiple of v*."""
    terms = [(c, h) for c, h in zip(vstar, spec._hessian_rows) if c]
    return tuple(tuple(sum(c * h[i][j] for c, h in terms) for j in range(spec.n)) for i in range(spec.n))


def check_calmness_constraint(spec: ConstraintSystemSpec, order: str = "first") -> Certificate:
    """Calmness of the parameterized constraint system, with solvability rate.

    Delegates to the first or second order subregularity test; when a nonzero
    direction u with Jx u tangent to D exists, the corresponding solvability
    rate flag is set (linear for first order, square-root for second).
    Tangents of polyhedral sets are derivable, so no extra hypothesis is
    needed for the rate.
    """
    if order not in ("first", "second"):
        raise PreconditionError("order must be 'first' or 'second'")
    base = check_foscms(spec) if order == "first" else check_soscms(spec)
    utilde = None
    for piece in _d_tangent(spec).pieces:
        cand = pick_nonzero(_x_pullback(spec, piece))
        if cand is not None:
            utilde = cand
            break
    rate_name = "linear_solvability" if order == "first" else "hoelder_half_solvability"
    rates = ((rate_name, utilde is not None),)
    notes = list(base.notes)
    notes.append(f"param_lipschitz asserted by user: {spec.param_lipschitz}")
    if utilde is not None:
        notes.append(
            f"solvability direction u={utilde!r}; its image is a derivable tangent "
            "(polyhedral sets: projection arc)"
        )
    if not spec.param_lipschitz:
        notes.append("warning: calmness conclusion assumes the parameter-Lipschitz bound")
    return Certificate(
        base.status,
        base.witnesses,
        rates=rates,
        refuted=base.refuted,
        trace=base.trace,
        notes=tuple(notes),
    )


# -- adjoint strata ---------------------------------------------------------------


def _solution_pieces(spec) -> tuple[PolyCone, ...]:
    """Solution cones of the linearized system in (q, u) space.

    For a constraint system, one per piece T of the tangent cone of D at g0:
    the (q, u) with Jp q + Jx u ∈ T.  For a variational system, the graph
    cell (F, F) of each face F of the critical cone in the order of
    ``K.faces()``, a face of ``_graph_cone`` holding each cell (F, F1).
    """
    if spec.kind == "constraint":
        return tuple(_qu_pullback(spec, t) for t in _d_tangent(spec).pieces)
    return tuple(_graph_cell(spec, f.active_set, f.active_set) for f in spec.graph_point().critical.faces())


@_per_spec
def _graph_cone(spec: VariationalSystemSpec) -> PolyCone:
    """G = {(q, u) : u ∈ K, -Jp q - Jx u ∈ K°} for the critical cone K, in one
    conversion of K's rows padded with zeros in q and of K°'s pulled back."""
    wt, pad, k = _w_map_T(spec), (0,) * spec.l, spec.graph_point().critical
    (ineqs, eqs), (rays, lin) = k._h, k._v
    rows_i = [pad + a for a in ineqs] + [_apply(wt, r) for r in rays]
    return _of_rows(spec.l + spec.n, rows_i, [pad + e for e in eqs] + [_apply(wt, e) for e in lin])


@_per_spec
def _graph_cell(spec: VariationalSystemSpec, f2_active: frozenset, f1_active: frozenset) -> PolyCone:
    """{(q, u) : u ∈ F2, -Jp q - Jx u ∈ K° ∩ F1^⊥} for the faces F2 ⊆ F1 of
    the critical cone K with these active sets: the pair's reach cone
    F2 × (K° ∩ F1^⊥) pulled back, and F2's solution piece when F1 = F2.  It
    is the face of ``_graph_cone`` exposed by the sum of G's rows for F2's
    active rows and F1's rays (K's rays zero on those), each <= 0 on G."""
    wt, k = _w_map_T(spec), spec.graph_point().critical
    ineqs, rays = k._h[0], k._v[0]
    f1_rays = [r for r in rays if all(_dot(ineqs[i], r) == 0 for i in f1_active)]
    zeta = [(0,) * spec.l + ineqs[i] for i in f2_active] + [_apply(wt, tuple(map(sum, zip((0,) * spec.n, *f1_rays))))]
    return _exposed_face(_graph_cone(spec), tuple(map(sum, zip(*zeta))))


@_per_spec
def _variational_adjoint_cone(spec: VariationalSystemSpec, kd: PolyCone) -> PolyCone:
    """{v* : -Jx^T v* ∈ Kd°, -v* ∈ Kd} in R^n, once per difference cone Kd
    for the strata and for the directional adjoints at every direction."""
    jx = _jx_rows(spec)
    rays, lin = kd._v  # the H-representation of Kd°
    ineqs, eqs = kd._h
    # a.(-Jx^T v*) <= 0  <=>  -(Jx a).v* <= 0, and b.(-v*) <= 0
    rows_i = [_neg(_apply(jx, a)) for a in rays] + [_neg(b) for b in ineqs]
    rows_e = [_apply(jx, e) for e in lin] + list(eqs)
    return _of_rows(spec.n, rows_i, rows_e)


def _graph_strata(spec: VariationalSystemSpec):
    """(label, Kd, (q, u) cells: faces of ``_graph_cone``) for each
    difference cone Kd = F1 - F2 of the face pairs of the critical cone, in
    first-occurrence order and labelled after the first pair that gives it a
    cell.  A pair whose F2 has a trivial solution piece gives none, since its
    cell (F2, F1) lies inside it."""
    gp = spec.graph_point()
    zero = (0,) * spec.n
    by_kd: dict[PolyCone, tuple[str, list[PolyCone]]] = {}
    for f1, f2 in face_pairs(gp, zero, zero):
        if _graph_cell(spec, f2.active_set, f2.active_set).is_trivial():
            continue
        kd = gp.difference(f1, f2)
        if kd not in by_kd:
            by_kd[kd] = (f"pair F1={sorted(f1.active_set)}, F2={sorted(f2.active_set)}", [])
        by_kd[kd][1].append(_graph_cell(spec, f2.active_set, f1.active_set))
    for kd, (label, cells) in by_kd.items():
        yield label, kd, cells


@_per_spec
def _adjoint_strata(spec) -> tuple[tuple, ...]:
    """The direction-stratified adjoint inclusions, one record per stratum:
    (label, coderivative piece, adjoint cone in v*-space, ((i, (q, u)), ...))
    with a nonzero direction (q, u) of each nontrivial (q, u) cell i.  A
    constraint system's strata are the direction strata of D, with the
    normal-cone piece N and the adjoint cone ker Jx^T ∩ N; a variational
    system's are the difference cones Kd = F1 - F2 of the face pairs
    F2 ⊆ F1 of the critical cone, with cells (F2, F1).  A stratum is kept,
    and its adjoint cone built, only when one of its cells is nontrivial."""
    if spec.kind == "constraint":
        sources = ((s.label, s.normal, [_qu_pullback(spec, qc) for qc in s.reach]) for s in _strata(spec, (0,) * spec.m))
        adjoint_of = _kernel_meet
    else:
        sources, adjoint_of = _graph_strata(spec), _variational_adjoint_cone
    strata = []
    for label, piece, cells in sources:
        samples = tuple((i, _split_qu(pick_nonzero(c), spec.l)) for i, c in enumerate(cells) if not c.is_trivial())
        if samples:
            strata.append((label, piece, adjoint_of(spec, piece), samples))
    return tuple(strata)


@_per_spec
def _phase_a(spec) -> tuple[dict, bool, QVector | None]:
    """Phase A of ``check_aubin`` in either mode: its trace record, whether
    the projections of the solution pieces onto parameter space cover it,
    and a parameter direction outside them if not."""
    pieces = _solution_pieces(spec)
    projected = [fm_project(p, spec.l) for p in pieces]
    covered, gap = covers_space(projected, spec.l)
    rec = dict(
        phase="A (solvability for every parameter direction)",
        solution_pieces=[cone_plain(p) for p in pieces],
        projections=[cone_plain(p) for p in projected],
        covered=covered,
    )
    return rec, covered, gap


def check_aubin(spec, mode: str = "corollary", assume_subregular: bool = False) -> Certificate:
    """Aubin property of the solution map around the reference point.

    Phase A verifies that the linearized inclusion is solvable for every
    parameter direction (projection of the solution cone onto parameter
    space covers it; this is also necessary, so failure refutes).  Phase B
    requires, for every nonzero solution direction and every compatible
    coderivative piece, that the adjoint solution cone is trivial
    (mode "corollary") or contained in the kernel of Jp^T (mode "theorem",
    which additionally needs metric subregularity of the joint map -
    discharged through check_foscms_joint or asserted by the caller).

    The trace holds the Phase A record and, when Phase A holds, the Phase B
    record.  The unstratified (standard) adjoint inclusion is not repeated
    here: it is ``check_directional_metric_regularity`` at the direction
    (0, 0), which decides it exactly.
    """
    if mode not in ("corollary", "theorem"):
        raise PreconditionError("mode must be 'corollary' or 'theorem'")
    notes: list[str] = []
    trace: list = []
    if mode == "theorem":
        if assume_subregular:
            notes.append("joint metric subregularity asserted by caller")
        else:
            evidence = check_foscms_joint(spec)
            if not evidence.holds():
                raise PreconditionError(
                    "theorem mode needs metric subregularity of the joint map: "
                    "check_foscms_joint did not certify it and no assertion flag was given"
                )
            notes.append("joint metric subregularity certified by check_foscms_joint")

    phase_a, covered, gap = _phase_a(spec)
    trace.append(phase_a)
    witnesses: list[Witness] = []
    if not covered:
        witnesses.append(Witness("uncovered parameter direction", None, q=gap))
        notes.append("solvability fails: this condition is necessary, so the Aubin property fails")
        return Certificate(
            NOT_CERTIFIED,
            tuple(witnesses),
            refuted=True,
            trace=tuple(trace),
            notes=tuple(notes),
        )

    jpt = _w_map_T(spec)[: spec.l]  # a multiple of ±Jp^T
    cases = []
    for case, piece, adjoint, cells in _adjoint_strata(spec):
        if mode == "corollary":
            offender = pick_nonzero(adjoint)
        else:
            gens = zip(adjoint.generators(), adjoint._int_generators())
            offender = next((g for g, gi in gens if any(_apply(jpt, gi))), None)
        shared = {
            "coderivative_piece": cone_plain(piece),
            "adjoint_cone": cone_plain(adjoint),
            "trivial": adjoint.is_trivial(),
            "outcome": "ok" if offender is None else "violated",
        }
        inclusions = []
        for i, (q, u) in cells:
            label = f"{case} / cell {i}"
            inclusions.append({"adjoint_stratum": label, "sample_direction": {"q": vec_plain(q), "u": vec_plain(u)}, **shared})
            if offender is not None:
                witnesses.append(Witness(label, offender, u=u, q=q))
        cases.append({"case": case, "adjoint_inclusions": inclusions})
    trace.append({"phase": "B (direction-stratified adjoint inclusions)", "mode": mode, "cases": cases})
    status = NOT_CERTIFIED if witnesses else HOLDS
    return Certificate(status, tuple(witnesses), trace=tuple(trace), notes=tuple(notes))


@_per_spec
def check_foscms_joint(spec) -> Certificate:
    """Metric subregularity of the joint map in (p, x) via the first order
    condition: every adjoint solution with both transposed-Jacobian images
    vanishing must be trivial, over all nonzero joint direction strata.
    Computed once per spec: theorem-mode ``check_aubin`` reads it too."""
    witnesses = []
    trace = []
    for case, _, adjoint, cells in _adjoint_strata(spec):
        joint = _joint_adjoint(spec, adjoint)
        offender = pick_nonzero(joint)
        shared = {"joint_adjoint_cone": cone_plain(joint), "outcome": "ok" if offender is None else "violated"}
        for i, (q, u) in cells:
            label = f"{case} / cell {i}"
            trace.append({"adjoint_stratum": label, **shared})
            if offender is not None:
                witnesses.append(Witness(label, offender, u=u, q=q))
    status = NOT_CERTIFIED if witnesses else HOLDS
    return Certificate(status, tuple(witnesses), trace=tuple(trace))


@_per_spec
def _joint_adjoint(spec, adjoint: PolyCone) -> PolyCone:
    """The adjoint cone cut down to ker Jp^T, once per spec and cone."""
    ineqs, eqs = adjoint._h
    return _of_rows(adjoint.dim, ineqs, eqs + _w_map_T(spec)[: spec.l])


def graphical_derivative_S(spec, q: QVector) -> list[Polyhedron]:
    """Slice of the linearized solution cone at a fixed parameter direction.

    Returns the set {u : (q, u) solves the linearized inclusion} as the
    polyhedra cut from the solution pieces' integer rows, those not inside
    another, in key order: the ``ConeUnion`` of their homogenization cones.
    """
    if q.dim != spec.l:
        raise ValueError(f"dimension mismatch: {q.dim} vs {spec.l}")
    l, ((qn,), qd) = spec.l, _cleared([q])
    out: dict[PolyCone, Polyhedron] = {}  # homogenization cone -> polyhedron
    for c in _solution_pieces(spec):
        # a.(q, u) <= 0 on an integer row a = (a_q, a_u): a_u.u <= -a_q.q,
        # whose homogenized row (a_u, a_q.q) is (qd a_u, a_q.qn) / qd for q = qn / qd
        rows = [[(*[qd * x for x in a[l:]], _dot(a[:l], qn)) for a in part] for part in c._h]
        try:
            poly = Polyhedron._of_int_rows(spec.n, *rows)
        except InfeasibleError:
            continue
        out.setdefault(poly._homog, poly)
    return [out[c] for c in ConeUnion(spec.n + 1, out).pieces]


def _directional_adjoints(spec, u: QVector, v: QVector) -> tuple[tuple[PolyCone, PolyCone], ...] | None:
    """The (piece, adjoint cone) pairs in the graph direction (u, v), one per
    piece of the directional normal cone, or None when (u, v) is not tangent
    to the graph; at (0, 0), the standard adjoint inclusion, as there the
    directional limiting normal cone is the limiting one (the walk along
    w = 0 visits every cell of D, and the graph's keeps every face pair).

    For a constraint system the pieces are those of N_D(g0; Jx u - v), the
    normals of the strata that the walk along w = Jx u - v finds
    (``_strata(spec, w)``, the cells whose closure holds w), each with
    ker Jx^T ∩ piece; as D is polyhedral, the walk finds none exactly when
    w is not tangent to D (Gfrerer, SIAM J. Optim. 2014).  For a
    variational system, the difference cones Kd of the directional limiting
    normal cone to the graph in direction (u, v - Jx u), each with
    ``_variational_adjoint_cone``, and none when the direction is not
    tangent to the graph.  Both read w (and the variational one u) only up
    to a positive factor, so they take positive integer multiples of them,
    computed once; w is primitive, the key of its walk in the spec's memo.
    """
    constraint, m = spec.kind == "constraint", spec.m
    # the errors of the rational Jx u - v and v - Jx u
    if u.dim != spec.n:
        raise ValueError("matvec dimension mismatch")
    if v.dim != m:
        raise ValueError(f"dimension mismatch: {m} vs {v.dim}" if constraint else f"dimension mismatch: {v.dim} vs {m}")
    ((ui,), du), ((vi,), dv), s = _cleared([u]), _cleared([v]), _jacobian(spec)[1]
    # s du dv (Jx u - v), as u = ui / du, v = vi / dv and _jx_rows holds s Jx
    w = _reduce([dv * a - s * du * b for a, b in zip(_apply(_jx_rows(spec), ui), vi)])
    if constraint:
        pieces, adjoint_of = ConeUnion(m, [s.normal for s in _strata(spec, w)]).pieces, _kernel_meet
    else:
        gp, w = spec.graph_point(), _neg(w)
        pairs = face_pairs(gp, ui, w) if _tangent(gp, ui, w) else []
        pieces, adjoint_of = [p.k for p in _assemble(gp, pairs).pieces], _variational_adjoint_cone
    return tuple((p, adjoint_of(spec, p)) for p in pieces) or None


def check_directional_metric_regularity(spec, u: QVector, v: QVector) -> Certificate:
    """Directional metric regularity of the frozen-parameter system in the
    graph direction (u, v).  The criterion is exact, so a failure is a
    refutation and the certificate is flagged accordingly.  Directions off
    the graph tangent cone are vacuously regular.
    """
    adjoints = _directional_adjoints(spec, u, v)
    if adjoints is None:
        return Certificate(
            HOLDS,
            notes=("direction is not tangent to the graph: metrically regular in it by definition",),
        )
    piece = "normal piece" if spec.kind == "constraint" else "difference-cone piece"
    witnesses = []
    trace = []
    for i, (_, adj) in enumerate(adjoints):
        label = f"{piece} {i}"
        ok = adj.is_trivial()
        trace.append({"piece": label, "adjoint_cone": cone_plain(adj), "outcome": "ok" if ok else "violated"})
        if not ok:
            witnesses.append(Witness(label, pick_nonzero(adj), u=u))
    if witnesses:
        return Certificate(
            NOT_CERTIFIED,
            tuple(witnesses),
            refuted=True,
            trace=tuple(trace),
            notes=("the directional criterion is exact: metric regularity in this direction fails",),
        )
    return Certificate(HOLDS, trace=tuple(trace))


def check_second_order_directional_subregularity(spec, u: QVector, gpp: QVector | None = None) -> Certificate:
    """Directional metric subregularity via second order data along u != 0.

    Requires the curvature vector gpp = G''(xbar; u); for constraint systems
    it is contracted from the stored Hessians when not supplied.  Holds when
    every adjoint solution cone for direction (u, 0) is pointed and the
    linear functional <., gpp> is strictly negative on each of its extreme
    rays.
    """
    if u.dim != spec.n:
        raise ValueError("matvec dimension mismatch")  # the error of the rational Jx u
    if u.is_zero():
        raise PreconditionError("direction u must be nonzero")
    if gpp is None:
        if spec.kind != "constraint" or spec.hessians is None:
            raise PreconditionError("gpp is required when no Hessians are stored")
        ui = _ints(u)
        curvature = tuple(_form_value(h, ui) for h in spec._hessian_rows)  # a positive multiple of gpp
    elif gpp.dim != spec.m:
        raise ValueError(f"dimension mismatch: {gpp.dim} vs {spec.m}")
    else:
        curvature = _ints(gpp)
    cones = _directional_adjoints(spec, u, QVector.zero(spec.m))
    if cones is None:
        return Certificate(HOLDS, notes=("direction is not tangent: subregular in it by definition",))
    witnesses = []
    trace = []
    for i, (_, c) in enumerate(cones):
        label = f"adjoint piece {i}"
        if c.is_trivial():
            trace.append({"piece": label, "outcome": "ok (trivial)"})
            continue
        if c._v[1]:
            trace.append({"piece": label, "adjoint_cone": cone_plain(c), "outcome": "violated (lineality)"})
            witnesses.append(Witness(label, c.lin[0], u=u))
            continue
        bad = [r for r in c._v[0] if _dot(r, curvature) >= 0]
        if bad:
            trace.append({"piece": label, "adjoint_cone": cone_plain(c), "outcome": "violated (nonnegative ray)"})
            witnesses.append(Witness(label, QVector(bad[0]), u=u))
        else:
            trace.append({"piece": label, "adjoint_cone": cone_plain(c), "outcome": "ok (strictly negative on rays)"})
    status = NOT_CERTIFIED if witnesses else HOLDS
    return Certificate(status, tuple(witnesses), trace=tuple(trace))
