from collections import Counter
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import (
    admissible_complementarity,
    complementarity,
    counting_dd,
    graph_union,
    orthant_spec,
    parametric_complementarity,
    random_affine_union,
    random_gamma,
    random_graph_point,
    random_matrix,
    random_member,
    random_symmetric,
    random_tangent_pair,
    random_union,
    refuted_orthant,
    rng,
)
from families import FAMILIES
from polyvar.certify import (
    HOLDS,
    NOT_CERTIFIED,
    ConstraintSystemSpec,
    VariationalSystemSpec,
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_foscms_joint,
    check_second_order_directional_subregularity,
    check_soscms,
    covers_space,
    fm_project,
    PreconditionError,
    graphical_derivative_S,
    _hessian_contraction,
    _form_value,
    _solution_pieces,
    _variational_adjoint_cone,
)
from polyvar import certify, sets
from polyvar.cones import PolyCone, open_cell, pick_nonzero
from polyvar.graphmap import directional_limiting_normal_graph, face_pairs, limiting_normal_graph
from polyvar.linalg import QMatrix, QVector, _dot, _ints, _neg, _reduce, row_space_basis
from polyvar.sets import (
    ConeUnion,
    InfeasibleError,
    Polyhedron,
    UnionSet,
    direction_strata,
    directional_normal_cone,
    union_tangent_cone,
)


def ex3_spec():
    p1 = Polyhedron(4, A=[[-1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], b=[0, 0, 0], E=[[0, 1, 0, 0]], e=[0])
    p2 = Polyhedron(4, A=[[0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], b=[0, 0, 0], E=[[1, 0, 0, 0]], e=[0])
    return ConstraintSystemSpec(
        l=2, n=2, m=4,
        Jp=[[-1, 0], [0, -1], [0, 0], [0, 0]],
        Jx=[[1, 0], [0, 1], [-1, -1], [-1, 1]],
        g0=[0, 0, 0, 0],
        D=UnionSet([p1, p2]),
        hessians=[QMatrix.zero(2, 2), QMatrix.zero(2, 2), QMatrix([[-2, 0], [0, 0]]), QMatrix([[-2, 0], [0, 0]])],
    )


def ex4_spec(hessians=True):
    return ConstraintSystemSpec(
        l=1, n=2, m=2,
        Jp=[[1], [1]],
        Jx=[[0, 1], [0, -1]],
        g0=[0, 0],
        D=UnionSet([Polyhedron(2, A=[[1, 0], [0, 1]], b=[0, 0])]),
        hessians=[QMatrix([[-1, 0], [0, 0]]), QMatrix([[-1, 0], [0, 0]])] if hessians else None,
    )


def ex5_spec():
    return VariationalSystemSpec(
        l=1, n=2,
        Jp=[[-1], [0]],
        Jx=[[1, 0], [0, -1]],
        gamma=Polyhedron(2, A=[[1, -2], [1, 2]], b=[0, 0]),
        xbar=[0, 0], ybarstar=[0, 0],
    )


def constraint_args(**change):
    """ex4's constructor arguments (without Hessians), with ``change`` applied."""
    args = dict(l=1, n=2, m=2, Jp=[[1], [1]], Jx=[[0, 1], [0, -1]], g0=[0, 0], D=ex4_spec().D)
    return {**args, **change}


def variational_args(**change):
    """ex5's constructor arguments, with ``change`` applied."""
    args = dict(l=1, n=2, Jp=[[-1], [0]], Jx=[[1, 0], [0, -1]], gamma=ex5_spec().gamma, xbar=[0, 0], ybarstar=[0, 0])
    return {**args, **change}


def half_space_of_r3():
    return Polyhedron(3, A=[[1, 0, 0]], b=[0])


# (the ValueError's message, the spec it is raised building)
SPEC_SHAPE_ERRORS = (
    ("Jp must be m x l", lambda: ConstraintSystemSpec(**constraint_args(Jp=[[1, 0], [1, 0]]))),
    ("Jp must be m x l", lambda: ConstraintSystemSpec(**constraint_args(Jp=[[1]]))),
    ("Jx must be m x n", lambda: ConstraintSystemSpec(**constraint_args(Jx=[[0, 1, 0], [0, -1, 0]]))),
    ("Jx must be m x n", lambda: ConstraintSystemSpec(**constraint_args(Jx=[]))),
    ("g0 and D must live in R^m", lambda: ConstraintSystemSpec(**constraint_args(g0=[0, 0, 0]))),
    ("g0 and D must live in R^m", lambda: ConstraintSystemSpec(**constraint_args(D=UnionSet([half_space_of_r3()])))),
    ("need one Hessian per component", lambda: ConstraintSystemSpec(**constraint_args(hessians=[QMatrix.zero(2, 2)]))),
    (
        "Hessians must be symmetric n x n",
        lambda: ConstraintSystemSpec(**constraint_args(hessians=[QMatrix.zero(3, 3)] * 2)),
    ),
    (
        "Hessians must be symmetric n x n",
        lambda: ConstraintSystemSpec(**constraint_args(hessians=[QMatrix([[0, 1], [0, 0]])] * 2)),
    ),
    ("Jp must be n x l", lambda: VariationalSystemSpec(**variational_args(Jp=[[-1]]))),
    ("Jp must be n x l", lambda: VariationalSystemSpec(**variational_args(Jp=[[-1, 0], [0, 0]]))),
    ("Jx must be n x n", lambda: VariationalSystemSpec(**variational_args(Jx=[[1, 0]]))),
    ("Jx must be n x n", lambda: VariationalSystemSpec(**variational_args(Jx=[[1, 0, 0], [0, -1, 0]]))),
    ("gamma, xbar, ybarstar must live in R^n", lambda: VariationalSystemSpec(**variational_args(xbar=[0]))),
    ("gamma, xbar, ybarstar must live in R^n", lambda: VariationalSystemSpec(**variational_args(ybarstar=[0, 0, 0]))),
    (
        "gamma, xbar, ybarstar must live in R^n",
        lambda: VariationalSystemSpec(**variational_args(gamma=half_space_of_r3())),
    ),
)


@pytest.mark.parametrize("message, build", SPEC_SHAPE_ERRORS)
def test_spec_constructors_reject_wrong_shapes(message, build):
    with pytest.raises(ValueError) as err:
        build()
    assert str(err.value) == message


def test_both_kinds_share_one_immutable_core_with_the_range_dimension():
    for spec, m in ((ex3_spec(), 4), (ex4_spec(), 2), (ex5_spec(), 2)):
        assert spec.m == m == spec.Jx.nrows == spec.Jp.nrows
        for name, value in (("m", 7), ("Jx", spec.Jp), ("label", "x"), ("_memo", {}), ("extra", 1)):
            with pytest.raises(AttributeError):
                setattr(spec, name, value)
        assert spec.m == m
    assert ex5_spec().m == ex5_spec().n


def test_hessians_are_kept_as_integer_rows_of_one_scale():
    spec = ConstraintSystemSpec(
        **constraint_args(hessians=[QMatrix([[F(1, 2), 1], [1, 0]]), QMatrix([[0, F(-1, 3)], [F(-1, 3), 2]])])
    )
    assert spec._hessian_rows == (((3, 6), (6, 0)), ((0, -2), (-2, 12)))
    assert ex4_spec(hessians=False)._hessian_rows is None


def test_g0_outside_d_names_each_violated_row_as_written():
    # the canonical rows are sorted: the file's row 0, (2, 0).y <= 0, is
    # canonical row 1, (1, 0).y <= 0
    piece = Polyhedron(2, A=[[2, 0], [0, 1], [1, 1]], b=[0, 0, 5])
    assert piece.A[1] == QVector([1, 0])
    line = Polyhedron(2, E=[[0, 1]], e=[3])
    with pytest.raises(ValueError) as err:
        ConstraintSystemSpec(**constraint_args(g0=[1, 0], D=UnionSet([piece, line])))
    assert str(err.value) == "g0 lies in no piece of D (piece 0: violates (1, 0).y<=0; piece 1: violates (0, 1).y=3)"


# -- witness replay ------------------------------------------------------------


def replay_foscms_witness(spec, w):
    assert w.u is not None and not w.u.is_zero()
    assert w.vstar is not None and not w.vstar.is_zero()
    img = spec.Jx.matvec(w.u)
    assert union_tangent_cone(spec.D, spec.g0).contains(img)
    assert spec.Jx.T.matvec(w.vstar).is_zero()
    assert directional_normal_cone(spec.D, spec.g0, img).contains(w.vstar)


def replay_soscms_witness(spec, w):
    replay_foscms_witness(spec, w)
    qform = _hessian_contraction(spec, _ints(w.vstar))
    assert _form_value(qform, _ints(w.u)) >= 0


def replay_aubin_witness(spec, w, mode):
    if w.vstar is None:  # solvability gap: no solution direction above this q
        assert graphical_derivative_S(spec, w.q) == []
        return
    assert not w.vstar.is_zero()
    q, u = w.q, w.u
    if spec.kind == "constraint":
        img = spec.Jp.matvec(q) + spec.Jx.matvec(u)
        assert spec.Jx.T.matvec(w.vstar).is_zero()
        assert directional_normal_cone(spec.D, spec.g0, img).contains(w.vstar)
    else:
        gp = spec.graph_point()
        wdir = -(spec.Jp.matvec(q) + spec.Jx.matvec(u))
        gnc = directional_limiting_normal_graph(gp, u, wdir)
        assert gnc.contains(-spec.Jx.T.matvec(w.vstar), -w.vstar)
    if mode == "theorem":
        assert not spec.Jp.T.matvec(w.vstar).is_zero()
    assert not (q.is_zero() and u.is_zero())


# -- worked examples -----------------------------------------------------------


def test_ex3_foscms_holds_with_expected_trace():
    cert = check_foscms(ex3_spec())
    assert cert.status == HOLDS
    # some stratum must exhibit the admissible direction cone u = (u1, 0)
    assert any(r["admissible_directions"] for r in cert.trace)


def test_ex3_calmness_first_order():
    cert = check_calmness_constraint(ex3_spec(), "first")
    assert cert.status == HOLDS
    assert cert.rate("linear_solvability")


def test_ex3_aubin_corollary_fails_with_replayable_witness():
    spec = ex3_spec()
    cert = check_aubin(spec, "corollary")
    assert cert.status == NOT_CERTIFIED
    assert cert.witnesses
    for w in cert.witnesses:
        replay_aubin_witness(spec, w, "corollary")
    # the known offending dual ray
    assert any(w.vstar is not None and w.vstar.primitive() == QVector([2, 0, 1, 1]) for w in cert.witnesses)


def test_ex3_aubin_theorem_mode_also_fails():
    spec = ex3_spec()
    cert = check_aubin(spec, "theorem", assume_subregular=True)
    assert cert.status == NOT_CERTIFIED
    for w in cert.witnesses:
        replay_aubin_witness(spec, w, "theorem")


def test_ex4_foscms_witness():
    spec = ex4_spec()
    cert = check_foscms(spec)
    assert cert.status == NOT_CERTIFIED
    assert any(w.vstar.primitive() == QVector([1, 1]) for w in cert.witnesses)
    for w in cert.witnesses:
        replay_foscms_witness(spec, w)


def test_ex4_soscms_holds():
    assert check_soscms(ex4_spec()).status == HOLDS


def test_ex4_soscms_needs_hessians():
    with pytest.raises(ValueError):
        check_soscms(ex4_spec(hessians=False))


def test_ex4_calmness_second_order_rate():
    cert = check_calmness_constraint(ex4_spec(), "second")
    assert cert.status == HOLDS
    assert cert.rate("hoelder_half_solvability")


def test_ex4_first_order_calmness_not_certified():
    cert = check_calmness_constraint(ex4_spec(), "first")
    assert cert.status == NOT_CERTIFIED


def test_ex4_directional_split():
    spec = ex4_spec()
    refutation = check_directional_metric_regularity(spec, QVector([1, 0]), QVector([0, 0]))
    assert refutation.status == NOT_CERTIFIED and refutation.refuted
    second = check_second_order_directional_subregularity(spec, QVector([1, 0]), QVector([-1, -1]))
    assert second.status == HOLDS
    from_hessians = check_second_order_directional_subregularity(spec, QVector([1, 0]))
    assert from_hessians.status == HOLDS


def test_second_order_subreg_rejects_zero_direction():
    with pytest.raises(ValueError):
        check_second_order_directional_subregularity(ex4_spec(), QVector([0, 0]))


def test_second_order_subreg_lineality_rejection():
    # D = {0} in R: adjoint cone for direction u is ker(Jx^T) ∩ N = a full line
    spec = ConstraintSystemSpec(
        l=1, n=1, m=1, Jp=[[1]], Jx=[[0]], g0=[0],
        D=UnionSet([Polyhedron(1, E=[[1]], e=[0])]),
        hessians=[QMatrix([[0]])],
    )
    cert = check_second_order_directional_subregularity(spec, QVector([1]), QVector([-1]))
    assert cert.status == NOT_CERTIFIED


def test_ex5_aubin_both_modes_and_trace_shape():
    spec = ex5_spec()
    cor = check_aubin(spec, "corollary")
    assert cor.status == HOLDS
    phase_b = next(t for t in cor.trace if str(t["phase"]).startswith("B"))
    assert len(phase_b["cases"]) == 4
    assert all(e["trivial"] for c in phase_b["cases"] for e in c["adjoint_inclusions"])
    assert sum(len(c["adjoint_inclusions"]) for c in phase_b["cases"]) == 4
    assert [t["phase"] for t in cor.trace] == ["A (solvability for every parameter direction)", phase_b["phase"]]
    # the standard adjoint inclusion is dir-reg at (0, 0), refuted on two rays
    zero = check_directional_metric_regularity(spec, QVector.zero(2), QVector.zero(2))
    gens = sorted(g for t in zero.trace for key in ("rays", "lin") for g in t["adjoint_cone"][key])
    assert gens == [["-1", "-2"], ["-1", "2"]] and zero.refuted
    thm = check_aubin(spec, "theorem")
    assert thm.status == HOLDS
    assert check_foscms_joint(spec).status == HOLDS


def test_ex5_graphical_derivative_slices():
    spec = ex5_spec()
    for q, expected in [
        ([-1], {((F(-1), F(0)),), ((F(-4, 3), F(2, 3)),), ((F(-4, 3), F(-2, 3)),)}),
        ([1], {((F(0), F(0)),)}),
    ]:
        pieces = graphical_derivative_S(spec, QVector(q))
        got = set()
        for p in pieces:
            verts, rec = p.vertices_and_recession()
            assert rec.is_trivial()
            got.add(tuple(sorted(tuple(v.entries) for v in verts)))
        assert got == expected
    zero_slice = graphical_derivative_S(spec, QVector([0]))
    assert any(p.contains(QVector([0, 0])) for p in zero_slice)


def test_graphical_derivative_positive_homogeneity():
    spec = ex5_spec()
    q = QVector([-1])
    lam = F(3, 2)
    a = graphical_derivative_S(spec, q)
    b = graphical_derivative_S(spec, q.scale(lam))
    scaled = []
    for p in a:
        scaled.append(
            Polyhedron(
                2,
                list(p.A),
                [lam * bv for bv in p.b],
                list(p.E),
                [lam * ev for ev in p.e],
            )
        )
    assert len(b) == len(scaled)
    for pb in b:
        assert any(pb._homog.subcone_of(ps._homog) and ps._homog.subcone_of(pb._homog) for ps in scaled)


def pairwise_derivative_S(spec, q):
    """``graphical_derivative_S`` by the dedup it replaced: each distinct
    polyhedron is tested against every other one for containment: P ⊆ Q iff
    their homogenization cones nest."""
    l, qe, out = spec.l, q.entries, []
    for c in _solution_pieces(spec):
        ineqs, eqs = c._h
        try:
            out.append(Polyhedron(
                spec.n,
                [a[l:] for a in ineqs], [-_dot(a[:l], qe) for a in ineqs],
                [e[l:] for e in eqs], [-_dot(e[:l], qe) for e in eqs],
            ))
        except InfeasibleError:
            continue
    dedup = [p for p in dict.fromkeys(out) if not any(p != o and p._homog.subcone_of(o._homog) for o in out)]
    return sorted(dedup, key=Polyhedron.key)


def test_graphical_derivative_dedup_is_the_pairwise_filter_on_ex5():
    spec = ex5_spec()
    for q in (-1, 0, 1):
        assert graphical_derivative_S(spec, QVector([q])) == pairwise_derivative_S(spec, QVector([q]))


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6), st.sampled_from(["constraint", "variational"]), st.booleans())
def test_graphical_derivative_dedup_is_the_pairwise_filter_hypothesis(seed, kind, zero):
    # the same polyhedra in the same order, at q = 0 and at a random q
    r = rng(seed)
    spec = random_spec(r, kind)
    q = QVector.zero(spec.l) if zero else QVector([F(r.randint(-2, 2), r.choice([1, 2, 3])) for _ in range(spec.l)])
    assert graphical_derivative_S(spec, q) == pairwise_derivative_S(spec, q)


def test_aubin_solvability_failure_is_refutation():
    # G(p, x) = p with D = R_- : no solution direction for q > 0
    spec = ConstraintSystemSpec(
        l=1, n=1, m=1, Jp=[[1]], Jx=[[0]], g0=[0],
        D=UnionSet([Polyhedron(1, A=[[1]], b=[0])]),
    )
    cert = check_aubin(spec, "corollary")
    assert cert.status == NOT_CERTIFIED and cert.refuted
    gap = cert.witnesses[0]
    assert gap.vstar is None
    replay_aubin_witness(spec, gap, "corollary")


def test_aubin_phase_a_refutation_builds_no_direction_strata(monkeypatch):
    # Phase A refutes on its own, so the direction stratification of Phase B
    # must not run
    def strata(*args):
        raise AssertionError("check_aubin stratified directions after Phase A refuted")

    monkeypatch.setattr(certify, "direction_strata", strata)
    wedge = Polyhedron(3, A=[[1, 1, 0], [1, -1, 0], [0, 0, 1]], b=[0, 0, 0])
    for jp, jx, d in (  # the specs of tests/golden/aubin-refutation*.txt
        ([[1]], [[0]], Polyhedron(1, A=[[1]], b=[0])),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0], [0], [1]], wedge),
    ):
        m = len(jp)
        spec = ConstraintSystemSpec(l=len(jp[0]), n=1, m=m, Jp=jp, Jx=jx, g0=[0] * m, D=UnionSet([d]))
        cert = check_aubin(spec, "corollary")
        assert cert.status == NOT_CERTIFIED and cert.refuted


def zero_jacobian_variational_spec():
    # G identically zero: every adjoint cone is the negated difference cone,
    # so the corollary fails while the theorem-mode conclusion (about Jp^T
    # images only) is vacuously true
    return VariationalSystemSpec(
        l=1, n=2,
        Jp=[[0], [0]],
        Jx=[[0, 0], [0, 0]],
        gamma=Polyhedron(2, A=[[-1, 0], [0, -1]], b=[0, 0]),
        xbar=[0, 0], ybarstar=[0, 0],
    )


def test_aubin_theorem_weaker_than_corollary():
    spec = zero_jacobian_variational_spec()
    cor = check_aubin(spec, "corollary")
    thm = check_aubin(spec, "theorem", assume_subregular=True)
    assert cor.status == NOT_CERTIFIED and not cor.refuted
    assert thm.status == HOLDS
    for w in cor.witnesses:
        replay_aubin_witness(spec, w, "corollary")


def test_aubin_theorem_mode_requires_evidence():
    spec = zero_jacobian_variational_spec()
    assert check_foscms_joint(spec).status == NOT_CERTIFIED
    with pytest.raises(ValueError):
        check_aubin(spec, "theorem")  # joint FOSCMS fails and no assertion given


def test_ex3_frozen_directional_regularity_holds():
    spec = ex3_spec()
    cert = check_directional_metric_regularity(spec, QVector([1, 0]), QVector([0, 0, 0, 0]))
    assert cert.status == HOLDS


def test_vacuous_directional_regularity():
    spec = ex4_spec()
    # Jx u - v = (5, 0) leaves the tangent cone of D = R^2_-
    cert = check_directional_metric_regularity(spec, QVector([0, 0]), QVector([-5, 0]))
    assert cert.status == HOLDS
    assert any("not tangent" in n for n in cert.notes)


def test_smooth_invertible_variational_system():
    spec = VariationalSystemSpec(
        l=1, n=2,
        Jp=[[1], [0]],
        Jx=[[1, 0], [0, 1]],
        gamma=Polyhedron(2),
        xbar=[0, 0], ybarstar=[0, 0],
    )
    assert check_aubin(spec, "corollary").status == HOLDS
    assert check_aubin(spec, "theorem").status == HOLDS
    assert check_foscms_joint(spec).status == HOLDS


def test_foscms_vacuous_when_jx_surjective():
    spec = ConstraintSystemSpec(
        l=1, n=2, m=2, Jp=[[0], [0]], Jx=[[1, 0], [0, 1]], g0=[0, 0],
        D=UnionSet([Polyhedron(2, A=[[1, 0], [0, 1]], b=[0, 0])]),
    )
    assert check_foscms(spec).status == HOLDS


def test_whole_space_d_trivially_calm():
    spec = ConstraintSystemSpec(
        l=1, n=2, m=2, Jp=[[1], [0]], Jx=[[1, 0], [0, 1]], g0=[0, 0],
        D=UnionSet([Polyhedron(2)]),
    )
    cert = check_calmness_constraint(spec, "first")
    assert cert.status == HOLDS and cert.rate("linear_solvability")


def test_soscms_zero_hessians_inherit_foscms_witness():
    spec = ConstraintSystemSpec(
        l=1, n=2, m=2,
        Jp=[[1], [1]], Jx=[[0, 1], [0, -1]], g0=[0, 0],
        D=UnionSet([Polyhedron(2, A=[[1, 0], [0, 1]], b=[0, 0])]),
        hessians=[QMatrix.zero(2, 2), QMatrix.zero(2, 2)],
    )
    first = check_foscms(spec)
    second = check_soscms(spec)
    assert first.status == NOT_CERTIFIED and second.status == NOT_CERTIFIED
    for w in second.witnesses:
        replay_soscms_witness(spec, w)


# -- metamorphic laws over a randomized corpus -----------------------------------


def random_constraint_specs(count=8):
    r = rng(71)
    specs = []
    while len(specs) < count:
        m = r.choice([2, 3])
        n = 2
        l = r.choice([1, 2])
        d = random_union(r, m)
        g0 = QVector.zero(m)
        if not d.contains(g0):
            continue
        specs.append(
            ConstraintSystemSpec(
                l=l, n=n, m=m,
                Jp=random_matrix(r, m, l),
                Jx=random_matrix(r, m, n),
                g0=g0,
                D=d,
                hessians=[random_symmetric(r, n) for _ in range(m)],
            )
        )
    return specs


def random_variational_specs(count=6):
    r = rng(73)
    specs = []
    while len(specs) < count:
        n = 2
        l = r.choice([1, 2])
        gamma = random_gamma(r, n)
        x0 = QVector.zero(n)
        if not gamma.contains(x0):
            continue
        nc = gamma.normal_cone(x0)
        ystar = QVector.zero(n)
        for g in nc.generators():
            ystar = ystar + g.scale(r.choice([0, 1]))
        specs.append(
            VariationalSystemSpec(
                l=l, n=n,
                Jp=random_matrix(r, n, l),
                Jx=random_matrix(r, n, n),
                gamma=gamma, xbar=x0, ybarstar=ystar,
            )
        )
    return specs


def test_ex3_soscms_holds_with_its_hessians():
    assert check_soscms(ex3_spec()).status == HOLDS


def test_foscms_joint_reduces_to_frozen_when_jp_vanishes():
    base = ex4_spec()
    frozen = ConstraintSystemSpec(
        l=1, n=2, m=2, Jp=[[0], [0]], Jx=base.Jx, g0=base.g0, D=base.D,
        hessians=base.hessians,
    )
    assert check_foscms_joint(frozen).status == check_foscms(frozen).status == NOT_CERTIFIED
    surjective = ConstraintSystemSpec(
        l=1, n=2, m=2, Jp=[[0], [0]], Jx=[[1, 0], [0, 1]], g0=base.g0, D=base.D,
    )
    assert check_foscms_joint(surjective).status == check_foscms(surjective).status == HOLDS


def test_metamorphic_foscms_implies_soscms():
    for spec in [ex3_spec(), ex4_spec()] + random_constraint_specs():
        first = check_foscms(spec)
        second = check_soscms(spec)
        if first.status == HOLDS:
            assert second.status == HOLDS
        if first.status == NOT_CERTIFIED:
            for w in first.witnesses:
                replay_foscms_witness(spec, w)
        if second.status == NOT_CERTIFIED:
            for w in second.witnesses:
                replay_soscms_witness(spec, w)


@pytest.mark.parametrize("mode", ("corollary", "theorem"))
def test_phase_b_and_the_joint_check_read_one_record_per_stratum(mode):
    # a Phase B case is one stratum: its inclusions share the stratum's
    # piece, adjoint cone and outcome, and are its nontrivial (q, u) cells
    # in index order; the joint check has one record per inclusion, in order
    shared = ("coderivative_piece", "adjoint_cone", "trivial", "outcome")
    specs = [ex3_spec(), ex5_spec()] + random_constraint_specs() + random_variational_specs()
    seen = set()
    for spec in specs:
        aubin = check_aubin(spec, mode, assume_subregular=True)
        joint_labels = [r["adjoint_stratum"] for r in check_foscms_joint(spec).trace]
        phase_b = [r for r in aubin.trace if r.get("phase", "").startswith("B")]
        if not phase_b:
            assert aubin.refuted
            continue
        labels = []
        for case in phase_b[0]["cases"]:
            inclusions = case["adjoint_inclusions"]
            assert inclusions
            assert all({k: e[k] for k in shared} == {k: inclusions[0][k] for k in shared} for e in inclusions)
            prefix = case["case"] + " / cell "
            assert all(e["adjoint_stratum"].startswith(prefix) for e in inclusions)
            cells = [int(e["adjoint_stratum"][len(prefix):]) for e in inclusions]
            assert cells == sorted(set(cells))
            labels += [e["adjoint_stratum"] for e in inclusions]
            seen.add((spec.kind, len(inclusions) > 1, inclusions[0]["outcome"]))
        assert joint_labels == labels
        assert [w.stratum for w in aubin.witnesses] == [
            e["adjoint_stratum"] for c in phase_b[0]["cases"] for e in c["adjoint_inclusions"] if e["outcome"] == "violated"
        ]
    # both kinds, strata of several cells, and both outcomes are exercised
    assert {kind for kind, _, _ in seen} == {"constraint", "variational"}
    assert any(many for _, many, _ in seen)
    assert {outcome for _, _, outcome in seen} == {"ok", "violated"}


def test_metamorphic_aubin_corollary_implies_theorem():
    for spec in [ex5_spec()] + random_variational_specs() + random_constraint_specs(4):
        cor = check_aubin(spec, "corollary")
        if cor.status == HOLDS:
            thm = check_aubin(spec, "theorem")
            assert thm.status == HOLDS
        else:
            for w in cor.witnesses:
                replay_aubin_witness(spec, w, "corollary")


# -- the scaled families of families.py at their tier-1 sizes, every witness replayed


@pytest.mark.parametrize("k", FAMILIES["admissible"].tier1)
def test_admissible_complementarity_verdicts_match_their_derivation(k):
    spec, first, second, aubin, joint = FAMILIES["admissible"].check(k)
    for w in first.witnesses:
        replay_foscms_witness(spec, w)
    for w in second.witnesses:
        replay_soscms_witness(spec, w)
    for w in aubin.witnesses + joint.witnesses:
        replay_aubin_witness(spec, w, "corollary")
    assert all(spec.Jp.T.matvec(w.vstar).is_zero() for w in joint.witnesses)


@pytest.mark.parametrize("k", FAMILIES["one-pair"].tier1)
def test_admissible_complementarity_in_one_pair_reaches_both_quadratic_outcomes(k):
    spec, second = FAMILIES["one-pair"].check(k)
    for w in second.witnesses:
        replay_soscms_witness(spec, w)


@pytest.mark.parametrize("r", FAMILIES["polygon-cone"].tier1)
def test_polygon_cone_holds_at_second_order_over_independent_supports(r):
    spec, first, second = FAMILIES["polygon-cone"].check(r)
    for w in first.witnesses:
        replay_foscms_witness(spec, w)
    assert second.holds() and not second.witnesses


@pytest.mark.parametrize("k", FAMILIES["dir-reg"].tier1)
def test_admissible_complementarity_along_e1_walks_only_its_cells(k):
    spec, cert = FAMILIES["dir-reg"].check(k)
    for w in cert.witnesses:  # v = 0, so w = Jx u
        replay_foscms_witness(spec, w)


@pytest.mark.parametrize("n", FAMILIES["free-kernel"].tier1)
def test_free_kernel_holds_at_second_order_with_no_support_tried(n):
    spec, first, second = FAMILIES["free-kernel"].check(n)
    for w in first.witnesses:
        replay_foscms_witness(spec, w)


@pytest.mark.parametrize("n", FAMILIES["singular-orthant"].tier1)
def test_singular_orthant_fails_phase_b_without_refutation(n):
    spec, aubin, joint = FAMILIES["singular-orthant"].check(n)
    for w in aubin.witnesses + joint.witnesses:
        replay_aubin_witness(spec, w, "corollary")
    assert all(spec.Jp.T.matvec(w.vstar).is_zero() for w in joint.witnesses)


@pytest.mark.parametrize("check, passes", ((check_aubin, 435), (check_foscms_joint, 500)))
def test_adjoint_strata_convert_no_first_order_cell(monkeypatch, check, passes):
    # Phase B and the joint check read each stratum's kernel meet and (q, u)
    # cells, never its u-cells {u : Jx u ∈ C}, so on their own they pull
    # no cell back through Jx alone (that would be 3^4 = 81 more passes)
    calls = []
    real = certify._x_pullback
    monkeypatch.setattr(certify, "_x_pullback", lambda spec, cone: calls.append(cone) or real(spec, cone))
    spec = admissible_complementarity(4)
    with counting_dd() as dd:
        check(spec)
    assert calls == []
    assert len(dd) == passes


# -- the closed-form strata of gph N_Γ against the generic strata of its union -------


def lifted_constraint_spec(spec):
    """The variational system as a constraint system on D = gph N_Γ:
    g(p, x) = (x, -f(p, x)), so Jp = [0; -Jp], Jx = [I; -Jx] and
    g0 = (xbar, ybarstar)."""
    n, l = spec.n, spec.l
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    return ConstraintSystemSpec(
        l=l, n=n, m=2 * n,
        Jp=[[0] * l for _ in range(n)] + [[-x for x in row.entries] for row in spec.Jp.rows],
        Jx=eye + [[-x for x in row.entries] for row in spec.Jx.rows],
        g0=QVector(spec.xbar.entries + spec.ybarstar.entries),
        D=graph_union(spec.gamma),
    )


def test_graph_strata_agree_with_the_generic_strata_of_the_lift():
    # The face-pair strata of gph N_Γ against the direction strata of the
    # explicit union.  Jx entries in [-1, 1] make singular Jx common, so the
    # draws include Phase B failures as well as Phase A refutations.
    r = rng(87)
    outcomes = set()
    for _ in range(48):
        n, l = r.choice([1, 2]), r.choice([1, 2])
        gamma = random_gamma(r, n)
        xbar, ystar = random_graph_point(r, gamma)
        spec = VariationalSystemSpec(
            l=l, n=n, Jp=random_matrix(r, n, l), Jx=random_matrix(r, n, n, -1, 1),
            gamma=gamma, xbar=xbar, ybarstar=ystar,
        )
        lift = lifted_constraint_spec(spec)
        cor, lifted = check_aubin(spec), check_aubin(lift)
        assert (cor.status, cor.refuted) == (lifted.status, lifted.refuted)
        joint = check_foscms_joint(spec)
        assert joint.status == check_foscms_joint(lift).status
        if joint.holds():
            assert check_aubin(spec, "theorem").status == check_aubin(lift, "theorem").status
        outcomes.add((cor.status, cor.refuted))
    assert outcomes == {(HOLDS, False), (NOT_CERTIFIED, True), (NOT_CERTIFIED, False)}


def degenerate_spec(shape):
    """A variational spec at xbar = ybarstar = 0 of a degenerate shape."""
    eye, zero = [[1, 0], [0, 1]], [[0, 0], [0, 0]]
    l, n, jx, gamma = {
        "l = 0, orthant": (0, 2, eye, Polyhedron(2, A=[[-1, 0], [0, -1]], b=[0, 0])),
        "plane": (1, 2, eye, Polyhedron(2)),
        "point": (1, 2, eye, Polyhedron(2, E=eye, e=[0, 0])),
        "line, Jx = 0": (1, 2, zero, Polyhedron(2, E=[[0, 1]], e=[0])),
        "n = 0": (1, 0, [], Polyhedron(0)),
    }[shape]
    jp = [[-int(i == 0)] * l for i in range(n)]
    return VariationalSystemSpec(l=l, n=n, Jp=jp, Jx=jx, gamma=gamma, xbar=[0] * n, ybarstar=[0] * n)


@pytest.mark.parametrize("shape", ("l = 0, orthant", "plane", "point", "line, Jx = 0", "n = 0"))
def test_degenerate_graph_strata_agree_with_the_lift(shape):
    # K = R^2_+ with no parameter, K all lineality (Γ = R^2), K = {0} (Γ a
    # point), K a line that Jx = 0 cannot move, and n = 0: the closed-form
    # strata give the lift's verdicts, and the solution set at q = 0 is one
    # polyhedron, whose cells are the row-built ones
    spec = degenerate_spec(shape)
    lift = lifted_constraint_spec(spec)
    cor, lifted = check_aubin(spec), check_aubin(lift)
    assert (cor.status, cor.refuted) == (lifted.status, lifted.refuted)
    assert cor.holds() == (shape != "line, Jx = 0")
    assert check_foscms_joint(spec).status == check_foscms_joint(lift).status
    assert len(graphical_derivative_S(spec, QVector.zero(spec.l))) == 1
    assert_graph_cells_are_row_built(spec)


@pytest.mark.parametrize("n", FAMILIES["orthant"].tier1)
def test_orthant_strata_are_face_pairs(n):
    FAMILIES["orthant"].check(n)


@pytest.mark.parametrize("n", FAMILIES["cross-polytope"].tier1)
def test_cross_polytope_strata_are_the_face_pairs_with_a_cell(n):
    FAMILIES["cross-polytope"].check(n)


def test_zero_direction_face_pairs_make_no_ints_call(monkeypatch):
    # the zero graph direction is the integer tuple (0,) * n, so neither
    # the limiting normal cone nor the certifier's strata of the graph turn
    # a direction into integers
    from polyvar import graphmap

    spec = orthant_spec(3)
    gp = spec.graph_point()
    calls = []
    for module in (certify, graphmap):
        real = module._ints
        monkeypatch.setattr(module, "_ints", lambda v, real=real: calls.append(v) or real(v))
    assert len(limiting_normal_graph(gp).pieces) == 3 ** 3
    assert len(certify._adjoint_strata(spec)) == 2 * 3 ** 2
    assert calls == []


def test_orthant_checks_hash_no_fraction(monkeypatch):
    # cones are identified by their integer rows, so no memo or dedup
    # lookup of the certifiers hashes a Fraction
    spec = orthant_spec(4)
    hashed = []
    real = F.__hash__

    def counted(self):
        hashed.append(self)
        return real(self)

    monkeypatch.setattr(F, "__hash__", counted)
    assert check_aubin(spec).holds()
    assert check_aubin(spec, "theorem").holds()
    assert check_foscms_joint(spec).holds()
    monkeypatch.undo()
    assert hashed == []


def row_built_graph_cell(spec, f2_active, f1_active):
    """The (q, u) cell of the face pair converted from its own rows: K's
    rows with F2's active rows as equations, and K° ∩ F1^⊥ (<= 0 on K's
    rays, = 0 on its lineality and on F1's rays) pulled back."""
    wt, pad, k = certify._w_map_T(spec), (0,) * spec.l, spec.graph_point().critical
    (ineqs, eqs), (rays, lin) = k._h, k._v
    f1_rays = [r for r in rays if all(certify._dot(ineqs[i], r) == 0 for i in f1_active)]
    rows_i = [pad + a for i, a in enumerate(ineqs) if i not in f2_active] + [certify._apply(wt, r) for r in rays]
    rows_e = [pad + e for e in (*eqs, *(ineqs[i] for i in sorted(f2_active)))]
    rows_e += [certify._apply(wt, e) for e in (*lin, *f1_rays)]
    return certify._of_rows(spec.l + spec.n, rows_i, rows_e)


def assert_graph_cells_are_row_built(spec):
    zero = (0,) * spec.n
    for f1, f2 in face_pairs(spec.graph_point(), zero, zero):
        cell = certify._graph_cell(spec, f2.active_set, f1.active_set)
        ref = row_built_graph_cell(spec, f2.active_set, f1.active_set)
        assert (cell.key(), cell._h, cell._v) == (ref.key(), ref._h, ref._v)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 10**6))
def test_graph_cells_are_faces_of_the_graph_cone_hypothesis(seed):
    # every cell (F2, F1) at (0, 0) is the face of the one pulled-back cone
    # G that the sum of its rows exposes, equal to the cell built from rows
    assert_graph_cells_are_row_built(random_spec(rng(seed), "variational"))


@pytest.mark.parametrize("make, passes", ((2, 13), (3, 29), (4, 73), (ex5_spec, 11)))
def test_aubin_graph_passes(make, passes):
    # one conversion for G and none per graph cell, one projection per
    # solution piece, the cover test's cells and one adjoint cone per
    # difference cone with a cell; an int n is the orthant family, in
    # 2 * 3^(n-1) + 2^n + 3 passes.  Phase A searches depth first, stops at
    # its first gap and skips a repeated projection: ex5 projects onto the
    # rays -1, -1, -1 and +1 of R^1, so two of its cell tests go (13 passes
    # when every cell was kept)
    spec = orthant_spec(make) if isinstance(make, int) else make()
    with counting_dd() as calls:
        check_aubin(spec)
    assert len(calls) == passes


@pytest.mark.parametrize("make", (4, ex5_spec))
def test_graph_cells_make_no_conversion_once_the_graph_cone_is_built(make):
    spec = orthant_spec(make) if isinstance(make, int) else make()
    zero = (0,) * spec.n
    pairs = [(f2.active_set, f1.active_set) for f1, f2 in face_pairs(spec.graph_point(), zero, zero)]
    certify._graph_cone(spec)
    with counting_dd() as calls:
        for pair in pairs:
            certify._graph_cell(spec, *pair)
    assert calls == []


def test_certificates_invariant_under_row_rescaling():
    base = ex3_spec()
    p1, p2 = base.D.pieces
    scaled_p1 = Polyhedron(
        4,
        [a.scale(3) for a in p1.A],
        [3 * bv for bv in p1.b],
        [g.scale(5) for g in p1.E],
        [5 * ev for ev in p1.e],
    )
    scaled = ConstraintSystemSpec(
        l=2, n=2, m=4, Jp=base.Jp, Jx=base.Jx, g0=base.g0,
        D=UnionSet([scaled_p1, p2]), hessians=base.hessians,
    )
    for check in (check_foscms, lambda s: check_aubin(s, "corollary")):
        assert check(base).status == check(scaled).status


def test_witness_rescaling_preserves_validity():
    spec = ex4_spec()
    cert = check_foscms(spec)
    w = cert.witnesses[0]
    from polyvar.certify import Witness

    scaled = Witness(w.stratum, w.vstar.scale(7), u=w.u.scale(3), q=None)
    replay_foscms_witness(spec, scaled)


# -- projection and coverage helpers ----------------------------------------------


def lifts_into(cone, y):
    """Is y the image of a point of the cone under the projection onto the
    first len(y) coordinates?  Homogenized fiber: z in the cone with
    z[:keep] = t y and t > 0."""
    dim, keep = cone.dim, y.dim
    pad = lambda v: v + (0,)
    fiber = [_ints([int(j == i) for j in range(dim)] + [-y[i]]) for i in range(keep)]
    t_positive = [(0,) * dim + (-1,)]
    ineqs, eqs = cone._h
    return open_cell(dim + 1, [pad(a) for a in ineqs], [pad(e) for e in eqs] + fiber, t_positive) is not None


def test_fm_project_matches_generator_projection():
    # fm_project(C, keep) is the image of C: every generator of C projects
    # into it, and every generator of it lifts into C
    r = rng(91)
    for i in range(48):
        dim = r.choice([2, 3, 4])
        keep = r.randint(1, dim)
        shape = i % 4
        if shape == 0:  # inequalities and at most one equation
            rows = [[r.randint(-2, 2) for _ in range(dim)] for _ in range(r.randint(1, 4))]
            eqs = [[r.randint(-1, 1) for _ in range(dim)] for _ in range(r.randint(0, 1))]
            cone = PolyCone.from_ineqs(dim, [q for q in rows if any(q)], [q for q in eqs if any(q)])
        elif shape == 1:  # rays plus a lineality space
            rays = [[r.randint(-2, 2) for _ in range(dim)] for _ in range(r.randint(0, 3))]
            lin = [[r.randint(-1, 1) for _ in range(dim)] for _ in range(r.randint(1, 2))]
            cone = PolyCone.from_generators(dim, [q for q in rays if any(q)], [q for q in lin if any(q)])
        elif shape == 2:  # equations only: a subspace
            eqs = [[r.randint(-2, 2) for _ in range(dim)] for _ in range(r.randint(1, dim))]
            cone = PolyCone.from_ineqs(dim, [], [q for q in eqs if any(q)])
        else:  # fewer rays than the dimension: a lower-dimensional cone
            rays = [[r.randint(-2, 2) for _ in range(dim)] for _ in range(r.randint(1, dim - 1))]
            cone = PolyCone.from_generators(dim, [q for q in rays if any(q)])
        proj = fm_project(cone, keep)
        assert proj.dim == keep
        for g in cone.generators():
            assert proj.contains(QVector(g.entries[:keep]))
        for g in proj.generators():
            assert lifts_into(cone, g)
        if keep == dim:
            assert proj == cone


def test_covers_space():
    plus = PolyCone.from_ineqs(2, [[-1, 0], [0, -1]])
    minus = PolyCone.from_ineqs(2, [[1, 0], [0, 1]])
    upper = PolyCone.from_ineqs(2, [[0, -1]])
    lower = PolyCone.from_ineqs(2, [[0, 1]])
    ok, wit = covers_space([upper, lower], 2)
    assert ok and wit is None
    ok, wit = covers_space([plus, minus], 2)
    assert not ok and wit is not None
    assert not plus.contains(wit) and not minus.contains(wit)


@st.composite
def cone_unions(draw):
    """(dim, pieces): one to four cones in R^1-R^3 from small integer rows
    (zero rows included, and up to two equations, so lower-dimensional
    cones too); half the time the closed complements of the first piece's
    rows are added, so the union covers the space; then up to three pieces
    are repeated at drawn places, as the same cone or rebuilt from its
    rows."""
    dim = draw(st.integers(1, 3))
    row = st.lists(st.integers(-2, 2), min_size=dim, max_size=dim)
    pieces = [
        PolyCone.from_ineqs(dim, draw(st.lists(row, min_size=1, max_size=3)), draw(st.lists(row, max_size=2)))
        for _ in range(draw(st.integers(1, 4)))
    ]
    if draw(st.booleans()):
        ineqs, eqs = pieces[0]._h
        pieces += [PolyCone.from_ineqs(dim, [[-x for x in a]]) for a in ineqs]
        pieces += [PolyCone.from_ineqs(dim, [r]) for e in eqs for r in (e, [-x for x in e])]
    for i in draw(st.lists(st.integers(0, len(pieces) - 1), max_size=3)):
        c = pieces[i] if draw(st.booleans()) else PolyCone.from_ineqs(dim, pieces[i].ineqs, pieces[i].eqs)
        pieces.insert(draw(st.integers(0, len(pieces))), c)
    return dim, pieces


@settings(max_examples=150, deadline=None)
@given(cone_unions())
def test_covers_space_hypothesis(union):
    dim, pieces = union
    covered, gap = covers_space(pieces, dim)
    if covered:
        assert gap is None
        for z in product(range(-2, 3), repeat=dim):
            assert any(p.contains(QVector(z)) for p in pieces)
    else:
        assert all(x.denominator == 1 for x in gap) and gcd(*(int(x) for x in gap)) == 1
        assert not any(p.contains(gap) for p in pieces)


def breadth_first_covers_space(pieces, dim, tested):
    """``covers_space`` by the search it replaced: every nonempty cell of
    the split by each piece in turn is kept, repeated pieces included, and
    the gap is read off the first cell left after the last piece.  Every
    cell it tests with ``open_cell`` is appended to ``tested``."""
    regions = [(((), (), ()), ())]
    for piece in pieces:
        ineqs, eqs = piece._h
        new_regions = []
        for (leq, eq, strict), _ in regions:
            cells = [(leq + ineqs[:k], eq, strict + (_neg(a),)) for k, a in enumerate(ineqs)]
            for k, e in enumerate(eqs):
                held = (leq + ineqs, eq + eqs[:k])
                cells += [(*held, strict + (e,)), (*held, strict + (_neg(e),))]
            for cell in cells:
                tested.append(cell)
                closure = open_cell(dim, *cell)
                if closure is not None:
                    new_regions.append((cell, closure._v[0]))
        regions = new_regions
        if not regions:
            return True, None
    rays = regions[0][1]
    return False, QVector(_reduce([sum(x) for x in zip(*rays)])) if rays else QVector.zero(dim)


def converted_cells(passes):
    """The cells ``covers_space`` converted, one ``_dd_steps`` pass each, as
    (<= rows, equations, strict rows), each a set.  A pass continues its
    parent's rows ``done`` by the cell's own ``new``: its <= rows, each
    equation e as e and -e, and last its strict row (as a closure row)."""
    cells = {(): (frozenset(), frozenset(), frozenset())}
    for _, _, _, _, done, new, _ in passes:
        leq, eq, strict = cells[tuple(done)]
        *held, last = new
        pairs = [r for r in held if _neg(r) in held]
        own = (leq | {r for r in held if r not in pairs}, eq | set(pairs[::2]), strict | {last})
        cells[(*done, *new)] = own
        yield own


@settings(max_examples=150, deadline=None)
@given(cone_unions())
def test_covers_space_is_the_breadth_first_search_hypothesis(union):
    # the breadth-first list keeps split order, so its first cell after the
    # last piece is the depth-first search's first leaf; a cell outside a
    # piece is its only nonempty cell when split by it again.  When the
    # union covers the space, both test the same cells of distinct pieces
    dim, pieces = union
    for p in pieces:
        p._h  # the pieces' rows, read before the passes are counted
    with counting_dd() as passes:
        got = covers_space(pieces, dim)
    reference = []
    assert got == breadth_first_covers_space(pieces, dim, reference)
    assert len(passes) <= len(reference)
    if got[0] and len(set(pieces)) == len(pieces):
        as_sets = [tuple(frozenset(rows) for rows in (leq, eq, strict)) for leq, eq, strict in reference]
        assert Counter(converted_cells(passes)) == Counter(as_sets)


# Phase A's gap at k = l = 4, the breadth-first search's answer (the
# Jacobians are seeded, so it is pinned, not derived)
PHASE_A_GAPS = {4: QVector([-415274, -1061177, -595114, 104801])}


@pytest.mark.parametrize("k", FAMILIES["phase-a"].tier1)
def test_phase_a_refutes_parametric_complementarity(k):
    gap = FAMILIES["phase-a"].check(k)
    cert = check_aubin(parametric_complementarity(k, k))
    assert cert.status == NOT_CERTIFIED and cert.refuted
    assert [w.q for w in cert.witnesses] == [gap] == [PHASE_A_GAPS[k]]


@pytest.mark.parametrize("n", FAMILIES["refuted-orthant"].tier1)
def test_phase_a_refutes_the_orthant_with_jx_zero(n):
    # the solution piece of a face of K = R^n_+ that holds e1 projects to
    # {0}, and of one that does not, to R_-
    projected = FAMILIES["refuted-orthant"].check(n)
    e1 = QVector([1] + [0] * (n - 1))
    zero, minus = PolyCone.from_ineqs(1, [], [[1]]), PolyCone.from_ineqs(1, [[1]])
    for face, p in zip(refuted_orthant(n).graph_point().critical.faces(), projected, strict=True):
        assert p == (zero if face.cone.contains(e1) else minus)


def test_directions_of_the_wrong_dimension_are_rejected():
    # the integer rows would silently truncate a longer vector
    with pytest.raises(ValueError, match="dimension mismatch"):
        graphical_derivative_S(ex5_spec(), QVector([1, 0]))
    with pytest.raises(ValueError, match="dimension mismatch"):
        check_second_order_directional_subregularity(ex4_spec(), QVector([1, 0]), QVector([-1, -1, -1]))


def rational_directional_adjoints(spec, u, v):
    """The directional adjoints with w = Jx u - v computed in rationals, as
    the certifier computed it before its integer form."""
    if spec.kind == "constraint":
        w = spec.Jx.matvec(u) - v
        if not union_tangent_cone(spec.D, spec.g0).contains(w):
            return None
        return tuple((p, certify._kernel_meet(spec, p)) for p in directional_normal_cone(spec.D, spec.g0, w).pieces)
    gp = spec.graph_point()
    w = v - spec.Jx.matvec(u)
    k = gp.critical
    if not (k.contains(u) and k.polar().contains(w) and u.dot(w) == 0):
        return None
    return tuple((p.k, _variational_adjoint_cone(spec, p.k)) for p in directional_limiting_normal_graph(gp, u, w).pieces)


def random_spec(r, kind):
    """A constraint spec on a corpus union (of cones at 0, or of polyhedra
    around a grid point g0) or a variational spec on a corpus polyhedron at
    a corpus graph point, with Jacobians that are often fractional."""

    def jacobian(nrows, ncols):
        den = r.choice([1, 1, 2, 3])
        return QMatrix([[F(r.randint(-2, 2), den) for _ in range(ncols)] for _ in range(nrows)])

    l, n = r.choice([1, 2]), r.choice([2, 2, 3])
    if kind == "constraint":
        m = r.choice([2, 3])
        d, g0 = random_affine_union(r, m) if r.random() < 0.5 else (random_union(r, m), QVector.zero(m))
        return ConstraintSystemSpec(l=l, n=n, m=m, Jp=jacobian(m, l), Jx=jacobian(m, n), g0=g0, D=d)
    gamma = random_gamma(r, n)
    xbar, ystar = random_graph_point(r, gamma)
    return VariationalSystemSpec(l=l, n=n, Jp=jacobian(n, l), Jx=jacobian(n, n), gamma=gamma, xbar=xbar, ybarstar=ystar)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 10**6),
    st.sampled_from(["constraint", "variational"]),
    st.sampled_from(["zero", "tangent", "other", "long u", "short u", "long v", "short v"]),
)
def test_directional_adjoints_match_the_rational_direction_hypothesis(seed, kind, direction):
    # w = Jx u - v is computed in integers, as a positive multiple; the
    # pieces and adjoint cones, the tangency verdict and the errors for a
    # direction of the wrong length are those of the rational w
    r = rng(seed)
    spec = random_spec(r, kind)
    m = spec.Jx.nrows

    def rational(dim):
        return QVector([F(r.randint(-2, 2), r.choice([1, 2, 3])) for _ in range(dim)])

    u, v = rational(spec.n), rational(m)
    if direction == "zero":
        u, v = QVector.zero(spec.n), QVector.zero(m)
    elif direction == "tangent" and kind == "constraint":
        t = random_member(r, r.choice(union_tangent_cone(spec.D, spec.g0).pieces))
        v = spec.Jx.matvec(u) - t
    elif direction == "tangent":
        u, w = random_tangent_pair(r, spec.graph_point().critical)
        v = w + spec.Jx.matvec(u)
    elif direction != "other":
        grow = 1 if direction.startswith("long") else -1
        if direction.endswith("u"):
            u = rational(spec.n + grow)
        else:
            v = rational(m + grow)
        with pytest.raises(ValueError) as want:
            rational_directional_adjoints(spec, u, v)
        with pytest.raises(ValueError) as got:
            certify._directional_adjoints(spec, u, v)
        assert str(got.value) == str(want.value)
        return
    want = rational_directional_adjoints(spec, u, v)
    assert certify._directional_adjoints(spec, u, v) == want
    assert want is not None or direction == "other"


def test_directions_of_the_wrong_length_raise_the_rational_errors():
    # the integer dot product stops at the shorter vector, so the lengths
    # are checked first, with the messages of the rational Jx u - v
    for spec, m in ((ex4_spec(), 2), (ex5_spec(), 2)):
        for check in (
            lambda u: check_directional_metric_regularity(spec, u, QVector.zero(m)),
            lambda u: check_second_order_directional_subregularity(spec, u, QVector([-1] * m)),
            lambda u: check_second_order_directional_subregularity(spec, u),
        ):
            for u in (QVector([1, 0, 0]), QVector([1]), QVector([0, 0, 0]), QVector([0])):
                with pytest.raises(ValueError, match="^matvec dimension mismatch$"):
                    check(u)
    with pytest.raises(ValueError, match="^dimension mismatch: 2 vs 3$"):  # Jx u - v
        check_directional_metric_regularity(ex4_spec(), QVector([1, 0]), QVector([0, 0, 0]))
    with pytest.raises(ValueError, match="^dimension mismatch: 3 vs 2$"):  # v - Jx u
        check_directional_metric_regularity(ex5_spec(), QVector([1, 0]), QVector([0, 0, 0]))


def test_constraint_checks_reject_variational_specs():
    spec = ex5_spec()
    for check in (check_foscms, check_soscms, lambda s: check_calmness_constraint(s, "second")):
        with pytest.raises(TypeError, match="expects a constraint system"):
            check(spec)


def test_precondition_failures_raise_precondition_error():
    # the CLI maps exactly these (and validation errors) to exit 3
    with pytest.raises(PreconditionError):
        check_soscms(ex4_spec(hessians=False))
    with pytest.raises(PreconditionError):
        check_calmness_constraint(ex4_spec(), "third")
    with pytest.raises(PreconditionError):
        check_aubin(ex5_spec(), "lemma")
    with pytest.raises(PreconditionError):
        check_aubin(zero_jacobian_variational_spec(), "theorem")
    with pytest.raises(PreconditionError):
        check_second_order_directional_subregularity(ex4_spec(), QVector([0, 0]))
    with pytest.raises(PreconditionError):
        check_second_order_directional_subregularity(ex5_spec(), QVector([1, 0]))  # no gpp


# -- integer pullbacks against the rational definitions ---------------------------


def _rational(spec):
    """The spec with row i of each Jacobian divided by i + 2."""
    def div(m):
        return QMatrix([row.scale(F(1, i + 2)) for i, row in enumerate(m.rows)])

    if spec.kind == "constraint":
        return ConstraintSystemSpec(
            l=spec.l, n=spec.n, m=spec.m, Jp=div(spec.Jp), Jx=div(spec.Jx), g0=spec.g0, D=spec.D,
        )
    return VariationalSystemSpec(
        l=spec.l, n=spec.n, Jp=div(spec.Jp), Jx=div(spec.Jx),
        gamma=spec.gamma, xbar=spec.xbar, ybarstar=spec.ybarstar,
    )


def _rational_pullback(cone, mat, dim):
    mt = mat.T
    return PolyCone.from_ineqs(dim, [mt.matvec(a) for a in cone.ineqs], [mt.matvec(e) for e in cone.eqs])


def _w_map(spec, sign):
    return QMatrix([[sign * x for x in p.entries + x_.entries] for p, x_ in zip(spec.Jp.rows, spec.Jx.rows)])


def test_integer_pullbacks_match_rational_rows():
    # The certifiers pull cones back through the Jacobians in integer rows
    # scaled by a positive integer; the cones must be the ones that the
    # rational rows of the definitions give.
    for spec in [ex3_spec(), ex4_spec()] + random_constraint_specs():
        spec = _rational(spec)
        dim = spec.l + spec.n
        tangent = union_tangent_cone(spec.D, spec.g0).pieces
        w_map = _w_map(spec, 1)
        assert _solution_pieces(spec) == tuple(_rational_pullback(t, w_map, dim) for t in tangent)
        ker = PolyCone.from_ineqs(spec.m, [], [spec.Jx.col(j) for j in range(spec.n)])
        for s in certify._strata(spec, (0,) * spec.m):
            assert certify._kernel_meet(spec, s.normal) == ker.intersect(s.normal)
            for qc in s.reach:
                assert certify._x_pullback(spec, qc) == _rational_pullback(qc, spec.Jx, spec.n)
    for spec in [ex5_spec()] + random_variational_specs():
        spec = _rational(spec)
        k = spec.graph_point().critical
        wt = _w_map(spec, -1).T
        pad = [0] * spec.l
        for f, piece in zip(k.faces(), _solution_pieces(spec)):
            rows_i = [QVector(pad + list(a.entries)) for a in f.cone.ineqs]
            rows_i += [wt.matvec(a) for a in k.polar().ineqs]
            rows_e = [QVector(pad + list(e.entries)) for e in f.cone.eqs]
            rows_e += [wt.matvec(e) for e in k.polar().eqs]
            rows_e += [wt.matvec(g) for g in row_space_basis(list(f.cone.rays) + list(f.cone.lin), spec.n)]
            assert piece == PolyCone.from_ineqs(spec.l + spec.n, rows_i, rows_e)
        for p in limiting_normal_graph(spec.graph_point()).pieces:
            kd, kdp = p.k, p.k.polar()
            rows_i = [-spec.Jx.matvec(a) for a in kdp.ineqs] + [-b for b in kd.ineqs]
            rows_e = [spec.Jx.matvec(e) for e in kdp.eqs] + list(kd.eqs)
            assert _variational_adjoint_cone(spec, kd) == PolyCone.from_ineqs(spec.n, rows_i, rows_e)


def test_zero_direction_adjoints_match_the_limiting_construction():
    # The standard adjoint inclusion is the directional one at (0, 0); it must
    # equal the limiting construction: every stratum normal of D met with
    # ker Jx^T, or every limiting graph piece with its adjoint cone.
    for spec in [ex3_spec()] + random_constraint_specs():
        ker = PolyCone.from_ineqs(spec.m, [], [spec.Jx.col(j) for j in range(spec.n)])
        normals = ConeUnion(spec.m, [s.normal for s in direction_strata(spec.D, spec.g0)])
        want = tuple((p, ker.intersect(p)) for p in normals.pieces)
        assert certify._directional_adjoints(spec, QVector.zero(spec.n), QVector.zero(spec.m)) == want
    for spec in [ex5_spec()] + random_variational_specs():
        pieces = limiting_normal_graph(spec.graph_point()).pieces
        want = tuple((p.k, _variational_adjoint_cone(spec, p.k)) for p in pieces)
        assert certify._directional_adjoints(spec, QVector.zero(spec.n), QVector.zero(spec.m)) == want


# -- each distinct cone converted once per spec ------------------------------------


def test_every_check_of_a_spec_walks_once_per_direction(monkeypatch):
    # the strata of D at g0 along each direction live in the spec's memo:
    # the first order, second order, calmness, Aubin (both modes) and joint
    # checks read the walk along 0, a directional check the walk along its
    # own w = Jx u - v, whichever module's binding of direction_strata they
    # reach; the second order directional check along u = (1, 0) and
    # dir-reg at (0, 0) find theirs in the memo
    calls = []
    real = sets.direction_strata

    def counted(d, ybar, w):
        calls.append(_ints(w))
        return real(d, ybar, w)

    monkeypatch.setattr(certify, "direction_strata", counted)
    monkeypatch.setattr(sets, "direction_strata", counted)
    spec = ex3_spec()
    check_foscms(spec)
    check_soscms(spec)
    check_calmness_constraint(spec, "first")
    check_aubin(spec, "corollary")
    check_aubin(spec, "theorem")
    check_foscms_joint(spec)
    check_directional_metric_regularity(spec, QVector([1, 0]), QVector.zero(4))
    check_directional_metric_regularity(spec, QVector([1, 0]), QVector([0, 0, 1, 1]))
    check_second_order_directional_subregularity(spec, QVector([1, 0]))
    check_directional_metric_regularity(spec, QVector.zero(2), QVector.zero(4))
    # Jx (1, 0) = (1, 0, -1, -1)
    assert calls == [(0, 0, 0, 0), (1, 0, -1, -1), (1, 0, -2, -2)]


def test_constraint_systems_with_no_components():
    # m = 0: D = R^0 is one point, every u is a solution direction, and the
    # directions u of the checks live in R^n, not in R^(columns of Jx)
    spec = ConstraintSystemSpec(l=1, n=1, m=0, Jp=[], Jx=[], g0=[], D=UnionSet([Polyhedron(0)]))
    assert check_aubin(spec, "corollary").holds()
    assert check_aubin(spec, "theorem").holds()
    assert check_foscms_joint(spec).holds()
    assert check_directional_metric_regularity(spec, QVector([1]), QVector([])).holds()
    assert check_second_order_directional_subregularity(spec, QVector([1]), QVector([])).holds()
    with pytest.raises(ValueError, match="^matvec dimension mismatch$"):
        check_directional_metric_regularity(spec, QVector([1, 0]), QVector([]))


def test_second_joint_check_makes_no_conversion():
    # theorem mode runs check_foscms_joint first; its joint cones stay with the spec
    spec = ex5_spec()
    assert check_aubin(spec, "theorem").holds()
    with counting_dd() as calls:
        assert check_foscms_joint(spec).holds()
    assert calls == []


@pytest.mark.parametrize("make, conversions", ((ex3_spec, 24), (ex4_spec, 8)))
def test_kernel_meets_take_one_conversion_each(make, conversions):
    # each ker Jx^T ∩ N is one conversion of N's rows and Jx's columns; a
    # kernel cone converted first and then intersected took two more on each.
    # The strata are built first, so only the meets and the pullbacks of
    # check_foscms count.
    spec = make()
    certify._strata(spec, (0,) * spec.m)
    with counting_dd() as calls:
        check_foscms(spec)
    assert len(calls) == conversions


@pytest.mark.parametrize("make, passes", ((ex3_spec, 27), (ex4_spec, 8), (2, 29), (3, 87), (4, 257)))
def test_strata_walk_passes(make, passes):
    # the walk makes one step pass per hyperplane that cuts a cell; the
    # normals take one conversion per holding piece's normal at ybar and one
    # per set of two or more compatible pieces (the meet of their normals),
    # and none per face or per stratum: a stratum's normal is the face of
    # its meet that a direction of its first cell exposes.  An int k is
    # complementarity with k pairs at 0.
    if isinstance(make, int):
        d, ybar = complementarity(make, {}), QVector.zero(2 * make)
    else:
        spec = make()
        d, ybar = spec.D, spec.g0
    with counting_dd() as calls:
        sets.direction_strata(d, ybar)
    assert len(calls) == passes


def test_pullback_read_through_its_generators_converts_once():
    spec = ex3_spec()
    jxt = certify._w_map_T(spec)[spec.l:]
    pieces = union_tangent_cone(spec.D, spec.g0).pieces
    for piece in pieces:
        piece._h
    with counting_dd() as calls:
        for piece in pieces:
            u = certify._pullback(piece, jxt)
            u.is_trivial(), pick_nonzero(u)
    assert len(calls) == len(pieces)


def test_calmness_reuses_the_subregularity_certificates():
    spec = ex4_spec()
    first, second = check_foscms(spec), check_soscms(spec)
    with counting_dd() as calls:
        assert check_calmness_constraint(spec, "first").trace is first.trace
        assert check_calmness_constraint(spec, "second").trace is second.trace
        assert check_foscms(spec) is first
    # the tangent pieces of D are the polars of face normals the strata have
    # built, and their pullbacks are reach cells' pullbacks: no conversion
    assert union_tangent_cone(spec.D, spec.g0).pieces
    assert calls == []
