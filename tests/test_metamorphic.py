"""Verdicts that do not depend on how D is written.

Every check decides a property of the solution map, which depends on D only
as a set, and on the coordinates of p, x and y only up to renaming and
positive scaling.  So no check's status or refuted flag may change when a
constraint spec is rewritten in one of these ways:

* a piece P is split along a hyperplane h through g0 into P ∩ {h <= 0} and
  P ∩ {h >= 0};
* a piece is added that is a copy of a piece, lies inside one (P ∩ {h <= 0})
  or misses g0;
* the pieces are reordered;
* the y coordinates are permuted (the rows of Jp, Jx and the Hessians, g0 and
  the pieces' columns together), or the x coordinates are (the columns of
  Jx and both sides of each Hessian, and the direction u of ``dir-reg``);
* p is scaled by a positive factor (Jp times it), or a row of a piece by a
  positive rational (the row and its right-hand side).

Labels, cell indices, record order and witness vectors may change, but
every witness of the rewritten spec must replay through the cone layer.
"""

from __future__ import annotations

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import random_matrix, random_symmetric, random_union, rng
from polyvar.certify import (
    ConstraintSystemSpec,
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_foscms_joint,
    check_soscms,
)
from polyvar.linalg import QMatrix, QVector
from polyvar.sets import Polyhedron, UnionSet, directional_normal_cone
from test_certify import replay_aubin_witness, replay_foscms_witness, replay_soscms_witness

REWRITES = ("split", "copy", "sub-piece", "far piece", "reorder", "permute y", "permute x", "scale p", "scale row")


def _spec(seed: int) -> ConstraintSystemSpec:
    """A small random constraint spec at g0 = 0 with Hessians: m in {2, 3},
    n and l in {1, 2}, D a union of up to three cones."""
    r = rng(seed)
    m, n, l = r.choice([2, 3]), r.choice([1, 2]), r.choice([1, 2])
    d = random_union(r, m, 3)
    return ConstraintSystemSpec(
        l=l, n=n, m=m, Jp=random_matrix(r, m, l), Jx=random_matrix(r, m, n), g0=[0] * m, D=d,
        hessians=[random_symmetric(r, n) for _ in range(m)],
    )


def _rows(p: Polyhedron) -> tuple[list, list, list, list]:
    return [list(a.entries) for a in p.A], list(p.b), [list(g.entries) for g in p.E], list(p.e)


def _cut(p: Polyhedron, h: list) -> Polyhedron:
    """P ∩ {h.y <= 0}: it holds g0 = 0, so it is not empty."""
    a, b, e_rows, e = _rows(p)
    return Polyhedron(p.dim, a + [h], b + [0], e_rows, e)


def _rewrite(spec: ConstraintSystemSpec, kind: str, data) -> tuple[ConstraintSystemSpec, list]:
    """The spec written another way, and the index map of the x coordinates
    (x'_i = x_perm[i])."""
    m, n = spec.m, spec.n
    pieces = list(spec.D.pieces)
    jp, jx, hessians = [list(r.entries) for r in spec.Jp.rows], [list(r.entries) for r in spec.Jx.rows], spec.hessians
    perm = list(range(n))
    draw_row = st.lists(st.integers(-2, 2), min_size=m, max_size=m).filter(any)
    i = data.draw(st.integers(0, len(pieces) - 1), label="piece")
    if kind == "split":
        h = data.draw(draw_row, label="h")
        pieces[i : i + 1] = [_cut(pieces[i], h), _cut(pieces[i], [-x for x in h])]
    elif kind == "copy":
        pieces.append(pieces[i])
    elif kind == "sub-piece":
        pieces.append(_cut(pieces[i], data.draw(draw_row, label="h")))
    elif kind == "far piece":  # the half-space {a.y >= 1}, which misses g0 = 0
        pieces.append(Polyhedron(m, [[-x for x in data.draw(draw_row, label="a")]], [-1]))
    elif kind == "reorder":
        pieces = data.draw(st.permutations(pieces), label="order")
    elif kind == "permute y":
        s = data.draw(st.permutations(range(m)), label="sigma")
        jp, jx = [jp[k] for k in s], [jx[k] for k in s]
        hessians = [hessians[k] for k in s]
        pieces = [
            Polyhedron(m, [[r[k] for k in s] for r in a], b, [[r[k] for k in s] for r in e_rows], e)
            for a, b, e_rows, e in map(_rows, pieces)
        ]
    elif kind == "permute x":
        perm = data.draw(st.permutations(range(n)), label="pi")
        jx = [[r[k] for k in perm] for r in jx]
        hessians = [[[h.rows[j][k] for k in perm] for j in perm] for h in hessians]
    elif kind == "scale p":
        c = data.draw(st.sampled_from([F(1, 3), 2, F(5, 2)]), label="c")
        jp = [[c * x for x in r] for r in jp]
    else:  # scale row
        a, b, e_rows, e = _rows(pieces[i])
        if a:
            j, c = data.draw(st.integers(0, len(a) - 1), label="row"), data.draw(st.sampled_from([F(1, 2), 3]), label="c")
            a[j], b[j] = [c * x for x in a[j]], c * b[j]
        pieces[i] = Polyhedron(m, a, b, e_rows, e)
    out = ConstraintSystemSpec(
        l=spec.l, n=n, m=m, Jp=QMatrix(jp), Jx=QMatrix(jx), g0=spec.g0, D=UnionSet(pieces),
        hessians=[h if isinstance(h, QMatrix) else QMatrix(h) for h in hessians],
    )
    return out, perm


def _checks(spec: ConstraintSystemSpec, u: QVector) -> dict:
    zero = QVector.zero(spec.m)
    return {
        "foscms": check_foscms(spec),
        "soscms": check_soscms(spec),
        "calmness": check_calmness_constraint(spec, "first"),
        "aubin": check_aubin(spec, "corollary"),
        "aubin-theorem": check_aubin(spec, "theorem", assume_subregular=True),
        "foscms-joint": check_foscms_joint(spec),
        "dir-reg 0": check_directional_metric_regularity(spec, QVector.zero(spec.n), zero),
        "dir-reg u": check_directional_metric_regularity(spec, u, zero),
    }


def _replay_dir_reg_witness(spec, w, v):
    # v* != 0 in ker Jx^T and in N_D(g0; Jx u - v)
    assert not w.vstar.is_zero() and spec.Jx.T.matvec(w.vstar).is_zero()
    assert directional_normal_cone(spec.D, spec.g0, spec.Jx.matvec(w.u) - v).contains(w.vstar)


def _replay(spec, certs: dict) -> None:
    zero = QVector.zero(spec.m)
    for w in certs["foscms"].witnesses + certs["calmness"].witnesses:
        replay_foscms_witness(spec, w)
    for w in certs["soscms"].witnesses:
        replay_soscms_witness(spec, w)
    for w in certs["aubin"].witnesses:
        replay_aubin_witness(spec, w, "corollary")
    for w in certs["aubin-theorem"].witnesses:
        replay_aubin_witness(spec, w, "theorem")
    for w in certs["foscms-joint"].witnesses:
        replay_aubin_witness(spec, w, "corollary")
        assert spec.Jp.T.matvec(w.vstar).is_zero()
    for w in certs["dir-reg 0"].witnesses + certs["dir-reg u"].witnesses:
        _replay_dir_reg_witness(spec, w, zero)


@pytest.mark.parametrize("kind", REWRITES)
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10**6), data=st.data())
def test_verdicts_do_not_depend_on_how_d_is_written_hypothesis(kind, seed, data):
    spec = _spec(seed)
    u = QVector([1] + [0] * (spec.n - 1))
    rewritten, perm = _rewrite(spec, kind, data)
    before = _checks(spec, u)
    after = _checks(rewritten, QVector([u[k] for k in perm]))
    assert {k: (c.status, c.refuted) for k, c in after.items()} == {k: (c.status, c.refuted) for k, c in before.items()}
    _replay(rewritten, after)
