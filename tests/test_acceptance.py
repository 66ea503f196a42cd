"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import time
from fractions import Fraction as F

from corpus import random_gamma, random_graph_point, random_tangent_pair, rng
from polyvar.certify import (
    HOLDS,
    NOT_CERTIFIED,
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_second_order_directional_subregularity,
    check_soscms,
)
from polyvar.cli import bundled_problem_path, run_command
from polyvar.cones import PolyCone
from polyvar.fileio import parse_problem
from polyvar.graphmap import (
    GraphPoint,
    directional_limiting_normal_graph,
    limiting_normal_graph,
)
from polyvar.linalg import QVector, vec_plain
from polyvar.oracle import piece_sets_equal, sample_graph_directional
from polyvar.sets import critical_cone, nearby_critical_cone

from test_certify import (
    ex3_spec,
    ex4_spec,
    ex5_spec,
    random_constraint_specs,
    random_variational_specs,
    replay_aubin_witness,
    replay_foscms_witness,
    replay_soscms_witness,
)


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_example5_faces_and_pieces():
    t0 = time.perf_counter()
    spec = ex5_spec()
    gp = spec.graph_point()
    faces = gp.critical.faces()
    pieces = limiting_normal_graph(gp).pieces
    keys = {p.k.key() for p in pieces}
    k4 = PolyCone.from_ineqs(2, [[1, 2]])
    k5 = PolyCone.from_ineqs(2, [[1, -2]])
    elapsed = time.perf_counter() - t0
    ok = (
        len(faces) == 4
        and len(pieces) == 9
        and k4.key() in keys
        and k5.key() in keys
        and elapsed < 1.0
    )
    _report(1, ok, f"4 faces={len(faces) == 4}, 9 pieces={len(pieces) == 9}, "
                   f"halfplane pieces present={k4.key() in keys and k5.key() in keys}, {elapsed:.3f}s")


def test_criterion_2_example5_aubin_via_cli(capsys):
    code = run_command(["certify", bundled_problem_path("ex5.json"), "--check", "aubin"])
    capsys.readouterr()
    cert = check_aubin(ex5_spec(), "corollary")
    phase_b = next(t for t in cert.trace if str(t["phase"]).startswith("B"))
    n_cases = len(phase_b["cases"])
    n_ges = sum(len(c["adjoint_inclusions"]) for c in phase_b["cases"])
    all_trivial = all(e["trivial"] for c in phase_b["cases"] for e in c["adjoint_inclusions"])
    # the standard adjoint inclusion is the directional one at (0, 0)
    zero = check_directional_metric_regularity(ex5_spec(), QVector.zero(2), QVector.zero(2))
    gens = sorted(vec_plain(g) for t in zero.trace for g in t["adjoint_cone"].rays + t["adjoint_cone"].lin)
    with capsys.disabled():
        ok = (
            code == 0
            and cert.status == HOLDS
            and n_cases == 4
            and n_ges == 4
            and all_trivial
            and gens == [["-1", "-2"], ["-1", "2"]]
        )
        _report(2, ok, f"exit={code}, holds={cert.status == HOLDS}, cases={n_cases}, "
                       f"adjoint GEs={n_ges}, all trivial={all_trivial}, "
                       f"standard GE nontrivial rays={gens}")


def test_criterion_3_example3():
    t0 = time.perf_counter()
    spec = ex3_spec()
    fos = check_foscms(spec)
    calm = check_calmness_constraint(spec, "first")
    aubin = check_aubin(spec, "corollary")
    elapsed = time.perf_counter() - t0
    ok = (
        fos.status == HOLDS
        and calm.status == HOLDS
        and calm.rate("linear_solvability")
        and aubin.status == NOT_CERTIFIED
        and elapsed < 1.0
    )
    _report(3, ok, f"foscms={fos.status}, calmness={calm.status} "
                   f"(linear={calm.rate('linear_solvability')}), aubin={aubin.status}, {elapsed:.3f}s")


def test_criterion_4_example4():
    t0 = time.perf_counter()
    spec = ex4_spec()
    fos = check_foscms(spec)
    witness_ok = any(
        w.vstar is not None and w.vstar.primitive() == QVector([1, 1]) for w in fos.witnesses
    )
    sos = check_soscms(spec)
    calm = check_calmness_constraint(spec, "second")
    subreg = check_second_order_directional_subregularity(spec, QVector([1, 0]), QVector([-1, -1]))
    elapsed = time.perf_counter() - t0
    ok = (
        fos.status == NOT_CERTIFIED
        and witness_ok
        and sos.status == HOLDS
        and calm.status == HOLDS
        and calm.rate("hoelder_half_solvability")
        and subreg.status == HOLDS
        and elapsed < 1.0
    )
    _report(4, ok, f"foscms={fos.status} witness(1,1)={witness_ok}, soscms={sos.status}, "
                   f"calmness2={calm.status} (hoelder={calm.rate('hoelder_half_solvability')}), "
                   f"dir-subreg={subreg.status}, {elapsed:.3f}s")


def test_criterion_5_graph_theorem_oracle_equivalence():
    t0 = time.perf_counter()
    r = rng(2023)
    instances = 0
    attempts = 0
    while instances < 50 and attempts < 400:
        attempts += 1
        dim = 2 if instances % 2 == 0 else 3
        gamma = random_gamma(r, dim)
        ybar, ybarstar = random_graph_point(r, gamma)
        gp = GraphPoint(gamma, ybar, ybarstar)
        v, vstar = random_tangent_pair(r, gp.critical)
        closed = directional_limiting_normal_graph(gp, v, vstar)
        sampled = sample_graph_directional(gp, v, vstar)
        assert piece_sets_equal([p.k for p in closed.pieces], sampled), (
            f"closed form and sampling oracle disagree on instance {instances}"
        )
        instances += 1
    elapsed = time.perf_counter() - t0
    ok = instances >= 50 and elapsed < 60.0
    _report(5, ok, f"{instances} randomized instances, closed form == sampling oracle, {elapsed:.1f}s")


def test_criterion_6_nearby_critical_cone_lemma():
    t0 = time.perf_counter()
    r = rng(3001)
    checked = 0
    for i in range(40):
        gamma = random_gamma(r, 2 + (i % 2))
        ybar, ybarstar = random_graph_point(r, gamma)
        k = critical_cone(gamma, ybar, ybarstar)
        for _ in range(4):
            w, wstar = random_tangent_pair(r, k)
            t = F(1, 2)
            stable = None
            for _ in range(20):
                d1 = critical_cone(gamma, ybar + w.scale(t), ybarstar + wstar.scale(t))
                d2 = critical_cone(gamma, ybar + w.scale(t / 2), ybarstar + wstar.scale(t / 2))
                if d1 is not None and d1 == d2:
                    stable = t
                    break
                t = t / 2
            if stable is None:
                continue
            for tt in (stable, stable / 2):
                y = ybar + w.scale(tt)
                ystar = ybarstar + wstar.scale(tt)
                assert nearby_critical_cone(gamma, ybar, ybarstar, y, ystar) == critical_cone(
                    gamma, y, ystar
                )
                checked += 1
    elapsed = time.perf_counter() - t0
    ok = checked >= 200
    _report(6, ok, f"{checked} nearby graph points, reference-data formula == direct computation, {elapsed:.1f}s")


def test_criterion_7_cone_algebra_laws():
    t0 = time.perf_counter()
    from test_cones import CORPUS, random_cone

    involution = all(c.polar().polar() == c for c in CORPUS)
    r = rng(77)
    duality = True
    for d in (2, 3):
        for _ in range(8):
            c1, c2 = random_cone(r, d), random_cone(r, d)
            duality &= c1.intersect(c2).polar() == c1.polar().minkowski_sum(c2.polar())
            duality &= c1.minkowski_sum(c2).polar() == c1.polar().intersect(c2.polar())
    lattice = True
    for c in CORPUS[:20]:
        keys = {f.cone.key() for f in c.faces()}
        lattice &= all(
            f1.cone.intersect(f2.cone).key() in keys for f1 in c.faces() for f2 in c.faces()
        )
    collapse = True
    rr = rng(79)
    for i in range(8):
        gamma = random_gamma(rr, 2 + (i % 2))
        ybar, ybarstar = random_graph_point(rr, gamma)
        gp = GraphPoint(gamma, ybar, ybarstar)
        zero = QVector.zero(gamma.dim)
        a = {p.k.key() for p in directional_limiting_normal_graph(gp, zero, zero).pieces}
        b = {p.k.key() for p in limiting_normal_graph(gp).pieces}
        collapse &= a == b
    elapsed = time.perf_counter() - t0
    ok = involution and duality and lattice and collapse
    _report(7, ok, f"polar involution={involution}, duality laws={duality}, "
                   f"face-lattice closure={lattice}, zero-direction collapse={collapse}, {elapsed:.1f}s")


def test_criterion_8_metamorphic_certifier_laws():
    t0 = time.perf_counter()
    foscms_implies_soscms = True
    replays = 0
    for spec in [ex3_spec(), ex4_spec()] + random_constraint_specs():
        first = check_foscms(spec)
        second = check_soscms(spec)
        if first.status == HOLDS:
            foscms_implies_soscms &= second.status == HOLDS
        for w in first.witnesses:
            replay_foscms_witness(spec, w)
            replays += 1
        for w in second.witnesses:
            replay_soscms_witness(spec, w)
            replays += 1
    corollary_implies_theorem = True
    for spec in [ex5_spec()] + random_variational_specs() + random_constraint_specs(4):
        cor = check_aubin(spec, "corollary")
        if cor.status == HOLDS:
            corollary_implies_theorem &= check_aubin(spec, "theorem").status == HOLDS
        for w in cor.witnesses:
            replay_aubin_witness(spec, w, "corollary")
            replays += 1
    elapsed = time.perf_counter() - t0
    ok = foscms_implies_soscms and corollary_implies_theorem
    _report(8, ok, f"FOSCMS=>SOSCMS={foscms_implies_soscms}, "
                   f"aubin corollary=>theorem={corollary_implies_theorem}, "
                   f"{replays} witnesses replayed through the cone layer, {elapsed:.1f}s")
