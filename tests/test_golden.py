"""Golden certificates and cone listings, compared byte for byte.

Cones are canonical, so a check's report is a deterministic function of its
input.  Each ``ex*`` file under ``golden/`` is the full-verbosity report and
JSON block that ``POLYVAR_TRACE=full polyvar certify`` prints for one bundled
example and check; two refuted Aubin certificates have gap witnesses from
``covers_space``, the primitive sum of the rays of the closure of the first
uncovered cell; the ``cli-*`` files are what ``polyvar cones`` and
``polyvar graph-normal`` print on the bundled examples.

A change that is meant to alter a certificate regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.

Checks on one spec share the geometry the spec derives on first use, so the
last tests run several checks on one spec, in both orders, and compare with
the golden files and with a fresh spec per check.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import sys
from pathlib import Path

from fractions import Fraction

import pytest

from corpus import random_gamma, random_graph_point, random_matrix, random_symmetric, random_union, rng
from polyvar.certify import ConstraintSystemSpec, VariationalSystemSpec, _solvability, check_aubin
from polyvar.cli import _EXPECTED, _run_check, bundled_problem_path, run_command
from polyvar.fileio import parse_problem, render_report
from polyvar.linalg import QMatrix
from polyvar.sets import Polyhedron, UnionSet

GOLDEN = Path(__file__).parent / "golden"


def _output(check: str, cert) -> str:
    report = render_report(check, cert, "full")
    return report.text + "\n--- certificate JSON ---\n" + report.json_block() + "\n"


def _example(name: str, check: str, extra: dict, spec=None) -> str:
    if spec is None:
        spec = parse_problem(bundled_problem_path(f"ex{name}.json"))
    ns = argparse.Namespace(dir=extra.get("dir"), gpp=None, assume_subregular=False)
    return _output(check, _run_check(spec, check, ns))


def _aubin_refutation_spec() -> ConstraintSystemSpec:
    # G(p, x) = p with D = R_-: no solution direction for q > 0, and the
    # uncovered cell {q > 0} has the single ray q = 1.
    return ConstraintSystemSpec(
        l=1, n=1, m=1, Jp=[[1]], Jx=[[0]], g0=[0],
        D=UnionSet([Polyhedron(1, A=[[1]], b=[0])]),
    )


def _aubin_refutation_3d_spec() -> ConstraintSystemSpec:
    # The uncovered parameter directions form a 3-dimensional open region.
    # Its first cell, {q1 > q2}, has a closure with a 2-dimensional
    # lineality space and the one ray (1, -1, 0), which is the witness.
    return ConstraintSystemSpec(
        l=3, n=1, m=3, Jp=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], Jx=[[0], [0], [1]], g0=[0, 0, 0],
        D=UnionSet([Polyhedron(3, A=[[1, 1, 0], [1, -1, 0], [0, 0, 1]], b=[0, 0, 0])]),
    )


CASES = {
    f"ex{name}-{check}": (lambda n=name, c=check, e=extra: _example(n, c, e))
    for name, checks in _EXPECTED.items()
    for check, _, extra in checks
}
# dir-reg at the zero direction is the standard adjoint inclusion, refuted on
# both examples; along a nonzero direction one piece survives and is trivial
CASES["ex3-dir-reg-zero"] = lambda: _example("3", "dir-reg", {"dir": "0,0;0,0,0,0"})
CASES["ex3-dir-reg"] = lambda: _example("3", "dir-reg", {"dir": "1,0;0,0,0,0"})
CASES["ex5-dir-reg-zero"] = lambda: _example("5", "dir-reg", {"dir": "0,0;0,0"})
CASES["ex5-dir-reg"] = lambda: _example("5", "dir-reg", {"dir": "0,0;1,0"})
CASES["aubin-refutation"] = lambda: _output("aubin", check_aubin(_aubin_refutation_spec(), "corollary"))
CASES["aubin-refutation-3d"] = lambda: _output("aubin", check_aubin(_aubin_refutation_3d_spec(), "corollary"))


def _cli(example: str, *argv: str) -> str:
    # ``cones`` and ``graph-normal`` print every field of every cone they show.
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run_command([argv[0], bundled_problem_path(f"{example}.json"), *argv[1:]])
    assert code == 0
    return out.getvalue()


CASES["cli-cones-ex3"] = lambda: _cli("ex3", "cones", "--at", "0,0,0,0")
# piece 0 has no critical cone, and piece 1's comes from a normal cone with lineality
CASES["cli-cones-ex3-ystar"] = lambda: _cli("ex3", "cones", "--at", "0,0,0,0", "--ystar=1,0,1,0")
CASES["cli-cones-ex5"] = lambda: _cli("ex5", "cones", "--at", "0,0", "--ystar", "0,0")
CASES["cli-graph-normal-ex5-limiting"] = lambda: _cli("ex5", "graph-normal", "--limiting")
CASES["cli-graph-normal-ex5-regular"] = lambda: _cli("ex5", "graph-normal", "--regular")
CASES["cli-graph-normal-ex5-dir"] = lambda: _cli("ex5", "graph-normal", "--dir=-1,0;0,0")


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_matches_golden(case):
    want = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert CASES[case]() == want


@pytest.mark.parametrize("make", (_aubin_refutation_spec, _aubin_refutation_3d_spec))
def test_refutation_gap_lies_outside_every_projection(make):
    spec = make()
    cert = check_aubin(spec, "corollary")
    (gap,) = cert.witnesses
    projections = _solvability(spec)[0]
    assert projections and not any(p.contains(gap.q) for p in projections)


@pytest.mark.parametrize("order", ("forward", "reversed"))
@pytest.mark.parametrize("name", sorted(_EXPECTED))
def test_checks_on_one_spec_match_golden(name, order):
    spec = parse_problem(bundled_problem_path(f"ex{name}.json"))
    checks = _EXPECTED[name] if order == "forward" else _EXPECTED[name][::-1]
    for check, _, extra in checks:
        want = (GOLDEN / f"ex{name}-{check}.txt").read_text(encoding="utf-8")
        assert _example(name, check, extra, spec) == want, check


def _jacobian(r, nrows: int, ncols: int) -> QMatrix:
    """A random matrix, often with a zero column (so that checks also fail),
    each row divided by a small positive integer (so that it has
    denominators)."""
    m = random_matrix(r, nrows, ncols, -1, 1)
    dead = r.randrange(2 * ncols)  # the column to zero, if < ncols
    return QMatrix(
        [[0 if j == dead else x / r.choice((1, 1, 2, 3)) for j, x in enumerate(row)] for row in m.rows]
    )


def _corpus_makers():
    """Builders of random specs, each called once per fresh spec."""
    r = rng(4141)
    makers = []
    for _ in range(6):
        m, l = r.choice((2, 3)), r.choice((1, 2))
        data = dict(
            l=l, n=2, m=m, Jp=_jacobian(r, m, l), Jx=_jacobian(r, m, 2),
            g0=[0] * m, D=random_union(r, m), hessians=[random_symmetric(r, 2) for _ in range(m)],
        )
        makers.append(lambda data=data: ConstraintSystemSpec(**data))
    while len(makers) < 12:
        gamma = random_gamma(r, 3)
        xbar, ybarstar = random_graph_point(r, gamma)
        l = r.choice((1, 2))
        data = dict(
            l=l, n=3, Jp=_jacobian(r, 3, l), Jx=_jacobian(r, 3, 3),
            gamma=gamma, xbar=xbar, ybarstar=ybarstar,
        )
        if len(VariationalSystemSpec(**data).graph_point().critical.faces()) > 2:  # several strata
            makers.append(lambda data=data: VariationalSystemSpec(**data))
    return makers


def _corpus_checks(spec) -> list[tuple[str, dict]]:
    n, m = spec.n, spec.m if spec.kind == "constraint" else spec.n
    e1, e2 = ",".join(["1"] + ["0"] * (n - 1)), ",".join(["0"] * (n - 1) + ["1"])
    zero, gpp = ",".join(["0"] * m), ",".join(["-1"] * m)
    checks = [
        ("aubin", {}), ("foscms-joint", {}), ("aubin-theorem", {}), ("dir-reg", {"dir": f"{e1};{zero}"}),
        ("dir-reg", {"dir": f"{e2};{zero}"}), ("dir-subreg", {"dir": e1, "gpp": gpp}),
    ]
    if spec.kind == "constraint":
        checks += [("foscms", {}), ("soscms", {}), ("calmness", {}), ("calmness2", {}), ("dir-subreg", {"dir": e2})]
    return checks


def _run(spec, check: str, extra: dict) -> str:
    ns = argparse.Namespace(dir=extra.get("dir"), gpp=extra.get("gpp"), assume_subregular=False)
    try:
        return _output(check, _run_check(spec, check, ns))
    except ValueError as exc:  # a precondition such as theorem mode without evidence
        return f"{type(exc).__name__}: {exc}"


def test_shared_spec_matches_fresh_specs_on_corpus():
    for make in _corpus_makers():
        checks = _corpus_checks(make())
        fresh = [_run(make(), check, extra) for check, extra in checks]
        for order in (1, -1):
            spec = make()
            shared = [_run(spec, check, extra) for check, extra in checks[::order]]
            assert shared[::order] == fresh


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, make in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(make(), encoding="utf-8")
        print(f"wrote {case}", file=sys.stderr)
