"""Golden certificates, compared byte for byte.

Cones are canonical, so a check's report is a deterministic function of its
input.  Each file under ``golden/`` is the full-verbosity report and JSON
block that ``POLYVAR_TRACE=full polyvar certify`` prints for one bundled
example and check, plus two refuted Aubin certificates whose ``covers_space``
gap witnesses depend on the order of the double description rays.

A change that is meant to alter a certificate regenerates the files with
``PYTHONPATH=src python tests/test_golden.py`` and says why.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import pytest

from polyvar.certify import ConstraintSystemSpec, check_aubin
from polyvar.cli import _EXPECTED, _run_check, bundled_problem_path
from polyvar.fileio import parse_problem, render_report
from polyvar.sets import Polyhedron, UnionSet

GOLDEN = Path(__file__).parent / "golden"


def _output(check: str, cert) -> str:
    report = render_report(check, cert, "full")
    return report.text + "\n--- certificate JSON ---\n" + report.json_block() + "\n"


def _example(name: str, check: str, extra: dict) -> str:
    spec = parse_problem(bundled_problem_path(f"ex{name}.json"))
    ns = argparse.Namespace(dir=extra.get("dir"), gpp=None, assume_subregular=False)
    return _output(check, _run_check(spec, check, ns))


def _aubin_refutation() -> str:
    # G(p, x) = p with D = R_-: no solution direction for q > 0; the gap
    # witness is the first DD ray with positive slack in covers_space.
    spec = ConstraintSystemSpec(
        l=1, n=1, m=1, Jp=[[1]], Jx=[[0]], g0=[0],
        D=UnionSet([Polyhedron(1, A=[[1]], b=[0])]),
    )
    return _output("aubin", check_aubin(spec, "corollary"))


def _aubin_refutation_3d() -> str:
    # The uncovered parameter directions form a 3-dimensional open region,
    # so the witness is one of several DD rays.
    spec = ConstraintSystemSpec(
        l=3, n=1, m=3, Jp=[[1, 0, 0], [0, 1, 0], [0, 0, 1]], Jx=[[0], [0], [1]], g0=[0, 0, 0],
        D=UnionSet([Polyhedron(3, A=[[1, 1, 0], [1, -1, 0], [0, 0, 1]], b=[0, 0, 0])]),
    )
    return _output("aubin", check_aubin(spec, "corollary"))


CASES = {
    f"ex{name}-{check}": (lambda n=name, c=check, e=extra: _example(n, c, e))
    for name, checks in _EXPECTED.items()
    for check, _, extra in checks
}
CASES["aubin-refutation"] = _aubin_refutation
CASES["aubin-refutation-3d"] = _aubin_refutation_3d


@pytest.mark.parametrize("case", sorted(CASES))
def test_certificate_matches_golden(case):
    want = (GOLDEN / f"{case}.txt").read_text(encoding="utf-8")
    assert CASES[case]() == want


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case, make in sorted(CASES.items()):
        (GOLDEN / f"{case}.txt").write_text(make(), encoding="utf-8")
        print(f"wrote {case}", file=sys.stderr)
