"""A catalogue of committed mutants, and a runner that checks the tests
catch each one.

    python tools/mutants.py

Each entry of ``MUTANTS`` breaks the package in one place: a file under
``src/``, an exact old text that occurs once in it, the new text that
replaces it, and the test node ids that must catch the mutant.  For each
entry, the runner copies ``src/`` into a fresh ``tempfile`` directory
outside the repository, applies the one replacement there, and runs the
entry's tests with ``pytest -x`` in one child process, the copy first on
PYTHONPATH, under a timeout of ``TIMEOUT`` seconds, with one
fixed hypothesis seed and a fresh example database so that a run repeats.  Entries run one at a time,
never in parallel.

A mutant is caught when pytest reports a failed test (exit status 1).  A
pass, a timeout or any other exit status (a collection error, say) is a
miss.  The runner prints one line per mutant, caught or missed, with its
time, and exits 1 when any mutant is missed (2 when an old text does not
occur exactly once).

``tests/test_mutants.py`` checks in tier-1 that each old text occurs exactly
once in its file, so a change that moves the code must move the entry too.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 120  # seconds per mutant; each takes a few


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root, under src/
    old: str
    new: str
    tests: tuple[str, ...]


CERTIFY, SETS = "src/polyvar/certify.py", "src/polyvar/sets.py"
KERNEL_MEETS = "tests/test_certify.py::test_kernel_meets_and_admissible_flags_match_their_conversions"

MUTANTS = (
    # check_aubin's exact path where [Jp Jx] is onto
    Mutant(
        "aubin-skips-the-exact-path",
        CERTIFY,
        '    if spec.kind == "constraint" and spec.l + spec.n >= spec.m and _cokernel(spec, "qu")[0] == spec.m:\n',
        "    if False:\n",
        ("tests/test_certify.py::test_aubin_is_the_exact_criterion_where_the_jacobian_is_onto_hypothesis",),
    ),
    Mutant(
        "aubin-skips-the-consistency-check",
        CERTIFY,
        "        if not covered and exact.holds():\n",
        "        if False:\n",
        ("tests/test_fileio_cli.py::test_a_phase_a_gap_where_the_exact_criterion_holds_is_an_internal_error",),
    ),
    # the first order strata decide with no conversion: _pulls_back and _kernel_meet
    Mutant(
        "pulls-back-drops-one-line-with-rays",
        CERTIFY,
        "len(lin) + bool(rays) > 1",
        "len(lin) > 1",
        (KERNEL_MEETS,),
    ),
    Mutant(
        "pulls-back-drops-rays-on-both-sides",
        CERTIFY,
        " or len(signs) > 1\n",
        "\n",
        (KERNEL_MEETS,),
    ),
    Mutant(
        "pulls-back-drops-the-orthogonal-generator",
        CERTIFY,
        "return 0 in signs or len(lin)",
        "return len(lin)",
        (KERNEL_MEETS,),
    ),
    Mutant(
        "kernel-meet-drops-the-minus-b-test",
        CERTIFY,
        "(cone._holds(basis[0]) or cone._holds(_neg(basis[0])))",
        "cone._holds(basis[0])",
        (KERNEL_MEETS,),
    ),
    Mutant(
        "pulls-back-misreads-the-rank",
        CERTIFY,
        "    if rank < spec.n:\n        return True\n",
        "    if rank < spec.n - 1:\n        return True\n",
        (KERNEL_MEETS,),
    ),
    # one kernel meet per Jacobian block
    Mutant(
        "cokernel-reads-x-for-every-block",
        CERTIFY,
        "_echelon([_reduce(c) for c in _block(spec, block)], spec.m)",
        '_echelon([_reduce(c) for c in _block(spec, "x")], spec.m)',
        (KERNEL_MEETS,),
    ),
    Mutant(
        "cokernel-reads-qu-for-p",
        CERTIFY,
        "_echelon([_reduce(c) for c in _block(spec, block)], spec.m)",
        '_echelon([_reduce(c) for c in _block(spec, "qu" if block == "p" else block)], spec.m)',
        (KERNEL_MEETS,),
    ),
    Mutant(
        "direction-strata-drops-the-plus-child",
        SETS,
        "for s, new in ((0, (h, nh)), (-1, (h,)), (1, (nh,))):",
        "for s, new in ((0, (h, nh)), (-1, (h,))):",
        ("tests/test_sets.py",),
    ),
    Mutant(
        "direction-strata-keeps-a-missing-piece-live",
        SETS,
        "            continue  # out in every direction\n",
        "            pass  # out in every direction\n",
        ("tests/test_sets.py",),
    ),
    Mutant(
        "adjoint-strata-drops-the-last-cell",
        CERTIFY,
        "for i, c in enumerate(cells) if not c.is_trivial())",
        "for i, c in enumerate(cells[:-1]) if not c.is_trivial())",
        ("tests/test_certify.py::test_phase_b_and_the_joint_check_read_one_record_per_stratum",),
    ),
    # the second order search and the one integer form of Jx
    Mutant(
        "support-search-stops-one-size-short",
        CERTIFY,
        "for size in range(1, min(len(gens), cone.dim) + 1):",
        "for size in range(1, min(len(gens), cone.dim)):",
        ("tests/test_quadratic_kernel.py",),
    ),
    Mutant(
        "variational-adjoint-flips-the-jx-rows",
        CERTIFY,
        "rows_i = [_apply(jx, a) for a in rays]",
        "rows_i = [_neg(_apply(jx, a)) for a in rays]",
        ("tests/test_certify.py::test_integer_pullbacks_match_rational_rows",),
    ),
)


def occurrences(mutant: Mutant) -> int:
    """How often the mutant's old text occurs in its file."""
    return (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old)


def run(mutant: Mutant) -> tuple[bool, float, str]:
    """(caught, seconds, how): the mutant's tests run on a mutated copy of src/."""
    with tempfile.TemporaryDirectory(prefix="polyvar-mutant-") as tmp:
        shutil.copytree(ROOT / "src", Path(tmp) / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        path = Path(tmp) / mutant.file
        path.write_text(path.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(Path(tmp) / "src"), os.environ.get("PYTHONPATH")))))
        tests = [str(ROOT / node) for node in mutant.tests]
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *tests]
        start = time.perf_counter()
        try:
            # run in the copy's directory: hypothesis keeps its example database there
            code = subprocess.run(argv, cwd=tmp, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=TIMEOUT).returncode
        except subprocess.TimeoutExpired:
            return False, time.perf_counter() - start, f"timed out after {TIMEOUT} s"
        took = time.perf_counter() - start
    return code == 1, took, "tests failed" if code == 1 else f"pytest exit status {code}"


def main() -> int:
    stale = [m.name for m in MUTANTS if occurrences(m) != 1]
    if stale:
        print("old text does not occur exactly once: " + ", ".join(stale), file=sys.stderr)
        return 2
    missed = 0
    for m in MUTANTS:
        caught, took, how = run(m)
        missed += not caught
        print(f"{'caught' if caught else 'MISSED'} {m.name} in {took:.1f} s ({how})", flush=True)
    print(f"{len(MUTANTS) - missed} of {len(MUTANTS)} mutants caught")
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
