"""The scaled problem families: one check per family, which asserts the
family's derived counts (pinned ones for seeded data), and the sizes at
which tier-1 and CI run it.  The tier-1 tests also replay every witness.  From the
repository root,

    PYTHONPATH=src python tests/families.py [FAMILY ...]

runs the named families, every one by default, at their ``ci`` sizes and
prints the process time of each size.
"""

import sys
import time
from math import comb
from typing import Callable, NamedTuple

from corpus import (
    admissible_complementarity,
    complementarity,
    counting_calls,
    counting_dd,
    cross_polytope_spec,
    free_kernel,
    orthant_spec,
    parametric_complementarity,
    polygon_cone,
    refuted_orthant,
    singular_orthant,
)
from polyvar.certify import (
    HOLDS,
    NOT_CERTIFIED,
    _adjoint_strata,
    _phase_a,
    _solution_pieces,
    check_aubin,
    check_directional_metric_regularity,
    check_foscms,
    check_foscms_joint,
    check_soscms,
    covers_space,
    fm_project,
)
from polyvar.cones import PolyCone
from polyvar.linalg import QVector
from polyvar.sets import direction_strata, directional_normal_cone


def adjoint_cells(spec) -> int:
    """The nontrivial (q, u) cells of all adjoint strata: one adjoint
    inclusion of Phase B each."""
    return sum(len(cells) for *_, cells in _adjoint_strata(spec))


def check_complementarity(k: int) -> None:
    """``complementarity(k, {})`` at 0: per pair y_i > 0, y_(k+i) > 0 or
    both 0, so 3^k strata, each with its own normal cone, and 3^(k-1)
    pieces of N_D(0; e_1), from the strata whose closure holds e_1."""
    d, zero = complementarity(k, {}), QVector.zero(2 * k)
    counts = (
        len(direction_strata(d, zero)),
        len(directional_normal_cone(d, zero, QVector.unit(2 * k, 0)).pieces),
        len(directional_normal_cone(d, zero, zero).pieces),
    )
    assert counts == (3**k, 3 ** (k - 1), 3**k), counts


def check_orthant(n: int) -> None:
    """``orthant_spec(n)``: check_aubin holds in 2 * 3^(n-1) + 2^n + 3 passes
    of the double description: one adjoint cone per adjoint stratum (the
    difference cones with a cell), one projection per face, one cover-test
    cell for each of the distinct projections R_+ and R_-, and the graph
    cone G, whose faces are the (q, u) cells."""
    spec = orthant_spec(n)
    with counting_dd() as passes:
        assert check_aubin(spec).holds()
    counts = (adjoint_cells(spec), len(passes))
    assert counts == (2 * 3 ** (n - 1), 2 * 3 ** (n - 1) + 2**n + 3), counts


def check_admissible(k: int) -> tuple:
    """``admissible_complementarity(k)``: returns the spec and its FOSCMS,
    SOSCMS, Aubin (corollary) and joint certificates."""
    spec = admissible_complementarity(k)
    certs = first, second, aubin, joint = [c(spec) for c in (check_foscms, check_soscms, check_aubin, check_foscms_joint)]
    (phase_b,) = [r for r in aubin.trace if r.get("phase", "").startswith("B")]
    counts = (
        len(first.witnesses),
        len(second.witnesses),
        sum(r["outcome"] == "violated (dual lineality)" for r in second.trace),
        sum(sum(w.vstar.entries) > 0 for w in second.witnesses),  # plus signs
        sum(len(c["adjoint_inclusions"]) for c in phase_b["cases"]),
        len(aubin.witnesses),
        len(joint.witnesses),
    )
    assert counts == (5 * 3 ** (k - 2),) * 3 + (3 * 3 ** (k - 2),) + (3**k,) * 3, counts
    return spec, *certs


def check_dir_reg(k: int) -> tuple:
    """``admissible_complementarity(k)`` along u = e_1, v = 0: returns the
    spec and its directional metric regularity certificate.

    w = Jx u = e_1 lies in the closure of a cell iff pair 0 is in state A
    there, so the walk along w finds 3^(k-1) strata, pair 0 in A and every
    other pair in A, B or Z, and N_D(0; e_1) has their 3^(k-1) distinct
    normals as pieces.  Each keeps the free v_k of pair 0 in ker Jx^T, so
    every piece is violated and the check refutes.  It takes
    4 * 3^(k-1) + 2^k passes of the double description: 2 * 3^(k-1) + 2^k
    steps of the walk, the normal at 0 of each of the 2^(k-1) pieces with
    pair 0 in A, one meet per stratum with two or more live pieces
    (3^(k-1) - 2^(k-1)) and one kernel meet per piece (3^(k-1)), where
    filtering the 3^k strata of the walk along 0 takes 96 and 284 passes
    at k = 3 and 4.
    """
    spec = admissible_complementarity(k)
    with counting_dd() as passes:
        cert = check_directional_metric_regularity(spec, QVector.unit(2, 0), QVector.zero(2 * k))
    counts = (cert.status, cert.refuted, len(cert.trace), len(cert.witnesses), len(passes))
    assert counts == (NOT_CERTIFIED, True, 3 ** (k - 1), 3 ** (k - 1), 4 * 3 ** (k - 1) + 2**k), counts
    return spec, cert


def check_one_pair(k: int) -> tuple:
    """``admissible_complementarity(k, second=k)``: returns the spec and its
    SOSCMS certificate."""
    spec = admissible_complementarity(k, second=k)
    first, second = check_foscms(spec), check_soscms(spec)
    outcomes = [r["outcome"] for r in second.trace]
    counts = (
        len(first.witnesses),
        outcomes.count("violated (dual lineality)"),
        outcomes.count("ok (quadratic term negative)"),
        outcomes.count("violated"),
        len(second.witnesses),
    )
    assert counts == (2 * 3 ** (k - 1), 2 * 3 ** (k - 1) - 2, 1, 1, 2 * 3 ** (k - 1) - 2 + 2 * (k - 1)), counts
    return spec, second


def check_polygon_cone(r: int) -> tuple:
    """``polygon_cone(r)``, r >= 3: returns the spec and its FOSCMS and
    SOSCMS certificates.

    D is one convex cone, so its strata are the relative interiors of its
    faces F x G, with F = {0}, one of the r rays, one of the r edges or P_r,
    and G = {0} or R_-: 4r + 4 strata.  ker Jx^T is the line of e_4, which
    the normal cone N_F x N_G meets in the ray of e_4 when G = {0} and in
    {0} when G = R_-.  The u-cell of F x G is F, nontrivial unless F = {0}.
    So the 2r + 1 strata F x {0} with F != {0} violate the first order
    condition, and check_foscms is not certified; the other 2r + 3 pass at
    first order.  On those 2r + 1, v* = e_4 contracts the Hessians to -I,
    which is negative on F minus the origin, so check_soscms holds after
    trying every linearly independent support of F's rays, one
    ``open_cell`` each: 1 for a ray, 3 for an edge, and r + C(r, 2) +
    C(r, 3) for P_r, as any three of its rays are independent (a
    Vandermonde determinant).  That is r + C(r, 2) + C(r, 3) + 4r calls,
    where trying every support of rays would take 2^r - 1 + 4r.
    """
    spec = polygon_cone(r)
    first = check_foscms(spec)
    with counting_calls("open_cell") as cells:
        second = check_soscms(spec)
    outcomes = [rec["outcome"] for rec in second.trace]
    counts = (
        len(first.trace),
        len(first.witnesses),
        second.status,
        outcomes.count("ok (quadratic term negative)"),
        outcomes.count("ok (first order)"),
        len(cells),
    )
    assert counts == (4 * r + 4, 2 * r + 1, HOLDS, 2 * r + 1, 2 * r + 3, r + comb(r, 2) + comb(r, 3) + 4 * r), counts
    return spec, first, second


def check_free_kernel(n: int) -> tuple:
    """``free_kernel(n)``: returns the spec and its FOSCMS and SOSCMS
    certificates.

    D = R_- has two strata at 0: {0}, with normal R_+, and y < 0, with
    normal {0}.  Jx = 0 pulls each reach cell back to R^n, and ker Jx^T = R
    meets R_+ in R_+, so the stratum {0} violates the first order condition
    and check_foscms is not certified.  There v* = 1 contracts the Hessian
    to -I_n, negative definite on the u-cell R^n, so check_soscms holds.
    The u-cell is its n lineality rows with no ray: the q-orthogonal pass
    finds each b^T q b < 0 and leaves no support to try, so no ``open_cell``
    runs, where trying every independent support of the signed lineality
    rows takes 3^n - 1.
    """
    spec = free_kernel(n)
    first = check_foscms(spec)
    with counting_calls("open_cell") as cells:
        second = check_soscms(spec)
    counts = (first.status, len(first.witnesses), second.status, len(second.witnesses), len(cells))
    assert counts == (NOT_CERTIFIED, 1, HOLDS, 0, 0), counts
    return spec, first, second


# cells the depth-first cover test converts before it finds its gap: the
# Jacobians are seeded, so these are pinned, not derived
PHASE_A_CELLS = {4: 13, 6: 15, 8: 59}


def check_phase_a(k: int) -> QVector:
    """``parametric_complementarity(k, k)``: the projections of its 2^k
    solution pieces leave a gap in R^k, found after one continued pass per
    cell tested.  Returns the gap."""
    spec = parametric_complementarity(k, k)
    _, covered, gap = _phase_a(spec)
    projected = [fm_project(p, spec.l) for p in _solution_pieces(spec)]
    assert not covered and not any(p.contains(gap) for p in projected), gap
    for p in projected:
        p._h  # the rows the search splits by, read before its passes are counted
    with counting_dd() as passes:
        assert covers_space(projected, spec.l) == (False, gap)
    assert len(passes) == PHASE_A_CELLS[k], len(passes)
    return gap


def check_refuted_orthant(n: int) -> list[PolyCone]:
    """``refuted_orthant(n)``: returns the projections of its solution
    pieces."""
    spec = refuted_orthant(n)
    cert = check_aubin(spec)
    assert cert.status == NOT_CERTIFIED and cert.refuted
    assert [w.q for w in cert.witnesses] == [QVector([1])], cert.witnesses
    projected = [fm_project(p, spec.l) for p in _solution_pieces(spec)]
    assert not any(p.contains(QVector([1])) for p in projected)
    counts = (len(projected), projected.count(PolyCone.from_ineqs(1, [], [[1]])), projected.count(PolyCone.from_ineqs(1, [[1]])))
    assert counts == (2**n, 2 ** (n - 1), 2 ** (n - 1)), counts
    return projected


def check_singular_orthant(n: int) -> tuple:
    """``singular_orthant(n)``: returns the spec and its Aubin (corollary)
    and joint certificates."""
    spec = singular_orthant(n)
    aubin, joint = check_aubin(spec), check_foscms_joint(spec)
    assert aubin.status == NOT_CERTIFIED and not aubin.refuted
    counts = (len(aubin.witnesses), adjoint_cells(spec), len(joint.witnesses))
    assert counts == (5 * 3 ** (n - 2), 7 * 3 ** (n - 2), 5 * 3 ** (n - 2)), counts
    return spec, aubin, joint


def check_cross_polytope(n: int) -> None:
    """``cross_polytope_spec(n)``, n >= 3: K has 3^(n-1) + 1 faces, there
    are 5^(n-2) + 3^(n-2) + 4 adjoint strata, the solution pieces project
    to R_+, R_- and {0} 3^(n-2) + 1, 2 and 2 * 3^(n-2) - 2 times, and
    check_aubin holds in 5^(n-2) + 3^(n-2) + 3^(n-1) + 10 passes of the
    double description: one adjoint cone per adjoint stratum, one
    projection per face, the graph cone and four cover-test cells.  The
    projections first appear as R_+ (from K), {0} and R_- (faces run from K
    down to {0}), and the cells are q < 0 after R_+, q < 0 and the empty
    q > 0 after {0}, and the empty q > 0 after R_-."""
    spec = cross_polytope_spec(n)
    with counting_dd() as passes:
        assert check_aubin(spec).holds()
    projected = [fm_project(p, spec.l) for p in _solution_pieces(spec)]
    r_plus, r_minus, origin = PolyCone.from_ineqs(1, [[-1]]), PolyCone.from_ineqs(1, [[1]]), PolyCone.from_ineqs(1, [], [[1]])
    counts = (
        len(spec.graph_point().critical.faces()),
        adjoint_cells(spec),
        *map(projected.count, (r_plus, r_minus, origin)),
        len(passes),
    )
    derived = (3 ** (n - 1) + 1, 5 ** (n - 2) + 3 ** (n - 2) + 4, 3 ** (n - 2) + 1, 2, 2 * 3 ** (n - 2) - 2)
    assert counts == (*derived, 5 ** (n - 2) + 3 ** (n - 2) + 3 ** (n - 1) + 10), counts


class Family(NamedTuple):
    check: Callable[[int], object]
    tier1: tuple[int, ...]
    ci: tuple[int, ...]


FAMILIES = {
    "complementarity": Family(check_complementarity, (2, 3, 4), (5, 6, 7)),
    "orthant": Family(check_orthant, (2, 3, 4), (6, 7, 8)),
    "admissible": Family(check_admissible, (3, 4), (6,)),
    "dir-reg": Family(check_dir_reg, (3, 4), (7, 8)),
    "one-pair": Family(check_one_pair, (4,), (6,)),
    "polygon-cone": Family(check_polygon_cone, (6, 8, 10), (20, 24)),
    "free-kernel": Family(check_free_kernel, (4, 6), (12, 16)),
    "phase-a": Family(check_phase_a, (4,), (6, 8)),
    "refuted-orthant": Family(check_refuted_orthant, (2, 3, 4), (10,)),
    "singular-orthant": Family(check_singular_orthant, (2, 3, 4), (8,)),
    "cross-polytope": Family(check_cross_polytope, (3, 4, 5), (6, 7)),
}


if __name__ == "__main__":
    for name in sys.argv[1:] or FAMILIES:
        for size in FAMILIES[name].ci:
            start = time.process_time()
            FAMILIES[name].check(size)
            print(f"{name} at {size}: {time.process_time() - start:.2f} s")
