"""Each argument check that no other test reaches raises its exception type
with its message: a bad union, polyhedron, point, matrix, right-hand side or
certificate block is refused where it enters, not deep in a computation."""

import pytest

from polyvar.cones import PolyCone
from polyvar.fileio import certificate_from_dict
from polyvar.linalg import QMatrix, QVector, kernel, solve
from polyvar.oracle import sample_union_normals
from polyvar.sets import Polyhedron, UnionSet, critical_cone, direction_strata, nearby_critical_cone


def halfplane():
    """{y : y_1 <= 0} in R^2, whose normal cone at 0 is cone{(1, 0)}."""
    return Polyhedron(2, A=[[1, 0]], b=[0])


def block(**changes):
    """A certificate block that the loader accepts, with some keys replaced."""
    return {"status": "holds", "refuted": False, "witnesses": [], "rates": None, "notes": [], "trace": [], **changes}


CASES = {
    "a union with no piece": (lambda: UnionSet([]), "a union needs at least one piece"),
    "a union of pieces of two dimensions": (
        lambda: UnionSet([halfplane(), Polyhedron(1, A=[[1]], b=[0])]),
        "pieces have unequal dimensions",
    ),
    "a polyhedron with more rows than right-hand sides": (
        lambda: Polyhedron(2, A=[[1, 0], [0, 1]], b=[0]),
        "constraint rows and right-hand sides differ in length",
    ),
    "the slacks of a point of another dimension": (lambda: halfplane()._slacks(QVector([0])), "point has wrong dimension"),
    "a critical cone at a point of another dimension": (
        lambda: critical_cone(halfplane(), QVector([0]), QVector([1, 0])),
        "dimension mismatch",
    ),
    "a nearby critical cone from a reference pair off the graph": (
        lambda: nearby_critical_cone(halfplane(), QVector([0, 0]), QVector([-1, 0]), QVector([0, 0]), QVector([1, 0])),
        "reference pair is not in the graph of the normal-cone map",
    ),
    "direction strata at a point in no piece": (
        lambda: direction_strata(UnionSet([halfplane()]), QVector([1, 0])),
        "reference point lies in no piece of the union",
    ),
    "a matrix with ragged rows": (lambda: QMatrix([[1, 2], [3]]), "rows have unequal lengths"),
    "the kernel of a matrix with no rows": (
        lambda: kernel(QMatrix([])),
        "kernel of a matrix with no rows is ambiguous; pass explicit rows",
    ),
    "a solve with a right-hand side of another length": (
        lambda: solve(QMatrix([[1, 0]]), QVector([1, 2])),
        "solve: right-hand side has wrong dimension",
    ),
    "a cone's membership test of a point of another dimension": (
        lambda: PolyCone.from_ineqs(2, [[1, 0]]).contains(QVector([1])),
        "point has wrong dimension",
    ),
    "sampled normals at a point off the union": (
        lambda: sample_union_normals(UnionSet([halfplane()]), QVector([1, 0]), QVector([0, 0])),
        "reference point lies in no piece of the union",
    ),
    "a certificate whose witness is not an object": (
        lambda: certificate_from_dict(block(witnesses=[5])),
        "certificate.witnesses[0]: expected an object",
    ),
}


@pytest.mark.parametrize("make, message", CASES.values(), ids=CASES.keys())
def test_bad_arguments_raise_value_error_with_their_message(make, message):
    with pytest.raises(ValueError) as err:
        make()
    assert type(err.value) is ValueError and str(err.value) == message
