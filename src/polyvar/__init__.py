"""polyvar: exact polyhedral cone calculus and stability certificates for
parameterized constraint and variational systems."""

from .linalg import QMatrix, QVector, frac, kernel, orth_complement, rref, solve
from .cones import Face, PolyCone, face_difference
from .sets import (
    ConeUnion,
    InfeasibleError,
    Polyhedron,
    UnionSet,
    critical_cone,
    directional_normal_cone,
    nearby_critical_cone,
    union_tangent_cone,
)
from .graphmap import (
    GraphNormalCone,
    GraphPoint,
    ProductPiece,
    directional_coderivative_normal_map,
    directional_limiting_normal_graph,
    graph_tangent_member,
    limiting_normal_graph,
    regular_normal_graph,
)
from .certify import (
    Certificate,
    ConstraintSystemSpec,
    PreconditionError,
    VariationalSystemSpec,
    Witness,
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_foscms_joint,
    check_second_order_directional_subregularity,
    check_soscms,
    graphical_derivative_S,
)
from .fileio import ProblemFileError, Report, parse_problem, render_report

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
