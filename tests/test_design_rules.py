"""Two layering rules of the package, checked on its source with ``ast``.

Fractions stay at the boundary: the cone layer, the polyhedra, the graph map
and the certifiers work on integer rows; rationals enter and leave only
through linalg's views, so these modules import nothing from fractions and
call none of the rational QVector/QMatrix methods matvec, dot, col, scale,
is_symmetric and T (a constraint spec checks its Hessians' symmetry on their
integer rows).

Derived geometry lives on its owner or in the spec memo: an object caches
only what is a function of itself, and geometry derived from a spec lives
in the spec's memo (``certify._per_spec``).  There is no module-level cache,
so no functools.lru_cache or functools.cache and no global statement
anywhere in the package.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "polyvar"


def _nodes(path: Path):
    """(the path from the repository root, every node of the module)"""
    rel = path.relative_to(ROOT)
    return rel, ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(rel)))


def test_fractions_stay_at_the_boundary():
    bad = []
    for name in ("cones", "sets", "graphmap", "certify"):
        path, nodes = _nodes(PACKAGE / f"{name}.py")
        for node in nodes:
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                    if node.func.attr in ("matvec", "dot", "col", "scale", "is_symmetric"):
                        bad.append(f"{path}:{node.lineno} calls the rational .{node.func.attr}")
                elif isinstance(node, ast.Attribute) and node.attr == "T":
                    bad.append(f"{path}:{node.lineno} reads the rational .T")
                continue
            if any(m == "fractions" or m.startswith("fractions.") for m in modules):
                bad.append(f"{path}:{node.lineno} imports from fractions")
    assert not bad, "\n".join(bad)


def test_derived_geometry_lives_on_its_owner_or_in_the_spec_memo():
    bad = []
    for path, nodes in map(_nodes, sorted(PACKAGE.rglob("*.py"))):
        for node in nodes:
            if isinstance(node, ast.Global):
                bad.append(f"{path}:{node.lineno} uses a global statement")
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                bad += [f"{path}:{node.lineno} imports functools.{a.name}" for a in node.names if a.name in ("lru_cache", "cache")]
            elif isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache"):
                if isinstance(node.value, ast.Name) and node.value.id == "functools":
                    bad.append(f"{path}:{node.lineno} uses functools.{node.attr}")
    assert not bad, "\n".join(bad)


def test_the_benchmark_tracer_binds_only_names_the_package_has():
    """``perfbench/tracer.py`` wraps package functions and methods by name
    (its ``FUNCTIONS`` and ``METHODS`` tables, read here with ``ast`` and not
    imported); a renamed or deleted one would break only a traced run.  A
    method must be defined on its class itself, since the tracer reads it
    from the class ``__dict__``, as it does ``QVector.dot``."""
    tables = {}
    for node in ast.parse((ROOT / "perfbench" / "tracer.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] in (["FUNCTIONS"], ["METHODS"]):
            tables[node.targets[0].id] = ast.literal_eval(node.value)
    names = [(mod, None, f) for mod, fns in tables["FUNCTIONS"].items() for f in fns]
    names += [*tables["METHODS"], ("linalg", "QVector", "dot")]
    bad = []
    for mod, cls, attr in names:
        owner = importlib.import_module(f"polyvar.{mod}")
        if cls is not None:
            owner = vars(owner).get(cls)
        if owner is None or not callable(vars(owner).get(attr)):
            bad.append(".".join(filter(None, (mod, cls, attr))))
    assert not bad, "the tracer binds names the package lacks: " + ", ".join(bad)
