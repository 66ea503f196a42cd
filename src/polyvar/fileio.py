"""Problem-file parsing, certificate serialization and report rendering.

Problem files are UTF-8 JSON objects.  Every scalar is an exact rational
written as a string "n/d" or "n", an optional sign and digits with no
decimal point, exponent or space (plain JSON integers are accepted too and
canonicalized).  The dims are non-negative JSON integers, "param_lipschitz"
is a JSON boolean and "label" a string.  Two kinds exist:

constraint system::

    {"kind": "constraint",
     "dims": {"l": 2, "n": 2, "m": 4},
     "Jp": [["-1","0"], ...],           # m x l, row major
     "Jx": [["1","0"], ...],            # m x n
     "g0": ["0","0","0","0"],
     "D": {"pieces": [{"A": [...], "b": [...], "E": [...], "e": [...]}]},
     "hessians": [[["-2","0"],["0","0"]], ...],   # optional, one n x n per row
     "param_lipschitz": true,
     "label": "..."}

variational system::

    {"kind": "variational",
     "dims": {"l": 1, "n": 2},
     "Jp": [...], "Jx": [...],
     "xbar": ["0","0"], "ybarstar": ["0","0"],
     "gamma": {"A": [...], "b": [...], "E": [...], "e": [...]},
     "param_lipschitz": true}

Each list of scalars is read in one pass: a string in the grammar (or a
JSON integer) becomes a (numerator, denominator) pair of ints, with no
``Fraction`` (the text of a small integer is one lookup, ``linalg._pair``).
``_ratios`` reads every list of scalars, so every message about a bad
scalar comes from one place.  The rows of ``gamma`` and
of each piece of ``D`` become homogenized integer rows (a, -b) and (g, -e),
each times one common denominator, and go to the polyhedron's integer
constructor; the Jacobians, the reference vectors and the Hessians are
``QMatrix``/``QVector`` values whose numerators over one denominator are
read off the pairs (``linalg._common``) with no second coercion.  Parsing
errors carry the JSON path of the offending field, and a field is checked
in full (its entries, then its length) before the next.
A key that is not a field of its object (of the file's kind, of ``dims``,
of ``D`` or of a polyhedron) is refused as an unknown field.

Every report ends with a JSON block (``Report.json_block``), written by the
standard library's C encoder as ``json.dumps(obj, sort_keys=True)``: one
line, keys sorted, the default separators ", " and ": ", and strings with
non-ASCII and control characters as ``\\uXXXX`` escapes.  ``python -m
json.tool`` indents it for reading.  Trace records hold cones, and the
encoder's hook writes each by its generators only (``cones.cone_plain``):
they are its identity, and its rows are the generators of its polar.
``certificate_from_dict`` reads each view back as its cone and refuses,
by its JSON path (``certificate.trace[0].adjoint_cone``), a view with any
key but dim, lin and rays or with rows that are not rationals of its
dimension, and a certificate or witness that lacks a key or holds a value
of the wrong shape (a witness's vectors are read by ``_ratios``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .certify import HOLDS, NOT_CERTIFIED, Certificate, ConstraintSystemSpec, VariationalSystemSpec, Witness
from .cones import PolyCone, cone_plain
from .linalg import IntVec, QMatrix, QVector, _common, _pair, vec_plain
from .sets import InfeasibleError, Polyhedron, UnionSet


class ProblemFileError(ValueError):
    pass


def _ratios(value, path: str, dim: int | None = None) -> list[tuple[int, int]]:
    """A list of scalars as (numerator, denominator) pairs, unreduced, in
    one pass: each entry is read once by ``linalg._pair``, with no Fraction,
    and the first one not in the grammar is named in the error."""
    if not isinstance(value, list):
        raise ProblemFileError(f"{path}: expected a list of rationals")
    out = []
    for i, x in enumerate(value):
        if type(x) is not int and type(x) is not str:  # bool is not int
            raise ProblemFileError(f"{path}[{i}]: expected a rational string like '1/2', got {x!r}")
        try:
            out.append(_pair(x))
        except (ValueError, ZeroDivisionError):  # "n/0", or past the int digit limit
            raise ProblemFileError(f"{path}[{i}]: not a rational 'n' or 'n/d': {x!r}") from None
    if dim is not None and len(out) != dim:
        raise ProblemFileError(f"{path}: expected length {dim}, got {len(out)}")
    return out


def _ratio_rows(value, path: str, nrows: int | None = None, ncols: int | None = None) -> list[list[tuple[int, int]]]:
    if not isinstance(value, list):
        raise ProblemFileError(f"{path}: expected a list of rows")
    rows = [_ratios(r, f"{path}[{i}]", ncols) for i, r in enumerate(value)]
    if nrows is not None and len(rows) != nrows:
        raise ProblemFileError(f"{path}: expected {nrows} rows, got {len(rows)}")
    return rows


def _vector(value, path: str, dim: int) -> QVector:
    return QVector(*_common(_ratios(value, path, dim)))


def _matrix(value, path: str, nrows: int, ncols: int) -> QMatrix:
    return QMatrix([QVector(*_common(r)) for r in _ratio_rows(value, path, nrows, ncols)])


def _cleared_rows(rows: list[list[tuple[int, int]]], rhs: list[tuple[int, int]]) -> list[IntVec]:
    """The integer rows (a, -b) of a.y <= b (or = b), each times the least
    common denominator of its entries."""
    return [_common([*row, (-num, den)])[0] for row, (num, den) in zip(rows, rhs)]


_FIELDS = {
    "constraint": ("kind", "dims", "Jp", "Jx", "g0", "D", "hessians", "param_lipschitz", "label"),
    "variational": ("kind", "dims", "Jp", "Jx", "xbar", "ybarstar", "gamma", "param_lipschitz", "label"),
}


def _known(value: dict, fields, path: str) -> None:
    """Reject a key that is none of ``fields``: a misspelled field would
    otherwise be read as absent."""
    for key in value:
        if key not in fields:
            raise ProblemFileError(f"{path}.{key}: unknown field")


def _polyhedron(value, path: str, dim: int) -> Polyhedron:
    if not isinstance(value, dict):
        raise ProblemFileError(f"{path}: expected an object with A/b/E/e")
    _known(value, ("A", "b", "E", "e"), path)
    a = _ratio_rows(value.get("A", []), f"{path}.A", ncols=dim if value.get("A") else None)
    b = _ratios(value.get("b", []), f"{path}.b")
    e_mat = _ratio_rows(value.get("E", []), f"{path}.E", ncols=dim if value.get("E") else None)
    e_rhs = _ratios(value.get("e", []), f"{path}.e")
    if len(a) != len(b):
        raise ProblemFileError(f"{path}: A has {len(a)} rows but b has {len(b)} entries")
    if len(e_mat) != len(e_rhs):
        raise ProblemFileError(f"{path}: E has {len(e_mat)} rows but e has {len(e_rhs)} entries")
    try:
        return Polyhedron._of_int_rows(dim, _cleared_rows(a, b), _cleared_rows(e_mat, e_rhs))
    except InfeasibleError:
        raise ProblemFileError(f"{path}: polyhedron is empty") from None


def _dim(dims: dict, key: str, source: str) -> int:
    value = dims[key]
    if type(value) is not int or value < 0:  # bool is a subclass of int
        raise ProblemFileError(f"{source}.dims.{key}: expected a non-negative integer, got {value!r}")
    return value


def problem_from_dict(data: dict, source: str = "<problem>"):
    if not isinstance(data, dict):
        raise ProblemFileError(f"{source}: expected a JSON object")
    kind = data.get("kind")
    if kind not in ("constraint", "variational"):
        raise ProblemFileError(f"{source}.kind: must be 'constraint' or 'variational'")
    _known(data, _FIELDS[kind], source)
    dims = data.get("dims")
    if not isinstance(dims, dict) or "l" not in dims or "n" not in dims:
        raise ProblemFileError(f"{source}.dims: need integer fields l, n" + (", m" if kind == "constraint" else ""))
    _known(dims, ("l", "n", "m") if kind == "constraint" else ("l", "n"), f"{source}.dims")
    l, n = _dim(dims, "l", source), _dim(dims, "n", source)
    lip = data.get("param_lipschitz", False)
    if not isinstance(lip, bool):
        raise ProblemFileError(f"{source}.param_lipschitz: expected true or false, got {lip!r}")
    label = data.get("label", "")
    if not isinstance(label, str):
        raise ProblemFileError(f"{source}.label: expected a string, got {label!r}")
    m = n  # the range dimension of a variational system
    if kind == "constraint":
        if "m" not in dims:
            raise ProblemFileError(f"{source}.dims.m: required for constraint systems")
        m = _dim(dims, "m", source)
    jp = _matrix(data.get("Jp"), f"{source}.Jp", nrows=m, ncols=l)
    jx = _matrix(data.get("Jx"), f"{source}.Jx", nrows=m, ncols=n)
    if kind == "constraint":
        g0 = _vector(data.get("g0"), f"{source}.g0", m)
        dd = data.get("D")
        if not isinstance(dd, dict) or not isinstance(dd.get("pieces"), list) or not dd["pieces"]:
            raise ProblemFileError(f"{source}.D.pieces: need a nonempty list of polyhedra")
        _known(dd, ("pieces",), f"{source}.D")
        pieces = [_polyhedron(p, f"{source}.D.pieces[{i}]", m) for i, p in enumerate(dd["pieces"])]
        hessians = None
        if data.get("hessians") is not None:
            if not isinstance(data["hessians"], list):
                raise ProblemFileError(f"{source}.hessians: expected a list of matrices")
            hessians = [
                _matrix(h, f"{source}.hessians[{i}]", nrows=n, ncols=n)
                for i, h in enumerate(data["hessians"])
            ]
            for i, h in enumerate(hessians):
                if not h.is_symmetric():
                    raise ProblemFileError(f"{source}.hessians[{i}]: expected a symmetric matrix")
            if len(hessians) != m:
                raise ProblemFileError(f"{source}.hessians: expected {m} matrices, got {len(hessians)}")
    else:
        xbar = _vector(data.get("xbar"), f"{source}.xbar", n)
        ybarstar = _vector(data.get("ybarstar"), f"{source}.ybarstar", n)
        gamma = _polyhedron(data.get("gamma"), f"{source}.gamma", n)
    try:
        if kind == "constraint":
            return ConstraintSystemSpec(l, n, m, jp, jx, g0, UnionSet(pieces), hessians, lip, label)
        return VariationalSystemSpec(l, n, jp, jx, gamma, xbar, ybarstar, lip, label)
    except ValueError as exc:
        raise ProblemFileError(f"{source}: {exc}") from None


def parse_problem(path: str):
    """Load and validate a problem file; raises ProblemFileError with the
    offending JSON path on any defect."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ProblemFileError(f"{path}: no such file") from None
    except OSError as exc:  # a directory, no read permission, ...
        raise ProblemFileError(f"{path}: cannot read ({exc.strerror or exc})") from None
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise ProblemFileError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None
    except RecursionError:
        raise ProblemFileError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # an integer literal beyond the int digit limit
        raise ProblemFileError(f"{path}: unreadable JSON ({exc})") from None
    return problem_from_dict(data, source=path)


def _mat_plain(m: QMatrix) -> list[list[str]]:
    return [vec_plain(r) for r in m.rows]


def _poly_plain(p: Polyhedron) -> dict:
    return {
        "A": [vec_plain(a) for a in p.A],
        "b": [str(x) for x in p.b],
        "E": [vec_plain(g) for g in p.E],
        "e": [str(x) for x in p.e],
    }


def problem_to_dict(spec) -> dict:
    """Serialize a spec back to the problem-file shape (canonicalized)."""
    constraint = spec.kind == "constraint"
    out = {
        "kind": spec.kind,
        "dims": {"l": spec.l, "n": spec.n, "m": spec.m} if constraint else {"l": spec.l, "n": spec.n},
        "Jp": _mat_plain(spec.Jp),
        "Jx": _mat_plain(spec.Jx),
    }
    if constraint:
        out["g0"] = vec_plain(spec.g0)
        out["D"] = {"pieces": [_poly_plain(p) for p in spec.D.pieces]}
    else:
        out["xbar"] = vec_plain(spec.xbar)
        out["ybarstar"] = vec_plain(spec.ybarstar)
        out["gamma"] = _poly_plain(spec.gamma)
    out["param_lipschitz"] = spec.param_lipschitz
    out["label"] = spec.label
    if constraint and spec.hessians is not None:
        out["hessians"] = [_mat_plain(h) for h in spec.hessians]
    return out


# -- certificates -------------------------------------------------------------


_VECTORS = ("vstar", "u", "q")  # a witness's vectors, in field order


def _witness_plain(w: Witness) -> dict:
    return {"stratum": w.stratum, **{k: None if getattr(w, k) is None else vec_plain(getattr(w, k)) for k in _VECTORS}}


def certificate_to_dict(cert: Certificate) -> dict:
    return {
        "status": cert.status,
        "refuted": cert.refuted,
        "witnesses": [_witness_plain(w) for w in cert.witnesses],
        "rates": [[k, v] for k, v in cert.rates] if cert.rates is not None else None,
        "notes": list(cert.notes),
        "trace": list(cert.trace),  # records hold cones: json_block writes their views
    }


def _field(obj, key: str, path: str, test=None, shape: str = ""):
    """``obj[key]``, or a ValueError naming the JSON path of a key that is missing or fails ``test``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected an object")
    if key not in obj:
        raise ValueError(f"{path}.{key}: missing")
    if test is not None and not test(obj[key]):
        raise ValueError(f"{path}.{key}: expected {shape}")
    return obj[key]


def _is_list(value, item=lambda _: True) -> bool:
    """Whether the value is a JSON list of items that pass ``item``."""
    return isinstance(value, list) and all(map(item, value))


def _vec_read(obj, key: str, path: str) -> QVector | None:
    v = _field(obj, key, path)
    return None if v is None else QVector(*_common(_ratios(v, f"{path}.{key}")))


def _cones_read(value, path: str):
    """A trace value with each cone view (the one kind of object in a record
    with a ``dim`` key) read back as its cone."""
    if isinstance(value, list):
        return [_cones_read(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if not isinstance(value, dict):
        return value
    if "dim" not in value:
        return {k: _cones_read(v, f"{path}.{k}") for k, v in value.items()}
    if sorted(value) != ["dim", "lin", "rays"]:
        raise ValueError(f"{path}: a cone view has the keys dim, lin and rays only, got {sorted(value)}")
    dim = _field(value, "dim", path, lambda d: type(d) is int and d >= 0, "a non-negative integer")
    rays, lin = (_field(value, k, path, lambda v: _is_list(v, _is_list), "a list of lists") for k in ("rays", "lin"))
    try:
        return PolyCone.from_generators(dim, rays, lin)
    except (TypeError, ValueError, ZeroDivisionError) as exc:  # a row of the wrong length, or not of rationals
        raise ValueError(f"{path}: {exc}") from None


def _witness_read(w, path: str) -> Witness:
    return Witness(_field(w, "stratum", path, lambda v: type(v) is str, "a string"), *(_vec_read(w, k, path) for k in _VECTORS))


def _is_rates(value) -> bool:
    return value is None or _is_list(value, lambda r: _is_list(r) and list(map(type, r)) == [str, bool])


def certificate_from_dict(data: dict) -> Certificate:
    """The certificate of a JSON block's ``certificate`` object; a missing
    key, a value of the wrong shape or a bad cone view raises ValueError
    naming its JSON path."""
    c = "certificate"
    status = _field(data, "status", c, lambda v: v in (HOLDS, NOT_CERTIFIED), f"{HOLDS!r} or {NOT_CERTIFIED!r}")
    witnesses = _field(data, "witnesses", c, _is_list, "a list")
    rates = _field(data, "rates", c, _is_rates, "null or a list of [string, bool] pairs")
    return Certificate(
        status=status,
        witnesses=tuple(_witness_read(w, f"{c}.witnesses[{i}]") for i, w in enumerate(witnesses)),
        rates=tuple(map(tuple, rates)) if rates is not None else None,
        refuted=_field(data, "refuted", c, lambda v: type(v) is bool, "true or false"),
        trace=tuple(_cones_read(_field(data, "trace", c, _is_list, "a list"), f"{c}.trace")),
        notes=tuple(_field(data, "notes", c, lambda v: _is_list(v, lambda x: type(x) is str), "a list of strings")),
    )


@dataclass(frozen=True)
class Report:
    """Human-readable derivation text plus the machine-readable certificate."""

    check: str
    certificate: Certificate
    text: str

    def json_block(self) -> str:
        block = {"check": self.check, "certificate": certificate_to_dict(self.certificate)}
        # records may be shared but never hold themselves: no cycle check
        return json.dumps(block, sort_keys=True, default=_view, check_circular=False)


def _view(o) -> dict:
    """The encoder's hook: a cone is written as its view, anything else is a defect."""
    if isinstance(o, PolyCone):
        return cone_plain(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def _cone_line(c: PolyCone) -> str:
    view = cone_plain(c)
    parts = [key + " " + " ".join("(" + ",".join(g) + ")" for g in view[key]) for key in ("rays", "lin") if view[key]]
    return ", ".join(parts) or "{0}"


def _render_trace(trace, verbosity: str) -> list[str]:
    lines: list[str] = []
    if verbosity == "off":
        return lines
    for rec in trace:
        if "phase" in rec:
            lines.append(f"[{rec['phase']}]")
            if "covered" in rec:
                lines.append(f"  parameter directions covered: {rec['covered']}")
            for case in rec.get("cases", []):
                lines.append(f"  case: {case['case']}")
                for entry in case["adjoint_inclusions"]:
                    s = entry["sample_direction"]
                    lines.append(
                        "    direction q=(" + ",".join(s["q"]) + "), u=(" + ",".join(s["u"]) + ")"
                        f" -> adjoint cone {_cone_line(entry['adjoint_cone'])}: {entry['outcome']}"
                    )
        elif label := rec.get("stratum") or rec.get("piece"):
            lines.append(f"  stratum {label}: {rec.get('outcome', '')}")
            if verbosity == "full":
                for key in ("normal_cone", "dual_test_cone", "adjoint_cone", "joint_adjoint_cone"):
                    if key in rec:
                        lines.append(f"    {key}: {_cone_line(rec[key])}")
    return lines


def render_report(check: str, cert: Certificate, verbosity: str = "summary") -> Report:
    lines = [f"check: {check}", f"status: {cert.status}" + (" (refuted)" if cert.refuted else "")]
    if cert.rates is not None:
        for k, v in cert.rates:
            lines.append(f"rate {k}: {v}")
    for w in cert.witnesses:
        bits = [f"{name}={v!r}" for name, v in (("v*", w.vstar), ("u", w.u), ("q", w.q)) if v is not None]
        lines.append("  " + ", ".join([f"witness in stratum [{w.stratum}]", *bits]))
    for note in cert.notes:
        lines.append(f"note: {note}")
    lines.extend(_render_trace(cert.trace, verbosity))
    return Report(check, cert, "\n".join(lines))
