import argparse
import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import counting_dd
from polyvar.certify import (
    Certificate,
    ConstraintSystemSpec,
    PreconditionError,
    VariationalSystemSpec,
    check_aubin,
    check_calmness_constraint,
    check_foscms,
)
from polyvar import cli
from polyvar.cli import bundled_problem_path, run_command
from polyvar.cones import PolyCone, cone_plain
from polyvar.fileio import (
    ProblemFileError,
    Report,
    _ratios,
    certificate_from_dict,
    certificate_to_dict,
    parse_problem,
    problem_from_dict,
    problem_to_dict,
    render_report,
)
from polyvar.linalg import QMatrix, QVector
from polyvar.sets import InfeasibleError, Polyhedron, UnionSet


def ex4_dict():
    return json.load(open(bundled_problem_path("ex4.json")))


def ex5_dict():
    return json.load(open(bundled_problem_path("ex5.json")))


def malformed_ex4():
    """(JSON path the error must name, ex4 data with that field malformed)."""
    cases = [("<problem>:", [ex4_dict()])]  # the top level must be an object
    for path, edit in (
        (".dims.l", lambda d: d["dims"].update(l="x")),
        (".dims.n", lambda d: d["dims"].update(n=2.5)),  # not truncated to 2
        (".dims.m", lambda d: d["dims"].update(m=True)),
        (".dims.l", lambda d: d["dims"].update(l=-1)),
        (".D.pieces[0].b", lambda d: d["D"]["pieces"][0].update(b="00")),  # not two "0"s
        (".D.pieces[0].e", lambda d: d["D"]["pieces"][0].update(e="")),
        # Fraction() alone would spend seconds building a 10^7-digit integer
        (".D.pieces[0].b[0]", lambda d: d["D"]["pieces"][0]["b"].__setitem__(0, "1e10000000")),
        (".hessians", lambda d: d.update(hessians={"0": []})),
        (".hessians[1]", lambda d: d["hessians"].__setitem__(1, [["0", "1"], ["0", "0"]])),
        (".param_lipschitz", lambda d: d.update(param_lipschitz="false")),  # bool("false") is True
        (".label", lambda d: d.update(label=3)),
        # a misspelled field is unknown, not absent
        (".hessian:", lambda d: d.update(hessian=d.pop("hessians"))),
        (".param_lipshitz:", lambda d: d.update(param_lipshitz=d.pop("param_lipschitz"))),
        (".xbar:", lambda d: d.update(xbar=["0", "0"])),  # a field of the other kind
        (".dims.k:", lambda d: d["dims"].update(k=1)),
        (".D.piece:", lambda d: d["D"].update(piece=[])),
        (".D.pieces[0].B:", lambda d: d["D"]["pieces"][0].update(B=[])),
    ):
        data = ex4_dict()
        edit(data)
        cases.append((path, data))
    return cases


def unreadable_files(tmp_path):
    """Problem files that ``json.load`` cannot read: Latin-1 text, bytes that
    are not UTF-8, arrays nested deeper than the recursion limit, and an
    integer literal longer than the int digit limit."""
    files = {
        "latin1.json": '{"kind": "constraint", "label": "café"}'.encode("latin-1"),
        "binary.json": bytes([0xFF, 0xFE, 0x80, 0x00, 0xC3]),
        "deep.json": b"[" * 200_000,
        "long-int.json": b'{"kind": ' + b"1" * 5000 + b"}",
    }
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    return [tmp_path / name for name in files]


def test_parse_bundled_examples():
    for name, kind in (("ex3.json", "constraint"), ("ex4.json", "constraint"), ("ex5.json", "variational")):
        spec = parse_problem(bundled_problem_path(name))
        assert spec.kind == kind
        assert spec.param_lipschitz


def test_an_unasserted_parameter_bound_reads_the_same_built_or_parsed():
    # a spec built without param_lipschitz and a file without the field
    # assert nothing, so both default to False and calmness says the same
    data, vdata = ex4_dict(), ex5_dict()
    del data["param_lipschitz"], vdata["param_lipschitz"]
    parsed = problem_from_dict(data)
    built = ConstraintSystemSpec(parsed.l, parsed.n, parsed.m, parsed.Jp, parsed.Jx, parsed.g0, parsed.D, parsed.hessians)
    notes = check_calmness_constraint(built).notes
    assert notes == check_calmness_constraint(parsed).notes
    assert "param_lipschitz asserted by user: False" in notes
    vparsed = problem_from_dict(vdata)
    vbuilt = VariationalSystemSpec(
        vparsed.l, vparsed.n, vparsed.Jp, vparsed.Jx, vparsed.gamma, vparsed.xbar, vparsed.ybarstar
    )
    assert vbuilt.param_lipschitz is vparsed.param_lipschitz is False


def test_round_trip_is_field_identical():
    for name in ("ex3.json", "ex4.json", "ex5.json"):
        spec = parse_problem(bundled_problem_path(name))
        d = problem_to_dict(spec)
        spec2 = problem_from_dict(d)
        assert problem_to_dict(spec2) == d


def test_unreduced_rationals_are_canonicalized():
    data = ex4_dict()
    data["g0"] = ["2/4", "0"]
    with pytest.raises(ProblemFileError):
        # (1/2, 0) is outside D = R^2_-, and the message names the violation
        problem_from_dict(data)
    data["g0"] = ["-2/4", "0"]
    spec = problem_from_dict(data)
    assert spec.g0 == QVector(["-1/2", "0"])
    assert problem_to_dict(spec)["g0"] == ["-1/2", "0"]


def test_reference_point_outside_d_reports_pieces():
    data = ex4_dict()
    data["g0"] = ["1", "1"]
    with pytest.raises(ProblemFileError) as err:
        problem_from_dict(data)
    assert "piece 0" in str(err.value)


def test_parse_error_paths(tmp_path):
    bad = ex4_dict()
    bad["Jx"] = [["1", "oops"], ["0", "1"]]
    with pytest.raises(ProblemFileError) as err:
        problem_from_dict(bad)
    assert ".Jx[0][1]" in str(err.value)
    with pytest.raises(ProblemFileError):
        problem_from_dict({"kind": "nonsense"})
    with pytest.raises(ProblemFileError):
        parse_problem("/nonexistent/problem.json")
    with pytest.raises(ProblemFileError):
        parse_problem(str(tmp_path))
    for path, data in malformed_ex4():
        with pytest.raises(ProblemFileError) as err:
            problem_from_dict(data)
        assert path in str(err.value)
    for path in unreadable_files(tmp_path):
        with pytest.raises(ProblemFileError) as err:
            parse_problem(str(path))
        assert str(path) in str(err.value)


def test_scalar_grammar():
    # an optional sign, digits, and an optional "/digits"; JSON ints pass too
    assert _ratios(["+2/4", "-3", 7], "x") == [(2, 4), (-3, 1), (7, 1)]
    for text in ("1e10000000", "1.5", " 1", "1 ", "1_000", "0x10", "1/-2", "/2", "", "\u0663", "inf", "1/0"):
        start = time.perf_counter()
        with pytest.raises(ProblemFileError) as err:
            _ratios(["1", text], "$.b")
        assert time.perf_counter() - start < 1
        assert str(err.value) == f"$.b[1]: not a rational 'n' or 'n/d': {text!r}"
    for value in (True, 1.5, None, ["1"]):
        with pytest.raises(ProblemFileError) as err:
            _ratios([value], "$.b")
        assert str(err.value) == f"$.b[0]: expected a rational string like '1/2', got {value!r}"


BAD_SCALARS = ("1e10000000", "1.5", " 1", "1 ", "1_000", "0x10", "1/-2", "/2", "", "\u0663", "inf", "1/0")
LONG_NUMERATOR = "1" * 5000  # past CPython's int digit limit: int() raises ValueError


@pytest.mark.parametrize("text", BAD_SCALARS + (LONG_NUMERATOR, LONG_NUMERATOR + "/3"))
def test_bad_scalars_name_their_path_wherever_they_sit(text):
    # every field is read by _ratios, so each gives its message, with the
    # entry's path, and fast
    for load, place, path in (
        (ex4_dict, lambda d: d["Jx"][0].__setitem__(1, text), "<problem>.Jx[0][1]"),
        (ex4_dict, lambda d: d["g0"].__setitem__(1, text), "<problem>.g0[1]"),
        (ex5_dict, lambda d: d["gamma"]["A"][1].__setitem__(0, text), "<problem>.gamma.A[1][0]"),
        (ex5_dict, lambda d: d["gamma"]["b"].__setitem__(1, text), "<problem>.gamma.b[1]"),
        (ex4_dict, lambda d: d["D"]["pieces"][0]["b"].__setitem__(0, text), "<problem>.D.pieces[0].b[0]"),
    ):
        data = load()
        place(data)
        start = time.perf_counter()
        with pytest.raises(ProblemFileError) as err:
            problem_from_dict(data)
        assert time.perf_counter() - start < 1
        assert str(err.value) == f"{path}: not a rational 'n' or 'n/d': {text!r}"


def test_a_row_is_checked_in_full_before_the_next():
    data = ex5_dict()
    data["gamma"]["A"] = [["1"], ["x", "1"]]
    with pytest.raises(ProblemFileError) as err:
        problem_from_dict(data)
    assert str(err.value) == "<problem>.gamma.A[0]: expected length 2, got 1"
    data["gamma"]["A"] = [["1", "x"], ["1"]]
    with pytest.raises(ProblemFileError) as err:
        problem_from_dict(data)
    assert str(err.value) == "<problem>.gamma.A[0][1]: not a rational 'n' or 'n/d': 'x'"


@st.composite
def spelled(draw, value: F):
    """One way a problem file may write a rational: a JSON int, or a string
    with a "+" sign, "-0", leading zeros or an unreduced "n/d"."""
    if value.denominator == 1 and draw(st.booleans()):
        return int(value)
    k = draw(st.integers(1, 3))
    num, den = abs(value.numerator) * k, value.denominator * k
    sign = "-" if value < 0 or (value == 0 and draw(st.booleans())) else draw(st.sampled_from(["", "+"]))
    zeros = "0" * draw(st.integers(0, 2))
    tail = "" if den == 1 and draw(st.booleans()) else f"/{zeros}{den}"
    return f"{sign}{zeros}{num}{tail}"


@st.composite
def problem_files(draw):
    """(problem dict, the same data as Fractions) for either kind, with
    fractional Jacobians, zero rows, E-only and empty polyhedra, and
    reference points that often, but not always, make a valid spec."""
    value = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3]))

    def vector(dim, values=value):
        vals = draw(st.lists(values, min_size=dim, max_size=dim))
        return [draw(spelled(x)) for x in vals], vals

    def matrix(nrows, ncols, values=value):
        rows = [vector(ncols, values) for _ in range(nrows)]
        return [r for r, _ in rows], [v for _, v in rows]

    anchored = draw(st.booleans())  # reference point 0, inside every polyhedron

    def polyhedron(dim):
        A, Av = matrix(draw(st.integers(0, 3)), dim)
        if A and draw(st.booleans()):
            A[0], Av[0] = [0] * dim, [F(0)] * dim  # a zero row
        b, bv = vector(len(A), st.sampled_from([F(0), F(1), F(2)]) if anchored else value)
        E, Ev = matrix(draw(st.integers(0, 1)), dim)
        e, ev = vector(len(E), st.just(F(0)) if anchored else value)
        return {"A": A, "b": b, "E": E, "e": e}, (Av, bv, Ev, ev)

    l, n = draw(st.integers(0, 2)), draw(st.integers(1, 3))
    label = draw(st.sampled_from(["", "drawn"]))
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        Jp, Jpv = matrix(m, l)
        Jx, Jxv = matrix(m, n)
        g0, g0v = vector(m, st.just(F(0)) if anchored else value)
        pieces = [polyhedron(m) for _ in range(draw(st.integers(1, 2)))]
        data = {
            "kind": "constraint", "dims": {"l": l, "n": n, "m": m}, "Jp": Jp, "Jx": Jx, "g0": g0,
            "D": {"pieces": [p for p, _ in pieces]}, "param_lipschitz": True, "label": label,
        }
        values = {"Jp": Jpv, "Jx": Jxv, "g0": g0v, "pieces": [v for _, v in pieces], "hessians": None}
        if draw(st.booleans()):
            hessians = []
            for _ in range(m):
                upper = [[draw(value) for _ in range(n)] for _ in range(n)]
                hessians.append([[upper[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)])
            data["hessians"] = [[[draw(spelled(x)) for x in row] for row in h] for h in hessians]
            values["hessians"] = hessians
        return data, values
    Jp, Jpv = matrix(n, l)
    Jx, Jxv = matrix(n, n)
    xbar, xv = vector(n, st.just(F(0)) if anchored else value)
    ystar, yv = vector(n, st.just(F(0)) if draw(st.booleans()) else value)
    gamma, gv = polyhedron(n)
    data = {
        "kind": "variational", "dims": {"l": l, "n": n}, "Jp": Jp, "Jx": Jx, "xbar": xbar,
        "ybarstar": ystar, "gamma": gamma, "param_lipschitz": False, "label": label,
    }
    return data, {"Jp": Jpv, "Jx": Jxv, "xbar": xv, "ybarstar": yv, "gamma": gv}


def _rational_spec(data, values):
    """The spec of a drawn file built by the public rational constructors,
    or the ProblemFileError message the parser must give instead."""
    source = "<problem>"
    dims = data["dims"]
    try:
        if data["kind"] == "constraint":
            pieces = []
            for i, (A, b, E, e) in enumerate(values["pieces"]):
                try:
                    pieces.append(Polyhedron(dims["m"], A, b, E, e))
                except InfeasibleError:
                    return f"{source}.D.pieces[{i}]: polyhedron is empty"
            hessians = values["hessians"]
            return ConstraintSystemSpec(
                dims["l"], dims["n"], dims["m"], QMatrix(values["Jp"]), QMatrix(values["Jx"]), QVector(values["g0"]),
                UnionSet(pieces), None if hessians is None else [QMatrix(h) for h in hessians],
                param_lipschitz=True, label=data["label"],
            )
        try:
            gamma = Polyhedron(dims["n"], *values["gamma"])
        except InfeasibleError:
            return f"{source}.gamma: polyhedron is empty"
        return VariationalSystemSpec(
            dims["l"], dims["n"], QMatrix(values["Jp"]), QMatrix(values["Jx"]), gamma,
            QVector(values["xbar"]), QVector(values["ybarstar"]), param_lipschitz=False, label=data["label"],
        )
    except ValueError as exc:
        return f"{source}: {exc}"


def _polyhedra(spec):
    return spec.D.pieces if spec.kind == "constraint" else (spec.gamma,)


@settings(max_examples=200, deadline=None)
@given(problem_files())
def test_parsed_problems_equal_the_rational_constructors_hypothesis(drawn):
    # integer rows straight from the strings give the polyhedra and specs of
    # the public rational constructors, and the same errors
    data, values = drawn
    want = _rational_spec(data, values)
    if isinstance(want, str):
        with pytest.raises(ProblemFileError) as err:
            problem_from_dict(data)
        assert str(err.value) == want
        return
    got = problem_from_dict(data)
    fields = ("Jp", "Jx", "g0", "hessians") if got.kind == "constraint" else ("Jp", "Jx", "xbar", "ybarstar")
    for name in fields:
        assert getattr(got, name) == getattr(want, name)
    for v in (got.Jp, got.Jx, *(getattr(got, "hessians", None) or ())):
        assert all(type(x) is F for r in v.rows for x in r)
    for p, q in zip(_polyhedra(got), _polyhedra(want), strict=True):
        assert p == q and p.key() == q.key()
        assert (p.A, p.b, p.E, p.e) == (q.A, q.b, q.E, q.e)
    plain = problem_to_dict(got)
    assert plain == problem_to_dict(want)
    assert problem_to_dict(problem_from_dict(plain)) == plain


def test_variational_validation():
    data = ex5_dict()
    data["ybarstar"] = ["0", "1"]  # not a normal vector to gamma at 0
    with pytest.raises(ProblemFileError) as err:
        problem_from_dict(data)
    assert "ybarstar is not a normal vector to gamma at xbar" in str(err.value)


def test_jp_columns_are_checked_without_parameters(tmp_path, capsys):
    # with l = 0 every row of Jp must be empty; a row of length 1 is named by its path
    for data in (ex4_dict(), ex5_dict()):
        data["dims"]["l"] = 0
        with pytest.raises(ProblemFileError) as err:
            problem_from_dict(data)
        assert str(err.value) == "<problem>.Jp[0]: expected length 0, got 1"
        bad = tmp_path / f"{data['kind']}.json"
        bad.write_text(json.dumps(data))
        assert run_command(["certify", str(bad), "--check", "aubin"]) == 3
        assert capsys.readouterr().err == f"error: {bad}.Jp[0]: expected length 0, got 1\n"
        data["Jp"] = [[] for _ in data["Jp"]]
        assert problem_from_dict(data).l == 0


def test_each_tangent_cone_is_built_once(capsys):
    # Parsing ex5 converts gamma's homogenization cone once (its other side
    # is read off the incidence) and builds the normal cone that validates
    # ybarstar (gamma at xbar = 0); the critical cone is a face of that
    # cone's polar, read off its rays, so graph_point() converts nothing.
    ex3, ex5 = bundled_problem_path("ex3.json"), bundled_problem_path("ex5.json")
    with counting_dd() as calls:
        parse_problem(ex5).graph_point()
    assert len(calls) == 2
    # `polyvar cones` converts nothing more: the normal cone at --at 0,0 is
    # the one built while parsing, and the rows of its polar (the tangent
    # cone) and of the critical cone are read off their incidence.
    with counting_dd() as calls:
        assert run_command(["cones", ex5, "--at", "0,0", "--ystar", "0,0"]) == 0
    assert len(calls) == 2
    # On ex3 each piece that holds the point adds one conversion, its normal
    # cone; the union tangent cone reuses the pieces' tangent cones.
    with counting_dd() as parsing:
        pieces = len(parse_problem(ex3).D.pieces_containing(QVector([0, 0, 0, 0])))
    with counting_dd() as calls:
        assert run_command(["cones", ex3, "--at", "0,0,0,0", "--ystar", "0,0,0,0"]) == 0
    assert pieces > 1 and len(calls) == len(parsing) + pieces
    capsys.readouterr()


def test_certificates_of_one_spec_share_cone_views():
    # calmness holds check_foscms's records, and Phase B of check_aubin holds
    # the views of the normal cones and dual test cones of the strata it
    # reads (the same cones, memoised per spec), not copies
    spec = parse_problem(bundled_problem_path("ex3.json"))
    certs = (check_foscms(spec), check_calmness_constraint(spec, "first"), check_aubin(spec, "corollary"))

    def views(o):
        if isinstance(o, dict) and o.keys() == {"dim", "lin", "rays"}:
            return [o]
        items = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
        return [v for item in items for v in views(item)]

    found = [{id(v): v for v in views(cert.trace)} for cert in certs]
    assert found[0] and found[0].keys() <= found[1].keys()
    phase_b = next(t for t in certs[2].trace if t["phase"].startswith("B"))
    held = {c["case"] for c in phase_b["cases"]}
    read = {id(v) for rec in certs[0].trace if rec["stratum"] in held for v in views(rec)}
    assert read and read <= found[2].keys()
    for check, cert in zip(("foscms", "calmness", "aubin"), certs):
        block = render_report(check, cert, "full").json_block()
        assert block == json.dumps(json.loads(block), sort_keys=True)
        assert certificate_from_dict(json.loads(block)["certificate"]) == cert


# The JSON block of check_aubin on G(p, x) = p + x with D = R_- when each
# cone view also wrote its rows ("ineqs" and "eqs") and the trace ended with
# the standard (zero-direction) adjoint inclusion's record.
_BOTH_SIDES_BLOCK = (
    '{"certificate": {"notes": [], "rates": null, "refuted": false, "status": "holds", "witnesses": [], "trace": ['
    '{"covered": true, "phase": "A (solvability for every parameter direction)", '
    '"projections": [{"dim": 1, "eqs": [], "ineqs": [], "lin": [["1"]], "rays": []}], '
    '"solution_pieces": [{"dim": 2, "eqs": [], "ineqs": [["1", "1"]], "lin": [["1", "-1"]], "rays": [["-1", "-1"]]}]}, '
    '{"cases": ['
    '{"adjoint_inclusions": [{"adjoint_cone": {"dim": 1, "eqs": [["1"]], "ineqs": [], "lin": [], "rays": []}, '
    '"adjoint_stratum": "P0@F[] / cell 0", '
    '"coderivative_piece": {"dim": 1, "eqs": [["1"]], "ineqs": [], "lin": [], "rays": []}, '
    '"outcome": "ok", "sample_direction": {"q": ["-1"], "u": ["-1"]}, "trivial": true}], "case": "P0@F[]"}, '
    '{"adjoint_inclusions": [{"adjoint_cone": {"dim": 1, "eqs": [["1"]], "ineqs": [], "lin": [], "rays": []}, '
    '"adjoint_stratum": "P0@F[0] / cell 0", '
    '"coderivative_piece": {"dim": 1, "eqs": [], "ineqs": [["-1"]], "lin": [], "rays": [["1"]]}, '
    '"outcome": "ok", "sample_direction": {"q": ["1"], "u": ["-1"]}, "trivial": true}], "case": "P0@F[0]"}'
    '], "mode": "corollary", "phase": "B (direction-stratified adjoint inclusions)"}, '
    '{"phase": "standard adjoint inclusion (zero direction)", "pieces": ['
    '{"adjoint_cone": {"dim": 1, "eqs": [["1"]], "ineqs": [], "lin": [], "rays": []}, "nontrivial_generators": [], '
    '"piece": {"dim": 1, "eqs": [], "ineqs": [["-1"]], "lin": [], "rays": [["1"]]}}]}'
    ']}, "check": "aubin"}'
)


def test_a_certificate_whose_views_wrote_both_sides_still_loads():
    spec = ConstraintSystemSpec(l=1, n=1, m=1, Jp=[[1]], Jx=[[1]], g0=[0], D=UnionSet([Polyhedron(1, A=[[1]], b=[0])]))
    old = certificate_from_dict(json.loads(_BOTH_SIDES_BLOCK)["certificate"])
    new = check_aubin(spec)
    assert old.holds() and old.witnesses == new.witnesses == ()
    assert old.trace[2]["phase"] == "standard adjoint inclusion (zero direction)"
    # the old block has the new one's records with each view's rows, plus the last record

    def generators_only(o):
        if isinstance(o, dict):
            return {k: generators_only(v) for k, v in o.items() if not ("dim" in o and k in ("ineqs", "eqs"))}
        return [generators_only(v) for v in o] if isinstance(o, list) else o

    want = json.loads(render_report("aubin", new, "full").json_block())["certificate"]
    assert generators_only(certificate_to_dict(old)) == {**want, "trace": want["trace"] + [generators_only(old.trace[2])]}
    # and it renders as the new one, with the last record's header line
    text = render_report("aubin", old, "full").text
    assert text == render_report("aubin", new, "full").text + "\n[standard adjoint inclusion (zero direction)]"


def test_json_writer_rejects_non_plain_values():
    # certificates are exact: a Fraction or a vector in a trace is a defect
    for value in ({1, 2}, [frozenset()], F(1, 2), QVector([1]), {"a": 1, 2: "b"}):
        with pytest.raises(TypeError):
            Report("check", Certificate("holds", trace=({"x": value},)), "").json_block()


def test_certificate_json_round_trip():
    spec = parse_problem(bundled_problem_path("ex3.json"))
    for cert in (
        check_foscms(spec),
        check_calmness_constraint(spec, "first"),
        check_aubin(spec, "corollary"),
    ):
        blob = json.dumps(certificate_to_dict(cert), sort_keys=True)
        back = certificate_from_dict(json.loads(blob))
        assert back == cert


def test_report_renders_and_embeds_json():
    spec = parse_problem(bundled_problem_path("ex5.json"))
    cert = check_aubin(spec, "corollary")
    rep = render_report("aubin", cert, "full")
    assert "status: holds" in rep.text
    payload = json.loads(rep.json_block())
    assert certificate_from_dict(payload["certificate"]) == cert


def _edited(base, edit) -> str:
    data = base()
    edit(data)
    return json.dumps(data)


# (the error after the file name, the file's text)
MALFORMED_FILES = (
    (".Jp: expected a list of rows", lambda: _edited(ex4_dict, lambda d: d.update(Jp="1"))),
    (".Jx: expected 2 rows, got 1", lambda: _edited(ex4_dict, lambda d: d.update(Jx=[["0", "1"]]))),
    (".gamma: expected an object with A/b/E/e", lambda: _edited(ex5_dict, lambda d: d.update(gamma=[]))),
    (
        ".D.pieces[0]: A has 2 rows but b has 1 entries",
        lambda: _edited(ex4_dict, lambda d: d["D"]["pieces"][0].update(b=["0"])),
    ),
    (
        ".D.pieces[0]: E has 1 rows but e has 0 entries",
        lambda: _edited(ex4_dict, lambda d: d["D"]["pieces"][0].update(E=[["1", "1"]], e=[])),
    ),
    (".dims: need integer fields l, n, m", lambda: _edited(ex4_dict, lambda d: d.update(dims={"l": 1, "m": 2}))),
    (".dims: need integer fields l, n", lambda: _edited(ex5_dict, lambda d: d.update(dims={"n": 2}))),
    (".dims.m: required for constraint systems", lambda: _edited(ex4_dict, lambda d: d["dims"].pop("m"))),
    (".D.pieces: need a nonempty list of polyhedra", lambda: _edited(ex4_dict, lambda d: d["D"].update(pieces=[]))),
    (".hessians: expected 2 matrices, got 1", lambda: _edited(ex4_dict, lambda d: d["hessians"].pop())),
    (".hessian: unknown field", lambda: _edited(ex4_dict, lambda d: d.update(hessian=d.pop("hessians")))),
    (".g0: unknown field", lambda: _edited(ex5_dict, lambda d: d.update(g0=["0", "0"]))),
    (".dims.m: unknown field", lambda: _edited(ex5_dict, lambda d: d["dims"].update(m=2))),
    (".gamma.a: unknown field", lambda: _edited(ex5_dict, lambda d: d["gamma"].update(a=[]))),
    (": invalid JSON at line 2: Expecting property name enclosed in double quotes", lambda: "{\n"),
)


@pytest.mark.parametrize("message, text", MALFORMED_FILES, ids=[m for m, _ in MALFORMED_FILES])
def test_malformed_problem_files_name_the_path_and_exit_3(tmp_path, capsys, message, text):
    path = tmp_path / "problem.json"
    path.write_text(text())
    with pytest.raises(ProblemFileError) as err:
        parse_problem(str(path))
    assert str(err.value) == f"{path}{message}"
    assert run_command(["certify", str(path), "--check", "foscms"]) == 3
    assert capsys.readouterr() == ("", f"error: {err.value}\n")


def test_cli_exit_codes(capsys, tmp_path):
    ex4 = bundled_problem_path("ex4.json")
    ex5 = bundled_problem_path("ex5.json")
    assert run_command(["certify", ex5, "--check", "aubin"]) == 0
    assert run_command(["certify", ex4, "--check", "foscms"]) == 1
    assert run_command(["certify", ex4, "--check", "nope"]) == 3
    assert run_command(["certify", "/missing.json", "--check", "foscms"]) == 3
    assert run_command(["certify", str(tmp_path), "--check", "foscms"]) == 3  # a directory
    assert run_command(["certify", ex5, "--check", "foscms"]) == 3  # wrong kind
    assert run_command(["certify", ex4, "--check", "dir-subreg", "--dir", "1,0"]) == 0
    assert run_command(["certify", ex4, "--check", "dir-reg", "--dir", "1,0;0,0"]) == 1
    for i, (_, data) in enumerate(malformed_ex4()):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(data))
        assert run_command(["certify", str(bad), "--check", "foscms"]) == 3
    capsys.readouterr()
    for path in unreadable_files(tmp_path):
        assert run_command(["certify", str(path), "--check", "foscms"]) == 3
        assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_internal_error_exit_code(monkeypatch, capsys):
    # a defect inside a check must not read as a verdict (1) or a usage error (3)
    def broken(spec):
        raise RuntimeError("kernel defect")

    monkeypatch.setattr(cli, "check_foscms", broken)
    assert run_command(["certify", bundled_problem_path("ex4.json"), "--check", "foscms"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "RuntimeError: kernel defect" in err


def test_cli_value_error_in_a_check_is_internal(monkeypatch, capsys):
    # only validation and precondition errors are usage errors (3)
    def broken(spec):
        raise ValueError("dimension mismatch: 2 vs 3")

    monkeypatch.setattr(cli, "check_foscms", broken)
    assert run_command(["certify", bundled_problem_path("ex4.json"), "--check", "foscms"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error:") and "ValueError: dimension mismatch: 2 vs 3" in err


def test_cli_precondition_and_input_errors_are_usage_errors(capsys):
    ex4 = bundled_problem_path("ex4.json")
    ex5 = bundled_problem_path("ex5.json")
    assert run_command(["certify", ex4, "--check", "dir-subreg", "--dir", "0,0"]) == 3  # zero direction
    assert run_command(["certify", ex5, "--check", "dir-subreg", "--dir", "1,0"]) == 3  # no --gpp
    assert run_command(["certify", ex4, "--check", "dir-subreg", "--dir", "1,0", "--gpp", "1,1,1"]) == 3
    assert run_command(["certify", ex4, "--check", "dir-subreg", "--dir", "1/0,1"]) == 3
    assert run_command(["cones", ex5, "--at=1e10000000,0"]) == 3
    assert run_command(["graph-normal", ex5, "--dir", "1,0;1,0"]) == 3  # not tangent to the graph
    assert run_command(["oracle", ex5, "--dir", "1,0;1,0"]) == 3
    assert run_command(["oracle", ex5, "--at=5,5", "--dir=0,0;0,0"]) == 3  # --at is for constraint files
    assert run_command(["oracle", bundled_problem_path("ex3.json"), "--at", "1,1,1,1", "--dir", "1,0,0,0"]) == 3
    err = capsys.readouterr().err
    assert "internal error" not in err
    # an option the check does not read is rejected, not ignored
    ex3 = bundled_problem_path("ex3.json")
    for args, message in (
        (["--check", "calmness2", "--gpp=1,2"], "--gpp applies only to --check dir-subreg"),
        (["--check", "foscms", "--dir=1,2"], "--dir applies only to --check dir-subreg or dir-reg"),
        (["--check", "aubin", "--assume-subregular"], "--assume-subregular applies only to --check aubin-theorem"),
    ):
        assert run_command(["certify", ex3, *args]) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_cli_an_empty_option_is_the_empty_vector(capsys):
    # "" names the vector with no entries, and the dimension check runs on it
    assert cli._parse_vector("") == QVector([])
    ex4 = bundled_problem_path("ex4.json")
    for args, message in (
        (["certify", ex4, "--check", "foscms", "--gpp="], "--gpp applies only to --check dir-subreg"),
        (["certify", ex4, "--check", "aubin", "--dir="], "--dir applies only to --check dir-subreg or dir-reg"),
        (["certify", ex4, "--check", "dir-subreg", "--dir=1,0", "--gpp="], "--gpp must have 2 entries, got 0"),
        (["certify", ex4, "--check", "dir-subreg", "--dir="], "--dir must have 2 entries, got 0"),
        (["cones", ex4, "--at=0,0", "--ystar="], "--ystar must have 2 entries, got 0"),
    ):
        assert run_command(args) == 3
        assert capsys.readouterr() == ("", f"error: {message}\n")


def no_components_dict():
    """A constraint file with m = 0: D = R^0 is one point."""
    return {
        "kind": "constraint", "dims": {"l": 1, "n": 1, "m": 0},
        "Jp": [], "Jx": [], "g0": [], "D": {"pieces": [{"A": [], "b": []}]},
    }


def test_cli_files_with_no_components(tmp_path, capsys):
    path = tmp_path / "m0.json"
    path.write_text(json.dumps(no_components_dict()))
    f = str(path)
    for args, code in (
        (["certify", f, "--check", "aubin"], 0),
        (["certify", f, "--check", "aubin-theorem"], 0),
        (["certify", f, "--check", "dir-reg", "--dir=1;"], 0),
        (["certify", f, "--check", "dir-subreg", "--dir=1", "--gpp="], 0),
        (["certify", f, "--check", "dir-subreg", "--dir=1", "--gpp=1"], 3),
        (["cones", f, "--at="], 0),
        (["oracle", f, "--dir="], 0),
    ):
        assert run_command(args) == code, args
    assert "internal error" not in capsys.readouterr().err


def degenerate_shapes() -> dict[str, dict]:
    """Problem files of degenerate shape: l = 0, n = 0, m = 0, D a single
    point, and gamma the whole space or a point."""

    def mat(nrows, ncols, x="1"):
        return [[x] * ncols for _ in range(nrows)]

    def eye(k):
        return [[str(int(i == j)) for j in range(k)] for i in range(k)]

    def constraint(l, n, m, piece):
        return {
            "kind": "constraint", "dims": {"l": l, "n": n, "m": m},
            "Jp": mat(m, l), "Jx": mat(m, n), "g0": ["0"] * m, "D": {"pieces": [piece]},
            "hessians": [mat(n, n, "0") for _ in range(m)],
        }

    def variational(l, n, gamma):
        return {
            "kind": "variational", "dims": {"l": l, "n": n}, "Jp": mat(n, l), "Jx": eye(n),
            "xbar": ["0"] * n, "ybarstar": ["0"] * n, "gamma": gamma,
        }

    orthant = {"A": [["1", "0"], ["0", "1"]], "b": ["0", "0"]}
    return {
        "l=0": constraint(0, 2, 2, orthant),
        "n=0": constraint(1, 0, 2, orthant),
        "m=0": no_components_dict(),
        "D a point": constraint(1, 2, 2, {"E": eye(2), "e": ["0", "0"]}),
        "variational l=0": variational(0, 2, {"A": [["1", "-2"], ["1", "2"]], "b": ["0", "0"]}),
        "variational n=0": variational(1, 0, {}),
        "gamma = R^n": variational(1, 2, {}),
        "gamma a point": variational(1, 2, {"E": eye(2), "e": ["0", "0"]}),
    }


def degenerate_check_options(n: int, m: int):
    """(check, --dir, --gpp, --assume-subregular) for every check, with zero
    and nonzero directions."""
    zeros, ones = ",".join(["0"] * n), ",".join(["1"] * n)
    plain = ("foscms", "soscms", "calmness", "calmness2", "aubin", "aubin-theorem", "foscms-joint")
    out = [(check, None, None, False) for check in plain]
    out.append(("aubin-theorem", None, None, True))
    for u in (zeros, ones):
        out += [("dir-subreg", u, None, False), ("dir-subreg", u, ",".join(["-1"] * m), False)]
        out += [("dir-reg", f"{u};{v}", None, False) for v in (",".join(["0"] * m), ",".join(["1"] * m))]
    return out


def test_degenerate_shapes_get_a_verdict_or_a_usage_error(tmp_path, capsys):
    for name, data in degenerate_shapes().items():
        spec = problem_from_dict(data, name)
        m = spec.m if spec.kind == "constraint" else spec.n
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        for check, u, gpp, assume in degenerate_check_options(spec.n, m):
            args = argparse.Namespace(dir=u, gpp=gpp, assume_subregular=assume)
            try:
                assert isinstance(cli._run_check(spec, check, args), Certificate)
            except (PreconditionError, cli.UsageError):
                pass
            argv = ["certify", str(path), "--check", check]
            argv += [f"--dir={u}"] * (u is not None) + [f"--gpp={gpp}"] * (gpp is not None)
            argv += ["--assume-subregular"] * assume
            assert run_command(argv) in (0, 1, 3), (name, argv)
        zero = ",".join(["0"] * m)
        assert run_command(["cones", str(path), f"--at={zero}", f"--ystar={zero}"]) == 0, name
        if spec.kind == "variational":
            for mode in ("--regular", "--limiting", f"--dir={zero};{zero}"):
                assert run_command(["graph-normal", str(path), mode]) == 0, (name, mode)
        direction = f"{zero};{zero}" if spec.kind == "variational" else zero
        assert run_command(["oracle", str(path), f"--dir={direction}"]) == 0, name
    assert "internal error" not in capsys.readouterr().err


def test_cli_golden_examples(capsys):
    for which in ("3", "4", "5"):
        assert run_command(["examples", "run", which]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out


def test_cli_cones_and_graph_normal(capsys):
    ex5 = bundled_problem_path("ex5.json")
    assert run_command(["cones", ex5, "--at", "0,0", "--ystar", "0,0"]) == 0
    out = capsys.readouterr().out
    assert "tangent cone" in out and "critical cone" in out
    assert run_command(["graph-normal", ex5, "--limiting"]) == 0
    out = capsys.readouterr().out
    assert out.count("piece") >= 9
    assert run_command(["graph-normal", ex5, "--dir=-1,0;0,0"]) == 0
    capsys.readouterr()
    ex3 = bundled_problem_path("ex3.json")
    assert run_command(["cones", ex3, "--at", "0,0,0,0"]) == 0
    capsys.readouterr()


# ex3 at 0 and at 1,0,0,0, where only piece 0 of D contains the point, and
# ex5 at three graph directions
ORACLE_RUNS = [
    ("ex3.json", f"--at={at}", f"--dir={w}")
    for at in ("0,0,0,0", "1,0,0,0")
    for w in ("0,0,0,0", "1,0,-1,-1", "0,1,0,0", "-1,0,0,0")
] + [("ex5.json", f"--dir={d}") for d in ("0,0;0,0", "-1,0;0,0", "0,0;1,0")]


@pytest.mark.parametrize("argv", ORACLE_RUNS, ids=lambda argv: " ".join(argv).replace("--", ""))
def test_cli_oracle_matches(capsys, argv):
    file, *options = argv
    assert run_command(["oracle", bundled_problem_path(file), *options]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "MATCH"


def test_cli_one_value_in_two_spellings_prints_the_same_bytes(capsys):
    # canonical small integers are read from linalg's text table, and +1,
    # -0, 0/3 and 00 by the parser: the same values print the same bytes
    # either way
    ex3 = bundled_problem_path("ex3.json")
    for code, table, parsed in (
        (0, ["cones", ex3, "--at", "0,0,0,0", "--ystar=1,0,1,0"], ["cones", ex3, "--at=+0,-0,0/7,00", "--ystar=+1,0/3,2/2,-0"]),
        (1, ["certify", ex3, "--check", "dir-reg", "--dir=0,0;0,0,0,0"], ["certify", ex3, "--check", "dir-reg", "--dir=+0,-0;0/2,00,0,-0"]),
    ):
        outs = []
        for argv in (table, parsed):
            assert run_command(argv) == code
            outs.append(capsys.readouterr().out.encode())
        assert outs[0] and outs[0] == outs[1], table[0]


def test_cli_bad_ystar_exits_before_printing(capsys):
    # --ystar is parsed with --at, before any piece's cones are printed
    ex3 = bundled_problem_path("ex3.json")
    for bad in ("0,0,0", "0,x,0,0"):
        assert run_command(["cones", ex3, "--at", "0,0,0,0", f"--ystar={bad}"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


# (argv, with exN.json for the bundled example N, and what stderr must say)
CLI_USAGE_ERRORS = (
    (["graph-normal", "ex5.json", "--dir=1,0"], "error: graph directions look like 'v1,v2;w1,w2'"),
    (["oracle", "ex5.json", "--dir=0,0"], "error: graph directions look like 'v1,v2;w1,w2'"),
    (["cones", "ex3.json", "--at=1,1,1,1"], "error: point lies in no piece of D"),
    (["cones", "ex5.json", "--at=5,5"], "error: point lies outside gamma"),
    (["graph-normal", "ex3.json"], "error: graph-normal needs a variational problem file"),
    (["certify", "ex4.json", "--check", "dir-subreg"], "error: --check dir-subreg needs --dir u"),
    (["certify", "ex4.json", "--check", "dir-reg"], "error: --check dir-reg needs --dir 'u;v'"),
    (["oracle", "ex3.json"], "error: oracle on a constraint file needs --dir w"),
    (["oracle", "ex5.json"], "error: oracle on a variational file needs --dir 'v;vstar'"),
    (["examples", "run", "7"], "error: known examples: 3, 4, 5"),
    (["examples", "walk", "3"], "invalid choice: 'walk'"),  # rejected by argparse
)


@pytest.mark.parametrize("argv, message", CLI_USAGE_ERRORS, ids=[" ".join(a) for a, _ in CLI_USAGE_ERRORS])
def test_cli_usage_errors_exit_3(capsys, argv, message):
    argv = [bundled_problem_path(a) if a.endswith(".json") else a for a in argv]
    assert run_command(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and message in err and "internal error" not in err


@pytest.mark.parametrize(
    "modes", (["--regular", "--dir=-1,0;0,0"], ["--limiting", "--dir=5,5;1,1"], ["--regular", "--limiting"])
)
def test_cli_graph_normal_takes_one_mode(capsys, modes):
    # --dir, --regular and --limiting are alternatives: two of them are a
    # usage error, not one of them silently ignored
    assert run_command(["graph-normal", bundled_problem_path("ex5.json"), *modes]) == 3
    out, err = capsys.readouterr()
    assert out == "" and "not allowed with argument" in err


def test_cli_graph_direction_tested_for_tangency_once(monkeypatch, capsys):
    # the CLI tests --dir with graph_tangent_member once per command, for
    # its usage error; directional_limiting_normal_graph then runs the
    # integer test on the same pair without calling it
    from polyvar import graphmap

    real, calls = graphmap.graph_tangent_member, []

    def counted(*args):
        calls.append(args)
        return real(*args)

    for module in (cli, graphmap):
        monkeypatch.setattr(module, "graph_tangent_member", counted)
    ex5 = bundled_problem_path("ex5.json")
    for command in ("graph-normal", "oracle"):
        calls.clear()
        assert run_command([command, ex5, "--dir=-1,0;0,0"]) == 0
        assert len(calls) == 1, command
    capsys.readouterr()


def test_cli_deterministic_output(capsys):
    ex5 = bundled_problem_path("ex5.json")
    run_command(["certify", ex5, "--check", "aubin"])
    first = capsys.readouterr().out
    run_command(["certify", ex5, "--check", "aubin"])
    second = capsys.readouterr().out
    assert first == second


def test_trace_verbosity_env(monkeypatch, capsys):
    ex5 = bundled_problem_path("ex5.json")
    monkeypatch.setenv("POLYVAR_TRACE", "off")
    run_command(["certify", ex5, "--check", "aubin"])
    quiet = capsys.readouterr().out
    monkeypatch.setenv("POLYVAR_TRACE", "full")
    run_command(["certify", ex5, "--check", "aubin"])
    full = capsys.readouterr().out
    assert len(full) > len(quiet)
    assert "case:" in full and "case:" not in quiet.split("--- certificate JSON ---")[0]


def test_trace_verbosity_is_case_insensitive_and_empty_means_summary(monkeypatch, capsys):
    ex4 = bundled_problem_path("ex4.json")
    outs = {}
    for value in (None, "", "summary", "Summary", "FULL", "full", "Off", "off"):
        if value is None:
            monkeypatch.delenv("POLYVAR_TRACE", raising=False)
        else:
            monkeypatch.setenv("POLYVAR_TRACE", value)
        assert run_command(["certify", ex4, "--check", "foscms"]) == 1
        outs[value] = capsys.readouterr().out
    assert outs[None] == outs[""] == outs["summary"] == outs["Summary"]
    assert outs["FULL"] == outs["full"] != outs[None]
    assert outs["Off"] == outs["off"] != outs[None]


@pytest.mark.parametrize("value", ("ful", "verbose", "0", " full"))
def test_unknown_trace_verbosity_is_a_usage_error_before_parsing(monkeypatch, capsys, tmp_path, value):
    monkeypatch.setenv("POLYVAR_TRACE", value)
    broken = tmp_path / "broken.json"
    broken.write_text("{", encoding="utf-8")
    for path in (bundled_problem_path("ex4.json"), str(broken)):
        assert run_command(["certify", path, "--check", "foscms"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: POLYVAR_TRACE") and repr(value) in err

