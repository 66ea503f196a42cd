import json
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus import counting_dd
from polyvar.certify import Certificate, check_aubin, check_calmness_constraint, check_foscms
from polyvar import cli
from polyvar.cli import bundled_problem_path, run_command
from polyvar.cones import PolyCone, _PlainCone, cone_plain
from polyvar.fileio import (
    ProblemFileError,
    Report,
    _dumps,
    _rat,
    certificate_from_dict,
    certificate_to_dict,
    parse_problem,
    problem_from_dict,
    problem_to_dict,
    render_report,
)
from polyvar.linalg import QVector


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
        (".param_lipschitz", lambda d: d.update(param_lipschitz="false")),  # bool("false") is True
        (".label", lambda d: d.update(label=3)),
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
    assert _rat("+2/4", "x") == F(1, 2) and _rat("-3", "x") == -3 and _rat(7, "x") == 7
    for text in ("1e10000000", "1.5", " 1", "1 ", "1_000", "0x10", "1/-2", "/2", "", "\u0663", "inf", "1/0"):
        start = time.perf_counter()
        with pytest.raises(ProblemFileError) as err:
            _rat(text, "$.b[0]")
        assert time.perf_counter() - start < 1
        assert "$.b[0]" in str(err.value)


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


_strings = st.text() | st.sampled_from(["", "caf\u00e9", "\x00\x1f\t\n\"\\/", "\U0001f600", "\ud800", "\u2028"])
# cones' shared views: each is written once, at the depth of its first
# write, and its text is kept and re-indented at every later depth
_views = st.sampled_from(
    [
        cone_plain(c)
        for c in (
            PolyCone.from_generators(3, [[0, 0, 1]], [[2, 3, 0]]),
            PolyCone.from_ineqs(2, [[1, -2]]),
            PolyCone.origin(2),
            PolyCone.full_space(1),
        )
    ]
)
_plain_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-(10**40), 10**40) | _strings | _views,
    lambda inner: st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_strings, inner),
    max_leaves=25,
)


@settings(max_examples=300, deadline=None)
@given(_plain_values)
def test_json_writer_matches_json_dumps_hypothesis(value):
    assert _dumps(value) == json.dumps(value, sort_keys=True, indent=1)


def test_a_cone_view_shared_at_two_depths_is_written_as_json_dumps_writes_it():
    view = cone_plain(PolyCone.from_generators(3, [[0, 0, 1]], [[2, 3, 0]]).polar())
    assert type(view) is _PlainCone and view.json is None
    trace = ({"cases": [{"pieces": [{"piece": view}]}]}, {"phase": "x", "cone": view})
    report = Report("check", Certificate("holds", trace=trace), "")
    block = {"check": "check", "certificate": certificate_to_dict(report.certificate)}
    want = json.dumps(block, sort_keys=True, indent=1)
    assert report.json_block() == want  # the first write is the deeper one
    assert view.json == json.dumps(view, sort_keys=True, indent=1)
    assert report.json_block() == want


def test_certificates_of_one_spec_share_cone_views():
    # check_aubin's trace holds the views of check_foscms's normal cones and
    # dual test cones (the same cones, memoised per spec), not copies
    spec = parse_problem(bundled_problem_path("ex3.json"))
    certs = (check_foscms(spec), check_calmness_constraint(spec, "first"), check_aubin(spec, "corollary"))

    def views(o):
        if type(o) is _PlainCone:
            return [o]
        items = o.values() if isinstance(o, dict) else o if isinstance(o, (list, tuple)) else ()
        return [v for item in items for v in views(item)]

    found = [{id(v): v for v in views(cert.trace)} for cert in certs]
    assert found[0] and found[0].keys() <= found[1].keys() and found[0].keys() <= found[2].keys()
    for check, cert in zip(("foscms", "calmness", "aubin"), certs):
        block = render_report(check, cert, "full").json_block()
        assert block == json.dumps(json.loads(block), sort_keys=True, indent=1)
        assert certificate_from_dict(json.loads(block)["certificate"]) == cert


def test_json_writer_rejects_non_plain_values():
    for value in (1.5, {"rate": 0.5}, {1, 2}, [frozenset()], {1: "a"}, {"a": {None: "b"}}, F(1, 2)):
        with pytest.raises(TypeError):
            _dumps(value)


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


def test_cli_oracle_matches(capsys):
    ex3 = bundled_problem_path("ex3.json")
    assert run_command(["oracle", ex3, "--dir", "1,0,-1,-1"]) == 0
    ex5 = bundled_problem_path("ex5.json")
    assert run_command(["oracle", ex5, "--dir=-1,0;0,0"]) == 0
    capsys.readouterr()


def test_cli_bad_ystar_exits_before_printing(capsys):
    # --ystar is parsed with --at, before any piece's cones are printed
    ex3 = bundled_problem_path("ex3.json")
    for bad in ("0,0,0", "0,x,0,0"):
        assert run_command(["cones", ex3, "--at", "0,0,0,0", f"--ystar={bad}"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ")


def test_cli_graph_direction_tested_for_tangency_once(monkeypatch, capsys):
    # the CLI tests --dir for tangency and then filters the face pairs
    # directly, as the certifier does, so the test runs once per command
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

