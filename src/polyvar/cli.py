"""Command-line surface.

Subcommands::

    polyvar cones FILE --at Y [--ystar YSTAR]
    polyvar graph-normal FILE [--dir "V;VSTAR" | --regular | --limiting]
    polyvar certify FILE --check CHECK [--dir ...] [--gpp ...] [--assume-subregular]
    polyvar examples run {3,4,5}
    polyvar oracle FILE [--at Y] --dir ...     (--at on constraint files only)

Vectors are comma-separated rationals ("1,-1/2"), and "" (as in "--at=") is
the vector with no entries; graph directions take a primal and a dual part
separated by ";".  Values starting with a minus sign need the
"--dir=-1,0;0,0" form.  certify rejects an option its check does not read,
also when it is "": --dir is for dir-subreg and dir-reg, --gpp for
dir-subreg and --assume-subregular for aubin-theorem.  Exit codes: 0
holds/match, 1 not certified/refuted/mismatch, 3 usage or input error (a
bad option or problem file, or a check's precondition not met), 4 internal
error (any other exception: a defect; the traceback goes to stderr).  Exit
code 2 is unused: every check decides its condition.
The environment variable POLYVAR_TRACE (full | summary | off, any case;
unset or empty means summary) controls how much derivation detail certify
prints; any other value is a usage error, reported before the problem file
is read.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from importlib import resources

from .certify import (
    HOLDS,
    NOT_CERTIFIED,
    PreconditionError,
    check_aubin,
    check_calmness_constraint,
    check_directional_metric_regularity,
    check_foscms,
    check_foscms_joint,
    check_second_order_directional_subregularity,
    check_soscms,
)
from .cones import cone_plain
from .fileio import ProblemFileError, parse_problem, render_report
from .graphmap import directional_limiting_normal_graph, graph_tangent_member, limiting_normal_graph, regular_normal_graph
from .linalg import QVector, vec_plain
from .oracle import piece_sets_equal, sample_graph_directional, sample_union_normals
from .sets import critical_cone, directional_normal_cone, union_tangent_cone

EXIT_BY_STATUS = {HOLDS: 0, NOT_CERTIFIED: 1}


class UsageError(Exception):
    pass


def _parse_vector(text: str, dim: int | None = None, what: str = "vector") -> QVector:
    try:
        v = QVector([part.strip() for part in text.split(",")] if text.strip() else [])
    except (ValueError, TypeError, ZeroDivisionError):
        raise UsageError(f"cannot parse {what} {text!r}; expected comma-separated rationals")
    if dim is not None and v.dim != dim:
        raise UsageError(f"{what} must have {dim} entries, got {v.dim}")
    return v


def _parse_pair(text: str, dims: tuple[int, int]) -> tuple[QVector, QVector]:
    if ";" not in text:
        raise UsageError("graph directions look like 'v1,v2;w1,w2'")
    a, b = text.split(";", 1)
    return _parse_vector(a, dims[0], "primal direction"), _parse_vector(b, dims[1], "dual direction")


def _parse_graph_direction(text: str, gp, dim: int) -> tuple[QVector, QVector]:
    v, vstar = _parse_pair(text, (dim, dim))
    if not graph_tangent_member(gp, v, vstar):
        raise UsageError("--dir is not tangent to the graph of the normal-cone map at the reference point")
    return v, vstar


def _verbosity() -> str:
    v = os.environ.get("POLYVAR_TRACE", "").lower() or "summary"
    if v not in ("full", "summary", "off"):
        raise UsageError(f"POLYVAR_TRACE must be full, summary or off, got {os.environ['POLYVAR_TRACE']!r}")
    return v


def _print_cone(label: str, cone) -> None:
    view, polar = cone_plain(cone), cone_plain(cone.polar())  # the polar's generators are the cone's rows
    rays, lin, ineqs, eqs = ([tuple(r) for r in v[key]] for v in (view, polar) for key in ("rays", "lin"))
    print(f"{label}:")
    print(f"  rays: {rays}")
    print(f"  lin:  {lin}")
    print(f"  ineqs: {ineqs}  eqs: {eqs}")


def _cmd_cones(args) -> int:
    spec = parse_problem(args.file)
    constraint = spec.kind == "constraint"
    pieces = spec.D.pieces if constraint else (spec.gamma,)
    y = _parse_vector(args.at, spec.m, "--at point")
    ystar = _parse_vector(args.ystar, spec.m, "--ystar") if args.ystar is not None else None
    held = [i for i, p in enumerate(pieces) if p.contains(y)]
    if not held:
        raise UsageError("point lies in no piece of D" if constraint else "point lies outside gamma")
    for i in held:
        of = f" of piece {i}" if constraint else ""
        _print_cone(f"tangent cone{of}", pieces[i].tangent_cone(y))
        _print_cone(f"normal cone{of}", pieces[i].normal_cone(y))
        if ystar is not None:
            cc = critical_cone(pieces[i], y, ystar)
            if cc is None:
                print(f"critical cone{of}: absent (ystar is not a normal vector there)")
            else:
                _print_cone(f"critical cone{of}", cc)
    if constraint:
        union = union_tangent_cone(spec.D, y)
        print(f"union tangent cone: {len(union.pieces)} piece(s)")
        for j, c in enumerate(union.pieces):
            _print_cone(f"  piece {j}", c)
    return 0


def _cmd_graph_normal(args) -> int:
    spec = parse_problem(args.file)
    if spec.kind != "variational":
        raise UsageError("graph-normal needs a variational problem file")
    gp = spec.graph_point()
    if args.regular:
        gnc = regular_normal_graph(gp)
        title = "regular normal cone to the graph"
    elif args.limiting or args.dir is None:
        gnc = limiting_normal_graph(gp)
        title = "limiting normal cone to the graph"
    else:
        v, vstar = _parse_graph_direction(args.dir, gp, spec.n)
        gnc = directional_limiting_normal_graph(gp, v, vstar)
        title = f"directional limiting normal cone in direction ({v!r}; {vstar!r})"
    print(f"{title}: {len(gnc.pieces)} product piece(s)")
    for i, p in enumerate(gnc.pieces):
        print(f"piece {i}: K x K-polar, faces F1={sorted(p.f1.active_set)} F2={sorted(p.f2.active_set)}")
        _print_cone("  K", p.k)
        _print_cone("  K polar", p.kpolar)
    print("--- pieces JSON ---")
    print(json.dumps(gnc.to_plain(), sort_keys=True))
    return 0


def _run_check(spec, check: str, args):
    if check in ("foscms", "soscms", "calmness", "calmness2") and spec.kind != "constraint":
        raise UsageError(f"--check {check} needs a constraint system")
    if check == "foscms":
        return check_foscms(spec)
    if check == "soscms":
        return check_soscms(spec)
    if check == "calmness":
        return check_calmness_constraint(spec, "first")
    if check == "calmness2":
        return check_calmness_constraint(spec, "second")
    if check == "aubin":
        return check_aubin(spec, "corollary")
    if check == "aubin-theorem":
        return check_aubin(spec, "theorem", assume_subregular=args.assume_subregular)
    if check == "foscms-joint":
        return check_foscms_joint(spec)
    if check == "dir-subreg":
        if args.dir is None:
            raise UsageError("--check dir-subreg needs --dir u")
        u = _parse_vector(args.dir, spec.n, "--dir")
        gpp = _parse_vector(args.gpp, spec.m, "--gpp") if args.gpp is not None else None
        return check_second_order_directional_subregularity(spec, u, gpp)
    if check == "dir-reg":
        if args.dir is None:
            raise UsageError("--check dir-reg needs --dir 'u;v'")
        u, v = _parse_pair(args.dir, (spec.n, spec.m))
        return check_directional_metric_regularity(spec, u, v)
    # argparse admits only the listed checks: one that no branch takes is a defect
    raise RuntimeError(f"no branch runs the check {check!r}")


# The checks that read each certify option; any other check rejects it.
_OPTION_CHECKS = {"dir": ("dir-subreg", "dir-reg"), "gpp": ("dir-subreg",), "assume_subregular": ("aubin-theorem",)}


def _cmd_certify(args) -> int:
    verbosity = _verbosity()
    for option, checks in _OPTION_CHECKS.items():
        if getattr(args, option) not in (None, False) and args.check not in checks:
            raise UsageError(f"--{option.replace('_', '-')} applies only to --check {' or '.join(checks)}")
    spec = parse_problem(args.file)
    cert = _run_check(spec, args.check, args)
    report = render_report(args.check, cert, verbosity)
    print(report.text)
    print("--- certificate JSON ---")
    print(report.json_block())
    return EXIT_BY_STATUS[cert.status]


def bundled_problem_path(name: str) -> str:
    res = resources.files("polyvar").joinpath("problems", name)
    return str(res)


_EXPECTED = {
    "3": [
        ("foscms", "holds", {}),
        ("calmness", "holds", {"linear_solvability": True}),
        ("aubin", "not_certified", {"refuted": True}),
    ],
    "4": [
        ("foscms", "not_certified", {"witness_vstar": ["1", "1"]}),
        ("soscms", "holds", {}),
        ("calmness2", "holds", {"hoelder_half_solvability": True}),
        ("dir-subreg", "holds", {"dir": "1,0"}),
    ],
    "5": [
        ("aubin", "holds", {"cases": 4, "std_nontrivial": [["-1", "2"], ["-1", "-2"]]}),
        ("aubin-theorem", "holds", {}),
    ],
}


def _cmd_examples(args) -> int:
    name = args.which
    if name not in _EXPECTED:
        raise UsageError("known examples: 3, 4, 5")
    path = bundled_problem_path(f"ex{name}.json")
    spec = parse_problem(path)
    failures = []
    ns = argparse.Namespace(dir=None, gpp=None, assume_subregular=False)
    for check, want_status, extra in _EXPECTED[name]:
        ns.dir = extra.get("dir")
        cert = _run_check(spec, check, ns)
        ok = cert.status == want_status
        detail = [f"status={cert.status} (expected {want_status})"]
        if "refuted" in extra:
            ok &= cert.refuted == extra["refuted"]
            detail.append(f"refuted={cert.refuted} (expected {extra['refuted']})")
        for rate, want in (
            ("linear_solvability", extra.get("linear_solvability")),
            ("hoelder_half_solvability", extra.get("hoelder_half_solvability")),
        ):
            if want is not None:
                got = cert.rate(rate)
                ok &= got == want
                detail.append(f"{rate}={got}")
        if "witness_vstar" in extra:
            got = [vec_plain(w.vstar) for w in cert.witnesses if w.vstar is not None]
            ok &= extra["witness_vstar"] in got
            detail.append(f"witness v* candidates={got}")
        if "cases" in extra:
            phase_b = next(t for t in cert.trace if str(t.get("phase", "")).startswith("B"))
            n_cases = len(phase_b["cases"])
            all_trivial = all(
                e["trivial"] for c in phase_b["cases"] for e in c["adjoint_inclusions"]
            )
            ok &= n_cases == extra["cases"] and all_trivial
            detail.append(f"direction cases={n_cases}, all adjoint inclusions trivial={all_trivial}")
        if "std_nontrivial" in extra:
            # the standard adjoint inclusion is the directional one at (0, 0)
            zero = check_directional_metric_regularity(spec, QVector.zero(spec.n), QVector.zero(spec.m))
            gens = sorted(vec_plain(g) for t in zero.trace for g in t["adjoint_cone"].rays + t["adjoint_cone"].lin)
            ok &= gens == sorted(extra["std_nontrivial"])
            detail.append(f"standard adjoint nontrivial generators={gens}")
        print(("PASS" if ok else "FAIL") + f" example {name} {check}: " + "; ".join(detail))
        if not ok:
            failures.append(check)
    return 0 if not failures else 1


def _cmd_oracle(args) -> int:
    spec = parse_problem(args.file)
    if spec.kind == "constraint":
        if args.dir is None:
            raise UsageError("oracle on a constraint file needs --dir w")
        y = _parse_vector(args.at, spec.m, "--at") if args.at is not None else spec.g0
        if not spec.D.contains(y):
            raise UsageError("--at point lies in no piece of D")
        w = _parse_vector(args.dir, spec.m, "--dir")
        closed = directional_normal_cone(spec.D, y, w)
        sampled = sample_union_normals(spec.D, y, w)
        match = piece_sets_equal(closed.pieces, sampled.pieces)
        print(f"closed form: {len(closed.pieces)} piece(s); sampling oracle: {len(sampled.pieces)} piece(s)")
    else:
        if args.dir is None:
            raise UsageError("oracle on a variational file needs --dir 'v;vstar'")
        if args.at is not None:
            raise UsageError("oracle on a variational file takes no --at: it samples at the file's graph point")
        gp = spec.graph_point()
        v, vstar = _parse_graph_direction(args.dir, gp, spec.n)
        closed = directional_limiting_normal_graph(gp, v, vstar)
        sampled = sample_graph_directional(gp, v, vstar)
        match = piece_sets_equal([p.k for p in closed.pieces], sampled)
        print(f"closed form: {len(closed.pieces)} piece(s); sampling oracle: {len(sampled)} piece(s)")
    print("MATCH" if match else "MISMATCH: the sampling oracle is authoritative; please report this input")
    return 0 if match else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="polyvar", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("cones", help="tangent/normal/critical cones at a point")
    p.add_argument("file")
    p.add_argument("--at", required=True)
    p.add_argument("--ystar")
    p.set_defaults(fn=_cmd_cones)

    p = sub.add_parser("graph-normal", help="normal cones to the graph of the normal-cone map")
    p.add_argument("file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--dir")
    mode.add_argument("--regular", action="store_true")
    mode.add_argument("--limiting", action="store_true")
    p.set_defaults(fn=_cmd_graph_normal)

    p = sub.add_parser("certify", help="run a stability certificate")
    p.add_argument("file")
    p.add_argument(
        "--check",
        required=True,
        choices=["foscms", "soscms", "calmness", "calmness2", "aubin", "aubin-theorem", "foscms-joint", "dir-subreg", "dir-reg"],
    )
    p.add_argument("--dir")
    p.add_argument("--gpp")
    p.add_argument("--assume-subregular", action="store_true")
    p.set_defaults(fn=_cmd_certify)

    p = sub.add_parser("examples", help="golden reproductions of the bundled examples")
    p.add_argument("action", choices=["run"])
    p.add_argument("which")
    p.set_defaults(fn=_cmd_examples)

    p = sub.add_parser("oracle", help="diff a closed form against the sampling oracle")
    p.add_argument("file")
    p.add_argument("--at")
    p.add_argument("--dir")
    p.set_defaults(fn=_cmd_oracle)
    return ap


def run_command(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 3 if exc.code not in (0,) else 0
    try:
        return args.fn(args)
    except (UsageError, ProblemFileError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except BrokenPipeError:
        raise  # main() exits quietly when a pager closes the pipe
    except Exception:
        # A defect, not a verdict: keep it apart from exit 1 ("not certified").
        print("internal error:\n" + traceback.format_exc(), file=sys.stderr, end="")
        return 4


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream pager/head closed the pipe; exit quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    sys.exit(code)


if __name__ == "__main__":
    main()
