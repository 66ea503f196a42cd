"""One op per unit of user work, and the known answers each op is checked against.

An op takes ``(path, meta, pre)``, where ``pre`` is what the workload's
untimed ``prepare`` step returned, and returns
``(certificates, reports, extra)``.  Only the op itself is timed; ``check`` runs afterwards, outside the op's span, and uses plain
Fraction arithmetic over ``.entries`` so that checking adds no calls to the
layers the trace measures.

polyvar is imported inside the functions, not at module level: the
benchmark re-imports the package for every set-up, and the ops must use the
modules of the latest import.
"""

from __future__ import annotations

import json
import random

VERDICTS = ("holds", "not_certified", "inconclusive")


def _dot(u, v):
    return sum((a * b for a, b in zip(u, v)), 0)


def _satisfies(cone, vectors) -> bool:
    """Every vector lies in the cone, judged from its H-representation."""
    for z in vectors:
        z = z.entries
        if any(_dot(a.entries, z) > 0 for a in cone.ineqs):
            return False
        if any(_dot(e.entries, z) != 0 for e in cone.eqs):
            return False
    return True


def _hrep_holds(cone) -> bool:
    """Every returned ray satisfies the H-representation, and every lineality
    vector satisfies it with equality in both directions."""
    lin_neg = [type(v)([-x for x in v.entries]) for v in cone.lin]
    return _satisfies(cone, cone.rays) and _satisfies(cone, list(cone.lin) + lin_neg)


# -- certify ops ------------------------------------------------------------------


def _render(certs: dict) -> list:
    from polyvar import fileio

    reports = []
    for check, cert in certs.items():
        rep = fileio.render_report(check, cert)
        reports.append((rep, rep.json_block()))
    return reports


def constraint_op(path: str, meta: dict, pre=None):
    from polyvar import certify, fileio

    spec = fileio.parse_problem(path)
    certs = {
        "foscms": certify.check_foscms(spec),
        "calmness": certify.check_calmness_constraint(spec, "first"),
        "aubin": certify.check_aubin(spec, "corollary"),
    }
    if spec.hessians is not None:
        certs["soscms"] = certify.check_soscms(spec)
    return certs, _render(certs), {}


def _tangent_direction(cones, k, dir_seed: int):
    """A seeded (u, w) in the graph of the normal-cone map of the critical
    cone k: u in k, w in the polar of k, u orthogonal to w."""
    from polyvar.linalg import QVector

    r = random.Random(dir_seed)

    def member(cone):
        v = QVector.zero(cone.dim)
        for g in cone.generators():
            v = v + g.scale(r.choice((0, 1, 1, 2)))
        return v

    u = member(k)
    kp = k.polar()
    normal = cones.PolyCone.from_ineqs(k.dim, list(kp.ineqs), list(kp.eqs) + ([] if u.is_zero() else [u]))
    return u, member(normal)


def variational_direction(path: str, meta: dict):
    """The op's seeded tangent direction (u, w), chosen before the op from a
    parse of its own, so that choosing it is neither timed nor traced."""
    from polyvar import cones, fileio

    spec = fileio.parse_problem(path)
    return _tangent_direction(cones, spec.graph_point().critical, meta["dir_seed"])


def variational_op(path: str, meta: dict, pre):
    from polyvar import certify, fileio, graphmap

    spec = fileio.parse_problem(path)
    certs = {"aubin": certify.check_aubin(spec, "corollary")}
    joint = certify.check_foscms_joint(spec)
    certs["foscms-joint"] = joint
    if joint.holds():
        certs["aubin-theorem"] = certify.check_aubin(spec, "theorem")
    gp = spec.graph_point()
    u, w = pre
    certs["dir-reg"] = certify.check_directional_metric_regularity(spec, u, w + spec.Jx.matvec(u))
    lim = graphmap.limiting_normal_graph(gp)
    dlim = graphmap.directional_limiting_normal_graph(gp, u, w)
    return certs, _render(certs), {"gp": gp, "lim": lim, "dlim": dlim}


# -- cone-layer ops ---------------------------------------------------------------


def parse_problem(path: str):
    from polyvar import fileio

    return fileio.parse_problem(path)


def load_job(path: str):
    from polyvar.linalg import QVector

    with open(path, encoding="utf-8") as fh:
        job = json.load(fh)
    rows = {k: [QVector(r) for r in v] for k, v in job.items() if isinstance(v, list)}
    return job["kind"], job["dim"], rows


def cone_op(path: str, meta: dict, pre=None):
    from polyvar import cones, fileio

    kind, dim, rows = load_job(path)
    out = {}
    if kind == "from-ineqs":
        out["cone"] = cones.PolyCone.from_ineqs(dim, rows["ineqs"])
    elif kind == "from-generators":
        out["cone"] = cones.PolyCone.from_generators(dim, rows["rays"])
    elif kind == "cone-faces":
        out["cone"] = cones.PolyCone.from_ineqs(dim, rows["ineqs"])
        out["faces"] = out["cone"].faces()
    elif kind == "polyhedron-faces":
        from polyvar import sets

        out["faces"] = sets.Polyhedron(dim, rows["A"], [1] * len(rows["A"])).faces()
    elif kind == "random-pair":
        pair = []
        for side in ("a", "b"):
            if f"{side}_ineqs" in rows:
                pair.append(cones.PolyCone.from_ineqs(dim, rows[f"{side}_ineqs"]))
            else:
                pair.append(cones.PolyCone.from_generators(dim, rows[f"{side}_generators"]))
        a, b = pair
        out.update(a=a, b=b, polar=a.polar(), meet=a.intersect(b), sum=a.minkowski_sum(b))
        out["rows"] = rows
    else:
        raise ValueError(f"unknown cone job kind {kind!r}")
    return {}, [], out


# -- correctness --------------------------------------------------------------------


def check(workload: str, meta: dict, certs: dict, reports: list, extra: dict) -> list[str]:
    """Known-answer and round-trip checks; returns a list of failures."""
    from polyvar import fileio

    bad = []
    for rep, block in reports:
        payload = json.loads(block)
        if fileio.certificate_from_dict(payload["certificate"]) != rep.certificate:
            bad.append(f"{rep.check}: JSON block does not round-trip")
    status = {k: c.status for k, c in certs.items()}
    for check_name, want in meta.get("verdicts", {}).items():
        if status.get(check_name) != want:
            bad.append(f"{check_name}: {status.get(check_name)} (expected {want})")
    if "foscms" in certs and status["calmness"] != status["foscms"]:
        bad.append("calmness verdict differs from the foscms verdict it delegates to")
    if "strata" in meta and len(certs["foscms"].trace) != meta["strata"]:
        bad.append(f"{len(certs['foscms'].trace)} strata (expected {meta['strata']})")
    if meta.get("linear_solvability") and not certs["calmness"].rate("linear_solvability"):
        bad.append("calmness: no linear solvability rate")
    if "witness_vstar" in meta:
        got = [list(map(str, w.vstar.entries)) for w in certs["foscms"].witnesses if w.vstar is not None]
        if meta["witness_vstar"] not in got:
            bad.append(f"foscms witnesses {got} miss {meta['witness_vstar']}")
    if workload == "variational-faces":
        bad += _check_graph(meta, extra)
    if workload == "cone-conversion":
        bad += _check_cones(meta, extra)
    return bad


def _check_graph(meta: dict, extra: dict) -> list[str]:
    bad = []
    k = extra["gp"].critical
    faces = k.faces()
    if "faces" in meta and len(faces) != meta["faces"]:
        bad.append(f"critical cone has {len(faces)} faces (expected {meta['faces']})")
    if "pieces" in meta and len(extra["lim"].pieces) != meta["pieces"]:
        bad.append(f"{len(extra['lim'].pieces)} limiting pieces (expected {meta['pieces']})")
    lim_keys = {p.k.key() for p in extra["lim"].pieces}
    if not {p.k.key() for p in extra["dlim"].pieces} <= lim_keys:
        bad.append("a directional piece is not a limiting piece")
    for f in faces:
        if not _hrep_holds(f.cone) or not _satisfies(k, f.cone.rays):
            bad.append("a face of the critical cone breaks its H-representation")
            break
    return bad


def _check_cones(meta: dict, extra: dict) -> list[str]:
    bad = []
    built = [c for key, c in extra.items() if key in ("cone", "a", "b", "meet", "sum", "polar")]
    if not all(_hrep_holds(c) for c in built):
        bad.append("a returned ray or lineality vector breaks the cone's H-representation")
    if "rays" in meta and len(extra["cone"].rays) != meta["rays"]:
        bad.append(f"{len(extra['cone'].rays)} rays (expected {meta['rays']})")
    if "facets" in meta and len(extra["cone"].ineqs) != meta["facets"]:
        bad.append(f"{len(extra['cone'].ineqs)} facets (expected {meta['facets']})")
    if "faces" in meta and len(extra["faces"]) != meta["faces"]:
        bad.append(f"{len(extra['faces'])} faces (expected {meta['faces']})")
    if "meet" in extra:
        a, b, rows = extra["a"], extra["b"], extra["rows"]
        if not (_satisfies(a, extra["meet"].generators()) and _satisfies(b, extra["meet"].generators())):
            bad.append("intersection leaves one of its operands")
        if not (_satisfies(extra["sum"], a.generators()) and _satisfies(extra["sum"], b.generators())):
            bad.append("Minkowski sum misses a generator of an operand")
        if extra["polar"].rays != a.ineqs or extra["polar"].ineqs != a.rays:
            bad.append("polar is not the representation swap")
        for side, cone in (("a", a), ("b", b)):
            if f"{side}_generators" in rows and not _satisfies(cone, rows[f"{side}_generators"]):
                bad.append(f"cone {side} misses an input generator")
            if f"{side}_ineqs" in rows:
                gens = cone.generators()
                if any(_dot(row.entries, g.entries) > 0 for row in rows[f"{side}_ineqs"] for g in gens):
                    bad.append(f"cone {side} leaves an input half-space")
    return bad
