"""Spans around polyvar's public functions, installed from outside the package.

``Tracer.install`` replaces each traced function by a wrapper in every
``polyvar`` module that bound it (``from .sets import direction_strata``
copies the binding into ``certify``), and replaces traced methods on their
class.  A wrapper records nothing unless an op is open, so set-up and the
correctness checks between ops stay out of the numbers.

The wrapped set is each layer's public entry points that do real work; thin
helpers (``contains``, ``polar``, ``pick_nonzero``, ...) stay inside their
caller's self time, where a wrapper would cost more than they do.

Each span records its op id, its parent span, its start and end; its self
time is its duration minus the time its child spans cover.  ``QVector.dot``
gets a counting wrapper only: it runs tens of thousands of times per op.
Counts at a layer boundary (cache hits, faces built, strata enumerated and
reached, pieces per face pair) are taken in the same wrappers, from the
arguments and results of the public calls.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# (module, function) pairs wrapped in every module that bound them.
FUNCTIONS = {
    "linalg": ("rref", "kernel", "kernel_of_rows", "orth_complement", "solve", "rank_of_rows", "row_space_basis"),
    "cones": ("face_difference", "strictly_feasible"),
    "sets": ("direction_strata", "directional_normal_cone", "critical_cone", "union_tangent_cone",
             "nearby_critical_cone"),
    "graphmap": ("limiting_normal_graph", "directional_limiting_normal_graph", "regular_normal_graph",
                 "graph_tangent_member", "directional_coderivative_normal_map"),
    "certify": ("check_foscms", "check_soscms", "check_calmness_constraint", "check_aubin", "check_foscms_joint",
                "check_directional_metric_regularity", "check_second_order_directional_subregularity",
                "graphical_derivative_S", "fm_project", "covers_space"),
    "fileio": ("parse_problem", "render_report"),
}

# (module, class, method) -> span name.
METHODS = {
    ("cones", "PolyCone", "from_ineqs"): "cones.from_ineqs",
    ("cones", "PolyCone", "from_generators"): "cones.from_generators",
    ("cones", "PolyCone", "faces"): "cones.faces",
    ("sets", "Polyhedron", "__init__"): "sets.polyhedron_init",
    ("sets", "Polyhedron", "faces"): "sets.polyhedron_faces",
    ("fileio", "Report", "json_block"): "fileio.json_block",
}

LAYERS = ("linalg", "cones", "sets", "graphmap", "certify", "fileio")


class Tracer:
    def __init__(self):
        self.op = None  # id of the open op; None records nothing
        self.stack: list[list] = []  # open spans: [span id, child seconds, touched cones]
        self.spans: list[tuple] = []  # (op, span, parent, name, start, end)
        self.next_id = 0
        self.calls: Counter = Counter()
        self.incl: defaultdict = defaultdict(float)
        self.own: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.dot_calls = 0
        self.post = {
            "cones.from_ineqs": self._cone_out,
            "cones.from_generators": self._cone_out,
            "cones.strictly_feasible": self._feasible,
            "cones.faces": self._faces_built,
            "sets.direction_strata": self._strata,
            "graphmap.limiting_normal_graph": self._graph_pieces,
            "graphmap.directional_limiting_normal_graph": self._graph_pieces,
        }

    # -- ops ------------------------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.stack.append([self._new_id(), 0.0, False, time.perf_counter()])

    def end_op(self) -> None:
        sid, _, _, t0 = self.stack.pop()
        self.spans.append((self.op, sid, None, "op", t0, time.perf_counter()))
        self.op = None

    def _new_id(self) -> int:
        self.next_id += 1
        return self.next_id

    # -- wrappers ---------------------------------------------------------------------

    def span(self, name: str, fn):
        tracer, layer, perf = self, name.split(".", 1)[0], time.perf_counter
        post = self.post.get(name)

        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = [tracer._new_id(), 0.0, False]
            stack = tracer.stack
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent = stack[-1]
                dur = t1 - t0
                parent[1] += dur
                if frame[2] or layer == "cones":
                    parent[2] = True
                tracer.calls[name] += 1
                tracer.incl[name] += dur
                tracer.own[name] += dur - frame[1]
                tracer.spans.append((tracer.op, frame[0], parent[0], name, t0, t1))
            if post is not None:
                post(args, result, frame[2])
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def counting(self, fn):
        tracer = self

        def dot(self, other):
            if tracer.op is not None:
                tracer.dot_calls += 1
            return fn(self, other)

        return dot

    def install(self) -> None:
        mods = {
            name.split(".", 1)[1]: mod for name, mod in sys.modules.items() if name.startswith("polyvar.")
        }
        every = [m for name, m in sys.modules.items() if name == "polyvar" or name.startswith("polyvar.")]
        for modname, names in FUNCTIONS.items():
            for fname in names:
                orig = getattr(mods[modname], fname)
                wrapped = self.span(f"{modname}.{fname}", orig)
                for mod in every:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, key, wrapped)
        self.poly_faces = mods["sets"].Polyhedron.faces
        self.cone_faces = mods["cones"].PolyCone.faces
        for (modname, cls_name, attr), name in METHODS.items():
            cls = getattr(mods[modname], cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, staticmethod):
                setattr(cls, attr, staticmethod(self.span(name, raw.__func__)))
            else:
                setattr(cls, attr, self.span(name, raw))
        qv = mods["linalg"].QVector
        qv.dot = self.counting(qv.__dict__["dot"])

    # -- counts at layer boundaries -----------------------------------------------------

    def _cone_out(self, args, cone, touched) -> None:
        self.count["cones.rays_out"] += len(cone.rays) + len(cone.lin) + len(cone.ineqs) + len(cone.eqs)

    def _feasible(self, args, ok, touched) -> None:
        self.count["cones.strictly_feasible.true"] += bool(ok)

    def _faces_built(self, args, faces, touched) -> None:
        # A call that reached no cone conversion was served from the cone's cache.
        if touched:
            self.count["cones.faces.built"] += len(faces)

    def _strata(self, args, strata, touched) -> None:
        # An LRU hit is a call that makes no call into the cone layer.
        if not touched:
            self.count["sets.direction_strata.hits"] += 1
            return
        enumerated = 1
        for piece in args[0].pieces:
            enumerated *= len(self.poly_faces(piece)) + 1  # cached by the call itself
        self.count["sets.strata.enumerated"] += enumerated - 1
        self.count["sets.strata.reachable"] += len(strata)

    def _graph_pieces(self, args, gnc, touched) -> None:
        self.count["graphmap.pieces_out"] += len(gnc.pieces)
        self.count["graphmap.face_pairs"] += len(self.cone_faces(args[0].critical)) ** 2

    # -- results ------------------------------------------------------------------------

    def layer_self(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, value in self.own.items():
            out[name.split(".", 1)[0]] += value
        return out

    def metrics(self) -> dict[str, float]:
        c, calls, own, incl = self.count, self.calls, self.own, self.incl

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "linalg.rref.calls": calls["linalg.rref"],
            "linalg.rref.self_s": own["linalg.rref"],
            "linalg.dot.calls": self.dot_calls,
            "cones.from_ineqs.calls": calls["cones.from_ineqs"],
            "cones.from_ineqs.self_s": own["cones.from_ineqs"],
            "cones.from_generators.calls": calls["cones.from_generators"],
            "cones.from_generators.self_s": own["cones.from_generators"],
            "cones.rays_out": c["cones.rays_out"],
            "cones.strictly_feasible.calls": calls["cones.strictly_feasible"],
            "cones.strictly_feasible.self_s": own["cones.strictly_feasible"],
            "cones.strictly_feasible.feasible_ratio": ratio(
                c["cones.strictly_feasible.true"], calls["cones.strictly_feasible"]
            ),
            "cones.faces.calls": calls["cones.faces"],
            "cones.faces.self_s": own["cones.faces"],
            "cones.faces.built": c["cones.faces.built"],
            "cones.face_difference.calls": calls["cones.face_difference"],
            "cones.face_difference.self_s": own["cones.face_difference"],
            "sets.polyhedron_faces.calls": calls["sets.polyhedron_faces"],
            "sets.polyhedron_faces.self_s": own["sets.polyhedron_faces"],
            "sets.direction_strata.calls": calls["sets.direction_strata"],
            "sets.direction_strata.self_s": own["sets.direction_strata"],
            "sets.direction_strata.hits": c["sets.direction_strata.hits"],
            "sets.strata.enumerated": c["sets.strata.enumerated"],
            "sets.strata.reachable": c["sets.strata.reachable"],
            "sets.strata.reachable_ratio": ratio(c["sets.strata.reachable"], c["sets.strata.enumerated"]),
            "sets.directional_normal_cone.calls": calls["sets.directional_normal_cone"],
            "graphmap.limiting_normal_graph.calls": calls["graphmap.limiting_normal_graph"],
            "graphmap.limiting_normal_graph.self_s": own["graphmap.limiting_normal_graph"],
            "graphmap.directional_limiting_normal_graph.calls": calls["graphmap.directional_limiting_normal_graph"],
            "graphmap.directional_limiting_normal_graph.self_s": own["graphmap.directional_limiting_normal_graph"],
            "graphmap.pieces_out": c["graphmap.pieces_out"],
            "graphmap.pair_yield": ratio(c["graphmap.pieces_out"], c["graphmap.face_pairs"]),
            "certify.phase_a_s": incl["certify.fm_project"] + incl["certify.covers_space"],
            "fileio.parse_problem.s": incl["fileio.parse_problem"],
            "fileio.render_report.s": incl["fileio.render_report"],
        }
        for check in ("check_foscms", "check_soscms", "check_calmness_constraint", "check_aubin",
                      "check_foscms_joint", "check_directional_metric_regularity"):
            m[f"certify.{check}.s"] = incl[f"certify.{check}"]
        for layer, value in self.layer_self().items():
            m[f"{layer}.self_s"] = value
        m["trace.spans"] = len(self.spans)
        return m

    def layer_calls(self, layer: str) -> int:
        return sum(n for name, n in self.calls.items() if name.startswith(layer + "."))

    def write_spans(self, path: str) -> None:
        """One JSON line per span, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for op, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps([op, sid, parent, name, round(t0, 7), round(t1, 7)]) + "\n")
