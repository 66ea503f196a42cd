"""The three workloads: which inputs each op gets, and the known answers.

Every workload is one closed-loop client: the next op starts when the last
one has finished.  A run first executes the workload's *prologue*: fixed inputs, the same
in every run, holding the ROADMAP family instances that later changes state
their gates in and the heaviest shapes.  Then it runs a fixed number of
*stream* ops, whole cycles of the stream pattern, set by ``--seconds`` and
the workload's ``stream_rate``.  Each stream slot has a fixed structure
(dimension, number of pieces or rows, parameter count) and a pool of
``POOL`` random shapes of that structure; op i takes the next shape of its
slot in seeded fresh coordinates (see ``problems.recoordinate_*``).  Runs
with different seeds therefore see new files but the same amount of work,
and a faster program does the same work in less time.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import ops
import problems as P

POOL = 16  # shapes per stream slot
POOL_SEED = 0  # the pools are the same for every workload seed
MIN_STREAM_OPS = 100  # so that at least 10 samples lie beyond p90

BUNDLED = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "polyvar", "problems")

# The verdicts `polyvar examples run 3|4|5` asserts, restricted to the checks
# the ops run.
EX3 = {"verdicts": {"foscms": "holds", "calmness": "holds", "aubin": "not_certified"}, "linear_solvability": True}
EX4 = {"verdicts": {"foscms": "not_certified", "soscms": "holds"}, "witness_vstar": ["1", "1"]}
EX5 = {"verdicts": {"aubin": "holds", "aubin-theorem": "holds"}}
ALL_HOLD = {"verdicts": {"foscms": "holds", "calmness": "holds", "aubin": "holds"}}


@dataclass
class Input:
    """One op's input: the file bytes, the known answers, and the ROADMAP
    family row (``family.<name>.s``) it is timed under, if any."""

    name: str
    data: bytes
    meta: dict = field(default_factory=dict)
    family: str | None = None


@dataclass
class Workload:
    name: str
    op: Callable
    parse: Callable[[str], object]  # what set-up runs on every input file
    prologue: Callable[[], list[Input]]
    stream: list[Callable[[int, int, int], Input]]
    setup_inputs: int  # stream inputs generated (and parsed) during set-up
    # Stream ops per second of --seconds: chosen so that a whole run,
    # prologue included, took about --seconds at the commit that defined the
    # benchmark, on a shared 2-vCPU x86-64 host.  It fixes the work; it is
    # not measured.
    stream_rate: float
    # Untimed, untraced per-op preparation whose result the op receives.
    prepare: Callable[[str, dict], object] | None = None

    def inputs(self, seed: int, count: int) -> list[Input]:
        """Prologue plus the first ``count`` stream inputs."""
        first = self.prologue()
        for j, inp in enumerate(first):
            inp.name = f"p{j:02d}-{inp.name}"
        return first + [self.stream_input(seed, i) for i in range(count)]

    def stream_ops(self, seconds: float) -> int:
        """The fixed stream length for a run of ``seconds``: whole cycles of
        the stream pattern, at least ``MIN_STREAM_OPS`` ops."""
        slots = len(self.stream)
        wanted = max(seconds * self.stream_rate, MIN_STREAM_OPS)
        return slots * math.ceil(wanted / slots)

    def stream_input(self, seed: int, i: int) -> Input:
        # Offsetting the pool index by the slot gives two slots of the same
        # structure different shapes within one cycle.
        slots = len(self.stream)
        j = i % slots
        return self.stream[j](seed, i, (i // slots + j) % POOL)


def bundled(name: str, meta: dict) -> Input:
    with open(os.path.join(BUNDLED, f"{name}.json"), "rb") as fh:
        return Input(name, fh.read(), meta, family=name)


def encoded(name: str, data: dict, meta: dict | None = None, family: str | None = None) -> Input:
    return Input(name, P.encode(data), meta or {}, family)


# -- constraint-strata ----------------------------------------------------------------


def constraint_prologue() -> list[Input]:
    # Pure complementarity: one D per size and run, so the strata cache of
    # the program never serves one op from another's work.  The largest
    # random shapes cost up to ten times a stream op, so they are fixed here.
    heavy = [union(3, 3, 2, 1, False), union(3, 3, 3, 2, True), union(4, 2, 2, 1, False),
             union(4, 2, 3, 1, True), square(3, 2, 2), union(4, 3, 2, 1, False)]
    return [
        encoded("comp-k2", P.constraint_complementarity(0, 0, 2, False), {"strata": 9}, "complementarity.k2"),
        encoded("comp-k1", P.constraint_complementarity(0, 0, 1, False), {"strata": 3}, "complementarity.k1"),
        bundled("ex3", EX3),
        bundled("ex4", EX4),
    ] + [make(0, j, j) for j, make in enumerate(heavy)]


def coords(seed: int, i: int):
    return P.rng_for(seed, "coordinates", i)


def union(m: int, npieces: int, n: int, l: int, hessians: bool):
    def make(seed: int, i: int, k: int) -> Input:
        data = P.constraint_random(POOL_SEED, k, m, npieces, n, l, hessians)
        data = P.recoordinate_constraint(data, coords(seed, i))
        return encoded(f"s{i:05d}-union-m{m}-p{npieces}-n{n}-l{l}{'-h' if hessians else ''}-k{k}", data)

    return make


def square(m: int, npieces: int, l: int):
    def make(seed: int, i: int, k: int) -> Input:
        data = P.recoordinate_constraint(P.constraint_square(POOL_SEED, k, m, npieces, l), coords(seed, i))
        return encoded(f"s{i:05d}-square-m{m}-p{npieces}-l{l}-k{k}", data, ALL_HOLD)

    return make


def bounded_complementarity(l: int):
    def make(seed: int, i: int, k: int) -> Input:
        data = P.constraint_complementarity(POOL_SEED, k, 1, True, l)
        data = P.recoordinate_constraint(data, coords(seed, i))
        return encoded(f"s{i:05d}-comp-k1-bounded-l{l}-k{k}", data, {"strata": 3})

    return make


CONSTRAINT_STREAM = [
    union(3, 1, 2, 1, False), union(3, 2, 2, 1, True), bounded_complementarity(1), union(4, 1, 3, 2, False),
    square(3, 1, 1), union(3, 1, 3, 2, True), union(3, 2, 3, 1, False), bounded_complementarity(2),
    union(3, 1, 2, 2, True), union(4, 1, 2, 1, True), union(3, 1, 3, 1, False), bounded_complementarity(1),
    union(3, 2, 2, 2, False), square(3, 1, 2), union(4, 1, 2, 2, False), bounded_complementarity(2),
]


# -- variational-faces ------------------------------------------------------------------


def hash_seed(seed: int, *tag) -> int:
    return P.rng_for(seed, "direction", *tag).getrandbits(32)


def pointed(n: int, extra: int, l: int):
    def make(seed: int, i: int, k: int = 0) -> Input:
        data, faces = P.variational_pointed(seed, i, n, extra, l)
        meta = {"dir_seed": hash_seed(seed, "pointed", n, extra, l, i), "faces": faces}
        if extra == 0:
            meta["pieces"] = 3 ** n  # simplicial: 3^n difference cones
        return encoded(f"s{i:05d}-pointed-n{n}-f{n + extra}-l{l}", data, meta)

    return make


def random_polyhedron(n: int, nrows: int, active: int, l: int):
    def make(seed: int, i: int, k: int) -> Input:
        data = P.variational_random(POOL_SEED, k, n, nrows, active, l)
        data = P.recoordinate_variational(data, coords(seed, i))
        meta = {"dir_seed": hash_seed(seed, "random", i)}
        return encoded(f"s{i:05d}-polyhedron-n{n}-r{nrows}-a{active}-l{l}-k{k}", data, meta)

    return make


def variational_prologue() -> list[Input]:
    ex5 = bundled("ex5", EX5)
    ex5.meta = dict(ex5.meta, dir_seed=hash_seed(0, "ex5"))
    shapes = ((3, 0, 2), (4, 0, 1), (3, 1, 1), (3, 2, 1), (3, 0, 1), (3, 0, 1), (3, 0, 1))
    return [ex5] + [pointed(n, extra, l)(0, j) for j, (n, extra, l) in enumerate(shapes)]


VARIATIONAL_STREAM = [
    random_polyhedron(2, 3, 2, 1), random_polyhedron(2, 4, 2, 1), random_polyhedron(3, 3, 2, 1),
    random_polyhedron(2, 3, 1, 2), random_polyhedron(3, 4, 2, 1), random_polyhedron(3, 4, 3, 1),
    random_polyhedron(3, 3, 1, 2), random_polyhedron(2, 2, 2, 2), random_polyhedron(3, 3, 3, 1),
    random_polyhedron(2, 4, 3, 1), random_polyhedron(3, 5, 2, 1), random_polyhedron(3, 2, 1, 2),
]


# -- cone-conversion --------------------------------------------------------------------


def orthant_from_ineqs(n: int):
    def make(seed: int, i: int, k: int = 0) -> Input:
        job = P.cone_job("from-ineqs", n, ineqs=P.orthant_rows(n))
        return encoded(f"s{i:05d}-orthant-n{n}", job, {"rays": n, "facets": n}, f"orthant_from_ineqs.n{n}")

    return make


def cross_polytope(n: int):
    def make(seed: int, i: int, k: int = 0) -> Input:
        job = P.cone_job("from-generators", n, rays=P.cross_polytope_rays(n))
        return encoded(f"s{i:05d}-cross-n{n}", job, {"facets": 2 ** (n - 1)}, f"cross_polytope_from_generators.n{n}")

    return make


def orthant_faces(n: int):
    def make(seed: int, i: int, k: int = 0) -> Input:
        job = P.cone_job("cone-faces", n, ineqs=P.orthant_rows(n))
        return encoded(f"s{i:05d}-orthant-faces-n{n}", job, {"faces": 2 ** n}, f"orthant_faces.n{n}")

    return make


def cube_faces(n: int):
    def make(seed: int, i: int, k: int = 0) -> Input:
        job = P.cone_job("polyhedron-faces", n, A=P.cube_polyhedron(n)["A"])
        return encoded(f"s{i:05d}-cube-faces-n{n}", job, {"faces": 3 ** n}, f"cube_faces.n{n}")

    return make


def cone_prologue() -> list[Input]:
    makers = [orthant_from_ineqs(n) for n in (8, 9, 10)] + [cross_polytope(n) for n in (5, 6)]
    makers += [orthant_faces(n) for n in (5, 6)] + [cube_faces(n) for n in (3, 4)]
    return [make(0, j) for j, make in enumerate(makers)]


def random_pair(dim: int, rows_a: int, rows_b: int, form_a: str, form_b: str):
    def make(seed: int, i: int, k: int) -> Input:
        data = P.cone_random(POOL_SEED, k, dim, rows_a, rows_b, form_a, form_b)
        data = P.recoordinate_job(data, coords(seed, i))
        return encoded(f"s{i:05d}-pair-d{dim}-{form_a[0]}{rows_a}-{form_b[0]}{rows_b}-k{k}", data)

    return make


CONE_STREAM = [
    random_pair(4, 4, 4, "ineqs", "ineqs"), random_pair(4, 5, 3, "generators", "ineqs"),
    random_pair(5, 4, 4, "generators", "generators"), orthant_from_ineqs(8),
    random_pair(5, 5, 3, "ineqs", "generators"), random_pair(4, 3, 5, "ineqs", "ineqs"),
    random_pair(5, 4, 5, "ineqs", "generators"), cross_polytope(5),
    random_pair(4, 5, 5, "generators", "generators"), random_pair(5, 3, 4, "generators", "ineqs"),
    random_pair(5, 5, 5, "ineqs", "ineqs"), random_pair(4, 5, 3, "ineqs", "generators"),
    random_pair(4, 4, 3, "ineqs", "generators"), random_pair(5, 4, 3, "ineqs", "ineqs"),
    random_pair(4, 4, 5, "generators", "ineqs"), orthant_from_ineqs(9),
    random_pair(5, 3, 3, "generators", "generators"), random_pair(4, 5, 4, "ineqs", "generators"),
    random_pair(5, 5, 4, "generators", "ineqs"), orthant_from_ineqs(10),
    random_pair(4, 3, 4, "generators", "generators"), random_pair(5, 4, 4, "ineqs", "ineqs"),
    random_pair(4, 4, 4, "generators", "ineqs"), cross_polytope(5),
]


WORKLOADS = {
    "constraint-strata": Workload(
        "constraint-strata", ops.constraint_op, ops.parse_problem, constraint_prologue, CONSTRAINT_STREAM, 120,
        stream_rate=6.9,
    ),
    "variational-faces": Workload(
        "variational-faces", ops.variational_op, ops.parse_problem, variational_prologue, VARIATIONAL_STREAM, 120,
        stream_rate=10.8, prepare=ops.variational_direction,
    ),
    "cone-conversion": Workload(
        "cone-conversion", ops.cone_op, ops.load_job, cone_prologue, CONE_STREAM, 300,
        stream_rate=15.2,
    ),
}

FAMILIES = (
    "complementarity.k1", "complementarity.k2", "ex3", "ex4", "ex5",
    "orthant_from_ineqs.n8", "orthant_from_ineqs.n9", "orthant_from_ineqs.n10",
    "cross_polytope_from_generators.n5", "cross_polytope_from_generators.n6",
    "orthant_faces.n5", "orthant_faces.n6", "cube_faces.n3", "cube_faces.n4",
)
