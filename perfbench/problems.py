"""Seeded generation of the benchmark's input files.

Every generator is pure Python over ``random.Random`` and ``Fraction``: it
never calls polyvar, so generating inputs costs the same on every commit and
an input is valid by construction, not by a library check.  Certify
workloads write problem files in the schema of ``src/polyvar/problems/*.json``
(see ``polyvar.fileio``); the cone workload writes job files with the same
scalar convention (exact rationals as ``"n/d"`` strings), because the problem
schema has no bare-cone kind.

Generators return plain dicts; ``encode`` turns one into the exact bytes
written to disk, so "same seed, same bytes" is checkable.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import product


def vec(xs) -> list[str]:
    return [str(Fraction(x)) for x in xs]


def mat(rows) -> list[list[str]]:
    return [vec(r) for r in rows]


def encode(data: dict) -> bytes:
    return (json.dumps(data, sort_keys=True, indent=1) + "\n").encode("utf-8")


def rng_for(seed: int, *tag) -> random.Random:
    """Independent stream per (workload seed, input tag); str seeds are stable."""
    return random.Random(":".join(str(t) for t in (seed,) + tag))


def unit(n: int, i: int, s: int = 1) -> list[int]:
    return [s if j == i else 0 for j in range(n)]


def random_matrix(r: random.Random, nrows: int, ncols: int) -> list[list[int]]:
    return [[r.randint(-2, 2) for _ in range(ncols)] for _ in range(nrows)]


def unimodular(r: random.Random, n: int) -> list[list[int]]:
    """Integer matrix with determinant +-1 and an integral inverse."""
    return unimodular_pair(r, n, n)[0]


def unimodular_pair(r: random.Random, n: int, shears: int) -> tuple[list[list[int]], list[list[int]]]:
    """A random signed permutation times ``shears`` elementary shears, and its
    inverse, both integral."""
    perm = list(range(n))
    r.shuffle(perm)
    signs = [r.choice((-1, 1)) for _ in range(n)]
    m = [[signs[i] if perm[i] == j else 0 for j in range(n)] for i in range(n)]
    inv = transpose(m)
    for _ in range(shears):
        i, j = r.sample(range(n), 2)
        c = r.choice((-1, 1))
        shear = [[1 if a == b else (c if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
        unshear = [[1 if a == b else (-c if (a, b) == (i, j) else 0) for b in range(n)] for a in range(n)]
        m, inv = matmul(m, shear), matmul(unshear, inv)
    return m, inv


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def transpose(a):
    return [list(col) for col in zip(*a)]


def matvec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def parse_mat(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def parse_vec(xs) -> list[Fraction]:
    return [Fraction(x) for x in xs]


def random_symmetric(r: random.Random, n: int) -> list[list[int]]:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = r.randint(-2, 2)
    return m


def polyhedron(A=(), b=(), E=(), e=()) -> dict:
    return {"A": mat(A), "b": vec(b), "E": mat(E), "e": vec(e)}


# -- constraint systems ---------------------------------------------------------


def constraint_problem(label, l, n, m, Jp, Jx, g0, pieces, hessians=None) -> dict:
    data = {
        "kind": "constraint",
        "label": label,
        "dims": {"l": l, "n": n, "m": m},
        "Jp": mat(Jp),
        "Jx": mat(Jx),
        "g0": vec(g0),
        "D": {"pieces": pieces},
        "param_lipschitz": True,
    }
    if hessians is not None:
        data["hessians"] = [mat(h) for h in hessians]
    return data


def random_cone_union(r: random.Random, m: int, npieces: int) -> list[dict]:
    """``npieces`` polyhedral cones through the origin, shaped like the test
    corpus: 1-3 rows with entries in {-1, 0, 1}, sometimes one equation.
    Homogeneous systems always contain 0, so every piece is nonempty."""
    pieces = []
    for _ in range(npieces):
        rows = []
        for _ in range(r.randint(1, 3)):
            row = [r.randint(-1, 1) for _ in range(m)]
            if not any(row):
                row[r.randrange(m)] = 1
            rows.append(row)
        eqs = []
        if r.random() < 0.4:
            eq = [r.randint(-1, 1) for _ in range(m)]
            if any(eq):
                eqs.append(eq)
        pieces.append(polyhedron(rows, [0] * len(rows), eqs, [0] * len(eqs)))
    return pieces


def constraint_random(seed: int, idx: int, m: int, npieces: int, n: int, l: int, hessians: bool) -> dict:
    """Random union of ``npieces`` cones in R^m with random Jacobians."""
    r = rng_for(seed, "constraint-random", m, npieces, n, l, hessians, idx)
    hess = [random_symmetric(r, n) for _ in range(m)] if hessians else None
    return constraint_problem(
        f"random union #{idx}", l, n, m,
        random_matrix(r, m, l), random_matrix(r, m, n), [0] * m,
        random_cone_union(r, m, npieces), hess,
    )


def constraint_square(seed: int, idx: int, m: int, npieces: int, l: int) -> dict:
    """Random union of ``npieces`` cones in R^m with a square unimodular (so
    invertible) Jx.  Known answer: foscms, calmness and aubin all hold."""
    r = rng_for(seed, "constraint-square", m, npieces, l, idx)
    return constraint_problem(
        f"square invertible Jx #{idx}", l, m, m,
        random_matrix(r, m, l), unimodular(r, m), [0] * m,
        random_cone_union(r, m, npieces),
    )


def complementarity_pieces(k: int, bounds: dict[int, int] | None = None) -> list[dict]:
    """The 2^k pieces of k complementarity pairs (y_i, y_{k+i}) in R^{2k}.

    ``bounds`` maps a coordinate to an upper bound added to every piece where
    that coordinate may be positive; bounds are inactive at 0, so the strata
    at 0 stay the 3^k of pure complementarity.
    """
    m = 2 * k
    pieces = []
    for choice in product((0, 1), repeat=k):
        A, b, E = [], [], []
        for i, c in enumerate(choice):
            free, zero = (i, k + i) if c == 0 else (k + i, i)
            A.append(unit(m, free, -1))
            b.append(0)
            E.append(unit(m, zero))
            if bounds and free in bounds:
                A.append(unit(m, free))
                b.append(bounds[free])
        pieces.append(polyhedron(A, b, E, [0] * len(E)))
    return pieces


def constraint_complementarity(seed: int, idx: int, k: int, bounded: bool, l: int = 1) -> dict:
    """Complementarity union with k pairs and random Jacobians and Hessians.
    With ``bounded``, seeded upper bounds make every D distinct."""
    r = rng_for(seed, "constraint-comp", k, bounded, l, idx)
    m, n = 2 * k, 2
    bounds = None
    if bounded:
        coords = r.sample(range(m), r.randint(1, m))
        bounds = {c: r.randint(1, 999) for c in coords}
    hess = [random_symmetric(r, n) for _ in range(m)]
    return constraint_problem(
        f"complementarity k={k} #{idx}", l, n, m,
        random_matrix(r, m, l), random_matrix(r, m, n), [0] * m,
        complementarity_pieces(k, bounds), hess,
    )


# -- variational systems ----------------------------------------------------------


def variational_problem(label, l, n, Jp, Jx, xbar, ybarstar, gamma) -> dict:
    return {
        "kind": "variational",
        "label": label,
        "dims": {"l": l, "n": n},
        "Jp": mat(Jp),
        "Jx": mat(Jx),
        "xbar": vec(xbar),
        "ybarstar": vec(ybarstar),
        "gamma": gamma,
        "param_lipschitz": True,
    }


def simplex_rows(n: int, first: int, size: int) -> list[list[int]]:
    """Facet rows (``row . y <= 0``) of the cone over a standard simplex on
    coordinates first..first+size-1, homogenized by the last coordinate t."""
    rows = [unit(n, first + i, -1) for i in range(size)]
    rows.append([1 if first <= j < first + size else 0 for j in range(n - 1)] + [-1])
    return rows


def pointed_cone_rows(n: int, extra: int) -> tuple[list[list[int]], int]:
    """Facet rows of a pointed cone in R^n with n + extra facets, and its
    number of faces.

    extra 0: the orthant (2^n faces).  extra 1: the cone over
    simplex x segment (n+1 facets).  extra 2: the cone over
    simplex x segment x segment for n >= 4, over a pentagon for n = 3.
    A cone over a polytope P has (#nonempty faces of P) + 1 faces, and the
    simplex of dimension d has 2^(d+1) - 1 nonempty faces.
    """
    if extra == 0:
        return [unit(n, i, -1) for i in range(n)], 2 ** n
    if extra == 2 and n == 3:
        # x >= 0, y >= 0, x <= 2t, y <= 2t, x + y <= 3t: a pentagon.
        return [[-1, 0, 0], [0, -1, 0], [1, 0, -2], [0, 1, -2], [1, 1, -3]], 5 + 5 + 1 + 1
    segs = extra
    d = n - 1 - segs  # dimension of the simplex factor
    rows = simplex_rows(n, 0, d) if d > 0 else []
    for s in range(segs):
        c = d + s
        rows += [unit(n, c, -1), [1 if j == c else 0 for j in range(n - 1)] + [-1]]
    faces = (2 ** (d + 1) - 1) * 3 ** segs + 1
    return rows, faces


def variational_pointed(seed: int, idx: int, n: int, extra: int, l: int) -> tuple[dict, int]:
    """Pointed cone with n + extra facets at xbar = 0, ybarstar = 0, so the
    critical cone is the whole cone.  The orthant is used as is; the other
    shapes go through a seeded unimodular change of coordinates, which keeps
    their face lattice.  Returns the problem and its critical-cone face count."""
    r = rng_for(seed, "variational-pointed", n, extra, l, idx)
    rows, faces = pointed_cone_rows(n, extra)
    if extra:
        rows = matmul(rows, unimodular(r, n))
    gamma = polyhedron(rows, [0] * len(rows))
    data = variational_problem(
        f"pointed cone n={n} facets={n + extra} #{idx}", l, n,
        random_matrix(r, n, l), random_matrix(r, n, n), [0] * n, [0] * n, gamma,
    )
    return data, faces


def variational_random(seed: int, idx: int, n: int, nrows: int, active: int, l: int) -> dict:
    """Random polyhedron in R^n with ``nrows`` rows at a graph point: xbar is
    an integer point where the first ``active`` rows are tight and the others
    slack, and ybarstar is a nonnegative combination of the tight rows."""
    r = rng_for(seed, "variational-random", n, nrows, active, l, idx)
    xbar = [r.randint(-1, 1) for _ in range(n)]
    A, b, ystar = [], [], [Fraction(0)] * n
    for j in range(nrows):
        row = [r.randint(-2, 2) for _ in range(n)]
        if not any(row):
            row[r.randrange(n)] = 1
        A.append(row)
        b.append(sum(x * y for x, y in zip(row, xbar)) + (0 if j < active else r.choice((1, 2))))
        if j < active:
            c = r.choice((0, 1, 2, Fraction(1, 2)))
            ystar = [s + c * a for s, a in zip(ystar, row)]
    return variational_problem(
        f"random polyhedron #{idx}", l, n,
        random_matrix(r, n, l), random_matrix(r, n, n), xbar, ystar, polyhedron(A, b),
    )


# -- fresh coordinates ----------------------------------------------------------------
#
# A stream op takes a shape from a fixed pool and a seeded linear change of
# coordinates (a signed permutation and one shear).  The file, and so every
# D the strata cache sees, is new; the combinatorial work is that of the
# shape.  Runs with different seeds then differ in coordinates, not in how
# much work they contain, and verdicts, strata, faces and pieces are
# invariant, so the known answers of a shape hold for every copy.


def recoordinate_constraint(data: dict, r: random.Random) -> dict:
    """The same system in coordinates y = M y' and x = N x'."""
    m, n = data["dims"]["m"], data["dims"]["n"]
    M, Minv = unimodular_pair(r, m, 1)
    N, _ = unimodular_pair(r, n, 1)
    out = dict(data)
    out["Jp"] = mat(matmul(Minv, parse_mat(data["Jp"]))) if data["dims"]["l"] else data["Jp"]
    out["Jx"] = mat(matmul(matmul(Minv, parse_mat(data["Jx"])), N))
    out["g0"] = vec(matvec(Minv, parse_vec(data["g0"])))
    out["D"] = {"pieces": [recoordinate_polyhedron(p, M) for p in data["D"]["pieces"]]}
    if "hessians" in data:
        hs = [parse_mat(h) for h in data["hessians"]]
        mixed = [[[sum(Minv[i][j] * hs[j][a][b] for j in range(m)) for b in range(n)] for a in range(n)]
                 for i in range(m)]
        out["hessians"] = [mat(matmul(matmul(transpose(N), h), N)) for h in mixed]
    return out


def recoordinate_variational(data: dict, r: random.Random) -> dict:
    """The same generalized equation in coordinates x = N x': gamma becomes
    N^-1 gamma, normals map by N^T, and the equation is multiplied by N^T."""
    n = data["dims"]["n"]
    N, Ninv = unimodular_pair(r, n, 1)
    Nt = transpose(N)
    out = dict(data)
    out["Jp"] = mat(matmul(Nt, parse_mat(data["Jp"]))) if data["dims"]["l"] else data["Jp"]
    out["Jx"] = mat(matmul(matmul(Nt, parse_mat(data["Jx"])), N))
    out["xbar"] = vec(matvec(Ninv, parse_vec(data["xbar"])))
    out["ybarstar"] = vec(matvec(Nt, parse_vec(data["ybarstar"])))
    out["gamma"] = recoordinate_polyhedron(data["gamma"], N)
    return out


def recoordinate_polyhedron(p: dict, T) -> dict:
    """{y : A y <= b, E y = e} in coordinates y = T y'."""
    return {
        "A": mat(matmul(parse_mat(p["A"]), T)) if p["A"] else [],
        "b": p["b"],
        "E": mat(matmul(parse_mat(p["E"]), T)) if p["E"] else [],
        "e": p["e"],
    }


def recoordinate_job(job: dict, r: random.Random) -> dict:
    """Both cones of a pair mapped by the same T^-1: constraint rows a become
    a T and generators g become T^-1 g."""
    T, Tinv = unimodular_pair(r, job["dim"], 1)
    out = dict(job)
    for key, rows in job.items():
        if key.endswith("_ineqs"):
            out[key] = mat(matmul(parse_mat(rows), T))
        elif key.endswith("_generators"):
            out[key] = mat(transpose(matmul(Tinv, transpose(parse_mat(rows)))))
    return out


# -- cone-layer jobs --------------------------------------------------------------


def cone_job(kind: str, dim: int, **fields) -> dict:
    out = {"kind": kind, "dim": dim}
    for key, rows in fields.items():
        out[key] = mat(rows)
    return out


def orthant_rows(n: int) -> list[list[int]]:
    return [unit(n, i, -1) for i in range(n)]


def cross_polytope_rays(n: int) -> list[list[int]]:
    """The n-1 pairs +-e_i + e_n: the cone over a cross-polytope, 2^(n-1) facets."""
    rays = []
    for i in range(n - 1):
        for s in (1, -1):
            v = unit(n, i, s)
            v[n - 1] = 1
            rays.append(v)
    return rays


def cube_polyhedron(n: int) -> dict:
    """[-1, 1]^n as a polyhedron (3^n nonempty faces)."""
    A = [unit(n, i, s) for i in range(n) for s in (1, -1)]
    return polyhedron(A, [1] * len(A))


def random_rows(r: random.Random, dim: int, count: int) -> list[list[int]]:
    rows = []
    for _ in range(count):
        row = [r.randint(-2, 2) for _ in range(dim)]
        if not any(row):
            row[r.randrange(dim)] = 1
        rows.append(row)
    return rows


def cone_random(seed: int, idx: int, dim: int, rows_a: int, rows_b: int, form_a: str, form_b: str) -> dict:
    """Two random cones in R^dim given by ``rows_a`` and ``rows_b`` rows, as
    constraints or as generators (``form_*`` is "ineqs" or "generators"); the
    job converts them, takes a polar, and forms their intersection and
    Minkowski sum."""
    r = rng_for(seed, "cone-random", dim, rows_a, rows_b, form_a, form_b, idx)
    return cone_job(
        "random-pair", dim,
        **{f"a_{form_a}": random_rows(r, dim, rows_a), f"b_{form_b}": random_rows(r, dim, rows_b)},
    )
