"""Paired timing of two polyvar trees on the benchmark's own ops.

    python tools/bench.py pairs --base REV --workload cone-conversion --seed 7 --ops 456 --passes 3 --out BENCH.json

``pairs`` loads two copies of the package into one process.  The base is
revision REV's ``src/polyvar``, unpacked offline with ``git archive`` into
the git-ignored ``.bench/`` (``--base-src DIR`` names a directory that holds
a ``polyvar`` package instead, and needs no git).  The head is the working
tree's ``src/polyvar``.  Each workload runs its first ``--ops`` stream ops
(not its prologue) on both, op by op, through perfbench's own ``prepare``
and ``op`` functions: before a side runs, the ``polyvar`` entries of
``sys.modules`` are swapped for that side's, and which side runs first
alternates from op to op and from pass to pass.  Only the op is timed, in
CPU time of this process; preparing, checking and comparing are not.

The JSON written to ``--out`` holds the host, the Python version and both
revisions, and per workload and seed:

* each pass's summed op CPU time per side and their ratio, head over base
  (below 1: the head is faster), and the ratio of the sums over all passes;
* each op's CPU time per side (its median over the passes) and their ratio,
  one row per op;
* whether each op's outputs are equal on both sides (``equal``: the report
  text, the JSON block and the ``key()`` of every returned cone), and
  beside it which part differs: ``text`` (the report text), ``json`` (the
  JSON block's bytes), ``json_value`` (the JSON block parsed) and ``cones``
  (the cone keys), per op and over all ops;
* the ops that failed perfbench's known-answer checks, per side.

Nothing under ``perfbench/`` is changed; its modules are imported read-only.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import importlib
import io
import json
import os
import pkgutil
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNPACKED = ROOT / ".bench"
CLOCK = time.process_time

sys.path.insert(0, str(ROOT / "perfbench"))

import ops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout.strip()


def unpack(rev: str) -> tuple[str, Path]:
    """(the commit of ``rev``, the ``src`` directory of its unpacked tree)."""
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    dest = UNPACKED / sha
    if not (dest / "src" / "polyvar" / "__init__.py").is_file():
        data = subprocess.run(["git", "archive", sha, "src/polyvar"], cwd=ROOT, check=True, capture_output=True).stdout
        shutil.rmtree(dest, ignore_errors=True)
        with tarfile.open(fileobj=io.BytesIO(data)) as tar:
            tar.extractall(dest, filter="data")
    return sha, dest / "src"


def head_revision() -> dict:
    """The working tree's commit and whether its package differs from it;
    both None without git."""
    try:
        return {"rev": _git("rev-parse", "HEAD"), "dirty": bool(_git("status", "--porcelain", "--", "src/polyvar"))}
    except (OSError, subprocess.CalledProcessError):
        return {"rev": None, "dirty": None}


def _purge() -> None:
    for name in [n for n in sys.modules if n == "polyvar" or n.startswith("polyvar.")]:
        del sys.modules[name]


def load(src: Path) -> dict:
    """Every module of the package under ``src``, imported afresh, as the
    ``sys.modules`` entries to swap in; none is left installed."""
    _purge()
    sys.path.insert(0, str(src))
    try:
        pkg = importlib.import_module("polyvar")
        for info in pkgutil.iter_modules(pkg.__path__):
            if not info.name.startswith("_"):
                importlib.import_module(f"polyvar.{info.name}")
    finally:
        sys.path.remove(str(src))
    if not Path(pkg.__file__).resolve().is_relative_to(src.resolve()):
        raise RuntimeError(f"polyvar was imported from {pkg.__file__}, not from {src}")
    modules = {n: m for n, m in sys.modules.items() if n == "polyvar" or n.startswith("polyvar.")}
    _purge()
    return modules


def use(modules: dict) -> None:
    _purge()
    sys.modules.update(modules)


def _cone_keys(value, cone_type, out: list, seen: set) -> None:
    """The ``key()`` of every cone reachable from ``value`` through
    containers and the public fields of the package's objects, in order, with
    the active sets that name faces."""
    if isinstance(value, cone_type):
        out.append(value.key())
    elif isinstance(value, dict):
        for v in value.values():
            _cone_keys(v, cone_type, out, seen)
    elif isinstance(value, (list, tuple)):
        for v in value:
            _cone_keys(v, cone_type, out, seen)
    elif isinstance(value, frozenset):
        out.append(sorted(value))
    elif type(value).__module__.startswith("polyvar.") and id(value) not in seen:
        seen.add(id(value))
        if dataclasses.is_dataclass(value):
            names = [f.name for f in dataclasses.fields(value)]
        else:
            names = [n for n in getattr(type(value), "__slots__", ()) if not n.startswith("_")]
        for name in names:
            _cone_keys(getattr(value, name), cone_type, out, seen)


PARTS = ("text", "json", "json_value", "cones")


def _sha(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(item.encode())
    return h.hexdigest()


def fingerprint(reports: list, extra: dict) -> dict:
    """sha256 of each part of what an op returned (``PARTS``): the reports'
    texts, their JSON blocks as bytes and as parsed values, and the cone keys
    of ``extra``, read with the active side's modules."""
    keys: list = []
    _cone_keys(extra, sys.modules["polyvar.cones"].PolyCone, keys, set())
    return {
        "text": _sha(rep.text for rep, _ in reports),
        "json": _sha(block for _, block in reports),
        "json_value": _sha(json.dumps(json.loads(block), sort_keys=True) for _, block in reports),
        "cones": _sha([repr(keys)]),
    }


def run_op(wl, path: str, meta: dict) -> tuple[float, dict, bool]:
    """(op CPU time, output fingerprint by part, whether the op passed its
    checks) of one op on the installed side."""
    try:
        pre = wl.prepare(path, meta) if wl.prepare else None
        start = CLOCK()
        certs, reports, extra = wl.op(path, meta, pre)
        took = CLOCK() - start
        ok = not ops.check(wl.name, meta, certs, reports, extra)
    except Exception as exc:  # a failing op is recorded, not fatal
        return 0.0, dict.fromkeys(PARTS, f"raised {type(exc).__name__}: {exc}"), False
    return took, fingerprint(reports, extra), ok


def pairs(wl, seed: int, count: int, passes: int, sides: dict, workdir: str) -> dict:
    inputs = [wl.stream_input(seed, i) for i in range(count)]
    paths = []
    for inp in inputs:
        path = os.path.join(workdir, f"{wl.name}-{seed}-{inp.name}.json")
        with open(path, "wb") as fh:
            fh.write(inp.data)
        paths.append(path)
    times = {side: [[0.0] * passes for _ in inputs] for side in sides}
    same = [dict.fromkeys(PARTS, True) for _ in inputs]
    failed = {side: set() for side in sides}
    per_pass = []
    for p in range(passes):
        gc.collect()
        for i, (inp, path) in enumerate(zip(inputs, paths)):
            order = list(sides) if (i + p) % 2 == 0 else list(sides)[::-1]
            prints = {}
            for side in order:
                use(sides[side])
                times[side][i][p], prints[side], ok = run_op(wl, path, inp.meta)
                if not ok:
                    failed[side].add(inp.name)
            for part in PARTS:
                same[i][part] = same[i][part] and prints["base"][part] == prints["head"][part]
        sums = {side: sum(t[p] for t in times[side]) for side in sides}
        per_pass.append({"base_s": round(sums["base"], 7), "head_s": round(sums["head"], 7), "ratio": _ratio(sums["head"], sums["base"])})
    total = {side: sum(map(sum, times[side])) for side in sides}
    equal = [s["text"] and s["json"] and s["cones"] for s in same]
    per_op = []
    for i, inp in enumerate(inputs):
        base, head = (statistics.median(times[side][i]) for side in ("base", "head"))
        per_op.append([inp.name, round(base, 7), round(head, 7), _ratio(head, base), equal[i], *same[i].values()])
    return {
        "workload": wl.name,
        "seed": seed,
        "ops": count,
        "passes": per_pass,
        "base_s": round(total["base"], 7),
        "head_s": round(total["head"], 7),
        "ratio": _ratio(total["head"], total["base"]),
        "head_faster_passes": sum(r["ratio"] < 1 for r in per_pass),
        "equal": all(equal),
        "same": {part: all(s[part] for s in same) for part in PARTS},
        "failed": {side: sorted(names) for side, names in failed.items()},
        "per_op": {"fields": ["name", "base_s", "head_s", "ratio", "equal", *PARTS], "rows": per_op},
    }


def _ratio(head: float, base: float) -> float | None:
    return round(head / base, 4) if base > 0 else None


def _dumps(value, depth: int = 0) -> str:
    """JSON with one item per line, indented by one space per level, except
    that a list of scalars (one per-op row) stays on one line."""
    pad, end = " " * (depth + 1), "\n" + " " * depth
    if isinstance(value, dict) and value:
        return "{\n" + ",\n".join(f"{pad}{json.dumps(k)}: {_dumps(v, depth + 1)}" for k, v in value.items()) + end + "}"
    if isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        return "[\n" + ",\n".join(pad + _dumps(v, depth + 1) for v in value) + end + "]"
    return json.dumps(value)


def cmd_pairs(args) -> int:
    if args.base_src:
        base = {"rev": None, "src": args.base_src}
        base_src = Path(args.base_src)
    else:
        sha, base_src = unpack(args.base)
        base = {"rev": sha, "src": None}
    sides = {"base": load(base_src), "head": load(ROOT / "src")}
    runs = []
    with tempfile.TemporaryDirectory() as workdir:
        for name in args.workload:
            for seed in args.seed:
                run = pairs(WORKLOADS[name], seed, args.ops, args.passes, sides, workdir)
                print(
                    f"{name} seed {seed}: {args.ops} ops x {args.passes} passes, op CPU base {run['base_s']:.3f} s, "
                    f"head {run['head_s']:.3f} s, ratio {run['ratio']:.4f}, head faster in "
                    f"{run['head_faster_passes']} of {args.passes} passes, outputs equal: {run['equal']} "
                    f"({', '.join(f'{part} {same}' for part, same in run['same'].items())})",
                    file=sys.stderr,
                )
                runs.append(run)
    _purge()
    result = {
        "tool": "tools/bench.py pairs",
        "clock": "time.process_time of the op alone",
        "host": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "processor": platform.processor(),
            "cpus": os.cpu_count(),
        },
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "base": base,
        "head": head_revision(),
        "runs": runs,
    }
    Path(args.out).write_text(_dumps(result) + "\n", encoding="utf-8")
    bad = [r for r in runs if not r["equal"] or any(r["failed"].values())]
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)
    p = sub.add_parser("pairs", help="time the head against a base revision, op by op, in one process")
    base = p.add_mutually_exclusive_group(required=True)
    base.add_argument("--base", help="the base revision, unpacked with git archive")
    base.add_argument("--base-src", help="a directory holding the base's polyvar package")
    p.add_argument("--workload", nargs="+", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", nargs="+", type=int, required=True)
    p.add_argument("--ops", type=int, required=True, help="stream ops per workload and seed")
    p.add_argument("--passes", type=int, default=3)
    p.add_argument("--out", default="BENCH.json", help="where the JSON goes")
    args = ap.parse_args(argv)
    return cmd_pairs(args)


if __name__ == "__main__":
    sys.exit(main())
