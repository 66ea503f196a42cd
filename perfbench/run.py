"""polyvar benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload constraint-strata --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; polyvar is imported from its ``src``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A run does fixed work: the
workload's prologue, then a stream of ops whose number ``--seconds`` sets
(see ``Workload.stream_ops``).  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics of a traced
run, followed by an untraced replay of the same ops that gives the tracing
overhead, the family rows and a verdict cross-check.  Inputs, and the spans
of a traced run, go to ``.perfbench/`` in the checkout.  See DESIGN.md for
the metrics and what each should move.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUPS = 5  # set-ups per run; setup_s is their median
# Stop starting ops this long after start-up, so that every run exits within
# three minutes even on a much slower program (the run then fails).
DEADLINE = time.monotonic() + 160.0

import ops  # noqa: E402
# Op and set-up times are CPU time of this single-threaded process, taken to
# the reference host speed (see hostspeed.py).
from hostspeed import CLOCK, HostSpeed  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import FAMILIES, WORKLOADS  # noqa: E402


def fresh_import():
    """Import polyvar from this checkout as if for the first time, so no
    cache or instrumentation of an earlier import carries over."""
    for name in [n for n in sys.modules if n == "polyvar" or n.startswith("polyvar.")]:
        del sys.modules[name]
    polyvar = importlib.import_module("polyvar")
    if not os.path.abspath(polyvar.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"polyvar was imported from {polyvar.__file__}, not from {SRC}")
    return polyvar


def write_inputs(inputs, workdir: str) -> list[str]:
    paths = []
    for inp in inputs:
        path = os.path.join(workdir, inp.name + ".json")
        with open(path, "wb") as fh:
            fh.write(inp.data)
        paths.append(path)
    return paths


def set_up(wl, seed: int, workdir: str):
    """Import polyvar, generate the workload's files and parse every one."""
    t0 = CLOCK()
    fresh_import()
    inputs = wl.inputs(seed, wl.setup_inputs)
    paths = write_inputs(inputs, workdir)
    for path in paths:
        wl.parse(path)
    return inputs, paths, CLOCK() - t0


def same_bytes(wl, seed: int, paths: list[str]) -> bool:
    """Self-check: generating again from the seed gives the files on disk."""
    again = wl.inputs(seed, wl.setup_inputs)
    for inp, path in zip(again, paths):
        with open(path, "rb") as fh:
            if fh.read() != inp.data:
                return False
    return len(again) == len(paths)


@dataclass(slots=True)
class Record:
    name: str
    family: str | None
    stream: bool
    start: float  # CLOCK at the op's start
    op_s: float
    verdicts: tuple
    failures: list[str]


def run_ops(wl, seed, inputs, paths, workdir, stream_ops, speed: HostSpeed, tracer=None) -> list[Record]:
    """The closed loop: the prologue, then ``stream_ops`` stream ops, unless
    the wall-clock deadline comes first.  Only the op is timed, in CPU time
    of this process; its preparation, its checks and the host-speed samples
    between ops are not."""
    n_prologue = len(inputs) - wl.setup_inputs
    records: list[Record] = []
    for i in range(n_prologue + stream_ops):
        if time.monotonic() > DEADLINE:
            print(f"deadline: stopped after {i} of {n_prologue + stream_ops} ops", file=sys.stderr)
            break
        if i < len(inputs):
            inp, path = inputs[i], paths[i]
        else:  # past the set-up inputs: generate the next stream input now
            inp = wl.stream_input(seed, i - n_prologue)
            path = write_inputs([inp], workdir)[0]
        failures: list[str] = []
        certs, reports, extra = {}, [], {}
        start, op_s = CLOCK(), 0.0
        try:
            pre = wl.prepare(path, inp.meta) if wl.prepare else None
        except Exception:
            failures.append("prepare raised: " + traceback.format_exc(limit=3))
        if not failures:
            if tracer is not None:
                tracer.begin_op(i)
            start = CLOCK()
            try:
                certs, reports, extra = wl.op(path, inp.meta, pre)
            except Exception:
                failures.append("op raised: " + traceback.format_exc(limit=3))
            op_s = CLOCK() - start
            if tracer is not None:
                tracer.end_op()
        if not failures:
            try:
                failures = ops.check(wl.name, inp.meta, certs, reports, extra)
            except Exception:
                failures.append("check raised: " + traceback.format_exc(limit=3))
        verdicts = tuple(sorted((k, c.status) for k, c in certs.items()))
        records.append(Record(inp.name, inp.family, i >= n_prologue, start, op_s, verdicts, failures))
        for f in failures:
            print(f"FAIL {inp.name}: {f}", file=sys.stderr)
        speed.tick()
    speed.close()
    return records


def at_speed(r: Record, speed: HostSpeed) -> float:
    """The op's time at the reference host speed around it."""
    return r.op_s * speed.factor(r.start, r.start + r.op_s)


def short_stream(records, stream_ops: int) -> list[str]:
    done = sum(r.stream for r in records)
    return [] if done == stream_ops else [f"ran {done} of the run's {stream_ops} stream ops before the deadline"]


def verdict_counts(records) -> dict[str, int]:
    out = dict.fromkeys(ops.VERDICTS, 0)
    for r in records:
        for _, status in r.verdicts:
            out[status] += 1
    return out


def quantile(values, q: int) -> float:
    """The q-th percentile by statistics.quantiles (exclusive method)."""
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(wl, seed, seconds, workdir):
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        around = HostSpeed()
        inputs, paths, took = set_up(wl, seed, workdir)
        around.close()
        raw_setups.append(took)
        setups.append(took * around.factor())
    ok = same_bytes(wl, seed, paths)
    stream_ops = wl.stream_ops(seconds)
    gc.collect()
    speed = HostSpeed()
    records = run_ops(wl, seed, inputs, paths, workdir, stream_ops, speed)
    # The prologue is fixed work with its own family.* rows; the op metrics
    # are over the stream, so their sample is the same in every run.
    raw = [r.op_s for r in records if r.stream]
    times = [at_speed(r, speed) for r in records if r.stream]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_s.p50": (statistics.median(times), "s"),
        "op_s.p90": (quantile(times, 90), "s"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    prologue = sum(r.op_s for r in records if not r.stream)
    print(
        f"{wl.name} seed {seed}: host speed factor {speed.factor():.4f} over the run, from "
        f"{len(speed.samples)} samples. "
        f"Raw CPU time: {len(raw)} stream ops in {sum(raw):.2f} s (p50 {statistics.median(raw):.5f} s, "
        f"p90 {quantile(raw, 90):.5f} s), prologue {prologue:.2f} s, set-ups {[round(s, 3) for s in raw_setups]} s",
        file=sys.stderr,
    )
    return ok, records, metrics, short_stream(records, stream_ops)


def traced(wl, seed, seconds, workdir):
    inputs, paths, _ = set_up(wl, seed, workdir)
    ok = same_bytes(wl, seed, paths)
    stream_ops = wl.stream_ops(seconds)
    tracer = Tracer()
    tracer.install()
    gc.collect()
    traced_speed = HostSpeed()
    records = run_ops(wl, seed, inputs, paths, workdir, stream_ops, traced_speed, tracer=tracer)
    # Untraced replay of the same ops from a fresh import: overhead, family
    # rows and the verdict cross-check.
    inputs, paths, _ = set_up(wl, seed, workdir)
    gc.collect()
    replay_speed = HostSpeed()
    replay = run_ops(wl, seed, inputs, paths, workdir, stream_ops, replay_speed)

    problems = short_stream(records, stream_ops) + short_stream(replay, stream_ops)
    counts, replay_counts = verdict_counts(records), verdict_counts(replay)
    if counts != replay_counts:
        problems.append(f"traced verdicts {counts} differ from untraced {replay_counts}")
    problems += isolation(wl.name, tracer)

    # Every time is taken to the reference host speed: span totals with the
    # factor of the whole traced stretch, op times with that around each op.
    traced_f, replay_f = traced_speed.factor(), replay_speed.factor()
    raw = tracer.metrics()
    for name in raw:
        if unit_of(name) == "s":
            raw[name] *= traced_f
    traced_s = sum(at_speed(r, traced_speed) for r in records)
    untraced_s = sum(at_speed(r, replay_speed) for r in replay)
    raw["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    for status, n in counts.items():
        raw[f"certify.verdict.{status}"] = n
    for family in FAMILIES:
        times = [at_speed(r, replay_speed) for r in replay if r.family == family]
        raw[f"family.{family}.s"] = statistics.median(times) if times else 0.0
    raw["ops.failed_frac"] = sum(bool(r.failures) for r in records + replay) / (len(records) + len(replay))
    metrics = {name: (value, unit_of(name)) for name, value in raw.items()}

    os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
    tracer.write_spans(os.path.join(OUT, "spans", f"{wl.name}-seed{seed}.jsonl.gz"))
    print(
        f"{wl.name} seed {seed}: {len(records)} traced ops, {traced_s:.2f} s traced vs {untraced_s:.2f} s untraced "
        f"at reference speed; host speed factors {traced_f:.4f} and {replay_f:.4f}",
        file=sys.stderr,
    )
    return ok, records + replay, metrics, problems


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    if last == "s" or last.endswith("_s"):
        return "s"
    if last.endswith(("_ratio", "_yield", "_frac")):
        return "ratio"
    return "count"


def isolation(workload: str, tracer: Tracer) -> list[str]:
    """Layer-isolation self-check: each workload stays out of the layers it
    is meant to bypass."""
    bad = []
    if workload == "constraint-strata" and tracer.layer_calls("graphmap"):
        bad.append("constraint-strata called graphmap")
    if workload == "variational-faces" and tracer.calls["sets.direction_strata"]:
        bad.append("variational-faces called sets.direction_strata")
    if workload == "cone-conversion" and (tracer.layer_calls("certify") or tracer.calls["sets.direction_strata"]):
        bad.append("cone-conversion called certify or sets.direction_strata")
    return bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "polyvar", "__init__.py")):
        print(f"error: no polyvar sources under {SRC}; run from the root of a polyvar checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    workdir = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        measure = traced if args.trace else end_to_end
        same, records, metrics, problems = measure(wl, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not same:
        problems.append("the same seed did not give byte-identical input files")
    for p in problems:
        print(f"SELF-CHECK FAILED: {p}", file=sys.stderr)
    failed = sum(bool(r.failures) for r in records)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
