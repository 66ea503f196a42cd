"""Certificate bytes of the benchmark streams, as one sha256 per workload.

For each workload of ``perfbench/workloads.py`` this runs the prologue plus
the first 200 stream ops at seed 6161, and hashes what they return as it
is printed: the report text and the JSON block of every certificate, and
the ``key()``, ``_h`` and ``_v`` of every cone the op hands back (faces,
graph pieces and critical cones included), with the active sets that name
faces and graph pieces.  No other field of a returned object is hashed.
Cones are canonical and certificates are deterministic, so a change that
means to keep every output byte keeps these digests.

    PYTHONPATH=src python tests/stream_sha256.py            # print the digests
    PYTHONPATH=src python tests/stream_sha256.py --check    # compare with golden/stream-sha256.txt
    PYTHONPATH=src python tests/stream_sha256.py --write    # regenerate golden/stream-sha256.txt

The inputs come from the benchmark's own generator, whose seeds are
SHA-512-hashed strings, so they are the same on every Python version.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "stream-sha256.txt"
SEED = 6161
STREAM_OPS = 200

sys.path.insert(0, str(ROOT / "perfbench"))

import ops  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from polyvar.cones import Face, PolyCone  # noqa: E402
from polyvar.graphmap import GraphNormalCone, GraphPoint  # noqa: E402
from polyvar.linalg import QVector  # noqa: E402
from polyvar.sets import PolyFace  # noqa: E402


def _feed(h, value) -> None:
    """Hash what an op returned, as it is printed: each cone's ``key()``,
    ``_h`` and ``_v``, each face's active set, a graph point's critical cone,
    and each piece of a graph normal cone as ``graph-normal`` writes it (K,
    K° and the active sets of its two faces), by explicit type."""
    if isinstance(value, PolyCone):
        h.update(repr((value.key(), value._h, value._v)).encode())
    elif isinstance(value, Face):
        h.update(repr(sorted(value.active_set)).encode())
        _feed(h, value.cone)
    elif isinstance(value, PolyFace):
        h.update(repr(sorted(value.active_set)).encode())
    elif isinstance(value, GraphPoint):
        _feed(h, value.critical)
    elif isinstance(value, GraphNormalCone):
        for p in value.pieces:
            _feed(h, (p.k, p.kpolar))
            h.update(repr((sorted(p.f1.active_set), sorted(p.f2.active_set))).encode())
    elif isinstance(value, dict):
        for k in sorted(value):
            h.update(repr(k).encode())
            _feed(h, value[k])
    elif isinstance(value, (list, tuple)):
        for v in value:
            _feed(h, v)
    elif isinstance(value, QVector):
        h.update(repr(value).encode())
    else:
        raise TypeError(f"no fingerprint for {type(value).__name__}")


def digest(name: str, workdir: str) -> str:
    wl = WORKLOADS[name]
    h = hashlib.sha256()
    for inp in wl.inputs(SEED, STREAM_OPS):
        path = os.path.join(workdir, inp.name + ".json")
        with open(path, "wb") as fh:
            fh.write(inp.data)
        pre = wl.prepare(path, inp.meta) if wl.prepare else None
        certs, reports, extra = wl.op(path, inp.meta, pre)
        bad = ops.check(name, inp.meta, certs, reports, extra)
        if bad:
            raise AssertionError(f"{name} {inp.name}: {bad}")
        h.update(inp.name.encode())
        for rep, block in reports:
            h.update(rep.text.encode())
            h.update(block.encode())
        _feed(h, extra)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--check", action="store_true", help="compare with the committed digests")
    mode.add_argument("--write", action="store_true", help="rewrite the committed digests")
    args = ap.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        lines = [f"{name} {digest(name, workdir)}" for name in sorted(WORKLOADS)]
    text = "\n".join(lines) + "\n"
    if args.write:
        GOLDEN.write_text(text, encoding="utf-8")
    print(text, end="")
    if args.check:
        want = GOLDEN.read_text(encoding="utf-8")
        if text != want:
            print(f"stream digests differ from {GOLDEN.name}:\n{want}", end="", file=sys.stderr)
            return 1
        print(f"stream digests equal {GOLDEN.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
