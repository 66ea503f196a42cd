"""``tools/bench.py``: its certificate digests of the benchmark streams
against ``tests/golden/stream-sha256.txt``, the fingerprint it compares op
outputs by, and a smoke run of ``pairs``: the working tree against itself,
loaded twice, on two stream ops of every workload.  The smoke run checks the
schema of the JSON the tool writes and that both sides return equal outputs
on every op; it asserts no timing.  A second run of ``pairs``, against a
copy of the package whose report text is altered, checks the ops it names
on stderr."""

import importlib
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from polyvar.cones import PolyCone
from polyvar.linalg import QVector

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["cone-conversion", "constraint-strata", "variational-faces"]


@pytest.fixture
def bench(monkeypatch):
    # the tool puts perfbench/ on sys.path when imported; the test restores it
    monkeypatch.setattr(sys, "path", [str(ROOT / "tools"), *sys.path])
    return importlib.import_module("bench")


def test_digest_check_matches_the_golden_digests():
    command = [sys.executable, str(ROOT / "tools" / "bench.py"), "digest", "--check"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def test_fingerprint_reads_vectors_dict_keys_cone_rows_and_no_unknown_type(bench):
    def cones(extra):
        return bench.fingerprint([], extra)["cones"]

    def stand_in(cone, h):
        # read by the fingerprint as ``cone``, with ``h`` as its rows
        return object.__new__(type("StandIn", (PolyCone,), {"dim": cone.dim, "_v": cone._v, "_h": h}))

    cone = PolyCone.from_ineqs(2, [QVector([1, 0])])
    assert cones({"w": QVector([1, 0])}) != cones({"w": QVector([0, 1])})
    assert cones({"a": cone}) != cones({"b": cone})
    assert cones({"k": stand_in(cone, cone._h)}) == cones({"k": cone})
    assert cones({"k": stand_in(cone, (((1, 1),), ()))}) != cones({"k": cone})
    with pytest.raises(TypeError):
        bench.fingerprint([], {"x": object()})


def test_pairs_writes_its_schema_and_equal_outputs(tmp_path):
    out = tmp_path / "bench.json"
    command = [sys.executable, str(ROOT / "tools" / "bench.py"), "pairs", "--base-src", str(ROOT / "src")]
    command += ["--workload", *WORKLOADS, "--seed", "5", "--ops", "2", "--passes", "2", "--out", str(out)]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    result = json.loads(out.read_text(encoding="utf-8"))
    assert set(result) == {"tool", "clock", "host", "python", "base", "head", "runs"}
    assert set(result["host"]) == {"platform", "machine", "processor", "cpus"}
    assert result["base"] == {"rev": None, "src": str(ROOT / "src")}
    assert set(result["head"]) == {"rev", "dirty"}
    assert [(run["workload"], run["seed"], run["ops"]) for run in result["runs"]] == [(w, 5, 2) for w in WORKLOADS]
    for run in result["runs"]:
        assert set(run) == {
            "workload", "seed", "ops", "passes", "base_s", "head_s", "ratio", "head_faster_passes", "op_p50",
            "op_p90", "equal", "same", "failed", "per_op",
        }
        assert run["equal"] and run["failed"] == {"base": [], "head": []}
        assert run["same"] == {"text": True, "json": True, "json_value": True, "cones": True}
        assert [set(p) for p in run["passes"]] == [{"base_s", "head_s", "ratio"}] * 2
        fields = ["name", "base_s", "head_s", "ratio", "equal", "text", "json", "json_value", "cones"]
        assert run["per_op"]["fields"] == fields
        assert [len(row) for row in run["per_op"]["rows"]] == [9, 9]
        assert all(value is True for row in run["per_op"]["rows"] for value in row[4:])
        assert 0 <= run["head_faster_passes"] <= 2
        times = [run["base_s"], run["head_s"], *(p[k] for p in run["passes"] for k in ("base_s", "head_s"))]
        assert all(isinstance(t, float) and t >= 0 for t in times)
        # the percentiles of the per-op medians per side, as perfbench takes
        # them (exclusive quantiles), with their ratios, also on stderr
        for q in (50, 90):
            spread = run[f"op_p{q}"]
            assert set(spread) == {"base_s", "head_s", "ratio"}
            for side, column in (("base_s", 1), ("head_s", 2)):
                want = statistics.quantiles([row[column] for row in run["per_op"]["rows"]], n=100)[q - 1]
                assert spread[side] == pytest.approx(want, abs=1e-6)
            assert f"per-op p{q} {spread['base_s'] * 1e3:.3f} -> {spread['head_s'] * 1e3:.3f} ms" in done.stderr


def test_pairs_names_the_ops_whose_outputs_differ(tmp_path):
    # the base is a copy of the package whose report text says "check:" twice
    shutil.copytree(ROOT / "src" / "polyvar", tmp_path / "src" / "polyvar")
    fileio = tmp_path / "src" / "polyvar" / "fileio.py"
    text = fileio.read_text(encoding="utf-8")
    assert text.count('f"check: {check}"') == 1
    fileio.write_text(text.replace('f"check: {check}"', 'f"check: check: {check}"'), encoding="utf-8")
    out = tmp_path / "bench.json"
    command = [sys.executable, str(ROOT / "tools" / "bench.py"), "pairs", "--base-src", str(tmp_path / "src")]
    command += ["--workload", "constraint-strata", "--seed", "5", "--ops", "12", "--passes", "1", "--out", str(out)]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert done.returncode == 1, done.stderr
    (run,) = json.loads(out.read_text(encoding="utf-8"))["runs"]
    names = [row[0] for row in run["per_op"]["rows"]]
    assert run["same"] == {"text": False, "json": True, "json_value": True, "cones": True}
    summary, *listed = done.stderr.splitlines()
    assert summary.startswith("constraint-strata seed 5: 12 ops x 1 passes")
    assert listed == [f"  {name} differs in text" for name in names[:10]] + ["  and 2 more ops differ"]
