"""A smoke run of ``tools/bench.py pairs``: the working tree against itself,
loaded twice, on two stream ops of every workload.  It checks the schema of
the JSON the tool writes and that both sides return equal outputs on every
op; it asserts no timing."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ["cone-conversion", "constraint-strata", "variational-faces"]


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
            "workload", "seed", "ops", "passes", "base_s", "head_s", "ratio", "head_faster_passes", "equal",
            "same", "failed", "per_op",
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
