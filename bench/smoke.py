"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest -q bench/smoke.py

Checks that every metric named in BENCHMARK.json prints with its unit,
that the correctness gate trips on a corrupted expected digest, and that
a checkout without the package source exits non-zero with no result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, run=None):
    run = run or [sys.executable, str(HERE / "run.py")]
    proc = subprocess.run(run + list(args), cwd=cwd, capture_output=True,
                          text=True, timeout=300)
    return proc


def result(*args):
    proc = bench(*args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_prints_with_its_unit(workload, trace):
    res = result("--workload", workload, "--tiny", "--seconds", "0",
                 "--trace", trace)
    assert res["correct"] is True and res["failed"] == 0
    assert res["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert set(res["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


def test_gate_trips_on_corrupted_digest(tmp_path):
    expected = tmp_path / "expected.json"
    args = ("--workload", "structure", "--tiny", "--seconds", "0",
            "--expected", str(expected))
    assert bench(*args, "--record").returncode == 0
    assert result(*args)["correct"] is True

    data = json.loads(expected.read_text(encoding="utf-8"))
    key = sorted(data["ops"])[0]
    data["ops"][key][1] = "0" * 64
    expected.write_text(json.dumps(data), encoding="utf-8")
    res = result(*args)
    assert res["correct"] is False and res["failed"] >= 1


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "search", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, run=SPEC["command"])
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
