"""Smoke test of the benchmark: every workload at tiny size, plain and
traced.  Checks that every metric of BENCHMARK.json is emitted with its
unit, that the traced runs together reach every layer, that the negative
controls fail as they must, and that the report digest repeats."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smoke(capsys, workload: str, trace: int, seed: int = 3):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds",
                     "0", "--trace", str(trace), "--smoke"])
    out, err = capsys.readouterr()
    assert code == 0
    return (json.loads(out.strip().splitlines()[-1]),
            json.loads(err.strip().splitlines()[-1]))


def assert_metrics(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_end_to_end(capsys, workload):
    result, detail = smoke(capsys, workload, 0)
    assert_metrics(result, SPEC["end_to_end"])
    assert detail["digests_agree"] and detail["failed_ratio"] == 0
    assert detail["controls"]["ok"]
    assert detail["controls"]["corrupted_report"]["failed_ratio"] > 0
    assert detail["controls"]["capped_job"]["status"] == "timeout"
    assert {"nproc", "cpu_model", "python", "numpy"} <= set(detail["machine"])
    assert detail["held_out_seed"] != detail["seed"]


def test_traced_runs_cover_every_layer(capsys):
    reached = set()
    for workload in workloads.WORKLOADS:
        result, detail = smoke(capsys, workload, 1)
        assert_metrics(result, SPEC["per_layer"])
        assert detail["digests_agree"]
        reached |= {layer for layer in layertrace.LAYERS
                    if result["metrics"][f"{layer}.calls"]["value"] > 0}
    assert reached == set(layertrace.LAYERS)


def test_digest_repeats_and_follows_the_seed(capsys):
    first = smoke(capsys, "trees", 0)[1]["digest"]
    assert smoke(capsys, "trees", 0)[1]["digest"] == first
    assert smoke(capsys, "trees", 0, seed=4)[1]["digest"] != first


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_corrupted_report_fails(workload):
    api = run.load_package()
    for job in workloads.build(workload, 5, smoke=True):
        out = workloads.run_job(api, job)
        assert out.status == "ok", out.reason
        assert workloads.check(job, out.code, workloads.corrupt_report(job, out.text))
        assert workloads.check(job, 1, out.text)


def test_tracer_restores_the_package():
    api = run.load_package()
    before = (api.cli.main, api.homotopy.HomComplex.__init__,
              api.cyclotomic.CycloInt.__add__, api.tree_algebra.linalg.rref_mod_prime)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        assert api.cli.main is not before[0]
    finally:
        tracer.uninstall()
    assert (api.cli.main, api.homotopy.HomComplex.__init__,
            api.cyclotomic.CycloInt.__add__,
            api.tree_algebra.linalg.rref_mod_prime) == before


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "trees", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
