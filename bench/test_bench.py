"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

Runs are cut to two ops each; no test asks for more threads than nproc.
"""
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run._import_library()

import gmacdist  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def short_runs(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "MIN_OPS", 2)
    monkeypatch.setattr(run, "STATE", tmp_path)


def _main(capsys, name, trace):
    rc = run.main(["--workload", name, "--seed", "5", "--seconds", "0",
                   "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(lines[0])["report"], json.loads(lines[-1])


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_short_run_emits_every_metric(short_runs, capsys, name):
    rc, report, result = _main(capsys, name, 0)
    assert rc == 0, report["failures"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] == 2
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["end_to_end"]["failed_frac"]["value"] == 0
    assert all("samples" in v for v in report["end_to_end"].values())

    # the traced run at the same seed must reproduce the digest; the
    # determinism check fails the run otherwise
    rc, traced_report, traced = _main(capsys, name, 1)
    assert rc == 0, traced_report["failures"]
    assert traced_report["output_digest"] == report["output_digest"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == declared


def test_declared_metrics_match_the_harness():
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(run.PER_LAYER)
    for m in BENCHMARK["end_to_end"]:
        assert (m["unit"], m["better"]) == run.END_TO_END[m["name"]]
    for m in BENCHMARK["per_layer"]:
        assert (m["unit"], m["better"]) == run.PER_LAYER[m["name"]]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _library_attributes():
    return {(mod.__name__, attr): value
            for mod in tracing._modules() for attr, value in vars(mod).items()}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_wrappers_are_removed_after_a_traced_run(name):
    before = _library_attributes()
    res = run.run_workload(WORKLOADS[name](), 5, 0, True, min_ops=2)
    assert res["tracer"].spans, "the traced op recorded nothing"
    after = _library_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert not changed


@pytest.mark.skipif(NPROC < 2, reason="needs two cores")
@pytest.mark.parametrize("name", ["uncoded-sim", "vq-sim"])
def test_digest_does_not_depend_on_threads(name):
    digests = []
    for threads in (1, 2):
        workload = WORKLOADS[name]()
        workload.threads = threads
        digests.append(run.run_workload(workload, 5, 0, False, min_ops=2)["output_digest"])
    assert digests[0] == digests[1]


def test_changed_digest_fails_the_run(short_runs):
    assert run._check_determinism("analytic", 1, "a" * 64, 2) is None
    assert run._check_determinism("analytic", 1, "a" * 64, 2) is None
    assert run._check_determinism("analytic", 1, "b" * 64, 2) is not None


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (0, "parent", 0.0, 10.0, None, 0, 0.0),
        (1, "child", 1.0, 4.0, 0, 0, 0.0),
        (2, "child", 3.0, 6.0, 0, 0, 0.0),      # overlaps the first child
        (3, "child", 9.0, 12.0, 0, 0, 0.0),     # runs past the parent's end
    ]
    summary = tracing.summarize(spans)
    assert summary["parent"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0)
    assert summary["child"]["n"] == 3


def test_counted_functions_reach_the_callers_namespace():
    tracer = tracing.Tracer()
    patched = {(mod.__name__, attr) for mod, attr, _, _ in tracer._patches}
    assert ("gmacdist.region", "in_rate_region") in patched
    assert ("gmacdist.vq_sim", "decode") in patched
    assert ("gmacdist.cli", "main") in patched
    assert gmacdist.region.in_rate_region is gmacdist.vq_analytic.in_rate_region


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "analytic",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""
