"""The parsing and summary helpers of tools/bench_record.py; no benchmark runs."""
import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_spec = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_record)


def test_parse_bench_output_reads_report_and_result():
    report = {"output_digest": "ab12", "end_to_end": {
        "items_per_s": {"value": 70.5, "unit": "1/s", "samples": 9}},
        "per_layer": {"op.self_ms": {"value": 1.5, "unit": "ms"}}}
    stdout = "\n".join([
        json.dumps({"report": report}),
        json.dumps({"correct": True, "attempted": 120, "failed": 0, "metrics": {}}),
    ]) + "\n"
    run = bench_record.parse_bench_output(stdout)
    assert run == {"correct": True, "attempted": 120, "failed": 0,
                   "output_digest": "ab12", "end_to_end": {"items_per_s": 70.5},
                   "per_layer": {"op.self_ms": 1.5}}
    with pytest.raises(ValueError):
        bench_record.parse_bench_output(json.dumps({"report": report}))


def test_parse_timings_reads_verify_stderr():
    stderr = "criterion 1: 0.333 s\ncriterion 8: 2.654 s\nwarning: other\n"
    assert bench_record.parse_timings(stderr) == {"1": 0.333, "8": 2.654}


def test_summarize_gives_median_and_quartiles():
    assert bench_record.summarize([3.0, 1.0, 2.0, 4.0, 5.0]) == {
        "median": 3.0, "q1": 2.0, "q3": 4.0, "n": 5}
    assert bench_record.summarize([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0, "n": 1}


@pytest.mark.parametrize("argv", [
    ["--out", "x.json", "nolabel"],
    ["--out", "x.json", "--workloads", "analytic:two", "a=."],
    ["--out", "x.json", "--workloads", "nosuch", "a=."],
])
def test_bad_arguments_exit_2(argv, monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)
    with pytest.raises(SystemExit) as exc:
        bench_record.main(argv)
    assert exc.value.code == 2


def test_timed_out_runs_are_recorded_not_raised(monkeypatch):
    def hang(cmd, **kwargs):
        raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])

    monkeypatch.setattr(bench_record.subprocess, "run", hang)
    run = bench_record.run_bench(Path("."), "analytic", 5, 30.0, 0)
    assert run == {"seed": 5, "exit": None, "correct": False,
                   "error": "timed out after 900.0 s"}
    res = bench_record.run_verify(Path("."), 4)
    assert res == {"exit": None, "criteria_s": {},
                   "error": "timed out after 1800 s"}


def test_record_alternates_trees_and_traces_the_first_seeds(monkeypatch):
    calls = []

    def fake_bench(path, workload, seed, seconds, trace):
        calls.append((str(path), workload, seed, trace))
        return {"seed": seed, "exit": 0, "correct": True,
                "end_to_end": {"items_per_s": float(seed)},
                "per_layer": {"op.self_ms": 1.0} if trace else {}}

    monkeypatch.setattr(bench_record, "run_bench", fake_bench)
    monkeypatch.setattr(bench_record, "run_verify", lambda path, threads: {
        "exit": 0, "criteria_s": {"1": float(threads)}})
    monkeypatch.setattr(bench_record, "run_tier1",
                        lambda path: {"exit": 0, "tree": str(path)})
    seeds = list(range(10, 10 + bench_record.TRACED_SEEDS + 1))
    out = bench_record.record({"a": Path("A"), "b": Path("B")}, seeds, 1.0,
                              {"analytic": len(seeds), "vq-sim": 1},
                              log=lambda msg: None)
    assert calls[:4] == [("A", "analytic", 10, 0), ("B", "analytic", 10, 0),
                         ("A", "analytic", 10, 1), ("B", "analytic", 10, 1)]
    assert [c[0] for c in calls if c[2] == 11][:2] == ["B", "A"]
    traced = {c[2] for c in calls if c[3] == 1 and c[1] == "analytic"}
    assert traced == set(seeds[:bench_record.TRACED_SEEDS])
    entry = out["a"]["workloads"]["analytic"]
    assert entry["all_correct"] and len(entry["runs"]) == len(seeds)
    assert entry["end_to_end"]["items_per_s"]["median"] == statistics.median(seeds)
    assert entry["per_layer"]["op.self_ms"]["n"] == bench_record.TRACED_SEEDS
    assert len(out["b"]["workloads"]["vq-sim"]["runs"]) == 1
    assert out["b"]["verify"] == {"1": {"exit": 0, "criteria_s": {"1": 1.0}},
                                  "4": {"exit": 0, "criteria_s": {"1": 4.0}}}
    assert [out[label]["tier1"]["tree"] for label in "ab"] == ["A", "B"]


README = '''# tool

```sh
pip install -e .
gmacdist bounds --rho 0.5 --d1 0.5 \\
    --d2 0.5   # a comment
```

Text with gmacdist uncoded outside a block.

```python
gmacdist = None
```

```sh
gmacdist verify --criteria 1,4  # two criteria
```
'''


def test_readme_examples_joins_lines_and_drops_comments():
    assert bench_record.readme_examples(README) == [
        ["bounds", "--rho", "0.5", "--d1", "0.5", "--d2", "0.5"],
        ["verify", "--criteria", "1,4"],
    ]


def test_run_examples_times_each_readme_command(tmp_path, monkeypatch):
    trees = {}
    for label in ("a", "b"):
        (tmp_path / label).mkdir()
        (tmp_path / label / "README.md").write_text(README)
        trees[label] = tmp_path / label
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((kwargs["env"]["PYTHONPATH"], cmd[3:]))
        if cmd[3] == "verify" and len(calls) == 2:
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return subprocess.CompletedProcess(cmd, 1 if cmd[3] == "verify" else 0)

    clock = iter(float(t) for t in range(1000))
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record.time, "perf_counter", lambda: next(clock) ** 2)
    out = bench_record.run_examples(trees, log=lambda msg: None)

    repeats = bench_record.CLI_REPEATS
    assert len(calls) == 2 * 2 * repeats
    # the trees alternate repeat by repeat
    order = [Path(env).parent.name for env, _ in calls[::2]]
    assert order[:4] == ["a", "b", "b", "a"]
    bounds = out["a"]["bounds --rho 0.5 --d1 0.5 --d2 0.5"]
    assert bounds["exits"] == [0] * repeats
    assert len(bounds["runs_s"]) == repeats and all(t > 0 for t in bounds["runs_s"])
    assert bounds["median_s"] == statistics.median(bounds["runs_s"])
    timed_out = out["a"]["verify --criteria 1,4"]
    assert timed_out["exits"] == [None] + [1] * (repeats - 1)
    assert timed_out["error"] == "timed out after 1800 s"
    assert len(timed_out["runs_s"]) == repeats - 1
    assert out["b"]["verify --criteria 1,4"]["exits"] == [1] * repeats


TIER1_OUT = """\
........................................................................ [ 21%]
.F.....E.......s........................................................ [ 43%]
============================= slowest 5 durations ==============================
7.41s call     tests/test_acceptance.py::test_verify_reports_are_byte_identical_across_threads
4.70s setup    tests/test_acceptance.py::test_criterion[1]
2.38s call     tests/test_golden.py::test_verify_simulation_criteria_match_golden[a b]
=========================== short test summary info ============================
FAILED tests/test_cli.py::test_x - assert 1 == 0
ERROR tests/test_cli.py::test_y - RuntimeError
1 failed, 335 passed, 1 skipped, 2 warnings, 1 error in 31.02s
"""


def test_parse_tier1_reads_counts_and_slowest_phases():
    got = bench_record.parse_tier1(TIER1_OUT)
    assert got["counts"] == {"failed": 1, "passed": 335, "skipped": 1,
                             "warning": 2, "error": 1}
    assert got["slowest"] == [
        [7.41, "call", "tests/test_acceptance.py::"
                       "test_verify_reports_are_byte_identical_across_threads"],
        [4.7, "setup", "tests/test_acceptance.py::test_criterion[1]"],
        [2.38, "call", "tests/test_golden.py::"
                       "test_verify_simulation_criteria_match_golden[a b]"],
    ]
    assert bench_record.parse_tier1("339 passed in 75.20s (0:01:15)\n") == {
        "counts": {"passed": 339}, "slowest": []}


def test_run_tier1_times_the_suite_in_the_checkout(tmp_path, monkeypatch):
    calls = []

    def fake_run(cmd, **kwargs):
        calls.append((cmd, kwargs))
        if len(calls) == 2:
            raise subprocess.TimeoutExpired(cmd, kwargs["timeout"])
        return subprocess.CompletedProcess(cmd, 1, stdout=TIER1_OUT, stderr="")

    clock = iter([10.0, 41.5, 50.0])
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record.time, "perf_counter", lambda: next(clock))
    res = bench_record.run_tier1(tmp_path)
    cmd, kwargs = calls[0]
    assert cmd[1:] == ["-m", "pytest", "-q", "--continue-on-collection-errors",
                       f"--durations={bench_record.TIER1_SLOWEST}"]
    assert kwargs["cwd"] == tmp_path
    assert kwargs["env"]["PYTHONPATH"] == str(tmp_path / "src")
    assert res == {"exit": 1, "s": 31.5, **bench_record.parse_tier1(TIER1_OUT)}
    assert bench_record.run_tier1(tmp_path) == {
        "exit": None, "error": "timed out after 1800 s"}
