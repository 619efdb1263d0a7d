import json
import math
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import pytest

import gmacdist.cli as cli
from gmacdist.model import MAX_THREADS
from gmacdist.rd_bounds import ConvergenceError
from gmacdist.region import MAX_SWEEP_POINTS

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

SYM = ("--sigma2", "1", "--rho", "0.5", "--p", "2", "--noise", "3")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def check_schema(doc, name):
    with open(SCHEMAS / f"{name}.json") as fh:
        jsonschema.validate(doc, json.load(fh))


def test_bounds_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "bounds", *SYM, "--d1", "0.5", "--d2", "0.5")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "bounds")
    assert doc["rd_rate"] == pytest.approx(0.792481250360578, rel=1e-12)
    assert doc["capacity_term"] == pytest.approx(doc["rd_rate"], rel=1e-12)
    assert doc["achievable_possible"] is True
    assert doc["uncoded_d1"] == pytest.approx(0.5, rel=1e-12)
    assert doc["verdict"] == "UNCODED_ACHIEVES"


def test_uncoded_output(capsys):
    code, out, _ = run_cli(capsys, "uncoded", *SYM)
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "uncoded")
    assert doc["d1"] == pytest.approx(0.5, rel=1e-12)
    assert doc["gain1"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert doc["symmetric_threshold_snr"] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert doc["at_or_below_threshold"] is True


def test_uncoded_asymmetric_powers_null_flag(capsys):
    code, out, _ = run_cli(capsys, "uncoded", "--sigma2", "1", "--rho", "0.5",
                           "--p1", "1", "--p2", "2", "--noise", "1")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "uncoded")
    assert doc["at_or_below_threshold"] is None


def test_uncoded_full_correlation_threshold_null(capsys):
    code, out, _ = run_cli(capsys, "uncoded", "--sigma2", "1", "--rho", "1",
                           "--p", "1", "--noise", "1")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "uncoded")
    # infinite threshold serializes as null but the flag is still decided
    assert doc["symmetric_threshold_snr"] is None
    assert doc["at_or_below_threshold"] is True


def test_simulate_uncoded_deterministic_and_accurate(capsys):
    argv = ("simulate-uncoded", *SYM, "--trials", "40000", "--seed", "7")
    code, out1, _ = run_cli(capsys, *argv)
    assert code == 0
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    doc = json.loads(out1)
    check_schema(doc, "simulate-uncoded")
    assert doc["seed"] == 7
    assert doc["trials"] == 40000
    assert doc["d1"] == pytest.approx(doc["analytic_d1"], rel=0.05)
    assert doc["d2"] == pytest.approx(doc["analytic_d2"], rel=0.05)


def test_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("GMACDIST_SEED", "123")
    code, out, _ = run_cli(capsys, "simulate-uncoded", *SYM, "--trials", "100")
    assert code == 0
    assert json.loads(out)["seed"] == 123

    monkeypatch.setenv("GMACDIST_SEED", "xyz")
    code, _, err = run_cli(capsys, "simulate-uncoded", *SYM, "--trials", "100")
    assert code == 1
    assert "GMACDIST_SEED" in err


def test_seed_env_var_is_read_on_every_call(capsys, monkeypatch):
    # the parser is built once per process; its --seed default must not
    # freeze the first call's environment
    seeds = []
    for raw in ("123", "456"):
        monkeypatch.setenv("GMACDIST_SEED", raw)
        code, out, _ = run_cli(capsys, "simulate-uncoded", *SYM, "--trials", "100")
        assert code == 0
        seeds.append(json.loads(out)["seed"])
    assert seeds == [123, 456]
    code, out, _ = run_cli(capsys, "simulate-uncoded", *SYM, "--trials", "100",
                           "--seed", "7")
    assert code == 0
    assert json.loads(out)["seed"] == 7
    monkeypatch.delenv("GMACDIST_SEED")
    code, out, _ = run_cli(capsys, "simulate-uncoded", *SYM, "--trials", "100")
    assert code == 0
    assert json.loads(out)["seed"] == cli.DEFAULT_SEED

    monkeypatch.setenv("GMACDIST_SEED", "xyz")
    for argv in (["bounds", *SYM, "--d1", "0.5", "--d2", "0.5"],
                 ["uncoded", *SYM], ["vq-bound", *SYM],
                 ["simulate-uncoded", *SYM, "--seed", "7"],
                 ["simulate-vq", *SYM, "--r1", "0.5", "--r2", "0.5", "-n", "4"],
                 ["sweep", "--rho", "0.5", "--snr-grid", "1:10:3:log"],
                 ["verify", "--criteria", "9"]):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "GMACDIST_SEED" in err


def test_vq_bound_pair_mode(capsys):
    code, out, _ = run_cli(capsys, "vq-bound", "--sigma2", "1", "--rho", "0",
                           "--p", "1", "--noise", "1", "--r1", "0.3", "--r2", "0.3")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "vq-bound")
    assert doc["mode"] == "pair"
    assert doc["in_region"] is True
    assert doc["rate"] is None
    assert doc["rho_tilde"] == 0.0
    assert doc["d1"] == pytest.approx(2.0 ** -0.6, rel=1e-12)


def test_vq_bound_symmetric_mode(capsys):
    code, out, _ = run_cli(capsys, "vq-bound", "--sigma2", "1", "--rho", "0",
                           "--p", "1", "--noise", "1")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "vq-bound")
    assert doc["mode"] == "symmetric"
    assert doc["rho_tilde"] is None
    assert doc["in_region"] is None
    assert doc["rate"] == pytest.approx(0.25 * math.log2(3.0), abs=1e-9)
    assert doc["d1"] == pytest.approx(3.0 ** -0.5, rel=1e-9)


def test_vq_bound_flag_validation(capsys):
    code, _, err = run_cli(capsys, "vq-bound", *SYM, "--r1", "0.5")
    assert code == 1
    assert "--r1 and --r2" in err

    code, _, err = run_cli(capsys, "vq-bound", "--sigma2", "1", "--rho", "0.5",
                           "--p1", "1", "--p2", "2", "--noise", "1")
    assert code == 1
    assert "equal powers" in err


def test_vq_bound_convergence_exit_code(capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise ConvergenceError("stub")

    monkeypatch.setattr(cli, "solve_symmetric_rate", explode)
    code, _, err = run_cli(capsys, "vq-bound", "--sigma2", "1", "--rho", "0.5",
                           "--p", "1", "--noise", "1")
    assert code == 2
    assert "converge" in err


def test_simulate_vq_output(capsys):
    code, out, _ = run_cli(capsys, "simulate-vq", "--sigma2", "1", "--rho", "0.8",
                           "--p", "10", "--noise", "1", "--r1", "0.5", "--r2", "0.5",
                           "-n", "12", "--trials", "30", "--delta-typ", "0.4",
                           "--seed", "5")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "simulate-vq")
    assert doc["in_region"] is True
    assert doc["blocklength"] == 12
    assert doc["trials"] == 30
    assert doc["analytic_d1"] == pytest.approx(0.40476190476190477, rel=1e-12)
    assert 0 <= doc["decode_error_count"] <= 30


@pytest.mark.parametrize("flags", [
    ("--r1", "inf"), ("--r1", "nan"), ("--delta-typ", "nan"), ("--delta-typ", "inf"),
])
def test_simulate_vq_nonfinite_rate_or_window_exits_1(capsys, flags):
    argv = ["simulate-vq", "--rho", "0.8", "--p", "10", "--r1", "0.5", "--r2", "0.5",
            "-n", "4", "--trials", "2", *flags]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "finite" in err


def test_jsonable_replaces_nonfinite():
    got = cli._jsonable({"a": math.nan, "b": [math.inf, 1.0]})
    assert got == {"a": None, "b": [None, 1.0]}


def test_fmt_strings():
    assert cli._fmt(1.0 / 3.0) == "0.333333333333"
    assert cli._fmt(100.0) == "100"
    assert cli._fmt(True) == "true"
    assert cli._fmt(1.23456789012e-07) == "1.23456789012e-07"


def test_sweep_csv_output(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0",
                           "--snr-grid", "0.1:100:11:log")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "snr,rho,sigma_sq,outer_d,uncoded_d,vq_d,vq_rate,threshold_flag,verdict"
    assert len(lines) == 12
    for line in lines[1:]:
        cells = line.split(",")
        assert len(cells) == 9
        assert abs(float(cells[3]) - float(cells[5])) <= 1e-9
        assert cells[7] == "false"
        assert cells[8] in {"UNACHIEVABLE", "UNCODED_ACHIEVES", "VQ_ACHIEVES", "GAP"}


def test_sweep_json_output(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0.5",
                           "--snr-grid", "0.5:4:6:lin", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    check_schema(rows, "sweep-snr")
    assert len(rows) == 6
    flags = [int(r["threshold_flag"]) for r in rows]
    assert flags == sorted(flags, reverse=True)
    assert flags[0] == 1


def test_sweep_convexify_lowers_nothing_above_raw(capsys):
    base = ("sweep", "--rho", "0.5", "--snr-grid", "0.2:20:8:log",
            "--format", "json")
    code, raw_out, _ = run_cli(capsys, *base)
    assert code == 0
    code, env_out, _ = run_cli(capsys, *base, "--convexify")
    assert code == 0
    raw = json.loads(raw_out)
    env = json.loads(env_out)
    check_schema(env, "sweep-snr")
    for r, e in zip(raw, env):
        assert e["vq_d"] <= r["vq_d"] + 1e-12
        assert e["uncoded_d"] <= r["uncoded_d"] + 1e-12
        assert e["outer_d"] == r["outer_d"]


def test_sweep_boundary_json(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0", "--sigma2", "1",
                           "--p", "1", "--noise", "1", "--boundary",
                           "--resolution", "8", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    check_schema(rows, "sweep-boundary")
    assert len(rows) == 8
    assert rows[0]["outer_d2"] is None
    assert rows[-1]["d1"] == pytest.approx(1.0, rel=1e-12)
    assert rows[-1]["outer_d2"] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_sweep_boundary_csv(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0", "--sigma2", "1",
                           "--p", "1", "--noise", "1", "--boundary",
                           "--resolution", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "d1,outer_d2,uncoded_d2,vq_d2"
    assert len(lines) == 5


def test_sweep_flag_validation(capsys):
    code, _, err = run_cli(capsys, "sweep", "--rho", "0.5")
    assert code == 1
    assert "exactly one" in err

    assert run_cli(capsys, "sweep", "--rho", "0.5", "--snr-grid", "1:2:3")[0] == 1
    assert run_cli(capsys, "sweep", "--rho", "0.5", "--snr-grid=-1:2:3:log")[0] == 1
    assert run_cli(capsys, "sweep", "--rho", "0.5", "--snr-grid", "1:2:3:cubic")[0] == 1
    assert run_cli(capsys, "sweep", "--rho", "0.5", "--snr-grid", "1:inf:3:log")[0] == 1
    assert run_cli(capsys, "sweep", "--rho", "0.5", "--snr-grid", "1:2:3:log",
                   "--sigma2", "inf")[0] == 1

    # power sweeps set the powers from the grid at noise variance 1
    for flags in (("--p", "2"), ("--p1", "2"), ("--p2", "2"), ("--noise", "3")):
        code, out, err = run_cli(capsys, "sweep", "--rho", "0.5",
                                 "--snr-grid", "1:2:3:lin", *flags)
        assert (code, out) == (1, "")
        assert "--snr-grid" in err

    code, _, err = run_cli(capsys, "sweep", "--rho", "0.5",
                           "--snr-grid", "1:2:3:lin", "--var1", "2")
    assert code == 1
    assert "symmetric" in err

    code, _, err = run_cli(capsys, "sweep", "--rho", "0.5", "--sigma2", "1",
                           "--p", "1", "--boundary", "--convexify")
    assert code == 1
    assert "convexify" in err


def test_top_level_validation(capsys):
    assert run_cli(capsys, "uncoded", "--sigma2", "1", "--rho", "0.5",
                   "--p", "1", "--noise", "-1")[0] == 1
    code, _, err = run_cli(capsys, "uncoded", "--sigma2", "1", "--p", "1")
    assert code == 1
    assert "--rho" in err
    assert run_cli(capsys, "simulate-uncoded", *SYM, "--trials", "0")[0] == 1
    assert run_cli(capsys, "simulate-uncoded", *SYM, "--threads", "0")[0] == 1
    assert run_cli(capsys, "uncoded", *SYM, "--bogus")[0] == 1

    code, _, err = run_cli(capsys, "simulate-vq", "--sigma2", "1", "--rho", "0.5",
                           "--p", "1000", "--noise", "1", "--r1", "1", "--r2", "1",
                           "-n", "40", "--trials", "2")
    assert code == 1
    assert "cap" in err


def test_output_file_matches_stdout(capsys, tmp_path):
    argv = ("bounds", *SYM, "--d1", "0.5", "--d2", "0.5")
    _, out, _ = run_cli(capsys, *argv)
    target = tmp_path / "bounds.json"
    code, silent, _ = run_cli(capsys, *argv, "--output", str(target))
    assert code == 0
    assert silent == ""
    assert target.read_text() == out


@pytest.mark.parametrize("name", ["missing", "directory"])
def test_unwritable_output_exits_1(capsys, tmp_path, name):
    target = tmp_path / "nonexistent" / "x.json" if name == "missing" else tmp_path
    code, out, err = run_cli(capsys, "uncoded", *SYM, "--output", str(target))
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert str(target) in err


def test_verify_subset_report(capsys):
    code, out, _ = run_cli(capsys, "verify", "--criteria", "2,3,6", "--seed", "7")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "acceptance report (seed=7)"
    assert lines[-1] == "3/3 criteria passed"
    body = lines[1:-1]
    assert [int(line.split()[1]) for line in body] == [2, 3, 6]
    assert all(" PASS " in line for line in body)


def test_verify_rejects_bad_criteria(capsys):
    code, _, err = run_cli(capsys, "verify", "--criteria", "42")
    assert code == 1
    assert "unknown" in err
    assert run_cli(capsys, "verify", "--criteria", "two")[0] == 1


def test_huge_power_exits_promptly():
    # the rate search range once overflowed and the zoom loop never ended
    for p, code in (("1e300", 0), ("1e308", 1)):
        proc = subprocess.run(
            [sys.executable, "-m", "gmacdist", "bounds", "--sigma2", "1",
             "--rho", "0.5", "--p", p, "--noise", "1", "--d1", "0.5", "--d2", "0.5"],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == code, proc.stderr
        if code:
            assert proc.stderr.count("\n") == 1 and "overflows" in proc.stderr
        else:
            check_schema(json.loads(proc.stdout), "bounds")


def test_full_residual_correlation_exits_1(capsys):
    code, out, err = run_cli(capsys, "vq-bound", "--rho", "1", "--p", "2",
                             "--noise", "1", "--r1", "30", "--r2", "30")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "rounds to 1" in err


def test_nonfinite_instance_values_exit_1(capsys):
    for flags in (("--p", "inf"), ("--noise", "nan"), ("--var2", "inf")):
        code, out, err = run_cli(capsys, "uncoded", "--rho", "0.5", *flags)
        assert (code, out) == (1, "")
        assert "finite" in err


def test_verify_timings_go_to_stderr(capsys):
    argv = ("verify", "--criteria", "2,3", "--seed", "7")
    _, plain, plain_err = run_cli(capsys, *argv)
    code, out, err = run_cli(capsys, *argv, "--timings")
    assert code == 0
    assert out == plain
    assert plain_err == ""
    lines = err.strip().split("\n")
    assert [line.split(":")[0] for line in lines] == ["criterion 2", "criterion 3"]
    assert all(line.endswith(" s") for line in lines)


@pytest.mark.parametrize("rho", ["1", "-1"])
def test_bounds_full_correlation_small_targets(capsys, rho):
    # equal small targets at |rho| = 1 once took log2(0) in the
    # intermediate regime; the rate is the active component's alone
    code, out, err = run_cli(capsys, "bounds", "--sigma2", "1", "--rho", rho,
                             "--p", "1", "--d1", "1e-9", "--d2", "1e-9")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, "bounds")
    assert doc["rd_rate"] == 0.5 * math.log2(1.0 / 1e-9)
    assert doc["verdict"] == "UNACHIEVABLE"


def test_simulate_vq_oversized_codebook_exits_1(capsys):
    # 22 bits per word at n=64 is 2 GiB per side: refused before drawing it
    code, out, err = run_cli(capsys, "simulate-vq", "--rho", "0.5", "--p", "2",
                             "--r1", "0.34375", "--r2", "0.34375", "-n", "64",
                             "--trials", "1")
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "MiB" in err


huge_trials = pytest.mark.parametrize("argv", [
    ("simulate-vq", "--rho", "0.8", "--p", "10", "--r1", "0.5", "--r2", "0.5",
     "-n", "4", "--trials", "10000000000000"),
    ("simulate-uncoded", "--rho", "0.5", "--trials", "10000000000000"),
])


@huge_trials
def test_trial_cap_refuses_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run_cli(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith("cap is 64 MiB\n")
    assert peak < 1 << 20


@huge_trials
def test_out_of_memory_exits_1(capsys, monkeypatch, argv):
    # the simulators are stubbed, so nothing is allocated for real
    def exhaust_vq(*args, **kwargs):
        raise MemoryError("Unable to allocate 146. TiB for an array")

    def exhaust_uncoded(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli, "simulate_vq", exhaust_vq)
    monkeypatch.setattr(cli, "simulate_uncoded", exhaust_uncoded)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.startswith("error: out of memory")


@pytest.mark.parametrize("argv", [
    ("vq-bound", "--sigma2", "1", "--rho", "1", "--p", "1e300", "--noise", "1"),
    ("sweep", "--rho", "1", "--snr-grid", "1e299:1e300:3:log"),
])
def test_symmetric_solve_at_full_residual_correlation_exits_1(capsys, argv):
    # rho_tilde rounds to 1 while the solver seeks the top of its scan;
    # that once ended in a ZeroDivisionError traceback
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "rounds to 1" in err


def test_symmetric_solve_with_overflowing_quotient_finds_fixed_point(capsys):
    # 1 - rho^2 is about 2e-12 and the power 1e300, so the ceiling's quotient
    # (about 2e312) overflows; the solve once gave up with exit 2 here
    code, out, err = run_cli(capsys, "vq-bound", "--rho", "0.999999999999",
                             "--p", "1e300")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, "vq-bound")
    assert doc["rate"] == pytest.approx(259.36, abs=0.01)
    assert 0.0 < doc["d1"] == doc["d2"] < 1e-150


def test_threads_cap_refuses_without_starting_threads(capsys, monkeypatch):
    # the simulators and the acceptance run refuse the count themselves;
    # starting any thread fails the test
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    for argv in (("simulate-uncoded", "--rho", "0.5"),
                 ("simulate-vq", "--rho", "0.8", "--p", "10", "--r1", "0.5",
                  "--r2", "0.5", "-n", "4"),
                 ("verify",)):
        code, out, err = run_cli(capsys, *argv, "--threads", str(MAX_THREADS + 1))
        assert (code, out) == (1, "")
        assert err == (f"error: threads must be at most {MAX_THREADS}, "
                       f"got {MAX_THREADS + 1}\n")


@pytest.mark.parametrize("argv", [
    ("sweep", "--rho", "0.5", "--snr-grid", "1:2:1000000000000:log"),
    ("sweep", "--rho", "0.5", "--boundary", "--resolution", "1000000000000"),
])
def test_sweep_point_cap_refuses_before_allocating(capsys, argv):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and err.endswith(f"cap is {MAX_SWEEP_POINTS}\n")
    assert peak < 1 << 20
    assert elapsed < 1.0


@pytest.mark.parametrize("argv, schema", [
    (("bounds", "--d1", "0.5", "--d2", "0.5"), "bounds"),
    (("vq-bound",), "vq-bound"),
    (("sweep", "--boundary", "--resolution", "3", "--format", "json"), "sweep-boundary"),
])
def test_negative_scientific_values_parse(capsys, argv, schema):
    # repr() writes a small negative correlation as "-9.153287305937452e-06",
    # which argparse before Python 3.13 took for an unknown flag
    code, out, err = run_cli(capsys, argv[0], "--rho", "-9.153287305937452e-06",
                             "--p", "2", *argv[1:])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, schema)
    if schema != "sweep-boundary":
        assert doc["rho"] == -9.153287305937452e-06
