import argparse
import json
import math
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path

import mpmath
import pytest

import gmacdist.cli as cli
from gmacdist.model import MAX_THREADS
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


@pytest.mark.parametrize("v1, v2, rho, p1, p2, noise", [
    (1.5, 0.4, -0.7, 3.0, 0.8, 0.5),   # the uncoded-asym.json instance
    (1.0, 9.0, -0.3, 2.0, 3.0, 1.0),
])
def test_uncoded_gains_and_weights_in_the_instance_units(capsys, v1, v2, rho, p1, p2, noise):
    # the physical model: sender i sends sign_i * gain_i * s_i at power p_i,
    # sign_2 = sign(rho), and lmmse_i * y is the linear MMSE estimate of s_i
    code, out, _ = run_cli(capsys, "uncoded", "--var1", str(v1), "--var2", str(v2),
                           "--rho", str(rho), "--p1", str(p1), "--p2", str(p2),
                           "--noise", str(noise))
    assert code == 0
    doc = json.loads(out)
    g1, g2 = doc["gain1"], math.copysign(doc["gain2"], rho)
    assert g1 * g1 * v1 == pytest.approx(p1, rel=1e-12)
    assert g2 * g2 * v2 == pytest.approx(p2, rel=1e-12)
    cov = rho * math.sqrt(v1 * v2)
    e_yy = g1 * g1 * v1 + g2 * g2 * v2 + 2.0 * g1 * g2 * cov + noise
    e_s1y, e_s2y = g1 * v1 + g2 * cov, g1 * cov + g2 * v2
    assert doc["lmmse1"] == pytest.approx(e_s1y / e_yy, rel=1e-12)
    assert doc["lmmse2"] == pytest.approx(e_s2y / e_yy, rel=1e-12)
    assert doc["d1"] == pytest.approx(v1 - e_s1y * e_s1y / e_yy, rel=1e-12)
    assert doc["d2"] == pytest.approx(v2 - e_s2y * e_s2y / e_yy, rel=1e-12)


@pytest.mark.parametrize("key, flags", [
    # sqrt(p2 / var2) = 1e309
    ("gain2", ("--var1", "1e-3", "--var2", "1e-310", "--p", "1e308")),
    # about sqrt(var2) sqrt(p2) / (p1 + p2 + noise) = 3e313
    ("lmmse2", ("--var1", "1", "--var2", "1e308", "--p", "1e-320", "--noise", "1e-320")),
])
def test_uncoded_overflowing_unit_conversion_exits_1(capsys, key, flags):
    code, out, err = run_cli(capsys, "uncoded", "--rho", "0.5", *flags)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {key} overflows at --rho 0.5 ")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("scale", ["1e-300", "1e300"])
def test_simulate_vq_at_extreme_scales(capsys, scale):
    # the reconstruction weights' determinant under- (1e-300) or overflows
    # (1e300) at these scales
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code, out, err = run_cli(capsys, "simulate-vq", "--rho", "0.5", "--sigma2", scale,
                                 "--p", scale, "--r1", "0.5", "--r2", "0.5", "-n", "8",
                                 "--trials", "5")
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, "simulate-vq")
    assert doc["empirical_d1"] > 0 and doc["empirical_d2"] > 0


# at n = 1 every word is +-radius, and the sum's squared norm b + two_a * -rr
# rounds to zero or below, so some objectives are NaN or infinite
@pytest.mark.parametrize("flags", [
    ("--r1", "1", "--r2", "1"),
    ("--r1", "2", "--r2", "2"),
    ("--r1", "8", "--r2", "8"),
    ("--r1", "1", "--r2", "1", "--delta-typ", "0"),
    ("--rho", "-0.5", "--var1", "1", "--var2", "4", "--r1", "1", "--r2", "1"),
])
def test_simulate_vq_at_blocklength_1(capsys, flags):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run_cli(capsys, "simulate-vq", "--rho", "0.5", "--p", "1",
                                 "-n", "1", "--trials", "200", *flags)
    assert (code, err) == (0, "")
    assert [(w.category, "outside the decodable region" in str(w.message))
            for w in caught] == [(UserWarning, True)]
    doc = json.loads(out)
    check_schema(doc, "simulate-vq")
    assert doc["blocklength"] == 1 and doc["trials"] == 200


# near the top of the power range the channel correlations overflow: the
# window's smallest squared norm overflows, so every objective in it is 0 or
# NaN (1e307 at n = 8), or every objective is NaN, even over the fallback's
# full window (1e308)
@pytest.mark.parametrize("p, n, threads", [
    ("1e307", "8", "1"), ("5e307", "8", "1"), ("1e308", "1", "1"), ("1e308", "8", "1"),
    ("1e308", "8", "2"),
])
def test_simulate_vq_with_overflowing_channel_exits_1(capsys, p, n, threads):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate-vq", "--rho", "0.5", "--p", p,
                                 "--r1", "1", "--r2", "1", "-n", n, "--trials", "5",
                                 "--threads", threads)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


# 4e306 at n = 16 keeps the window's smallest squared norm finite
@pytest.mark.parametrize("p, n", [("1e306", "8"), ("4e306", "16")])
def test_simulate_vq_below_the_overflow_prints(capsys, p, n):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate-vq", "--rho", "0.5", "--p", p,
                                 "--r1", "1", "--r2", "1", "-n", n, "--trials", "5")
    assert (code, err) == (0, "")
    check_schema(json.loads(out), "simulate-vq")


@pytest.mark.parametrize("p, trials", [("5e306", "1"), ("1e307", "5")])
def test_simulate_vq_with_an_overflowing_window_exits_promptly(p, trials):
    # the sum's squared norm in the window overflows although b = n (P1 + P2)
    # is finite at 5e306; with every objective 0 or NaN nothing pruned the
    # scan, which scored all 2^32 pairs of each trial
    proc = subprocess.run(
        [sys.executable, "-m", "gmacdist", "simulate-vq", "--rho", "0.5", "--p", p,
         "--r1", "1", "--r2", "1", "-n", "16", "--trials", trials],
        capture_output=True, text=True, timeout=30)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: the decoding objectives overflow at this power\n"


def test_vq_bound_at_an_overflowing_rate_is_refused_quietly(capsys):
    # -2 r overflows to -inf in the share 2^-2r, which is then 0, and so is d1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "vq-bound", "--rho", "0.5", "--r1", "1e308",
                                 "--r2", "0.5")
    assert (code, out) == (1, "")
    assert err == "error: d1 underflows to 0 at --rho 0.5 --r1 1e308 --r2 0.5\n"


UNDERFLOW_INSTANCE = ("--sigma2", "1e-300", "--rho", "0.5")


@pytest.mark.parametrize("argv, field", [
    (("vq-bound", "--rho", "0.5", "--r1", "600", "--r2", "0.5"), "d1"),
    (("vq-bound", *UNDERFLOW_INSTANCE, "--p", "1e300"), "d1"),
    (("bounds", *UNDERFLOW_INSTANCE, "--p", "1e300", "--d1", "1e-310", "--d2", "1e-310"),
     "vq_d1"),
    (("sweep", *UNDERFLOW_INSTANCE, "--snr-grid", "1e300:1e300:1:log"), "outer_d"),
    (("sweep", *UNDERFLOW_INSTANCE, "--snr-grid", "1e300:1e300:1:log", "--format", "json"),
     "outer_d"),
    (("sweep", *UNDERFLOW_INSTANCE, "--p", "1e300", "--boundary", "--resolution", "4"),
     "vq_d2"),
    (("uncoded", "--sigma2", "1e-300", "--rho", "1", "--p", "1e300", "--noise", "1e-300"),
     "d1"),
])
def test_distortion_underflowing_to_zero_exits_1(capsys, argv, field):
    # each document would print 0 where its schema requires a positive value
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {field} underflows to 0 at {' '.join(argv[1:])}\n"


def test_symmetric_share_underflowing_exits_1(capsys):
    code, out, err = run_cli(capsys, "vq-bound", "--rho", "1", "--p", "1e300",
                             "--noise", "1e-100")
    assert (code, out) == (1, "")
    assert err == "error: the symmetric share 2^-2r underflows at this power ratio\n"


DBL_MAX = "1.7976931348623157e308"
BOUNDARY_INSTANCE = ("--rho", "0.8401114790976159", "--sigma2", DBL_MAX, "--snr-grid",
                     "2.721457879569117e-34:5.5035077358902254e-05:3:log", "--convexify")


@pytest.mark.parametrize("argv, field", [
    (("uncoded", "--rho", "0.5", "--var1", "7249.586044499311", "--var2", DBL_MAX,
      "--p", "6826", "--noise", "1.77e34"), "d2"),
    (("simulate-uncoded", "--rho", "-0.258337510658758", "--var1", "1.2012522486567748e+200",
      "--var2", DBL_MAX, "--p1", "1.4038967137051916e+128", "--p2", "1e-310",
      "--noise", "0.004246937789819672", "--trials", "167"), "d2"),
    (("simulate-vq", "--rho", "0.5", "--var1", "4789.7", "--var2", DBL_MAX,
      "--p", "2.2250738585072014e-308", "--noise", "3.3e-119", "--r1", "0.25", "--r2", "0.01",
      "-n", "6", "--trials", "2", "--delta-typ", "0.9"), "empirical_d2"),
    (("sweep", "--rho", "0.84", "--sigma2", DBL_MAX, "--snr-grid", "5.5e-05:5.5e-05:1:log"),
     "outer_d"),
    (("sweep", "--rho", "0.84", "--sigma2", DBL_MAX, "--snr-grid", "5.5e-05:5.5e-05:1:log",
      "--format", "json"), "outer_d"),
    (("sweep", *BOUNDARY_INSTANCE), "uncoded_d"),
    (("sweep", *BOUNDARY_INSTANCE, "--format", "json"), "uncoded_d"),
])
def test_nonfinite_field_exits_1(capsys, argv, field):
    # each document would print null (JSON) or inf (CSV) where its schema
    # requires a number; the unit conversion multiplies quietly
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {field} overflows at {' '.join(argv[1:])}\n"


def _fields(kind):
    with open(SCHEMAS / f"{kind}.json") as fh:
        schema = json.load(fh)
    return schema.get("items", schema)["properties"]


def test_document_checks_follow_the_schemas():
    # the guard refuses 0 exactly where a schema requires a positive number,
    # and a non-finite float exactly where it does not allow null
    assert sorted(cli._SCHEMA_FLOATS) == sorted(p.stem for p in SCHEMAS.glob("*.json"))
    args = argparse.Namespace(flags="FLAGS")
    for kind in cli._SCHEMA_FLOATS:
        for k, prop in _fields(kind).items():
            if "number" not in prop["type"]:
                continue
            for v, refused, word in ((0.0, prop.get("exclusiveMinimum") == 0, "underflows"),
                                     (math.inf, "null" not in prop["type"], "overflows"),
                                     (math.nan, "null" not in prop["type"], "overflows")):
                if refused:
                    with pytest.raises(ValueError, match=f"^{k} {word}"):
                        cli._check_documents(args, kind, [{k: v}])
                else:
                    cli._check_documents(args, kind, [{k: v}])


@pytest.mark.parametrize("argv", [
    ("vq-bound", "--rho", "0.9", "--noise", "5e-324", "--r1", "2", "--r2", "2"),
    ("simulate-vq", "--rho", "0.9", "--noise", "5e-324", "--r1", "2", "--r2", "2",
     "-n", "2", "--trials", "2"),
])
def test_subnormal_noise_puts_the_region_limits_at_infinity(capsys, argv):
    # noise * (1 - rho_tilde^2) underflows to 0, so every limit is +inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, argv[0])
    assert doc["in_region"] is True


def test_simulate_vq_with_overflowing_objective_weights_exits_1(capsys):
    # (alpha1 * r1) ** 2 overflows, which Python's float power raises
    code, out, err = run_cli(
        capsys, "simulate-vq", "--rho", "1.0", "--sigma2", DBL_MAX,
        "--p1", "5.467513992666823e-192", "--p2", DBL_MAX, "--noise", "6.652424212275946e-199",
        "--r1", "0.3593454940691353", "--r2", "0.6714086335695286", "-n", "1", "--trials", "2",
        "--delta-typ", "0.7195850435611245")
    assert (code, out) == (1, "")
    assert err == "error: the decoding objectives overflow at this power\n"


def test_simulate_vq_codeword_correlation_stays_within_1(capsys):
    # at rho = 1 both words of a trial can be the same, and their normalized
    # inner product rounds to 1 + 2^-52 without the clip
    code, out, _ = run_cli(capsys, "simulate-vq", "--rho", "1", "--sigma2", "63.6",
                           "--p", "305.8304973501705", "--r1", "2", "--r2", "2", "-n", "1",
                           "--trials", "20", "--seed", "9")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "simulate-vq")
    assert doc["empirical_codeword_corr"] == 1.0


def test_capacity_term_at_a_small_power_ratio(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--rho", "0.5", "--p", "1e-20",
                           "--d1", "0.9", "--d2", "0.9")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "bounds")
    with mpmath.workdps(60):
        want = mpmath.log1p(3 * mpmath.mpf(1e-20)) / (2 * mpmath.log(2))
        assert abs(doc["capacity_term"] - want) <= 1e-12 * want


def test_vq_bound_at_a_subnormal_distortion_validates(capsys):
    code, out, _ = run_cli(capsys, "vq-bound", "--rho", "0.5", "--r1", "530", "--r2", "0.5")
    assert code == 0
    doc = json.loads(out)
    check_schema(doc, "vq-bound")
    assert doc["d1"] == 8.095e-320


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


@pytest.mark.parametrize("instance", [
    ("--sigma2", "1", "--rho", "0.5", "--p", "4", "--noise", "1"),
    ("--sigma2", "1", "--rho", "0.5", "--p", "1e12", "--noise", "1"),
    ("--var1", "1.5", "--var2", "0.4", "--rho", "-0.7", "--p1", "3", "--p2", "0.8",
     "--noise", "0.5"),
])
def test_bounds_verdict_flips_at_the_boundary_column(capsys, instance):
    code, out, _ = run_cli(capsys, "sweep", *instance, "--boundary",
                           "--resolution", "16", "--format", "json")
    assert code == 0
    var2 = 0.4 if "--var2" in instance else 1.0
    # at the second variance itself the converse may hold with room to spare
    rows = [r for r in json.loads(out)
            if r["outer_d2"] is not None and r["outer_d2"] < var2 * (1.0 - 1e-12)]
    assert len(rows) >= 3
    for row in rows:
        for factor, ruled_out in ((1.0 + 1e-9, False), (1.0 - 1e-9, True)):
            code, out, _ = run_cli(capsys, "bounds", *instance, "--d1", repr(row["d1"]),
                                   "--d2", repr(row["outer_d2"] * factor))
            assert code == 0
            assert (json.loads(out)["verdict"] == "UNACHIEVABLE") is ruled_out, (row, factor)


def test_sweep_uncoded_column_at_extreme_scale(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--rho", "0.5", "--sigma2", "1e300",
                           "--snr-grid", "1e300:1e300:1:log", "--format", "json")
    assert code == 0
    rows = json.loads(out)
    check_schema(rows, "sweep-snr")
    with mpmath.workdps(60):
        s2, p = mpmath.mpf(1e300), mpmath.mpf(1e300)
        want = float(s2 * (p * mpmath.mpf(0.75) + 1) / (2 * p * mpmath.mpf(1.5) + 1))
    assert rows[0]["uncoded_d"] == pytest.approx(want, rel=1e-12)


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
    for grid, line in (("1:2:x:log", "error: bad grid specification '1:2:x:log'\n"),
                       ("1:2:0:log", "error: grid needs at least one point\n")):
        assert run_cli(capsys, "sweep", "--rho", "0.5", "--snr-grid", grid) == (1, "", line)
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
    ("sweep", "--rho", "1", "--snr-grid", "1e299:1e300:3:log", "--format", "json"),
    ("vq-bound", "--rho", "1", "--p", "1e308"),
])
def test_symmetric_solve_at_full_residual_correlation_is_the_root(capsys, argv,
                                                                  symmetric_root):
    # rho_tilde rounded to 1 while the bisection once sought the top of its
    # bracket, so these exited 1
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    if argv[0] == "sweep":
        check_schema(doc, "sweep-snr")
        for row in doc:
            symmetric_root(1.0, 1.0, row["snr"], 1.0, row["vq_rate"], row["vq_d"])
    else:
        check_schema(doc, "vq-bound")
        symmetric_root(doc["sigma1_sq"], 1.0, doc["p1"], doc["noise_var"], doc["rate"],
                       doc["d1"])


def test_symmetric_solve_at_full_correlation_from_1e10(capsys):
    code, out, _ = run_cli(capsys, "vq-bound", "--rho", "1", "--p", "1e10")
    assert code == 0
    assert json.loads(out)["rate"] == 17.109640474454846


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


@pytest.mark.parametrize("rho", ["0", "0.5", "0.999999999999"])
@pytest.mark.parametrize("p", ["1e308", "1.7e308"])
def test_symmetric_solve_at_the_top_of_the_double_range(capsys, p, rho):
    # 2p(1 + rho_tilde) overflows: the solve once exited 2 here, and the
    # sweep's outer bound was 0
    code, out, err = run_cli(capsys, "vq-bound", "--rho", rho, "--p", p)
    assert (code, err) == (0, "")
    check_schema(json.loads(out), "vq-bound")
    code, out, err = run_cli(capsys, "sweep", "--rho", rho, "--snr-grid",
                             f"{p}:{p}:1:log", "--format", "json")
    assert (code, err) == (0, "")
    check_schema(json.loads(out), "sweep-snr")


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


# every subcommand's flags as the parser declared them before the shared
# groups became parent parsers: option strings -> (default, type, choices,
# required, nargs); a store_true flag has nargs 0
INSTANCE_FLAGS = {
    ("--sigma2",): (None, float, None, False, None),
    ("--var1",): (None, float, None, False, None),
    ("--var2",): (None, float, None, False, None),
    ("--rho",): (None, float, None, True, None),
    ("--p",): (None, float, None, False, None),
    ("--p1",): (None, float, None, False, None),
    ("--p2",): (None, float, None, False, None),
    ("--noise",): (None, float, None, False, None),
}
OUTPUT_FLAG = {("--output",): (None, None, None, False, None)}
SEED_THREADS_FLAGS = {
    ("--seed",): (None, int, None, False, None),
    ("--threads",): (1, int, None, False, None),
}
FLAG_TABLE = {
    "bounds": {
        **INSTANCE_FLAGS, **OUTPUT_FLAG,
        ("--d1",): (None, float, None, True, None),
        ("--d2",): (None, float, None, True, None),
    },
    "uncoded": {**INSTANCE_FLAGS, **OUTPUT_FLAG},
    "simulate-uncoded": {
        **INSTANCE_FLAGS, **OUTPUT_FLAG, **SEED_THREADS_FLAGS,
        ("--trials",): (100_000, int, None, False, None),
    },
    "vq-bound": {
        **INSTANCE_FLAGS, **OUTPUT_FLAG,
        ("--r1",): (None, float, None, False, None),
        ("--r2",): (None, float, None, False, None),
    },
    "simulate-vq": {
        **INSTANCE_FLAGS, **OUTPUT_FLAG, **SEED_THREADS_FLAGS,
        ("--r1",): (None, float, None, True, None),
        ("--r2",): (None, float, None, True, None),
        ("--blocklength", "-n"): (None, int, None, True, None),
        ("--trials",): (500, int, None, False, None),
        ("--delta-typ",): (0.05, float, None, False, None),
    },
    "sweep": {
        **INSTANCE_FLAGS, **OUTPUT_FLAG,
        ("--snr-grid",): (None, None, None, False, None),
        ("--convexify",): (False, None, None, False, 0),
        ("--boundary",): (False, None, None, False, 0),
        ("--resolution",): (64, int, None, False, None),
        ("--format",): ("csv", None, ("csv", "json"), False, None),
    },
    "verify": {
        **OUTPUT_FLAG, **SEED_THREADS_FLAGS,
        ("--criteria",): (None, None, None, False, None),
        ("--timings",): (False, None, None, False, 0),
    },
}


def test_each_subcommand_declares_the_tabled_flags():
    parser = cli.build_parser()
    sub, = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(FLAG_TABLE)
    for name, sp in sub.choices.items():
        got = {tuple(a.option_strings): (a.default, a.type, a.choices, a.required, a.nargs)
               for a in sp._actions if not isinstance(a, argparse._HelpAction)}
        assert got == FLAG_TABLE[name], name


@pytest.mark.parametrize("d1, d2", [("inf", "inf"), ("1e400", "0.5"), ("0.5", "nan")])
def test_nonfinite_distortion_targets_exit_1(capsys, d1, d2):
    # 1e400 parses to inf; an infinite target once echoed as a null
    code, out, err = run_cli(capsys, "bounds", "--rho", "0.5", "--d1", d1, "--d2", d2)
    assert (code, out) == (1, "")
    assert err.count("\n") == 1 and "finite" in err


@pytest.mark.parametrize("flags, rate", [
    (("--d1", "1e-300", "--d2", "1e-300"), 996.3709097),
    (("--sigma2", "1e200", "--d1", "1e199", "--d2", "1e199"), 0.5 * math.log2(75.0)),
    (("--d1", "1e-320", "--d2", "0.5"), 531.8009845),
    (("--sigma2", "1e-200", "--d1", "1e-201", "--d2", "1e-201"), 0.5 * math.log2(75.0)),
])
def test_bounds_at_extreme_scales_gives_the_rate(capsys, flags, rate):
    # products of variances and targets once under- or overflowed here:
    # a ZeroDivisionError, a null rate, or the wrong regime
    code, out, err = run_cli(capsys, "bounds", "--rho", "0.5", *flags)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, "bounds")
    assert doc["rd_rate"] == pytest.approx(rate, rel=1e-9)


def test_simulate_vq_zero_blocklength_exits_1_with_one_line(capsys):
    # the pair lies outside the region; the blocklength is refused before
    # the region warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate-vq", "--rho", "0.5", "--r1", "0.5",
                                 "--r2", "0.5", "-n", "0")
    assert (code, out) == (1, "")
    assert err == "error: blocklength must be at least 1\n"


@pytest.mark.parametrize("spec", [",", "", ",,"])
def test_verify_criteria_naming_none_exits_1(capsys, spec):
    code, out, err = run_cli(capsys, "verify", "--criteria", spec)
    assert (code, out) == (1, "")
    assert err == "error: no criteria named\n"


@pytest.mark.parametrize("cmd, flags, want", [
    ("uncoded", ("--sigma2", "1e300", "--p", "1e300"), 2.5e299),
    ("uncoded", ("--p", "1e308"), 0.25),
    ("bounds", ("--sigma2", "1e300", "--p", "1e300", "--d1", "1e299", "--d2", "1e299"),
     2.5e299),
    ("simulate-uncoded", ("--sigma2", "1e300", "--p", "1e300", "--trials", "10"),
     2.5e299),
])
def test_uncoded_at_extreme_scales_stays_finite(capsys, cmd, flags, want):
    # sigma^2 times a power, or Var(y), once overflowed to a null or a zero d1
    code, out, err = run_cli(capsys, cmd, "--rho", "0.5", *flags)
    assert (code, err) == (0, "")
    doc = json.loads(out)
    check_schema(doc, cmd)
    key = {"uncoded": "d1", "bounds": "uncoded_d1"}.get(cmd, "analytic_d1")
    assert doc[key] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_simulate_uncoded_overflowing_sums_exit_1(capsys, threads):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "simulate-uncoded", "--rho", "0.5", "--p", "1e308",
                                 "--trials", "10", "--threads", threads)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "overflow" in err


@pytest.mark.parametrize("argv, err", [
    (("bounds", "--var1", "1", "--var2", "1e-300", "--d1", "0.5", "--d2", "1e10"),
     "error: --d2 1e+10 divided by the variance ratio --var2/--var1 = 1e-300 overflows\n"),
    (("bounds", "--var1", "1e-100", "--var2", "1e100", "--d1", "1e-101", "--d2", "1e-150"),
     "error: --d2 1e-150 divided by the variance ratio --var2/--var1 = 1e+200 "
     "underflows to 0\n"),
    (("bounds", "--var1", "1e300", "--var2", "1e-300", "--d1", "0.5", "--d2", "0.5"),
     "error: the variance ratio --var2/--var1 = 1e-300/1e+300 underflows to 0\n"),
    (("uncoded", "--var1", "1e-300", "--var2", "1e300"),
     "error: the variance ratio --var2/--var1 = 1e+300/1e-300 overflows\n"),
    (("sweep", "--var1", "1e300", "--var2", "1e-300", "--boundary"),
     "error: the variance ratio --var2/--var1 = 1e-300/1e+300 underflows to 0\n"),
    # a subnormal ratio once gave uncoded_d2 = 4.374999999999986e-11
    (("bounds", "--var1", "1e300", "--var2", "1e-10", "--d1", "0.5", "--d2", "0.5"),
     "error: the variance ratio --var2/--var1 = 1e-10/1e+300 underflows\n"),
    (("uncoded", "--var1", "1", "--var2", "1e-310"),
     "error: the variance ratio --var2/--var1 = 1e-310/1 underflows\n"),
    # 1e-4 * 1e-320 is 0, which np.geomspace refuses with a message that
    # names no flag
    (("sweep", "--sigma2", "1e-320", "--boundary", "--resolution", "4"),
     "error: the boundary trace's smallest d1, 0.0001 * --sigma2 = 0.0001 * "
     "9.99989e-321, underflows to 0\n"),
    (("sweep", "--sigma2", "1", "--var1", "1e-320", "--var2", "1e-320", "--boundary"),
     "error: the boundary trace's smallest d1, 0.0001 * --var1 = 0.0001 * "
     "9.99989e-321, underflows to 0\n"),
])
def test_canonicalization_range_errors_name_their_flags(capsys, argv, err):
    code, out, got = run_cli(capsys, argv[0], "--rho", "0.5", *argv[1:])
    assert (code, out, got) == (1, "", err)


def test_boundary_trace_at_a_subnormal_variance_still_prints(capsys):
    # 1e-4 * 1e-310 is subnormal but not 0, so the d1 grid can be formed
    code, out, err = run_cli(capsys, "sweep", "--rho", "0.5", "--sigma2", "1e-310",
                             "--boundary", "--resolution", "4", "--format", "json")
    assert (code, err) == (0, "")
    rows = json.loads(out)
    check_schema(rows, "sweep-boundary")
    assert len(rows) == 4 and rows[0]["d1"] > 0.0
