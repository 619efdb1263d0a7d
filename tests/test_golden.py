"""Golden CLI documents: each case's stdout must match its file byte for byte.

The files under tests/golden/ pin the exact output of the analytic path
(converse, verdict search, quantizer bound, uncoded closed form, power
sweep with and without convexification, boundary trace), of the uncoded
and quantizer simulations at one and at four threads, and of the
simulation criteria of the acceptance report.  The quantizer documents
are also rendered in a subprocess under one OpenBLAS thread.  To write
them afresh from the current source tree:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gmacdist.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"
SCHEMAS = GOLDEN.parent.parent / "docs" / "schemas"

SYM = ("--sigma2", "1", "--rho", "0.5", "--p", "2", "--noise", "3")
VQ = ("--sigma2", "1", "--rho", "0.8", "--p", "10", "--noise", "1")
# unequal variances and powers, negative correlation
ASYM = ("--var1", "1.5", "--var2", "0.4", "--rho", "-0.7",
        "--p1", "3", "--p2", "0.8", "--noise", "0.5")
SNR_LOG = ("--rho", "0.5", "--snr-grid", "0.1:100:50:log")

CASES = {
    "bounds-uncoded.json": ("bounds", *SYM, "--d1", "0.5", "--d2", "0.5"),
    "bounds-vq.json": ("bounds", *VQ, "--d1", "0.105", "--d2", "0.105"),
    "bounds-gap.json": ("bounds", *VQ, "--d1", "0.05", "--d2", "0.3"),
    "bounds-unachievable.json": ("bounds", *SYM, "--d1", "0.1", "--d2", "0.1"),
    "bounds-asym-uncoded.json": ("bounds", *ASYM, "--d1", "0.3", "--d2", "0.15"),
    "bounds-asym-vq.json": ("bounds", *ASYM, "--d1", "0.2", "--d2", "0.15"),
    "bounds-asym-gap.json": ("bounds", *ASYM, "--d1", "0.4", "--d2", "0.06"),
    "vq-bound-pair.json": ("vq-bound", *VQ, "--r1", "0.5", "--r2", "0.5"),
    "vq-bound-pair-asym.json": ("vq-bound", *ASYM, "--r1", "0.9", "--r2", "0.3"),
    "vq-bound-symmetric.json": ("vq-bound", *SYM),
    "sweep-boundary.csv": ("sweep", "--rho", "0.5", "--sigma2", "1", "--p", "4",
                           "--noise", "1", "--boundary", "--resolution", "64"),
    "sweep-boundary-asym.json": ("sweep", *ASYM, "--boundary", "--resolution", "64",
                                 "--format", "json"),
    "uncoded.json": ("uncoded", *SYM),
    "uncoded-asym.json": ("uncoded", *ASYM),
    # the log grids cross the uncoded-optimality threshold
    "sweep-snr.csv": ("sweep", *SNR_LOG),
    "sweep-snr-convexify.csv": ("sweep", *SNR_LOG, "--convexify"),
    "sweep-snr-neg.json": ("sweep", "--rho", "-0.5", "--sigma2", "2",
                           "--snr-grid", "0.1:100:50:log", "--format", "json"),
    "sweep-snr-lin-convexify.json": ("sweep", "--rho", "0.9", "--snr-grid",
                                     "0.5:20:40:lin", "--convexify",
                                     "--format", "json"),
}

# simulation documents, each rendered at --threads 1 and --threads 4
SIM = ("simulate-vq", "--seed", "7")
SIM_CASES = {
    # the README example at 60 trials
    "simulate-vq-n24.json": (*SIM, *VQ, "--r1", "0.5", "--r2", "0.5", "-n", "24",
                             "--trials", "60", "--delta-typ", "0.4"),
    # 2^16 words per side
    "simulate-vq-n32.json": (*SIM, *VQ, "--r1", "0.5", "--r2", "0.5", "-n", "32",
                             "--trials", "12", "--delta-typ", "0.4"),
    "simulate-vq-asym.json": (*SIM, *ASYM, "--r1", "0.9", "--r2", "0.3", "-n", "16",
                              "--trials", "40", "--delta-typ", "0.3"),
    # every pair lies outside the window, so each trial takes the fallback
    "simulate-vq-fallback.json": (*SIM, *VQ, "--r1", "0.5", "--r2", "0.5", "-n", "4",
                                  "--trials", "40", "--delta-typ", "0.05"),
    # four chunks, the last one partial
    "simulate-uncoded.json": ("simulate-uncoded", "--seed", "7", *SYM,
                              "--trials", "200000"),
    "simulate-uncoded-asym.json": ("simulate-uncoded", "--seed", "7", *ASYM,
                                   "--trials", "200000"),
}
# the uncoded documents' long chunk sums take their last bits from the BLAS
# thread count, so only the quantizer documents are pinned under one thread
VQ_SIM_CASES = sorted(name for name in SIM_CASES if name.startswith("simulate-vq"))

# the simulation criteria of the acceptance report; the whole report is
# pinned by tests/test_acceptance.py
VERIFY_CASE = ("verify-seed7-criteria-8-9.txt",
               ("verify", "--seed", "7", "--criteria", "8,9"))


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_matches_golden(name):
    assert render(CASES[name]) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("name", sorted(SIM_CASES))
def test_simulation_document_matches_golden(name, threads):
    argv = (*SIM_CASES[name], "--threads", threads)
    assert render(argv) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("threads", ["1", "4"])
@pytest.mark.parametrize("name", VQ_SIM_CASES)
def test_vq_simulation_document_matches_golden_under_one_blas_thread(name, threads):
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    proc = subprocess.run(
        [sys.executable, "-m", "gmacdist", *SIM_CASES[name], "--threads", threads],
        capture_output=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (GOLDEN / name).read_bytes()


def test_verify_simulation_criteria_match_golden():
    name, argv = VERIFY_CASE
    assert render(argv) == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(p.name for p in GOLDEN.glob("*.json")))
def test_json_golden_matches_its_schema(name):
    # every schema refuses fields it does not name, so a record field that
    # leaks into a document built from that record fails here
    jsonschema = pytest.importorskip("jsonschema")
    schema, = [p for p in SCHEMAS.glob("*.json") if name.startswith(p.stem)]
    jsonschema.validate(json.loads((GOLDEN / name).read_text()),
                        json.loads(schema.read_text()))


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in [*CASES.items(), *SIM_CASES.items(), VERIFY_CASE]:
        (GOLDEN / name).write_text(render(argv))
        print(name, file=sys.stderr)
