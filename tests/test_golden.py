"""Golden CLI documents: each case's stdout must match its file byte for byte.

The files under tests/golden/ pin the exact output of the analytic path
(converse, verdict search, quantizer bound, boundary trace).  To write them
afresh from the current source tree:

    PYTHONPATH=src python tests/test_golden.py
"""
import contextlib
import io
import sys
from pathlib import Path

import pytest

import gmacdist.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden"

SYM = ("--sigma2", "1", "--rho", "0.5", "--p", "2", "--noise", "3")
VQ = ("--sigma2", "1", "--rho", "0.8", "--p", "10", "--noise", "1")
# unequal variances and powers, negative correlation
ASYM = ("--var1", "1.5", "--var2", "0.4", "--rho", "-0.7",
        "--p1", "3", "--p2", "0.8", "--noise", "0.5")

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
}


def render(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    assert code == 0, argv
    return out.getvalue()


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_document_matches_golden(name):
    assert render(CASES[name]) == (GOLDEN / name).read_text()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(render(argv))
        print(name, file=sys.stderr)
