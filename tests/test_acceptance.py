"""Acceptance gate: every criterion runs here, one test per criterion.

The shared fixture executes the whole battery once with two worker threads;
each test then asserts its own criterion's pass flag and runtime budget, so
a failure names the criterion and carries its detail line.
"""
import subprocess
import sys
from pathlib import Path

import pytest

from gmacdist.acceptance import DEFAULT_SEED, format_report, run_all

GOLDEN_REPORT = Path(__file__).resolve().parent / "golden" / "verify-seed7.txt"


@pytest.fixture(scope="module")
def results():
    return {r.number: r for r in run_all(seed=DEFAULT_SEED, threads=2)}


@pytest.mark.parametrize("number", list(range(1, 10)))
def test_criterion(results, number):
    rec = results[number]
    assert rec.passed, f"criterion {number} ({rec.name}): {rec.detail}"
    if rec.runtime_limit_s is not None:
        assert rec.elapsed_s < rec.runtime_limit_s, (
            f"criterion {number} took {rec.elapsed_s:.1f}s, "
            f"budget {rec.runtime_limit_s:.0f}s")


def test_verify_reports_are_byte_identical_across_threads():
    outs = []
    for threads in ("1", "4"):
        proc = subprocess.run(
            [sys.executable, "-m", "gmacdist", "verify", "--seed", "7",
             "--threads", threads],
            capture_output=True, timeout=570)
        assert proc.returncode == 0, proc.stdout.decode() + proc.stderr.decode()
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert outs[0] == GOLDEN_REPORT.read_bytes()


def test_report_format_is_stable(results):
    ordered = [results[k] for k in sorted(results)]
    lines = format_report(ordered, DEFAULT_SEED).strip().split("\n")
    assert lines[0] == "acceptance report (seed=7)"
    assert lines[-1] == "9/9 criteria passed"
    assert len(lines) == 11
    for number, line in zip(range(1, 10), lines[1:-1]):
        assert line.startswith(f"criterion {number} PASS ")


def test_empty_criteria_list_is_refused():
    with pytest.raises(ValueError, match="no criteria"):
        run_all(criteria=[])
