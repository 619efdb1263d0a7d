"""The library names the benchmark under bench/ wraps and reads.

bench/tracing.py wraps functions by module attribute, and bench/workloads.py
reads further names and result fields directly.  These checks keep that
surface in place from the library's own test suite, which does not run
bench/test_bench.py.  bench/ is only read here.
"""
import dataclasses
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import gmacdist

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"

# read directly by bench/workloads.py
READ = (
    "cli.main",
    "model.symmetric_instance",
    "model.canonicalize",
    "model.ProblemInstance",
    "model.DistortionPair",
    "rd_bounds.rd_rate",
    "rd_bounds.waterfill_oracle_rate",
    "vq_analytic.make_rate_pair",
    "vq_analytic.vq_distortions",
    "uncoded.uncoded_distortions",
    "uncoded.simulate_uncoded",
)


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    before = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache files under bench/
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = before
    return mod


tracing = _load_tracing()


@pytest.mark.parametrize("qual", [*tracing.TIMED, *tracing.COUNTED, *READ])
def test_benchmark_name_is_a_callable_module_attribute(qual):
    layer, name = qual.split(".")
    mod = importlib.import_module(f"gmacdist.{layer}")
    assert callable(getattr(mod, name, None)), qual


def test_region_calls_the_counted_rate_region_test():
    # the tracer counts region's calls through the name region imported
    assert gmacdist.region.in_rate_region is gmacdist.vq_analytic.in_rate_region


def test_result_fields_the_benchmark_reads():
    vq = {f.name for f in dataclasses.fields(gmacdist.vq_sim.VqTrialStats)}
    assert vq >= {
        "trials", "blocklength", "realized_r1", "realized_r2",
        "empirical_d1", "empirical_d2", "cond_d1", "cond_d2",
        "quantizer_mse1", "quantizer_mse2", "empirical_codeword_corr",
        "decode_error_count", "fallback_count", "seed",
    }
    unc = {f.name for f in dataclasses.fields(gmacdist.uncoded.UncodedSimResult)}
    assert unc >= {"d1", "d2", "power1", "power2", "trials", "seed"}
