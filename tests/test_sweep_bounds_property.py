"""Properties of power-sweep rows: the paper's threshold claim and the order
of the bounds.

At or below the power ratio rho / (1 - rho^2), uncoded transmission meets
the converse: uncoded_d equals outer_d to 1e-12 relative and the row says
UNCODED_ACHIEVES.  Everywhere, the quantizer's inner bound lies on or above
the converse: vq_d >= outer_d to 4 units of 2^-52 relative, on rows whose
values are normal doubles.  Both are checked on a fixed grid over the
whole power range and on instances that hypothesis draws.
"""
import math
import time

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st  # noqa: E402

from gmacdist.region import Verdict, snr_sweep  # noqa: E402

# the wall-clock bound on each test, all of its examples together
SECONDS = 30.0

RHOS = (0.0, 0.1, 0.5, 0.9, 0.99, 1.0 - 1e-6, 1.0 - 1e-12, 1.0)
SIGMAS = (1e-3, 1.0, 1e3)
POWERS = np.geomspace(1e-300, 1.7e308, 4096)
TINY = 2.0 ** -1022


def _assert_rows(rows):
    for row in rows:
        if row.threshold_flag:
            assert abs(row.uncoded_d - row.outer_d) <= 1e-12 * row.outer_d, row
            assert row.verdict == Verdict.UNCODED_ACHIEVES.value, row
        if min(row.outer_d, row.vq_d) >= TINY:
            assert row.vq_d >= row.outer_d * (1.0 - 4 * 2.0 ** -52), row


def test_sweep_rows_order_the_bounds_on_the_grid():
    start = time.perf_counter()
    for sigma_sq in SIGMAS:
        for rho in RHOS:
            _assert_rows(snr_sweep(sigma_sq, rho, POWERS))
    assert time.perf_counter() - start < SECONDS


@given(st.floats(0.0, 1.0), st.floats(-3.0, 3.0), st.floats(-300.0, math.log10(1.7e308)))
def _sweep_rows_order_the_bounds(rho, log_sigma_sq, log_p):
    _assert_rows(snr_sweep(10.0 ** log_sigma_sq, rho, np.geomspace(10.0 ** log_p, 1e-300, 16)))


def test_sweep_rows_order_the_bounds_on_drawn_instances():
    start = time.perf_counter()
    _sweep_rows_order_the_bounds()
    assert time.perf_counter() - start < SECONDS
