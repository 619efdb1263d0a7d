"""Property: every distortion_grid cell is, bit for bit, what the scalar
in_rate_region and vq_distortions give for that rate pair.

Instances span sigma^2, powers and noise from 1e-300 to 1e300, noise also
at subnormal values (where the noise share of the region limits underflows
to 0 and the limits are +inf), and rho over [0, 1]; each grid mixes a log-spaced axis with rates within two ulps of
the region's edges, where a last-bit difference between the two paths
would change a decision.
"""
import math
import time

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from gmacdist.model import CanonicalInstance  # noqa: E402
from gmacdist.vq_analytic import (  # noqa: E402
    distortion_grid,
    in_rate_region,
    make_rate_pair,
    rate_region_limits,
    rho_tilde,
    vq_distortions,
)

# examples per property, and the wall-clock bound on all of them together
EXAMPLES = 60
SECONDS = 30.0

ULPS = range(-2, 3)

scales = st.one_of(st.sampled_from([1e-300, 1.0, 1e300]),
                   st.floats(-300.0, 300.0).map(lambda e: 10.0 ** e))
rhos = st.one_of(st.sampled_from([0.0, 1.0 - 1e-12, 1.0]), st.floats(0.0, 1.0))
noises = st.one_of(scales, st.sampled_from([5e-324, 1e-310]), st.floats(5e-324, 2.2e-308))
instances = st.builds(CanonicalInstance, scales, rhos, scales, scales, noises)
shift = st.floats(0.0, 1.0)


def _near(x):
    """x and its neighbours up to two ulps either side, when x is finite."""
    if not math.isfinite(x):
        return []
    out = []
    for k in ULPS:
        y = x
        for _ in range(abs(k)):
            y = math.nextafter(y, math.copysign(math.inf, k))
        out.append(y)
    return out


def _sum_edge_rate(c, r1):
    """A second rate r2 with r1 + r2 near the sum-rate edge at their own
    rho_tilde, or None when there is none to find."""
    r2 = 0.0
    for _ in range(20):
        try:
            bsum = rate_region_limits(c, rho_tilde(c.rho, r1, r2))[2] + 1e-12
        except ValueError:  # rho_tilde rounds to 1 on the way
            return None
        new = bsum - r1
        if not (math.isfinite(new) and new >= 0.0):
            return None
        if new == r2:
            break
        r2 = new
    return r2


def _axes(c, t):
    """First and second rate axes: zero, a log-spaced run up to twice the
    single-rate edges, and rates within two ulps of the edges; t in [0, 1]
    places the first rate of the sum-edge rows."""
    e1, e2, esum = (b + 1e-12 for b in rate_region_limits(c, 0.0))
    top = min(max(2.0 * esum, 1e-2), 1e4) if math.isfinite(esum) else 1e4
    base = np.concatenate(([0.0], np.geomspace(1e-3, top, 6)))
    r1 = [*_near(e1), t * min(e1, top)]
    r2 = [*_near(e2)]
    s = _sum_edge_rate(c, r1[-1])
    if s is not None:
        r2 += [x for x in _near(s) if x >= 0.0]
    return (np.sort(np.concatenate((base, r1))),
            np.sort(np.concatenate((base, r2))))


def _assert_cell(c, inside, d1, d2, r1, r2):
    rates = make_rate_pair(c, r1, r2)
    if 1.0 - rates.rho_tilde ** 2 == 0.0:  # the scalar forms refuse the pair
        assert not inside
        return
    d = vq_distortions(c, rates)
    assert inside == in_rate_region(c, rates)
    assert (float(d1).hex(), float(d2).hex()) == (d.d1.hex(), d.d2.hex())


def _assert_grid(c, a1, a2, grid):
    inside, d1, d2 = grid
    assert inside.shape == d1.shape == d2.shape == (len(a1), len(a2))
    for i, r1 in enumerate(a1.tolist()):
        for j, r2 in enumerate(a2.tolist()):
            _assert_cell(c, bool(inside[i, j]), d1[i, j], d2[i, j], r1, r2)


@settings(max_examples=EXAMPLES)
@given(instances, shift)
@example(CanonicalInstance(1.0, 0.0, 2.0, 0.5, 1.0), 0.5)
@example(CanonicalInstance(1.0, 1.0 - 1e-12, 2.0, 0.5, 1.0), 0.5)
@example(CanonicalInstance(1.0, 1.0, 2.0, 0.5, 1.0), 0.5)
@example(CanonicalInstance(1.0, 0.9, 1.0, 1.0, 5e-324), 0.5)
def _grid_cells_equal_scalar_forms(c, t):
    a1, a2 = _axes(c, t)
    _assert_grid(c, a1, a2, distortion_grid(c, a1, a2))


@settings(max_examples=EXAMPLES)
@given(instances, shift, shift)
@example(CanonicalInstance(1.0, 1.0, 1e300, 1e-300, 1e-300), 0.25, 0.75)
def _batched_grids_equal_scalar_forms(c, t, u):
    # two leading indices of different axes in one (2, n1) x (2, n2) call
    (a1, a2), (b1, b2) = _axes(c, t), _axes(c, u)
    n1, n2 = min(len(a1), len(b1)), min(len(a2), len(b2))
    first = np.stack((a1[:n1], b1[-n1:]))
    second = np.stack((a2[:n2], b2[-n2:]))
    grids = distortion_grid(c, first, second)
    for k in range(2):
        _assert_grid(c, first[k], second[k], [g[k] for g in grids])


@pytest.mark.parametrize("prop", [_grid_cells_equal_scalar_forms,
                                  _batched_grids_equal_scalar_forms])
def test_grid_cells_equal_scalar_forms(prop):
    start = time.perf_counter()
    prop()
    assert time.perf_counter() - start < SECONDS
