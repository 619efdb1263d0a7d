import math

import numpy as np
import pytest

from gmacdist import vq_analytic
from gmacdist.model import CanonicalInstance, symmetric_instance
from gmacdist.rd_bounds import symmetric_outer_bound
from gmacdist.vq_analytic import (
    distortion_grid,
    high_snr_asymptote,
    in_rate_region,
    make_rate_pair,
    rate_region_limits,
    rho_tilde,
    solve_symmetric_rate,
    vq_distortions,
)


def test_rho_tilde_values():
    assert rho_tilde(0.8, 0.5, 0.5) == pytest.approx(0.4, rel=1e-12)
    assert rho_tilde(0.8, 0.5, 0.0) == 0.0
    assert rho_tilde(0.0, 1.0, 2.0) == 0.0
    assert rho_tilde(0.9, 40.0, 40.0) == pytest.approx(0.9, rel=1e-9)
    with pytest.raises(ValueError):
        rho_tilde(0.5, -0.1, 1.0)


def test_region_membership_examples():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    assert in_rate_region(c, make_rate_pair(c, 0.3, 0.3))
    assert not in_rate_region(c, make_rate_pair(c, 0.45, 0.45))
    b1, b2, bsum = rate_region_limits(c, 0.0)
    assert b1 == pytest.approx(0.5, rel=1e-12)
    assert b2 == b1
    assert bsum == pytest.approx(0.5 * math.log2(3.0), rel=1e-12)


def test_region_boundary_counts_as_inside():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    half_sum = 0.25 * math.log2(3.0)
    assert in_rate_region(c, make_rate_pair(c, half_sum, half_sum))


def test_distortion_desk_value():
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    d = vq_distortions(c, make_rate_pair(c, 0.5, 0.5))
    assert d.d1 == pytest.approx(0.40476190476190477, rel=1e-12)
    assert d.d2 == pytest.approx(d.d1, rel=1e-12)


def test_distortion_zero_correlation_collapses():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    d = vq_distortions(c, make_rate_pair(c, 0.3, 1.2))
    assert d.d1 == pytest.approx(2.0 ** -0.6, rel=1e-12)
    assert d.d2 == pytest.approx(2.0 ** -2.4, rel=1e-12)


def test_distortion_zero_rate():
    c = symmetric_instance(1.0, 0.8, 1.0, 1.0)
    d = vq_distortions(c, make_rate_pair(c, 0.0, 0.0))
    assert (d.d1, d.d2) == (1.0, 1.0)


def test_distortion_rate_swap_symmetry():
    c = CanonicalInstance(1.0, 0.6, 2.0, 5.0, 1.0)
    a = vq_distortions(c, make_rate_pair(c, 0.4, 0.9))
    b = vq_distortions(c, make_rate_pair(c, 0.9, 0.4))
    assert a.d1 == pytest.approx(b.d2, rel=1e-12)
    assert a.d2 == pytest.approx(b.d1, rel=1e-12)


def test_distortion_monotone_in_common_rate():
    c = symmetric_instance(1.0, 0.8, 1.0, 1.0)
    ds = [vq_distortions(c, make_rate_pair(c, r, r)).d1
          for r in np.linspace(0.0, 3.0, 40)]
    assert all(b < a + 1e-15 for a, b in zip(ds, ds[1:]))
    assert ds[0] == 1.0


def test_vq_bound_wrapper():
    # the steps of the vq-bound subcommand at an explicit rate pair
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    rates = make_rate_pair(c, 0.3, 0.3)
    assert in_rate_region(c, rates)
    assert vq_distortions(c, rates).d1 == pytest.approx(2.0 ** -0.6, rel=1e-12)
    assert not in_rate_region(c, make_rate_pair(c, 0.45, 0.45))


def test_solve_symmetric_desk_case():
    r, d = solve_symmetric_rate(1.0, 0.0, 1.0, 1.0)
    assert r == pytest.approx(0.25 * math.log2(3.0), abs=1e-9)
    assert d == pytest.approx(3.0 ** -0.5, rel=1e-9)


def test_solve_symmetric_zero_rho_closed_form():
    for snr in (0.1, 1.0, 10.0, 100.0):
        _, d = solve_symmetric_rate(1.0, 0.0, snr, 1.0)
        assert d == pytest.approx(math.sqrt(1.0 / (2.0 * snr + 1.0)), abs=1e-9)


def test_solve_symmetric_vanishing_power():
    r, d = solve_symmetric_rate(1.0, 0.5, 1e-12, 1.0)
    assert r < 1e-6
    assert d == pytest.approx(1.0, abs=1e-6)


def test_solve_symmetric_full_correlation_has_fixed_point():
    # the ceiling grows like r/2 at rho = 1, so a crossing still exists
    r, d = solve_symmetric_rate(1.0, 1.0, 1.0, 1.0)
    assert 0.0 < r < 2.0
    assert 0.0 < d < 1.0
    assert r == pytest.approx(0.6942419136307763, abs=1e-9)


def test_solve_symmetric_frozen_point():
    r, d = solve_symmetric_rate(1.0, 0.5, 2.0, 3.0)
    assert r == pytest.approx(0.3578674578139953, abs=1e-10)
    assert d == pytest.approx(0.5712026511656636, rel=1e-10)


def test_inner_bound_never_beats_outer():
    for rho in (0.0, 0.3, 0.6, 0.9):
        for snr in (0.2, 1.0, 5.0, 50.0):
            _, d = solve_symmetric_rate(1.0, rho, snr, 1.0)
            assert d >= symmetric_outer_bound(1.0, rho, snr, 1.0) - 1e-9


def test_high_snr_asymptote_values():
    assert high_snr_asymptote(1.0, 0.0) == pytest.approx(2.0 ** -0.5, rel=1e-12)
    assert high_snr_asymptote(1.0, 1.0) == 0.0
    assert high_snr_asymptote(2.0, 0.5) == pytest.approx(1.0, rel=1e-12)


def test_scaled_distortion_approaches_asymptote():
    lim = high_snr_asymptote(1.0, 0.5)
    gaps = []
    for snr in (1e2, 1e4, 1e6):
        _, d = solve_symmetric_rate(1.0, 0.5, snr, 1.0)
        gaps.append(abs(math.sqrt(snr) * d - lim))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 0.02 * lim


def test_distortion_grid_matches_scalar_forms():
    # every cell is bitwise the scalar membership test and closed form
    axis = np.concatenate(([0.0], np.geomspace(1e-3, 6.0, 23)))
    for c in (symmetric_instance(1.0, 0.8, 10.0, 1.0),
              CanonicalInstance(2.0, 0.35, 0.7, 4.0, 0.3),
              symmetric_instance(1.0, 0.0, 1.0, 1.0)):
        inside, d1, d2 = distortion_grid(c, axis, axis[::-1])
        for i, r1 in enumerate(axis):
            for j, r2 in enumerate(axis[::-1]):
                rates = make_rate_pair(c, float(r1), float(r2))
                d = vq_distortions(c, rates)
                assert inside[i, j] == in_rate_region(c, rates)
                assert (d1[i, j], d2[i, j]) == (d.d1, d.d2)


def test_full_residual_correlation_is_rejected():
    c = symmetric_instance(1.0, 1.0, 2.0, 1.0)
    rates = make_rate_pair(c, 30.0, 30.0)
    assert rates.rho_tilde == 1.0
    for fn in (in_rate_region, vq_distortions):
        with pytest.raises(ValueError, match="rounds to 1"):
            fn(c, rates)
    with pytest.raises(ValueError, match="rounds to 1"):
        rate_region_limits(c, 1.0)
    # the grid form marks such cells as outside instead
    inside, _, _ = distortion_grid(c, np.array([0.5, 30.0]), np.array([0.5, 30.0]))
    assert inside.tolist() == [[True, False], [False, False]]


def test_nonfinite_rates_and_correlations_outside_0_1_are_refused():
    c = symmetric_instance(1.0, 0.5, 2.0, 1.0)
    for r1, r2 in ((math.inf, 0.5), (0.5, math.nan)):
        with pytest.raises(ValueError, match="rates must be finite"):
            vq_distortions(c, make_rate_pair(c, r1, r2))
    with pytest.raises(ValueError, match=r"correlation must lie in \[0, 1\]"):
        rho_tilde(1.5, 0.5, 0.5)
    with pytest.raises(ValueError, match=r"correlation must lie in \[0, 1\]"):
        high_snr_asymptote(1.0, 1.5)


def test_symmetric_solve_at_zero_power_keeps_the_full_variance():
    assert solve_symmetric_rate(1.0, 0.5, 0.0, 1.0) == (0.0, 1.0)


# Scalar references.  reference_grid evaluates each cell on Python floats:
# libm's pow for the shares, and for the region limits the log2 that
# vq_analytic takes (numpy's, or numpy's moved by the log2_off fixture), as
# in_rate_region takes them; distortion_grid must agree with it bit for bit.

def _scalar_map(fn, x):
    x = np.asarray(x, dtype=float)
    return np.array([fn(v) for v in x.ravel().tolist()], dtype=float).reshape(x.shape)


def _np_log2(v):
    return float(vq_analytic.np.log2(v))


def reference_grid(c, r1, r2):
    r1 = np.asarray(r1, dtype=float)[:, None]
    r2 = np.asarray(r2, dtype=float)[None, :]
    q1 = _scalar_map(lambda v: 2.0 ** (-2.0 * v), r1)
    q2 = _scalar_map(lambda v: 2.0 ** (-2.0 * v), r2)
    rt = c.rho * np.sqrt((1.0 - q1) * (1.0 - q2))
    n = c.noise_var
    with np.errstate(all="ignore"):
        one = 1.0 - rt * rt
        b1 = 0.5 * _scalar_map(_np_log2, (c.p1 * one + n) / (n * one))
        b2 = 0.5 * _scalar_map(_np_log2, (c.p2 * one + n) / (n * one))
        bsum = 0.5 * _scalar_map(_np_log2, (c.p1 + c.p2 + 2.0 * rt * c.sqrt_p1p2 + n)
                                 / (n * one))
        inside = ((one != 0.0) & (r1 <= b1 + 1e-12) & (r2 <= b2 + 1e-12)
                  & (r1 + r2 <= bsum + 1e-12))
        rho2 = c.rho * c.rho
        d1 = c.sigma_sq * q1 * (1.0 - rho2 * (1.0 - q2)) / one
        d2 = c.sigma_sq * q2 * (1.0 - rho2 * (1.0 - q1)) / one
    return inside, d1, d2


_SIGN = np.int64(-2 ** 63)


def _step(x, ulps):
    """x moved by ulps units in the last place, as |ulps| calls of
    np.nextafter toward copysign(inf, ulps) move it, for finite x at least
    |ulps| ulps inside the finite range.  A double's bits read as an int64
    count its ulps from zero on either side, so the move is one integer add
    on a scale where -0.0 and +0.0 are one point, and it crosses zero as
    nextafter does."""
    if not ulps:
        return x
    x = np.float64(x) if np.ndim(x) == 0 else np.asarray(x, dtype=float)
    bits = x.view(np.int64)
    neg = bits >> 63  # -1 below zero, else 0
    k = ((bits & ~_SIGN) ^ neg) - neg + ulps  # signed ulps from zero, moved
    neg = k >> 63
    return (((k ^ neg) - neg) | (neg & _SIGN)).view(np.float64)


class _MovedLog2:
    """numpy, but with log2 moved by ulps units in the last place."""

    def __init__(self, ulps):
        self.ulps = ulps

    def __getattr__(self, name):
        return getattr(np, name)

    def log2(self, x):
        return _step(np.log2(x), self.ulps)


# numpy's log2 as it is, and moved by 1 and 64 ulps either way, under both
# the scalar region test and distortion_grid: they take the region limits
# from one log2, so no such move can part them
log2_offsets = pytest.mark.parametrize("ulps", [0, 1, -1, 64, -64])


@pytest.fixture
def log2_off(monkeypatch, ulps):
    monkeypatch.setattr(vq_analytic, "np", _MovedLog2(ulps))


def _libm_edges(c, rt):
    """The region limits of rate_region_limits, but each taken with libm's
    log2, plus the closure."""
    return [0.5 * math.log2(a) + 1e-12
            for a in vq_analytic._limit_args(c, rt, 1.0 - rt * rt)]


def _edges(c, rt):
    return [b + 1e-12 for b in rate_region_limits(c, rt)]


def _addend(r1, total):
    """r2 with r1 + r2 == total in floating point."""
    r2 = total - r1
    while r1 + r2 < total:
        r2 = math.nextafter(r2, math.inf)
    while r1 + r2 > total:
        r2 = math.nextafter(r2, -math.inf)
    assert r1 + r2 == total
    return r2


def _sum_edge_row(c):
    """A first rate r1 and three second rates whose sum with r1 is one ulp
    below, on, and one ulp above the sum-rate edge at their own
    rho_tilde."""
    e1, e2, esum = _edges(c, rho_tilde(c.rho, 0.3, 0.3))
    r1 = 0.5 * ((esum - e2) + e1)
    r2s = []
    for off in (-1, 0, 1):
        r2 = 0.3
        for _ in range(40):
            edge = _edges(c, rho_tilde(c.rho, r1, r2))[2]
            new = _addend(r1, float(_step(edge, off)))
            if new == r2:
                break
            r2 = new
        else:
            raise AssertionError("no rate pair on the sum edge")
        r2s.append(r2)
    return r1, r2s


EDGE_INSTANCES = (CanonicalInstance(1.0, 0.0, 0.7, 4.0, 0.3),
                  CanonicalInstance(2.0, 0.6, 1.5, 0.4, 1.0),
                  symmetric_instance(1.0, 0.3, 8.0, 1.0))


@log2_offsets
def test_grid_cells_on_the_libm_limit_match_reference(log2_off):
    for c in EDGE_INSTANCES:
        # at zero second rate rho_tilde is 0 and the first-rate limit binds
        e1 = _edges(c, 0.0)[0]
        e2 = _edges(c, 0.0)[1]
        col = [float(_step(e1, k)) for k in (-1, 0, 1)]
        row = [float(_step(e2, k)) for k in (-1, 0, 1)]
        r1, sums = _sum_edge_row(c)
        # and cells around libm's limits, where the last bit of the two log2s
        # may differ, in the trailing rows and columns
        l1, l2, _ = _libm_edges(c, 0.0)
        axis1 = np.array([0.0, *col, r1, *(float(_step(l1, k)) for k in (-1, 0, 1))])
        axis2 = np.array([0.0, *row, *sums, *(float(_step(l2, k)) for k in (-1, 0, 1))])
        inside, d1, d2 = distortion_grid(c, axis1, axis2)
        ref = reference_grid(c, axis1, axis2)
        # the cells sit where intended: inside up to the edge, outside past it
        assert ref[0][1:4, 0].tolist() == [True, True, False]
        assert ref[0][0, 1:4].tolist() == [True, True, False]
        assert ref[0][4, 4:7].tolist() == [True, True, False]
        assert inside.tolist() == ref[0].tolist()
        assert d1.tobytes() == ref[1].tobytes()
        assert d2.tobytes() == ref[2].tobytes()


@log2_offsets
def test_grids_match_reference_under_moved_log2(log2_off):
    rng = np.random.default_rng(16)
    for k in range(24):
        rho = (0.0, 0.999999, float(rng.uniform(0.0, 0.999)))[k % 3]
        p1 = float(10 ** rng.uniform(-3, 4))
        p2 = p1 if k % 2 else float(p1 * 10 ** rng.uniform(-1, 1))
        c = CanonicalInstance(1.0, rho, p1, p2, float(10 ** rng.uniform(-1, 1)))
        # zoom onto the corner where the single-rate and sum-rate limits meet
        r1 = r2 = 0.5
        for _ in range(40):
            b1, _, bsum = rate_region_limits(c, rho_tilde(c.rho, r1, r2))
            r1, r2 = b1, max(bsum - b1, 0.0)
        span = float(10 ** rng.uniform(-9, -1))
        axis1 = np.linspace(max(0.0, r1 - span), r1 + span, 13)
        axis2 = np.linspace(max(0.0, r2 - span), r2 + span, 13)
        for a1, a2 in ((axis1, axis2), (np.geomspace(1e-3, 8.0, 40), axis2)):
            got = distortion_grid(c, a1, a2)
            ref = reference_grid(c, a1, a2)
            assert got[0].tolist() == ref[0].tolist()
            assert got[1].tobytes() == ref[1].tobytes()
            assert got[2].tobytes() == ref[2].tobytes()


def test_symmetric_solve_with_overflowing_quotient_is_the_fixed_point():
    # 1 - rho^2 so small and p so large that the ceiling's quotient
    # overflows; the fixed point to 60 digits at the same double inputs
    rho, p = 0.999999999999, 1e300
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        rho_m = mpmath.mpf(rho)

        def g(r):
            rt = rho_m * (1 - mpmath.power(2, -2 * r))
            return mpmath.log((2 * mpmath.mpf(p) * (1 + rt) + 1) / (1 - rt * rt), 2) / 4 - r

        exact = float(mpmath.findroot(g, 259.36))
    r, _ = solve_symmetric_rate(1.0, rho, p, 1.0)
    assert r == pytest.approx(exact, abs=1e-9)


@pytest.mark.parametrize("rho", [0.0, 0.5, 1.0 - 1e-12])
@pytest.mark.parametrize("p", [1e308, 1.7e308])
def test_symmetric_solve_with_overflowing_numerator_is_the_fixed_point(rho, p):
    # 2p(1 + rho_tilde) + noise_var itself overflows; the solve once gave up
    assert 2.0 * p * (1.0 + rho) + 1.0 == math.inf
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        rho_m, p_m = mpmath.mpf(rho), mpmath.mpf(p)

        def g(r):
            rt = rho_m * (1 - mpmath.power(2, -2 * r))
            return mpmath.log((2 * p_m * (1 + rt) + 1) / (1 - rt * rt), 2) / 4 - r

        exact = mpmath.findroot(g, (200, 300), solver="anderson")
        q = mpmath.power(2, -2 * exact)
        rt = rho_m * (1 - q)
        exact_d = float(q * (1 - rho_m * rt) / (1 - rt * rt))
    r, d = solve_symmetric_rate(1.0, rho, p, 1.0)
    assert r == pytest.approx(float(exact), abs=1e-9)
    assert d == pytest.approx(exact_d, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.99, 1.0 - 1e-6, 1.0 - 1e-12, 1.0])
def test_symmetric_solve_is_the_60_digit_root_over_the_power_range(rho, symmetric_root):
    for p in np.geomspace(1e-300, 1.7e308, 41).tolist():
        symmetric_root(1.0, rho, p, 1.0, *solve_symmetric_rate(1.0, rho, p, 1.0))


def test_symmetric_solve_is_the_60_digit_root_on_seeded_instances(symmetric_root):
    # rho at 0, uniform, within 10^-15..10^-1 of 1 and at 1; powers up to
    # 1e307 and noise down to 1e-2, so that p / noise_var overflows
    rng = np.random.default_rng(31)
    cases = [(1e3, 1.0, 1e307, 1e-2), (1e-3, 0.5, 1e307, 1e-2), (1.0, 0.5, 1e-300, 1e2)]
    for k in range(160):
        rho = (0.0, float(rng.uniform()), 1.0 - 10.0 ** -float(rng.uniform(1, 15)),
               1.0)[k % 4]
        cases.append((float(10 ** rng.uniform(-3, 3)), rho,
                      float(10 ** rng.uniform(-300, 307)), float(10 ** rng.uniform(-2, 2))))
    for case in cases:
        symmetric_root(*case, *solve_symmetric_rate(*case))


@pytest.mark.parametrize("sigma_sq, rho, grid", [
    (1.0, 0.5, np.geomspace(0.1, 100.0, 50)),  # sweep-snr
    (2.0, 0.5, np.geomspace(0.1, 100.0, 50)),  # sweep-snr-neg, at |rho|
    (1.0, 0.9, np.linspace(0.5, 20.0, 40)),  # sweep-snr-lin-convexify
    (1.0, 0.5, np.linspace(0.5, 20.0, 40)),
])
def test_symmetric_solves_are_the_root_on_golden_grids(sigma_sq, rho, grid, symmetric_root):
    for p in grid.tolist():
        symmetric_root(sigma_sq, rho, p, 1.0, *solve_symmetric_rate(sigma_sq, rho, p, 1.0))


# 1 - rho^2 so small and p so large that the rate ceiling's quotient
# (2p (1 + rho) + 1) / (1 - rho^2) overflows
@pytest.mark.parametrize("rho, p", [(0.999999999999, 1e300), (1.0 - 1e-15, 1e295),
                                    (0.9999999, 1e306)])
def test_symmetric_solve_with_overflowing_quotient_is_the_root(rho, p, symmetric_root):
    assert (2.0 * p * (1.0 + rho) + 1.0) / (1.0 - rho * rho) == math.inf
    symmetric_root(1.0, rho, p, 1.0, *solve_symmetric_rate(1.0, rho, p, 1.0))


@pytest.mark.parametrize("p", [1e9, 1e10, 1e300, 1.7e308])
def test_symmetric_solve_answers_at_full_correlation(p, symmetric_root):
    # rho_tilde once rounded to 1 while the bisection sought its bracket,
    # from p of about 1e10 up
    r, d = solve_symmetric_rate(1.0, 1.0, p, 1.0)
    assert 0.0 < d < 1.0 and math.isfinite(r)
    symmetric_root(1.0, 1.0, p, 1.0, r, d)


def test_symmetric_solve_refuses_an_underflowing_share():
    # at rho = 1 the root q is about noise_var / 2p, which is 0 in doubles here
    with pytest.raises(ValueError, match="2\\^-2r underflows"):
        solve_symmetric_rate(1.0, 1.0, 1e300, 1e-100)


def test_step_equals_repeated_nextafter():
    # normal values, subnormals, zeros and steps across zero either way
    tiny = 5e-324
    xs = np.array([1.0, -1.0, 0.7, -3.5e200, 1e300, 2.0 ** -1022, -2.0 ** -1022,
                   1e-310, -1e-310, tiny, -tiny, 0.0, -0.0, 64 * tiny, 3 * tiny])
    for ulps in (-64, -3, -1, 0, 1, 3, 64):
        want = xs.copy()
        for _ in range(abs(ulps)):
            want = np.nextafter(want, math.copysign(math.inf, ulps))
        assert np.array_equal(_step(xs, ulps), want)
        for x, w in zip(xs.tolist(), want.tolist()):
            assert _step(x, ulps) == w
    assert _step(tiny, -64) == -63 * tiny
    assert _step(-tiny, 64) == 63 * tiny


@log2_offsets
def test_batched_grid_equals_stacked_grids(log2_off):
    # each leading index of a batch is the grid of its own axes; the cells on
    # the limits sit in the last rows
    rng = np.random.default_rng(18)
    for c in EDGE_INSTANCES:
        e1, e2, _ = _edges(c, 0.0)
        r1, sums = _sum_edge_row(c)
        edge1 = [0.0, *(float(_step(e1, k)) for k in (-1, 0, 1)), r1]
        edge2 = [0.0, *(float(_step(e2, k)) for k in (-1, 0, 1)), *sums]
        rand1 = np.sort(rng.uniform(0.0, 2.0 * e1, (5, 5)), axis=1)
        rand2 = np.sort(rng.uniform(0.0, 2.0 * e2, (5, 7)), axis=1)
        a1 = np.vstack((rand1, [edge1])).reshape(2, 3, 5)
        a2 = np.vstack((rand2, [edge2])).reshape(2, 3, 7)
        got = distortion_grid(c, a1, a2)
        assert all(g.shape == (2, 3, 5, 7) for g in got)
        ref = reference_grid(c, edge1, edge2)
        assert got[0][1, 2].tolist() == ref[0].tolist()
        for i in range(2):
            for j in range(3):
                one = distortion_grid(c, a1[i, j], a2[i, j])
                for g, o in zip(got, one):
                    assert g[i, j].tobytes() == o.tobytes()


def test_rate_between_numpy_and_libm_limits_follows_numpy():
    # where numpy's log2 and libm's differ in the last bit, a first rate
    # between the two edges is decided by numpy's, alike by the scalar test
    # and the grid
    rng = np.random.default_rng(28)
    found = []
    for _ in range(200_000):
        c = CanonicalInstance(1.0, 0.5, float(10 ** rng.uniform(-3, 6)), 1e7, 1.0)
        a = (c.p1 * 1.0 + 1.0) / (1.0 * 1.0)  # the first-rate limit's argument at rt = 0
        numpy_edge = 0.5 * float(np.log2(a)) + 1e-12
        libm_edge = 0.5 * math.log2(a) + 1e-12
        if numpy_edge != libm_edge:
            found.append((c, numpy_edge, max(numpy_edge, libm_edge)))
            if len(found) == 8:
                break
    if not found:
        pytest.skip("numpy's log2 equals libm's on every sampled argument")
    for c, numpy_edge, r1 in found:
        inside = r1 == numpy_edge
        assert rate_region_limits(c, 0.0)[0] + 1e-12 == numpy_edge
        assert in_rate_region(c, make_rate_pair(c, r1, 0.0)) is inside
        assert distortion_grid(c, [r1], [0.0])[0].tolist() == [[inside]]


@pytest.mark.parametrize("fn", [symmetric_outer_bound, solve_symmetric_rate])
@pytest.mark.parametrize("args", [
    (0.0, 0.5, 1.0, 1.0),
    (math.nan, 0.5, 1.0, 1.0),
    (1.0, 1.5, 1.0, 1.0),
    (1.0, -0.1, 1.0, 1.0),
    (1.0, 0.5, -1.0, 1.0),
    (1.0, 0.5, 1.0, 0.0),
    (1.0, 0.5, 1.0, math.nan),
], ids=["zero-var", "nan-var", "rho-above-1", "negative-rho", "negative-power",
        "zero-noise", "nan-noise"])
def test_symmetric_solvers_refuse_arguments_outside_the_domain(fn, args):
    with pytest.raises(ValueError):
        fn(*args)
