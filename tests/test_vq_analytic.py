import math

import numpy as np
import pytest

from gmacdist import (
    CanonicalInstance,
    high_snr_asymptote,
    in_rate_region,
    make_rate_pair,
    rate_region_limits,
    rho_tilde,
    solve_symmetric_rate,
    symmetric_instance,
    symmetric_outer_bound,
    vq_bound,
    vq_distortions,
)
from gmacdist.vq_analytic import distortion_grid


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
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    res = vq_bound(c, 0.3, 0.3)
    assert res.in_region
    assert res.d1 == pytest.approx(2.0 ** -0.6, rel=1e-12)
    assert not vq_bound(c, 0.45, 0.45).in_region


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
