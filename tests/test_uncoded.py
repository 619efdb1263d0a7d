import math
import tracemalloc

import pytest

from gmacdist import (
    CanonicalInstance,
    optimality_threshold,
    simulate_uncoded,
    symmetric_instance,
    symmetric_outer_bound,
    symmetric_uncoded_bound,
    uncoded_distortions,
)
from gmacdist.model import TrialCountError

INST = symmetric_instance(1.0, 0.5, 2.0, 3.0)


def test_desk_values_at_threshold():
    res = uncoded_distortions(INST)
    assert res.d1 == pytest.approx(0.5, rel=1e-12)
    assert res.d2 == pytest.approx(0.5, rel=1e-12)
    assert res.gain1 == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert res.gain2 == res.gain1
    assert res.lmmse1 == pytest.approx(1.5 * math.sqrt(2.0) / 9.0, rel=1e-12)


def test_asymmetric_closed_form():
    c = CanonicalInstance(1.0, 0.3, 1.0, 4.0, 2.0)
    res = uncoded_distortions(c)
    # Var(y) = p1 + p2 + 2 rho sqrt(p1 p2) + noise = 8.2
    assert res.d1 == pytest.approx((4.0 * 0.91 + 2.0) / 8.2, rel=1e-12)
    assert res.d2 == pytest.approx((1.0 * 0.91 + 2.0) / 8.2, rel=1e-12)


def test_zero_correlation_example():
    res = uncoded_distortions(CanonicalInstance(1.0, 0.0, 3.0, 1.0, 1.0))
    assert res.d1 == pytest.approx(0.4, rel=1e-12)
    assert res.d2 == pytest.approx(0.8, rel=1e-12)


def test_perfect_correlation_example():
    res = uncoded_distortions(symmetric_instance(1.0, 1.0, 1.0, 1.0))
    assert res.d1 == pytest.approx(0.2, rel=1e-12)
    assert res.d2 == pytest.approx(0.2, rel=1e-12)


def test_estimator_identity():
    # d_i = sigma_sq - (E[s_i y])^2 / Var(y), with weight lmmse_i = E[s_i y]/Var(y)
    for c in (INST, CanonicalInstance(2.0, 0.7, 1.0, 5.0, 0.5)):
        res = uncoded_distortions(c)
        var_y = c.p1 + c.p2 + 2.0 * c.rho * math.sqrt(c.p1 * c.p2) + c.noise_var
        for d, lm in ((res.d1, res.lmmse1), (res.d2, res.lmmse2)):
            assert d == pytest.approx(c.sigma_sq - lm * lm * var_y, rel=1e-12)
            assert 0.0 < d <= c.sigma_sq


def test_symmetric_bound_desk_values():
    assert symmetric_uncoded_bound(1.0, 0.5, 2.0, 3.0) == pytest.approx(0.5, rel=1e-12)
    assert symmetric_uncoded_bound(1.0, 0.0, 1.0, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert symmetric_uncoded_bound(1.0, 0.3, 0.0, 1.0) == pytest.approx(1.0, rel=1e-12)


def test_threshold_values():
    assert optimality_threshold(0.5) == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert optimality_threshold(0.0) == 0.0
    assert optimality_threshold(0.8) == pytest.approx(0.8 / 0.36, rel=1e-12)
    assert math.isinf(optimality_threshold(1.0))
    with pytest.raises(ValueError):
        optimality_threshold(1.2)


def test_matches_outer_bound_below_threshold():
    for rho in (0.3, 0.5, 0.9):
        thr = optimality_threshold(rho)
        for frac in (0.25, 0.6, 1.0):
            p = frac * thr
            unc = symmetric_uncoded_bound(1.0, rho, p, 1.0)
            assert unc == pytest.approx(symmetric_outer_bound(1.0, rho, p, 1.0), rel=1e-12)


def test_simulation_matches_closed_form():
    sim = simulate_uncoded(INST, 200_000, seed=11)
    assert sim.d1 == pytest.approx(0.5, rel=0.01)
    assert sim.d2 == pytest.approx(0.5, rel=0.01)
    assert sim.power1 == pytest.approx(2.0, rel=0.01)
    assert sim.power2 == pytest.approx(2.0, rel=0.01)
    assert sim.trials == 200_000


def test_simulation_thread_invariance():
    # 150k trials spans multiple chunks plus a partial tail
    a = simulate_uncoded(INST, 150_000, seed=3, threads=1)
    b = simulate_uncoded(INST, 150_000, seed=3, threads=4)
    assert (a.d1, a.d2, a.power1, a.power2) == (b.d1, b.d2, b.power1, b.power2)


def test_simulation_near_noiseless_coherent():
    c = symmetric_instance(1.0, 1.0, 1.0, 1e-9)
    sim = simulate_uncoded(c, 20_000, seed=5)
    assert sim.d1 < 1e-6


def test_simulation_zero_noise_limit_independent_sources():
    # the residual then comes entirely from the other sender's signal
    c = CanonicalInstance(1.0, 0.0, 3.0, 1.0, 1e-12)
    sim = simulate_uncoded(c, 100_000, seed=8)
    assert sim.d1 == pytest.approx(1.0 / 4.0, rel=0.02)
    assert sim.d2 == pytest.approx(3.0 / 4.0, rel=0.02)


def test_simulation_rejects_zero_trials():
    with pytest.raises(ValueError):
        simulate_uncoded(INST, 0, seed=1)


def test_simulation_trial_cap_refuses_before_allocating():
    # 2^37 trials fill 2^21 chunks of 32 bytes, the 64 MiB cap
    tracemalloc.start()
    try:
        with pytest.raises(TrialCountError, match="cap is 64 MiB"):
            simulate_uncoded(INST, (1 << 37) + 1, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
