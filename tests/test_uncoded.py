import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest

from gmacdist.model import (
    CanonicalInstance,
    ProblemInstance,
    canonicalize,
    derive_seed,
    symmetric_instance,
)
from gmacdist.rd_bounds import symmetric_outer_bound
from gmacdist.uncoded import (
    UncodedSimResult,
    optimality_threshold,
    simulate_uncoded,
    symmetric_uncoded_bound,
    uncoded_distortions,
)

# the README instance
INST = symmetric_instance(1.0, 0.5, 2.0, 3.0)
# negative correlation, unequal variances and powers
ASYM = canonicalize(ProblemInstance(2.0, 0.5, -0.7, 1.5, 4.0, 0.8))
CHUNK = 1 << 16
# smallest positive normal double
_TINY = sys.float_info.min


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
        with pytest.raises(ValueError, match="cap is 64 MiB"):
            simulate_uncoded(INST, (1 << 37) + 1, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def _simulate_reference(c, trials, seed):
    """The allocating chunk formula: a (2, n) draw then an n draw per chunk,
    fresh arrays for every intermediate, chunk sums reduced in order."""
    res = uncoded_distortions(c)
    chunks = -(-trials // CHUNK)
    sums = np.zeros((chunks, 4))
    for k in range(chunks):
        size = min(CHUNK, trials - k * CHUNK)
        rng = np.random.default_rng(derive_seed(seed, k))
        g = rng.standard_normal((2, size))
        zg = rng.standard_normal(size)
        sd = math.sqrt(c.sigma_sq)
        s1 = sd * g[0]
        s2 = sd * (c.rho * g[0] + math.sqrt(1.0 - c.rho * c.rho) * g[1])
        z = math.sqrt(c.noise_var) * zg
        x1 = res.gain1 * s1
        x2 = res.gain2 * s2
        y = x1 + x2 + z
        e1 = s1 - res.lmmse1 * y
        e2 = s2 - res.lmmse2 * y
        sums[k] = (e1 @ e1, e2 @ e2, x1 @ x1, x2 @ x2)
    total = sums.sum(axis=0)
    return UncodedSimResult(d1=total[0] / trials, d2=total[1] / trials,
                            power1=total[2] / trials, power2=total[3] / trials,
                            trials=trials, seed=seed)


@pytest.mark.parametrize("c", [INST, ASYM], ids=["readme", "asym"])
@pytest.mark.parametrize("trials", [1, 5, CHUNK, CHUNK + 1, 3 * CHUNK + 17, 200_000])
def test_scratch_simulation_equals_allocating_reference(c, trials):
    want = _simulate_reference(c, trials, 31)
    for threads in (1, 2, 4):
        assert simulate_uncoded(c, trials, 31, threads=threads) == want


def _traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_scratch_is_one_block_per_worker_sized_by_trials():
    # six rows of one chunk are 3 MiB; a fresh array per intermediate
    # peaked at 4.5 MiB
    assert _traced_peak(lambda: simulate_uncoded(INST, 4 * CHUNK, seed=2)) < 3.5 * 2**20
    assert _traced_peak(lambda: simulate_uncoded(INST, 5, seed=2)) < 64 << 10


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="minor page faults are read from Linux getrusage")
def test_warm_call_reuses_its_pages():
    import resource

    # a fresh array per intermediate faulted about 20,000 pages in here
    simulate_uncoded(INST, 1 << 20, seed=3)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    simulate_uncoded(INST, 1 << 20, seed=3)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 4096


def test_overflowing_sums_are_refused():
    c = symmetric_instance(1.0, 0.5, 1e308, 1.0)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="overflow"):
            simulate_uncoded(c, 10, seed=1)
        with pytest.raises(ValueError, match="overflow"):
            simulate_uncoded(c, CHUNK + 1, seed=1, threads=2)


def _mp_uncoded(c):
    """uncoded_distortions' d1, d2, lmmse1 and lmmse2 at 60 digits."""
    with mpmath.workdps(60):
        s2, rho, p1, p2, noise = (mpmath.mpf(v) for v in
                                  (c.sigma_sq, c.rho, c.p1, c.p2, c.noise_var))
        var_y = p1 + p2 + 2 * rho * mpmath.sqrt(p1 * p2) + noise
        sd = mpmath.sqrt(s2)
        return tuple(float(v) for v in (
            s2 * (p2 * (1 - rho * rho) + noise) / var_y,
            s2 * (p1 * (1 - rho * rho) + noise) / var_y,
            sd * (mpmath.sqrt(p1) + rho * mpmath.sqrt(p2)) / var_y,
            sd * (mpmath.sqrt(p2) + rho * mpmath.sqrt(p1)) / var_y))


@pytest.mark.parametrize("c", [
    symmetric_instance(1e300, 0.5, 1e300, 1.0),     # sigma_sq * p overflows
    symmetric_instance(1.0, 0.5, 1e308, 1.0),       # var_y overflows
    CanonicalInstance(1e300, 0.9, 1e308, 1e200, 1e-300),
    CanonicalInstance(1e-300, 0.3, 1e-300, 2e-300, 1e-300),  # products underflow
    CanonicalInstance(1e-200, 0.0, 1e-150, 1e-160, 1e-170),
    CanonicalInstance(3.0, 0.999, 1e-320, 1e-310, 1e-305),   # subnormal powers
    CanonicalInstance(1e300, 0.2, 1e-300, 1e-300, 1e300),
    CanonicalInstance(1e300, 0.5, 1e300, 1e-300, 1e-300),   # only d1 is scaled
])
def test_distortions_at_extreme_scales_match_mpmath(c):
    res = uncoded_distortions(c)
    want = _mp_uncoded(c)
    got = (res.d1, res.d2, res.lmmse1, res.lmmse2)
    assert all(_TINY <= v < math.inf for v in got)
    assert got == pytest.approx(want, rel=1e-13)
    if c.p1 == c.p2:
        sym = symmetric_uncoded_bound(c.sigma_sq, c.rho, c.p1, c.noise_var)
        assert sym == pytest.approx(want[0], rel=1e-13)


@pytest.mark.parametrize("c", [INST, ASYM, CanonicalInstance(1.0, 0.3, 1.0, 4.0, 2.0),
                               symmetric_instance(1e100, 0.9, 1e120, 1e-100)])
def test_distortions_in_range_keep_the_direct_expressions(c):
    cross = 2.0 * c.rho * c.sqrt_p1p2
    var_y = c.p1 + c.p2 + cross + c.noise_var
    sd = math.sqrt(c.sigma_sq)
    res = uncoded_distortions(c)
    assert res.d1 == c.sigma_sq * (c.p2 * (1.0 - c.rho * c.rho) + c.noise_var) / var_y
    assert res.d2 == c.sigma_sq * (c.p1 * (1.0 - c.rho * c.rho) + c.noise_var) / var_y
    assert res.lmmse1 == sd * (math.sqrt(c.p1) + c.rho * math.sqrt(c.p2)) / var_y
    assert res.lmmse2 == sd * (math.sqrt(c.p2) + c.rho * math.sqrt(c.p1)) / var_y
    if c.p1 == c.p2:
        p, n = c.p1, c.noise_var
        assert symmetric_uncoded_bound(c.sigma_sq, c.rho, p, n) == (
            c.sigma_sq * (p * (1.0 - c.rho * c.rho) + n) / (2.0 * p * (1.0 + c.rho) + n))
