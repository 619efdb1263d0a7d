import math

import numpy as np
import pytest

from gmacdist.model import CanonicalInstance, DistortionPair, symmetric_instance
from gmacdist.rd_bounds import (
    ConvergenceError,
    RdCaseTag,
    capacity_term,
    check_necessary_condition,
    classify_case,
    rd_rate,
    symmetric_outer_bound,
    waterfill_oracle_rate,
)
from gmacdist.rd_bounds import (
    _LOGC_HI,
    _LOGC_LO,
    _component_rate,
    _component_rates,
    waterfill_oracle_rates,
)

INST = symmetric_instance(1.0, 0.5, 2.0, 3.0)


def test_classify_both_small():
    case = classify_case(INST, DistortionPair(0.3, 0.3))
    assert case.tag is RdCaseTag.BOTH_SMALL
    assert case.canonical_pair == (0.3, 0.3)
    # an already ordered pair keeps its order
    assert classify_case(INST, DistortionPair(0.25, 0.3)).canonical_pair == (0.25, 0.3)


def test_classify_one_inactive_orders_pair():
    case = classify_case(INST, DistortionPair(0.9, 0.1))
    assert case.tag is RdCaseTag.ONE_INACTIVE
    assert case.canonical_pair == (0.1, 0.9)


def test_classify_zero_correlation_is_always_both_small():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    for d1, d2 in [(0.1, 0.9), (0.5, 0.5), (0.99, 0.2)]:
        assert classify_case(c, DistortionPair(d1, d2)).tag is RdCaseTag.BOTH_SMALL


def test_classify_rejects_nonpositive():
    with pytest.raises(ValueError):
        classify_case(INST, DistortionPair(0.0, 0.5))


def test_rate_desk_values():
    assert rd_rate(INST, DistortionPair(0.3, 0.3)) == pytest.approx(
        0.5 * math.log2(0.75 / 0.09), rel=1e-12)
    got = rd_rate(INST, DistortionPair(0.3, 0.7))
    assert got == pytest.approx(0.9242608308605248, rel=1e-12)
    gap = 0.5 - math.sqrt(0.7 * 0.3)
    assert got == pytest.approx(0.5 * math.log2(0.75 / (0.21 - gap * gap)), rel=1e-12)
    assert rd_rate(INST, DistortionPair(0.9, 0.1)) == pytest.approx(
        0.5 * math.log2(10.0), rel=1e-12)
    assert rd_rate(INST, DistortionPair(1.0, 1.0)) == 0.0


def test_rate_clamps_above_variance():
    assert rd_rate(INST, DistortionPair(5.0, 5.0)) == 0.0
    assert rd_rate(INST, DistortionPair(0.25, 3.0)) == rd_rate(
        INST, DistortionPair(0.25, 1.0))


def test_rate_is_symmetric_nonnegative_and_monotone():
    rng = np.random.default_rng(3)
    for _ in range(200):
        d1, d2 = rng.uniform(0.02, 1.0, size=2)
        r = rd_rate(INST, DistortionPair(d1, d2))
        assert r == rd_rate(INST, DistortionPair(d2, d1))
        assert r >= 0.0
        assert rd_rate(INST, DistortionPair(d1 * 1.05, d2)) <= r + 1e-12
        assert rd_rate(INST, DistortionPair(d1, d2 * 1.05)) <= r + 1e-12


def test_rate_continuous_across_case_boundaries():
    s2, rho, a = 1.0, 0.6, 0.3
    c = symmetric_instance(s2, rho, 1.0, 1.0)
    b_low = (s2 * (1.0 - rho * rho) - a) * s2 / (s2 - a)
    b_high = s2 * (1.0 - rho * rho) + rho * rho * a
    for b in (b_low, b_high):
        below = rd_rate(c, DistortionPair(a, b * (1.0 - 1e-9)))
        above = rd_rate(c, DistortionPair(a, b * (1.0 + 1e-9)))
        assert below == pytest.approx(above, abs=1e-7)
        tags = {classify_case(c, DistortionPair(a, b * (1.0 - 1e-9))).tag,
                classify_case(c, DistortionPair(a, b * (1.0 + 1e-9))).tag}
        assert len(tags) == 2  # the probe really straddles the boundary


def test_zero_correlation_rate_splits():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    rng = np.random.default_rng(4)
    for _ in range(50):
        d1, d2 = rng.uniform(0.05, 1.0, size=2)
        split = 0.5 * math.log2(1.0 / d1) + 0.5 * math.log2(1.0 / d2)
        assert rd_rate(c, DistortionPair(d1, d2)) == pytest.approx(split, abs=1e-12)


def test_capacity_term_desk_values():
    assert capacity_term(symmetric_instance(1.0, 0.0, 1.0, 1.0)) == pytest.approx(
        0.5 * math.log2(3.0), rel=1e-15)
    assert capacity_term(symmetric_instance(1.0, 1.0, 1.0, 1.0)) == pytest.approx(
        0.5 * math.log2(5.0), rel=1e-15)
    assert capacity_term(CanonicalInstance(1.0, 0.0, 0.0, 0.0, 1.0)) == 0.0


def test_necessary_condition_desk_cases():
    res = check_necessary_condition(INST, DistortionPair(0.4, 0.4))
    assert not res.achievable_possible
    res = check_necessary_condition(INST, DistortionPair(1.0, 1.0))
    assert res.achievable_possible
    assert res.rd_rate == 0.0
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    res = check_necessary_condition(c, DistortionPair(0.25, 0.25))
    assert res.rd_rate == pytest.approx(2.0, rel=1e-12)
    assert not res.achievable_possible


def test_symmetric_outer_bound_branches():
    assert symmetric_outer_bound(1.0, 0.5, 2.0, 3.0) == pytest.approx(0.5, rel=1e-12)
    # the threshold power ratio is where the two branch formulas coincide
    lin = (2.0 * 0.75 + 3.0) / (2.0 * 2.0 * 1.5 + 3.0)
    sq = math.sqrt(0.75 * 3.0 / 9.0)
    assert lin == pytest.approx(sq, rel=1e-12)
    assert symmetric_outer_bound(1.0, 0.0, 4.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert symmetric_outer_bound(2.0, 0.7, 0.0, 1.0) == pytest.approx(2.0, rel=1e-12)
    # rho = 1 stays on the first branch at every power
    assert symmetric_outer_bound(1.0, 1.0, 100.0, 1.0) == pytest.approx(1.0 / 401.0, rel=1e-12)


def test_oracle_matches_closed_form_spot_checks():
    cases = [(0.0, 0.25, 0.25), (0.5, 0.3, 0.3), (0.5, 0.3, 0.7),
             (0.5, 0.9, 0.1), (0.8, 0.15, 0.55), (0.95, 0.4, 0.8)]
    for rho, d1, d2 in cases:
        c = symmetric_instance(1.0, rho, 1.0, 1.0)
        d = DistortionPair(d1, d2)
        assert waterfill_oracle_rate(c, d) == pytest.approx(rd_rate(c, d), abs=1e-6)


def test_oracle_desk_values():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    assert waterfill_oracle_rate(c, DistortionPair(0.25, 0.25)) == pytest.approx(2.0, abs=1e-9)
    assert waterfill_oracle_rate(c, DistortionPair(1.0, 1.0)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        waterfill_oracle_rate(c, DistortionPair(0.0, 0.5))


def test_batched_oracle_matches_single_targets_bitwise():
    # criterion 1's grid: each target of a batch gets exactly the rate that
    # a batch of that target alone gets
    grid = np.linspace(0.05, 1.0, 20)
    d1, d2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    for rho in (0.0, 0.3, 0.5, 0.8, 0.95):
        c = symmetric_instance(1.0, rho, 1.0, 1.0)
        batch = waterfill_oracle_rates(c, d1, d2)
        single = [waterfill_oracle_rate(c, DistortionPair(a, b))
                  for a, b in zip(d1.tolist(), d2.tolist())]
        assert batch.tolist() == single


def test_batched_oracle_validation_and_convergence():
    c = symmetric_instance(1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        waterfill_oracle_rates(c, [0.5, 0.0], [0.5, 0.5])
    with pytest.raises(ConvergenceError):
        waterfill_oracle_rates(c, [0.3, 0.5], [0.4, 0.5], max_iter=5)
    assert waterfill_oracle_rates(c, [], []).shape == (0,)


def _bits(x):
    return np.asarray(x, dtype=float).view(np.uint64).tolist()


@pytest.mark.parametrize("sigma_sq", [5e-324, 1e-300, 1e-6, 1.0, 3.7e5, 1e300])
@pytest.mark.parametrize("rho", [0.0, 1.0, -1.0, 0.5, 0.999999])
def test_scalar_component_rate_matches_array_form_bitwise(sigma_sq, rho):
    # the scan grid, its ends e^-8 and e^8 included, plus random probes
    rng = np.random.default_rng(11)
    logc = np.concatenate((np.linspace(_LOGC_LO, _LOGC_HI, 257),
                           rng.uniform(_LOGC_LO, _LOGC_HI, 64)))
    cs = np.exp(logc)
    shares = [1e-300 / sigma_sq, 1e-12, 1e-3, 0.3, 0.999, 1.0, 2.0]
    shares += rng.uniform(1e-4, 1.0, 4).tolist()
    targets = [s * sigma_sq for s in shares]
    for d1 in targets:
        for d2 in targets:
            # the oracle clamps targets to sigma_sq; the rate itself must
            # agree above it too
            with np.errstate(all="ignore"):
                want = _component_rates(sigma_sq, rho, d1, d2, cs)
            got = [_component_rate(sigma_sq, rho, d1, d2, c) for c in cs.tolist()]
            assert _bits(got) == _bits(want), (d1, d2)


def test_single_target_oracle_convergence_error():
    c = symmetric_instance(1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ConvergenceError):
        waterfill_oracle_rate(c, DistortionPair(0.3, 0.4), max_iter=5)
    assert waterfill_oracle_rate(c, DistortionPair(0.3, 0.4)) == pytest.approx(
        rd_rate(c, DistortionPair(0.3, 0.4)), abs=1e-6)


@pytest.mark.parametrize("sigma_sq, rho, d1, d2, want", [
    (1.0, 0.5, 0.05, 0.85, "0x1.149a784bcd201p+1"),
    (1.0, 0.5, 0.25, 0.85, "0x1.0000000000016p+0"),
    (390.77805486046134, 0.7247813610920201, 153.34548779471993,
     297.1184608774471, "0x1.597d024c1d28dp-1"),
    (0.5136558573480657, 0.6650389233995303, 0.001237379644176913,
     0.3044939202692714, "0x1.1650db0f0a36bp+2"),
    (0.0036062948812245594, 0.9935041598056401, 0.0006277152275039285,
     0.0015241917149206034, "0x1.42dbe1b5b73d6p+0"),
])
def test_oracle_values_are_pinned(sigma_sq, rho, d1, d2, want):
    # values of the array-form golden-section refinement; the probe order
    # and the f1 <= f2 rule decide the last bit
    c = CanonicalInstance(sigma_sq, rho, 1.0, 1.0, 1.0)
    assert waterfill_oracle_rate(c, DistortionPair(d1, d2)).hex() == want
