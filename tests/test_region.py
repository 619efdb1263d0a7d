import math
import tracemalloc

import numpy as np
import pytest

import gmacdist.region as region
from gmacdist.model import CanonicalInstance, DistortionPair, symmetric_instance
from gmacdist.rd_bounds import capacity_term, symmetric_outer_bound
from gmacdist.region import (
    MAX_SWEEP_POINTS,
    SweepRow,
    Verdict,
    best_vq_for_targets,
    check_sweep_points,
    convexify,
    snr_sweep,
    trace_region_boundary,
    verdict,
)
from gmacdist.vq_analytic import (
    distortion_grid,
    in_rate_region,
    make_rate_pair,
    rate_region_limits,
    vq_distortions,
)

INST = symmetric_instance(1.0, 0.5, 2.0, 3.0)


def test_verdict_desk_cases():
    rec = verdict(INST, DistortionPair(0.5, 0.5))
    assert rec.verdict == "UNCODED_ACHIEVES"
    assert rec.uncoded_d1 == pytest.approx(0.5, rel=1e-12)
    # this power ratio sits exactly on the uncoded-optimality threshold
    assert rec.outer.rd_rate == pytest.approx(rec.outer.capacity_term, abs=1e-9)

    assert verdict(INST, DistortionPair(0.4, 0.4)).verdict == "UNACHIEVABLE"
    assert verdict(INST, DistortionPair(1.0, 1.0)).verdict == "UNCODED_ACHIEVES"


def test_verdict_vq_case():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    rec = verdict(c, DistortionPair(0.6, 0.6))
    assert rec.verdict == "VQ_ACHIEVES"
    assert rec.uncoded_d1 > 0.6
    assert rec.vq_d1 <= 0.6 * (1.0 + 1e-9)
    assert rec.vq_d2 <= 0.6 * (1.0 + 1e-9)


def test_verdict_gap_case():
    c = symmetric_instance(1.0, 0.5, 10.0, 1.0)
    target = symmetric_outer_bound(1.0, 0.5, 10.0, 1.0) * 1.01
    rec = verdict(c, DistortionPair(target, target))
    assert rec.verdict == "GAP"


def test_verdict_fields_match_label():
    c = symmetric_instance(1.0, 0.6, 4.0, 1.0)
    names = {v.value for v in Verdict}
    for t in (0.05, 0.2, 0.35, 0.6, 1.0):
        rec = verdict(c, DistortionPair(t, t))
        assert rec.verdict in names
        if rec.verdict == "UNACHIEVABLE":
            assert rec.outer.rd_rate > rec.outer.capacity_term - 1e-12
        elif rec.verdict == "UNCODED_ACHIEVES":
            assert rec.uncoded_d1 <= t * (1.0 + 1e-9)
            assert rec.uncoded_d2 <= t * (1.0 + 1e-9)
        elif rec.verdict == "VQ_ACHIEVES":
            assert rec.vq_d1 <= t * (1.0 + 1e-6)
            assert rec.vq_d2 <= t * (1.0 + 1e-6)
        else:
            assert rec.outer.rd_rate <= rec.outer.capacity_term + 1e-12
            assert max(rec.uncoded_d1, rec.uncoded_d2) > t
            assert max(rec.vq_d1, rec.vq_d2) > t


def test_sweep_zero_correlation_inner_meets_outer():
    rows = snr_sweep(1.0, 0.0, np.geomspace(0.1, 100.0, 12))
    assert len(rows) == 12
    for row in rows:
        assert row.vq_d == pytest.approx(row.outer_d, abs=1e-9)
        assert row.outer_d <= min(row.uncoded_d, row.vq_d) + 1e-12
        assert row.threshold_flag is False
        assert row.verdict == "VQ_ACHIEVES"


def test_sweep_threshold_row():
    rows = snr_sweep(1.0, 0.5, [2.0 / 3.0])
    (row,) = rows
    assert row.threshold_flag is True
    assert row.outer_d == pytest.approx(0.5, rel=1e-12)
    assert row.uncoded_d == pytest.approx(0.5, rel=1e-12)
    assert row.verdict == "UNCODED_ACHIEVES"


def test_sweep_rejects_nonpositive_snr():
    with pytest.raises(ValueError):
        snr_sweep(1.0, 0.5, [1.0, 0.0])


def _power_records(pairs):
    return [
        SweepRow(snr=p, rho=0.5, sigma_sq=1.0, outer_d=0.0, uncoded_d=d,
                 vq_d=d, vq_rate=0.1, threshold_flag=False, verdict="GAP")
        for p, d in pairs
    ]


def test_convexify_leaves_convex_data_alone():
    recs = _power_records([(1.0, 1.0), (2.0, 0.5), (3.0, 0.26), (4.0, 0.2)])
    out = convexify(recs)
    for before, after in zip(recs, out):
        assert after.uncoded_d == pytest.approx(before.uncoded_d, rel=1e-12)
        assert after.vq_d == pytest.approx(before.vq_d, rel=1e-12)
        assert after.outer_d == before.outer_d


def test_convexify_replaces_bump_with_chord():
    recs = _power_records([(1.0, 0.8), (2.0, 0.9), (3.0, 0.2)])
    out = convexify(recs)
    assert out[0].uncoded_d == pytest.approx(0.8, rel=1e-12)
    assert out[1].uncoded_d == pytest.approx(0.5, rel=1e-12)
    assert out[2].uncoded_d == pytest.approx(0.2, rel=1e-12)


def test_convexify_matches_bruteforce_envelope():
    rng = np.random.default_rng(12)
    x = rng.uniform(0.5, 8.0, 17)
    y = rng.uniform(0.0, 2.0, 17)
    out = convexify(_power_records(list(zip(x, y))))
    env = np.array([r.vq_d for r in out])

    # oracle: smallest value over every chord between data points spanning x[k]
    expect = y.copy()
    for k in range(17):
        for i in range(17):
            for j in range(17):
                if x[i] <= x[k] <= x[j] and x[i] < x[j]:
                    t = (x[k] - x[i]) / (x[j] - x[i])
                    expect[k] = min(expect[k], (1.0 - t) * y[i] + t * y[j])
    assert np.allclose(env, expect, atol=1e-9)
    assert np.all(env <= y + 1e-12)

    order = np.argsort(x)
    xs, es = x[order], env[order]
    slopes = np.diff(es) / np.diff(xs)
    assert np.all(np.diff(slopes) >= -1e-9)


def test_convexify_empty():
    assert convexify([]) == []


def test_boundary_zero_correlation_product_rule():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    pts = trace_region_boundary(c, resolution=32)
    assert len(pts) == 32
    floor = 2.0 ** (-2.0 * capacity_term(c))
    assert floor == pytest.approx(1.0 / 3.0, rel=1e-12)
    for pt in pts:
        if pt.d1 < floor * (1.0 - 1e-6):
            assert math.isnan(pt.outer_d2)
        else:
            assert pt.outer_d2 == pytest.approx(min(floor / pt.d1, 1.0), abs=1e-9)
    assert pts[-1].d1 == pytest.approx(1.0, rel=1e-12)
    assert pts[-1].outer_d2 == pytest.approx(floor, abs=1e-9)


def test_boundary_ordering_and_scheme_cover():
    c = symmetric_instance(1.0, 0.5, 4.0, 1.0)
    unc_d1 = None
    pts = trace_region_boundary(c, resolution=16)
    prev = math.inf
    for pt in pts:
        if not math.isnan(pt.outer_d2):
            assert pt.outer_d2 <= prev + 1e-12
            prev = pt.outer_d2
        if not math.isnan(pt.uncoded_d2):
            if unc_d1 is None:
                unc_d1 = pt.d1
            assert pt.d1 >= unc_d1 * (1.0 - 1e-9)
        if not (math.isnan(pt.vq_d2) or math.isnan(pt.outer_d2)):
            assert pt.vq_d2 >= pt.outer_d2 - 1e-9
    assert unc_d1 is not None


def test_boundary_resolution_stability():
    c = symmetric_instance(1.0, 0.5, 4.0, 1.0)

    def curve(pts):
        xs = np.array([math.log(p.d1) for p in pts])
        ys = np.array([p.outer_d2 for p in pts])
        keep = np.isfinite(ys)
        return xs[keep], ys[keep]

    x1, y1 = curve(trace_region_boundary(c, resolution=12))
    x2, y2 = curve(trace_region_boundary(c, resolution=24))
    grid = np.linspace(max(x1[0], x2[0]), min(x1[-1], x2[-1]), 40)
    gap = np.abs(np.interp(grid, x1, y1) - np.interp(grid, x2, y2))
    assert float(np.max(gap)) < 0.08


def test_boundary_rejects_tiny_resolution():
    with pytest.raises(ValueError):
        trace_region_boundary(INST, resolution=1)


def _scalar_search(c, objective, grid=64, tol=1e-6, cache=None):
    """Reference rate search: one scalar evaluation per grid point, the
    incumbent replaced on strictly smaller values.  cache, a dict, keeps
    each rate pair's scalar distortions (None outside the region) for
    further searches on the same instance."""
    cap = region._rate_axis_cap(c)
    axis = np.concatenate(([0.0], np.geomspace(1e-3, cap, grid - 1)))
    cache = {} if cache is None else cache

    def score(r1, r2):
        if (r1, r2) not in cache:
            rates = make_rate_pair(c, r1, r2)
            cache[r1, r2] = (vq_distortions(c, rates)
                             if in_rate_region(c, rates) else None)
        d = cache[r1, r2]
        return math.inf if d is None else objective(d.d1, d.d2)

    best = (0.0, 0.0, math.inf)
    for r1 in axis.tolist():
        for r2 in axis.tolist():
            v = score(r1, r2)
            if v < best[2]:
                best = (r1, r2, v)
    if not math.isfinite(best[2]):
        return best
    r1, r2, val = best
    span = cap / 4.0
    while span > tol / 2.0:
        loc1 = np.linspace(max(0.0, r1 - span), min(cap, r1 + span), 13)
        loc2 = np.linspace(max(0.0, r2 - span), min(cap, r2 + span), 13)
        for a in loc1.tolist():
            for b in loc2.tolist():
                v = score(a, b)
                if v < val:
                    r1, r2, val = a, b, v
        span /= 4.0
    return r1, r2, val


@pytest.mark.parametrize("c", [
    symmetric_instance(1.0, 0.8, 10.0, 1.0),
    CanonicalInstance(1.5, 0.7, 3.0, 0.8, 0.5),
    symmetric_instance(1.0, 0.0, 1.0, 1.0),
])
def test_array_search_matches_scalar_reference(c):
    d = DistortionPair(0.2, 0.15)

    def ratio(d1, d2):
        return max(d1 / d.d1, d2 / d.d2)

    def capped(d1, d2):
        return math.inf if d1 > 0.3 else d2

    def flat(d1, d2):  # ties everywhere: only strictly smaller values move
        return math.inf if d1 > 0.3 else 1.0

    for scalar, array in (
            (ratio, lambda d1, d2, live: np.maximum(d1 / d.d1, d2 / d.d2)),
            (capped, lambda d1, d2, live: np.where(d1 > 0.3, math.inf, d2)),
            (flat, lambda d1, d2, live: np.where(d1 > 0.3, math.inf, 1.0))):
        assert region._search_rates(c, array, 1) == [_scalar_search(c, scalar)]


def test_search_with_nothing_feasible_returns_origin():
    c = symmetric_instance(1.0, 0.5, 2.0, 3.0)
    for targets in (1, 3):
        assert region._search_rates(
            c, lambda d1, d2, live: np.full((live.size, *d1.shape[-2:]), math.nan),
            targets) == [(0.0, 0.0, math.inf)] * targets


# The lockstep trace against one scalar search per first target.  The top
# target d1 = sigma^2 is met at zero rates, so "none feasible" can only hold
# for a whole batch: at resolution 33 the weak instance's first batch of 32.
@pytest.mark.parametrize("c, feasible", [
    (symmetric_instance(1.0, 0.5, 1e6, 1.0), "all"),
    (CanonicalInstance(1.5, 0.7, 3.0, 0.8, 0.5), "some"),
    (symmetric_instance(1.0, 0.5, 1e-3, 1.0), "top only"),
])
def test_lockstep_trace_matches_scalar_search_per_target(c, feasible):
    cache = {}
    for resolution in (2, 8, 33):
        pts = trace_region_boundary(c, resolution=resolution)
        met = [not math.isnan(pt.vq_d2) for pt in pts]
        if feasible == "all":
            assert all(met)
        elif feasible == "some":
            assert 0 < sum(met) < resolution
        else:
            assert met == [False] * (resolution - 1) + [True]
        for pt in pts:
            limit = pt.d1 * (1.0 + 1e-9)
            _, _, ref = _scalar_search(
                c, lambda d1, d2: math.inf if d1 > limit else d2, cache=cache)
            assert pt.vq_d2 == ref or (math.isnan(pt.vq_d2) and ref == math.inf)


@pytest.mark.parametrize("seed", range(4))
def test_zoom_axes_equal_linspace(seed):
    rng = np.random.default_rng(seed)
    lo = np.concatenate(([0.0, 0.0, 1.0], 10 ** rng.uniform(-8, 2, 200)))
    span = np.concatenate(([1e-9, 7.5, 0.0], 10 ** rng.uniform(-12, 1, 200)))
    hi = lo + span
    axes = region._zoom_axes(lo, hi)
    for a, b, ax in zip(lo.tolist(), hi.tolist(), axes):
        assert ax.tobytes() == np.linspace(a, b, 13).tobytes()
    # the stacked (2, targets) form the search uses
    two = region._zoom_axes(np.stack((lo, lo)), np.stack((hi, hi)))
    assert two.tobytes() == np.stack((axes, axes)).tobytes()


def test_trace_memory_stays_bounded():
    # the coarse pass scores (targets, 64, 64) arrays; in batches of 32 they
    # stay near 1 MiB however many targets the trace has
    c = symmetric_instance(1.0, 0.5, 4.0, 1.0)
    tracemalloc.start()
    try:
        pts = trace_region_boundary(c, resolution=4096)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(pts) == 4096
    assert peak < 8 * 2 ** 20


def test_rate_axis_cap_rejects_overflow():
    assert math.isfinite(region._rate_axis_cap(symmetric_instance(1.0, 0.5, 1e300, 1.0)))
    with pytest.raises(ValueError, match="overflows"):
        region._rate_axis_cap(symmetric_instance(1.0, 0.5, 1e308, 1.0))


def test_rate_search_never_worse_than_dense_grid():
    # the zooming search against every cell of a dense grid that spans each
    # rate up to its largest single-rate limit (at rho_tilde = rho)
    rng = np.random.default_rng(8)
    for _ in range(4):
        p1 = float(10 ** rng.uniform(-1, 2))
        c = CanonicalInstance(1.0, float(rng.uniform(0.0, 0.95)), p1,
                              float(p1 * 10 ** rng.uniform(-0.6, 0.6)), 1.0)
        d = DistortionPair(float(10 ** rng.uniform(-2, -0.2)),
                           float(10 ** rng.uniform(-2, -0.2)))
        _, _, ratio = best_vq_for_targets(c, d)
        b1, b2, _ = rate_region_limits(c, c.rho)
        axis1 = np.linspace(0.0, b1 + 0.01, 700)
        axis2 = np.linspace(0.0, b2 + 0.01, 700)
        inside, d1, d2 = distortion_grid(c, axis1, axis2)
        dense = np.where(inside, np.maximum(d1 / d.d1, d2 / d.d2), math.inf).min()
        assert ratio <= dense


def test_sweep_point_cap():
    check_sweep_points(MAX_SWEEP_POINTS)
    with pytest.raises(ValueError, match=f"cap is {MAX_SWEEP_POINTS}"):
        check_sweep_points(MAX_SWEEP_POINTS + 1)
    with pytest.raises(ValueError, match="cap is"):
        trace_region_boundary(INST, resolution=MAX_SWEEP_POINTS + 1)
