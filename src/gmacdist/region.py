"""Achievability verdicts, SNR sweeps, and distortion-region boundary traces.

Assembles the converse test and the two achievability schemes into a single
answer for a target pair, sweeps the symmetric bounds over a power grid, and
traces the boundary of the target region at fixed channel parameters.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import CanonicalInstance, DistortionPair
from .rd_bounds import (
    OuterBoundResult,
    capacity_term,
    check_necessary_condition,
    rd_rate,
    symmetric_outer_bound,
)
from .uncoded import optimality_threshold, symmetric_uncoded_bound, uncoded_distortions
from .vq_analytic import (
    distortion_grid,
    in_rate_region,
    make_rate_pair,
    solve_symmetric_rate,
    vq_distortions,
)

_REL_TOL = 1e-9

# each point of a power sweep costs one symmetric solve (about 0.3 ms) and
# each point of a boundary trace one rate search (about 1 ms)
MAX_SWEEP_POINTS = 1 << 16


def check_sweep_points(points: int) -> None:
    """Refuse, before its grid is allocated, a sweep of more than
    MAX_SWEEP_POINTS points."""
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"{points} sweep points requested, "
                         f"cap is {MAX_SWEEP_POINTS}")


class Verdict(str, Enum):
    UNACHIEVABLE = "UNACHIEVABLE"
    UNCODED_ACHIEVES = "UNCODED_ACHIEVES"
    VQ_ACHIEVES = "VQ_ACHIEVES"
    GAP = "GAP"


@dataclass(frozen=True)
class PointVerdict:
    """Verdict for one target pair, with the converse and both schemes' values."""

    verdict: str
    outer: OuterBoundResult
    uncoded_d1: float
    uncoded_d2: float
    vq_d1: float
    vq_d2: float
    vq_r1: float
    vq_r2: float


class SweepRow(NamedTuple):
    """One power of a symmetric sweep; the fields are the output columns."""

    snr: float
    rho: float
    sigma_sq: float
    outer_d: float
    uncoded_d: float
    vq_d: float
    vq_rate: float
    threshold_flag: bool
    verdict: str


@dataclass(frozen=True)
class BoundaryPoint:
    """Minimal second-component distortions at a fixed first target."""

    d1: float
    outer_d2: float
    uncoded_d2: float
    vq_d2: float


def _rate_axis_cap(c: CanonicalInstance) -> float:
    # generous ceiling on useful per-sender rates; the decodable region's
    # sum constraint keeps the optimum well inside this for sane instances
    top = (c.p1 + c.p2 + 2.0 * c.sqrt_p1p2) / c.noise_var
    cap = 0.5 * math.log2(1.0 + top)
    if c.rho < 1.0:
        cap += 0.5 * math.log2(1.0 / (1.0 - c.rho * c.rho))
    if not math.isfinite(cap):
        raise ValueError("power-to-noise ratio too large: the rate search "
                         "range overflows")
    return max(cap + 3.0, 2.0)


def _best_in_window(objective, axis1, axis2, scored):
    """Smallest objective over the grid axis1 x axis2, as (r1, r2, value).

    scored is distortion_grid over that grid.  Cells outside the region and
    NaN objectives score +inf.  argmin takes the first minimum in row-major
    order, the cell a strict-< scan with r1 in the outer loop would keep.
    """
    inside, d1, d2 = scored
    with np.errstate(all="ignore"):
        val = objective(d1, d2)
    val = np.where(inside & ~np.isnan(val), val, math.inf)
    k = int(np.argmin(val))
    i, j = divmod(k, len(axis2))
    return float(axis1[i]), float(axis2[j]), float(val[i, j])


def _coarse_grid(c: CanonicalInstance, grid: int = 64):
    """The search's coarse grid as (cap, axis, scored): the rate-axis cap,
    a log-spaced axis with zero rate included, and distortion_grid over
    axis x axis.  It depends on the instance alone, so a caller with many
    objectives scores it once."""
    cap = _rate_axis_cap(c)
    axis = np.concatenate(([0.0], np.geomspace(1e-3, cap, grid - 1)))
    return cap, axis, distortion_grid(c, axis, axis)


def _search_rates(c: CanonicalInstance, objective, coarse=None, tol: float = 1e-6):
    """Minimize an objective over the decodable rate region.

    Coarse log-spaced grid (_coarse_grid(c) unless given) followed by
    repeatedly zooming a 13 x 13 grid onto the incumbent; the window shrinks
    slower than its own spacing, so ridge minima that need simultaneous
    moves of both rates stay inside it.  Each grid is scored in one pass:
    the objective maps the arrays (d1, d2) of scheme distortions over the
    grid to an array of values, and points outside the region score +inf.
    A window's best point replaces the incumbent only if strictly smaller.
    Returns (r1, r2, value); value is +inf if nothing was feasible.
    """
    cap, axis, scored = _coarse_grid(c) if coarse is None else coarse
    r1, r2, val = _best_in_window(objective, axis, axis, scored)
    if not math.isfinite(val):
        return 0.0, 0.0, math.inf

    span = cap / 4.0
    while span > tol / 2.0:
        loc1 = np.linspace(max(0.0, r1 - span), min(cap, r1 + span), 13)
        loc2 = np.linspace(max(0.0, r2 - span), min(cap, r2 + span), 13)
        a, b, v = _best_in_window(objective, loc1, loc2,
                                  distortion_grid(c, loc1, loc2))
        if v < val:
            r1, r2, val = a, b, v
        span /= 4.0
    return r1, r2, val


def best_vq_for_targets(c: CanonicalInstance, d: DistortionPair):
    """Rate pair minimizing the worst distortion ratio against the targets.

    Returns (rates, distortions, ratio); ratio <= 1 means the scheme meets
    both targets at those rates.
    """
    r1, r2, ratio = _search_rates(
        c, lambda d1, d2: np.maximum(d1 / d.d1, d2 / d.d2))
    rates = make_rate_pair(c, r1, r2)
    return rates, vq_distortions(c, rates), ratio


def verdict(c: CanonicalInstance, d: DistortionPair) -> PointVerdict:
    """Classify a distortion target for this instance.

    UNACHIEVABLE when the converse rules the pair out; otherwise whichever
    scheme meets both targets (uncoded checked first, then the quantizer
    search); GAP when the converse permits the pair but neither scheme
    reaches it.
    """
    outer = check_necessary_condition(c, d)
    unc = uncoded_distortions(c)
    rates, vq_d, ratio = best_vq_for_targets(c, d)
    if not outer.achievable_possible:
        v = Verdict.UNACHIEVABLE
    elif unc.d1 <= d.d1 * (1.0 + _REL_TOL) and unc.d2 <= d.d2 * (1.0 + _REL_TOL):
        v = Verdict.UNCODED_ACHIEVES
    elif ratio <= 1.0 + _REL_TOL and in_rate_region(c, rates):
        v = Verdict.VQ_ACHIEVES
    else:
        v = Verdict.GAP
    return PointVerdict(
        verdict=v.value, outer=outer, uncoded_d1=unc.d1, uncoded_d2=unc.d2,
        vq_d1=vq_d.d1, vq_d2=vq_d.d2, vq_r1=rates.r1, vq_r2=rates.r2,
    )


def snr_sweep(sigma_sq: float, rho: float, snr_grid) -> list:
    """Symmetric bounds along a grid of power ratios (noise variance 1).

    Each row carries the outer bound, the uncoded and quantizer inner
    bounds, the quantizer operating rate, and a flag marking power ratios at
    or below the uncoded-optimality threshold.
    """
    thr = optimality_threshold(rho)
    rows = []
    for snr in snr_grid:
        if snr <= 0:
            raise ValueError("power ratios must be positive")
        p = float(snr)
        outer_d = symmetric_outer_bound(sigma_sq, rho, p, 1.0)
        unc_d = symmetric_uncoded_bound(sigma_sq, rho, p, 1.0)
        vq_rate, vq_d = solve_symmetric_rate(sigma_sq, rho, p, 1.0)
        if unc_d <= outer_d * (1.0 + _REL_TOL):
            v = Verdict.UNCODED_ACHIEVES
        elif vq_d <= outer_d * (1.0 + _REL_TOL):
            v = Verdict.VQ_ACHIEVES
        else:
            v = Verdict.GAP
        rows.append(SweepRow(
            snr=p, rho=rho, sigma_sq=sigma_sq, outer_d=outer_d,
            uncoded_d=unc_d, vq_d=vq_d, vq_rate=vq_rate,
            threshold_flag=bool(snr <= thr), verdict=v.value,
        ))
    return rows


def _lower_convex_envelope(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Evaluate the lower convex envelope of (x, y) back at the points x."""
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    hull = []  # indices into xs of the lower hull, left to right
    for i in range(len(xs)):
        while len(hull) >= 2:
            j, k = hull[-2], hull[-1]
            # drop k if it lies on or above the chord j..i
            cross = (xs[k] - xs[j]) * (ys[i] - ys[j]) - (ys[k] - ys[j]) * (xs[i] - xs[j])
            if cross <= 0:
                hull.pop()
            else:
                break
        hull.append(i)
    env_sorted = np.interp(xs, xs[hull], ys[hull])
    out = np.empty_like(env_sorted)
    out[order] = env_sorted
    return out


def convexify(rows: list) -> list:
    """Replace achievable-distortion columns by their lower convex envelope
    over the power axis (time sharing between power levels)."""
    if not rows:
        return []
    p = np.array([r.snr for r in rows], dtype=float)
    unc = _lower_convex_envelope(p, np.array([r.uncoded_d for r in rows], dtype=float))
    vq = _lower_convex_envelope(p, np.array([r.vq_d for r in rows], dtype=float))
    return [r._replace(uncoded_d=float(u), vq_d=float(v))
            for r, u, v in zip(rows, unc, vq)]


def _min_outer_d2(c: CanonicalInstance, d1: float, cap: float,
                  tol: float = 1e-12, iters: int = 200) -> float:
    """Smallest d2 the converse permits at a fixed d1 (NaN if none)."""
    lo = c.sigma_sq * 1e-15
    hi = c.sigma_sq
    if cap < rd_rate(c, DistortionPair(d1, hi)) - 1e-12:
        return math.nan
    if cap >= rd_rate(c, DistortionPair(d1, lo)):
        return lo
    for _ in range(iters):
        if hi - lo <= tol * c.sigma_sq:
            break
        mid = 0.5 * (lo + hi)
        if cap >= rd_rate(c, DistortionPair(d1, mid)):
            hi = mid
        else:
            lo = mid
    return hi


def trace_region_boundary(c: CanonicalInstance, resolution: int = 64) -> list:
    """Boundary of the target region over a log grid of first-component targets.

    For each d1, reports the smallest d2 not excluded by the converse, the
    uncoded point's d2 when the scheme already meets d1 (NaN otherwise), and
    the smallest quantizer d2 subject to meeting d1.
    """
    if resolution < 2:
        raise ValueError("resolution must be at least 2")
    check_sweep_points(resolution)
    cap = capacity_term(c)
    unc = uncoded_distortions(c)
    coarse = _coarse_grid(c)
    points = []
    for d1 in np.geomspace(1e-4 * c.sigma_sq, c.sigma_sq, resolution):
        d1 = float(d1)
        outer_d2 = _min_outer_d2(c, d1, cap)
        unc_d2 = unc.d2 if unc.d1 <= d1 * (1.0 + _REL_TOL) else math.nan

        def objective(vq_d1, vq_d2):
            return np.where(vq_d1 > d1 * (1.0 + _REL_TOL), math.inf, vq_d2)

        _, _, vq_d2 = _search_rates(c, objective, coarse)
        points.append(BoundaryPoint(d1=d1, outer_d2=outer_d2,
                                    uncoded_d2=unc_d2,
                                    vq_d2=vq_d2 if math.isfinite(vq_d2) else math.nan))
    return points
