"""Achievability verdicts, SNR sweeps, and distortion-region boundary traces.

Assembles the converse test and the two achievability schemes into a single
answer for a target pair, sweeps the symmetric bounds over a power grid, and
traces the boundary of the target region at fixed channel parameters.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import CanonicalInstance, DistortionPair
from .rd_bounds import (
    OuterBoundResult,
    capacity_term,
    check_necessary_condition,
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

# a power-sweep point costs about 0.05 ms, a boundary-trace point about 0.07 ms
MAX_SWEEP_POINTS = 1 << 16

# a boundary trace searches its targets in batches of at most this many, so
# each transient (targets, 64, 64) coarse-grid array stays near 1 MiB
_TRACE_BATCH = 32

# a boundary trace's d1 grid runs from this fraction of sigma_sq to sigma_sq
TRACE_D1_START = 1e-4


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


class BoundaryPoint(NamedTuple):
    """Minimal second-component distortions at a fixed first target; the
    fields are the output columns."""

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


def _coarse_grid(c: CanonicalInstance):
    """The search's coarse grid as (cap, axis, scored): the rate-axis cap,
    a 64-point log-spaced axis with zero rate included, and distortion_grid
    over axis x axis.  It depends on the instance alone, so a caller with
    many objectives scores it once."""
    cap = _rate_axis_cap(c)
    axis = np.concatenate(([0.0], np.geomspace(1e-3, cap, 63)))
    return cap, axis, distortion_grid(c, axis, axis)


_ZOOM = 13
_ZOOM_STEPS = np.arange(float(_ZOOM))
# row and column of each flat cell of a zoom window, and the two rate
# axes as a column, to pick each window's best rates with one index
_ZOOM_CELLS = np.stack(np.divmod(np.arange(_ZOOM * _ZOOM), _ZOOM))
_RATE_AXES = np.arange(2)[:, None]


def _zoom_axes(lo, hi):
    """The _ZOOM-point axes from lo to hi, bitwise np.linspace(lo, hi, _ZOOM)
    for each pair of ends."""
    axes = _ZOOM_STEPS * ((hi - lo) / (_ZOOM - 1))[..., None] + lo[..., None]
    axes[..., -1] = hi
    return axes


def _window_best(objective, live, scored, rows):
    """Each grid's smallest objective value and its flat row-major index.

    scored is distortion_grid's (inside, d1, d2); objective(d1, d2, live)
    scores them for the targets live, and rows is np.arange(live.size).
    Cells outside the region and NaN values score +inf; argmin takes the
    first minimum in row-major order, the cell a strict-< scan with r1 in
    the outer loop would keep.
    """
    inside, d1, d2 = scored
    val = objective(d1, d2, live)
    # val == val is False only where val is NaN
    val = np.where(inside & (val == val), val, math.inf).reshape(rows.size, -1)
    k = val.argmin(axis=1)
    return val[rows, k], k


def _search_rates(c: CanonicalInstance, objective, targets: int, coarse=None):
    """Minimize a batch of objectives over the decodable rate region.

    objective(d1, d2, live) scores arrays of scheme distortions for the
    targets of the index array live, as values that reshape to one row per
    live target; points outside the region score +inf.  The search scores a coarse
    log-spaced grid (_coarse_grid(c) unless given) shared by all targets,
    then repeatedly zooms a 13 x 13 grid onto each target's incumbent; the
    window shrinks slower than its own spacing, so ridge minima that need
    simultaneous moves of both rates stay inside it.  The round count
    depends on the rate-axis cap alone, so each round scores every live
    target's window in one (live, 13, 13) grid.  A window's best point
    replaces the incumbent only if strictly smaller.  Returns one
    (r1, r2, value) per target; value is +inf, at rates 0, when nothing was
    feasible for it.
    """
    cap, axis, scored = _coarse_grid(c) if coarse is None else coarse
    rows = np.arange(targets)
    with np.errstate(all="ignore"):  # for the objective
        val, k = _window_best(objective, rows, scored, rows)
        live = np.flatnonzero(np.isfinite(val))
        val, k = val[live], k[live]
        rates = axis[np.stack(np.divmod(k, len(axis)))]  # (2, live)
        rows = rows[:live.size]

        span = cap / 4.0
        while live.size and span > 0.5e-6:  # rates to within 1e-6
            axes = _zoom_axes(np.maximum(rates - span, 0.0),
                              np.minimum(rates + span, cap))
            scored = distortion_grid(c, *axes)
            v, k = _window_best(objective, live, scored, rows)
            better = v < val
            np.copyto(rates, axes[_RATE_AXES, rows, _ZOOM_CELLS[:, k]], where=better)
            np.copyto(val, v, where=better)
            span /= 4.0

    out = [(0.0, 0.0, math.inf)] * targets
    for t, r1, r2, v in zip(live.tolist(), *rates.tolist(), val.tolist()):
        out[t] = (r1, r2, v)
    return out


def best_vq_for_targets(c: CanonicalInstance, d: DistortionPair):
    """Rate pair minimizing the worst distortion ratio against the targets.

    Returns (rates, distortions, ratio); ratio <= 1 means the scheme meets
    both targets at those rates.
    """
    (r1, r2, ratio), = _search_rates(
        c, lambda d1, d2, live: np.maximum(d1 / d.d1, d2 / d.d2), 1)
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


def _min_outer_d2(c: CanonicalInstance, d1: float, cap: float) -> float:
    """Smallest d2 the converse permits at a fixed d1 (NaN if none): the least of
    rd_rate = cap's roots y = d2 / sigma_sq in the BOTH_SMALL, INTERMEDIATE and
    ONE_INACTIVE (d2 the smaller) regimes, and y = 1, that passes the converse test."""
    x = min(d1 / c.sigma_sq, 1.0)
    k2 = 2.0 ** (-2.0 * cap)
    k = (1.0 - c.rho * c.rho) * k2
    radicand = x * (1.0 - c.rho * c.rho) - k
    ys = [k / x, 1.0 - (c.rho * math.sqrt(1.0 - x) + math.sqrt(radicand)) ** 2
          if radicand >= 0.0 else math.nan, k2, 1.0]
    for d2 in sorted(c.sigma_sq * y for y in ys if 0.0 < y <= 1.0):
        if d2 < sys.float_info.min:  # the product may have rounded below the root
            d2 = math.nextafter(d2, math.inf)
        if check_necessary_condition(c, DistortionPair(d1, d2)).achievable_possible:
            return d2
    return math.nan


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
    d1s = np.geomspace(TRACE_D1_START * c.sigma_sq, c.sigma_sq, resolution)
    limits = d1s * (1.0 + _REL_TOL)
    vq_d2s = []
    for start in range(0, resolution, _TRACE_BATCH):
        batch = limits[start:start + _TRACE_BATCH, None, None]

        def objective(vq_d1, vq_d2, live):
            return np.where(vq_d1 > batch[live], math.inf, vq_d2)

        vq_d2s += [v for _, _, v in _search_rates(c, objective, len(batch), coarse)]
    return [BoundaryPoint(
        d1=d1, outer_d2=_min_outer_d2(c, d1, cap),
        uncoded_d2=unc.d2 if unc.d1 <= d1 * (1.0 + _REL_TOL) else math.nan,
        vq_d2=vq_d2 if math.isfinite(vq_d2) else math.nan)
        for d1, vq_d2 in zip(d1s.tolist(), vq_d2s)]
