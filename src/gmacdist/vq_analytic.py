"""Analytic performance of separate vector quantization with joint decoding.

Each sender quantizes its source at some rate and transmits the scaled
codeword.  Quantization shrinks the usable correlation between the two
transmitted words to rho_tilde; the decoder exploits what remains, which
yields a rate region and closed-form distortions.  The best symmetric
operating point is a fixed-point equation solved here by bisection.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import CanonicalInstance, DistortionPair
from .rd_bounds import ConvergenceError

_REGION_TOL = 1e-12

# numpy's log2 differs from libm's by at most an ulp on a small share of
# inputs.  An array decision whose operand lies within this relative band of
# its edge is decided again with libm; the band is about 4,000 ulps wide.
_EDGE_BAND = 2.0 ** -40
_BAND_LOW, _BAND_HIGH = 1.0 - _EDGE_BAND, 1.0 + _EDGE_BAND
_np_log2 = np.log2  # one name, so tests can move numpy's log2 by a few ulps


def _libm_near_edge(fast, near, exact):
    """fast, with exact(k) in place of each flat entry k where near holds.

    fast is a decision computed with numpy's log2; near marks the entries
    within _EDGE_BAND of their decision edge, the only ones where an ulp of
    log2 can change the outcome; exact(k) redoes entry k with libm.
    """
    for k in np.flatnonzero(near).tolist():
        fast.flat[k] = exact(k)
    return fast


_pow2 = functools.partial(pow, 2.0)


def _share(r):
    """2^-2r, the share of source variance a rate-r quantizer leaves, as an
    array of r's shape.

    Each entry is libm's pow: numpy's vectorized power differs from libm in
    the last bit on several percent of inputs, and those bits reach printed
    distortions, so the array forms stay bitwise equal to scalar evaluation.
    log2 is taken with numpy and checked with _libm_near_edge.
    """
    x = -2.0 * np.asarray(r, dtype=float)
    return np.fromiter(map(_pow2, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _corr(rho, q1, q2):
    return rho * np.sqrt((1.0 - q1) * (1.0 - q2))


def _limit_args(c: CanonicalInstance, rt, one):
    """The single-rate and sum-rate limits are each half the log2 of these;
    one is 1 - rt^2."""
    n = c.noise_var
    den = n * one
    return ((c.p1 * one + n) / den, (c.p2 * one + n) / den,
            (c.p1 + c.p2 + 2.0 * rt * c.sqrt_p1p2 + n) / den)


def _inside(r1, r2, limits):
    b1, b2, bsum = limits
    return ((r1 <= b1 + _REGION_TOL) & (r2 <= b2 + _REGION_TOL)
            & (r1 + r2 <= bsum + _REGION_TOL))


def _distortions(c: CanonicalInstance, q1, q2, one):
    """Both distortions at shares q1, q2; one is 1 - rho_tilde^2."""
    rho2 = c.rho * c.rho
    d1 = c.sigma_sq * q1 * (1.0 - rho2 * (1.0 - q2)) / one
    d2 = c.sigma_sq * q2 * (1.0 - rho2 * (1.0 - q1)) / one
    return d1, d2


def _require_decodable(rt: float):
    if 1.0 - rt * rt == 0.0:
        raise ValueError("residual codeword correlation rounds to 1 at these "
                         "rates, where the closed forms are undefined")


def rho_tilde(rho: float, r1: float, r2: float) -> float:
    """Residual correlation between the two chosen codewords.

    Equal to rho * sqrt((1 - 2^-2r1)(1 - 2^-2r2)); zero whenever either
    rate is zero and approaching rho as both rates grow.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    if r1 < 0 or r2 < 0:
        raise ValueError("rates must be nonnegative")
    return float(_corr(rho, _share(r1), _share(r2)))


@dataclass(frozen=True)
class RatePair:
    """Operating rates of the two quantizers plus their residual correlation."""

    r1: float
    r2: float
    rho_tilde: float


def make_rate_pair(c: CanonicalInstance, r1: float, r2: float) -> RatePair:
    return RatePair(r1=r1, r2=r2, rho_tilde=rho_tilde(c.rho, r1, r2))


def rate_region_limits(c: CanonicalInstance, rt: float):
    """Single-rate and sum-rate ceilings of the decodable region at a given
    residual correlation.  Raises ValueError when 1 - rt^2 rounds to 0."""
    _require_decodable(rt)
    return tuple(0.5 * math.log2(a) for a in _limit_args(c, rt, 1.0 - rt * rt))


def in_rate_region(c: CanonicalInstance, rates: RatePair) -> bool:
    """Whether the codeword pair is decodable at these rates.

    The defining inequalities are strict; membership is tested with a 1e-12
    closure so boundary points do not flap under rounding.
    """
    limits = rate_region_limits(c, rates.rho_tilde)
    return bool(_inside(rates.r1, rates.r2, limits))


def vq_distortions(c: CanonicalInstance, rates: RatePair) -> DistortionPair:
    """Distortions of the scheme when decoding succeeds, in canonical units.

    d1 = sigma_sq 2^-2r1 (1 - rho^2 (1 - 2^-2r2)) / (1 - rho_tilde^2) and
    symmetrically for d2.  Caller is responsible for region membership.
    """
    if not (math.isfinite(rates.r1) and math.isfinite(rates.r2)):
        raise ValueError("rates must be finite")
    _require_decodable(rates.rho_tilde)
    rt = rates.rho_tilde
    d1, d2 = _distortions(c, _share(rates.r1), _share(rates.r2), 1.0 - rt * rt)
    return DistortionPair(float(d1), float(d2))


def distortion_grid(c: CanonicalInstance, r1: np.ndarray, r2: np.ndarray):
    """Region membership and distortions at every rate pair of the grid
    r1 x r2 (first rate down the rows).

    r1 of shape (..., n1) and r2 of shape (..., n2), with the same leading
    axes, give (inside, d1, d2) as arrays of shape (..., n1, n2): one grid
    per leading index.  Each cell is bitwise what in_rate_region and
    vq_distortions give for that pair.  Cells where 1 - rho_tilde^2 rounds
    to 0 count as outside.  The region limits take numpy's log2; a cell
    whose rate or rate sum lies within _EDGE_BAND of a limit is tested again
    with libm's.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    n1, n2 = r1.shape[-1], r2.shape[-1]
    q = _share(np.concatenate((r1, r2), axis=-1))
    q1, q2 = q[..., :n1, None], q[..., None, n1:]
    r1, r2 = r1[..., :, None], r2[..., None, :]
    rt = _corr(c.rho, q1, q2)
    one = 1.0 - rt * rt
    with np.errstate(all="ignore"):
        args = _limit_args(c, rt, one)
        rates = (r1, r2, r1 + r2)
        edges = [0.5 * _np_log2(a) + _REGION_TOL for a in args]
        # every edge is positive; a cell inside the edges lowered by the band,
        # or outside the edges raised by it, is decided alike at libm's edges
        low = [x <= e * _BAND_LOW for x, e in zip(rates, edges)]
        high = [x <= e * _BAND_HIGH for x, e in zip(rates, edges)]
        inside = low[0] & low[1] & low[2]
        near = (high[0] & high[1] & high[2]) ^ inside
        d1, d2 = _distortions(c, q1, q2, one)

    def libm_cell(k):
        # flat cell k is row k // n2 of the stacked (..., n1) first rates
        row, j = divmod(k, n2)
        return _inside(float(r1.flat[row]), float(r2.flat[row // n1 * n2 + j]),
                       [0.5 * math.log2(a.flat[k]) for a in args])

    inside = (one != 0.0) & _libm_near_edge(inside, near, libm_cell)
    return inside, d1, d2


def _log2_rhs(p: float, noise_var: float, rt: float) -> float:
    """log2 of the symmetric rate ceiling's argument num / den, taken as
    log2(num) - log2(den) where that quotient overflows."""
    num = 2.0 * p * (1.0 + rt) + noise_var
    den = noise_var * (1.0 - rt * rt)
    q = num / den
    if q == math.inf and den > 0.0:
        return math.log2(num) - math.log2(den)
    return math.log2(q)


def solve_symmetric_rate(sigma_sq: float, rho: float, p: float, noise_var: float,
                         tolerance: float = 1e-12, max_iter: int = 200):
    """Largest symmetric rate the decoder supports, and its distortion.

    The ceiling on the common rate depends on the rate itself through the
    residual correlation, so the operating point is the fixed point of
    r = rhs(r).  rhs is increasing and bounded (for rho < 1), g = rhs - r is
    positive at 0 and eventually negative; the largest zero is located by a
    1024-cell scan and then bisection to the requested tolerance.  The scan
    is scored in one numpy pass; a point whose g lies within _EDGE_BAND of 0
    (or is NaN) is scored again with the scalar libm form, so the sign test
    sees what scalar evaluation gives.  The bisection stays scalar.  Raises
    ValueError when the residual correlation rounds to 1 while the scan's
    upper end is sought (rho = 1 at enormous power).

    Returns
    -------
    (rate, distortion) : tuple of float
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    if p < 0 or noise_var <= 0 or sigma_sq <= 0:
        raise ValueError("need nonnegative power and positive variances")
    if p == 0:
        return 0.0, sigma_sq

    def g(r):
        rt = rho * (1.0 - 2.0 ** (-2.0 * r))
        _require_decodable(rt)
        return 0.25 * _log2_rhs(p, noise_var, rt) - r

    if rho < 1.0:
        hi = 0.25 * _log2_rhs(p, noise_var, rho) + 1.0
        hi = max(hi, 1.0)
    else:
        hi = 1.0
    for _ in range(200):
        if g(hi) < 0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no sign change found for the symmetric rate")

    # scan for the last sign change, then bisect inside that cell
    cells = 1024
    lo = 0.0
    xs = lo + (hi - lo) * np.arange(cells + 1) / cells
    # rho_tilde stays below its value at hi, so no denominator is 0 here
    with np.errstate(all="ignore"):
        rt = rho * (1.0 - _share(xs))
        num = 2.0 * p * (1.0 + rt) + noise_var
        den = noise_var * (1.0 - rt * rt)
        q = num / den
        lg = _np_log2(q)
        big = q == math.inf  # as in _log2_rhs
        if big.any():
            lg[big] = _np_log2(num[big]) - _np_log2(den[big])
        gs = 0.25 * lg - xs
        near = ~(np.abs(gs) > _EDGE_BAND * (np.abs(xs) + 1.0))  # or NaN
    xs = xs.tolist()
    gs = _libm_near_edge(gs, near, lambda k: g(xs[k])).tolist()
    left, right = lo, hi
    for k in range(cells, 0, -1):
        if gs[k - 1] > 0 >= gs[k]:
            left, right = xs[k - 1], xs[k]
            break

    for _ in range(max_iter):
        if right - left <= tolerance:
            break
        mid = 0.5 * (left + right)
        if g(mid) > 0:
            left = mid
        else:
            right = mid
    else:
        raise ConvergenceError("symmetric rate bisection did not converge")

    r = 0.5 * (left + right)
    q = 2.0 ** (-2.0 * r)
    rt = rho * (1.0 - q)
    return r, sigma_sq * q * (1.0 - rho * rt) / (1.0 - rt * rt)


def high_snr_asymptote(sigma_sq: float, rho: float) -> float:
    """Limit of sqrt(p/noise) times the symmetric distortion as power grows."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    return sigma_sq * math.sqrt((1.0 - rho) / 2.0)
