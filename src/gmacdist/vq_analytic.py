"""Analytic performance of separate vector quantization with joint decoding.

Each sender quantizes its source at some rate and transmits the scaled
codeword.  Quantization shrinks the usable correlation between the two
transmitted words to rho_tilde; the decoder exploits what remains, which
yields a rate region and closed-form distortions.  The best symmetric
operating point is a fixed-point equation solved here by bisection.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import CanonicalInstance, DistortionPair
from .rd_bounds import ConvergenceError

_REGION_TOL = 1e-12


def _libm(fn, x):
    """Apply a scalar math function elementwise, returning an array.

    numpy's vectorized power and log2 differ from libm in the last bit on a
    small share of inputs; going through libm keeps the array forms below
    bitwise equal to scalar evaluation.
    """
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(fn, x.ravel().tolist()), float, x.size).reshape(x.shape)


def _share(r):
    """2^-2r, the share of source variance a rate-r quantizer leaves."""
    return _libm(lambda v: 2.0 ** (-2.0 * v), r)


def _corr(rho, q1, q2):
    return rho * np.sqrt((1.0 - q1) * (1.0 - q2))


def _limits(c: CanonicalInstance, rt):
    n = c.noise_var
    one = 1.0 - rt * rt
    b1 = 0.5 * _libm(math.log2, (c.p1 * one + n) / (n * one))
    b2 = 0.5 * _libm(math.log2, (c.p2 * one + n) / (n * one))
    bsum = 0.5 * _libm(math.log2, (c.p1 + c.p2 + 2.0 * rt * c.sqrt_p1p2 + n) / (n * one))
    return b1, b2, bsum


def _inside(r1, r2, limits):
    b1, b2, bsum = limits
    return ((r1 <= b1 + _REGION_TOL) & (r2 <= b2 + _REGION_TOL)
            & (r1 + r2 <= bsum + _REGION_TOL))


def _distortions(c: CanonicalInstance, q1, q2, rt):
    rho2 = c.rho * c.rho
    denom = 1.0 - rt * rt
    d1 = c.sigma_sq * q1 * (1.0 - rho2 * (1.0 - q2)) / denom
    d2 = c.sigma_sq * q2 * (1.0 - rho2 * (1.0 - q1)) / denom
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


@dataclass(frozen=True)
class VqBoundResult:
    rates: RatePair
    in_region: bool
    d1: float
    d2: float


def rate_region_limits(c: CanonicalInstance, rt: float):
    """Single-rate and sum-rate ceilings of the decodable region at a given
    residual correlation.  Raises ValueError when 1 - rt^2 rounds to 0."""
    _require_decodable(rt)
    return tuple(float(b) for b in _limits(c, rt))


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
    d1, d2 = _distortions(c, _share(rates.r1), _share(rates.r2), rates.rho_tilde)
    return DistortionPair(float(d1), float(d2))


def distortion_grid(c: CanonicalInstance, r1: np.ndarray, r2: np.ndarray):
    """Region membership and distortions at every rate pair of the grid
    r1 x r2 (first rate down the rows).

    Returns (inside, d1, d2) as arrays of shape (len(r1), len(r2)); each
    cell is bitwise what in_rate_region and vq_distortions give for that
    pair.  Cells where 1 - rho_tilde^2 rounds to 0 count as outside.
    """
    r1 = np.asarray(r1, dtype=float)[:, None]
    r2 = np.asarray(r2, dtype=float)[None, :]
    q1, q2 = _share(r1), _share(r2)
    rt = _corr(c.rho, q1, q2)
    with np.errstate(all="ignore"):
        inside = (1.0 - rt * rt != 0.0) & _inside(r1, r2, _limits(c, rt))
        d1, d2 = _distortions(c, q1, q2, rt)
    return inside, d1, d2


def vq_bound(c: CanonicalInstance, r1: float, r2: float) -> VqBoundResult:
    """Region membership and distortions for an explicit rate pair."""
    rates = make_rate_pair(c, r1, r2)
    d = vq_distortions(c, rates)
    return VqBoundResult(rates=rates, in_region=in_rate_region(c, rates),
                         d1=d.d1, d2=d.d2)


def _symmetric_rhs(rho: float, p: float, noise_var: float, r: float) -> float:
    q = 2.0 ** (-2.0 * r)
    rt = rho * (1.0 - q)
    num = 2.0 * p * (1.0 + rt) + noise_var
    den = noise_var * (1.0 - rt * rt)
    return 0.25 * math.log2(num / den)


def _symmetric_distortion(sigma_sq: float, rho: float, r: float) -> float:
    q = 2.0 ** (-2.0 * r)
    rt = rho * (1.0 - q)
    return sigma_sq * q * (1.0 - rho * rt) / (1.0 - rt * rt)


def solve_symmetric_rate(sigma_sq: float, rho: float, p: float, noise_var: float,
                         tolerance: float = 1e-12, max_iter: int = 200):
    """Largest symmetric rate the decoder supports, and its distortion.

    The ceiling on the common rate depends on the rate itself through the
    residual correlation, so the operating point is the fixed point of
    r = rhs(r).  rhs is increasing and bounded (for rho < 1), g = rhs - r is
    positive at 0 and eventually negative; the largest zero is located by a
    1024-cell scan and then bisection to the requested tolerance.

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
        return _symmetric_rhs(rho, p, noise_var, r) - r

    if rho < 1.0:
        hi = 0.25 * math.log2((2.0 * p * (1.0 + rho) + noise_var)
                              / (noise_var * (1.0 - rho * rho))) + 1.0
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
    xs = [lo + (hi - lo) * k / cells for k in range(cells + 1)]
    gs = [g(x) for x in xs]
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
    return r, _symmetric_distortion(sigma_sq, rho, r)


def high_snr_asymptote(sigma_sq: float, rho: float) -> float:
    """Limit of sqrt(p/noise) times the symmetric distortion as power grows."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    return sigma_sq * math.sqrt((1.0 - rho) / 2.0)
