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

from .model import CanonicalInstance, DistortionPair, symmetric_instance
from .rd_bounds import ConvergenceError

_REGION_TOL = 1e-12

_pow2 = functools.partial(pow, 2.0)


def _share(r):
    """2^-2r, the share of source variance a rate-r quantizer leaves, as an
    array of r's shape.

    Each entry is libm's pow: numpy's vectorized power differs from libm in
    the last bit on several percent of inputs, and those bits reach printed
    distortions, so the array forms stay bitwise equal to scalar evaluation.
    A rate near the top of the double range takes its exponent to -inf
    quietly, as the scalar 2.0 ** (-2.0 * r) does.
    """
    with np.errstate(over="ignore"):
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
    residual correlation, each half numpy's log2 of its argument, as
    distortion_grid takes them.  Raises ValueError when 1 - rt^2 rounds
    to 0."""
    _require_decodable(rt)
    return tuple(float(0.5 * np.log2(a)) for a in _limit_args(c, rt, 1.0 - rt * rt))


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
    vq_distortions give for that pair, by construction: the same
    operations, and the region limits take numpy's log2 on both paths.
    Cells where 1 - rho_tilde^2 rounds to 0 count as outside.
    """
    r1 = np.asarray(r1, dtype=float)
    r2 = np.asarray(r2, dtype=float)
    n1 = r1.shape[-1]
    q = _share(np.concatenate((r1, r2), axis=-1))
    q1, q2 = q[..., :n1, None], q[..., None, n1:]
    rt = _corr(c.rho, q1, q2)
    one = 1.0 - rt * rt
    with np.errstate(all="ignore"):
        limits = [0.5 * np.log2(a) for a in _limit_args(c, rt, one)]
        inside = (one != 0.0) & _inside(r1[..., :, None], r2[..., None, :], limits)
        d1, d2 = _distortions(c, q1, q2, one)
    return inside, d1, d2


def _log2_rhs(p: float, noise_var: float, rt: float) -> float:
    """log2 of the symmetric rate ceiling's argument num / den, taken as
    log2(num) - log2(den) where that quotient overflows, and log2(num) as
    1 + log2(p) + log2(1 + rt + noise_var / 2p) where num itself does."""
    num = 2.0 * p * (1.0 + rt) + noise_var
    den = noise_var * (1.0 - rt * rt)
    q = num / den
    if q == math.inf and den > 0.0:
        if num == math.inf:
            return (1.0 + math.log2(p) + math.log2(1.0 + rt + noise_var / p / 2.0)
                    - math.log2(den))
        return math.log2(num) - math.log2(den)
    return math.log2(q)


def solve_symmetric_rate(sigma_sq: float, rho: float, p: float, noise_var: float):
    """Largest symmetric rate the decoder supports, and its distortion.

    The ceiling on the common rate depends on the rate itself through the
    residual correlation, so the operating point is the fixed point of
    r = rhs(r).  With q = 2^-2r and s = p / noise_var, raising 2 to 4r turns
    it into F(q) = -2 s rho q^3 + (2 s (1 + rho) + 1 + rho^2) q^2
    - 2 rho^2 q - (1 - rho^2) = 0, and g = rhs - r is positive exactly where
    F(q) is.  F(0) < 0 < 2s = F(1) and F has at most two positive roots
    (Descartes), so for rho < 1 it has one root in (0, 1); at rho = 1,
    F = q h(q) and h has one root there.  So g changes sign once.  The
    upper end hi, where g < 0, is found by doubling; the sign change is
    located among the 1024 equal cells of [0, hi] by bisecting the cell
    index, then bisected inside its cell to a width of 1e-12, in at most
    200 steps.  Every step evaluates g with libm.  Raises ValueError when
    the residual correlation rounds to 1 while hi is sought (rho = 1 at
    enormous power).

    Returns
    -------
    (rate, distortion) : tuple of float
    """
    symmetric_instance(sigma_sq, rho, p, noise_var)  # checks the arguments
    if p == 0:
        return 0.0, sigma_sq

    def g(r):
        rt = rho * (1.0 - 2.0 ** (-2.0 * r))
        _require_decodable(rt)
        return 0.25 * _log2_rhs(p, noise_var, rt) - r

    # the quotient under the log2 is at least 1, so hi >= 1
    hi = 0.25 * _log2_rhs(p, noise_var, rho) + 1.0 if rho < 1.0 else 1.0
    for _ in range(200):
        if g(hi) < 0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no sign change found for the symmetric rate")

    # bisect the index k of the cell ends hi * k / 1024, keeping g > 0 at
    # index a and g <= 0 at index b; the cell the inner bisection starts
    # from fixes the last bits of the rate
    cells = 1024
    left, right = 0.0, hi
    if g(left) > 0:
        a, b = 0, cells
        while b - a > 1:
            k = (a + b) // 2
            if g(hi * k / cells) > 0:
                a = k
            else:
                b = k
        left, right = hi * a / cells, hi * b / cells

    for _ in range(200):
        if right - left <= 1e-12:
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
