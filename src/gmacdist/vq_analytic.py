"""Analytic performance of separate vector quantization with joint decoding.

Each sender quantizes its source at some rate and transmits the scaled
codeword.  Quantization shrinks the usable correlation between the two
transmitted words to rho_tilde; the decoder exploits what remains, which
yields a rate region and closed-form distortions.  The best symmetric
operating point is a fixed-point equation solved here by Newton's method.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .model import CanonicalInstance, DistortionPair, symmetric_instance

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
    distortion_grid takes them, +inf where the noise share underflows to
    0.  Raises ValueError when 1 - rt^2 rounds to 0."""
    _require_decodable(rt)
    with np.errstate(divide="ignore", over="ignore"):
        args = _limit_args(c, rt, np.float64(1.0 - rt * rt))
        return tuple(float(0.5 * np.log2(a)) for a in args)


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


def solve_symmetric_rate(sigma_sq: float, rho: float, p: float, noise_var: float):
    """Largest symmetric rate the decoder supports, and its distortion.

    The rate ceiling depends on the rate through the residual correlation,
    so the operating point is a fixed point r = rhs(r).  With q = 2^-2r,
    e = 1 - q, s = p / noise_var, a = 1 + rho^2 and b = 1 - rho^2, taken as
    (1 - rho)(1 + rho), rhs - r has the sign of F(q) = 2 s q^2 (1 + rho e)
    - e (a q + b).  F(0) < 0 < F(1), and F = -2 s rho q^3 + (2 s (1 + rho)
    + a) q^2 - 2 rho^2 q - b has at most two positive roots (Descartes), so
    one in (0, 1); at rho = 1, F = q h(q) and h has one root there.

    F(1/2) > 0, that is s (2 + rho) > 3 - rho^2, puts the root below 1/2.
    Newton's method then runs on q in the bracket [0, 1/2] with F / (q s),
    which keeps p and noise_var apart so that s may overflow, from the root
    of 2 (1 + rho) q - (a + b / q) / 2s, which bounds F / (q s) from above
    and so lies within a factor 4 below the root.  Otherwise it runs on e in
    [0, 1/2] with -F from e = 0, so that a rate near 0 keeps its relative
    precision.  Each iterate becomes the bracket's end on its side of the
    root, and a step that leaves the bracket takes its midpoint instead, so
    the bracket strictly shrinks on every step; the loop ends when a step
    leaves the iterate where it is or the midpoint is an end.  1 - rho_tilde
    is taken as (1 - rho) + rho q, so nothing cancels near rho = 1.  Returns
    (rate, distortion) as floats.  Raises ValueError where the start of the
    q branch underflows to 0 (at rho = 1, for p / noise_var from 2^1073).
    """
    symmetric_instance(sigma_sq, rho, p, noise_var)  # checks the arguments
    if p == 0:
        return 0.0, sigma_sq
    a = 1.0 + rho * rho
    b = (1.0 - rho) * (1.0 + rho)
    s = p / noise_var
    on_q = s * (2.0 + rho) > 3.0 - rho * rho
    x, lo, hi = 0.0, 0.0, 0.5
    if on_q:
        w = math.sqrt(noise_var) / math.sqrt(p)  # sqrt(1 / s)
        x = (w * (w * a + math.hypot(w * a, 4.0 * math.sqrt((1.0 + rho) * b)))
             / (8.0 * (1.0 + rho)))
        if not x:
            raise ValueError("the symmetric share 2^-2r underflows at this power ratio")
        ca = a * noise_var / p
    while True:
        if on_q:
            q, e = x, 1.0 - x
            u = b / q * noise_var / p
            f = 2.0 * q * (1.0 + rho * e) - e * (ca + u)
            fp = 2.0 * (1.0 + rho * e) - 2.0 * rho * q + ca + u + e * u / q
        else:
            e, q = x, 1.0 - x
            f = e * (a * q + b) - 2.0 * s * q * q * (1.0 + rho * e)
            fp = 2.0 * s * q * (2.0 + 2.0 * rho * e - rho * q) + a * q + b - a * e
        lo, hi = (x, hi) if f < 0 else (lo, x)
        step = x - f / fp
        if step == x:
            break
        x = step if lo < step < hi else 0.5 * (lo + hi)
        if x == lo or x == hi:
            break
    q, e = (x, 1.0 - x) if on_q else (1.0 - x, x)
    r = -0.5 * math.log2(q) if on_q else -math.log1p(-e) / (2.0 * math.log(2.0))
    return r, sigma_sq * (q * ((b + rho * rho * q) / ((1.0 - rho) + rho * q))
                          / (1.0 + rho * e))


def high_snr_asymptote(sigma_sq: float, rho: float) -> float:
    """Limit of sqrt(p/noise) times the symmetric distortion as power grows."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    return sigma_sq * math.sqrt((1.0 - rho) / 2.0)
