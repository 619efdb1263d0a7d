"""Outer (converse) bound: joint rate-distortion function vs. channel capacity.

The necessary condition for a distortion pair to be achievable compares the
rate-distortion function of the correlated pair against the capacity of the
two-user channel with fully cooperating senders.  The rate-distortion
function has three regimes depending on how the target pair sits relative to
the correlation; an independent reverse-waterfilling search reproduces the
same values and serves as a cross-check oracle in the tests.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import CanonicalInstance, DistortionPair, symmetric_instance


class ConvergenceError(RuntimeError):
    """A numerical search failed to converge within its iteration budget."""


class RdCaseTag(str, Enum):
    BOTH_SMALL = "both_small"
    INTERMEDIATE = "intermediate"
    ONE_INACTIVE = "one_inactive"


@dataclass(frozen=True)
class OuterBoundResult:
    rd_rate: float
    capacity_term: float
    achievable_possible: bool


# While the variance is at most this and both clamped targets at least its
# inverse, no product of two of them leaves the normal doubles, and the
# regime thresholds and rates are evaluated as written.  Outside, they are
# evaluated on the targets divided by the variance, and the rates as
# differences of log2s.
_PLAIN_SCALE = 2.0 ** 250


def _plain_scale(s2: float, a: float) -> bool:
    return s2 <= _PLAIN_SCALE and a >= 1.0 / _PLAIN_SCALE


def classify_case(c: CanonicalInstance, d: DistortionPair) -> tuple:
    """Place a distortion pair in one of the three rate-distortion regimes.

    The pair is ordered (smaller target first) before classification, which
    makes the regimes cover all of (0, sigma_sq]^2; values above sigma_sq are
    clamped to sigma_sq first.  Boundary ties resolve to the intermediate
    regime (the rate formulas agree there).  Returns (tag, a, b), the
    regime and the clamped targets a <= b.
    """
    s2 = c.sigma_sq
    rho = c.rho
    if not (d.d1 > 0 and d.d2 > 0):
        raise ValueError("distortion targets must be positive")
    a = min(d.d1, d.d2, s2)
    b = min(max(d.d1, d.d2), s2)
    if a >= s2:
        # both targets at full variance, zero rate
        return RdCaseTag.INTERMEDIATE, a, b
    if _plain_scale(s2, a):
        thr_low = (s2 * (1.0 - rho * rho) - a) * s2 / (s2 - a)
        thr_high = s2 * (1.0 - rho * rho) + rho * rho * a
        y = b
    else:
        x, y = a / s2, b / s2
        thr_low = (1.0 - rho * rho - x) / (1.0 - x)
        thr_high = 1.0 - rho * rho + rho * rho * x
    if y < thr_low:
        tag = RdCaseTag.BOTH_SMALL
    elif y > thr_high:
        tag = RdCaseTag.ONE_INACTIVE
    else:
        tag = RdCaseTag.INTERMEDIATE
    return tag, a, b


def rd_rate(c: CanonicalInstance, d: DistortionPair) -> float:
    """Joint rate-distortion function of the correlated pair, in bits/symbol.

    Returns the minimum total description rate under which both components
    can be reconstructed within the given mean squared errors.  Finite for
    every positive variance and targets.
    """
    s2 = c.sigma_sq
    rho = c.rho
    tag, a, b = classify_case(c, d)
    if not _plain_scale(s2, a):
        return _scaled_rate(tag, rho, s2, a, b)
    if tag is RdCaseTag.BOTH_SMALL:
        rate = 0.5 * math.log2(s2 * s2 * (1.0 - rho * rho) / (a * b))
    elif tag is RdCaseTag.ONE_INACTIVE:
        rate = 0.5 * math.log2(s2 / a)
    else:
        gap = rho * s2 - math.sqrt((s2 - a) * (s2 - b))
        denom = a * b - gap * gap
        if denom <= 0 or rho * rho == 1.0:
            # numerically outside the regime, only reachable through
            # rounding at the regime edges, or fully correlated sources
            # (where the formula below takes log2(0)): either way the rate
            # is that of the active component alone
            rate = 0.5 * math.log2(s2 / a)
        else:
            rate = 0.5 * math.log2(s2 * s2 * (1.0 - rho * rho) / denom)
    return max(rate, 0.0)


def _scaled_rate(tag: RdCaseTag, rho: float, s2: float, a: float, b: float) -> float:
    """rd_rate's closed forms on the targets a <= b divided by the variance
    s2, each log2 of a quotient taken as a difference, as the quotients may
    under- or overflow."""
    log_x = math.log2(a) - math.log2(s2)
    if tag is RdCaseTag.BOTH_SMALL:
        log_y = math.log2(b) - math.log2(s2)
        rate = 0.5 * (math.log2(1.0 - rho * rho) - log_x - log_y)
    elif tag is RdCaseTag.ONE_INACTIVE:
        rate = -0.5 * log_x
    else:
        x, y = a / s2, b / s2
        gap = rho - math.sqrt((1.0 - x) * (1.0 - y))
        denom = x * y - gap * gap
        if denom <= 0 or rho * rho == 1.0:
            rate = -0.5 * log_x
        else:
            rate = 0.5 * (math.log2(1.0 - rho * rho) - math.log2(denom))
    return max(rate, 0.0)


def capacity_term(c: CanonicalInstance) -> float:
    """Capacity of the sum channel with fully coherent senders, bits/use."""
    boost = c.p1 + c.p2 + 2.0 * c.rho * c.sqrt_p1p2
    return 0.5 * math.log2(1.0 + boost / c.noise_var)


def check_necessary_condition(c: CanonicalInstance, d: DistortionPair) -> OuterBoundResult:
    """Evaluate the converse test: capacity must cover the description rate.

    achievable_possible is False exactly when the target pair is ruled out;
    equality (to within 1e-12 bits) counts as possible.
    """
    rate = rd_rate(c, d)
    cap = capacity_term(c)
    return OuterBoundResult(rd_rate=rate, capacity_term=cap,
                            achievable_possible=cap >= rate - 1e-12)


def symmetric_outer_bound(sigma_sq: float, rho: float, p: float, noise_var: float) -> float:
    """Smallest common distortion not excluded by the converse, equal powers.

    Below the power ratio rho / (1 - rho^2) the bound is linear in the noise
    share; above it the binding regime changes and the bound decays like the
    square root of the inverse power ratio.  For rho = 1 the first branch
    applies at every power.
    """
    symmetric_instance(sigma_sq, rho, p, noise_var)  # checks the arguments
    denom = 2.0 * p * (1.0 + rho) + noise_var
    linear = rho == 1.0 or p * (1.0 - rho * rho) <= rho * noise_var
    b = (1.0 - rho) * (1.0 + rho)  # 1 - rho^2 without cancellation
    if denom == math.inf:  # 2p overflows: divide p out of the denominator
        scaled = 2.0 * (1.0 + rho) + noise_var / p
        if linear:
            return sigma_sq * (1.0 - rho * rho + noise_var / p) / scaled
        return sigma_sq * math.sqrt(b * noise_var / scaled) / math.sqrt(p)
    if linear:
        return sigma_sq * (p * (1.0 - rho * rho) + noise_var) / denom
    x = b * noise_var / denom
    if x < sys.float_info.min:  # the quotient is subnormal: take its root in parts
        return sigma_sq * math.sqrt(b) * math.sqrt(noise_var / denom)
    return sigma_sq * math.sqrt(x)


# ---------------------------------------------------------------------------
# reverse-waterfilling oracle
#
# For a scaling c of the second component, the covariance of (s1, c*s2) has
# eigenvalues lam_hi/lam_lo; filling distortion up to a water level theta on
# the decorrelated pair and rotating back gives per-component distortions
# that are piecewise linear in theta.  Minimizing rate over (c, theta)
# subject to the per-component targets reproduces the closed-form rate.

_LOGC_LO = -8.0
_LOGC_HI = 8.0


def _component_rates(sigma_sq, rho, d1, d2, cs):
    """Vectorized minimal rate meeting (d1, d2) for scaling factors cs.

    Arguments broadcast against each other.  Degenerate scalings divide by
    zero on the way, so callers run this under np.errstate(all="ignore").
    """
    k11 = sigma_sq
    cs2 = cs * cs
    k22 = cs2 * sigma_sq
    k12 = cs * rho * sigma_sq
    k12_sq = k12 * k12
    tr = k11 + k22
    disc = np.sqrt((k11 - k22) ** 2 + 4.0 * k12 * k12)
    lam_hi = 0.5 * (tr + disc)
    det = k22 * sigma_sq * (1.0 - rho * rho)
    lam_lo = det / lam_hi
    # squared weight of coordinate 1 on the lam_hi eigenvector
    dif = lam_hi - k11
    wden = k12_sq + dif * dif
    w = np.where(wden > 0, k12_sq / wden, 1.0)

    w_lo = 1.0 - w
    th1 = _theta_star(d1, w, w_lo, lam_lo, k11)
    th2 = _theta_star(cs2 * d2, w_lo, 1.0 - w_lo, lam_lo, k22)
    theta = np.minimum(th1, th2)

    # each eigen-direction adds 0.5*log2(lam/theta) while the water level
    # sits below it; elsewhere that term is <= 0 or NaN (0/0, inf/inf),
    # which fmax maps to 0
    r_hi = np.fmax(0.5 * np.log2(lam_hi / theta), 0.0)
    r_lo = np.fmax(0.5 * np.log2(lam_lo / theta), 0.0)
    return r_hi + r_lo


def _theta_star(t, w_hi, w_lo, lam_lo, k_diag):
    """Largest water level whose rotated distortion stays at or below t.

    The rotated distortion w_hi*min(theta, lam_hi) + (1-w_hi)*min(theta, lam_lo)
    rises linearly from 0 to the coordinate variance k_diag, so inversion is
    piecewise linear; targets at or above k_diag never bind.  w_lo is the
    caller's 1 - w_hi.
    """
    safe_w = np.where(w_hi > 0, w_hi, 1.0)
    mid = (t - w_lo * lam_lo) / safe_w
    out = np.where(t <= lam_lo, t, mid)
    return np.where(t >= k_diag, np.inf, out)


def _component_rate(sigma_sq: float, rho: float, d1: float, d2: float,
                    cs: float) -> float:
    """_component_rates for one scaling, on Python floats.

    Bitwise equal to the array form: the arithmetic is the same correctly
    rounded + - * / and sqrt in the same order, the transcendentals go
    through numpy, and the branches pick what np.where, np.minimum and
    np.fmax pick, NaN included.
    """
    k11 = sigma_sq
    cs2 = cs * cs
    k22 = cs2 * sigma_sq
    k12 = cs * rho * sigma_sq
    k12_sq = k12 * k12
    tr = k11 + k22
    dk = k11 - k22
    disc = math.sqrt(dk * dk + 4.0 * k12 * k12)
    lam_hi = 0.5 * (tr + disc)
    det = k22 * sigma_sq * (1.0 - rho * rho)
    lam_lo = _divide(det, lam_hi)
    dif = lam_hi - k11
    wden = k12_sq + dif * dif
    w = k12_sq / wden if wden > 0 else 1.0

    w_lo = 1.0 - w
    th1 = _theta_star_scalar(d1, w, w_lo, lam_lo, k11)
    th2 = _theta_star_scalar(cs2 * d2, w_lo, 1.0 - w_lo, lam_lo, k22)
    # np.minimum: NaN wins
    theta = th1 if th1 <= th2 or th1 != th1 else th2
    return _half_log2_ratio(lam_hi, theta) + _half_log2_ratio(lam_lo, theta)


def _theta_star_scalar(t, w_hi, w_lo, lam_lo, k_diag):
    """_theta_star on Python floats."""
    if t >= k_diag:
        return math.inf
    if t <= lam_lo:
        return t
    return (t - w_lo * lam_lo) / (w_hi if w_hi > 0 else 1.0)


def _divide(a: float, b: float) -> float:
    """a / b, with numpy's inf/NaN in place of ZeroDivisionError."""
    if b:
        return a / b
    with np.errstate(all="ignore"):
        return float(np.float64(a) / b)


def _half_log2_ratio(lam: float, theta: float) -> float:
    """max(0.5*log2(lam/theta), 0) as np.fmax takes it, NaN mapping to 0."""
    q = _divide(lam, theta)
    # log2 is positive exactly above 1; NaN fails the test as well
    if not q > 1.0:
        return 0.0
    return 0.5 * float(np.log2(q))


def waterfill_oracle_rates(c: CanonicalInstance, d1, d2) -> np.ndarray:
    """Minimal description rates via scaling plus reverse waterfilling, for
    a batch of targets (d1[k], d2[k]).

    Independent of the closed-form rate formula.  Scans scalings of the
    second component on a log grid over [-8, 8] for the whole batch in one
    array pass, then refines each target's best cell on its own by
    golden-section search on Python floats, stopping once its bracket is
    narrower than 1e-12.  Every entry is bitwise what a batch of that
    target alone returns.  Raises ConvergenceError if some bracket is still
    wider than 1e-6 after _MAX_ITER steps.
    """
    d1 = np.asarray(d1, dtype=float).ravel()
    d2 = np.asarray(d2, dtype=float).ravel()
    if not (np.all(d1 > 0) and np.all(d2 > 0)):
        raise ValueError("distortion targets must be positive")
    d1 = np.minimum(d1, c.sigma_sq)
    d2 = np.minimum(d2, c.sigma_sq)
    with np.errstate(all="ignore"):
        return _golden_section(c, d1, d2)


_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# golden-section steps per target before the search gives up
_MAX_ITER = 200


def _golden_section(c, d1, d2):
    grid = np.linspace(_LOGC_LO, _LOGC_HI, 257)
    rates = _component_rates(c.sigma_sq, c.rho, d1[:, None], d2[:, None],
                             np.exp(grid))
    i = np.argmin(rates, axis=1)
    best = rates[np.arange(d1.size), i]
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, len(grid) - 1)]
    return np.array([
        _refine(c.sigma_sq, c.rho, *args)
        for args in zip(d1.tolist(), d2.tolist(), lo.tolist(), hi.tolist(),
                        best.tolist())], dtype=float)


def _refine(sigma_sq, rho, t1, t2, lo, hi, best):
    """Golden-section refinement of one target's scan cell [lo, hi]."""
    def f(logc):
        return _component_rate(sigma_sq, rho, t1, t2, float(np.exp(logc)))

    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    span = hi - lo
    for _ in range(_MAX_ITER):
        if span < 1e-12:
            break
        # keep the side of the lower probe; a NaN probe compares false and
        # moves the bracket right
        if f1 <= f2:
            hi = x2
            span = hi - lo
            x1, x2 = hi - _INVPHI * span, x1
            f1, f2 = f(x1), f1
        else:
            lo = x1
            span = hi - lo
            x1, x2 = x2, lo + _INVPHI * span
            f1, f2 = f2, f(x2)
    else:
        if span > 1e-6:
            raise ConvergenceError("scaling search did not converge")
    # min(best, f1, f2) as Python's min takes it: a later value replaces an
    # earlier one only if strictly smaller
    out = f1 if f1 < best else best
    return f2 if f2 < out else out


def waterfill_oracle_rate(c: CanonicalInstance, d: DistortionPair) -> float:
    """Minimal description rate of one target pair: waterfill_oracle_rates
    on a batch of one."""
    return float(waterfill_oracle_rates(c, d.d1, d.d2)[0])
