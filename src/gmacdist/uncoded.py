"""Uncoded transmission: scale each source to its power and estimate linearly.

Sender i transmits x_i = sqrt(p_i / sigma_sq) * s_i, so the channel output
is a single noisy linear mixture; the receiver applies the per-component
linear MMSE estimator.  Below the power ratio rho / (1 - rho^2) this simple
scheme meets the converse exactly in the equal-power case.
"""
from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .model import (CanonicalInstance, check_threads, check_trial_bytes, derive_seed,
                    row_dots, run_pooled, sample_source_and_noise)

_CHUNK = 1 << 16
# four float64 sums per chunk
_CHUNK_RESULT_BYTES = 32
# smallest positive normal double
_TINY = sys.float_info.min


@dataclass(frozen=True)
class UncodedResult:
    """Closed-form distortions plus the scheme's gains and estimator weights."""

    d1: float
    d2: float
    gain1: float
    gain2: float
    lmmse1: float
    lmmse2: float


@dataclass(frozen=True)
class UncodedSimResult:
    """Empirical distortions and transmit powers from a seeded simulation."""

    d1: float
    d2: float
    power1: float
    power2: float
    trials: int
    seed: int


def uncoded_distortions(c: CanonicalInstance) -> UncodedResult:
    """Per-component mean squared error of uncoded transmission.

    d1 = sigma_sq * (p2 (1 - rho^2) + noise) / (p1 + p2 + 2 rho sqrt(p1 p2) + noise)
    and symmetrically for d2.  The estimator weight for component i is
    E[s_i y] / Var(y).  A quotient whose numerator or Var(y) leaves the
    finite normal range is taken with the powers and noise divided by the
    largest of them.
    """
    s2 = c.sigma_sq
    rho = c.rho
    sd = math.sqrt(s2)
    cross = 2.0 * rho * c.sqrt_p1p2
    var_y = c.p1 + c.p2 + cross + c.noise_var
    nums = (s2 * (c.p2 * (1.0 - rho * rho) + c.noise_var),
            s2 * (c.p1 * (1.0 - rho * rho) + c.noise_var),
            sd * (math.sqrt(c.p1) + rho * math.sqrt(c.p2)),
            sd * (math.sqrt(c.p2) + rho * math.sqrt(c.p1)))
    fine = [_TINY <= min(v, var_y) and max(v, var_y) < math.inf for v in nums]
    if all(fine):
        d1, d2, lm1, lm2 = (v / var_y for v in nums)
    else:
        d1, d2, lm1, lm2 = (v / var_y if ok else w
                            for v, ok, w in zip(nums, fine, _scaled_distortions(c)))
    return UncodedResult(d1=d1, d2=d2, gain1=math.sqrt(c.p1) / sd,
                         gain2=math.sqrt(c.p2) / sd, lmmse1=lm1, lmmse2=lm2)


def _scaled_distortions(c: CanonicalInstance) -> tuple:
    """uncoded_distortions' d1, d2, lmmse1 and lmmse2 with the powers and
    noise divided by the largest of them, so Var(y) lies in [1, 5]."""
    top = max(c.p1, c.p2, c.noise_var)
    q1, q2, noise = c.p1 / top, c.p2 / top, c.noise_var / top
    rho = c.rho
    var_y = q1 + q2 + 2.0 * rho * math.sqrt(q1) * math.sqrt(q2) + noise
    d1 = c.sigma_sq * ((q2 * (1.0 - rho * rho) + noise) / var_y)
    d2 = c.sigma_sq * ((q1 * (1.0 - rho * rho) + noise) / var_y)
    # amplitudes over sqrt(top), which stay nonzero where q1 or q2 underflow
    a1, a2, root = math.sqrt(c.p1), math.sqrt(c.p2), math.sqrt(top)
    amp = math.sqrt(c.sigma_sq) / root
    lm1 = amp * ((a1 + rho * a2) / root / var_y)
    lm2 = amp * ((a2 + rho * a1) / root / var_y)
    return d1, d2, lm1, lm2


def symmetric_uncoded_bound(sigma_sq: float, rho: float, p: float, noise_var: float) -> float:
    """Common distortion of uncoded transmission with equal powers."""
    c = CanonicalInstance(sigma_sq, rho, p, p, noise_var)  # checks the arguments
    num = sigma_sq * (p * (1.0 - rho * rho) + noise_var)
    den = 2.0 * p * (1.0 + rho) + noise_var
    if _TINY <= min(num, den, d := num / den) and max(num, den, d) < math.inf:
        return d
    return _scaled_distortions(c)[0]


def optimality_threshold(rho: float) -> float:
    """Power ratio p/noise below which uncoded transmission is optimal.

    Returns +inf at rho = 1 (uncoded is optimal at every power there).
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    if rho == 1.0:
        return math.inf
    return rho / (1.0 - rho * rho)


def simulate_uncoded(c: CanonicalInstance, trials: int, seed: int,
                     threads: int = 1) -> UncodedSimResult:
    """Monte Carlo check of the uncoded closed form.

    Trials are generated in fixed-size chunks, each with a seed derived from
    (seed, chunk index), and chunk sums are reduced in index order, so the
    result is bitwise identical for any thread count.  Raises ValueError,
    before allocating, when the chunk sums would need more than
    MAX_TRIAL_BYTES (above 2^37 trials), when threads is outside
    [1, MAX_THREADS], and when the summed squared errors or powers are not
    finite.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    chunks = -(-trials // _CHUNK)
    check_trial_bytes(trials, chunks * _CHUNK_RESULT_BYTES)
    check_threads(threads)
    res = uncoded_distortions(c)
    sums = np.zeros((chunks, 4))
    # one scratch block per worker, reused by each of its chunks: rows s1, s2,
    # z, x1, x2, y; e2 goes into z's row and e1 into s2's, so rows 1-4 are summed
    width = min(trials, _CHUNK)
    local = threading.local()

    def run_chunk(k: int):
        size = min(_CHUNK, trials - k * _CHUNK)
        block = getattr(local, "block", None)
        if block is None:
            block = local.block = np.empty((6, width))
        sample_source_and_noise(c, size, derive_seed(seed, k), out=block)
        s1, s2, z, x1, x2, y = block[:, :size]
        # overflow is reported once, from the total, after every chunk
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(s1, res.gain1, out=x1)
            np.multiply(s2, res.gain2, out=x2)
            np.add(x1, x2, out=y)
            np.add(y, z, out=y)
            e2 = np.multiply(y, res.lmmse2, out=z)
            np.subtract(s2, e2, out=e2)
            e1 = np.multiply(y, res.lmmse1, out=s2)
            np.subtract(s1, e1, out=e1)
            sums[k] = row_dots(block[1:5, :size])

    run_pooled(run_chunk, chunks, threads)
    with np.errstate(over="ignore", invalid="ignore"):
        total = sums.sum(axis=0)
    if not np.isfinite(total).all():
        raise ValueError("the simulated squared errors and powers overflow "
                         "float64 at this scale; lower the powers or variances")
    return UncodedSimResult(
        d1=total[0] / trials,
        d2=total[1] / trials,
        power1=total[2] / trials,
        power2=total[3] / trials,
        trials=trials,
        seed=int(seed),
    )
