"""Uncoded transmission: scale each source to its power and estimate linearly.

Sender i transmits x_i = sqrt(p_i / sigma_sq) * s_i, so the channel output
is a single noisy linear mixture; the receiver applies the per-component
linear MMSE estimator.  Below the power ratio rho / (1 - rho^2) this simple
scheme meets the converse exactly in the equal-power case.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (CanonicalInstance, check_threads, check_trial_bytes, derive_seed,
                    run_pooled, sample_source_and_noise)

_CHUNK = 1 << 16
# four float64 sums per chunk
_CHUNK_RESULT_BYTES = 32


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
    E[s_i y] / Var(y).
    """
    s2 = c.sigma_sq
    rho = c.rho
    cross = 2.0 * rho * c.sqrt_p1p2
    var_y = c.p1 + c.p2 + cross + c.noise_var
    d1 = s2 * (c.p2 * (1.0 - rho * rho) + c.noise_var) / var_y
    d2 = s2 * (c.p1 * (1.0 - rho * rho) + c.noise_var) / var_y
    sd = math.sqrt(s2)
    g1 = math.sqrt(c.p1) / sd
    g2 = math.sqrt(c.p2) / sd
    lm1 = sd * (math.sqrt(c.p1) + rho * math.sqrt(c.p2)) / var_y
    lm2 = sd * (math.sqrt(c.p2) + rho * math.sqrt(c.p1)) / var_y
    return UncodedResult(d1=d1, d2=d2, gain1=g1, gain2=g2, lmmse1=lm1, lmmse2=lm2)


def symmetric_uncoded_bound(sigma_sq: float, rho: float, p: float, noise_var: float) -> float:
    """Common distortion of uncoded transmission with equal powers."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("correlation must lie in [0, 1]")
    return sigma_sq * (p * (1.0 - rho * rho) + noise_var) / (2.0 * p * (1.0 + rho) + noise_var)


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
    result is bitwise identical for any thread count.  Raises
    TrialCountError, before allocating, when the chunk sums would need more
    than MAX_TRIAL_BYTES (above 2^37 trials), and ValueError when threads
    is outside [1, MAX_THREADS].
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    chunks = -(-trials // _CHUNK)
    check_trial_bytes(trials, chunks * _CHUNK_RESULT_BYTES)
    check_threads(threads)
    res = uncoded_distortions(c)
    sums = np.zeros((chunks, 4))

    def run_chunk(k: int):
        size = min(_CHUNK, trials - k * _CHUNK)
        batch = sample_source_and_noise(c, size, derive_seed(seed, k))
        x1 = res.gain1 * batch.s1
        x2 = res.gain2 * batch.s2
        y = x1 + x2 + batch.z
        e1 = batch.s1 - res.lmmse1 * y
        e2 = batch.s2 - res.lmmse2 * y
        sums[k] = (e1 @ e1, e2 @ e2, x1 @ x1, x2 @ x2)

    run_pooled(run_chunk, chunks, threads)
    total = sums.sum(axis=0)
    return UncodedSimResult(
        d1=total[0] / trials,
        d2=total[1] / trials,
        power1=total[2] / trials,
        power2=total[3] / trials,
        trials=trials,
        seed=int(seed),
    )
