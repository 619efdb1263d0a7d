"""Problem instances, canonical reduction, and seeded source/noise sampling.

Every bound in this package is stated for a pair of zero-mean Gaussian
sequences with a common variance and nonnegative correlation.  General
instances (unequal variances, negative correlation) are reduced to that
canonical form here, and distortion values are mapped between the two unit
systems with the recorded scale factor.
"""
from __future__ import annotations

import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1

# cap on the memory a simulator keeps per trial (or per chunk of trials)
# until its final sums, checked before anything is allocated
MAX_TRIAL_BYTES = 64 << 20


class TrialCountError(ValueError):
    """Requested trial count needs more result memory than the cap."""


def check_trial_bytes(trials: int, need: int) -> None:
    """Refuse, before allocating, a run whose results need above MAX_TRIAL_BYTES."""
    if need > MAX_TRIAL_BYTES:
        raise TrialCountError(
            f"{trials} trials need {need >> 20} MiB of results, "
            f"cap is {MAX_TRIAL_BYTES >> 20} MiB")


# the most worker threads a simulator or the acceptance run may be asked
# for, checked before any thread starts
MAX_THREADS = 256


def check_threads(threads: int) -> None:
    """Refuse, before any thread starts, a thread count outside [1, MAX_THREADS]."""
    if threads < 1:
        raise ValueError(f"threads must be at least 1, got {threads}")
    if threads > MAX_THREADS:
        raise ValueError(f"threads must be at most {MAX_THREADS}, got {threads}")


def run_pooled(fn, items: int, threads: int) -> None:
    """Call fn(k) for every k in range(items), on a thread pool when more
    than one worker would have work; the pool never has more workers than
    items.  fn writes its own result slots, so the outcome does not depend
    on the pool size."""
    workers = min(threads, items)
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fn, range(items)))
    else:
        for k in range(items):
            fn(k)


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return z ^ (z >> 31)


def derive_seed(master: int, *indices: int) -> int:
    """Stable 64-bit mix of a master seed and one or more stream indices.

    Used to hand every Monte Carlo trial (or chunk) its own generator so
    that results do not depend on execution order or thread count.
    """
    h = int(master) & _MASK64
    for ix in indices:
        h = _splitmix64(h ^ _splitmix64(int(ix) & _MASK64))
    return h


@dataclass(frozen=True)
class ProblemInstance:
    """Source variances and correlation plus per-sender powers and noise variance."""

    sigma1_sq: float
    sigma2_sq: float
    rho: float
    p1: float
    p2: float
    noise_var: float

    def __post_init__(self):
        if not (0 < self.sigma1_sq < math.inf and 0 < self.sigma2_sq < math.inf):
            raise ValueError("source variances must be positive and finite")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("correlation must lie in [-1, 1]")
        if not (0 < self.p1 < math.inf and 0 < self.p2 < math.inf):
            raise ValueError("powers must be positive and finite")
        if not 0 < self.noise_var < math.inf:
            raise ValueError("noise variance must be positive and finite")


@dataclass(frozen=True)
class CanonicalInstance:
    """Instance with equal variances and rho >= 0.

    scale2 = sigma2_sq / sigma1_sq carries canonical second-component
    distortions back to the original units (original_d2 = canonical_d2 *
    scale2).  The first component keeps its units, since the common
    variance is sigma1_sq.
    """

    sigma_sq: float
    rho: float
    p1: float
    p2: float
    noise_var: float
    scale2: float = 1.0

    def __post_init__(self):
        if not self.sigma_sq > 0:
            raise ValueError("variance must be positive")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("canonical correlation must lie in [0, 1]")
        if self.p1 < 0 or self.p2 < 0:
            raise ValueError("powers must be nonnegative")
        if not self.noise_var > 0:
            raise ValueError("noise variance must be positive")
        if not self.scale2 > 0:
            raise ValueError("scale factor must be positive")

    @property
    def sqrt_p1p2(self) -> float:
        """sqrt(p1 * p2), the cross-term amplitude of two coherent senders.

        Taken as sqrt(p1) * sqrt(p2) only when the product overflows or
        underflows, so ordinary instances keep the bits of the direct form.
        """
        prod = self.p1 * self.p2
        if sys.float_info.min <= prod < math.inf or self.p1 == 0.0 or self.p2 == 0.0:
            return math.sqrt(prod)
        return math.sqrt(self.p1) * math.sqrt(self.p2)


@dataclass(frozen=True)
class DistortionPair:
    """Per-component mean squared error targets or achieved values."""

    d1: float
    d2: float

    def __post_init__(self):
        if not (0 <= self.d1 < math.inf and 0 <= self.d2 < math.inf):
            raise ValueError("distortions must be nonnegative and finite")


def canonicalize(inst: ProblemInstance) -> CanonicalInstance:
    """Reduce an instance to common variance sigma1_sq and rho >= 0.

    Component 2 is rescaled to variance sigma1_sq; a negative correlation is
    flipped in sign.  Both moves leave achievability questions unchanged
    (rescaling a component rescales its distortion by the same factor, and a
    sign flip of one component can be absorbed by the sender and receiver),
    so bounds computed on the canonical instance translate directly.
    """
    return CanonicalInstance(
        sigma_sq=inst.sigma1_sq,
        rho=abs(inst.rho),
        p1=inst.p1,
        p2=inst.p2,
        noise_var=inst.noise_var,
        scale2=inst.sigma2_sq / inst.sigma1_sq,
    )


def decanonicalize_distortion(c: CanonicalInstance, d: DistortionPair) -> DistortionPair:
    """Map a canonical distortion pair back to original units."""
    return DistortionPair(d.d1, d.d2 * c.scale2)


def sample_source_and_noise(c: CanonicalInstance, n: int, seed: int,
                            out: np.ndarray | None = None) -> np.ndarray:
    """Draw n correlated source symbols and n noise symbols.

    Parameters
    ----------
    c : CanonicalInstance
        Supplies the common variance, correlation, and noise variance.
    n : int
        Number of symbols, at least 1.
    seed : int
        64-bit reproducibility token; the same seed yields bitwise
        identical batches.
    out : ndarray, optional
        float64 array of at least 3 rows and n columns, each row
        C-contiguous; the batch is written into out[:3, :n].  Allocated
        when omitted.

    Returns
    -------
    ndarray
        The (3, n) view out[:3, :n], rows s1, s2 jointly Gaussian with
        variance sigma_sq and correlation rho, and z of variance noise_var.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if out is None:
        out = np.empty((3, n))
    s1, s2, z = draws = out[:3, :n]
    rng = np.random.default_rng(int(seed) & _MASK64)
    # g0, g1, then the noise: the stream of a (2, n) draw and an n draw.
    # s2 = sd * (rho * g0 + sqrt(1 - rho^2) * g1) with rho * g0 parked in the
    # noise row until the noise is drawn; arithmetic does not advance rng
    rng.standard_normal(out=s1)
    rng.standard_normal(out=s2)
    sd = math.sqrt(c.sigma_sq)
    np.multiply(s1, c.rho, out=z)
    np.multiply(s2, math.sqrt(1.0 - c.rho * c.rho), out=s2)
    np.add(z, s2, out=s2)
    np.multiply(s2, sd, out=s2)
    np.multiply(s1, sd, out=s1)
    rng.standard_normal(out=z)
    np.multiply(z, math.sqrt(c.noise_var), out=z)
    return draws


def row_dots(a: np.ndarray, b: np.ndarray | None = None) -> np.ndarray:
    """a[t] @ b[t] for every row t of two (T, n) arrays; b defaults to a.

    The one home of every simulator sum.  The batched matmul hands each row
    pair to the same BLAS dot as a 1-D @, so each entry has that @'s bits.
    """
    b = a if b is None else b
    return (a[:, None, :] @ b[:, :, None]).reshape(-1)


def symmetric_instance(sigma_sq: float, rho: float, p: float, noise_var: float) -> CanonicalInstance:
    """Convenience constructor for the equal-power canonical case."""
    return CanonicalInstance(sigma_sq=sigma_sq, rho=rho, p1=p, p2=p, noise_var=noise_var)
