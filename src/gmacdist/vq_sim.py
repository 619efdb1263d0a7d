"""Monte Carlo simulation of the quantize-and-forward scheme at finite blocklength.

Codebooks are drawn uniformly on a sphere whose squared radius matches the
retained source energy.  Encoding picks the codeword closest to the source
block; the decoder searches codeword pairs whose mutual correlation is near
the residual correlation rho_tilde and picks the pair whose scaled sum best
aligns with the channel output.  Reconstruction combines both decoded words
with fixed linear coefficients.  Trials run in blocks, so each codebook is
read once per block by one GEMM rather than once per trial.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (CanonicalInstance, check_threads, check_trial_bytes, derive_seed,
                    run_pooled, sample_source_and_noise)
from .vq_analytic import RatePair, in_rate_region, rho_tilde

MAX_CODEBOOK_BITS = 22
# 2^22 words of 8 doubles
MAX_CODEBOOK_BYTES = 256 << 20

# decoder sizes: the strongest words per side that seed the incumbent, the
# first words sorted before the scan order is first extended, the first
# words in the first GEMM block, and the cap on one block's output
_SEED_WORDS = 64
_ORDER_BLOCK = 64
_SCAN_ROWS = 8
_SCAN_BLOCK_BYTES = 4 << 20

# codebook rows drawn and normalized at a time, while they are in cache
_FILL_BLOCK_BYTES = 512 << 10

# the simulator's unit of work: up to _TRIAL_BLOCK trials, fewer when one
# side's (trials, words) GEMM output would pass _TRIAL_BLOCK_BYTES
_TRIAL_BLOCK = 32
_TRIAL_BLOCK_BYTES = 4 << 20
# five float64 result slots and two flags per trial, plus the copy of the
# correctly decoded trials' errors that the conditional sums take
_TRIAL_RESULT_BYTES = 64

_STREAM_TRIAL = 0
_STREAM_CODEBOOK1 = 1
_STREAM_CODEBOOK2 = 2


class CodebookSizeError(ValueError):
    """Requested codebook exceeds the per-side size cap."""


@dataclass(frozen=True, eq=False)
class Codebook:
    """2^ceil(n*rate) words of length n, all of norm radius."""

    n: int
    words: np.ndarray
    radius: float

    @property
    def size(self) -> int:
        return self.words.shape[0]

    @property
    def realized_rate(self) -> float:
        return math.log2(self.size) / self.n


class DecodeResult(NamedTuple):
    index1: int
    index2: int
    fallback: bool


def generate_codebook(n: int, rate: float, sigma_sq: float, seed: int) -> Codebook:
    """Draw a seeded spherical codebook.

    Words are IID Gaussian vectors normalized onto the sphere of radius
    sqrt(n * sigma_sq * (1 - 2^-2rate)).  Rate zero yields the single
    all-zero word.  Raises ValueError for a negative or non-finite rate, and
    CodebookSizeError, before allocating anything, above 2^22 words or
    256 MiB of words.  Rows are drawn in blocks of about
    _FILL_BLOCK_BYTES, each normalized and scaled in place while it is still
    in cache; the generator's stream, and so every word, is that of one
    (m, n) draw, and the codebook costs that one array.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    if not 0 <= rate < math.inf:
        raise ValueError(f"rate must be nonnegative and finite, got {rate}")
    bits = math.ceil(n * rate)
    if bits > MAX_CODEBOOK_BITS:
        raise CodebookSizeError(
            f"codebook needs {bits} bits per word, cap is {MAX_CODEBOOK_BITS}")
    m = 1 << bits
    size = m * n * 8
    if size > MAX_CODEBOOK_BYTES:
        raise CodebookSizeError(
            f"codebook needs {size >> 20} MiB per side, "
            f"cap is {MAX_CODEBOOK_BYTES >> 20} MiB")
    radius = math.sqrt(n * sigma_sq * (1.0 - 2.0 ** (-2.0 * rate)))
    rng = np.random.default_rng(int(seed) & ((1 << 64) - 1))
    g = np.empty((m, n))
    step = max(1, _FILL_BLOCK_BYTES // (8 * n))
    for i in range(0, m, step):
        blk = g[i:i + step]
        rng.standard_normal(out=blk)
        norms = np.linalg.norm(blk, axis=1, keepdims=True)
        # the operations of radius * g / norms, in the same order
        blk *= radius
        blk /= norms
    return Codebook(n=n, words=g, radius=radius)


def _channel_gain(cb: Codebook, power: float) -> float:
    # the scale factor taking a codeword to the per-symbol power budget,
    # analytically sqrt(P / (sigma_sq (1 - 2^-2R))) at the rate R the radius
    # was drawn for; this form keeps the encoder scaling and the decoder
    # weights bit-identical.
    if cb.radius == 0.0:
        return 0.0
    return math.sqrt(cb.n * power) / cb.radius


def encode(cb: Codebook, s: np.ndarray, power: float):
    """Quantize a block of trials' source words, one per row of s, and
    scale them for transmission.

    One GEMM scores every row against every word.  Returns (index, x):
    index[t] selects the word with the largest inner product with s[t]
    (ties go to the lowest index) and x[t] is the transmitted word, of
    squared norm n*power (identically zero at rate zero).
    """
    idx = np.argmax(s @ cb.words.T, axis=1)
    return idx, _channel_gain(cb, power) * cb.words[idx]


def _best_update(best, f, i1, i2):
    """Keep the larger objective; break exact ties toward the lower pair."""
    if best is None or f > best[0] or (f == best[0] and (i1, i2) < (best[1], best[2])):
        return (f, i1, i2)
    return best


def _seed_incumbent(w1, w2, a1, a2, b, two_a, glo, ghi):
    """Best in-window pair among the strongest words on each side.

    Equal to feeding the block's in-window pairs through _best_update one by
    one: the largest objective, exact ties going to the lowest (i1, i2).
    """
    m1, m2 = len(a1), len(a2)
    k1 = min(_SEED_WORDS, m1)
    k2 = min(_SEED_WORDS, m2)
    top1 = np.argpartition(-a1, k1 - 1)[:k1] if k1 < m1 else np.arange(m1)
    top2 = np.argpartition(-a2, k2 - 1)[:k2] if k2 < m2 else np.arange(m2)
    gblk = w1[top1] @ w2[top2].T
    ii, jj = np.nonzero((gblk >= glo) & (gblk <= ghi))
    if not ii.size:
        return None
    fblk = (a1[top1[ii]] + a2[top2[jj]]) / np.sqrt(b + two_a * gblk[ii, jj])
    fmax = fblk.max()
    tied = np.flatnonzero(fblk == fmax)
    i1, i2 = top1[ii[tied]], top2[jj[tied]]
    t = np.lexsort((i2, i1))[0]
    return (float(fmax), int(i1[t]), int(i2[t]))


def _descending_prefix(key, k):
    """The first k entries of np.argsort(key, kind="stable").

    Partitions at position k - 1 and sorts only the keys at or below that
    threshold, so every tie at the boundary takes part and the prefix keeps
    the stable order.  NaN keys fail both comparisons, sort last and so
    never displace a finite one.
    """
    if k >= len(key):
        return np.argsort(key, kind="stable")
    kth = np.partition(key, k - 1)[k - 1]
    cand = np.flatnonzero(~(key > kth))
    return cand[np.argsort(key[cand], kind="stable")][:k]


def _decode_pruned(w1, w2, a1, a2, b, two_a, glo, ghi):
    """Exact search over the correlation window without forming all pairs.

    The incumbent is seeded from the strongest words on each side.  First
    words are then visited in decreasing order of their channel correlation
    a1 (stable, so ties go to the lower index); once no remaining first word
    can beat the incumbent even with the most favorable second word and
    denominator, the scan stops.  Only the visited prefix of that order is
    sorted, extended by doubling as needed.

    The visited words' correlations come from one GEMM per block of rows,
    written into one buffer: _SCAN_ROWS rows at first, then doubling while a
    block stays under _SCAN_BLOCK_BYTES.  Each GEMM covers only the second
    words whose bound, paired with the block's first row, reaches the
    incumbent; the others cannot reach it from any row of the block.  A
    GEMM entry may differ from the single-word product in the last bit.
    Returns (objective, i1, i2), or None when no pair lies in the window.
    """
    m1, m2 = len(a1), len(a2)
    den_min = math.sqrt(max(b + two_a * glo, 0.0))
    den_max = math.sqrt(max(b + two_a * ghi, 0.0))
    a2max = float(a2.max())

    def bound(num):
        # the largest objective an in-window pair with this numerator reaches
        hi = num / den_min if den_min > 0 else np.inf
        lo = num / den_max if den_max > 0 else 0.0
        return np.where(num > 0, hi, lo)

    def row_bound(num):
        # bound() of one Python float: the same IEEE divisions, so the same bits
        if num > 0:
            return num / den_min if den_min > 0 else math.inf
        return num / den_max if den_max > 0 else 0.0

    best = _seed_incumbent(w1, w2, a1, a2, b, two_a, glo, ghi)
    key = -a1
    order = _descending_prefix(key, _ORDER_BLOCK)
    cap = max(1, _SCAN_BLOCK_BYTES // (8 * m2))
    buf = np.empty(min(cap, m1) * m2)
    rows = min(_SCAN_ROWS, cap)
    pos = 0
    while pos < m1:
        if pos + rows > len(order):
            order = _descending_prefix(key, max(2 * len(order), pos + rows))
        blk = order[pos:pos + rows]
        if best is None:
            cols = np.arange(m2)
            w2c = w2
        else:
            # a1 falls along the order, so the first row bounds the block
            cols = np.flatnonzero(bound(a1[blk[0]] + a2) >= best[0])
            if not cols.size:
                break
            w2c = w2[cols]
        a2c = a2[cols]
        gram = buf[:len(blk) * len(cols)].reshape(len(blk), len(cols))
        np.matmul(w1[blk], w2c.T, out=gram)
        for p, g in zip(blk, gram):
            if best is not None and row_bound(float(a1[p]) + a2max) < best[0]:
                return best
            sel = np.flatnonzero((g >= glo) & (g <= ghi))
            if sel.size:
                f = (a1[p] + a2c[sel]) / np.sqrt(b + two_a * g[sel])
                k = int(np.argmax(f))
                best = _best_update(best, float(f[k]), int(p), int(cols[sel[k]]))
        pos += len(blk)
        rows = min(2 * rows, cap)
    return best


def decode(cb1: Codebook, cb2: Codebook, a1: np.ndarray, a2: np.ndarray,
           rho_t: float, delta_typ: float, alpha1: float,
           alpha2: float) -> DecodeResult:
    """Joint decoding of one trial's transmitted codeword pair.

    a1 and a2 are the channel correlations alpha_i * <u, y> of every word u
    of each side with the trial's channel output y: one row of the block
    GEMMs in simulate_vq.  Searches pairs whose normalized inner product
    lies within delta_typ of rho_t and returns the pair maximizing the
    normalized inner product of alpha1*u1 + alpha2*u2 with y.  If the window
    is empty the search is repeated over all pairs and the result is
    flagged as a fallback.
    """
    if cb1.size == 1 and cb2.size == 1:
        return DecodeResult(0, 0, False)
    r1, r2 = cb1.radius, cb2.radius
    rr = r1 * r2
    b = (alpha1 * r1) ** 2 + (alpha2 * r2) ** 2
    two_a = 2.0 * alpha1 * alpha2
    glo = max((rho_t - delta_typ) * rr, -rr)
    ghi = min((rho_t + delta_typ) * rr, rr)

    best = _decode_pruned(cb1.words, cb2.words, a1, a2, b, two_a, glo, ghi)
    if best is not None:
        return DecodeResult(best[1], best[2], False)
    best = _decode_pruned(cb1.words, cb2.words, a1, a2, b, two_a, -rr, rr)
    return DecodeResult(best[1], best[2], True)


def reconstruction_coefficients(rho: float, r1: float, r2: float, sigma_sq: float):
    """Linear MMSE weights for estimating each source from both codewords.

    Under the scheme's correlation structure the chosen codewords have
    variance sigma_sq*(1 - 2^-2r) and mutual correlation rho_tilde, and each
    correlates with the two sources through the quantization factors.
    Returns (beta1, gamma1, beta2, gamma2) with s1_hat = beta1*u1 + gamma1*u2.
    A zero-rate codeword carries no information and gets zero weight.
    """
    s2 = sigma_sq
    e1 = 1.0 - 2.0 ** (-2.0 * r1)
    e2 = 1.0 - 2.0 ** (-2.0 * r2)
    rt = rho_tilde(rho, r1, r2)
    if rt >= 1.0:
        raise ValueError("degenerate codeword correlation")
    if e1 == 0.0 and e2 == 0.0:
        return 0.0, 0.0, 0.0, 0.0
    if e1 == 0.0:
        # only the second codeword is informative
        g1 = rho  # Cov(s1, u2)/Var(u2) = rho*s2*e2 / (s2*e2)
        b2 = 1.0
        return 0.0, g1, 0.0, b2
    if e2 == 0.0:
        return 1.0, 0.0, rho, 0.0
    v1 = s2 * e1
    v2 = s2 * e2
    cov12 = rt * s2 * math.sqrt(e1 * e2)
    det = v1 * v2 - cov12 * cov12
    c11 = s2 * e1          # Cov(s1, u1)
    c12 = rho * s2 * e2    # Cov(s1, u2)
    c21 = rho * s2 * e1    # Cov(s2, u1)
    c22 = s2 * e2          # Cov(s2, u2)
    beta1 = (c11 * v2 - c12 * cov12) / det
    gamma1 = (c12 * v1 - c11 * cov12) / det
    beta2 = (c21 * v2 - c22 * cov12) / det
    gamma2 = (c22 * v1 - c21 * cov12) / det
    return beta1, gamma1, beta2, gamma2


@dataclass(frozen=True)
class VqTrialStats:
    """Aggregated results of a seeded batch of scheme simulations.

    Distortions are per symbol.  cond_d1/cond_d2 average only the trials
    whose codeword pair was decoded correctly (NaN when there are none);
    empirical_d1/empirical_d2 average every trial.
    """

    trials: int
    blocklength: int
    realized_r1: float
    realized_r2: float
    empirical_d1: float
    empirical_d2: float
    cond_d1: float
    cond_d2: float
    quantizer_mse1: float
    quantizer_mse2: float
    empirical_codeword_corr: float
    decode_error_count: int
    fallback_count: int
    seed: int


def _trial_block(words: int) -> int:
    """Trials per block when the larger codebook has this many words."""
    return max(1, min(_TRIAL_BLOCK, _TRIAL_BLOCK_BYTES // (8 * words)))


def simulate_vq(c: CanonicalInstance, rates: RatePair, n: int, trials: int,
                delta_typ: float = 0.05, seed: int = 0,
                threads: int = 1) -> VqTrialStats:
    """Run the full scheme end to end for a batch of independent trials.

    Codebooks are drawn once from seeds derived from (seed, side); trial k
    draws its source and noise from a seed derived from (seed, k) and writes
    into its own result slot, so the aggregate is reproducible and
    independent of evaluation order and thread count.  The unit of work is
    a block of consecutive trials (see _trial_block, which does not depend
    on threads): their draws are stacked, each side is encoded and
    correlated with the channel outputs by one GEMM, and each trial is then
    decoded from its own row.  Raises TrialCountError, before allocating,
    when the per-trial results would need more than MAX_TRIAL_BYTES (above
    2^20 trials), and ValueError, before the region check, for non-finite
    rates, a window outside [0, inf) or threads outside [1, MAX_THREADS].
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not (math.isfinite(rates.r1) and math.isfinite(rates.r2)):
        raise ValueError("rates must be finite")
    if not 0 <= delta_typ < math.inf:
        raise ValueError("correlation window must be nonnegative and finite")
    check_trial_bytes(trials, trials * _TRIAL_RESULT_BYTES)
    check_threads(threads)
    if not in_rate_region(c, rates):
        warnings.warn("rate pair is outside the decodable region; "
                      "decoding statistics will be unreliable", stacklevel=2)
    r1, r2 = rates.r1, rates.r2
    cb1 = generate_codebook(n, r1, c.sigma_sq, derive_seed(seed, _STREAM_CODEBOOK1))
    cb2 = generate_codebook(n, r2, c.sigma_sq, derive_seed(seed, _STREAM_CODEBOOK2))
    alpha1 = _channel_gain(cb1, c.p1)
    alpha2 = _channel_gain(cb2, c.p2)
    rt = rates.rho_tilde
    beta1, gamma1, beta2, gamma2 = reconstruction_coefficients(c.rho, r1, r2, c.sigma_sq)
    rr = cb1.radius * cb2.radius
    w1, w2 = cb1.words, cb2.words
    block = _trial_block(max(cb1.size, cb2.size))

    se = np.zeros((trials, 2))
    qmse = np.zeros((trials, 2))
    corr = np.zeros(trials)
    err = np.zeros(trials, dtype=bool)
    fell = np.zeros(trials, dtype=bool)

    def run_block(j: int):
        ks = range(j * block, min(trials, (j + 1) * block))
        batches = [sample_source_and_noise(c, n, derive_seed(seed, _STREAM_TRIAL, k))
                   for k in ks]
        s1 = np.stack([bt.s1 for bt in batches])
        s2 = np.stack([bt.s2 for bt in batches])
        idx1, x1 = encode(cb1, s1, c.p1)
        idx2, x2 = encode(cb2, s2, c.p2)
        y = x1 + x2 + np.stack([bt.z for bt in batches])
        # alpha * (y @ w.T), scaled in place: the same products
        a1 = y @ w1.T
        a1 *= alpha1
        a2 = y @ w2.T
        a2 *= alpha2
        for t, (k, i1, i2) in enumerate(zip(ks, idx1.tolist(), idx2.tolist())):
            dec = decode(cb1, cb2, a1[t], a2[t], rt, delta_typ, alpha1, alpha2)
            u1 = w1[dec.index1]
            u2 = w2[dec.index2]
            s1_hat = beta1 * u1 + gamma1 * u2
            s2_hat = beta2 * u1 + gamma2 * u2
            e1 = s1[t] - s1_hat
            e2 = s2[t] - s2_hat
            q1 = s1[t] - w1[i1]
            q2 = s2[t] - w2[i2]
            se[k] = (e1 @ e1, e2 @ e2)
            qmse[k] = (q1 @ q1, q2 @ q2)
            corr[k] = (w1[i1] @ w2[i2]) / rr if rr > 0 else 0.0
            err[k] = (dec.index1, dec.index2) != (i1, i2)
            fell[k] = dec.fallback

    run_pooled(run_block, -(-trials // block), threads)

    good = ~err
    n_good = int(good.sum())
    cond = se[good].sum(axis=0) / (n_good * n) if n_good else np.array([math.nan, math.nan])
    return VqTrialStats(
        trials=trials,
        blocklength=n,
        realized_r1=cb1.realized_rate,
        realized_r2=cb2.realized_rate,
        empirical_d1=se[:, 0].sum() / (trials * n),
        empirical_d2=se[:, 1].sum() / (trials * n),
        cond_d1=float(cond[0]),
        cond_d2=float(cond[1]),
        quantizer_mse1=qmse[:, 0].sum() / (trials * n),
        quantizer_mse2=qmse[:, 1].sum() / (trials * n),
        empirical_codeword_corr=float(corr.mean()),
        decode_error_count=int(err.sum()),
        fallback_count=int(fell.sum()),
        seed=int(seed),
    )
