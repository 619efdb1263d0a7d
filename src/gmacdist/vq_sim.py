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
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import (CanonicalInstance, check_threads, check_trial_bytes, derive_seed,
                    row_dots, run_pooled, sample_source_and_noise)
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
# relative band below the decoder's column threshold (see _filter_candidates)
_FILTER_BAND = 2.0 ** -40

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
    all-zero word.  Raises ValueError for a negative or non-finite rate,
    and, before allocating anything, above 2^22 words or 256 MiB of words.
    Rows are drawn in blocks of about _FILL_BLOCK_BYTES, each normalized and
    scaled in place while it is still in cache; the generator's stream, and
    so every word, is that of one (m, n) draw, and the codebook costs that
    one array.
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
    if not 0 <= rate < math.inf:
        raise ValueError(f"rate must be nonnegative and finite, got {rate}")
    bits = math.ceil(n * rate)
    if bits > MAX_CODEBOOK_BITS:
        raise ValueError(f"codebook needs {bits} bits per word, cap is {MAX_CODEBOOK_BITS}")
    m = 1 << bits
    size = m * n * 8
    if size > MAX_CODEBOOK_BYTES:
        raise ValueError(
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


def _block_best(best, rows, cols, gram, a1, a2, b, two_a, glo, ghi):
    """The incumbent best or the block's best in-window pair, whichever wins:
    the largest objective, exact ties to the lowest (i1, i2), never a NaN.
    gram[r, c] is the correlation of first word rows[r] with second word
    cols[c].  Returns (objective, i1, i2), or None when nothing qualifies.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        ii, jj = np.nonzero((gram >= glo) & (gram <= ghi))
        f = (a1[rows[ii]] + a2[cols[jj]]) / np.sqrt(b + two_a * gram[ii, jj])
    # NaN != NaN, so the mask leaves NaN out of the max and of the ties
    top = f.max(initial=-np.inf if best is None else best[0], where=f == f)
    tied = np.flatnonzero(f == top)
    i1, i2 = rows[ii[tied]], cols[jj[tied]]
    if best is not None and top == best[0]:
        i1, i2 = np.append(i1, best[1]), np.append(i2, best[2])
    if not len(i1):
        return None
    t = np.lexsort((i2, i1))[0]
    return (float(top), int(i1[t]), int(i2[t]))


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


def _filter_candidates(a1p, a2, best, den_min):
    """Indices c, ascending, of a superset of the second words with
    bound(a1p + a2[c]) >= best, chosen by one compare.

    With a normal incumbent best > 0 only a positive numerator reaches it,
    and then only one within a few roundings of best * den_min; so every
    such word has a2[c] >= best * den_min - a1p less a band of
    _FILTER_BAND times the size of the terms, which is far wider than those
    roundings.  Where that threshold cannot be formed (best not a positive
    normal, den_min = 0, or a threshold that is subnormal or not finite)
    every word is a candidate.
    """
    t = best * den_min
    cut = t - a1p - _FILTER_BAND * (t + abs(a1p))
    if best >= sys.float_info.min and t >= sys.float_info.min and math.isfinite(cut):
        return np.flatnonzero(a2 >= cut)
    return np.arange(len(a2))


def _decode_pruned(w1, w2, a1, a2, b, two_a, glo, ghi):
    """Exact search over the correlation window without forming all pairs.

    First words are visited in decreasing order of their channel
    correlation a1 (stable, so ties go to the lower index); only the
    visited prefix of that order is sorted, extended by doubling as needed.
    The incumbent is seeded by scoring the first _SEED_WORDS of that order
    against the _SEED_WORDS strongest second words.

    The visited words' correlations come from one GEMM per block of rows,
    written into one buffer: _SCAN_ROWS rows at first, then doubling while a
    block stays under _SCAN_BLOCK_BYTES.  Each GEMM covers only the second
    words whose bound, paired with the block's first row, reaches the
    incumbent; the others cannot reach it from any row of the block.  The
    first block with an incumbent finds these columns among the candidates
    of _filter_candidates, and every later block re-tests only the previous
    block's survivors: the incumbent never falls, a1 never rises along the
    order, and both the rounded sum a1 + a2 and bound() are monotone, so a
    column that fails once fails for the rest of the scan, and the kept set
    of each block is exactly that of the full test.  The scan stops at the
    first block that keeps no column: no pair left can reach the incumbent.
    A GEMM entry may differ from the single-word product in the last bit.

    The seed and each block, in row slices of about _SCAN_BLOCK_BYTES / 64
    entries (the scorer keeps a few words per entry), go through
    _block_best: the largest objective wins, exact ties go to the lowest
    (i1, i2), and a NaN objective (a sum whose squared norm rounds to zero
    or below) never wins.  Returns (objective, i1, i2), or None when no
    pair in the window has a number for its objective.
    """
    m1, m2 = len(a1), len(a2)
    den_min = math.sqrt(max(b + two_a * glo, 0.0))
    den_max = math.sqrt(max(b + two_a * ghi, 0.0))

    def bound(num):
        # the largest objective an in-window pair with this numerator reaches
        hi = num / den_min if den_min > 0 else np.inf
        lo = num / den_max if den_max > 0 else 0.0
        return np.where(num > 0, hi, lo)

    key = -a1
    order = _descending_prefix(key, max(_ORDER_BLOCK, _SEED_WORDS))
    k2 = min(_SEED_WORDS, m2)
    # a copy, so the partition of every word is not kept alive by a view
    top2 = np.argpartition(-a2, k2 - 1)[:k2].copy() if k2 < m2 else np.arange(m2)
    top1 = order[:_SEED_WORDS]
    best = _block_best(None, top1, top2, w1[top1] @ w2[top2].T,
                       a1, a2, b, two_a, glo, ghi)
    cap = max(1, _SCAN_BLOCK_BYTES // (8 * m2))
    buf = np.empty(min(cap, m1) * m2)
    rows = min(_SCAN_ROWS, cap)
    pos = 0
    live = None  # the second words that can still reach the incumbent
    while pos < m1:
        if pos + rows > len(order):
            order = _descending_prefix(key, max(2 * len(order), pos + rows))
        blk = order[pos:pos + rows]
        if best is None:
            cols, w2c = np.arange(m2), w2
        else:
            # a1 falls along the order, so the first row bounds the block
            a1p = a1[blk[0]]
            if live is None:
                live = _filter_candidates(float(a1p), a2, best[0], den_min)
            live = live[bound(a1p + a2[live]) >= best[0]]
            if not live.size:
                break
            cols = live
            w2c = w2[cols]
        gram = buf[:len(blk) * len(cols)].reshape(len(blk), len(cols))
        np.matmul(w1[blk], w2c.T, out=gram)
        step = max(1, (_SCAN_BLOCK_BYTES >> 6) // len(cols))
        for r in range(0, len(blk), step):
            best = _block_best(best, blk[r:r + step], cols, gram[r:r + step],
                               a1, a2, b, two_a, glo, ghi)
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
    flagged as a fallback.  Raises ValueError when the objectives overflow:
    when the window's smallest squared norm of alpha1*u1 + alpha2*u2 does,
    so that every objective in the window is 0 or NaN and nothing prunes
    the scan, or when no pair has a number for its objective.
    """
    if cb1.size == 1 and cb2.size == 1:
        return DecodeResult(0, 0, False)
    r1, r2 = cb1.radius, cb2.radius
    rr = r1 * r2
    try:
        b = (alpha1 * r1) ** 2 + (alpha2 * r2) ** 2
    except OverflowError:  # float ** raises where * gives inf
        b = math.inf
    two_a = 2.0 * alpha1 * alpha2
    glo = max((rho_t - delta_typ) * rr, -rr)
    ghi = min((rho_t + delta_typ) * rr, rr)

    if b + two_a * glo < math.inf:
        best = _decode_pruned(cb1.words, cb2.words, a1, a2, b, two_a, glo, ghi)
        if best is not None:
            return DecodeResult(best[1], best[2], False)
        best = _decode_pruned(cb1.words, cb2.words, a1, a2, b, two_a, -rr, rr)
        if best is not None:
            return DecodeResult(best[1], best[2], True)
    raise ValueError("the decoding objectives overflow at this power")


def reconstruction_coefficients(rho: float, r1: float, r2: float, sigma_sq: float):
    """Linear MMSE weights for estimating each source from both codewords.

    Under the scheme's correlation structure the chosen codewords have
    variance sigma_sq*(1 - 2^-2r) and mutual correlation rho_tilde, and each
    correlates with the two sources through the quantization factors.
    Returns (beta1, gamma1, beta2, gamma2) with s1_hat = beta1*u1 + gamma1*u2.
    A zero-rate codeword carries no information and gets zero weight.
    The weights do not depend on sigma_sq; where its scale takes the
    determinant out of the normal range they are taken at sigma_sq = 1.
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
    if not sys.float_info.min <= det < math.inf and s2 != 1.0:
        return reconstruction_coefficients(rho, r1, r2, 1.0)
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
    on threads): their draws fill one (3, trials, n) array, each side is
    encoded and correlated with the channel outputs by one GEMM, each trial
    is decoded from its own row, and the statistics are block expressions.
    Raises ValueError, before allocating, when the per-trial results would
    need more than MAX_TRIAL_BYTES (above 2^20 trials), and, before the
    region check, for a blocklength below 1, non-finite rates, a window
    outside [0, inf) or threads outside [1, MAX_THREADS].
    """
    if n < 1:
        raise ValueError("blocklength must be at least 1")
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
        ks = slice(j * block, min(trials, (j + 1) * block))
        draws = np.empty((3, ks.stop - ks.start, n))
        for t, k in enumerate(range(ks.start, ks.stop)):
            sample_source_and_noise(c, n, derive_seed(seed, _STREAM_TRIAL, k),
                                    out=draws[:, t])
        s1, s2, z = draws
        idx1, x1 = encode(cb1, s1, c.p1)
        idx2, x2 = encode(cb2, s2, c.p2)
        # near the top of the power range the channel's sums overflow; the
        # decoder skips every NaN objective and raises if nothing is left
        with np.errstate(over="ignore", invalid="ignore"):
            y = x1 + x2 + z
            # alpha * (y @ w.T), scaled in place: the same products
            a1 = y @ w1.T
            a1 *= alpha1
            a2 = y @ w2.T
            a2 *= alpha2
            # rows (index1, index2, fallback), one per trial
            dec = np.array([decode(cb1, cb2, a1[t], a2[t], rt, delta_typ, alpha1, alpha2)
                            for t in range(len(y))])
        u1, u2 = w1[dec[:, 0]], w2[dec[:, 1]]
        v1, v2 = w1[idx1], w2[idx2]
        se[ks, 0] = row_dots(s1 - (beta1 * u1 + gamma1 * u2))
        se[ks, 1] = row_dots(s2 - (beta2 * u1 + gamma2 * u2))
        qmse[ks, 0] = row_dots(s1 - v1)
        qmse[ks, 1] = row_dots(s2 - v2)
        # rounding can take a correlation past +-1
        corr[ks] = np.clip(row_dots(v1, v2) / rr, -1.0, 1.0) if rr > 0 else 0.0
        err[ks] = (dec[:, 0] != idx1) | (dec[:, 1] != idx2)
        fell[ks] = dec[:, 2]

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
