import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gmacdist import vq_sim
from gmacdist.model import (
    ProblemInstance,
    canonicalize,
    derive_seed,
    sample_source_and_noise,
    symmetric_instance,
)
from gmacdist.vq_analytic import make_rate_pair
from gmacdist.vq_sim import (
    VqTrialStats,
    _block_best,
    _channel_gain,
    _decode_pruned,
    _descending_prefix,
    _filter_candidates,
    decode,
    encode,
    generate_codebook,
    reconstruction_coefficients,
    simulate_vq,
)


def _random_setup(seed, n=8, bits1=4, bits2=5):
    rng = np.random.default_rng(seed)
    cb1 = generate_codebook(n, bits1 / n, 1.0, seed + 1)
    cb2 = generate_codebook(n, bits2 / n, 1.0, seed + 2)
    y = rng.standard_normal(n)
    return cb1, cb2, y


def _decode_args(cb1, cb2, y, alpha1, alpha2):
    a1 = alpha1 * (cb1.words @ y)
    a2 = alpha2 * (cb2.words @ y)
    b = (alpha1 * cb1.radius) ** 2 + (alpha2 * cb2.radius) ** 2
    return a1, a2, b, 2.0 * alpha1 * alpha2


def _encode_one(cb, s, power):
    """Reference single-trial encoder: one gemv over the codebook."""
    idx = int(np.argmax(cb.words @ s))
    return idx, _channel_gain(cb, power) * cb.words[idx]


def _decode_one(cb1, cb2, y, rho_t, delta_typ, alpha1, alpha2):
    """Reference single-trial decoder: the channel correlations by gemv."""
    a1, a2, _, _ = _decode_args(cb1, cb2, y, alpha1, alpha2)
    return decode(cb1, cb2, a1, a2, rho_t, delta_typ, alpha1, alpha2)


def _simulate_one_by_one(c, rates, n, trials, delta_typ, seed):
    """Reference simulate_vq: every trial encoded and decoded on its own."""
    r1, r2 = rates.r1, rates.r2
    cb1 = generate_codebook(n, r1, c.sigma_sq, derive_seed(seed, vq_sim._STREAM_CODEBOOK1))
    cb2 = generate_codebook(n, r2, c.sigma_sq, derive_seed(seed, vq_sim._STREAM_CODEBOOK2))
    alpha1 = _channel_gain(cb1, c.p1)
    alpha2 = _channel_gain(cb2, c.p2)
    beta1, gamma1, beta2, gamma2 = reconstruction_coefficients(c.rho, r1, r2, c.sigma_sq)
    rr = cb1.radius * cb2.radius
    se = np.zeros((trials, 2))
    qmse = np.zeros((trials, 2))
    corr = np.zeros(trials)
    err = np.zeros(trials, dtype=bool)
    fell = np.zeros(trials, dtype=bool)
    for k in range(trials):
        s1, s2, z = sample_source_and_noise(c, n, derive_seed(seed, vq_sim._STREAM_TRIAL, k))
        i1, x1 = _encode_one(cb1, s1, c.p1)
        i2, x2 = _encode_one(cb2, s2, c.p2)
        y = x1 + x2 + z
        dec = _decode_one(cb1, cb2, y, rates.rho_tilde, delta_typ, alpha1, alpha2)
        u1 = cb1.words[dec.index1]
        u2 = cb2.words[dec.index2]
        e1 = s1 - (beta1 * u1 + gamma1 * u2)
        e2 = s2 - (beta2 * u1 + gamma2 * u2)
        q1 = s1 - cb1.words[i1]
        q2 = s2 - cb2.words[i2]
        se[k] = (e1 @ e1, e2 @ e2)
        qmse[k] = (q1 @ q1, q2 @ q2)
        corr[k] = (cb1.words[i1] @ cb2.words[i2]) / rr if rr > 0 else 0.0
        err[k] = (dec.index1, dec.index2) != (i1, i2)
        fell[k] = dec.fallback
    good = ~err
    n_good = int(good.sum())
    cond = se[good].sum(axis=0) / (n_good * n) if n_good else np.array([math.nan, math.nan])
    return VqTrialStats(
        trials=trials, blocklength=n,
        realized_r1=cb1.realized_rate, realized_r2=cb2.realized_rate,
        empirical_d1=se[:, 0].sum() / (trials * n),
        empirical_d2=se[:, 1].sum() / (trials * n),
        cond_d1=float(cond[0]), cond_d2=float(cond[1]),
        quantizer_mse1=qmse[:, 0].sum() / (trials * n),
        quantizer_mse2=qmse[:, 1].sum() / (trials * n),
        empirical_codeword_corr=float(corr.mean()),
        decode_error_count=int(err.sum()),
        fallback_count=int(fell.sum()),
        seed=int(seed),
    )


def _best_update(best, f, i1, i2):
    """Sequential reference: keep the larger objective, break exact ties
    toward the lower pair; a NaN objective never wins."""
    if math.isnan(f):
        return best
    if best is None or f > best[0] or (f == best[0] and (i1, i2) < (best[1], best[2])):
        return (f, i1, i2)
    return best


def _scalar_block_best(best, rows, cols, gram, a1, a2, b, two_a, glo, ghi):
    """Reference scorer: the block's entries fed to _best_update one by one."""
    with np.errstate(invalid="ignore", divide="ignore"):
        for r, i in enumerate(rows):
            for c, j in enumerate(cols):
                g = gram[r, c]
                if glo <= g <= ghi:
                    f = (a1[i] + a2[j]) / np.sqrt(b + two_a * g)
                    best = _best_update(best, float(f), int(i), int(j))
    return best


def _decode_bruteforce(w1, w2, a1, a2, b, two_a, glo, ghi):
    """Reference search: evaluate every pair in the correlation window."""
    m1, m2 = len(a1), len(a2)
    block = max(1, (1 << 22) // max(m2, 1))
    best = None
    for i0 in range(0, m1, block):
        g = w1[i0:i0 + block] @ w2.T
        den_sq = b + two_a * g
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (a1[i0:i0 + block, None] + a2[None, :]) / np.sqrt(den_sq)
        f[(g < glo) | (g > ghi) | (den_sq <= 0)] = -np.inf
        k = int(np.argmax(f))
        fk = float(f.flat[k])
        if fk > -np.inf:
            best = _best_update(best, fk, i0 + k // m2, k % m2)
    return best


def _tied_setup(seed, m1=150, m2=120, n=6, distinct=12):
    """Integer words drawn from a small pool, so many pairs tie exactly.

    Every inner product is a small integer and therefore exact in any
    summation order; duplicated words make whole rows and columns tie.
    """
    rng = np.random.default_rng(seed)
    pool1 = rng.integers(-2, 3, size=(distinct, n)).astype(float)
    pool2 = rng.integers(-2, 3, size=(distinct, n)).astype(float)
    w1 = pool1[rng.integers(0, distinct, size=m1)]
    w2 = pool2[rng.integers(0, distinct, size=m2)]
    y = rng.integers(-3, 4, size=n).astype(float)
    rr = float(np.abs(w1 @ w2.T).max()) + 1.0
    b = 2.0 * rr
    return w1, w2, w1 @ y, w2 @ y, b, 1.0, rr


def _scan_block_sizes(monkeypatch):
    """Yield twice: with the library's block sizes, then with a seed block
    small enough to leave the scan real work and blocks small enough that
    the order is extended and the row blocks double and hit their cap."""
    yield
    monkeypatch.setattr(vq_sim, "_SEED_WORDS", 2)
    monkeypatch.setattr(vq_sim, "_ORDER_BLOCK", 3)
    monkeypatch.setattr(vq_sim, "_SCAN_ROWS", 2)
    monkeypatch.setattr(vq_sim, "_SCAN_BLOCK_BYTES", 8 * 5 * 32)
    yield


def test_codebook_geometry():
    cb = generate_codebook(16, 0.5, 1.0, 42)
    assert cb.words.shape == (256, 16)
    radius = math.sqrt(16.0 * (1.0 - 2.0 ** -1.0))
    assert cb.radius == pytest.approx(radius, rel=1e-12)
    norms = np.linalg.norm(cb.words, axis=1)
    assert np.allclose(norms, radius, rtol=1e-9)


def test_codebook_size_rounds_up():
    # 10 * 0.25 = 2.5 bits, so the realized rate exceeds the nominal one
    cb = generate_codebook(10, 0.25, 1.0, 0)
    assert cb.size == 8
    assert cb.realized_rate == pytest.approx(0.3, rel=1e-12)


def test_codebook_zero_rate():
    cb = generate_codebook(12, 0.0, 1.0, 3)
    assert cb.words.shape == (1, 12)
    assert np.all(cb.words == 0.0)
    assert cb.radius == 0.0


def test_codebook_size_cap():
    with pytest.raises(ValueError, match="bits per word, cap is"):
        generate_codebook(64, 0.5, 1.0, 0)


@pytest.mark.parametrize("rate", [-0.1, math.inf, math.nan])
def test_codebook_refuses_negative_or_nonfinite_rate(rate):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        generate_codebook(8, rate, 1.0, 0)


def test_codebook_refuses_an_empty_blocklength():
    with pytest.raises(ValueError, match="blocklength must be at least 1"):
        generate_codebook(0, 0.5, 1.0, 0)


def test_codebook_byte_cap_rejects_before_allocating():
    # 22 bits is within the bit cap, but 2^22 words of 64 doubles is 2 GiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="MiB"):
            generate_codebook(64, 22 / 64, 1.0, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_codebook_block_fill_matches_one_draw(monkeypatch):
    # drawing and normalizing in row blocks, the last one partial, gives the
    # bits of one (m, n) draw scaled as radius * g / norms
    def one_draw(n, rate, seed):
        m = 1 << math.ceil(n * rate)
        radius = math.sqrt(n * (1.0 - 2.0 ** (-2.0 * rate)))
        g = np.random.default_rng(seed).standard_normal((m, n))
        norms = np.linalg.norm(g, axis=1, keepdims=True)
        g *= radius
        g /= norms
        return g

    for block_bytes in (vq_sim._FILL_BLOCK_BYTES, 8 * 12 * 5, 1):
        monkeypatch.setattr(vq_sim, "_FILL_BLOCK_BYTES", block_bytes)
        for n, rate, seed in ((12, 0.5, 4), (12, 0.0, 5), (7, 1.0, 6), (20, 0.6, 7)):
            got = generate_codebook(n, rate, 1.0, seed).words
            assert np.array_equal(got, one_draw(n, rate, seed))


def test_codebook_peak_memory_is_the_codebook():
    tracemalloc.start()
    try:
        cb = generate_codebook(32, 0.5, 1.0, 9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= cb.words.nbytes + (1 << 20)


def test_codebook_determinism():
    a = generate_codebook(8, 0.5, 1.0, 7)
    b = generate_codebook(8, 0.5, 1.0, 7)
    assert np.array_equal(a.words, b.words)
    assert not np.array_equal(a.words, generate_codebook(8, 0.5, 1.0, 8).words)


def test_codebook_isotropy():
    cb = generate_codebook(64, 0.125, 1.0, 11)
    assert cb.size == 256
    g = (cb.words @ cb.words.T) / cb.radius ** 2
    off = g[~np.eye(g.shape[0], dtype=bool)]
    assert abs(off.mean()) < 0.05


def test_encode_picks_aligned_word():
    cb1, _, _ = _random_setup(1)
    p = 2.0
    idx, x = encode(cb1, cb1.words[[0, 7, 15]], p)
    assert idx.tolist() == [0, 7, 15]
    for row in x:
        assert np.dot(row, row) == pytest.approx(cb1.n * p, rel=1e-9)


def test_encode_zero_rate_sends_nothing():
    cb = generate_codebook(8, 0.0, 1.0, 2)
    idx, x = encode(cb, np.ones((3, 8)), 4.0)
    assert idx.tolist() == [0, 0, 0]
    assert np.all(x == 0.0)


def test_encode_block_matches_single_trial_reference():
    cb, _, _ = _random_setup(4, n=12, bits1=9)
    s = np.random.default_rng(4).standard_normal((40, 12))
    idx, x = encode(cb, s, 1.5)
    for row, i, xi in zip(s, idx, x):
        want_i, want_x = _encode_one(cb, row, 1.5)
        assert i == want_i
        assert np.array_equal(xi, want_x)


def test_channel_gain_matches_analytic_form():
    # sqrt(P / (sigma_sq (1 - 2^-2R))) at P = 3, sigma_sq = 1, R = 1/2
    cb = generate_codebook(8, 0.5, 1.0, 5)
    assert _channel_gain(cb, 3.0) == pytest.approx(
        math.sqrt(3.0 / (1.0 * (1.0 - 2.0 ** (-2.0 * cb.realized_rate)))),
        rel=1e-12)
    assert _channel_gain(generate_codebook(8, 0.0, 1.0, 5), 3.0) == 0.0


def test_reconstruction_desk_values():
    beta1, gamma1, beta2, gamma2 = reconstruction_coefficients(0.8, 0.5, 0.5, 1.0)
    assert beta1 == pytest.approx(17.0 / 21.0, rel=1e-12)
    assert gamma1 == pytest.approx(10.0 / 21.0, rel=1e-12)
    # symmetric rates make the second estimator mirror the first
    assert beta2 == pytest.approx(gamma1, rel=1e-12)
    assert gamma2 == pytest.approx(beta1, rel=1e-12)


def test_reconstruction_independent_sources():
    assert reconstruction_coefficients(0.0, 0.7, 1.3, 1.0) == (1.0, 0.0, 0.0, 1.0)


def test_reconstruction_zero_rate_branches():
    assert reconstruction_coefficients(0.6, 0.0, 0.0, 1.0) == (0.0, 0.0, 0.0, 0.0)
    assert reconstruction_coefficients(0.6, 0.0, 1.0, 1.0) == (0.0, 0.6, 0.0, 1.0)
    assert reconstruction_coefficients(0.6, 1.0, 0.0, 1.0) == (1.0, 0.0, 0.6, 0.0)


def test_reconstruction_degenerate_correlation():
    # float rounding pushes the codeword correlation matrix to singular here
    with pytest.raises(ValueError):
        reconstruction_coefficients(1.0, 30.0, 30.0, 1.0)


@pytest.mark.parametrize("sigma_sq", [1e-300, 1e300])
def test_reconstruction_weights_at_extreme_variance(sigma_sq):
    # the determinant under- or overflows at these scales; the weights do
    # not depend on sigma_sq, so they are those at sigma_sq = 1
    got = reconstruction_coefficients(0.5, 0.5, 0.5, sigma_sq)
    assert got == reconstruction_coefficients(0.5, 0.5, 0.5, 1.0)
    assert all(math.isfinite(w) for w in got)


def test_reconstruction_solves_normal_equations():
    rho, r1, r2, sigma_sq = 0.7, 0.6, 1.1, 2.0
    beta1, gamma1, beta2, gamma2 = reconstruction_coefficients(rho, r1, r2, sigma_sq)
    e1 = 1.0 - 2.0 ** (-2.0 * r1)
    e2 = 1.0 - 2.0 ** (-2.0 * r2)
    v1 = sigma_sq * e1
    v2 = sigma_sq * e2
    cov = rho * sigma_sq * e1 * e2
    # residual of each estimator is orthogonal to both codewords
    assert beta1 * v1 + gamma1 * cov == pytest.approx(sigma_sq * e1, rel=1e-12)
    assert beta1 * cov + gamma1 * v2 == pytest.approx(rho * sigma_sq * e2, rel=1e-12)
    assert beta2 * v1 + gamma2 * cov == pytest.approx(rho * sigma_sq * e1, rel=1e-12)
    assert beta2 * cov + gamma2 * v2 == pytest.approx(sigma_sq * e2, rel=1e-12)


def test_pruned_decoder_matches_bruteforce(monkeypatch):
    cases = []
    for seed in range(25):
        cb1, cb2, y = _random_setup(seed)
        alpha1 = 1.3 * _channel_gain(cb1, 1.0)
        alpha2 = 0.9 * _channel_gain(cb2, 1.0)
        a1, a2, b, two_a = _decode_args(cb1, cb2, y, alpha1, alpha2)
        rr = cb1.radius * cb2.radius
        for lo, hi in ((-rr, rr), (0.1 * rr, 0.4 * rr), (-0.2 * rr, 0.05 * rr)):
            args = (cb1.words, cb2.words, a1, a2, b, two_a, lo, hi)
            cases.append((args, _decode_bruteforce(*args)))
    for seed in range(20):
        w1, w2, a1, a2, b, two_a, rr = _tied_setup(seed)
        # shifted down, every objective is negative and the bounds divide
        # by the largest denominator instead of the smallest
        for s1, s2 in ((a1, a2), (a1 - a1.max() - 1.0, a2 - a2.max() - 1.0)):
            for lo, hi in ((-rr, rr), (0.0, 3.0), (-4.0, -1.0)):
                args = (w1, w2, s1, s2, b, two_a, lo, hi)
                cases.append((args, _decode_bruteforce(*args)))
    for _ in _scan_block_sizes(monkeypatch):
        for args, want in cases:
            got = _decode_pruned(*args)
            if want is None:
                assert got is None
            else:
                assert got[1:] == want[1:]
                assert got[0] == pytest.approx(want[0], rel=1e-9)


def test_block_best_matches_scalar_loop():
    rng = np.random.default_rng(5)
    cases = [_tied_setup(seed) for seed in range(10)]
    for seed in range(10):
        cb1, cb2, y = _random_setup(seed, n=10, bits1=7, bits2=8)
        a1, a2, b, two_a = _decode_args(cb1, cb2, y, 1.2, 0.7)
        cases.append((cb1.words, cb2.words, a1, a2, b, two_a, cb1.radius * cb2.radius))
    for w1, w2, a1, a2, b, two_a, rr in cases:
        # blocks of rows in no particular order, columns ascending or not
        rows = rng.permutation(len(a1))[:40]
        cols = rng.permutation(len(a2))[:50]
        for c in (cols, np.sort(cols)):
            gram = w1[rows] @ w2[c].T
            for lo, hi in ((-rr, rr), (0.1 * rr, 0.4 * rr), (2 * rr, 3 * rr)):
                args = (rows, c, gram, a1, a2, b, two_a, lo, hi)
                want = _scalar_block_best(None, *args)
                assert _block_best(None, *args) == want
                # incumbents the block beats, ties at a lower or a higher
                # pair, or does not reach
                incs = [(-math.inf, 0, 0), (0.0, 10**6, 10**6)]
                if want is not None:
                    incs += [want, (want[0], 0, 0), (want[0], 10**6, 10**6),
                             (math.nextafter(want[0], math.inf), 5, 5)]
                for inc in incs:
                    assert _block_best(inc, *args) == _scalar_block_best(inc, *args)


def _score(objectives, best=None, window=(-math.inf, math.inf)):
    """_block_best, checked against the scalar loop, on a block whose entry
    (r, c) has the objective objectives[r][c].  Row r is first word
    2 * (len(objectives) - 1 - r), so the rows come in decreasing index
    order, and column c is second word c + 3.  Each row's numerator a1 + a2 is -1 if
    the row holds a negative objective and 1 otherwise, and the entry's
    correlation g makes 1 / sqrt(g) the objective's size: 1 / f**2, 0 for
    an infinity and -1 for NaN."""
    f = np.array(objectives, dtype=float)
    rows = 2 * np.arange(len(f))[::-1]
    cols = np.arange(f.shape[1]) + 3
    a1 = np.zeros(2 * len(f))
    a1[rows] = np.where((f < 0).any(axis=1), -1.0, 1.0)
    a2 = np.zeros(f.shape[1] + 3)
    gram = np.where(np.isnan(f), -1.0, 1.0 / f ** 2)
    args = (rows, cols, gram, a1, a2, 0.0, 1.0, *window)
    got = _block_best(best, *args)
    assert got == _scalar_block_best(best, *args)
    return got


def test_block_best_skips_nan_and_keeps_infinities():
    nan, inf = math.nan, math.inf
    # every objective NaN, alone or against an incumbent
    assert _score([[nan, nan], [nan, nan]]) is None
    assert _score([[nan, nan]], best=(-inf, 9, 9)) == (-inf, 9, 9)
    # NaN beside finite values: the finite value wins wherever the NaN is
    assert _score([[nan, 1.0], [2.0, nan]]) == (2.0, 0, 3)
    assert _score([[1.0, nan]], best=(0.5, 0, 0)) == (1.0, 0, 3)
    assert _score([[nan, -2.0]]) == (-2.0, 0, 4)
    # infinities are objectives like any other
    assert _score([[-inf, -inf]]) == (-inf, 0, 3)
    assert _score([[-inf, nan], [1.0, inf]]) == (inf, 0, 4)
    assert _score([[inf]], best=(inf, 0, 0)) == (inf, 0, 0)
    # an empty window
    assert _score([[1.0, 2.0]], window=(2.0, 3.0)) is None
    assert _score([[1.0, 2.0]], best=(0.5, 1, 1), window=(2.0, 3.0)) == (0.5, 1, 1)


def test_block_best_breaks_ties_across_rows_toward_the_lowest_pair():
    # first words 6, 4, 2, 0 and second words 5, 3, 4; with a unit numerator
    # and b = 0, two_a = 1 the objective is 1 / sqrt(g), and 2.0 ties at
    # (6, 3), (2, 5), (2, 3) and (0, 4)
    rows = np.array([6, 4, 2, 0])
    cols = np.array([5, 3, 4])
    f = np.array([[1.0, 2.0, 0.5],
                  [1.0, 1.0, 1.0],
                  [2.0, 2.0, 1.0],
                  [0.5, 1.0, 2.0]])
    gram = 1.0 / f ** 2
    a1, a2 = np.zeros(7), np.ones(6)
    consts = (a1, a2, 0.0, 1.0, -math.inf, math.inf)
    assert _block_best(None, rows, cols, gram, *consts) == (2.0, 0, 4)
    assert _scalar_block_best(None, rows, cols, gram, *consts) == (2.0, 0, 4)
    assert _block_best((2.0, 0, 3), rows, cols, gram, *consts) == (2.0, 0, 3)
    assert _block_best((2.0, 1, 0), rows, cols, gram, *consts) == (2.0, 0, 4)
    # the same block scored one row at a time, in the order given
    best = None
    for r in range(len(rows)):
        best = _block_best(best, rows[r:r + 1], cols, gram[r:r + 1], *consts)
    assert best == (2.0, 0, 4)


def test_descending_prefix_matches_stable_argsort():
    rng = np.random.default_rng(3)
    keys = [
        rng.integers(0, 5, size=200).astype(float),   # long runs of ties
        rng.standard_normal(300),
        np.zeros(50),
        np.array([1.0, np.nan, -2.0, 1.0, np.nan, 0.0, -2.0, 1.0]),
    ]
    for key in keys:
        full = np.argsort(key, kind="stable")
        for k in (1, 2, 3, 7, 40, 64, len(key) - 1, len(key), len(key) + 5):
            assert np.array_equal(_descending_prefix(key, k), full[:k])


def test_scan_blocks_stay_under_cap():
    # an empty window makes the scan visit every first word; the doubling
    # blocks must stop growing at the cap
    cb1 = generate_codebook(8, 1.5, 1.0, 1)
    cb2 = generate_codebook(8, 1.5, 1.0, 2)
    a1, a2, b, two_a = _decode_args(cb1, cb2, np.ones(8), 1.0, 1.0)
    rr = cb1.radius * cb2.radius
    tracemalloc.start()
    try:
        got = _decode_pruned(cb1.words, cb2.words, a1, a2, b, two_a, 2 * rr, 3 * rr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got is None
    assert peak < vq_sim._SCAN_BLOCK_BYTES + (1 << 20)


def _full_bound_columns(a1p, a2, best, den_min, den_max):
    """Reference column test: bound(a1p + a2[c]) >= best over every word."""
    num = a1p + a2
    hi = num / den_min if den_min > 0 else np.inf
    lo = num / den_max if den_max > 0 else 0.0
    return np.flatnonzero(np.where(num > 0, hi, lo) >= best)


def _decode_full_filter(w1, w2, a1, a2, b, two_a, glo, ghi, gemms=None):
    """Reference scan: the decoder with every block's columns chosen by the
    full bound() test over all second words.  Appends each GEMM's operand
    rows, (w1[blk], w2[cols]), to gemms."""
    m1, m2 = len(a1), len(a2)
    den_min = math.sqrt(max(b + two_a * glo, 0.0))
    den_max = math.sqrt(max(b + two_a * ghi, 0.0))
    a2max = float(a2.max())

    def row_bound(num):
        if num > 0:
            return num / den_min if den_min > 0 else math.inf
        return num / den_max if den_max > 0 else 0.0

    # the seed: the first _SEED_WORDS of the scan order against the
    # strongest second words, through the library's own seed GEMM
    k2 = min(vq_sim._SEED_WORDS, m2)
    top1 = np.argsort(-a1, kind="stable")[:vq_sim._SEED_WORDS]
    top2 = np.argpartition(-a2, k2 - 1)[:k2] if k2 < m2 else np.arange(m2)
    best = _scalar_block_best(None, top1, top2, w1[top1] @ w2[top2].T,
                              a1, a2, b, two_a, glo, ghi)
    key = -a1
    order = _descending_prefix(key, vq_sim._ORDER_BLOCK)
    cap = max(1, vq_sim._SCAN_BLOCK_BYTES // (8 * m2))
    rows = min(vq_sim._SCAN_ROWS, cap)
    pos = 0
    while pos < m1:
        if pos + rows > len(order):
            order = _descending_prefix(key, max(2 * len(order), pos + rows))
        blk = order[pos:pos + rows]
        if best is None:
            cols = np.arange(m2)
        else:
            cols = _full_bound_columns(a1[blk[0]], a2, best[0], den_min, den_max)
            if not cols.size:
                break
        if gemms is not None:
            gemms.append((w1[blk], w2[cols]))
        gram = w1[blk] @ w2[cols].T
        for p, g in zip(blk, gram):
            if best is not None and row_bound(float(a1[p]) + a2max) < best[0]:
                return best
            sel = np.flatnonzero((g >= glo) & (g <= ghi))
            if sel.size:
                f = (a1[p] + a2[cols][sel]) / np.sqrt(b + two_a * g[sel])
                k = int(np.argmax(f))
                best = _best_update(best, float(f[k]), int(p), int(cols[sel[k]]))
        pos += len(blk)
        rows = min(2 * rows, cap)
    return best


def _ulp_steps(x, k):
    """x moved by -k..k ulps, one float per step."""
    out = [x]
    down = up = x
    for _ in range(k):
        down = math.nextafter(down, -math.inf)
        up = math.nextafter(up, math.inf)
        out += [down, up]
    return np.array(out)


def test_filter_candidates_contain_the_exact_columns():
    rng = np.random.default_rng(12)
    words = candidates = edge_pass = edge_fail = 0
    for case in range(300):
        a1p = float(rng.choice([0.0, 1.0, -2.0, 1e8, -1e8, 1e15, -1e15])
                    * rng.uniform(0.5, 2.0))
        den_min = float(rng.uniform(0.1, 10.0))
        den_max = den_min * float(rng.uniform(1.0, 3.0))
        best = float(rng.uniform(0.01, 5.0))
        t = best * den_min
        thr = t - a1p
        # random words around the threshold, and words at the threshold
        # and the sum's scale moved by 1 to 64 ulps
        spread = rng.choice([1e-6, 1.0, 1e3]) * (abs(thr) + 1.0)
        edge = np.concatenate((
            _ulp_steps(thr, 64),
            thr + np.arange(-64, 65) * math.ulp(t + abs(a1p))))
        a2 = np.concatenate((thr + spread * rng.standard_normal(4096), edge))
        rng.shuffle(a2)
        exact = _full_bound_columns(a1p, a2, best, den_min, den_max)
        cand = _filter_candidates(a1p, a2, best, den_min)
        assert np.all(np.diff(cand) > 0)
        assert np.isin(exact, cand).all(), case
        words += len(a2)
        candidates += len(cand)
        at_edge = np.isin(a2, edge)
        passed = np.zeros(len(a2), dtype=bool)
        passed[exact] = True
        edge_pass += int((at_edge & passed).sum())
        edge_fail += int((at_edge & ~passed).sum())
    # the compare does prune, and the edge words fall on both sides
    assert candidates < 0.75 * words
    assert edge_pass and edge_fail


@pytest.mark.parametrize("best, den_min", [
    (0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, 0.0),
    (5e-324, 1.0),         # a subnormal incumbent
    (1e-300, 1e-10),       # a subnormal threshold
    (1e300, 1e10),         # a threshold that overflows
])
def test_filter_candidates_are_every_word_without_a_threshold(best, den_min):
    a2 = np.random.default_rng(2).standard_normal(50)
    assert np.array_equal(_filter_candidates(0.5, a2, best, den_min), np.arange(50))


class _GemmLog:
    """numpy, with np.matmul recording its operand rows (a, b.T)."""

    def __init__(self):
        self.gemms = []

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, a, b, out=None):
        self.gemms.append((a, b.T))
        return np.matmul(a, b, out=out)


def _filter_cases():
    for seed in range(3):
        cb1, cb2, y = _random_setup(seed, n=12, bits1=10, bits2=12)
        a1, a2, b, two_a = _decode_args(cb1, cb2, y, 1.3 * _channel_gain(cb1, 1.0),
                                        0.9 * _channel_gain(cb2, 1.0))
        rr = cb1.radius * cb2.radius
        # as drawn; every objective negative; a large first-side shift
        for s1, s2 in ((a1, a2), (a1 - a1.max() - 1.0, a2 - a2.max() - 1.0),
                       (a1 + 1e6, a2 - 1e6)):
            for lo, hi in ((-rr, rr), (0.1 * rr, 0.4 * rr), (-0.2 * rr, 0.05 * rr)):
                yield cb1.words, cb2.words, s1, s2, b, two_a, lo, hi


def test_every_block_keeps_the_full_tests_columns(monkeypatch):
    cases = list(_filter_cases())
    for _ in _scan_block_sizes(monkeypatch):
        for args in cases:
            want = []
            ref = _decode_full_filter(*args, gemms=want)
            log = _GemmLog()
            with monkeypatch.context() as m:
                m.setattr(vq_sim, "np", log)
                got = _decode_pruned(*args)
            assert got == ref
            assert len(log.gemms) == len(want)
            for (ga, gb), (wa, wb) in zip(log.gemms, want):
                assert np.array_equal(ga, wa)
                assert np.array_equal(gb, wb)


@pytest.fixture(scope="module")
def bench_n32():
    """The bench's instance at n = 32 (2^16 words a side) and the channel
    correlations of its first trials."""
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    rates = make_rate_pair(c, 0.5, 0.5)
    cb1 = generate_codebook(32, 0.5, 1.0, derive_seed(7, vq_sim._STREAM_CODEBOOK1))
    cb2 = generate_codebook(32, 0.5, 1.0, derive_seed(7, vq_sim._STREAM_CODEBOOK2))
    alpha1, alpha2 = _channel_gain(cb1, c.p1), _channel_gain(cb2, c.p2)
    rows = []
    for k in range(4):
        s1, s2, z = sample_source_and_noise(c, 32, derive_seed(7, vq_sim._STREAM_TRIAL, k))
        _, x1 = encode(cb1, s1[None], c.p1)
        _, x2 = encode(cb2, s2[None], c.p2)
        y = (x1 + x2)[0] + z
        rows.append((alpha1 * (cb1.words @ y), alpha2 * (cb2.words @ y)))
    return rates.rho_tilde, cb1, cb2, alpha1, alpha2, rows


def _decode_both(monkeypatch, *args):
    got = decode(*args)
    with monkeypatch.context() as m:
        m.setattr(vq_sim, "_decode_pruned", _decode_full_filter)
        want = decode(*args)
    assert got == want
    return got


# (rho_t, delta_typ): a window inside the pairs, one opened to -rr and one
# above every pair, which only the 2^6-word codebooks take, as its empty
# first pass visits every pair
@pytest.mark.parametrize("n, bits, seeds, windows", [
    (8, 6, 4, ((0.2, 0.3), (0.0, 1.0), (0.999, 1e-6))),
    (12, 12, 2, ((0.2, 0.3), (0.0, 1.0))),
], ids=["2^6-words", "2^12-words"])
def test_decode_matches_full_filter_reference(monkeypatch, n, bits, seeds, windows):
    fell = 0
    for seed in range(seeds):
        cb1, cb2, y = _random_setup(seed, n=n, bits1=bits, bits2=bits)
        rr = cb1.radius * cb2.radius
        assert cb1.radius == cb2.radius
        for alpha1, alpha2 in ((1.3, 0.7), (1.0, 1.0)):
            a1, a2, b, two_a = _decode_args(cb1, cb2, y, alpha1, alpha2)
            for s1, s2 in ((a1, a2), (a1 - a1.max() - 1.0, a2 - a2.max() - 1.0)):
                for rho_t, delta in windows:
                    if (alpha1, rho_t) == (1.0, 0.0):
                        # the window opens to -rr with alpha1 r1 = alpha2 r2
                        assert b + two_a * -rr == 0.0
                    fell += _decode_both(monkeypatch, cb1, cb2, s1, s2, rho_t, delta,
                                         alpha1, alpha2).fallback
    assert fell == (bits == 6) * seeds * 4


def test_decode_matches_full_filter_reference_at_2_16_words(monkeypatch, bench_n32):
    rho_t, cb1, cb2, alpha1, alpha2, rows = bench_n32
    for a1, a2 in rows:
        for s1, s2 in ((a1, a2), (a1 - a1.max() - 1.0, a2 - a2.max() - 1.0),
                       (a1 + 1e6, a2 - 1e6)):
            for delta in (0.4, 0.05):
                _decode_both(monkeypatch, cb1, cb2, s1, s2, rho_t, delta, alpha1, alpha2)


def test_decode_peak_memory_is_independent_of_codebook_temporaries(bench_n32):
    # a scan that re-ran bound() over every second word made four float
    # temporaries of 2^16 words per GEMM block and peaked at 6.57 MiB; 4 MiB
    # of the bound is the preallocated GEMM buffer
    rho_t, cb1, cb2, alpha1, alpha2, rows = bench_n32
    a1, a2 = rows[0]
    decode(cb1, cb2, a1, a2, rho_t, 0.4, alpha1, alpha2)
    tracemalloc.start()
    try:
        decode(cb1, cb2, a1, a2, rho_t, 0.4, alpha1, alpha2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 << 20


def test_decode_recovers_noiseless_sum():
    cb1, cb2, _ = _random_setup(99)
    alpha1, alpha2 = 1.1, 0.8
    y = alpha1 * cb1.words[7] + alpha2 * cb2.words[3]
    res = _decode_one(cb1, cb2, y, 0.0, 1.0, alpha1, alpha2)
    assert (res.index1, res.index2) == (7, 3)
    assert not res.fallback


def test_decode_empty_window_falls_back():
    cb1, cb2, y = _random_setup(5)
    alpha1 = _channel_gain(cb1, 1.0)
    alpha2 = _channel_gain(cb2, 1.0)
    rr = cb1.radius * cb2.radius
    gmax = float(np.max(cb1.words @ cb2.words.T))
    # the requested window sits above every codeword pair's inner product
    assert gmax < 0.99 * rr
    res = _decode_one(cb1, cb2, y, 0.999, 1e-6, alpha1, alpha2)
    assert res.fallback
    a1, a2, b, two_a = _decode_args(cb1, cb2, y, alpha1, alpha2)
    want = _decode_bruteforce(cb1.words, cb2.words, a1, a2, b, two_a, -rr, rr)
    assert (res.index1, res.index2) == want[1:]


def test_simulate_thread_invariance():
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    rates = make_rate_pair(c, 0.5, 0.5)
    # 40 trials fit one block; 133 span five, more than the four threads,
    # the last one partial
    assert vq_sim._trial_block(64) == 32
    for trials in (40, 133):
        a = simulate_vq(c, rates, 12, trials, delta_typ=0.4, seed=21, threads=1)
        b = simulate_vq(c, rates, 12, trials, delta_typ=0.4, seed=21, threads=4)
        assert not math.isnan(a.cond_d1)
        assert repr(a) == repr(b)


_SYM = symmetric_instance(1.0, 0.8, 10.0, 1.0)
# unequal variances and powers, negative correlation
_ASYM = canonicalize(ProblemInstance(1.5, 0.4, -0.7, 3.0, 0.8, 0.5))


@pytest.mark.parametrize("block", [None, 1, 3])
@pytest.mark.parametrize("c, r1, r2, n, delta_typ", [
    (_SYM, 0.5, 0.5, 16, 0.4),
    (_SYM, 0.5, 0.5, 24, 0.4),
    (_ASYM, 0.9, 0.3, 10, 0.05),
    (_ASYM, 0.0, 0.75, 12, 0.05),     # a zero-rate side
    (_SYM, 0.5, 0.5, 12, 1e-6),       # every trial falls back
], ids=["sym-n16", "sym-n24", "asym-neg-rho", "zero-rate", "fallback"])
def test_blocked_simulation_matches_per_trial_reference(
        monkeypatch, block, c, r1, r2, n, delta_typ):
    if block is not None:
        # 17 trials then make 17 one-row blocks, or six blocks of which
        # the last is partial
        monkeypatch.setattr(vq_sim, "_TRIAL_BLOCK", block)
    rates = make_rate_pair(c, r1, r2)
    for seed in (31, 32):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            got = simulate_vq(c, rates, n, 17, delta_typ=delta_typ, seed=seed, threads=2)
            want = _simulate_one_by_one(c, rates, n, 17, delta_typ, seed)
        assert repr(got) == repr(want)
        if delta_typ < 1e-3:
            assert got.fallback_count == got.trials


def test_trial_block_gemm_outputs_stay_under_cap(monkeypatch):
    # at 4,096 words a side, one trial's correlation row is 32 KiB; 64
    # trials in one block would make 2 MiB GEMM outputs per side
    cap = 256 << 10
    monkeypatch.setattr(vq_sim, "_TRIAL_BLOCK_BYTES", cap)
    monkeypatch.setattr(vq_sim, "_SCAN_BLOCK_BYTES", 64 << 10)
    assert vq_sim._trial_block(4096) == 8
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    rates = make_rate_pair(c, 0.75, 0.75)
    words = 2 * 4096 * 16 * 8
    simulate_vq(c, rates, 16, 1, delta_typ=0.4, seed=3)  # one-time allocations
    tracemalloc.start()
    try:
        simulate_vq(c, rates, 16, 64, delta_typ=0.4, seed=3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < words + 3 * cap + (256 << 10)


def test_simulate_trial_cap_refuses_before_allocating():
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="cap is 64 MiB"):
            simulate_vq(c, make_rate_pair(c, 0.5, 0.5), 32, (1 << 20) + 1, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_simulate_zero_rate():
    c = symmetric_instance(1.0, 0.5, 1.0, 1.0)
    stats = simulate_vq(c, make_rate_pair(c, 0.0, 0.0), 16, 150, seed=13)
    assert stats.decode_error_count == 0
    assert stats.realized_r1 == 0.0
    assert stats.empirical_d1 == pytest.approx(1.0, rel=0.1)
    assert stats.quantizer_mse1 == pytest.approx(1.0, rel=0.1)


def test_simulate_rejects_empty_batch():
    c = symmetric_instance(1.0, 0.5, 1.0, 1.0)
    with pytest.raises(ValueError):
        simulate_vq(c, make_rate_pair(c, 0.5, 0.5), 8, 0, seed=0)


def test_simulate_warns_outside_region():
    c = symmetric_instance(1.0, 0.5, 0.5, 1.0)
    with pytest.warns(UserWarning):
        simulate_vq(c, make_rate_pair(c, 1.5, 1.5), 8, 2, seed=0)


def test_simulate_high_snr_small_codebook():
    # codewords stay far apart, so the decoder almost never errs
    c = symmetric_instance(1.0, 0.8, 100.0, 1.0)
    stats = simulate_vq(c, make_rate_pair(c, 0.25, 0.25), 8, 50,
                        delta_typ=1.0, seed=17)
    assert stats.decode_error_count <= 5
    assert stats.fallback_count == 0
    assert stats.realized_r1 == 0.25
    assert stats.trials == 50
    assert stats.blocklength == 8
