import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gmacdist import vq_sim
from gmacdist.model import (
    ProblemInstance,
    TrialCountError,
    canonicalize,
    derive_seed,
    sample_source_and_noise,
    symmetric_instance,
)
from gmacdist.vq_analytic import make_rate_pair
from gmacdist.vq_sim import (
    CodebookSizeError,
    VqTrialStats,
    _best_update,
    _channel_gain,
    _decode_pruned,
    _descending_prefix,
    _seed_incumbent,
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
        batch = sample_source_and_noise(c, n, derive_seed(seed, vq_sim._STREAM_TRIAL, k))
        i1, x1 = _encode_one(cb1, batch.s1, c.p1)
        i2, x2 = _encode_one(cb2, batch.s2, c.p2)
        y = x1 + x2 + batch.z
        dec = _decode_one(cb1, cb2, y, rates.rho_tilde, delta_typ, alpha1, alpha2)
        u1 = cb1.words[dec.index1]
        u2 = cb2.words[dec.index2]
        e1 = batch.s1 - (beta1 * u1 + gamma1 * u2)
        e2 = batch.s2 - (beta2 * u1 + gamma2 * u2)
        q1 = batch.s1 - cb1.words[i1]
        q2 = batch.s2 - cb2.words[i2]
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
    with pytest.raises(CodebookSizeError):
        generate_codebook(64, 0.5, 1.0, 0)


@pytest.mark.parametrize("rate", [-0.1, math.inf, math.nan])
def test_codebook_refuses_negative_or_nonfinite_rate(rate):
    with pytest.raises(ValueError, match="nonnegative and finite"):
        generate_codebook(8, rate, 1.0, 0)


def test_codebook_byte_cap_rejects_before_allocating():
    # 22 bits is within the bit cap, but 2^22 words of 64 doubles is 2 GiB
    tracemalloc.start()
    try:
        with pytest.raises(CodebookSizeError, match="MiB"):
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


def test_seed_incumbent_matches_scalar_loop():
    def scalar(w1, w2, a1, a2, b, two_a, glo, ghi):
        k1, k2 = min(64, len(a1)), min(64, len(a2))
        top1 = np.argpartition(-a1, k1 - 1)[:k1] if k1 < len(a1) else np.arange(len(a1))
        top2 = np.argpartition(-a2, k2 - 1)[:k2] if k2 < len(a2) else np.arange(len(a2))
        best = None
        for i in top1:
            for j in top2:
                g = w1[i] @ w2[j]
                if glo <= g <= ghi:
                    f = (a1[i] + a2[j]) / np.sqrt(b + two_a * g)
                    best = _best_update(best, float(f), int(i), int(j))
        return best

    cases = [_tied_setup(seed) for seed in range(10)]
    for seed in range(10):
        cb1, cb2, y = _random_setup(seed, n=10, bits1=7, bits2=8)
        a1, a2, b, two_a = _decode_args(cb1, cb2, y, 1.2, 0.7)
        cases.append((cb1.words, cb2.words, a1, a2, b, two_a, cb1.radius * cb2.radius))
    for w1, w2, a1, a2, b, two_a, rr in cases:
        for lo, hi in ((-rr, rr), (0.1 * rr, 0.4 * rr), (2 * rr, 3 * rr)):
            got = _seed_incumbent(w1, w2, a1, a2, b, two_a, lo, hi)
            assert got == scalar(w1, w2, a1, a2, b, two_a, lo, hi)


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


@pytest.mark.parametrize("block", [None, 3])
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
        # 17 trials then make six blocks, the last one partial
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
        with pytest.raises(TrialCountError, match="cap is 64 MiB"):
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
