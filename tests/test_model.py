import math
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from gmacdist import model
from gmacdist.acceptance import run_all
from gmacdist.model import (
    MAX_THREADS,
    CanonicalInstance,
    DistortionPair,
    ProblemInstance,
    TrialCountError,
    canonicalize,
    check_threads,
    check_trial_bytes,
    decanonicalize_distortion,
    derive_seed,
    row_dots,
    run_pooled,
    sample_source_and_noise,
    symmetric_instance,
)
from gmacdist.uncoded import simulate_uncoded, uncoded_distortions
from gmacdist.vq_analytic import make_rate_pair
from gmacdist.vq_sim import simulate_vq


def test_derive_seed_is_stable():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    assert derive_seed(7, 1, 2) != derive_seed(7, 2, 1)
    assert derive_seed(7, 0) != derive_seed(7, 1)
    assert 0 <= derive_seed(2**64 - 1, 2**63) < 2**64


@pytest.mark.parametrize("bad", [
    dict(sigma1_sq=0.0),
    dict(sigma2_sq=-1.0),
    dict(rho=1.5),
    dict(rho=-1.01),
    dict(p1=0.0),
    dict(p2=-2.0),
    dict(noise_var=0.0),
    dict(sigma2_sq=math.inf),
    dict(p1=math.inf),
    dict(p2=math.nan),
    dict(noise_var=math.inf),
])
def test_instance_validation(bad):
    kwargs = dict(sigma1_sq=1.0, sigma2_sq=1.0, rho=0.5, p1=1.0, p2=1.0,
                  noise_var=1.0)
    kwargs.update(bad)
    with pytest.raises(ValueError):
        ProblemInstance(**kwargs)


def test_canonicalize_identity():
    c = canonicalize(ProblemInstance(1.0, 1.0, 0.5, 2.0, 2.0, 3.0))
    assert (c.sigma_sq, c.rho, c.p1, c.p2, c.noise_var) == (1.0, 0.5, 2.0, 2.0, 3.0)
    assert c.scale2 == 1.0


def test_canonicalize_rescales_and_flips():
    c = canonicalize(ProblemInstance(4.0, 1.0, -0.5, 1.0, 1.0, 1.0))
    assert c.sigma_sq == 4.0
    assert c.rho == 0.5
    # the sign flip leaves nothing behind in the canonical form
    assert c == canonicalize(ProblemInstance(4.0, 1.0, 0.5, 1.0, 1.0, 1.0))
    # scale2 carries canonical second-component distortions back to original
    # units, so it is the variance ratio sigma2_sq / sigma1_sq
    assert c.scale2 == pytest.approx(0.25, rel=1e-15)


def test_sign_flip_only_changes_flag():
    a = canonicalize(ProblemInstance(2.0, 3.0, 0.4, 1.0, 2.0, 1.0))
    b = canonicalize(ProblemInstance(2.0, 3.0, -0.4, 1.0, 2.0, 1.0))
    assert a.rho == b.rho and a.scale2 == b.scale2
    assert a == b


def test_decanonicalize_multiplies_by_recorded_scale():
    c = CanonicalInstance(1.0, 0.5, 1.0, 1.0, 1.0, scale2=4.0)
    out = decanonicalize_distortion(c, DistortionPair(0.5, 0.5))
    assert (out.d1, out.d2) == (0.5, 2.0)
    c = CanonicalInstance(1.0, 0.5, 1.0, 1.0, 1.0, scale2=1.0 / 9.0)
    out = decanonicalize_distortion(c, DistortionPair(0.9, 0.9))
    assert out.d1 == 0.9
    assert out.d2 == pytest.approx(0.1, rel=1e-12)


def test_distortion_scaling_round_trip():
    c = canonicalize(ProblemInstance(2.0, 5.0, 0.3, 1.0, 4.0, 1.5))
    d = DistortionPair(0.7, 1.9)
    back = decanonicalize_distortion(c, DistortionPair(d.d1, d.d2 / c.scale2))
    assert back.d1 == pytest.approx(d.d1, rel=1e-12)
    assert back.d2 == pytest.approx(d.d2, rel=1e-12)


def test_scale_convention_matches_physical_units():
    # simulate the original, non-canonical problem directly: component 2 has
    # variance 9, its sender scales by sqrt(p2/9), and the receiver estimates
    # each component from the single channel output.  The decanonicalized
    # closed form must land in these original units.
    inst = ProblemInstance(1.0, 9.0, 0.6, 2.0, 3.0, 1.0)
    c = canonicalize(inst)
    res = uncoded_distortions(c)
    ana = decanonicalize_distortion(c, DistortionPair(res.d1, res.d2))

    rng = np.random.default_rng(123)
    n = 400_000
    g = rng.standard_normal((2, n))
    s1 = g[0]
    s2 = 3.0 * (0.6 * g[0] + math.sqrt(1.0 - 0.36) * g[1])
    y = math.sqrt(2.0) * s1 + math.sqrt(3.0 / 9.0) * s2 + rng.standard_normal(n)
    for s, expect in ((s1, ana.d1), (s2, ana.d2)):
        w = (s @ y) / (y @ y)
        emp = np.mean((s - w * y) ** 2)
        assert emp == pytest.approx(expect, rel=0.02)


def test_sampling_is_deterministic():
    c = symmetric_instance(1.0, 0.5, 2.0, 3.0)
    a = sample_source_and_noise(c, 1000, 42)
    b = sample_source_and_noise(c, 1000, 42)
    assert a.shape == (3, 1000)
    assert np.array_equal(a, b)


def test_sampling_moments():
    c = symmetric_instance(2.0, 0.3, 1.0, 0.5)
    s1, s2, z = sample_source_and_noise(c, 1_000_000, 9)
    assert np.var(s1) == pytest.approx(2.0, rel=0.01)
    assert np.var(s2) == pytest.approx(2.0, rel=0.01)
    assert np.var(z) == pytest.approx(0.5, rel=0.01)
    corr = np.corrcoef(s1, s2)[0, 1]
    assert corr == pytest.approx(0.3, abs=0.005)


def test_sampling_perfect_correlation():
    c = symmetric_instance(1.0, 1.0, 1.0, 1.0)
    s1, s2, _ = sample_source_and_noise(c, 100, 5)
    assert np.allclose(s1, s2, rtol=0, atol=1e-12)


def _two_rows_then_noise(c, n, seed):
    """s1, s2 and z from a (2, n) draw and then an n draw, fresh arrays each."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((2, n))
    zg = rng.standard_normal(n)
    sd = math.sqrt(c.sigma_sq)
    return (sd * g[0], sd * (c.rho * g[0] + math.sqrt(1.0 - c.rho * c.rho) * g[1]),
            math.sqrt(c.noise_var) * zg)


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


@pytest.mark.parametrize("n", [1, 32, 65_536])
def test_sampling_in_place_equals_two_rows_then_noise(n):
    c = CanonicalInstance(2.0, 0.6, 1.0, 1.0, 0.7)
    out = np.full((4, n + 9), np.nan)
    for seed in (17, 18):
        want = [_bits(a) for a in _two_rows_then_noise(c, n, seed)]
        fresh = sample_source_and_noise(c, n, seed)
        reused = sample_source_and_noise(c, n, seed, out=out)
        for batch in (fresh, reused):
            got = [_bits(a) for a in batch]
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        assert all(np.shares_memory(a, out[i, :n]) for i, a in enumerate(reused))
    # nothing outside out[:3, :n] is written
    assert np.isnan(out[3]).all() and np.isnan(out[:, n:]).all()


def _row_dots_mismatches():
    """The cases where row_dots differs in any bit from a per-row 1-D @:
    contiguous rows at lengths 1-64 and 65,536, and the strided row views
    the simulators pass (a partial chunk's rows 1-4, one trial of a
    (3, trials, n) block)."""
    rng = np.random.default_rng(2024)
    cases = []
    for n in (*range(1, 65), 65_536):
        a, b = rng.standard_normal((2, 5, n))
        cases += [(f"n={n}", a, b), (f"n={n}, b=a", a, None)]
    block = rng.standard_normal((6, 1 << 16))
    cases.append(("block[1:5, :size]", block[1:5, :40_000], None))
    draws = rng.standard_normal((3, 7, 33))
    cases.append(("draws[:, t]", draws[:, 2], draws[:, 5]))
    bad = []
    for name, a, b in cases:
        other = a if b is None else b
        want = np.array([a[t] @ other[t] for t in range(len(a))])
        if not np.array_equal(_bits(row_dots(a, b)), _bits(want)):
            bad.append(name)
    return bad


def test_row_dots_equals_per_row_matmul():
    assert _row_dots_mismatches() == []


def test_row_dots_equals_per_row_matmul_under_one_blas_thread():
    root = Path(__file__).resolve().parents[1]
    path = os.environ.get("PYTHONPATH")
    src = str(root / "src")
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": src if not path else src + os.pathsep + path}
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import test_model; "
            "print(test_model._row_dots_mismatches())")
    proc = subprocess.run([sys.executable, "-c", code, str(root / "tests")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_canonical_instance_refuses_a_zero_scale():
    with pytest.raises(ValueError, match="scale factor must be positive"):
        CanonicalInstance(1.0, 0.5, 1.0, 1.0, 1.0, scale2=0.0)


def test_sampling_rejects_empty_batch():
    c = symmetric_instance(1.0, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        sample_source_and_noise(c, 0, 1)


@pytest.fixture
def pools_started(monkeypatch):
    """The max_workers of every pool run_pooled starts, in order."""
    started = []

    class Recording(model.ThreadPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(model, "ThreadPoolExecutor", Recording)
    return started


def test_pool_size_never_exceeds_work_items(pools_started):
    # the pool has min(threads, items) workers, and none when that is one
    for threads, items in ((1, 10), (4, 14), (4, 1), (10**9, 3)):
        run_pooled(lambda k: None, items, threads)
    assert pools_started == [4, 3]


def test_run_pooled_starts_no_idle_workers(pools_started):
    # a huge thread count asks the pool for only as many workers as items
    for threads, items in ((10**9, 3), (1, 5), (8, 1)):
        done = []
        run_pooled(done.append, items, threads)
        assert sorted(done) == list(range(items))
    assert pools_started == [3]


def test_thread_cap_refuses_before_any_thread_starts(monkeypatch):
    def no_thread(self):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    check_threads(MAX_THREADS)
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    for call in (lambda: check_threads(MAX_THREADS + 1),
                 lambda: simulate_uncoded(c, 10, 1, threads=MAX_THREADS + 1),
                 lambda: simulate_vq(c, make_rate_pair(c, 0.5, 0.5), 4, 10,
                                     threads=MAX_THREADS + 1),
                 lambda: run_all(threads=10**9)):
        with pytest.raises(ValueError, match=f"at most {MAX_THREADS}"):
            call()


def test_thread_count_below_one_is_refused():
    c = symmetric_instance(1.0, 0.5, 2.0, 3.0)
    for call in (lambda: check_threads(0),
                 lambda: simulate_uncoded(c, 10, 1, threads=0)):
        with pytest.raises(ValueError, match="at least 1, got 0"):
            call()


def test_trial_bytes_cap():
    check_trial_bytes(1, model.MAX_TRIAL_BYTES)
    with pytest.raises(TrialCountError, match="cap is 64 MiB"):
        check_trial_bytes(7, model.MAX_TRIAL_BYTES + 1)
