"""Test session settings.

Property tests draw their examples from one hypothesis profile: examples
are derived from each test's own code rather than a random seed, nothing
is saved between runs, and no per-example deadline applies.  A test that
needs a different example count sets max_examples itself.  Hypothesis
still caches what it reads from local source files; that cache goes to a
temporary directory, removed at the end of the session, so no .hypothesis/
directory is written into the checkout.

The symmetric_root fixture checks a symmetric VQ operating point against
the fixed point computed in 60-digit arithmetic.
"""
import math
import os
import shutil
import tempfile

import pytest

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    settings = None

_storage = None
if settings is not None:
    settings.register_profile("gmacdist", derandomize=True, database=None,
                              deadline=None, max_examples=50)
    settings.load_profile("gmacdist")
    if "HYPOTHESIS_STORAGE_DIRECTORY" not in os.environ:
        _storage = tempfile.mkdtemp(prefix="gmacdist-hypothesis-")
        os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = _storage


def pytest_unconfigure(config):
    if _storage is not None:
        shutil.rmtree(_storage, ignore_errors=True)


def _root60(sigma_sq, rho, p, noise_var, r):
    """The symmetric fixed point in 60-digit arithmetic, as (rate,
    distortion, q).  The root of F (see solve_symmetric_rate) is bracketed
    within 2^-30 relative of the q or e of the rate r, the bracket checked
    by the signs of F at its ends, and refined by Newton steps."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(60):
        rho, s = mpmath.mpf(rho), mpmath.mpf(p) / noise_var
        a, b = 1 + rho ** 2, (1 - rho) * (1 + rho)
        on_q = s * (2 + rho) > 3 - rho ** 2

        def qe(x):
            return (x, 1 - x) if on_q else (1 - x, x)

        def f(x):  # F on q, -F on e: increasing in x either way
            q, e = qe(x)
            return (1 if on_q else -1) * (2 * s * q ** 2 * (1 + rho * e) - e * (a * q + b))

        def fp(x):
            q, e = qe(x)
            return 2 * s * q * (2 + 2 * rho * e - rho * q) + a * q + b - a * e

        r2 = -2 * mpmath.mpf(r) * mpmath.log(2)
        x = mpmath.exp(r2) if on_q else -mpmath.expm1(r2)
        width = x * mpmath.mpf(2) ** -30
        assert f(x - width) < 0 < f(x + width)
        for _ in range(6):
            x -= f(x) / fp(x)
        q, e = qe(x)
        rate = -mpmath.log(q, 2) / 2 if on_q else -mpmath.log1p(-e) / (2 * mpmath.log(2))
        d = sigma_sq * q * (b + rho ** 2 * q) / (((1 - rho) + rho * q) * (1 + rho * e))
        return rate, d, q


_TINY = 2.0 ** -1022


def _assert_is_the_root(sigma_sq, rho, p, noise_var, r, d):
    """r within 4 ulps of the 60-digit root, and d within 4 ulps, or within
    4 * 2^-1074 where d is subnormal.  Where q itself is subnormal, at rho
    = 1 and p / noise_var above about 2^1021, the solved q lies on the
    subnormal grid and d = sigma_sq q / (2 - q) carries that grid's spacing
    times sigma_sq, so d is within 4 * sigma_sq * 2^-1074 there."""
    want_r, want_d, q = _root60(sigma_sq, rho, p, noise_var, r)
    assert abs(r - want_r) <= 4 * math.ulp(float(want_r))
    if q < _TINY:
        tol = 4 * max(sigma_sq, 1.0) * 2.0 ** -1074
    else:
        tol = 4 * (math.ulp(float(want_d)) if want_d >= _TINY else 2.0 ** -1074)
    assert abs(d - want_d) <= tol


@pytest.fixture
def symmetric_root():
    """assert_is_the_root(sigma_sq, rho, p, noise_var, rate, distortion)."""
    return _assert_is_the_root
