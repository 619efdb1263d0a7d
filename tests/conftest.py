"""Test session settings.

Property tests draw their examples from one hypothesis profile: examples
are derived from each test's own code rather than a random seed, nothing
is saved between runs, and no per-example deadline applies.  A test that
needs a different example count sets max_examples itself.  Hypothesis
still caches what it reads from local source files; that cache goes to a
temporary directory, removed at the end of the session, so no .hypothesis/
directory is written into the checkout.
"""
import os
import shutil
import tempfile

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
