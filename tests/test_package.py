"""The package's top-level surface is the README's Library section."""
import contextlib
import io
import re
from pathlib import Path

import gmacdist

README = Path(__file__).resolve().parent.parent / "README.md"


def test_package_exports_the_readme_names():
    assert sorted(gmacdist.__all__) == sorted([
        "DistortionPair", "ProblemInstance", "canonicalize",
        "decanonicalize_distortion", "symmetric_instance", "verdict",
        "uncoded_distortions", "solve_symmetric_rate", "simulate_uncoded",
        "__version__",
    ])
    for name in gmacdist.__all__:
        assert hasattr(gmacdist, name), name


def test_readme_library_example_runs_as_written():
    (block,) = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "UNCODED_ACHIEVES"
    assert float(lines[1]) == 0.5
    assert len(lines) == 4
