"""Property: every subcommand either prints a document that validates
against its schema and exits 0, or exits 1 with exactly one "error:" line
on stderr, and never raises.

Instances draw rho over [-1, 1] (the ends included) and variances, powers
and noise over the positive finite doubles, 5e-324 and the largest double
included.  Rates lie in [0, 2] and blocklengths in [1, 4], so a codebook
has at most 2^8 words; runs have few trials and sweeps at most 8 points.
"""
import contextlib
import functools
import io
import json
import time
from pathlib import Path

import pytest

hypothesis = pytest.importorskip("hypothesis")
jsonschema = pytest.importorskip("jsonschema")
from hypothesis import given, settings, strategies as st  # noqa: E402

import gmacdist.cli as cli  # noqa: E402

# examples per subcommand, and the wall-clock bound on each call
EXAMPLES = 100
SECONDS_PER_CALL = 2.0

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

DBL_MAX = 1.7976931348623157e308
positive = st.one_of(
    st.sampled_from([5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0, 1e300, DBL_MAX]),
    st.floats(min_value=5e-324, max_value=DBL_MAX))
rho = st.one_of(st.sampled_from([-1.0, 0.0, 1.0]), st.floats(-1.0, 1.0))
rate = st.floats(0.0, 2.0)
seeded = st.tuples(st.integers(0, 2 ** 32), st.integers(1, 2)).map(
    lambda t: ("--seed", str(t[0]), "--threads", str(t[1])))


def _flags(*pairs):
    return tuple(x for flag, v in pairs for x in (flag, repr(v)))


@st.composite
def instance(draw, equal_powers=False):
    """Instance flags: --sigma2 or --var1/--var2, --p or --p1/--p2, --noise."""
    if draw(st.booleans()):
        variances = [("--sigma2", draw(positive))]
    else:
        variances = [("--var1", draw(positive)), ("--var2", draw(positive))]
    if equal_powers or draw(st.booleans()):
        powers = [("--p", draw(positive))]
    else:
        powers = [("--p1", draw(positive)), ("--p2", draw(positive))]
    return _flags(*variances, ("--rho", draw(rho)), *powers, ("--noise", draw(positive)))


@st.composite
def snr_grid(draw):
    start, stop = draw(positive), draw(positive)
    count, scale = draw(st.integers(1, 8)), draw(st.sampled_from(["log", "lin"]))
    return f"{start!r}:{stop!r}:{count}:{scale}"


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    assert time.perf_counter() - start < SECONDS_PER_CALL, argv
    return code, out.getvalue(), err.getvalue()


@functools.lru_cache(maxsize=None)
def _validator(schema):
    with open(SCHEMAS / f"{schema}.json") as fh:
        doc = json.load(fh)
    return jsonschema.validators.validator_for(doc)(doc)


def _check(argv, schema):
    code, out, err = _run(argv)
    if code == 0:
        _validator(schema).validate(json.loads(out))
    else:
        assert code == 1, argv
        assert out == "", argv
        assert [ln for ln in err.splitlines() if ln.startswith("error: ")] == [
            err.splitlines()[-1]], argv
        assert "Traceback" not in err, argv


COMMANDS = {
    "bounds": st.tuples(instance(), positive, positive).map(
        lambda t: ("bounds", *t[0], *_flags(("--d1", t[1]), ("--d2", t[2])))),
    "uncoded": instance().map(lambda f: ("uncoded", *f)),
    "vq-bound-symmetric": instance(equal_powers=True).map(lambda f: ("vq-bound", *f)),
    "vq-bound-pair": st.tuples(instance(), rate, rate).map(
        lambda t: ("vq-bound", *t[0], *_flags(("--r1", t[1]), ("--r2", t[2])))),
    "simulate-uncoded": st.tuples(instance(), seeded, st.integers(1, 200)).map(
        lambda t: ("simulate-uncoded", *t[0], *t[1], "--trials", str(t[2]))),
    "simulate-vq": st.tuples(instance(), seeded, rate, rate, st.integers(1, 4),
                             st.integers(1, 4), st.floats(0.0, 2.0)).map(
        lambda t: ("simulate-vq", *t[0], *t[1], *_flags(("--r1", t[2]), ("--r2", t[3])),
                   "-n", str(t[4]), "--trials", str(t[5]), "--delta-typ", repr(t[6]))),
    "sweep-snr": st.tuples(rho, positive, snr_grid(), st.booleans()).map(
        lambda t: ("sweep", *_flags(("--rho", t[0]), ("--sigma2", t[1])),
                   "--snr-grid", t[2], "--format", "json", *(("--convexify",) if t[3] else ()))),
    "sweep-boundary": st.tuples(instance(), st.integers(2, 8)).map(
        lambda t: ("sweep", *t[0], "--boundary", "--resolution", str(t[1]),
                   "--format", "json")),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_run_gives_a_valid_document_or_one_error_line(name):
    schema = name.removesuffix("-symmetric").removesuffix("-pair")

    @settings(max_examples=EXAMPLES)
    @given(COMMANDS[name])
    def prop(argv):
        _check(argv, schema)

    prop()
