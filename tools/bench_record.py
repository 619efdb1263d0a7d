"""Record benchmark figures for one or more checkouts into a BENCH_*.json file.

    python3 tools/bench_record.py --out BENCH_16.json --seconds 30 \\
        parent=../gmacdist-parent change=.

    # ten seeds of analytic, three of each simulator
    python3 tools/bench_record.py --out BENCH_16.json --seconds 30 \\
        --workloads analytic:10,vq-sim:3,uncoded-sim:3 \\
        parent=../gmacdist-parent change=.

Each positional argument names a checkout as LABEL=PATH.  For every
checkout the file records:

- each ``bench/run.py`` workload at 3 seeds (or ``SEEDS`` seeds when
  ``--workloads`` names it ``NAME:SEEDS``), untraced: every run's end-to-end
  metrics, exit status, correctness, output digest, minor page faults and
  system CPU seconds, and per metric the median and quartiles over the runs;
  for the first three seeds also a traced run, and the median of its
  per-layer metrics;
- ``gmacdist verify --timings`` at ``--threads`` 1 and 4 (seed 7), run
  once each: each criterion's seconds;
- each ``gmacdist`` command of the checkout's README.md sh blocks, run as
  ``python3 -m gmacdist`` in a subprocess 5 times: every wall time in
  seconds, minor page fault count and system CPU time, their medians and
  the exit statuses;
- the tier-1 suite (``python3 -m pytest -q --continue-on-collection-errors``
  in the checkout, with ``--durations=5``), run once: its wall time, exit
  status, outcome counts and five slowest test phases;
- the commit checked out, whether the tree had uncommitted changes, and
  the line count of its ``src/gmacdist/*.py`` (as ``wc -l`` counts them).

The machine facts are recorded once: ``nproc``, Python, numpy, the BLAS
library with its core and default thread count, and
``OPENBLAS_NUM_THREADS``.  The runs alternate between the checkouts seed by
seed (and README example runs repeat by repeat), reversing the order on
every other one, so the drift of a shared host falls on all of them alike.
Only the benchmark's own processes are timed; their page faults and system
CPU time are ``getrusage(RUSAGE_CHILDREN)`` differences around each run.
No machine setting is changed.
"""
from __future__ import annotations

import argparse
import ctypes
import datetime
import glob
import json
import os
import platform
import re
import resource
import shlex
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("analytic", "vq-sim", "uncoded-sim")
VERIFY_THREADS = (1, 4)
VERIFY_SEED = 7
DEFAULT_SEEDS = 3
TRACED_SEEDS = 3
CLI_REPEATS = 5
TIER1_SLOWEST = 5
_CRITERION = re.compile(r"^criterion (\d+): ([0-9.]+) s$")
_SH_BLOCK = re.compile(r"^```sh\n(.*?)^```", re.S | re.M)
# pytest's closing line, "2 failed, 337 passed, 1 warning in 31.02s", and
# one line of its --durations table, "7.41s call     tests/x.py::test_y"
_PYTEST_SUMMARY = re.compile(r"^=*\s*(\d+ [a-z]+(?:, \d+ [a-z]+)*) in [0-9.]+s\b")
_PYTEST_DURATION = re.compile(r"^([0-9.]+)s (setup|call|teardown) +(.+)$")


def blas_facts() -> dict:
    """numpy's BLAS: name and version from its build, and for the OpenBLAS
    that numpy wheels bundle, the core it picked and its thread count."""
    import numpy as np

    facts = {"library": "unknown", "core": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["library"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "libscipy_openblas*.so*"))):
        try:
            lib = ctypes.CDLL(path)
            corename = lib.scipy_openblas_get_corename64_
            threads = lib.scipy_openblas_get_num_threads64_
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            threads.argtypes, threads.restype = [], ctypes.c_int
            facts["core"] = corename().decode()
            facts["threads"] = threads()
        except (OSError, AttributeError):
            continue
        break
    return facts


def machine_facts() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_facts(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def tree_facts(path: Path) -> dict:
    def git(*args):
        proc = subprocess.run(["git", "-C", str(path), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_lines": sum(f.read_bytes().count(b"\n")
                             for f in (path / "src" / "gmacdist").glob("*.py"))}


def summarize(values: list) -> dict:
    """Median and quartiles of a list of numbers."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def parse_bench_output(stdout: str) -> dict:
    """The report and result lines of one bench/run.py run."""
    report, result = None, None
    for line in stdout.splitlines():
        if line.startswith('{"report"'):
            report = json.loads(line)["report"]
        elif line.startswith('{"correct"'):
            result = json.loads(line)
    if report is None or result is None:
        raise ValueError("bench output lacks its report or result line")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "output_digest": report["output_digest"],
        "end_to_end": {k: v["value"] for k, v in report["end_to_end"].items()},
        "per_layer": {k: v["value"] for k, v in report.get("per_layer", {}).items()},
    }


def parse_timings(stderr: str) -> dict:
    """criterion number (as a string) -> seconds, from verify --timings."""
    out = {}
    for line in stderr.splitlines():
        m = _CRITERION.match(line.strip())
        if m:
            out[m.group(1)] = float(m.group(2))
    return out


def run_child(cmd: list, **kwargs):
    """subprocess.run(cmd, **kwargs) and the child's minor page faults and
    system CPU seconds, as getrusage(RUSAGE_CHILDREN) differences."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    proc = subprocess.run(cmd, **kwargs)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return proc, {"minflt": after.ru_minflt - before.ru_minflt,
                  "stime_s": after.ru_stime - before.ru_stime}


def run_bench(path: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    cmd = [sys.executable, str(path / "bench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc, usage = run_child(cmd, capture_output=True, text=True,
                                timeout=10 * seconds + 600)
    except subprocess.TimeoutExpired as e:
        return {"seed": seed, "exit": None, "correct": False,
                "error": f"timed out after {e.timeout} s"}
    run = {"seed": seed, "exit": proc.returncode, "rusage": usage}
    try:
        run.update(parse_bench_output(proc.stdout))
    except ValueError as e:
        run.update(correct=False, error=f"{e}: {proc.stderr.strip()[-500:]}")
    return run


def run_verify(path: Path, threads: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    cmd = [sys.executable, "-m", "gmacdist", "verify", "--timings",
           "--seed", str(VERIFY_SEED), "--threads", str(threads)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=1800)
    except subprocess.TimeoutExpired as e:
        return {"exit": None, "criteria_s": {},
                "error": f"timed out after {e.timeout} s"}
    return {"exit": proc.returncode, "criteria_s": parse_timings(proc.stderr)}


def parse_tier1(stdout: str) -> dict:
    """Outcome counts ("passed", "failed", "error", ...) and the slowest test
    phases, as [seconds, phase, test id], from pytest -q --durations output."""
    counts, slowest = {}, []
    for line in stdout.splitlines():
        m = _PYTEST_DURATION.match(line.strip())
        if m:
            slowest.append([float(m.group(1)), m.group(2), m.group(3)])
        m = _PYTEST_SUMMARY.match(line.strip())
        if m:
            for part in m.group(1).split(", "):
                n, outcome = part.split(" ")
                counts[outcome.removesuffix("s")] = int(n)  # "2 errors"
    return {"counts": counts, "slowest": slowest}


def run_tier1(path: Path) -> dict:
    """The checkout's tier-1 suite, run once in the checkout."""
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    cmd = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
           f"--durations={TIER1_SLOWEST}"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=path, timeout=1800)
    except subprocess.TimeoutExpired as e:
        return {"exit": None, "error": f"timed out after {e.timeout} s"}
    return {"exit": proc.returncode, "s": time.perf_counter() - start,
            **parse_tier1(proc.stdout)}


def readme_examples(text: str) -> list:
    """The gmacdist command lines of a README's sh blocks, as argument lists
    after the program name; continuation lines are joined and comments
    dropped."""
    examples = []
    for block in _SH_BLOCK.findall(text):
        for line in block.replace("\\\n", " ").splitlines():
            argv = shlex.split(line, comments=True)
            if argv[:1] == ["gmacdist"]:
                examples.append(argv[1:])
    return examples


def run_example(path: Path, args: list) -> dict:
    """One README example, run once: its wall time, exit status, minor page
    faults and system CPU seconds."""
    env = dict(os.environ, PYTHONPATH=str(path / "src"))
    start = time.perf_counter()
    try:
        proc, usage = run_child([sys.executable, "-m", "gmacdist", *args],
                                capture_output=True, env=env, timeout=1800)
    except subprocess.TimeoutExpired as e:
        return {"exit": None, "error": f"timed out after {e.timeout} s"}
    return {"exit": proc.returncode, "s": time.perf_counter() - start, **usage}


def run_examples(trees: dict, log=print) -> dict:
    """label -> {command line: its runs' seconds, minor faults and system
    CPU seconds, their medians, and the exits} for each README example of
    each checkout, CLI_REPEATS runs each."""
    out = {}
    for label, path in trees.items():
        readme = path / "README.md"
        examples = readme_examples(readme.read_text()) if readme.is_file() else []
        out[label] = {shlex.join(args): {"args": args, "runs_s": [], "minflt": [],
                                         "stime_s": [], "exits": []}
                      for args in examples}
    labels = list(trees)
    for n in range(CLI_REPEATS):
        for label in (labels if n % 2 == 0 else labels[::-1]):
            for entry in out[label].values():
                run = run_example(trees[label], entry["args"])
                entry["exits"].append(run["exit"])
                if "s" in run:
                    entry["runs_s"].append(run["s"])
                    entry["minflt"].append(run["minflt"])
                    entry["stime_s"].append(run["stime_s"])
                else:
                    entry["error"] = run["error"]
            log(f"{label} README examples, run {n + 1} of {CLI_REPEATS}")
    for examples in out.values():
        for entry in examples.values():
            del entry["args"]
            for key, runs in (("median_s", "runs_s"), ("median_minflt", "minflt"),
                              ("median_stime_s", "stime_s")):
                entry[key] = (statistics.median(entry[runs])
                              if entry[runs] else None)
    return out


def summarize_runs(runs: list, key: str) -> dict:
    names = sorted({k for r in runs for k in r.get(key, {})})
    return {k: summarize([r[key][k] for r in runs if k in r.get(key, {})])
            for k in names}


def record(trees: dict, seeds: list, seconds: float, workloads: dict,
           log=print) -> dict:
    """Run everything; workloads maps each workload to its number of seeds,
    the first that many of seeds."""
    out = {label: {**tree_facts(path), "workloads": {}, "verify": {}}
           for label, path in trees.items()}
    labels = list(trees)
    for n, seed in enumerate(seeds):
        order = labels if n % 2 == 0 else labels[::-1]
        for workload in (w for w, k in workloads.items() if n < k):
            for trace in ((0, 1) if n < TRACED_SEEDS else (0,)):
                for label in order:
                    run = run_bench(trees[label], workload, seed, seconds, trace)
                    log(f"{label} {workload} seed {seed} trace {trace}: "
                        f"exit {run['exit']}, correct {run.get('correct')}")
                    entry = out[label]["workloads"].setdefault(
                        workload, {"runs": [], "traced_runs": []})
                    entry["traced_runs" if trace else "runs"].append(run)
    for label in labels:
        for workload, entry in out[label]["workloads"].items():
            entry["all_correct"] = all(r.get("correct") for r in
                                       entry["runs"] + entry["traced_runs"])
            entry["end_to_end"] = summarize_runs(entry["runs"], "end_to_end")
            entry["rusage"] = summarize_runs(entry["runs"], "rusage")
            entry["per_layer"] = summarize_runs(entry["traced_runs"], "per_layer")
    for threads in VERIFY_THREADS:
        for label in labels:
            res = run_verify(trees[label], threads)
            log(f"{label} verify --threads {threads}: exit {res['exit']}")
            out[label]["verify"][str(threads)] = res
    for label, examples in run_examples(trees, log).items():
        out[label]["cli"] = examples
    for label in labels:
        res = out[label]["tier1"] = run_tier1(trees[label])
        log(f"{label} tier-1: exit {res['exit']}, {res.get('counts')}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("trees", nargs="+", metavar="LABEL=PATH",
                    help="checkouts to measure")
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    ap.add_argument("--first-seed", type=int, default=1601)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="--seconds of each bench run")
    ap.add_argument("--workloads", default=",".join(WORKLOADS),
                    help="comma-separated workloads, each NAME or NAME:SEEDS")
    args = ap.parse_args(argv)

    trees = {}
    for spec in args.trees:
        label, sep, path = spec.partition("=")
        if not sep or not label or not (Path(path) / "bench" / "run.py").is_file():
            ap.error(f"{spec!r} is not LABEL=PATH of a checkout with bench/run.py")
        trees[label] = Path(path).resolve()
    workloads = {}
    for spec in filter(None, args.workloads.split(",")):
        name, _, count = spec.partition(":")
        if name not in WORKLOADS or not (count or "1").isdigit():
            ap.error(f"bad workload {spec!r}; choose from {', '.join(WORKLOADS)}")
        workloads[name] = int(count) if count else DEFAULT_SEEDS
    if min(workloads.values(), default=0) < 1:
        ap.error("every workload needs at least one seed")
    seeds = list(range(args.first_seed, args.first_seed + max(workloads.values())))

    doc = {
        "recorded_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "settings": {"seeds": seeds, "seconds": args.seconds,
                     "workloads": workloads, "traced_seeds": TRACED_SEEDS,
                     "verify_threads": list(VERIFY_THREADS),
                     "verify_seed": VERIFY_SEED, "cli_repeats": CLI_REPEATS},
        "machine": machine_facts(),
        "trees": record(trees, seeds, args.seconds, workloads,
                        log=lambda msg: print(msg, file=sys.stderr, flush=True)),
    }
    with open(args.out, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
