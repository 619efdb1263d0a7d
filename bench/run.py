"""gmacdist benchmark: one closed-loop client driving the library in-process.

    python3 bench/run.py --workload analytic --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the library is imported from the
checkout's ``src/``.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it is a fuller report (sample counts, machine and workload
facts, output digest).  The exit status is 1 when any correctness check
failed, 2 when the benchmark cannot start (for instance, no ``src/``).
See ``bench/README.md``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_state"

# Pinned before numpy loads, in this process and in the set-up probes: an
# unpinned OpenBLAS spins up to nproc threads of its own inside each
# gemv/dot, which the benchmark does not ask for and which makes runs noisy.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1"}

MIN_OPS = 100          # every run times at least this many ops (>= 10 beyond p90)
BLOCKS = 5             # at most this many stretches of the loop (see _loop_metrics)
SETUP_SAMPLES = 5      # fresh interpreters timed per run for setup_s
# The warm-up op (index -1, never timed) does not depend on --seed, so
# set-up does the same work in every run.
WARMUP_SEED = 0
PROBE_TIMEOUT_S = 60

# name: (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "cpu_ms_per_item": ("ms", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}

# Per-layer figures of a traced run, per item: ``.ms`` is time inside the
# function, ``.self_ms`` that time less its traced callees, ``.calls`` the
# number of calls.
PER_LAYER = {
    "op.self_ms": ("ms", "lower"),
    "cli.main.ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "region.verdict.self_ms": ("ms", "lower"),
    "region.best_vq_for_targets.self_ms": ("ms", "lower"),
    "region.trace_region_boundary.self_ms": ("ms", "lower"),
    "vq_analytic.in_rate_region.calls": ("count", "lower"),
    "vq_analytic.vq_distortions.calls": ("count", "lower"),
    "vq_analytic.make_rate_pair.calls": ("count", "lower"),
    "vq_analytic.solve_symmetric_rate.ms": ("ms", "lower"),
    "rd_bounds.waterfill_oracle_rate.ms": ("ms", "lower"),
    "rd_bounds.waterfill_oracle_rate.calls": ("count", "lower"),
    "rd_bounds.rd_rate.calls": ("count", "lower"),
    "vq_sim.simulate_vq.self_ms": ("ms", "lower"),
    "vq_sim.generate_codebook.ms": ("ms", "lower"),
    "vq_sim.encode.ms": ("ms", "lower"),
    "vq_sim.decode.ms": ("ms", "lower"),
    "vq_sim.decode_ok_frac": ("ratio", "higher"),
    "vq_sim.fallback_frac": ("ratio", "lower"),
    "model.sample_source_and_noise.ms": ("ms", "lower"),
    "model.sample_source_and_noise.calls": ("count", "lower"),
    "uncoded.simulate_uncoded.ms": ("ms", "lower"),
    "uncoded.cpu_util": ("ratio", "higher"),
    "trace.items_per_s_untraced": ("1/s", "higher"),
    "trace.items_per_s_traced": ("1/s", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _import_library():
    src = ROOT / "src"
    if not (src / "gmacdist" / "__init__.py").is_file():
        print(f"error: no gmacdist sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    for key, value in PINNED_ENV.items():
        os.environ.setdefault(key, value)
    sys.path.insert(0, str(src))


def _quantile(values, q):
    """Percentile by statistics.quantiles (exclusive method)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def source_hash() -> str:
    """Hash of the library's and the benchmark's sources, which together fix
    every output."""
    h = hashlib.sha256()
    for path in sorted([*(ROOT / "src" / "gmacdist").glob("*.py"), *HERE.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _loop_metrics(ops, min_ops) -> dict:
    """End-to-end figures of the timed loop.

    The loop is cut into up to BLOCKS stretches of at least ``min_ops``
    consecutive ops; each figure is taken per stretch and the median over
    stretches is reported, so a stretch slowed by another tenant of the
    machine moves one stretch, not the figure.  Each stretch keeps at least
    10 ops beyond its p90.
    """
    count = max(1, min(BLOCKS, len(ops) // max(min_ops, 1)))
    blocks = [ops[i * len(ops) // count:(i + 1) * len(ops) // count] for i in range(count)]

    def per_block(fn):
        return statistics.median(fn(b) for b in blocks)

    def wall_ms(b):
        return [o[1] * 1e3 for o in b]

    return {
        "items_per_s": per_block(lambda b: sum(o[3] for o in b) / sum(o[1] for o in b)),
        "latency_p50_ms": per_block(lambda b: _quantile(wall_ms(b), 50)),
        "latency_p90_ms": per_block(lambda b: _quantile(wall_ms(b), 90)),
        "cpu_ms_per_item": per_block(lambda b: 1e3 * sum(o[2] for o in b) / sum(o[3] for o in b)),
    }


def run_workload(workload, seed: int, seconds: float, trace: bool,
                 min_ops: int = MIN_OPS) -> dict:
    """Warm up, then run ops in a closed loop for ``seconds`` and at least
    ``min_ops`` ops.  In a traced run every second op is traced, so the
    traced and untraced rates come from the same stretch of time."""
    from tracing import Tracer

    for step in workload.op(WARMUP_SEED, -1).steps:
        step.run()

    tracer = Tracer() if trace else None
    digest = hashlib.sha256()
    ops = []              # (traced, wall s, cpu s, items) per op
    failures, traced_outputs = [], []
    failed_ops = 0
    deadline = time.perf_counter() + seconds
    while len(ops) < min_ops or time.perf_counter() < deadline:
        index = len(ops)
        op = workload.op(seed, index)
        traced = tracer is not None and index % 2 == 1
        results = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        with tracer.installed(index) if traced else nullcontext():
            for step in op.steps:
                try:
                    results.append((step, step.run(), None))
                except Exception as exc:      # a failed op is counted, not fatal
                    results.append((step, None, exc))
        t1 = time.perf_counter()
        c1 = time.process_time()
        ops.append((traced, t1 - t0, c1 - c0, op.items))

        errors = []
        for step, out, err in results:
            if err is None:
                try:
                    step.check(out)
                except Exception as exc:
                    err = exc
            if index < min_ops:
                digest.update(step.digest(out) if err is None else repr(err).encode())
                digest.update(b"\0")
            if err is not None:
                errors.append(f"op {index} ({step.name}): {type(err).__name__}: {err}")
            elif traced:
                traced_outputs.append(out)
        failures.extend(errors)
        failed_ops += bool(errors)

    try:
        workload.finish()
        failed = failed_ops
    except Exception as exc:
        failures.insert(0, f"run check: {type(exc).__name__}: {exc}")
        failed = len(ops)

    items = sum(o[3] for o in ops)
    result = {
        "attempted": len(ops),
        "failed": failed,
        "items": items,
        "failures": failures[:10],
        "output_digest": digest.hexdigest(),
        "digest_ops": min(len(ops), min_ops),
        "end_to_end": {
            **_loop_metrics(ops, min_ops),
            "loop_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "samples": {"items_per_s": items, "latency_p50_ms": len(ops),
                    "latency_p90_ms": len(ops), "cpu_ms_per_item": items,
                    "loop_peak_rss_mib": 1},
        "workload_facts": workload.facts(),
    }
    if tracer is not None:
        result["tracer"] = tracer
        result["per_layer"] = per_layer(tracer, ops, workload.layer_stats(traced_outputs))
    return result


def per_layer(tracer, ops, layer_stats) -> dict:
    """The PER_LAYER figures, normalised per item of the traced ops."""
    from tracing import summarize

    values = {}
    items = sum(o[3] for o in ops if o[0])
    for name, rec in summarize(tracer.spans).items():
        values[f"{name}.ms"] = rec["s"] * 1e3 / items
        values[f"{name}.self_ms"] = rec["self_s"] * 1e3 / items
        values[f"{name}.calls"] = rec["n"] / items
        if name == "uncoded.simulate_uncoded":
            values["uncoded.cpu_util"] = rec["cpu_s"] / rec["s"]
    for name, n in tracer.counts().items():
        values[f"{name}.calls"] = n / items
    values.update(layer_stats)
    untraced = (sum(o[3] for o in ops if not o[0])
                / sum(o[1] for o in ops if not o[0]))
    traced = items / sum(o[1] for o in ops if o[0])
    values["trace.items_per_s_untraced"] = untraced
    values["trace.items_per_s_traced"] = traced
    values["trace.overhead_frac"] = 1.0 - traced / untraced
    # a layer the workload never reaches reads 0
    return {name: values.get(name, 0.0) for name in PER_LAYER}


def machine_facts() -> dict:
    import numpy as np

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        # the caches cpu0 sees: L1 and L2 per core, L3 shared
        cache = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(cache.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                size = (index / "size").read_text().strip()     # e.g. "2048K"
                scale = {"K": 1 << 10, "M": 1 << 20}.get(size[-1], 1)
                facts[f"L{level}_bytes"] = int(size.rstrip("KM")) * scale
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        facts["blas"] = "unknown"
    return facts


def measure_setup(workload_name: str, samples: int = SETUP_SAMPLES):
    """Set-up probes (see probe.py), each in a fresh interpreter.

    Returns the per-probe seconds to import gmacdist and gmacdist.cli and
    run the warm-up op, and the per-probe peak RSS in MiB.
    """
    times, rss = [], []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), workload_name],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S,
            env={**os.environ, **PINNED_ENV})
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        seconds, kib = proc.stdout.split()[-2:]
        times.append(float(seconds))
        rss.append(int(kib) / 1024)
    return times, rss


def _check_determinism(name, seed, digest, digest_ops) -> str | None:
    """Compare this run's digest with earlier runs at the same seed, on the
    same sources, traced or not; remember it for later runs."""
    STATE.mkdir(exist_ok=True)
    path = STATE / "digests.json"
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    key = f"{name}:{seed}:{digest_ops}:{source_hash()}"
    seen = known.setdefault(key, digest)
    if seen != digest:
        return f"output digest {digest} differs from an earlier run's {seen}"
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return None


def _write_spans(name, tracer):
    STATE.mkdir(exist_ok=True)
    path = STATE / f"spans-{name}.jsonl"
    fields = ("id", "name", "start", "end", "parent", "op", "cpu_s")
    with open(path, "w") as fh:
        for span in tracer.spans:
            fh.write(json.dumps(dict(zip(fields, span))) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_library()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    setup_times, setup_rss = measure_setup(args.workload)
    workload = WORKLOADS[args.workload]()
    res = run_workload(workload, args.seed, args.seconds, bool(args.trace), MIN_OPS)
    problem = _check_determinism(args.workload, args.seed,
                                 res["output_digest"], res["digest_ops"])
    if problem:
        res["failures"].insert(0, problem)
        res["failed"] = res["attempted"]
    correct = res["failed"] == 0

    e2e = {"setup_s": statistics.median(setup_times),
           "peak_rss_mib": statistics.median(setup_rss), **res["end_to_end"],
           "failed_frac": res["failed"] / res["attempted"]}
    samples = {"setup_s": len(setup_times), "peak_rss_mib": len(setup_rss),
               **res["samples"], "failed_frac": res["attempted"]}
    units = {k: u for k, (u, _) in END_TO_END.items()}
    units.update(failed_frac="ratio", loop_peak_rss_mib="MiB")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "correct": correct,
        "attempted": res["attempted"], "failed": res["failed"], "items": res["items"],
        "failures": res["failures"],
        "output_digest": res["output_digest"], "digest_ops": res["digest_ops"],
        "end_to_end": {k: {"value": v, "unit": units[k], "samples": samples[k]}
                       for k, v in e2e.items()},
        "setup_samples_s": setup_times,
        "setup_samples_rss_mib": setup_rss,
        "machine": machine_facts(),
        "workload_facts": res["workload_facts"],
    }
    if args.trace:
        _write_spans(args.workload, res["tracer"])
        metrics = {k: {"value": v, "unit": PER_LAYER[k][0]}
                   for k, v in res["per_layer"].items()}
        report["per_layer"] = metrics
    else:
        metrics = {k: {"value": e2e[k], "unit": u} for k, (u, _) in END_TO_END.items()}
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
