"""Command-line front end.

Every subcommand prints a single machine-readable document (JSON object,
JSON array, CSV table, or the verify report) to stdout or --output.  Given
the same flags and seed the emitted bytes are identical run to run and
across --threads values; anything nondeterministic (warnings, errors)
goes to stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .acceptance import DEFAULT_SEED, format_report, run_all
from .model import DistortionPair, ProblemInstance, canonicalize
from .region import (
    TRACE_D1_START,
    BoundaryPoint,
    SweepRow,
    check_sweep_points,
    convexify,
    snr_sweep,
    trace_region_boundary,
    verdict,
)
from .uncoded import optimality_threshold, simulate_uncoded, uncoded_distortions
from .vq_analytic import (
    in_rate_region,
    make_rate_pair,
    solve_symmetric_rate,
    vq_distortions,
)
from .vq_sim import simulate_vq


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-9e-06" for a negative number, not an unknown flag, as every
        # argument that starts with "-" and a digit is read from Python 3.13 on
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise ValueError(message)


def _default_seed() -> int:
    raw = os.environ.get("GMACDIST_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"GMACDIST_SEED must be an integer, got {raw!r}")


def _instance_from_args(args) -> ProblemInstance:
    common = 1.0 if args.sigma2 is None else args.sigma2
    v1 = common if args.var1 is None else args.var1
    v2 = common if args.var2 is None else args.var2
    base_p = 1.0 if args.p is None else args.p
    p1 = base_p if args.p1 is None else args.p1
    p2 = base_p if args.p2 is None else args.p2
    noise = 1.0 if args.noise is None else args.noise
    return ProblemInstance(sigma1_sq=v1, sigma2_sq=v2, rho=args.rho,
                           p1=p1, p2=p2, noise_var=noise)


def _canonical(inst: ProblemInstance):
    """canonicalize(inst), refusing a variance ratio outside the normal float64 range."""
    ratio = inst.sigma2_sq / inst.sigma1_sq
    if not sys.float_info.min <= ratio < math.inf:
        raise ValueError(f"the variance ratio --var2/--var1 = {inst.sigma2_sq:g}/"
                         f"{inst.sigma1_sq:g} {_range_fault(ratio)}")
    return canonicalize(inst)


def _range_fault(v: float) -> str:
    return "overflows" if v >= 1.0 else "underflows to 0" if v == 0.0 else "underflows"


def _jsonable(obj):
    """Recursively make a structure JSON-safe; non-finite floats become null.
    np.float64 is a float; no other numpy scalar reaches a document."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float):
        v = float(obj)
        return v if math.isfinite(v) else None
    return obj


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


# What each document's schema, docs/schemas/KIND.json, asks of its floats
# besides being numbers: the fields it requires positive, and the fields it
# lets be null.
_INSTANCE = ("sigma1_sq", "sigma2_sq", "p1", "p2", "noise_var")
_SCHEMA_FLOATS = {
    "bounds": (_INSTANCE + ("d1", "d2", "capacity_term", "uncoded_d1", "uncoded_d2",
                            "vq_d1", "vq_d2"), ()),
    "uncoded": (_INSTANCE + ("d1", "d2"), ("symmetric_threshold_snr",)),
    "simulate-uncoded": (_INSTANCE + ("analytic_d1", "analytic_d2"), ()),
    "vq-bound": (_INSTANCE + ("d1", "d2"), ("rate", "rho_tilde")),
    "simulate-vq": (_INSTANCE + ("analytic_d1", "analytic_d2"), ("cond_d1", "cond_d2")),
    "sweep-snr": (("snr", "sigma_sq", "outer_d", "uncoded_d", "vq_d"), ()),
    "sweep-boundary": (("d1", "outer_d2", "uncoded_d2", "vq_d2"),
                       ("outer_d2", "uncoded_d2", "vq_d2")),
}


def _check_documents(args, kind, docs):
    """Refuse documents that docs/schemas/KIND.json would refuse: a float
    that underflowed to 0 where the schema requires it positive, or one
    that is not finite where the schema does not let it be null."""
    positive, nullable = _SCHEMA_FLOATS[kind]
    for doc in docs:
        for k, v in doc.items():
            if k in positive and v == 0.0:
                raise ValueError(f"{k} underflows to 0 at {args.flags}")
            if isinstance(v, float) and not math.isfinite(v) and k not in nullable:
                raise ValueError(f"{k} overflows at {args.flags}")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit_table(args, kind, columns, rows):
    docs = [dict(zip(columns, r)) for r in rows]
    _check_documents(args, kind, docs)
    if args.format == "json":
        _emit_json(args, docs)
        return
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in r) for r in rows)
    _emit(args, "\n".join(lines) + "\n")


def _instance_command(answer):
    """A subcommand's handler: answer(args, c) gives its fields for the
    canonical instance c, emitted as one JSON object after the six fields
    of the instance as given."""
    def handler(args) -> int:
        inst = _instance_from_args(args)
        out = dataclasses.asdict(inst)
        out.update(answer(args, _canonical(inst)))
        _check_documents(args, args.command, [out])
        _emit_json(args, out)
        return 0
    return handler


def _in_instance_units(c, doc: dict, *keys) -> dict:
    """doc with the canonical second-component distortions at keys taken
    back to the instance's units."""
    for k in keys:
        doc[k] = float(doc[k]) * c.scale2
    return doc


def _bounds(args, c) -> dict:
    d = DistortionPair(args.d1, args.d2)
    d2 = d.d2 / c.scale2
    if d.d2 > 0.0 and not 0.0 < d2 < math.inf:
        raise ValueError(f"--d2 {d.d2:g} divided by the variance ratio "
                         f"--var2/--var1 = {c.scale2:g} {_range_fault(d2)}")
    doc = dataclasses.asdict(verdict(c, DistortionPair(d.d1, d2)))
    doc.update(doc.pop("outer"), d1=d.d1, d2=d.d2)
    return _in_instance_units(c, doc, "uncoded_d2", "vq_d2")


def _uncoded(args, c) -> dict:
    doc = _in_instance_units(c, dataclasses.asdict(uncoded_distortions(c)), "d2")
    # in the instance's units sender 2 sends sign(rho) * gain2 * s2, and
    # lmmse2 * y estimates s2
    root = math.sqrt(c.scale2)
    doc["gain2"] /= root
    doc["lmmse2"] *= -root if args.rho < 0 else root
    thr = optimality_threshold(c.rho)
    doc.update(symmetric_threshold_snr=thr, at_or_below_threshold=(
        c.p1 / c.noise_var <= thr if c.p1 == c.p2 else None))
    return doc


def _simulate_uncoded(args, c) -> dict:
    doc = dataclasses.asdict(simulate_uncoded(c, args.trials, args.seed,
                                              threads=args.threads))
    ana = uncoded_distortions(c)
    doc.update(analytic_d1=ana.d1, analytic_d2=ana.d2)
    return _in_instance_units(c, doc, "d2", "analytic_d2")


def _vq_bound(args, c) -> dict:
    if (args.r1 is None) != (args.r2 is None):
        raise ValueError("--r1 and --r2 must be given together")
    if args.r1 is not None:
        rates = make_rate_pair(c, args.r1, args.r2)
        doc = dataclasses.asdict(vq_distortions(c, rates))
        doc.update(dataclasses.asdict(rates), mode="pair",
                   in_region=in_rate_region(c, rates), rate=None)
        return _in_instance_units(c, doc, "d2")
    if c.p1 != c.p2:
        raise ValueError("symmetric rate solving needs equal powers; "
                         "pass --r1/--r2 for asymmetric instances")
    rate, dist = solve_symmetric_rate(c.sigma_sq, c.rho, c.p1, c.noise_var)
    return {"mode": "symmetric", "r1": rate, "r2": rate, "rate": rate,
            "rho_tilde": None, "in_region": None, "d1": dist, "d2": dist * c.scale2}


def _simulate_vq(args, c) -> dict:
    rates = make_rate_pair(c, args.r1, args.r2)
    doc = dataclasses.asdict(simulate_vq(c, rates, args.blocklength, args.trials,
                                         delta_typ=args.delta_typ, seed=args.seed,
                                         threads=args.threads))
    ana = vq_distortions(c, rates)
    doc.update(r1=args.r1, r2=args.r2, delta_typ=args.delta_typ,
               in_region=in_rate_region(c, rates),
               analytic_d1=ana.d1, analytic_d2=ana.d2)
    return _in_instance_units(c, doc, "empirical_d2", "cond_d2", "quantizer_mse2",
                              "analytic_d2")


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError("--snr-grid expects START:STOP:COUNT:log|lin")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise ValueError(f"bad grid specification {spec!r}")
    scale = parts[3]
    if count < 1:
        raise ValueError("grid needs at least one point")
    check_sweep_points(count)
    if not (0 < start < math.inf and 0 < stop < math.inf):
        raise ValueError("power ratios must be positive and finite")
    if scale == "log":
        return np.geomspace(start, stop, count)
    if scale == "lin":
        return np.linspace(start, stop, count)
    raise ValueError(f"grid scale must be log or lin, got {scale!r}")


def _cmd_sweep(args) -> int:
    if (args.snr_grid is None) == (not args.boundary):
        raise ValueError("choose exactly one of --snr-grid or --boundary")
    if args.boundary:
        if args.convexify:
            raise ValueError("--convexify applies only to --snr-grid sweeps")
        c = _canonical(_instance_from_args(args))
        if TRACE_D1_START * c.sigma_sq == 0.0:
            flag = "--sigma2" if args.var1 is None else "--var1"
            raise ValueError(f"the boundary trace's smallest d1, {TRACE_D1_START:g} * "
                             f"{flag} = {TRACE_D1_START:g} * {c.sigma_sq:g}, "
                             "underflows to 0")
        points = trace_region_boundary(c, resolution=args.resolution)
        # every column after d1 is a second-component distortion
        rows = [(p.d1, *(v * c.scale2 for v in p[1:])) for p in points]
        _emit_table(args, "sweep-boundary", BoundaryPoint._fields, rows)
        return 0
    sigma_sq = 1.0 if args.sigma2 is None else args.sigma2
    if args.var1 is not None or args.var2 is not None:
        raise ValueError("power sweeps are symmetric; use --sigma2")
    if any(v is not None for v in (args.p, args.p1, args.p2, args.noise)):
        raise ValueError("power sweeps take their powers from --snr-grid at "
                         "noise variance 1; drop --p/--p1/--p2/--noise")
    if not 0 < sigma_sq < math.inf:
        raise ValueError("source variance must be positive and finite")
    rows = snr_sweep(sigma_sq, abs(args.rho), _parse_grid(args.snr_grid))
    if args.convexify:
        rows = convexify(rows)
    _emit_table(args, "sweep-snr", SweepRow._fields, rows)
    return 0


def _cmd_verify(args) -> int:
    criteria = None
    if args.criteria is not None:
        try:
            criteria = [int(tok) for tok in args.criteria.split(",") if tok]
        except ValueError:
            raise ValueError(f"--criteria expects comma-separated integers, "
                             f"got {args.criteria!r}")
    results = run_all(seed=args.seed, threads=args.threads, criteria=criteria)
    _emit(args, format_report(results, args.seed))
    if args.timings:
        for r in results:
            print(f"criterion {r.number}: {r.elapsed_s:.3f} s", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    --seed defaults to None; main() fills in GMACDIST_SEED (read on every
    call) or DEFAULT_SEED.
    """
    parser = _Parser(prog="gmacdist",
                     description="Distortion bounds and simulations for "
                                 "correlated Gaussian sources on a two-user "
                                 "Gaussian multiple-access channel.")
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by several subcommands
    instance = argparse.ArgumentParser(add_help=False)
    instance.add_argument("--sigma2", type=float, default=None,
                          help="common source variance (default 1)")
    instance.add_argument("--var1", type=float, default=None,
                          help="variance of the first component (overrides --sigma2)")
    instance.add_argument("--var2", type=float, default=None,
                          help="variance of the second component (overrides --sigma2)")
    instance.add_argument("--rho", type=float, required=True,
                          help="source correlation coefficient in [-1, 1]")
    instance.add_argument("--p", type=float, default=None,
                          help="transmit power for both senders (default 1)")
    instance.add_argument("--p1", type=float, default=None, help="sender 1 power")
    instance.add_argument("--p2", type=float, default=None, help="sender 2 power")
    instance.add_argument("--noise", type=float, default=None,
                          help="channel noise variance (default 1)")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None,
                        help="write to this path instead of stdout")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=None)
    seeded.add_argument("--threads", type=int, default=1)

    sp = sub.add_parser("bounds", parents=[instance, output],
                        help="converse check and verdict for a distortion target")
    sp.add_argument("--d1", type=float, required=True, help="target MSE 1")
    sp.add_argument("--d2", type=float, required=True, help="target MSE 2")
    sp.set_defaults(handler=_instance_command(_bounds))

    sp = sub.add_parser("uncoded", parents=[instance, output],
                        help="closed-form uncoded distortions")
    sp.set_defaults(handler=_instance_command(_uncoded))

    sp = sub.add_parser("simulate-uncoded", parents=[instance, seeded, output],
                        help="Monte Carlo uncoded run")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.set_defaults(handler=_instance_command(_simulate_uncoded))

    sp = sub.add_parser("vq-bound", parents=[instance, output],
                        help="quantizer-scheme distortion bound")
    sp.add_argument("--r1", type=float, default=None, help="rate 1, bits/symbol")
    sp.add_argument("--r2", type=float, default=None, help="rate 2, bits/symbol")
    sp.set_defaults(handler=_instance_command(_vq_bound))

    sp = sub.add_parser("simulate-vq", parents=[instance, seeded, output],
                        help="end-to-end quantizer simulation")
    sp.add_argument("--r1", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--blocklength", "-n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--delta-typ", type=float, default=0.05,
                    help="half-width of the codeword correlation window")
    sp.set_defaults(handler=_instance_command(_simulate_vq))

    sp = sub.add_parser("sweep", parents=[instance, output],
                        help="power sweep or region boundary trace")
    sp.add_argument("--snr-grid", default=None,
                    help="power-ratio grid as START:STOP:COUNT:log|lin")
    sp.add_argument("--convexify", action="store_true",
                    help="replace achievable columns with their lower convex "
                         "envelope over power")
    sp.add_argument("--boundary", action="store_true",
                    help="trace the distortion-region boundary instead")
    sp.add_argument("--resolution", type=int, default=64,
                    help="points on the boundary trace")
    sp.add_argument("--format", choices=("csv", "json"), default="csv",
                    help="output format")
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("verify", parents=[seeded, output],
                        help="run the acceptance checks")
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")
    sp.add_argument("--timings", action="store_true",
                    help="print each criterion's wall time to stderr")
    sp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        seed = _default_seed()
        argv = sys.argv[1:] if argv is None else list(argv)
        args = build_parser().parse_args(argv)
        args.flags = " ".join(argv[1:])  # the options after the subcommand
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        return args.handler(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
