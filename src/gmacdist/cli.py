"""Command-line front end.

Every subcommand prints a single machine-readable document (JSON object,
JSON array, CSV table, or the verify report) to stdout or --output.  Given
the same flags and seed the emitted bytes are identical run to run and
across --threads values; anything nondeterministic (warnings, errors)
goes to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .acceptance import DEFAULT_SEED, format_report, run_all
from .model import (
    DistortionPair,
    ProblemInstance,
    canonicalize,
    canonicalize_distortion,
)
from .rd_bounds import ConvergenceError
from .region import (
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


class CliError(ValueError):
    """Bad flags or values; maps to exit status 1, as every ValueError does."""


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # take "-9e-06" for a negative number, not an unknown flag, as every
        # argument that starts with "-" and a digit is read from Python 3.13 on
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    def error(self, message):
        raise CliError(message)


def _default_seed() -> int:
    raw = os.environ.get("GMACDIST_SEED")
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"GMACDIST_SEED must be an integer, got {raw!r}")


def _add_instance_flags(sp):
    sp.add_argument("--sigma2", type=float, default=None,
                    help="common source variance (default 1)")
    sp.add_argument("--var1", type=float, default=None,
                    help="variance of the first component (overrides --sigma2)")
    sp.add_argument("--var2", type=float, default=None,
                    help="variance of the second component (overrides --sigma2)")
    sp.add_argument("--rho", type=float, required=True,
                    help="source correlation coefficient in [-1, 1]")
    sp.add_argument("--p", type=float, default=None,
                    help="transmit power for both senders (default 1)")
    sp.add_argument("--p1", type=float, default=None, help="sender 1 power")
    sp.add_argument("--p2", type=float, default=None, help="sender 2 power")
    sp.add_argument("--noise", type=float, default=None,
                    help="channel noise variance (default 1)")


def _add_output_flag(sp):
    sp.add_argument("--output", default=None,
                    help="write to this path instead of stdout")


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


def _jsonable(obj):
    """Recursively make a structure JSON-safe; non-finite floats become null."""
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _emit(args, text: str):
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    _emit(args, json.dumps(_jsonable(obj), indent=2, sort_keys=True) + "\n")


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _emit_table(args, columns, rows):
    if args.format == "json":
        _emit_json(args, [dict(zip(columns, r)) for r in rows])
        return
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt(v) for v in r) for r in rows)
    _emit(args, "\n".join(lines) + "\n")


def _echo_fields(inst: ProblemInstance) -> dict:
    return {
        "sigma1_sq": inst.sigma1_sq, "sigma2_sq": inst.sigma2_sq,
        "rho": inst.rho, "p1": inst.p1, "p2": inst.p2,
        "noise_var": inst.noise_var,
    }


def _cmd_bounds(args) -> int:
    inst = _instance_from_args(args)
    c = canonicalize(inst)
    d_orig = DistortionPair(args.d1, args.d2)
    d = canonicalize_distortion(c, d_orig)
    rec = verdict(c, d)
    out = _echo_fields(inst)
    out.update({
        "d1": d_orig.d1, "d2": d_orig.d2,
        "rd_rate": rec.outer.rd_rate,
        "capacity_term": rec.outer.capacity_term,
        "achievable_possible": rec.outer.achievable_possible,
        "uncoded_d1": rec.uncoded_d1,
        "uncoded_d2": rec.uncoded_d2 * c.scale2,
        "vq_d1": rec.vq_d1,
        "vq_d2": rec.vq_d2 * c.scale2,
        "vq_r1": rec.vq_r1, "vq_r2": rec.vq_r2,
        "verdict": rec.verdict,
    })
    _emit_json(args, out)
    return 0


def _cmd_uncoded(args) -> int:
    inst = _instance_from_args(args)
    c = canonicalize(inst)
    res = uncoded_distortions(c)
    thr = optimality_threshold(c.rho)
    symmetric = c.p1 == c.p2
    out = _echo_fields(inst)
    out.update({
        "d1": res.d1, "d2": res.d2 * c.scale2,
        "gain1": res.gain1, "gain2": res.gain2,
        "lmmse1": res.lmmse1, "lmmse2": res.lmmse2,
        "symmetric_threshold_snr": thr,
        "at_or_below_threshold": (c.p1 / c.noise_var <= thr) if symmetric else None,
    })
    _emit_json(args, out)
    return 0


def _cmd_simulate_uncoded(args) -> int:
    inst = _instance_from_args(args)
    c = canonicalize(inst)
    sim = simulate_uncoded(c, args.trials, args.seed, threads=args.threads)
    ana = uncoded_distortions(c)
    out = _echo_fields(inst)
    out.update({
        "trials": sim.trials, "seed": sim.seed,
        "d1": sim.d1, "d2": sim.d2 * c.scale2,
        "power1": sim.power1, "power2": sim.power2,
        "analytic_d1": ana.d1, "analytic_d2": ana.d2 * c.scale2,
    })
    _emit_json(args, out)
    return 0


def _cmd_vq_bound(args) -> int:
    inst = _instance_from_args(args)
    c = canonicalize(inst)
    out = _echo_fields(inst)
    if (args.r1 is None) != (args.r2 is None):
        raise CliError("--r1 and --r2 must be given together")
    if args.r1 is not None:
        rates = make_rate_pair(c, args.r1, args.r2)
        d = vq_distortions(c, rates)
        out.update({
            "mode": "pair",
            "r1": args.r1, "r2": args.r2,
            "rho_tilde": rates.rho_tilde,
            "in_region": in_rate_region(c, rates),
            "d1": d.d1, "d2": d.d2 * c.scale2,
            "rate": None,
        })
    else:
        if c.p1 != c.p2:
            raise CliError("symmetric rate solving needs equal powers; "
                           "pass --r1/--r2 for asymmetric instances")
        rate, dist = solve_symmetric_rate(c.sigma_sq, c.rho, c.p1, c.noise_var)
        out.update({
            "mode": "symmetric",
            "r1": rate, "r2": rate, "rate": rate,
            "rho_tilde": None, "in_region": None,
            "d1": dist, "d2": dist * c.scale2,
        })
    _emit_json(args, out)
    return 0


def _cmd_simulate_vq(args) -> int:
    inst = _instance_from_args(args)
    c = canonicalize(inst)
    rates = make_rate_pair(c, args.r1, args.r2)
    stats = simulate_vq(c, rates, args.blocklength, args.trials,
                        delta_typ=args.delta_typ, seed=args.seed,
                        threads=args.threads)
    ana = vq_distortions(c, rates)
    out = _echo_fields(inst)
    out.update({
        "r1": args.r1, "r2": args.r2,
        "blocklength": stats.blocklength, "trials": stats.trials,
        "seed": stats.seed, "delta_typ": args.delta_typ,
        "realized_r1": stats.realized_r1, "realized_r2": stats.realized_r2,
        "in_region": in_rate_region(c, rates),
        "empirical_d1": stats.empirical_d1,
        "empirical_d2": stats.empirical_d2 * c.scale2,
        "cond_d1": stats.cond_d1,
        "cond_d2": stats.cond_d2 * c.scale2,
        "quantizer_mse1": stats.quantizer_mse1,
        "quantizer_mse2": stats.quantizer_mse2 * c.scale2,
        "empirical_codeword_corr": stats.empirical_codeword_corr,
        "decode_error_count": stats.decode_error_count,
        "fallback_count": stats.fallback_count,
        "analytic_d1": ana.d1, "analytic_d2": ana.d2 * c.scale2,
    })
    _emit_json(args, out)
    return 0


def _parse_grid(spec: str) -> np.ndarray:
    parts = spec.split(":")
    if len(parts) != 4:
        raise CliError("--snr-grid expects START:STOP:COUNT:log|lin")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise CliError(f"bad grid specification {spec!r}")
    scale = parts[3]
    if count < 1:
        raise CliError("grid needs at least one point")
    check_sweep_points(count)
    if not (0 < start < math.inf and 0 < stop < math.inf):
        raise CliError("power ratios must be positive and finite")
    if scale == "log":
        return np.geomspace(start, stop, count)
    if scale == "lin":
        return np.linspace(start, stop, count)
    raise CliError(f"grid scale must be log or lin, got {scale!r}")


_BOUNDARY_COLUMNS = ("d1", "outer_d2", "uncoded_d2", "vq_d2")


def _cmd_sweep(args) -> int:
    if (args.snr_grid is None) == (not args.boundary):
        raise CliError("choose exactly one of --snr-grid or --boundary")
    if args.boundary:
        if args.convexify:
            raise CliError("--convexify applies only to --snr-grid sweeps")
        inst = _instance_from_args(args)
        c = canonicalize(inst)
        points = trace_region_boundary(c, resolution=args.resolution)
        rows = [(p.d1, p.outer_d2 * c.scale2,
                 p.uncoded_d2 * c.scale2, p.vq_d2 * c.scale2) for p in points]
        _emit_table(args, _BOUNDARY_COLUMNS, rows)
        return 0
    sigma_sq = 1.0 if args.sigma2 is None else args.sigma2
    if args.var1 is not None or args.var2 is not None:
        raise CliError("power sweeps are symmetric; use --sigma2")
    if any(v is not None for v in (args.p, args.p1, args.p2, args.noise)):
        raise CliError("power sweeps take their powers from --snr-grid at "
                       "noise variance 1; drop --p/--p1/--p2/--noise")
    if not 0 < sigma_sq < math.inf:
        raise CliError("source variance must be positive and finite")
    rows = snr_sweep(sigma_sq, abs(args.rho), _parse_grid(args.snr_grid))
    if args.convexify:
        rows = convexify(rows)
    _emit_table(args, SweepRow._fields, rows)
    return 0


def _cmd_verify(args) -> int:
    criteria = None
    if args.criteria:
        try:
            criteria = [int(tok) for tok in args.criteria.split(",") if tok]
        except ValueError:
            raise CliError(f"--criteria expects comma-separated integers, "
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

    sp = sub.add_parser("bounds", help="converse check and verdict for a "
                                       "distortion target")
    _add_instance_flags(sp)
    sp.add_argument("--d1", type=float, required=True, help="target MSE 1")
    sp.add_argument("--d2", type=float, required=True, help="target MSE 2")
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_bounds)

    sp = sub.add_parser("uncoded", help="closed-form uncoded distortions")
    _add_instance_flags(sp)
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_uncoded)

    sp = sub.add_parser("simulate-uncoded", help="Monte Carlo uncoded run")
    _add_instance_flags(sp)
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1)
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_simulate_uncoded)

    sp = sub.add_parser("vq-bound", help="quantizer-scheme distortion bound")
    _add_instance_flags(sp)
    sp.add_argument("--r1", type=float, default=None, help="rate 1, bits/symbol")
    sp.add_argument("--r2", type=float, default=None, help="rate 2, bits/symbol")
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_vq_bound)

    sp = sub.add_parser("simulate-vq", help="end-to-end quantizer simulation")
    _add_instance_flags(sp)
    sp.add_argument("--r1", type=float, required=True)
    sp.add_argument("--r2", type=float, required=True)
    sp.add_argument("--blocklength", "-n", type=int, required=True)
    sp.add_argument("--trials", type=int, default=500)
    sp.add_argument("--delta-typ", type=float, default=0.05,
                    help="half-width of the codeword correlation window")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1)
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_simulate_vq)

    sp = sub.add_parser("sweep", help="power sweep or region boundary trace")
    _add_instance_flags(sp)
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
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_sweep)

    sp = sub.add_parser("verify", help="run the acceptance checks")
    sp.add_argument("--seed", type=int, default=None)
    sp.add_argument("--threads", type=int, default=1)
    sp.add_argument("--criteria", default=None,
                    help="comma-separated criterion numbers (default: all)")
    sp.add_argument("--timings", action="store_true",
                    help="print each criterion's wall time to stderr")
    _add_output_flag(sp)
    sp.set_defaults(handler=_cmd_verify)

    return parser


def main(argv=None) -> int:
    try:
        seed = _default_seed()
        args = build_parser().parse_args(argv)
        if getattr(args, "seed", 0) is None:
            args.seed = seed
        return args.handler(args)
    except ConvergenceError as e:
        print(f"error: failed to converge: {e}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory: {e}" if str(e) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
