"""Executable acceptance checks shared by the verify command and the tests.

Each criterion is a deterministic function of (seed, threads) returning a
pass flag and a short numeric detail string.  Detail strings never include
timings or thread counts, so a report rendered from the same seed is
byte-identical regardless of how many workers ran it; wall-clock budgets
are recorded on the result objects for the test suite to enforce.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .model import DistortionPair, check_threads, derive_seed, symmetric_instance
from .rd_bounds import rd_rate, symmetric_outer_bound, waterfill_oracle_rates
from .uncoded import simulate_uncoded, symmetric_uncoded_bound, uncoded_distortions
from .vq_analytic import (
    high_snr_asymptote,
    make_rate_pair,
    solve_symmetric_rate,
    vq_distortions,
)
from .vq_sim import simulate_vq

DEFAULT_SEED = 7


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str
    elapsed_s: float
    runtime_limit_s: Optional[float]


def _criterion_1(seed: int, threads: int):
    """Closed-form rate agrees with the scaled allocation oracle."""
    rhos = (0.0, 0.3, 0.5, 0.8, 0.95)
    grid = np.linspace(0.05, 1.0, 20)
    d1, d2 = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    diffs = []
    for rho in rhos:
        c = symmetric_instance(1.0, rho, 1.0, 1.0)
        closed = [rd_rate(c, DistortionPair(a, b))
                  for a, b in zip(d1.tolist(), d2.tolist())]
        diffs.append(np.abs(np.array(closed) - waterfill_oracle_rates(c, d1, d2)))
    worst = float(np.max(diffs))
    return worst <= 1e-6, f"max |closed - oracle| = {worst:.3e} bits (tol 1e-06)"


def _criterion_2(seed: int, threads: int):
    """Adjacent case formulas agree on both case boundaries."""
    rhos = np.linspace(0.05, 0.95, 25)
    fracs = np.linspace(0.02, 0.98, 40)
    worst = 0.0
    for rho in rhos:
        one_less_rsq = 1.0 - rho * rho
        for u in fracs:
            # low boundary: pairs (a, b) with b at the edge of the small-
            # distortion case; requires a <= 1 - rho for the ordering a <= b
            a = u * (1.0 - rho)
            b = (one_less_rsq - a) / (1.0 - a)
            r_small = 0.5 * math.log2(one_less_rsq / (a * b))
            gap = a * b - (rho - math.sqrt((1.0 - a) * (1.0 - b))) ** 2
            r_mid = 0.5 * math.log2(one_less_rsq / gap)
            worst = max(worst, abs(r_small - r_mid))
            # high boundary: b at the edge beyond which only one component
            # constrains the rate
            a = float(u)
            b = one_less_rsq + rho * rho * a
            gap = a * b - (rho - math.sqrt((1.0 - a) * (1.0 - b))) ** 2
            r_mid = 0.5 * math.log2(one_less_rsq / gap)
            r_one = 0.5 * math.log2(1.0 / a)
            worst = max(worst, abs(r_mid - r_one))
    return worst <= 1e-10, f"max cross-boundary formula gap = {worst:.3e} bits (tol 1e-10)"


def _criterion_3(seed: int, threads: int):
    """Uncoded transmission meets the outer bound below the power threshold."""
    worst_rel = 0.0
    worst_branch = 0.0
    for rho in np.linspace(0.1, 0.9, 10):
        thr = rho / (1.0 - rho * rho)
        for frac in np.linspace(0.1, 1.0, 10):
            p = frac * thr
            unc = symmetric_uncoded_bound(1.0, rho, p, 1.0)
            outer = symmetric_outer_bound(1.0, rho, p, 1.0)
            worst_rel = max(worst_rel, abs(unc - outer) / outer)
        # branch continuity at the exact threshold power
        p = thr
        low = (p * (1.0 - rho * rho) + 1.0) / (2.0 * p * (1.0 + rho) + 1.0)
        high = math.sqrt((1.0 - rho * rho) / (2.0 * p * (1.0 + rho) + 1.0))
        worst_branch = max(worst_branch, abs(low - high))
    # desk value: the threshold instance where everything collapses to 0.5
    p, nv = 2.0, 3.0
    rho = 0.5
    desk = (
        symmetric_uncoded_bound(1.0, rho, p, nv),
        (p * 0.75 + nv) / (2.0 * p * 1.5 + nv),
        math.sqrt(0.75 * nv / (2.0 * p * 1.5 + nv)),
    )
    desk_ok = all(abs(v - 0.5) <= 1e-12 for v in desk)
    ok = worst_rel <= 1e-12 and worst_branch <= 1e-12 and desk_ok
    return ok, (f"max rel gap = {worst_rel:.3e}, max branch mismatch = "
                f"{worst_branch:.3e} (tol 1e-12), desk point {'ok' if desk_ok else 'off'}")


def _criterion_4(seed: int, threads: int):
    """Monte Carlo uncoded transmission reproduces the closed form."""
    c = symmetric_instance(1.0, 0.5, 2.0, 3.0)
    sim = simulate_uncoded(c, 10**6, derive_seed(seed, 4), threads=threads)
    errs = (
        abs(sim.d1 - 0.5) / 0.5,
        abs(sim.d2 - 0.5) / 0.5,
        abs(sim.power1 - 2.0) / 2.0,
        abs(sim.power2 - 2.0) / 2.0,
    )
    worst = max(errs)
    return worst <= 0.01, (f"d = ({sim.d1:.6f}, {sim.d2:.6f}) vs 0.5, "
                           f"power = ({sim.power1:.6f}, {sim.power2:.6f}) vs 2; "
                           f"max rel err = {worst:.3e} (tol 0.01)")


def _criterion_5(seed: int, threads: int):
    """Asymmetric closed form: symmetric reduction and simulation check.

    The correct denominator carries the coherent-power cross term twice; the
    halved variant is also evaluated here and must fail the simulation
    check, which is what pins the sign-off to the right formula.
    """
    worst_id = 0.0
    for sigma_sq in (0.5, 1.0, 2.0):
        for rho in (0.0, 0.3, 0.7, 0.95):
            for p in (0.5, 2.0, 10.0):
                for nv in (0.5, 3.0):
                    c = symmetric_instance(sigma_sq, rho, p, nv)
                    d1 = uncoded_distortions(c).d1
                    ref = symmetric_uncoded_bound(sigma_sq, rho, p, nv)
                    worst_id = max(worst_id, abs(d1 - ref) / ref)
    c = symmetric_instance(1.0, 0.5, 2.0, 3.0)
    sim = simulate_uncoded(c, 10**6, derive_seed(seed, 4), threads=threads)
    good = uncoded_distortions(c).d1
    # same numerator over a denominator with the cross term halved
    bad = (c.p2 * 0.75 + c.noise_var) / (c.p1 + c.p2 + 0.5 * math.sqrt(c.p1 * c.p2)
                                         + c.noise_var)
    good_err = abs(good - sim.d1) / sim.d1
    bad_err = abs(bad - sim.d1) / sim.d1
    ok = worst_id <= 1e-12 and good_err <= 0.01 and bad_err > 0.01
    return ok, (f"max symmetric identity gap = {worst_id:.3e} (tol 1e-12); "
                f"simulation rel err {good_err:.3e} for the kept form, "
                f"{bad_err:.3e} for the halved cross term (must exceed 0.01)")


def _criterion_6(seed: int, threads: int):
    """Inner and outer bounds coincide at zero correlation."""
    worst = 0.0
    for pn in (0.1, 1.0, 10.0, 100.0):
        rate, dist = solve_symmetric_rate(1.0, 0.0, pn, 1.0)
        closed = math.sqrt(1.0 / (2.0 * pn + 1.0))
        outer = symmetric_outer_bound(1.0, 0.0, pn, 1.0)
        worst = max(worst, abs(dist - closed), abs(dist - outer))
    rate, dist = solve_symmetric_rate(1.0, 0.0, 1.0, 1.0)
    desk = max(abs(dist - 3.0 ** -0.5), abs(rate - 0.25 * math.log2(3.0)))
    worst = max(worst, desk)
    return worst <= 1e-9, f"max deviation = {worst:.3e} (tol 1e-09)"


def _criterion_7(seed: int, threads: int):
    """Both bounds approach the scaling limit at a power ratio of 1e6."""
    pn = 1e6
    scale = math.sqrt(pn)
    worst = 0.0
    for rho in (0.0, 0.5, 0.9):
        lim = high_snr_asymptote(1.0, rho)
        _, inner = solve_symmetric_rate(1.0, rho, pn, 1.0)
        outer = symmetric_outer_bound(1.0, rho, pn, 1.0)
        worst = max(worst, abs(scale * inner - lim) / lim,
                    abs(scale * outer - lim) / lim)
    return worst <= 0.02, f"max rel gap to the scaling limit = {worst:.3e} (tol 0.02)"


def _criterion_8(seed: int, threads: int):
    """Finite-blocklength simulation trends toward the analytic values.

    The correlation window is widened to 0.4 here: the chosen-pair
    correlation fluctuates with standard deviation near 0.8/sqrt(n), so at
    these blocklengths the default window would reject the transmitted pair
    on most trials and the decoding trend would measure the window, not the
    scheme.
    """
    c = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    rates = make_rate_pair(c, 0.5, 0.5)
    target = vq_distortions(c, rates)
    ladder = (8, 16, 24, 32)
    stats = {n: simulate_vq(c, rates, n, 500, delta_typ=0.4,
                            seed=derive_seed(seed, 8, n),
                            threads=threads) for n in ladder}
    q_ref = 1.0 * 2.0 ** (-2.0 * 0.5)
    gaps = [abs(0.5 * (stats[n].quantizer_mse1 + stats[n].quantizer_mse2) - q_ref)
            for n in ladder]
    shrinks = all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    corr_err = abs(stats[32].empirical_codeword_corr - 0.4)
    cond_err = max(abs(stats[32].cond_d1 - target.d1) / target.d1,
                   abs(stats[32].cond_d2 - target.d2) / target.d2)
    err_rates = [stats[n].decode_error_count / stats[n].trials for n in ladder]
    err_monotone = all(err_rates[i + 1] <= err_rates[i]
                       for i in range(len(err_rates) - 1))
    ok = shrinks and corr_err <= 0.05 and cond_err <= 0.2 and err_monotone
    gap_txt = "/".join(f"{g:.4f}" for g in gaps)
    err_txt = "/".join(f"{e:.3f}" for e in err_rates)
    return ok, (f"quantizer gaps {gap_txt} "
                f"{'shrink' if shrinks else 'do not shrink'}; "
                f"|corr - 0.4| = {corr_err:.4f} (tol 0.05); "
                f"conditional distortion rel err = {cond_err:.4f} (tol 0.2); "
                f"error rates {err_txt} "
                f"{'monotone' if err_monotone else 'not monotone'}")


def _criterion_9(seed: int, threads: int):
    """Seeded results do not depend on the worker count."""
    c4 = symmetric_instance(1.0, 0.5, 2.0, 3.0)
    c8 = symmetric_instance(1.0, 0.8, 10.0, 1.0)
    rates = make_rate_pair(c8, 0.5, 0.5)
    runs = []
    for t in (1, 4):
        u = simulate_uncoded(c4, 50_000, derive_seed(seed, 9, 1), threads=t)
        v = simulate_vq(c8, rates, 16, 60, seed=derive_seed(seed, 9, 2), threads=t)
        runs.append(repr((u, v)))  # repr also matches NaN fields bitwise
    same = runs[0] == runs[1]
    return same, ("single- and multi-worker runs agree bitwise" if same
                  else "worker count changed seeded results")


_CRITERIA = (
    (1, "rate formula matches the allocation oracle", _criterion_1, 10.0),
    (2, "case boundary continuity", _criterion_2, None),
    (3, "uncoded optimality below the power threshold", _criterion_3, None),
    (4, "uncoded transmission Monte Carlo", _criterion_4, 5.0),
    (5, "asymmetric uncoded closed form", _criterion_5, None),
    (6, "zero-correlation bound coincidence", _criterion_6, None),
    (7, "high power ratio scaling limit", _criterion_7, None),
    (8, "quantizer simulation trends", _criterion_8, 120.0),
    (9, "worker count invariance", _criterion_9, None),
)


def run_all(seed: int = DEFAULT_SEED, threads: int = 1,
            criteria=None) -> list:
    """Run the numbered checks and return one result per criterion.  Raises
    ValueError, before any check runs, when threads is outside [1, MAX_THREADS]."""
    check_threads(threads)
    wanted = None if criteria is None else set(criteria)
    if wanted is not None:
        known = {num for num, *_ in _CRITERIA}
        bad = wanted - known
        if bad:
            raise ValueError(f"unknown criteria: {sorted(bad)}")
    results = []
    for number, name, fn, limit in _CRITERIA:
        if wanted is not None and number not in wanted:
            continue
        t0 = time.perf_counter()
        passed, detail = fn(seed, threads)
        elapsed = time.perf_counter() - t0
        results.append(CriterionResult(number, name, passed, detail,
                                       elapsed, limit))
    return results


def format_report(results, seed: int) -> str:
    """Fixed-format pass/fail table; contains no timing information."""
    lines = [f"acceptance report (seed={seed})"]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"criterion {r.number} {status} {r.name}: {r.detail}")
    n_pass = sum(r.passed for r in results)
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines) + "\n"
