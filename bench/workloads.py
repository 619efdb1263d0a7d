"""The benchmark's workloads: inputs drawn from a seed, the timed steps, and
the correctness check of each step.

A workload hands out *ops* by index.  An op is a list of steps that the
closed loop in ``run.py`` times together (one latency sample), plus the
number of work items it completes; each step's output is checked on its own
after the timed section.  Every input is a pure function of (seed, op
index), so a run is reproducible, and every op draws fresh inputs, so no
cache inside the program can be hit twice.

The library is always reached through module attributes looked up at call
time (``gmacdist.cli.main``, ``gmacdist.vq_sim.simulate_vq``, ...), so the
tracing wrappers in ``tracing.py`` see every call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import gmacdist
import gmacdist.cli

ROOT = Path(__file__).resolve().parent.parent
SCHEMAS = ROOT / "docs" / "schemas"

# converse tolerance of rd_bounds.check_necessary_condition
_CONVERSE_TOL = 1e-12
# criterion 1 tolerance: closed-form rate vs. reverse-waterfilling oracle
_ORACLE_TOL = 1e-6
# criterion 4 tolerance on simulated uncoded distortions and powers
_UNCODED_REL_TOL = 0.01
# criterion 8 tolerances on the pooled n=32 statistics
_VQ_COND_REL_TOL = 0.2
_VQ_CORR_TOL = 0.05
_VQ_SE_ALLOWANCE = 4


@dataclass
class Step:
    """One call into the library: ``run`` is timed, ``check`` is not.

    ``check`` receives the value ``run`` returned and raises
    ``CheckFailed`` when the output is wrong.  ``digest`` turns that value
    into the bytes hashed into the run's output digest.
    """

    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    digest: Callable[[Any], bytes] = lambda out: repr(out).encode()


@dataclass
class Op:
    steps: list
    items: int


class CheckFailed(Exception):
    """An op produced a wrong answer."""


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _rng(seed: int, tag: int, index: int) -> np.random.Generator:
    # index -1 is the warm-up op; SeedSequence needs nonnegative words
    return np.random.default_rng([seed & (2**63 - 1), tag, index + 1])


def _log_uniform(rng, lo: float, hi: float) -> float:
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _cli(argv):
    """Run one CLI command in-process; return (exit status, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = gmacdist.cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _cli_digest(res) -> bytes:
    rc, out, _ = res
    return f"{rc}\n{out}".encode()


class Workload:
    name = ""
    threads = 1

    def op(self, seed: int, index: int) -> Op:
        raise NotImplementedError

    def finish(self) -> None:
        """Run-level check after the loop; raises CheckFailed."""

    def facts(self) -> dict:
        return {}

    def layer_stats(self, outputs) -> dict:
        """Per-layer figures read from the outputs of traced steps."""
        return {}


# --------------------------------------------------------------------------
# analytic: instance studies through the command line


_STRATA = 10                       # P/N strata cycled over study indices
_SNR_RANGE = (0.01, 1000.0)        # P/N, both sides of rho/(1-rho^2)
_RATIO_RANGE = (0.25, 4.0)         # var2/var1 and p2/p1 on asymmetric studies
_TARGET_RANGE = (1e-3, 1.0)        # targets as a share of the variance
_ORACLE_TARGETS = 10
_BOUNDARY_RESOLUTION = 8


@dataclass
class Study:
    """One instance and its targets, in the units the CLI takes."""

    var1: float
    var2: float
    rho: float
    p1: float
    p2: float
    noise: float
    d1: float
    d2: float
    rates: tuple                    # (r1, r2) for pair mode, () for symmetric
    oracle_targets: list = field(default_factory=list)

    @property
    def symmetric(self) -> bool:
        return not self.rates

    def flags(self):
        return ["--var1", repr(self.var1), "--var2", repr(self.var2),
                "--rho", repr(self.rho), "--p1", repr(self.p1),
                "--p2", repr(self.p2), "--noise", repr(self.noise)]


def draw_study(seed: int, index: int) -> Study:
    """Instance study ``index``; half the studies are symmetric.

    log(P/N) is stratified over study indices, so every run covers the
    whole power range evenly and the mix of cheap and expensive studies is
    the same from seed to seed.  Studies 2k and 2k+1 share their kind and
    stratum, so the untraced (even) and traced (odd) ops of a traced run
    see the same mix.
    """
    rng = _rng(seed, 1, index)
    symmetric = (index // 2) % 2 == 0
    stratum = (index // 4) % _STRATA
    lo, hi = (math.log(v) for v in _SNR_RANGE)
    snr = math.exp(lo + (hi - lo) * (stratum + rng.uniform()) / _STRATA)
    noise = _log_uniform(rng, 0.1, 10.0)
    var1 = _log_uniform(rng, 0.1, 10.0)
    rho = float(rng.uniform(0.0, 0.99))
    p1 = snr * noise
    if symmetric:
        var2, p2, rates = var1, p1, ()
    else:
        var2 = var1 * _log_uniform(rng, *_RATIO_RANGE)
        p2 = p1 * _log_uniform(rng, *_RATIO_RANGE)
        rho = rho if rng.uniform() < 0.5 else -rho
        rates = (float(rng.uniform(0.0, 2.0)), float(rng.uniform(0.0, 2.0)))
    d1 = var1 * _log_uniform(rng, *_TARGET_RANGE)
    d2 = var2 * _log_uniform(rng, *_TARGET_RANGE)
    # oracle targets in canonical units (common variance var1)
    targets = [(var1 * _log_uniform(rng, *_TARGET_RANGE),
                var1 * _log_uniform(rng, *_TARGET_RANGE))
               for _ in range(_ORACLE_TARGETS)]
    return Study(var1, var2, rho, p1, p2, noise, d1, d2, rates, targets)


class Analytic(Workload):
    """Converse, verdict, VQ bound, boundary trace and oracle cross-check.

    Each item is one instance study of four ops: ``bounds``, ``vq-bound``,
    ``sweep --boundary`` and a converse cross-check of the
    reverse-waterfilling oracle against the closed-form rate.
    """

    name = "analytic"

    def __init__(self):
        import jsonschema

        def validator(doc_name):
            with open(SCHEMAS / f"{doc_name}.json") as fh:
                schema = json.load(fh)
            cls = jsonschema.validators.validator_for(schema)
            return cls(schema)

        self._schemas = {k: validator(k) for k in ("bounds", "vq-bound", "sweep-boundary")}
        self.verdicts: dict = {}

    def _valid(self, res, schema):
        rc, out, err = res
        _require(rc == 0, f"exit status {rc}: {err.strip()}")
        doc = json.loads(out)
        errors = list(self._schemas[schema].iter_errors(doc))
        _require(not errors, f"{schema} schema: {errors[0].message if errors else ''}")
        return doc

    def _check_bounds(self, res):
        doc = self._valid(res, "bounds")
        possible = doc["capacity_term"] >= doc["rd_rate"] - _CONVERSE_TOL
        _require(doc["achievable_possible"] == possible,
                 "achievable_possible disagrees with capacity >= rd_rate")
        _require((doc["verdict"] == "UNACHIEVABLE") == (not possible),
                 "UNACHIEVABLE verdict disagrees with the converse")
        self.verdicts[doc["verdict"]] = self.verdicts.get(doc["verdict"], 0) + 1

    def _check_oracle(self, pairs):
        worst = max(abs(closed - oracle) for closed, oracle in pairs)
        _require(worst <= _ORACLE_TOL, f"oracle off by {worst:.3e} bits")

    def op(self, seed, index):
        st = draw_study(seed, index)
        flags = st.flags()
        bounds = ["bounds", *flags, "--d1", repr(st.d1), "--d2", repr(st.d2)]
        vq = ["vq-bound", *flags]
        if not st.symmetric:
            vq += ["--r1", repr(st.rates[0]), "--r2", repr(st.rates[1])]
        sweep = ["sweep", *flags, "--boundary", "--resolution",
                 str(_BOUNDARY_RESOLUTION), "--format", "json"]

        def oracle():
            model, rd = gmacdist.model, gmacdist.rd_bounds
            c = model.canonicalize(model.ProblemInstance(
                st.var1, st.var2, st.rho, st.p1, st.p2, st.noise))
            pairs = []
            for d1, d2 in st.oracle_targets:
                d = model.DistortionPair(d1, d2)
                pairs.append((rd.rd_rate(c, d), rd.waterfill_oracle_rate(c, d)))
            return pairs

        return Op(items=1, steps=[
            Step("bounds", lambda: _cli(bounds), self._check_bounds, _cli_digest),
            Step("vq-bound", lambda: _cli(vq),
                 lambda res: self._valid(res, "vq-bound"), _cli_digest),
            Step("sweep-boundary", lambda: _cli(sweep),
                 lambda res: self._valid(res, "sweep-boundary"), _cli_digest),
            Step("oracle", oracle, self._check_oracle),
        ])

    def facts(self):
        return {"verdicts": dict(sorted(self.verdicts.items())),
                "boundary_resolution": _BOUNDARY_RESOLUTION,
                "oracle_targets_per_study": _ORACLE_TARGETS}


# --------------------------------------------------------------------------
# vq-sim: finite-blocklength quantizer simulation


# (blocklength, trials) of one ladder; the first codebook fits in L2, the
# second (2^16 words of 32 doubles, 16 MiB per side) does not
VQ_LADDER = ((24, 12), (32, 3))
_VQ_RATES = (0.5, 0.5)
_VQ_DELTA = 0.4


def codebook_bytes(n: int, rate: float) -> int:
    return n * (1 << math.ceil(n * rate)) * 8


class VqSim(Workload):
    """Each op is one ladder of ``simulate_vq`` calls on the acceptance
    instance (sigma^2=1, rho=0.8, P=10, N=1, R=0.5/0.5, delta=0.4); each
    item is one Monte Carlo trial.  Every call draws its own codebooks."""

    name = "vq-sim"
    threads = 1

    def __init__(self):
        self.inst = gmacdist.model.symmetric_instance(1.0, 0.8, 10.0, 1.0)
        self.rates = gmacdist.vq_analytic.make_rate_pair(self.inst, *_VQ_RATES)
        self.target = gmacdist.vq_analytic.vq_distortions(self.inst, self.rates)
        self._n32 = []      # (trials, good decodes, corr, cond_d1, cond_d2) per op

    def op(self, seed, index):
        rng = _rng(seed, 2, index)
        seeds = [int(s) for s in rng.integers(0, 2**63, size=len(VQ_LADDER))]

        def ladder():
            sim = gmacdist.vq_sim.simulate_vq
            return [sim(self.inst, self.rates, n, trials, delta_typ=_VQ_DELTA,
                        seed=s, threads=self.threads)
                    for (n, trials), s in zip(VQ_LADDER, seeds)]

        return Op(items=sum(t for _, t in VQ_LADDER),
                  steps=[Step("ladder", ladder, self._check)])

    def _check(self, stats):
        for st in stats:
            always = (st.empirical_d1, st.empirical_d2, st.quantizer_mse1,
                      st.quantizer_mse2, st.empirical_codeword_corr)
            _require(all(math.isfinite(v) for v in always), "non-finite statistics")
            if st.decode_error_count < st.trials:
                _require(math.isfinite(st.cond_d1) and math.isfinite(st.cond_d2),
                         "non-finite conditional distortion")
        last = stats[-1]
        self._n32.append((last.trials, last.trials - last.decode_error_count,
                          last.empirical_codeword_corr, last.cond_d1, last.cond_d2))

    def _pooled(self):
        """Pooled n=32 statistics, each as (mean, standard error of the mean)."""
        def pool(values, weights):
            w = np.asarray(weights, dtype=float)
            v = np.asarray(values, dtype=float)
            mean = float(w @ v / w.sum())
            se = float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else math.inf
            return mean, se

        ops = self._n32
        decoded = [o for o in ops if o[1]]
        out = {"corr": pool([o[2] for o in ops], [o[0] for o in ops])}
        if decoded:
            out["cond_d1"] = pool([o[3] for o in decoded], [o[1] for o in decoded])
            out["cond_d2"] = pool([o[4] for o in decoded], [o[1] for o in decoded])
        return out

    def finish(self):
        """Criterion 8's tolerances, applied to the mean that the pooled
        figure estimates: a run of a few hundred n=32 trials pools a mean
        whose own sampling error is allowed on top (``_VQ_SE_ALLOWANCE``
        standard errors, computed from the per-op figures)."""
        pooled = self._pooled()
        _require("cond_d1" in pooled, "no correct decode at the largest blocklength")
        for key, target in (("cond_d1", self.target.d1), ("cond_d2", self.target.d2)):
            cond, se = pooled[key]
            _require(abs(cond - target) <= _VQ_COND_REL_TOL * target + _VQ_SE_ALLOWANCE * se,
                     f"pooled {key} {cond:.4f} vs {target:.4f}")
        corr, se = pooled["corr"]
        _require(abs(corr - self.rates.rho_tilde) <= _VQ_CORR_TOL + _VQ_SE_ALLOWANCE * se,
                 f"pooled codeword correlation {corr:.4f} vs {self.rates.rho_tilde:.4f}")

    def layer_stats(self, outputs):
        trials = sum(st.trials for stats in outputs for st in stats)
        if not trials:
            return {"vq_sim.decode_ok_frac": 0.0, "vq_sim.fallback_frac": 0.0}
        errors = sum(st.decode_error_count for stats in outputs for st in stats)
        fell = sum(st.fallback_count for stats in outputs for st in stats)
        return {"vq_sim.decode_ok_frac": 1.0 - errors / trials,
                "vq_sim.fallback_frac": fell / trials}

    def facts(self):
        return {
            "ladder": [{"n": n, "trials": t,
                        "codebook_bytes_per_side_computed": codebook_bytes(n, r),
                        "encode_flops_per_trial_per_side_computed":
                            2 * n * (1 << math.ceil(n * r))}
                       for (n, t), r in zip(VQ_LADDER, _VQ_RATES)],
            "pooled_n32_mean_and_se": self._pooled() if self._n32 else None,
        }


# --------------------------------------------------------------------------
# uncoded-sim: vectorised Monte Carlo of uncoded transmission


UNCODED_TRIALS = 1 << 20


class UncodedSim(Workload):
    """Each op is one ``simulate_uncoded`` call of 2^20 trials (16 chunks of
    2^16) on the README instance (sigma^2=1, rho=0.5, P=2, N=3) with a
    two-thread pool; each item is one trial."""

    name = "uncoded-sim"
    threads = 2

    def __init__(self):
        self.inst = gmacdist.model.symmetric_instance(1.0, 0.5, 2.0, 3.0)
        self.closed = gmacdist.uncoded.uncoded_distortions(self.inst)

    def op(self, seed, index):
        sim_seed = int(_rng(seed, 3, index).integers(0, 2**63))

        def call():
            return gmacdist.uncoded.simulate_uncoded(
                self.inst, UNCODED_TRIALS, sim_seed, threads=self.threads)

        return Op(items=UNCODED_TRIALS, steps=[Step("simulate", call, self._check)])

    def _check(self, sim):
        pairs = ((sim.d1, self.closed.d1), (sim.d2, self.closed.d2),
                 (sim.power1, self.inst.p1), (sim.power2, self.inst.p2))
        worst = max(abs(got - want) / want for got, want in pairs)
        _require(worst <= _UNCODED_REL_TOL, f"relative error {worst:.3e}")


WORKLOADS = {w.name: w for w in (Analytic, VqSim, UncodedSim)}
