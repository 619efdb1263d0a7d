"""Distortion bounds for correlated Gaussian sources on a two-user Gaussian
multiple-access channel: converse and achievable regions, uncoded and
vector-quantized transmission, and seeded Monte Carlo validation."""

from .model import (
    CanonicalInstance,
    DistortionPair,
    ProblemInstance,
    SampleBatch,
    canonicalize,
    canonicalize_distortion,
    decanonicalize_distortion,
    derive_seed,
    sample_source_and_noise,
    symmetric_instance,
)
from .rd_bounds import (
    ConvergenceError,
    OuterBoundResult,
    RdCase,
    RdCaseTag,
    capacity_term,
    check_necessary_condition,
    classify_case,
    rd_rate,
    symmetric_outer_bound,
    waterfill_oracle_rate,
)
from .uncoded import (
    UncodedResult,
    UncodedSimResult,
    optimality_threshold,
    simulate_uncoded,
    symmetric_uncoded_bound,
    uncoded_distortions,
)
from .vq_analytic import (
    RatePair,
    VqBoundResult,
    high_snr_asymptote,
    in_rate_region,
    make_rate_pair,
    rate_region_limits,
    rho_tilde,
    solve_symmetric_rate,
    vq_bound,
    vq_distortions,
)
from .vq_sim import (
    Codebook,
    CodebookSizeError,
    VqTrialStats,
    decode,
    encode,
    generate_codebook,
    reconstruction_coefficients,
    simulate_vq,
)
from .region import (
    BoundaryPoint,
    PointVerdict,
    SweepRow,
    Verdict,
    best_vq_for_targets,
    convexify,
    snr_sweep,
    trace_region_boundary,
    verdict,
)
from .acceptance import CriterionResult, format_report, run_all

__version__ = "0.1.0"

__all__ = [
    "CanonicalInstance", "DistortionPair", "ProblemInstance", "SampleBatch",
    "canonicalize", "canonicalize_distortion", "decanonicalize_distortion",
    "derive_seed", "sample_source_and_noise", "symmetric_instance",
    "ConvergenceError", "OuterBoundResult", "RdCase", "RdCaseTag",
    "capacity_term", "check_necessary_condition", "classify_case", "rd_rate",
    "symmetric_outer_bound", "waterfill_oracle_rate",
    "UncodedResult", "UncodedSimResult", "optimality_threshold",
    "simulate_uncoded", "symmetric_uncoded_bound", "uncoded_distortions",
    "RatePair", "VqBoundResult", "high_snr_asymptote", "in_rate_region",
    "make_rate_pair", "rate_region_limits", "rho_tilde",
    "solve_symmetric_rate", "vq_bound", "vq_distortions",
    "Codebook", "CodebookSizeError", "VqTrialStats", "decode", "encode",
    "generate_codebook", "reconstruction_coefficients", "simulate_vq",
    "BoundaryPoint", "PointVerdict", "SweepRow", "Verdict", "best_vq_for_targets",
    "convexify", "snr_sweep", "trace_region_boundary", "verdict",
    "CriterionResult", "format_report", "run_all",
    "__version__",
]
